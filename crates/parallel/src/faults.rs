//! Deterministic fault injection for exercising the pipeline's failure
//! containment on demand.
//!
//! A [`FaultPlan`] names failures to force at stable **sites** deep in the
//! solver stack (a pivot breakdown, a Krylov non-convergence, a NaN-poisoned
//! solution, an ILU rebuild failure, a degenerate mesh config), keyed by the
//! **stage** of the analysis and the **sample index** within that stage. The
//! analysis layer installs a thread-local [`scope`] around each per-sample
//! evaluation; the injection sites merely ask [`armed`] whether to fail.
//! Because the scope is keyed by `(stage, sample_index)` — never by thread
//! identity or timing — an injected run is bit-reproducible at any
//! `VAEM_THREADS` setting.
//!
//! The plan comes from the `VAEM_FAULTS` environment knob (read through the
//! allowlisted [`crate::env`] chokepoint). Grammar — comma-separated
//! entries:
//!
//! ```text
//! VAEM_FAULTS = entry ("," entry)*
//! entry       = site "@" stage [":" index] ["!"]
//! site        = "pivot" | "krylov" | "nan" | "ilu" | "mesh"
//! stage       = "nominal" | "sscm" | "mc"
//! ```
//!
//! `index` defaults to 0 (the only index the `nominal` stage has). A plain
//! entry fires only on the sample's **first** attempt, so the quarantine
//! layer's single deterministic recovery retry succeeds and the fault shows
//! up as a recovered sample; a trailing `!` makes the entry **sticky** — it
//! fires on every attempt, so the retry fails too and the sample is
//! quarantined for good. Example:
//!
//! ```text
//! VAEM_FAULTS="nan@mc:3,pivot@sscm:1!"
//! ```
//! forces a NaN-poisoned solve in Monte-Carlo run 3 (recovered by the retry)
//! and a sticky pivot breakdown in SSCM collocation sample 1 (quarantined).

use crate::env;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// Environment variable holding the fault plan (see the module docs for the
/// grammar). Unset means no injection; a malformed value warns once and is
/// ignored entirely — a typo must not half-inject a plan.
pub const FAULTS_ENV: &str = "VAEM_FAULTS";

/// A named location in the solver stack where a failure can be forced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Direct-LU numeric factorization reports a singular pivot.
    Pivot,
    /// The Krylov attempt of a prepared iterative solve reports
    /// non-convergence before running (exercising the direct rescue).
    Krylov,
    /// A successful prepared solve's solution vector is poisoned with NaN
    /// (exercising the non-finite guards downstream).
    Nan,
    /// Building or rebuilding the ILU(0) preconditioner fails.
    Ilu,
    /// The per-sample mesh/structure construction reports a degenerate
    /// configuration.
    Mesh,
}

impl FaultSite {
    /// The stable grammar name of the site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Pivot => "pivot",
            FaultSite::Krylov => "krylov",
            FaultSite::Nan => "nan",
            FaultSite::Ilu => "ilu",
            FaultSite::Mesh => "mesh",
        }
    }

    fn parse(text: &str) -> Option<Self> {
        Some(match text {
            "pivot" => FaultSite::Pivot,
            "krylov" => FaultSite::Krylov,
            "nan" => FaultSite::Nan,
            "ilu" => FaultSite::Ilu,
            "mesh" => FaultSite::Mesh,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which fan-out of the analysis a sample index counts within.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultStage {
    /// The single nominal (unperturbed) evaluation; index is always 0.
    Nominal,
    /// SSCM collocation samples (also the per-sample index of frequency
    /// and adaptive sweeps, which evaluate the same collocation set).
    Sscm,
    /// Monte-Carlo reference runs.
    Mc,
}

impl FaultStage {
    /// The stable grammar name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            FaultStage::Nominal => "nominal",
            FaultStage::Sscm => "sscm",
            FaultStage::Mc => "mc",
        }
    }

    fn parse(text: &str) -> Option<Self> {
        Some(match text {
            "nominal" => FaultStage::Nominal,
            "sscm" => FaultStage::Sscm,
            "mc" => FaultStage::Mc,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One parsed `site@stage:index[!]` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// Where in the solver stack the failure is forced.
    pub site: FaultSite,
    /// Which fan-out the index counts within.
    pub stage: FaultStage,
    /// Sample index within the stage.
    pub index: usize,
    /// Sticky entries fire on every attempt (so the recovery retry fails
    /// too); plain entries fire only on attempt 0.
    pub sticky: bool,
}

/// A parsed, immutable fault-injection plan.
///
/// The plan itself is pure data; arming happens through [`scope`], which
/// binds the plan to one `(stage, index, attempt)` evaluation on the
/// current thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// Parses the `VAEM_FAULTS` grammar (see the module docs). Whitespace
    /// around entries and separators is ignored; an empty string (or one
    /// that is only separators) yields an empty plan.
    ///
    /// # Errors
    /// A human-readable description of the first malformed entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (body, sticky) = match part.strip_suffix('!') {
                Some(body) => (body.trim_end(), true),
                None => (part, false),
            };
            let Some((site_text, rest)) = body.split_once('@') else {
                return Err(format!(
                    "entry {part:?} is missing '@' (expected site@stage[:index][!])"
                ));
            };
            let site_text = site_text.trim();
            let Some(site) = FaultSite::parse(site_text) else {
                return Err(format!(
                    "unknown fault site {site_text:?} (expected pivot, krylov, nan, ilu or mesh)"
                ));
            };
            let (stage_text, index) = match rest.split_once(':') {
                Some((stage_text, index_text)) => {
                    let index_text = index_text.trim();
                    let Ok(index) = index_text.parse::<usize>() else {
                        return Err(format!(
                            "invalid sample index {index_text:?} in entry {part:?}"
                        ));
                    };
                    (stage_text, index)
                }
                None => (rest, 0),
            };
            let stage_text = stage_text.trim();
            let Some(stage) = FaultStage::parse(stage_text) else {
                return Err(format!(
                    "unknown fault stage {stage_text:?} (expected nominal, sscm or mc)"
                ));
            };
            entries.push(FaultEntry {
                site,
                stage,
                index,
                sticky,
            });
        }
        Ok(Self { entries })
    }

    /// Reads and parses the `VAEM_FAULTS` knob. `None` when the variable is
    /// unset, empty, or malformed — a malformed value warns once (via
    /// [`env::warn_invalid_once`]) and disables injection entirely rather
    /// than half-applying a typo'd plan.
    pub fn from_env() -> Option<Arc<Self>> {
        let value = env::raw(FAULTS_ENV)?;
        match Self::parse(&value) {
            Ok(plan) if plan.entries.is_empty() => None,
            Ok(plan) => Some(Arc::new(plan)),
            Err(reason) => {
                env::warn_invalid_once(
                    FAULTS_ENV,
                    &value,
                    &format!("a fault plan ({reason})"),
                    "fault injection disabled",
                );
                None
            }
        }
    }

    /// The parsed entries, in plan order.
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Whether the plan would fire `site` for the given evaluation.
    fn fires(&self, site: FaultSite, stage: FaultStage, index: usize, attempt: u32) -> bool {
        self.entries.iter().any(|e| {
            e.site == site && e.stage == stage && e.index == index && (e.sticky || attempt == 0)
        })
    }
}

struct ActiveScope {
    plan: Arc<FaultPlan>,
    stage: FaultStage,
    index: usize,
    attempt: u32,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previously active fault scope on drop (scopes
/// nest: an inner evaluation shadows the outer one on the same thread).
pub struct ScopeGuard {
    previous: Option<ActiveScope>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ACTIVE.with(|cell| {
            *cell.borrow_mut() = self.previous.take();
        });
    }
}

/// Arms `plan` for one per-sample evaluation on the current thread: until
/// the returned guard is dropped, [`armed`] answers for
/// `(stage, index, attempt)`. The caller — the analysis fan-out — installs
/// this *inside* the per-sample worker closure, keyed by the sample index,
/// so arming is independent of which thread runs the sample.
pub fn scope(plan: Arc<FaultPlan>, stage: FaultStage, index: usize, attempt: u32) -> ScopeGuard {
    let previous = ACTIVE.with(|cell| {
        cell.borrow_mut().replace(ActiveScope {
            plan,
            stage,
            index,
            attempt,
        })
    });
    ScopeGuard { previous }
}

/// Whether an injection site should fail right now: true exactly when a
/// scope is active on this thread and its plan has a matching entry for the
/// scope's `(stage, index, attempt)`. Always false outside any scope, so
/// production paths pay one thread-local read and a `None` check.
pub fn armed(site: FaultSite) -> bool {
    ACTIVE.with(|cell| {
        cell.borrow()
            .as_ref()
            .is_some_and(|s| s.plan.fires(site, s.stage, s.index, s.attempt))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse("nan@mc:3, pivot@sscm:1!, mesh@nominal").unwrap();
        assert_eq!(
            plan.entries(),
            &[
                FaultEntry {
                    site: FaultSite::Nan,
                    stage: FaultStage::Mc,
                    index: 3,
                    sticky: false,
                },
                FaultEntry {
                    site: FaultSite::Pivot,
                    stage: FaultStage::Sscm,
                    index: 1,
                    sticky: true,
                },
                FaultEntry {
                    site: FaultSite::Mesh,
                    stage: FaultStage::Nominal,
                    index: 0,
                    sticky: false,
                },
            ]
        );
    }

    #[test]
    fn parses_every_site_and_stage() {
        for site in ["pivot", "krylov", "nan", "ilu", "mesh"] {
            for stage in ["nominal", "sscm", "mc"] {
                let text = format!("{site}@{stage}:7!");
                let plan = FaultPlan::parse(&text).unwrap();
                assert_eq!(plan.entries().len(), 1, "{text}");
                assert_eq!(plan.entries()[0].site.name(), site);
                assert_eq!(plan.entries()[0].stage.name(), stage);
                assert_eq!(plan.entries()[0].index, 7);
                assert!(plan.entries()[0].sticky);
            }
        }
    }

    #[test]
    fn empty_and_separator_only_plans_are_empty() {
        assert!(FaultPlan::parse("").unwrap().entries().is_empty());
        assert!(FaultPlan::parse("  , ,, ").unwrap().entries().is_empty());
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "pivot",          // missing '@'
            "warp@sscm:0",    // unknown site
            "pivot@warm:0",   // unknown stage
            "pivot@sscm:x",   // non-numeric index
            "pivot@sscm:-1",  // negative index
            "pivot@sscm:1.5", // fractional index
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn scope_arms_matching_site_only() {
        let plan = Arc::new(FaultPlan::parse("pivot@sscm:2").unwrap());
        assert!(!armed(FaultSite::Pivot), "no scope → never armed");
        {
            let _guard = scope(plan.clone(), FaultStage::Sscm, 2, 0);
            assert!(armed(FaultSite::Pivot));
            assert!(!armed(FaultSite::Krylov), "site must match");
        }
        assert!(!armed(FaultSite::Pivot), "guard drop restores no-scope");
        let _guard = scope(plan.clone(), FaultStage::Sscm, 3, 0);
        assert!(!armed(FaultSite::Pivot), "index must match");
        drop(_guard);
        let _guard = scope(plan, FaultStage::Mc, 2, 0);
        assert!(!armed(FaultSite::Pivot), "stage must match");
    }

    #[test]
    fn sticky_governs_retry_attempts() {
        let plan = Arc::new(FaultPlan::parse("nan@mc:0, ilu@mc:0!").unwrap());
        let _attempt0 = scope(plan.clone(), FaultStage::Mc, 0, 0);
        assert!(armed(FaultSite::Nan));
        assert!(armed(FaultSite::Ilu));
        drop(_attempt0);
        let _attempt1 = scope(plan, FaultStage::Mc, 0, 1);
        assert!(
            !armed(FaultSite::Nan),
            "plain entry fires only on attempt 0"
        );
        assert!(armed(FaultSite::Ilu), "sticky entry fires on every attempt");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let plan = Arc::new(FaultPlan::parse("mesh@sscm:0").unwrap());
        let _outer = scope(plan.clone(), FaultStage::Sscm, 0, 0);
        assert!(armed(FaultSite::Mesh));
        {
            let _inner = scope(plan.clone(), FaultStage::Mc, 5, 0);
            assert!(!armed(FaultSite::Mesh), "inner scope shadows outer");
        }
        assert!(armed(FaultSite::Mesh), "outer scope restored");
    }
}
