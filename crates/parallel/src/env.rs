//! Central access to the `VAEM_*` environment knobs — the **only** file in
//! the workspace where `std::env::var` is permitted (lint rule D2).
//!
//! Every behavior-changing knob goes through one of the typed readers here,
//! which parse, clamp, and warn **once per variable** on unusable values so
//! a typo degrades to a safe fallback instead of silently mis-configuring a
//! run (or panicking mid-sweep). The full knob catalog lives in the README
//! "Environment knobs" table; the one-time warning keeps noisy harnesses
//! (benches re-reading a knob per iteration) from flooding stderr.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// How an environment value parsed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Parsed<T> {
    /// Variable not set: the caller picks its default.
    Unset,
    /// Set but unusable (garbage, zero, negative, non-finite): the caller
    /// picks a safe fallback, normally after [`warn_invalid_once`].
    Invalid,
    /// A usable value, already clamped.
    Value(T),
}

/// Reads a variable raw. This is the single `std::env::var` chokepoint the
/// D2 lint rule allowlists; everything else must call a typed reader.
pub fn raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Warns about an unusable value — once per variable name per process, so
/// per-iteration readers cannot flood stderr. `expected` describes the
/// accepted form, `fallback` what the run does instead.
pub fn warn_invalid_once(name: &str, value: &str, expected: &str, fallback: &str) {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = match warned.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    if guard.insert(name.to_string()) {
        eprintln!("warning: {name}={value:?} is not {expected}; {fallback}");
    }
}

/// Parses an optional raw value as a positive integer capped at `cap`
/// (pure; the policy half of [`positive_usize`]).
pub fn parse_positive_usize(value: Option<&str>, cap: usize) -> Parsed<usize> {
    let Some(raw) = value else {
        return Parsed::Unset;
    };
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => Parsed::Invalid,
        Ok(n) => Parsed::Value(n.min(cap)),
    }
}

/// Parses an optional raw value as a positive finite float (pure).
pub fn parse_positive_f64(value: Option<&str>) -> Parsed<f64> {
    let Some(raw) = value else {
        return Parsed::Unset;
    };
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Parsed::Value(v),
        _ => Parsed::Invalid,
    }
}

/// A positive-integer knob: the variable's value capped at `cap` when it
/// parses, `default()` when unset, and `invalid_fallback` — after a
/// one-time warning describing `fallback_desc` — when it holds garbage,
/// zero, or a negative number.
///
/// Read on every call (not cached) so tests and harnesses can switch a
/// variable between runs within one process.
pub fn positive_usize(
    name: &str,
    cap: usize,
    default: impl FnOnce() -> usize,
    invalid_fallback: usize,
    fallback_desc: &str,
) -> usize {
    let value = raw(name);
    match parse_positive_usize(value.as_deref(), cap) {
        Parsed::Value(n) => n,
        Parsed::Unset => default(),
        Parsed::Invalid => {
            warn_invalid_once(
                name,
                value.as_deref().unwrap_or_default(),
                "a positive integer",
                fallback_desc,
            );
            invalid_fallback
        }
    }
}

/// A positive-finite-float knob: the variable's value when it parses,
/// `default` otherwise (with a one-time warning when it holds garbage
/// rather than being unset).
pub fn positive_f64(name: &str, default: f64, fallback_desc: &str) -> f64 {
    let value = raw(name);
    match (parse_positive_f64(value.as_deref()), value.as_deref()) {
        (Parsed::Value(v), _) => v,
        (_, None) => default,
        (_, Some(bad)) => {
            warn_invalid_once(name, bad, "a positive finite number", fallback_desc);
            default
        }
    }
}

/// A boolean knob: true exactly when the variable is set to `"1"`.
pub fn flag(name: &str) -> bool {
    raw(name).as_deref() == Some("1")
}

/// An optional positive-integer knob with no warning or clamping beyond the
/// parse itself (unset and garbage are both `None`).
pub fn opt_usize(name: &str) -> Option<usize> {
    raw(name)
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_usize_parsing_rules() {
        use Parsed::*;
        // Unset: fall back to the caller's default.
        assert_eq!(parse_positive_usize(None, 512), Unset);
        // Garbage, zero and negative values are invalid (the knob helpers
        // clamp them to a safe fallback with a one-time warning).
        assert_eq!(parse_positive_usize(Some(""), 512), Invalid);
        assert_eq!(parse_positive_usize(Some("abc"), 512), Invalid);
        assert_eq!(parse_positive_usize(Some("0"), 512), Invalid);
        assert_eq!(parse_positive_usize(Some("-3"), 512), Invalid);
        assert_eq!(parse_positive_usize(Some("2.5"), 512), Invalid);
        assert_eq!(parse_positive_usize(Some("4 threads"), 512), Invalid);
        // Valid values pass through, capped.
        assert_eq!(parse_positive_usize(Some("1"), 512), Value(1));
        assert_eq!(parse_positive_usize(Some(" 8 "), 512), Value(8));
        assert_eq!(parse_positive_usize(Some("99999"), 512), Value(512));
    }

    #[test]
    fn positive_f64_parsing_rules() {
        use Parsed::*;
        assert_eq!(parse_positive_f64(None), Unset);
        assert_eq!(parse_positive_f64(Some("")), Invalid);
        assert_eq!(parse_positive_f64(Some("abc")), Invalid);
        assert_eq!(parse_positive_f64(Some("0")), Invalid);
        assert_eq!(parse_positive_f64(Some("-0.1")), Invalid);
        assert_eq!(parse_positive_f64(Some("inf")), Invalid);
        assert_eq!(parse_positive_f64(Some("NaN")), Invalid);
        assert_eq!(parse_positive_f64(Some("0.05")), Value(0.05));
        assert_eq!(parse_positive_f64(Some(" 1e-3 ")), Value(1e-3));
    }

    #[test]
    fn knob_helpers_apply_policy() {
        // Exercised through the pure halves plus an unset variable (the
        // test harness must not mutate the process environment).
        assert_eq!(
            positive_usize("VAEM_TEST_UNSET_KNOB", 8, || 5, 1, "unused"),
            5
        );
        assert_eq!(positive_f64("VAEM_TEST_UNSET_KNOB", 1.25, "unused"), 1.25);
        assert!(!flag("VAEM_TEST_UNSET_KNOB"));
        assert_eq!(opt_usize("VAEM_TEST_UNSET_KNOB"), None);
    }

    #[test]
    fn warn_once_is_per_variable() {
        // Warning twice for one name must not print twice; this only
        // checks it does not panic or deadlock (stderr is not captured).
        warn_invalid_once("VAEM_TEST_WARN", "x", "a positive integer", "ignored");
        warn_invalid_once("VAEM_TEST_WARN", "y", "a positive integer", "ignored");
    }
}
