//! The `vaem-lint` command-line gate.
//!
//! ```text
//! vaem-lint [--strict-budget] [--update-budget] [PATH…]
//! ```
//!
//! With no `PATH` arguments the whole workspace file set is linted
//! (`crates/*/src/**` plus the root `src/`) — including, under
//! `--strict-budget`, stale-budget-entry detection; explicit
//! workspace-relative paths lint just those files (used by the CI
//! seeded-fixture check). Exits 0 on a clean tree, 1 on violations, 2 on
//! usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    strict_budget: bool,
    update_budget: bool,
    paths: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        strict_budget: false,
        update_budget: false,
        paths: Vec::new(),
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--strict-budget" => args.strict_budget = true,
            "--update-budget" => args.update_budget = true,
            "--help" | "-h" => {
                return Err(
                    "usage: vaem-lint [--strict-budget] [--update-budget] [PATH…]".to_string(),
                )
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => args.paths.push(path.replace('\\', "/")),
        }
    }
    Ok(args)
}

/// Finds the workspace root: the nearest ancestor of the current directory
/// whose `Cargo.toml` declares `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot resolve cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Ok(dir);
                }
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".to_string());
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = find_root()?;
    let report = if args.paths.is_empty() {
        // Whole-workspace runs go through the driver that also knows how
        // to flag stale budget entries on strict runs.
        vaem_lint::lint_workspace(&root, args.strict_budget).map_err(|e| e.to_string())?
    } else {
        let budget_map = vaem_lint::load_budget(&root).map_err(|e| e.to_string())?;
        vaem_lint::lint_files(&root, &args.paths, &budget_map, args.strict_budget)
            .map_err(|e| e.to_string())?
    };

    if args.update_budget {
        if !args.paths.is_empty() {
            return Err("--update-budget requires a whole-workspace run".to_string());
        }
        let files = vaem_lint::collect_files(&root).map_err(|e| e.to_string())?;
        let mut budget_map = vaem_lint::load_budget(&root).map_err(|e| e.to_string())?;
        let path = root.join(vaem_lint::BUDGET_FILE);
        // Entries for deleted files are pruned (and reported) before the
        // ratchet, so a rename or removal never leaves a stale recording
        // behind to trip a later `--strict-budget` run.
        let pruned = vaem_lint::budget::prune(&mut budget_map, &files);
        for stale in &pruned {
            eprintln!("vaem-lint: pruned budget entry for deleted file {stale}");
        }
        let observed = vaem_lint::observed_counts(&report);
        // First run (no budget file yet): seed from the observed counts.
        // Afterwards the ratchet applies — counts may only go down.
        let next = if path.is_file() {
            vaem_lint::budget::ratchet(&budget_map, &observed)?
        } else {
            observed
        };
        std::fs::write(&path, vaem_lint::budget::render(&next))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let nonzero = next.values().filter(|&&n| n > 0).count();
        eprintln!("vaem-lint: wrote {} ({nonzero} entries)", path.display());
    }

    print!("{}", vaem_lint::render_text(&report));
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("vaem-lint: {message}");
            ExitCode::from(2)
        }
    }
}
