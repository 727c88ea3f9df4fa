//! Repo maintenance tasks.
//!
//! `cargo run -p xtask -- lint [--json PATH]` runs the simlint static
//! analysis pass over every crate and exits nonzero on any diagnostic
//! at severity warn or above. This is the single lint entry point: CI
//! invokes exactly the same command, with `--json` to capture the
//! machine-readable report as a build artifact.
//!
//! The rules themselves live in `crates/simlint` — a scope-aware engine
//! (minimal Rust lexer + brace/item scoper), so needles inside comments
//! and string literals never fire, reformatting cannot hide a
//! violation, and suppressions can be function-granular. See DESIGN.md
//! ("Static analysis") for the rule catalog, the RFC 793 spec table,
//! and how to add a rule.
//!
//! Suppressions:
//! - line-granular: a trailing comment on the offending line naming the
//!   rule, e.g. `// simlint: allow(<rule-id>)` with a real rule id;
//! - function-granular: the same marker in the comment block above a
//!   function signature covers the whole body;
//! - file-granular: a `<rule-id> <path>` line in `xtask-allow.txt` at
//!   the repo root.
//!
//! Every suppression must still fire: a marker or allowlist entry that
//! no longer matches anything is itself reported (`stale-allow`), so
//! dead exemptions cannot linger and mask future regressions.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--json PATH]");
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut json_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown lint argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Run from the workspace root regardless of invocation directory.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf();

    let report = match simlint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: failed to read workspace: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = json_path {
        if let Err(e) = fs::write(&path, report.to_json()) {
            eprintln!("lint: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for d in &report.diagnostics {
        eprintln!("{d}");
    }
    if report.clean() {
        eprintln!("lint: {} files clean", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lint: {} diagnostic(s) across {} files",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
