// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
//! CLI for the workspace unit checker.
//!
//! ```text
//! cargo run -p bsa-lint -- check     # enforce (CI gate): exit 1 on any
//!                                    # violation
//! cargo run -p bsa-lint -- check --format json   # machine-readable report
//! cargo run -p bsa-lint -- rules     # every rule id with its description
//! ```
//!
//! The rules are the unit rules, `units.raw-f64` and `flow.unit`; panics,
//! indexing and locks are clippy's and rustc's to report.

use bsa_lint::{
    check_sources, load_sources, render_json, rule_description, workspace_root, PassTimings,
    Report, RULE_IDS,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => match parse_format(&args) {
            Ok(json) => cmd_check(json),
            Err(e) => {
                eprintln!("bsa-lint: {e}");
                ExitCode::from(2)
            }
        },
        Some("rules") => {
            for id in RULE_IDS {
                println!("{id:<22} {}", rule_description(id));
            }
            ExitCode::SUCCESS
        }
        other => {
            let name = other.unwrap_or("<none>");
            eprintln!("bsa-lint: unknown command `{name}`");
            eprintln!("usage: cargo run -p bsa-lint -- <check|rules> [--format json]");
            ExitCode::from(2)
        }
    }
}

/// `--format json` or `--format=json` anywhere after the command:
/// `true` for the JSON report, `false` for human-readable output.
fn parse_format(args: &[String]) -> Result<bool, String> {
    let mut prev_was_format = false;
    for a in args {
        let value = if let Some(v) = a.strip_prefix("--format=") {
            Some(v)
        } else if prev_was_format {
            Some(a.as_str())
        } else {
            None
        };
        prev_was_format = a == "--format";
        match value {
            Some("json") => return Ok(true),
            Some(other) => return Err(format!("unknown format `{other}` (json)")),
            None => {}
        }
    }
    if prev_was_format {
        return Err("missing value after --format (json)".to_string());
    }
    Ok(false)
}

/// One-line pass-timing summary for the human-readable output.
fn timings_line(t: &PassTimings) -> String {
    format!(
        "timings: lexical {}ms, parse {}ms, flow {}ms — total {}ms",
        t.lexical_us / 1000,
        t.parse_us / 1000,
        t.flow_us / 1000,
        t.total_us / 1000,
    )
}

fn cmd_check(json: bool) -> ExitCode {
    let sources = match load_sources(&workspace_root()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = check_sources(&sources);
    let violations = &outcome.violations;

    if json {
        print!(
            "{}",
            render_json(&Report {
                files_checked: sources.len(),
                violations,
                timings: &outcome.timings,
            })
        );
    } else {
        for v in violations {
            println!("{v}");
        }
        println!("{}", timings_line(&outcome.timings));
        if violations.is_empty() {
            println!("bsa-lint: clean — 0 violations in {} files", sources.len());
        } else {
            println!("bsa-lint: FAILED — {} violation(s)", violations.len());
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
