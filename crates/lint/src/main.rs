//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p bsa-lint -- check     # enforce (CI gate): exit 1 on any
//!                                    # non-allowlisted violation or any
//!                                    # stale allowlist budget
//! cargo run -p bsa-lint -- check --format json   # machine-readable report
//! cargo run -p bsa-lint -- list     # every raw violation, pre-allowlist
//! cargo run -p bsa-lint -- budget   # total allowlist budget (CI compares
//!                                    # this against the baseline)
//! cargo run -p bsa-lint -- tighten  # rewrite lint.allow.toml budgets
//!                                    # down to the actual counts
//! ```

use bsa_lint::{
    allow, check_sources, check_workspace, load_sources, render_json, rule_description,
    workspace_root, Allowlist, PassTimings, Report, RULE_IDS,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

const ALLOWLIST: &str = "lint.allow.toml";

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
        Some("list") => cmd_list(),
        Some("budget") => cmd_budget(),
        Some("tighten") => cmd_tighten(),
        Some("rules") => {
            for id in RULE_IDS {
                println!("{id:<22} {}", rule_description(id));
            }
            ExitCode::SUCCESS
        }
        other => {
            let name = other.unwrap_or("<none>");
            eprintln!("bsa-lint: unknown command `{name}`");
            eprintln!(
                "usage: cargo run -p bsa-lint -- <check|list|budget|tighten|rules> \
                 [--format json]"
            );
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

fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    let path = root.join(ALLOWLIST);
    if !path.is_file() {
        return Ok(Allowlist::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Allowlist::parse(&text).map_err(|e| e.to_string())
}

/// One-line pass-timing summary for the human-readable output.
fn timings_line(t: &PassTimings) -> String {
    format!(
        "timings: lexical {}ms, parse {}ms, summary {}ms, flow {}ms, taint {}ms, \
         reach {}ms, conc {}ms, lock-order {}ms — total {}ms",
        t.lexical_us / 1000,
        t.parse_us / 1000,
        t.summary_us / 1000,
        t.flow_us / 1000,
        t.taint_us / 1000,
        t.reach_us / 1000,
        t.conc_us / 1000,
        t.lock_order_us / 1000,
        t.total_us / 1000,
    )
}

fn cmd_check(json: bool) -> ExitCode {
    let root = workspace_root();
    let allowlist = match load_allowlist(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sources = match load_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = check_sources(&sources, &allowlist);
    let violations = &outcome.violations;
    let rec = allow::reconcile(violations, &allowlist);

    if json {
        print!(
            "{}",
            render_json(&Report {
                files_checked: sources.len(),
                violations_total: violations.len(),
                proven_sites: outcome.proven_sites,
                rec: &rec,
                allow: &allowlist,
                timings: &outcome.timings,
            })
        );
        return if rec.clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for v in &rec.unallowed {
        println!("{v}");
    }
    for (entry, actual) in &rec.stale {
        println!(
            "{}: [stale-budget] allowlist grants {} × {} but only {actual} remain; \
             run `cargo run -p bsa-lint -- tighten`",
            entry.file, entry.max, entry.rule
        );
    }

    println!("{}", timings_line(&outcome.timings));
    let allowed = violations.len() - rec.unallowed.len();
    if rec.clean() {
        println!(
            "bsa-lint: clean — {} violations, all within the {} allowlisted budgets \
             (total budget {})",
            allowed,
            allowlist.entries.len(),
            allowlist.total_budget()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "bsa-lint: FAILED — {} non-allowlisted violation(s), {} stale budget(s)",
            rec.unallowed.len(),
            rec.stale.len()
        );
        ExitCode::FAILURE
    }
}

fn cmd_list() -> ExitCode {
    let root = workspace_root();
    let allowlist = match load_allowlist(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_workspace(&root, &allowlist) {
        Ok(outcome) => {
            for v in &outcome.violations {
                println!("{v}");
            }
            let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
            for v in &outcome.violations {
                *by_rule.entry(v.rule).or_default() += 1;
            }
            println!("-- {} total", outcome.violations.len());
            for (rule, n) in by_rule {
                println!("--   {rule}: {n}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_budget() -> ExitCode {
    let root = workspace_root();
    match load_allowlist(&root) {
        Ok(a) => {
            println!("{}", a.total_budget());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_tighten() -> ExitCode {
    let root = workspace_root();
    let allowlist = match load_allowlist(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = match check_workspace(&root, &allowlist) {
        Ok(outcome) => outcome.violations,
        Err(e) => {
            eprintln!("bsa-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in &violations {
        *counts
            .entry((v.file.clone(), v.rule.to_string()))
            .or_default() += 1;
    }
    let mut tightened = Allowlist::default();
    for entry in &allowlist.entries {
        let actual = counts
            .get(&(entry.file.clone(), entry.rule.clone()))
            .copied()
            .unwrap_or(0);
        if actual == 0 {
            println!(
                "dropping ({}, {}) — no violations remain",
                entry.file, entry.rule
            );
            continue;
        }
        if actual != entry.max {
            println!(
                "tightening ({}, {}) from {} to {actual}",
                entry.file, entry.rule, entry.max
            );
        }
        tightened.entries.push(allow::AllowEntry {
            max: actual,
            ..entry.clone()
        });
    }
    let path = root.join(ALLOWLIST);
    if let Err(e) = fs::write(&path, tightened.to_toml()) {
        eprintln!("bsa-lint: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "bsa-lint: wrote {} ({} entries, total budget {})",
        ALLOWLIST,
        tightened.entries.len(),
        tightened.total_budget()
    );
    ExitCode::SUCCESS
}
