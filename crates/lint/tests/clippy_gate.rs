//! Clippy is the only gate on `.unwrap()`, `.expect()` and the panicking
//! macros in library code: `[workspace.lints.clippy]` in the workspace
//! `Cargo.toml` raises them, CI's `-D warnings` makes them errors, and
//! bsa-lint's `panic.allow` rejects any library attribute that lowers
//! them again. Deleting a line from that table, or a crate's
//! `[lints] workspace = true`, would drop a gate without a single failing
//! check, so these tests read the manifests.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bsa_lint::workspace_root;
use std::fs;

/// The lints that keep panics out of library code.
const PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "unimplemented",
    "todo",
];

#[test]
fn workspace_table_raises_every_panic_lint() {
    let manifest = fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
    // `name = "level"` lines of the `[workspace.lints.clippy]` table.
    let table: Vec<(&str, &str)> = manifest
        .split("\n[")
        .find(|section| section.starts_with("workspace.lints.clippy]"))
        .expect("workspace Cargo.toml has a [workspace.lints.clippy] table")
        .lines()
        .filter_map(|line| line.split('#').next()?.split_once('='))
        .map(|(name, level)| (name.trim(), level.trim().trim_matches('"')))
        .collect();
    for lint in PANIC_LINTS {
        let level = table.iter().find(|(name, _)| name == lint).map(|(_, l)| *l);
        assert!(
            matches!(level, Some("warn" | "deny" | "forbid")),
            "[workspace.lints.clippy] must set `{lint}` to warn, deny or forbid; found {level:?}"
        );
    }
}

#[test]
fn every_workspace_crate_inherits_the_table() {
    let root = workspace_root();
    let crates = fs::read_dir(root.join("crates")).unwrap();
    let manifests = crates.map(|e| e.unwrap().path().join("Cargo.toml"));
    for manifest in manifests.chain([root.join("Cargo.toml")]) {
        let text = fs::read_to_string(&manifest).unwrap();
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} must inherit the workspace lints with `[lints] workspace = true`",
            manifest.display()
        );
    }
}
