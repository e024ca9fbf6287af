//! Clippy is the only gate on `.unwrap()`, `.expect()` and the panicking
//! macros in library code: `[workspace.lints.clippy]` in the workspace
//! `Cargo.toml` raises them, CI's `-D warnings` makes them errors, and
//! bsa-lint's `panic.allow` rejects any library attribute that lowers
//! them again. It is also the only gate on atomics and locks in the
//! serving crates: their `clippy.toml` bans them outside `bsa-station`'s
//! `stats.rs`. Deleting a line from that table, a ban, or a crate's
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

/// The serving crates, whose `clippy.toml` bans the std atomics and locks.
const SERVING_CRATES: &[&str] = &["station", "store", "control"];

/// Every std type a serving crate may not name: each atomic, the memory
/// ordering, and the three blocking primitives.
const CONCURRENCY_BANS: &[&str] = &[
    "std::sync::atomic::AtomicBool",
    "std::sync::atomic::AtomicI8",
    "std::sync::atomic::AtomicI16",
    "std::sync::atomic::AtomicI32",
    "std::sync::atomic::AtomicI64",
    "std::sync::atomic::AtomicIsize",
    "std::sync::atomic::AtomicPtr",
    "std::sync::atomic::AtomicU8",
    "std::sync::atomic::AtomicU16",
    "std::sync::atomic::AtomicU32",
    "std::sync::atomic::AtomicU64",
    "std::sync::atomic::AtomicUsize",
    "std::sync::atomic::Ordering",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
];

#[test]
fn every_serving_crate_bans_the_std_atomics_and_locks() {
    for krate in SERVING_CRATES {
        let path = workspace_root().join(format!("crates/{krate}/clippy.toml"));
        let config = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} must exist: {e}", path.display()));
        // The `path = "…"` entries of the `disallowed-types` list.
        let types = config
            .split("disallowed-types")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .unwrap_or_else(|| panic!("{} has no disallowed-types list", path.display()));
        let banned: Vec<&str> = types
            .lines()
            .filter(|line| !line.trim_start().starts_with('#'))
            .filter_map(|line| line.split("path = \"").nth(1)?.split('"').next())
            .collect();
        for ty in CONCURRENCY_BANS {
            assert!(
                banned.contains(ty),
                "{} must ban `{ty}` in disallowed-types; found {banned:?}",
                path.display()
            );
        }
    }
}
