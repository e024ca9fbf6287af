//! Clippy is the only gate on panics in library code: every library
//! crate root forbids clippy's panic and indexing lints outside test
//! builds, and `[workspace.lints.clippy]` in the workspace `Cargo.toml`
//! raises the panic lints everywhere else. It is also the only gate on
//! atomics and locks in the serving crates: their `clippy.toml` bans them
//! outside `bsa-station`'s `stats.rs` and its session table. Deleting a
//! `forbid` line or one of its lints, a line from that table, a ban, or a
//! crate's `[lints] workspace = true`, would drop a gate without a single
//! failing check, so these tests read the sources and manifests.
//!
//! The session table is the one lock, and it is free of blocking calls
//! by structure: it is generic over its entry with no bound, and its
//! module names no socket, channel, sleep or clock API.
//!
//! The same holds for dependencies: the workspace builds from its own
//! members alone, so a path dependency outside `crates/` or a lock-file
//! package that is not a member, such as a vendored stand-in for a
//! published crate, fails here.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::path::{Component, Path, PathBuf};

/// The workspace root: this package's manifest directory.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

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

/// The root manifest and every member's, as (path, text).
fn workspace_manifests() -> Vec<(PathBuf, String)> {
    let root = workspace_root();
    let crates = fs::read_dir(root.join("crates")).unwrap();
    crates
        .map(|e| e.unwrap().path().join("Cargo.toml"))
        .chain([root.join("Cargo.toml")])
        .map(|path| {
            let text = fs::read_to_string(&path).unwrap();
            (path, text)
        })
        .collect()
}

/// `dir/rel` with every `..` and `.` resolved.
fn resolve(dir: &Path, rel: &str) -> PathBuf {
    let mut out = PathBuf::new();
    for part in dir.join(rel).components() {
        match part {
            Component::ParentDir => {
                out.pop();
            }
            Component::CurDir => {}
            other => out.push(other),
        }
    }
    out
}

#[test]
fn path_dependencies_stay_inside_crates() {
    let crates_dir = resolve(&workspace_root(), "crates");
    for (manifest, text) in workspace_manifests() {
        let dir = manifest.parent().unwrap();
        // The `path = "…"` values of every dependency table.
        let paths = text
            .split("\n[")
            .filter(|section| {
                section
                    .split(']')
                    .next()
                    .unwrap_or("")
                    .ends_with("dependencies")
            })
            .flat_map(str::lines)
            .filter_map(|line| line.split("path = \"").nth(1)?.split('"').next());
        for rel in paths {
            let target = resolve(dir, rel);
            assert!(
                target.starts_with(&crates_dir),
                "{} depends on `{rel}`, outside crates/",
                manifest.display()
            );
        }
    }
}

#[test]
fn lock_file_lists_only_workspace_members() {
    let members: Vec<String> = workspace_manifests()
        .iter()
        .filter_map(|(_, text)| {
            let package = text.split('[').find(|s| s.starts_with("package]"))?;
            let name = package.lines().find_map(|l| l.strip_prefix("name = "))?;
            Some(name.trim_matches('"').to_string())
        })
        .collect();
    assert!(members.iter().any(|m| m == "bsa-lint"), "{members:?}");
    let lock = fs::read_to_string(workspace_root().join("Cargo.lock")).unwrap();
    for package in lock.split("[[package]]").skip(1) {
        let name = package
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .map(|n| n.trim_matches('"'))
            .unwrap_or_else(|| panic!("Cargo.lock entry without a name: {package}"));
        assert!(
            members.iter().any(|m| m == name) && !package.contains("\nsource = "),
            "Cargo.lock lists `{name}`, which is not a workspace member"
        );
    }
}

/// The lints every library crate root forbids outside test builds.
const FORBIDDEN: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::unimplemented",
    "clippy::todo",
    "clippy::indexing_slicing",
];

/// Every crate root outside `crates/bench`: each member's `src/lib.rs`,
/// `src/main.rs` and `src/bin/*.rs`, and the root package's `src/lib.rs`.
fn crate_roots() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut roots = vec![root.join("src/lib.rs")];
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.starts_with(root.join("crates/bench")) {
            continue;
        }
        roots.extend(
            [src.join("lib.rs"), src.join("main.rs")]
                .into_iter()
                .filter(|p| p.is_file()),
        );
        if let Ok(bins) = fs::read_dir(src.join("bin")) {
            roots.extend(bins.map(|e| e.unwrap().path()).filter(|p| p.is_file()));
        }
    }
    roots
}

/// `text` with its `//` comments removed.
fn without_comments(text: &str) -> String {
    let lines = text
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""));
    lines.collect::<Vec<_>>().join("\n")
}

/// `text` with its comments and all whitespace removed.
fn compact(text: &str) -> String {
    without_comments(text).split_whitespace().collect()
}

#[test]
fn every_crate_root_forbids_the_panic_lints_outside_tests() {
    let roots = crate_roots();
    for expected in [
        "src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/station/src/main.rs",
        "crates/station/src/bin/ctl.rs",
    ] {
        assert!(
            roots.contains(&workspace_root().join(expected)),
            "{expected} is not among the crate roots {roots:?}"
        );
    }
    for path in roots {
        let code = compact(&fs::read_to_string(&path).unwrap());
        // The lint lists of every `#![cfg_attr(not(test), forbid(…))]`.
        let forbidden: Vec<&str> = code
            .split("#![cfg_attr(not(test),forbid(")
            .skip(1)
            .filter_map(|rest| rest.split(')').next())
            .flat_map(|lints| lints.split(','))
            .collect();
        for lint in FORBIDDEN {
            assert!(
                forbidden.contains(lint),
                "{} must forbid `{lint}` outside tests with \
                 `#![cfg_attr(not(test), forbid(…))]`; it forbids {forbidden:?}",
                path.display()
            );
        }
    }
}

/// The module that holds the session table, the serving crates' one lock.
const SESSION_TABLE: &str = "crates/station/src/session_table.rs";

#[test]
fn the_session_table_names_no_blocking_api() {
    let text = fs::read_to_string(workspace_root().join(SESSION_TABLE)).unwrap();
    for path in ["std::net", "std::io", "std::thread", "std::time", "mpsc"] {
        assert!(!text.contains(path), "{SESSION_TABLE} names `{path}`");
    }
    // A `use std::{io, thread}` or a re-exported `thread::sleep` names
    // no full path; every identifier of the code is checked as well.
    let code = without_comments(&text);
    let idents: Vec<&str> = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .collect();
    for name in ["net", "io", "thread", "time", "mpsc"] {
        assert!(
            !idents.contains(&name),
            "{SESSION_TABLE} names the `{name}` module"
        );
    }
    // Generic over its entry with no bound: a method on the entry would
    // need one.
    let code = compact(&text);
    assert!(
        code.contains("impl<T>SessionTable<T>{"),
        "{SESSION_TABLE} must implement `SessionTable<T>` for every `T`"
    );
    assert!(
        !code.contains("T:") && !idents.contains(&"where"),
        "{SESSION_TABLE} bounds its entry type"
    );
}
