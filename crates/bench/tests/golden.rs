//! Golden stdout of every experiment binary.
//!
//! The paper's numbers live in the `exp_*` tables, and every one of them
//! is seeded, so a second run prints the same bytes. Each test here runs
//! one binary and compares its stdout with `golden/<exp>.txt`; `exp_control`
//! also has its recovery trace pinned, which holds no wall time.
//!
//! On a mismatch the test names the first differing line and writes the
//! new output beside the golden file as `golden/<exp>.actual`. Replace the
//! golden file with it only when the change is deliberate, and say why
//! in the change's notes.
//!
//! Each binary runs in its own directory under the target's scratch space,
//! so the files some of them write (`recovery_trace.json`, `exp_f6c`'s
//! event map) stay out of the source tree.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `crates/bench/golden/<name>`.
fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Fails unless `actual` equals the golden file `name`, naming the first
/// differing line and writing `actual` beside it, with `.actual` in place
/// of the golden file's extension.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let want = fs::read_to_string(&path).unwrap_or_default();
    if want == actual {
        return;
    }
    let stem = name.rsplit_once('.').map_or(name, |(stem, _)| stem);
    let actual_path = golden_path(&format!("{stem}.actual"));
    fs::write(&actual_path, actual).unwrap();
    let (mut want_lines, mut got_lines) = (want.lines(), actual.lines());
    let mut line = 1;
    loop {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => line += 1,
            (None, None) => panic!("{} differs only in line endings", path.display()),
            (w, g) => panic!(
                "{} differs at line {line}:\n  golden: {w:?}\n  actual: {g:?}\n\
                 the new output is in {}",
                path.display(),
                actual_path.display()
            ),
        }
    }
}

/// Runs `bin` in a fresh directory of its own and returns that directory
/// and the binary's stdout.
fn run(exp: &str, bin: &str) -> (PathBuf, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("golden")
        .join(exp);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin).current_dir(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "{exp} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, String::from_utf8(out.stdout).unwrap())
}

/// One test per experiment binary, named after it.
macro_rules! golden {
    ($($exp:ident),* $(,)?) => {$(
        #[test]
        fn $exp() {
            let exp = stringify!($exp);
            let (_, stdout) = run(exp, env!(concat!("CARGO_BIN_EXE_", stringify!($exp))));
            assert_golden(&format!("{exp}.txt"), &stdout);
        }
    )*};
}

golden!(
    exp_corners,
    exp_f1,
    exp_f2,
    exp_f3,
    exp_f4,
    exp_f5,
    exp_f6a,
    exp_f6b,
    exp_f6c,
    exp_faults,
    exp_labelfree,
    exp_noise,
    exp_t1,
);

#[test]
fn exp_control() {
    let (dir, stdout) = run("exp_control", env!("CARGO_BIN_EXE_exp_control"));
    assert_golden("exp_control.txt", &stdout);
    let trace = fs::read_to_string(dir.join("recovery_trace.json")).unwrap();
    assert_golden("exp_control.trace.json", &trace);
}
