//! Wall-clock budget for the full-workspace analysis (ISSUE 8 satellite).
//!
//! The linter runs on every CI push, so its own latency is a committed
//! artifact like the allowlist budget: this test re-runs the whole
//! pipeline against the real workspace and fails if it blows past the
//! ceiling. The ceiling is deliberately generous — a debug-profile run
//! measures ~150-200 ms on the reference container (the interprocedural
//! summary and taint passes roughly doubled the pipeline), so tripping
//! 15 s means an accidental quadratic blowup (or an analysis loop that
//! stopped terminating), not a noisy neighbour.

use bsa_lint::{check_workspace, workspace_root, Allowlist};

/// Committed ceiling for one full `check` pipeline, in milliseconds.
const WALL_CLOCK_CEILING_MS: u128 = 15_000;

#[test]
fn full_workspace_check_stays_under_wall_clock_ceiling() {
    let root = workspace_root();
    let outcome = check_workspace(&root, &Allowlist::default()).expect("workspace sources load");

    let t = &outcome.timings;
    // The heavyweight passes measurably ran (µs resolution; the light
    // passes can legitimately round to 0).
    assert!(t.lexical_us > 0, "lexical pass unmeasured: {t:?}");
    assert!(t.parse_us > 0, "parse pass unmeasured: {t:?}");
    assert!(t.summary_us > 0, "summary pass unmeasured: {t:?}");
    assert!(t.flow_us > 0, "flow pass unmeasured: {t:?}");
    assert!(t.taint_us > 0, "taint pass unmeasured: {t:?}");
    assert!(t.total_us > 0, "total unmeasured: {t:?}");

    // Per-pass timings nest inside the end-to-end total.
    let parts = t.lexical_us
        + t.parse_us
        + t.summary_us
        + t.flow_us
        + t.taint_us
        + t.reach_us
        + t.conc_us
        + t.lock_order_us;
    assert!(parts <= t.total_us, "pass timings exceed the total: {t:?}");

    assert!(
        t.total_us / 1000 < WALL_CLOCK_CEILING_MS,
        "full-workspace check took {} ms, ceiling is {WALL_CLOCK_CEILING_MS} ms — \
         profile the pass timings: {t:?}",
        t.total_us / 1000,
    );
}
