//! Seeded dataflow violations for `flow.unit`, beside the index sites no
//! pass discharges (semantic lint fixture — lexed and parsed, never
//! compiled).
//!
//! The fixture harness also reports every `panic.indexing` site, so each
//! index below carries that marker: a guard, however tight, does not take
//! a site off its file's budget.

// ---------------------------------------------------------------------------
// flow.unit — intraprocedural unit inference
// ---------------------------------------------------------------------------

/// Typed params carry their declared dimension: Volt + Hertz can't add.
fn mixed_typed_sum(bias_v: Volt, f_clk_hz: Hertz) -> f64 {
    let total = bias_v + f_clk_hz; //~ flow.unit
    total
}

/// An `f64` param takes the dimension its name implies; so does the
/// binding's own name — and a frequency is not a period.
fn name_implied_mismatch(f_clk_hz: f64) -> f64 {
    let period_s = f_clk_hz; //~ flow.unit
    period_s
}

/// Reassignment checks against the dimension the binding already holds.
fn reassigned_across_dimensions(f_lo: Hertz) -> Volt {
    let mut level = Volt::new(0.0);
    level = f_lo; //~ flow.unit
    level
}

/// Same dimension on both sides: silent.
fn consistent_sum(fs: Hertz, f0: Hertz) -> Hertz {
    let upper = fs + f0;
    upper
}

// ---------------------------------------------------------------------------
// Index sites: flagged wherever they stand
// ---------------------------------------------------------------------------

/// The last element is at `len() - 1`; `xs[xs.len()]` always panics, and
/// rustc does not see it.
fn off_the_end(xs: &[f64]) -> f64 {
    xs[xs.len()] //~ panic.indexing
}

/// A guard does not discharge a site; here an assignment at the tail of a
/// block, with no `;`, even rebinds `i` after it.
fn block_tail_reassigned(xs: &[f64], mut i: usize, big: bool) -> f64 {
    if i < xs.len() {
        if big { i = 1000 }
        return xs[i]; //~ panic.indexing
    }
    0.0
}

/// So does an assignment that is a match arm's whole body.
fn match_arm_reassigned(xs: &[f64], mut i: usize, far: Reach) -> f64 {
    if i < xs.len() {
        match far {
            Reach::Far => i = 99,
            Reach::Near => {}
        }
        return xs[i]; //~ panic.indexing
    }
    0.0
}

/// An index in a `const` initializer sits outside every fn body and is
/// still a site.
const TAPS: [f64; 2] = [0.5, 0.5];
const FIRST_TAP: f64 = TAPS[1]; //~ panic.indexing
