//! Seeded dataflow violations for `flow.unit` and `flow.range`
//! (semantic lint fixture — lexed and parsed, never compiled).
//!
//! The unmarked functions at the bottom are the prover's positive space:
//! index sites it discharges, so they must produce zero violations. The
//! fixture harness also reports every `panic.indexing` site the prover
//! leaves undischarged, so the definite out-of-bounds lines carry that
//! marker too.

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
// flow.range — interval analysis: definite bugs
// ---------------------------------------------------------------------------

/// The last element is at `len() - 1`; `xs[xs.len()]` always panics.
fn off_the_end(xs: &[f64]) -> f64 {
    xs[xs.len()] //~ flow.range //~ panic.indexing
}

/// An exact length refutes constant indices at or above it.
fn past_exact_len() -> f64 {
    let buf = [0.0; 4];
    buf[7] //~ flow.range //~ panic.indexing
}

/// Divisor is the literal zero.
fn div_by_literal_zero(n: u64) -> u64 {
    n / 0 //~ flow.range
}

/// Divisor is a binding that is constantly zero at the use.
fn mod_by_zero_binding(n: u64) -> u64 {
    let z = 0;
    n % z //~ flow.range
}

// ---------------------------------------------------------------------------
// flow.range — a reassignment cuts the guard short: not discharged
// ---------------------------------------------------------------------------

/// An assignment at the tail of a block, with no `;`, still rebinds `i`.
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

// ---------------------------------------------------------------------------
// flow.range — proven in-bounds: must stay silent
// ---------------------------------------------------------------------------

/// `for i in 0..xs.len()` bounds `i` for the loop body.
fn proven_loop(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..xs.len() {
        acc = acc + xs[i];
    }
    acc
}

/// `len() - 1` is in bounds once the emptiness guard has run.
fn proven_guarded_last(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs[xs.len() - 1]
}

// ---------------------------------------------------------------------------
// Discharge is per site, and the site table covers every token
// ---------------------------------------------------------------------------

/// One proven and one unproven site on the same line: only the unproven
/// `ys[i]` is reported.
fn mixed_line(xs: &[f64], ys: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..xs.len() {
        acc = acc + xs[i] * ys[i]; //~ panic.indexing
    }
    acc
}

/// An index in a `const` initializer sits outside every fn body and is
/// still a site.
const TAPS: [f64; 2] = [0.5, 0.5];
const FIRST_TAP: f64 = TAPS[1]; //~ panic.indexing

/// The prover does not look inside an index it cannot prove: `idx[i]` is
/// provable on its own, but nested in `xs[..]` it stays unproven.
fn nested_gather(xs: &[f64], idx: &[usize]) -> f64 {
    let mut acc = 0.0;
    for i in 0..idx.len() {
        acc = acc + xs[idx[i]]; //~ panic.indexing //~ panic.indexing
    }
    acc
}
