//! Seeded dataflow violations for `flow.unit` (semantic lint fixture —
//! lexed and parsed, never compiled).

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
