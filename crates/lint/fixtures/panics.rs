//! Seeded panic-freedom violations (lint fixture — lexed, never compiled).
//! tilde-comment markers name the expected violation on that line.

pub fn config_or_die(raw: &str) -> Config {
    let parsed = raw.parse().unwrap(); // clippy `unwrap_used`, not a bsa-lint rule
    validate(parsed).expect("config must be valid") //~ panic.expect
}

pub fn pick(values: &[f64], idx: usize) -> f64 {
    values[idx] //~ panic.indexing
}

pub fn first_window(samples: &[f64]) -> &[f64] {
    &samples[..WINDOW] //~ panic.indexing
}

pub fn midpoint_pair(m: &Matrix) -> f64 {
    m.rows[0][1] //~ panic.indexing //~ panic.indexing
}

pub fn unsupported(mode: Mode) -> f64 {
    match mode {
        Mode::Linear => 1.0,
        Mode::Log => panic!("log mode is not wired up"), //~ panic.macro
        Mode::Auto => unreachable!(), //~ panic.macro
    }
}

pub fn later() -> f64 {
    todo!() //~ panic.macro
}

pub fn full_range_and_totals_are_fine(samples: &[f64]) -> f64 {
    let all = &samples[..];
    let head = samples.get(0).copied().unwrap_or(0.0);
    let arr = [head; 4];
    assert!(!samples.is_empty(), "caller contract");
    all.iter().sum::<f64>() + arr.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap_freely() {
        let x: Option<f64> = Some(1.0);
        let v = [1.0, 2.0];
        assert_eq!(x.unwrap(), v[0]);
        if false {
            panic!("fine in tests");
        }
    }
}
