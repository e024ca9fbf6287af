//! Seeded panic-freedom violations (lint fixture — lexed, never compiled).
//! tilde-comment markers name the expected violation on that line.

pub fn config_or_die(raw: &str) -> Config {
    let parsed = raw.parse().unwrap(); // clippy `unwrap_used`, not a bsa-lint rule
    validate(parsed).expect("config must be valid") // clippy `expect_used`
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
        Mode::Log => panic!("log mode is not wired up"), // clippy `panic`
        Mode::Auto => unreachable!(), // clippy `unreachable`
    }
}

pub fn later() -> f64 {
    todo!() // clippy `todo`
}

pub fn full_range_and_totals_are_fine(samples: &[f64]) -> f64 {
    let all = &samples[..];
    let head = samples.get(0).copied().unwrap_or(0.0);
    let arr = [head; 4];
    assert!(!samples.is_empty(), "caller contract");
    all.iter().sum::<f64>() + arr.iter().sum::<f64>()
}

#[allow(clippy::expect_used)] //~ panic.allow
pub fn silenced(raw: &str) -> u8 {
    raw.parse().expect("digits")
}

#[cfg_attr(not(test), expect(clippy::panic, clippy::unwrap_used))] //~ panic.allow
pub fn silenced_outside_tests() {}

#[allow(warnings)] //~ panic.allow
pub mod quiet {
    #![allow(clippy::restriction)] //~ panic.allow
}

#[cfg_attr(test, allow(clippy::expect_used))]
#[allow(clippy::too_many_arguments, dead_code)]
pub fn test_builds_may_expect(raw: &str) -> u8 {
    raw.parse().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used)]

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
