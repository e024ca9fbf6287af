//! Negative-control fixture: idiomatic code that must produce zero
//! violations under both unit rules.

pub fn typed_frequency(fs: Hertz, cutoff: Hertz) -> f64 {
    cutoff.value() / fs.value()
}

pub fn dimensionless_scalars(gain: f64, ratio: f64, samples: &[f64]) -> f64 {
    gain * ratio * samples.len() as f64
}

fn private_raw_time(dt_s: f64, hold_s: f64) -> f64 {
    let total_s = dt_s + hold_s;
    total_s
}

pub fn products_change_dimension(bias_v: Volt, i_a: Ampere) -> f64 {
    let power = bias_v.value() * i_a.value();
    power
}

pub fn errors_propagate(cfg: &str) -> Result<f64, ParseError> {
    let value: f64 = cfg.parse()?;
    Ok(value.clamp(0.0, 1.0))
}
