//! The readout signal chain (paper Fig. 6, right half).
//!
//! Per channel: pixel difference current → readout amplifier (current gain
//! ×100, BW 4 MHz) → gain stage ×7 → 8-to-1 multiplexer → output driver
//! (BW 32 MHz) → off-chip ×4 → ×2 → transimpedance conversion. "The
//! subsequent current gain stages also undergo a calibration procedure
//! before used for signal amplification."

use bsa_rng::{GaussianSampler, SmallRng, Ziggurat};
use bsa_units::{Ampere, Hertz, Ohm, Seconds, Volt};

/// One current-gain stage with mismatch and optional gain calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct GainStage {
    nominal_gain: f64,
    gain_error: f64,
    correction: f64,
    bandwidth: Hertz,
}

impl GainStage {
    /// Creates a stage with the given nominal current gain and bandwidth,
    /// sampling a static gain error of relative σ `gain_sigma`.
    pub fn sample(
        nominal_gain: f64,
        bandwidth: Hertz,
        gain_sigma: f64,
        rng: &mut SmallRng,
    ) -> Self {
        let mut g = GaussianSampler::new();
        Self {
            nominal_gain,
            gain_error: gain_sigma * g.sample(rng),
            correction: 1.0,
            bandwidth,
        }
    }

    /// An error-free stage.
    pub fn ideal(nominal_gain: f64, bandwidth: Hertz) -> Self {
        Self {
            nominal_gain,
            gain_error: 0.0,
            correction: 1.0,
            bandwidth,
        }
    }

    /// The actual gain including error and any calibration correction.
    pub fn gain(&self) -> f64 {
        self.nominal_gain * (1.0 + self.gain_error) * self.correction
    }

    /// Nominal design gain.
    pub fn nominal_gain(&self) -> f64 {
        self.nominal_gain
    }

    /// Stage bandwidth.
    pub fn bandwidth(&self) -> Hertz {
        self.bandwidth
    }

    /// Settling time constant, τ = 1/(2π·BW).
    pub fn tau(&self) -> Seconds {
        Seconds::new(1.0 / (2.0 * std::f64::consts::PI * self.bandwidth.value()))
    }

    /// Calibrates the stage against a reference: stores a correction that
    /// makes the effective gain exactly nominal.
    pub fn calibrate(&mut self) {
        self.correction = 1.0 / (1.0 + self.gain_error);
    }
}

/// Configuration of the full per-channel chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainConfig {
    /// Readout-amplifier current gain (paper: ×100).
    pub readout_gain: f64,
    /// Readout-amplifier bandwidth (paper: 4 MHz).
    pub readout_bandwidth: Hertz,
    /// Second on-chip gain (paper: ×7).
    pub second_gain: f64,
    /// Output-driver bandwidth (paper: 32 MHz).
    pub driver_bandwidth: Hertz,
    /// First off-chip gain (paper: ×4).
    pub offchip_gain_a: f64,
    /// Second off-chip gain (paper: ×2).
    pub offchip_gain_b: f64,
    /// Transimpedance converting the final current to a voltage.
    pub conversion_resistance: Ohm,
    /// Relative gain-error σ per on-chip stage before calibration.
    pub stage_gain_sigma: f64,
    /// Input-referred current-noise RMS per sample (at the chain input).
    pub input_noise: Ampere,
}

impl ChainConfig {
    /// Nominal design current gain: the product of the four stage gains
    /// (5600 for the paper's values).
    pub fn nominal_current_gain(&self) -> f64 {
        self.readout_gain * self.second_gain * self.offchip_gain_a * self.offchip_gain_b
    }
}

impl Default for ChainConfig {
    /// The paper's gain partitioning: 100 × 7 × 4 × 2 = 5600.
    fn default() -> Self {
        Self {
            readout_gain: 100.0,
            readout_bandwidth: Hertz::from_mega(4.0),
            second_gain: 7.0,
            driver_bandwidth: Hertz::from_mega(32.0),
            offchip_gain_a: 4.0,
            offchip_gain_b: 2.0,
            conversion_resistance: Ohm::from_kilo(1.0),
            stage_gain_sigma: 0.02,
            input_noise: Ampere::from_nano(0.25),
        }
    }
}

/// One channel's complete chain (the array has 16 of these).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelChain {
    readout: GainStage,
    second: GainStage,
    config: ChainConfig,
    /// Last multiplexed output current, for settling crosstalk.
    last_output: Ampere,
}

/// Precomputed per-channel constants of the chain's sample recursion, used
/// by the linearized fast path. Built by [`ChannelChain::linear_coeffs`]
/// with exactly the arithmetic of [`ChannelChain::process_sample`], so a
/// fast-path sample computed as
///
/// ```text
/// target  = (i + sigma·z)·gain
/// after_a = target + (last − target)·alpha_a
/// out     = after_a + (last − after_a)·alpha_b
/// y       = out·r
/// ```
///
/// is bit-identical to the reference chain given the same input current
/// and noise draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChainCoeffs {
    /// Total current gain through all four stages.
    pub gain: f64,
    /// Readout-amplifier settling factor exp(−dwell/τ_a).
    pub alpha_a: f64,
    /// Output-driver settling factor exp(−dwell/τ_b).
    pub alpha_b: f64,
    /// Transimpedance conversion resistance in ohms.
    pub r: f64,
    /// Input-referred noise RMS in amperes.
    pub sigma: f64,
}

impl ChannelChain {
    /// Instantiates a channel with sampled stage errors.
    pub fn sample(config: ChainConfig, rng: &mut SmallRng) -> Self {
        let readout = GainStage::sample(
            config.readout_gain,
            config.readout_bandwidth,
            config.stage_gain_sigma,
            rng,
        );
        let second = GainStage::sample(
            config.second_gain,
            config.readout_bandwidth,
            config.stage_gain_sigma,
            rng,
        );
        Self {
            readout,
            second,
            config,
            last_output: Ampere::ZERO,
        }
    }

    /// The chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Calibrates both on-chip gain stages (the paper's gain-stage
    /// calibration phase).
    pub fn calibrate(&mut self) {
        self.readout.calibrate();
        self.second.calibrate();
    }

    /// Total current gain through all four stages.
    pub fn current_gain(&self) -> f64 {
        self.readout.gain()
            * self.second.gain()
            * self.config.offchip_gain_a
            * self.config.offchip_gain_b
    }

    /// Output voltage per volt of cleft signal, given the pixel conversion
    /// gain `gm_eff` (A/V at the chain input).
    pub fn voltage_gain(&self, gm_eff: bsa_units::Siemens) -> f64 {
        gm_eff.value() * self.current_gain() * self.config.conversion_resistance.value()
    }

    /// Processes one multiplexed sample: amplifies the pixel difference
    /// current, applies finite-bandwidth settling toward the new value
    /// within the dwell time (leaving crosstalk from the previous pixel),
    /// adds input-referred noise (one [`Ziggurat`] draw from `rng`), and
    /// converts to the output voltage.
    pub fn process_sample(&mut self, i_diff: Ampere, dwell: Seconds, rng: &mut SmallRng) -> Volt {
        let noisy_in = i_diff + self.config.input_noise * Ziggurat::new().sample(rng);
        let target = noisy_in * self.current_gain();

        // Two cascaded single-pole settles: readout amp then driver.
        let tau_a = self.readout.tau();
        let tau_b =
            Seconds::new(1.0 / (2.0 * std::f64::consts::PI * self.config.driver_bandwidth.value()));
        let settle = |from: Ampere, to: Ampere, tau: Seconds| -> Ampere {
            let alpha = (-dwell.value() / tau.value()).exp();
            to + (from - to) * alpha
        };
        let after_a = settle(self.last_output, target, tau_a);
        let out = settle(self.last_output, after_a, tau_b);
        self.last_output = out;
        out * self.config.conversion_resistance
    }

    /// Resets the settling state (e.g. at a row boundary). This is the
    /// chain's only memory: each noise draw is a pure function of the RNG
    /// stream, so after a reset the chain's output depends on nothing but
    /// its inputs and the per-channel stream, whatever ran through it
    /// before.
    pub fn reset_settling(&mut self) {
        self.last_output = Ampere::ZERO;
    }

    /// Precomputes the sample-recursion constants for the given dwell time.
    ///
    /// Each factor is produced by the same expression
    /// [`ChannelChain::process_sample`] evaluates per sample, so the fast
    /// path replicates the reference chain bit-for-bit.
    pub(crate) fn linear_coeffs(&self, dwell: Seconds) -> ChainCoeffs {
        let tau_a = self.readout.tau();
        let tau_b =
            Seconds::new(1.0 / (2.0 * std::f64::consts::PI * self.config.driver_bandwidth.value()));
        ChainCoeffs {
            gain: self.current_gain(),
            alpha_a: (-dwell.value() / tau_a.value()).exp(),
            alpha_b: (-dwell.value() / tau_b.value()).exp(),
            r: self.config.conversion_resistance.value(),
            sigma: self.config.input_noise.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_units::Siemens;

    fn channel(seed: u64) -> ChannelChain {
        let mut rng = SmallRng::seed_from_u64(seed);
        ChannelChain::sample(ChainConfig::default(), &mut rng)
    }

    #[test]
    fn nominal_gain_is_5600() {
        assert_eq!(ChainConfig::default().nominal_current_gain(), 5600.0);
    }

    #[test]
    fn uncalibrated_gain_differs_calibrated_matches() {
        let mut c = channel(2);
        let before = c.current_gain();
        assert!((before - 5600.0).abs() > 1.0, "stage errors must show");
        c.calibrate();
        let after = c.current_gain();
        assert!((after - 5600.0).abs() < 1e-6, "calibrated gain = {after}");
    }

    #[test]
    fn gain_errors_differ_between_channels() {
        let a = channel(3);
        let b = channel(4);
        assert_ne!(a.current_gain(), b.current_gain());
    }

    #[test]
    fn voltage_gain_composition() {
        let mut c = channel(5);
        c.calibrate();
        let gm = Siemens::from_micro(24.0); // 30 µS × 0.8 coupling
        let g = c.voltage_gain(gm);
        // 24 µS × 5600 × 1 kΩ = 134.4 V/V.
        assert!((g - 134.4).abs() < 0.1, "g = {g}");
    }

    #[test]
    fn long_dwell_settles_fully() {
        let mut c = channel(6);
        c.calibrate();
        let mut cfg = c.config().clone();
        cfg.input_noise = Ampere::ZERO;
        let mut c = ChannelChain { config: cfg, ..c };
        let i = Ampere::from_nano(10.0);
        let dwell = Seconds::from_micro(10.0); // ≫ both taus
        let mut rng = SmallRng::seed_from_u64(7);
        let v = c.process_sample(i, dwell, &mut rng);
        let expected = i.value() * 5600.0 * 1000.0;
        assert!((v.value() - expected).abs() / expected < 1e-3, "v = {v}");
    }

    #[test]
    fn short_dwell_leaves_crosstalk() {
        let mut c = channel(8);
        c.calibrate();
        let mut cfg = c.config().clone();
        cfg.input_noise = Ampere::ZERO;
        let mut c = ChannelChain { config: cfg, ..c };
        let mut rng = SmallRng::seed_from_u64(9);
        // Drive a big sample, then a zero sample with a dwell comparable to
        // the readout-amp time constant: residue remains.
        let dwell = Seconds::from_nano(40.0); // τ_readout ≈ 40 ns
        c.process_sample(Ampere::from_nano(100.0), dwell, &mut rng);
        let v = c.process_sample(Ampere::ZERO, dwell, &mut rng);
        assert!(v.value().abs() > 1e-3, "crosstalk residue = {v}");
        // At the real chip's 488 ns dwell the residue is negligible.
        c.reset_settling();
        c.process_sample(
            Ampere::from_nano(100.0),
            Seconds::from_nano(488.0),
            &mut rng,
        );
        let v = c.process_sample(Ampere::ZERO, Seconds::from_nano(488.0), &mut rng);
        assert!(v.value().abs() < 1e-4, "settled residue = {v}");
    }

    #[test]
    fn noise_floor_scales_with_input_noise_spec() {
        let mut c = channel(10);
        c.calibrate();
        let mut rng = SmallRng::seed_from_u64(11);
        let dwell = Seconds::from_micro(10.0);
        let samples: Vec<f64> = (0..5000)
            .map(|_| {
                c.reset_settling();
                c.process_sample(Ampere::ZERO, dwell, &mut rng).value()
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        let expected = ChainConfig::default().input_noise.value() * 5600.0 * 1000.0;
        assert!((sd - expected).abs() / expected < 0.1, "sd = {sd}");
    }

    #[test]
    fn stage_tau_matches_bandwidth() {
        let s = GainStage::ideal(100.0, Hertz::from_mega(4.0));
        assert!((s.tau().as_nano() - 39.8).abs() < 0.5);
    }
}
