//! The calibrated sensor pixel (paper Fig. 6, M1/M2/S1–S3).
//!
//! "Since the maximum signal amplitudes are between 100 µV and 5 mV, the
//! sensor MOSFETs (M1) must be calibrated to compensate for the effect of
//! their parameter variations. This is done by closing switch S1 and
//! forcing a current through M1 by current source M2. After opening S1
//! again, a voltage related to the calibration current is stored on the
//! gate of M1. … all sensor transistors M1 within a row provide the same
//! current when selected independent of their individual device
//! parameters."

use bsa_circuit::mismatch::PelgromModel;
use bsa_circuit::mosfet::{Mosfet, MosfetParams};
use bsa_circuit::CircuitError;
use bsa_faults::PixelFaults;
use bsa_rng::{GaussianSampler, SmallRng};
use bsa_units::{Ampere, Farad, Seconds, Siemens, Volt};
use std::sync::Arc;

/// Design values of the neural pixel.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuroPixelConfig {
    /// Sensor transistor geometry/process (M1).
    pub sensor_fet: MosfetParams,
    /// Calibration current forced by M2.
    pub cal_current: Ampere,
    /// Capacitive coupling ratio from electrode to M1 gate
    /// (C_electrode / C_total of the floating node).
    pub coupling_ratio: f64,
    /// Calibration storage capacitance on the gate node.
    pub storage_cap: Farad,
    /// Residual offset σ from S1 charge injection, referred to the gate
    /// (static per pixel).
    pub injection_sigma: Volt,
    /// Mean droop rate of the stored gate voltage (leakage), V/s.
    pub droop_rate_v_per_s: f64,
    /// Drain bias of M1 during readout.
    pub v_drain: Volt,
    /// Source potential of M1.
    pub v_source: Volt,
    /// Pelgrom mismatch model of the process.
    pub pelgrom: PelgromModel,
    /// Relative mismatch σ of the M2 calibration current between pixels.
    pub cal_current_rel_sigma: f64,
}

impl Default for NeuroPixelConfig {
    /// Values for the paper's 0.5 µm process: a 4 µm / 1.5 µm sensor FET
    /// biased at 2 µA, 80 % electrode coupling, 150 µV injection residual.
    fn default() -> Self {
        Self {
            sensor_fet: MosfetParams::n05um(4.0, 1.5),
            cal_current: Ampere::from_micro(2.0),
            coupling_ratio: 0.8,
            storage_cap: Farad::from_femto(50.0),
            injection_sigma: Volt::from_micro(150.0),
            // σ of the per-pixel leakage rate (zero-mean across the array:
            // junction leakage direction varies pixel to pixel).
            droop_rate_v_per_s: 3e-4,
            v_drain: Volt::new(2.5),
            v_source: Volt::ZERO,
            pelgrom: PelgromModel::cmos05um(),
            cal_current_rel_sigma: 0.01,
        }
    }
}

/// What every pixel of a die shares: the design values, the nominal
/// sensor FET (whose parameter block each sampled M1 shares) and the
/// global gate bias, solved once per die.
#[derive(Debug, PartialEq)]
pub(crate) struct PixelModel {
    config: NeuroPixelConfig,
    nominal: Mosfet,
    /// The array-wide nominal gate bias used while uncalibrated
    /// (bisecting the device equation per read would dominate the
    /// uncalibrated scan).
    global_gate: Volt,
}

impl PixelModel {
    /// Validates `config` and solves its global gate bias.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the sensor-FET parameters are invalid
    /// or the calibration current has no nominal operating point.
    pub(crate) fn new(config: NeuroPixelConfig) -> Result<Self, CircuitError> {
        let nominal = Mosfet::try_new(config.sensor_fet.clone())?;
        let global_gate = global_gate_bias(&nominal, &config)?;
        Ok(Self {
            config,
            nominal,
            global_gate,
        })
    }
}

/// One neural-recording pixel: a pointer to the pixel model its die
/// shares (design values, nominal sensor FET, global gate bias) plus this
/// pixel's own mismatch, calibration state and faults.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuroPixel {
    model: Arc<PixelModel>,
    /// M1 with its sampled mismatch (its parameter block is the model's).
    sensor: Mosfet,
    /// Actual M2 current of this pixel (nominal + mirror mismatch).
    cal_current_actual: Ampere,
    /// Static injection offset of this pixel's S1.
    injection_offset: Volt,
    /// This pixel's droop rate (leakage polarity/magnitude varies).
    droop_rate: f64,
    /// Stored gate voltage (None until first calibration).
    stored_gate: Option<Volt>,
    /// Time of the last calibration.
    cal_time: Seconds,
    /// The gate voltage at which M1 conducts exactly this pixel's M2
    /// current, solved once at construction (`None` if no such voltage
    /// exists). Mismatch and M2 current never change after sampling, so
    /// each recalibration only stores this value again.
    cal_gate: Option<Volt>,
    /// Injected defects, stored only on a faulty pixel.
    faults: Option<Box<PixelFaults>>,
}

/// Global gate bias: the voltage that makes a *nominal* device conduct
/// the nominal calibration current.
///
/// A config whose calibration current exceeds what the sensor FET can
/// conduct has no such bias — that is a configuration error (reachable
/// from an `AttachNeuro` wire request), not a panic.
fn global_gate_bias(nominal: &Mosfet, config: &NeuroPixelConfig) -> Result<Volt, CircuitError> {
    calibration_gate(nominal, config.cal_current, config).ok_or(CircuitError::NoOperatingPoint {
        name: "nominal gate bias",
    })
}

/// The gate voltage at which `sensor` conducts `cal_current`: the
/// operating point every S1/M2 calibration of the pixel drives M1 to.
fn calibration_gate(
    sensor: &Mosfet,
    cal_current: Ampere,
    config: &NeuroPixelConfig,
) -> Option<Volt> {
    sensor.gate_voltage_for_current(
        cal_current,
        config.v_source,
        config.v_drain,
        Volt::ZERO,
        Volt::new(5.0),
    )
}

impl NeuroPixel {
    /// Instantiates a pixel, sampling its device mismatch from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the sensor-FET parameters are invalid
    /// or the calibration current has no nominal operating point.
    pub fn sample(config: NeuroPixelConfig, rng: &mut SmallRng) -> Result<Self, CircuitError> {
        Ok(Self::sample_on(&Arc::new(PixelModel::new(config)?), rng))
    }

    /// Instantiates a pixel of the die `model` describes, sampling its
    /// device mismatch from `rng` with the same draws as
    /// [`NeuroPixel::sample`].
    pub(crate) fn sample_on(model: &Arc<PixelModel>, rng: &mut SmallRng) -> Self {
        let config = &model.config;
        let mut g = GaussianSampler::new();
        let sensor = config.pelgrom.instantiate(&model.nominal, rng);
        let cal_err = config.cal_current_rel_sigma * g.sample(rng);
        let injection_offset = config.injection_sigma * g.sample(rng);
        let droop_rate = config.droop_rate_v_per_s * g.sample(rng);
        let cal_current_actual = config.cal_current * (1.0 + cal_err);
        Self {
            cal_gate: calibration_gate(&sensor, cal_current_actual, config),
            cal_current_actual,
            injection_offset,
            droop_rate,
            stored_gate: None,
            cal_time: Seconds::ZERO,
            faults: None,
            sensor,
            model: Arc::clone(model),
        }
    }

    /// A mismatch-free pixel (for reference measurements).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] under the same conditions as
    /// [`NeuroPixel::sample`].
    pub fn nominal(config: NeuroPixelConfig) -> Result<Self, CircuitError> {
        let model = PixelModel::new(config)?;
        Ok(Self {
            cal_gate: Some(model.global_gate),
            sensor: model.nominal.clone(),
            cal_current_actual: model.config.cal_current,
            injection_offset: Volt::ZERO,
            droop_rate: 0.0,
            stored_gate: None,
            cal_time: Seconds::ZERO,
            faults: None,
            model: Arc::new(model),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NeuroPixelConfig {
        &self.model.config
    }

    /// Whether this pixel has been calibrated at least once.
    pub fn is_calibrated(&self) -> bool {
        self.stored_gate.is_some()
    }

    /// This pixel's sensor transistor (with its mismatch).
    pub fn sensor(&self) -> &Mosfet {
        &self.sensor
    }

    /// The injected defects on this pixel.
    pub fn faults(&self) -> &PixelFaults {
        self.faults.as_deref().unwrap_or(&PixelFaults::NONE)
    }

    /// Injects (or clears, with the default value) defects on this pixel.
    /// Only the dead, leakage and gain-clipping components act on a neural
    /// pixel; counter- and comparator-class faults belong to the DNA
    /// converter and are inert here.
    pub fn set_faults(&mut self, faults: PixelFaults) {
        self.faults = faults.is_faulty().then(|| Box::new(faults));
    }

    /// Performs the S1/M2 calibration at absolute time `now`: the gate is
    /// driven to the voltage where M1 conducts exactly M2's current, then
    /// S1 opens and injects this pixel's static charge-injection offset.
    ///
    /// A pixel whose mismatch pushes the calibration current outside the
    /// device's conduction range cannot converge; it stays uncalibrated
    /// (falling back to the global bias) rather than aborting the scan.
    pub fn calibrate(&mut self, now: Seconds) {
        match self.cal_gate {
            Some(vg) => {
                self.stored_gate = Some(vg + self.injection_offset);
                self.cal_time = now;
            }
            None => self.stored_gate = None,
        }
    }

    /// Effective gate voltage at time `now` (stored value minus droop),
    /// before signal coupling. Falls back to the *nominal* design-point
    /// gate bias when uncalibrated — the "global bias" an uncalibrated
    /// array would use.
    pub fn effective_gate(&self, now: Seconds) -> Volt {
        match self.stored_gate {
            Some(v) => v - Volt::new(self.droop_rate * (now - self.cal_time).value().max(0.0)),
            None => self.model.global_gate,
        }
    }

    /// Discards any stored calibration, returning the pixel to the global
    /// gate bias. Injected faults are preserved (unlike re-instantiating
    /// the pixel, which would silently drop them).
    pub fn clear_calibration(&mut self) {
        self.stored_gate = None;
        self.cal_time = Seconds::ZERO;
    }

    /// Reads the pixel at time `now` with cleft potential `v_cleft`:
    /// returns the difference current ΔI = I_M1 − I_M2 that the regulation
    /// loop (A, M3, M4) nulls and the column amplifier magnifies.
    ///
    /// A dead pixel (broken M1 or stuck S3) contributes no difference
    /// current at all; an injected electrode leakage adds directly to ΔI.
    pub fn read(&self, v_cleft: Volt, now: Seconds) -> Ampere {
        let faults = self.faults();
        if faults.dead {
            return Ampere::ZERO;
        }
        let config = self.config();
        let vg = self.effective_gate(now) + v_cleft * config.coupling_ratio;
        let i_m1 = self
            .sensor
            .drain_current(vg, config.v_source, config.v_drain);
        i_m1 - self.cal_current_actual + faults.leakage
    }

    /// Small-signal conversion gain ∂ΔI/∂V_cleft at the calibrated
    /// operating point: g_m(M1) × coupling ratio.
    pub fn conversion_gain(&self, now: Seconds) -> Siemens {
        let vg = self.effective_gate(now);
        let config = self.config();
        self.sensor.gm(vg, config.v_source, config.v_drain) * config.coupling_ratio
    }

    /// First-order expansion of [`NeuroPixel::read`] around the operating
    /// point at `t_lin` (typically the last calibration instant):
    ///
    /// ```text
    /// ΔI(v_cleft, t) ≈ offset + slope·(t − t_lin) + gm·v_cleft
    /// ```
    ///
    /// `offset` is the exact residual difference current at zero signal
    /// (including leakage faults), `slope` captures stored-gate droop
    /// (−g_m(M1)·droop_rate for a calibrated pixel, zero on the
    /// time-invariant global bias), and `gm` is the conversion gain. A dead
    /// pixel returns all-zero coefficients, matching its exactly-zero read.
    ///
    /// Valid while |v_cleft| and the accumulated droop stay small against
    /// n·U_T — see DESIGN.md §13 for the curvature bound and the
    /// re-linearization cadence that keeps this true.
    pub fn linearize(&self, t_lin: Seconds) -> PixelLinearization {
        let faults = self.faults();
        if faults.dead {
            return PixelLinearization::DEAD;
        }
        let config = self.config();
        let vg = self.effective_gate(t_lin);
        let (i_m1, gm_gate) = self
            .sensor
            .current_and_gm(vg, config.v_source, config.v_drain);
        let offset = i_m1 - self.cal_current_actual + faults.leakage;
        let droop = if self.stored_gate.is_some() {
            self.droop_rate
        } else {
            0.0
        };
        PixelLinearization {
            offset,
            slope_a_per_s: -gm_gate.value() * droop,
            gm: gm_gate * config.coupling_ratio,
        }
    }
}

/// Per-pixel small-signal transfer coefficients produced by
/// [`NeuroPixel::linearize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelLinearization {
    /// Residual difference current at zero signal, at the expansion point.
    pub offset: Ampere,
    /// Drift of the residual in A/s from stored-gate droop.
    pub slope_a_per_s: f64,
    /// Conversion gain ∂ΔI/∂V_cleft at the expansion point.
    pub gm: Siemens,
}

impl PixelLinearization {
    /// The all-zero coefficients of a dead pixel.
    pub const DEAD: Self = Self {
        offset: Ampere::ZERO,
        slope_a_per_s: 0.0,
        gm: Siemens::ZERO,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampled(seed: u64) -> NeuroPixel {
        let mut rng = SmallRng::seed_from_u64(seed);
        NeuroPixel::sample(NeuroPixelConfig::default(), &mut rng).expect("default config valid")
    }

    #[test]
    fn calibration_nulls_the_difference_current() {
        let mut p = sampled(1);
        let before = p.read(Volt::ZERO, Seconds::ZERO).abs();
        p.calibrate(Seconds::ZERO);
        let after = p.read(Volt::ZERO, Seconds::ZERO).abs();
        assert!(
            after.value() < before.value() / 10.0,
            "before {before}, after {after}"
        );
        // Residual only from injection offset: |ΔI| ≈ gm·offset ≲ 30 nA.
        assert!(after.value() < 50e-9, "residual = {after}");
    }

    #[test]
    fn uncalibrated_offsets_swamp_neural_signals() {
        // The paper's core claim: parameter variation ≫ signal.
        let mut offsets = Vec::new();
        for seed in 0..64 {
            let p = sampled(seed);
            offsets.push(p.read(Volt::ZERO, Seconds::ZERO).value().abs());
        }
        offsets.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_offset = offsets[32];
        let p = sampled(999);
        let signal = {
            let mut q = p.clone();
            q.calibrate(Seconds::ZERO);
            (q.read(Volt::from_micro(100.0), Seconds::ZERO) - q.read(Volt::ZERO, Seconds::ZERO))
                .abs()
        };
        assert!(
            median_offset > 5.0 * signal.value(),
            "median offset {median_offset} vs 100 µV signal {}",
            signal.value()
        );
    }

    #[test]
    fn signal_response_is_linear_in_small_signal_range() {
        let mut p = sampled(2);
        p.calibrate(Seconds::ZERO);
        let base = p.read(Volt::ZERO, Seconds::ZERO);
        let d1 = (p.read(Volt::from_micro(500.0), Seconds::ZERO) - base).value();
        let d2 = (p.read(Volt::from_milli(1.0), Seconds::ZERO) - base).value();
        assert!((d2 / d1 - 2.0).abs() < 0.1, "ratio = {}", d2 / d1);
    }

    #[test]
    fn conversion_gain_predicts_small_signal_response() {
        let mut p = sampled(3);
        p.calibrate(Seconds::ZERO);
        let gain = p.conversion_gain(Seconds::ZERO);
        let base = p.read(Volt::ZERO, Seconds::ZERO);
        let d = (p.read(Volt::from_micro(100.0), Seconds::ZERO) - base).value();
        let predicted = gain.value() * 100e-6;
        assert!(
            (d - predicted).abs() / predicted < 0.05,
            "d {d} vs {predicted}"
        );
    }

    #[test]
    fn droop_degrades_stored_calibration() {
        // Across many pixels the zero-input spread grows as stored
        // calibrations leak, and recalibration restores it.
        let mut rng = SmallRng::seed_from_u64(41);
        let mut pixels: Vec<NeuroPixel> = (0..256)
            .map(|_| {
                NeuroPixel::sample(NeuroPixelConfig::default(), &mut rng)
                    .expect("default config valid")
            })
            .collect();
        for p in &mut pixels {
            p.calibrate(Seconds::ZERO);
        }
        let spread = |pixels: &[NeuroPixel], now: Seconds| -> f64 {
            let v: Vec<f64> = pixels
                .iter()
                .map(|p| p.read(Volt::ZERO, now).value())
                .collect();
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
        };
        let fresh = spread(&pixels, Seconds::ZERO);
        let stale = spread(&pixels, Seconds::new(10.0));
        assert!(stale > 2.0 * fresh, "fresh {fresh}, 10 s stale {stale}");
        // Recalibration restores the fresh spread.
        for p in &mut pixels {
            p.calibrate(Seconds::new(10.0));
        }
        let recal = spread(&pixels, Seconds::new(10.0));
        assert!(recal < 1.1 * fresh, "recal {recal} vs fresh {fresh}");
    }

    #[test]
    fn different_pixels_calibrate_to_same_current() {
        // "all sensor transistors M1 within a row provide the same current
        // when selected independent of their individual device parameters"
        // — up to injection residual and M2 mirror mismatch.
        let mut currents = Vec::new();
        for seed in 0..32 {
            let mut p = sampled(seed);
            p.calibrate(Seconds::ZERO);
            let vg = p.effective_gate(Seconds::ZERO);
            let i_m1 = p
                .sensor
                .drain_current(vg, p.config().v_source, p.config().v_drain);
            currents.push(i_m1.value());
        }
        let mean = currents.iter().sum::<f64>() / currents.len() as f64;
        let sd = (currents.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / currents.len() as f64)
            .sqrt();
        // Residual spread ≲ 1 % (M2 mismatch dominated), versus the tens of
        // percent an uncalibrated array shows.
        assert!(sd / mean < 0.02, "calibrated spread = {}", sd / mean);
    }

    #[test]
    fn nominal_pixel_reads_zero_after_calibration() {
        let mut p = NeuroPixel::nominal(NeuroPixelConfig::default()).expect("default config valid");
        p.calibrate(Seconds::ZERO);
        let r = p.read(Volt::ZERO, Seconds::ZERO).abs();
        assert!(r.value() < 1e-12, "nominal residual = {r}");
    }

    #[test]
    fn dead_pixel_gives_no_difference_current() {
        let mut p = sampled(11);
        p.calibrate(Seconds::ZERO);
        let mut f = PixelFaults::default();
        f.merge(bsa_faults::FaultKind::DeadPixel);
        p.set_faults(f);
        assert_eq!(p.read(Volt::from_milli(5.0), Seconds::ZERO), Ampere::ZERO);
        assert_eq!(p.read(Volt::ZERO, Seconds::ZERO), Ampere::ZERO);
    }

    #[test]
    fn leakage_offsets_the_difference_current() {
        let mut p = sampled(12);
        p.calibrate(Seconds::ZERO);
        let clean = p.read(Volt::ZERO, Seconds::ZERO);
        let mut f = PixelFaults::default();
        f.merge(bsa_faults::FaultKind::LeakyElectrode {
            leakage: Ampere::from_micro(1.0),
        });
        p.set_faults(f);
        let leaky = p.read(Volt::ZERO, Seconds::ZERO);
        assert!(((leaky - clean).value() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let a = sampled(7);
        let b = sampled(7);
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_sensor_fet_is_an_error_not_a_panic() {
        // A bad config arriving over the wire (AttachNeuro) must surface
        // as a typed error, not as a panic in the transistor model.
        let mut config = NeuroPixelConfig::default();
        config.sensor_fet.width_um = -1.0;
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(NeuroPixel::sample(config.clone(), &mut rng).is_err());
        assert!(NeuroPixel::nominal(config).is_err());
    }

    #[test]
    fn unreachable_calibration_current_is_an_error_not_a_panic() {
        // Far beyond what the 4/1.5 µm device conducts below the 5 V
        // search ceiling: no nominal operating point exists.
        let config = NeuroPixelConfig {
            cal_current: Ampere::new(10.0),
            ..NeuroPixelConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let err = NeuroPixel::sample(config, &mut rng);
        assert!(
            matches!(err, Err(bsa_circuit::CircuitError::NoOperatingPoint { .. })),
            "{err:?}"
        );
    }
}
