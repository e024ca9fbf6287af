//! The assembled 16×8 DNA-microarray chip.
//!
//! Combines the 128 in-pixel converters with the periphery the paper lists
//! for Fig. 4: "bandgap and current references, auto-calibration circuits,
//! D/A-converters to provide the required voltages for the electrochemical
//! operation, and 6 pin interface for power supply and serial digital data
//! transmission". Process: L_min = 0.5 µm, t_ox = 15 nm, V_DD = 5 V.

use super::calibration::{CalibrationReport, GainCalibration};
use super::interface::{
    decode_frames_lenient, encode_frames, PixelReading, SerialError, WORD_BITS,
};
use super::pixel::{DnaPixel, DnaPixelConfig, PixelVariation};
use crate::array::{ArrayGeometry, PixelAddress};
use crate::error::ChipError;
use crate::health::{HealthMonitor, PixelHealth, SerialLinkStats, YieldReport};
use crate::scan::conversion_stream_seed;
use bsa_circuit::dac::Dac;
use bsa_circuit::reference::BandgapReference;
use bsa_electrochem::assay::{AssayConditions, SpottedSite};
use bsa_electrochem::redox::RedoxCyclingModel;
use bsa_electrochem::sequence::DnaSequence;
use bsa_faults::{CompiledFaults, SerialCorruptor};
use bsa_units::{Ampere, Molar, Seconds, Volt};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a DNA chip instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnaChipConfig {
    /// Array geometry (default: the paper's 16×8).
    pub geometry: ArrayGeometry,
    /// Nominal pixel design values.
    pub pixel: DnaPixelConfig,
    /// Measurement frame duration.
    pub frame_time: Seconds,
    /// Auto-calibration settings.
    pub calibration: GainCalibration,
    /// Electrochemical site model (electrode + label + cycling).
    pub redox: RedoxCyclingModel,
    /// Assay protocol conditions.
    pub assay: AssayConditions,
    /// Seed for all device mismatch and noise on this die.
    pub seed: u64,
}

impl Default for DnaChipConfig {
    fn default() -> Self {
        Self {
            geometry: ArrayGeometry::dna_16x8(),
            pixel: DnaPixelConfig::default(),
            frame_time: Seconds::new(10.0),
            calibration: GainCalibration::default(),
            redox: RedoxCyclingModel::default(),
            assay: AssayConditions::default(),
            seed: 0xD9A_C819,
        }
    }
}

/// An analyte sample: target species and their concentrations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SampleMix {
    targets: Vec<(DnaSequence, Molar)>,
}

impl SampleMix {
    /// Creates an empty sample (pure buffer).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a target species at the given concentration.
    #[must_use]
    pub fn with_target(mut self, seq: DnaSequence, c: Molar) -> Self {
        self.targets.push((seq, c));
        self
    }

    /// The target species.
    pub fn targets(&self) -> &[(DnaSequence, Molar)] {
        &self.targets
    }
}

/// Complete readout of one assay run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssayReadout {
    geometry: ArrayGeometry,
    /// Final surface coverage θ per site (ground truth).
    pub coverages: Vec<f64>,
    /// True (noisy) sensor currents per site.
    pub true_currents: Vec<Ampere>,
    /// Digitized frame counts per site.
    pub counts: Vec<u64>,
    /// Off-chip current estimates recovered from the counts.
    pub estimated_currents: Vec<Ampere>,
}

impl AssayReadout {
    /// The array geometry of this readout.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// The estimate at a pixel address.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] for addresses outside the
    /// array.
    pub fn estimate_at(&self, addr: PixelAddress) -> Result<Ampere, ChipError> {
        Ok(self.estimated_currents[self.geometry.index_of(addr)?])
    }

    /// Converts the counts to serial-interface pixel readings in scan
    /// order.
    pub fn to_readings(&self) -> Vec<PixelReading> {
        self.geometry
            .iter()
            .zip(self.counts.iter())
            .map(|(address, &count)| PixelReading { address, count })
            .collect()
    }
}

/// Time-resolved readout of the hybridization phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KineticReadout {
    /// Times into the hybridization phase.
    pub times: Vec<Seconds>,
    /// Ground-truth coverage per timepoint (outer) and site (inner).
    pub coverages: Vec<Vec<f64>>,
    /// Estimated currents per timepoint and site.
    pub currents: Vec<Vec<Ampere>>,
}

impl KineticReadout {
    /// Association time series of one site: (t, estimated current).
    pub fn site_series(&self, site: usize) -> Vec<(Seconds, Ampere)> {
        self.times
            .iter()
            .zip(self.currents.iter())
            .map(|(t, row)| (*t, row[site]))
            .collect()
    }

    /// Time at which a site first crosses `fraction` of its final current
    /// (`None` if it never does).
    pub fn time_to_fraction(&self, site: usize, fraction: f64) -> Option<Seconds> {
        let last = self.currents.last()?.get(site)?.value();
        let threshold = fraction.clamp(0.0, 1.0) * last;
        self.times
            .iter()
            .zip(self.currents.iter())
            .find(|(_, row)| row[site].value() >= threshold)
            .map(|(t, _)| *t)
    }
}

/// Result of a fault-tolerant serial readout
/// ([`DnaChip::serial_readout_robust`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustReadout {
    /// Per-word outcome in scan order; `None` = still corrupt after the
    /// re-read budget was exhausted.
    pub words: Vec<Option<PixelReading>>,
    /// Link statistics for the transfer.
    pub stats: SerialLinkStats,
    /// Decode error of the first unrecoverable word, if any.
    pub first_error: Option<SerialError>,
}

impl RobustReadout {
    /// `true` if every word was eventually received intact.
    pub fn is_complete(&self) -> bool {
        self.stats.unrecovered_words == 0
    }

    /// The readings, requiring a complete transfer.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::SerialUnrecoverable`] if any word stayed
    /// corrupt after the re-read budget.
    pub fn into_readings(self) -> Result<Vec<PixelReading>, ChipError> {
        match self.first_error {
            Some(last) => Err(ChipError::SerialUnrecoverable {
                failed_words: self.stats.unrecovered_words,
                rereads: self.stats.rereads,
                last,
            }),
            None => Ok(self.words.into_iter().flatten().collect()),
        }
    }
}

/// Flips bits of an encoded stream word-by-word with the corruptor's
/// per-bit error process (the physical model of a marginal serial link).
fn corrupt_stream(bits: &mut [bool], corruptor: &mut SerialCorruptor) {
    if corruptor.rate() <= 0.0 {
        return;
    }
    for chunk in bits.chunks_mut(WORD_BITS as usize) {
        let mut word = 0u64;
        for &b in chunk.iter() {
            word = (word << 1) | b as u64;
        }
        let (corrupted, _) = corruptor.corrupt(word, chunk.len() as u32);
        let width = chunk.len();
        for (k, b) in chunk.iter_mut().enumerate() {
            *b = (corrupted >> (width - 1 - k)) & 1 == 1;
        }
    }
}

/// A DNA-microarray chip instance (one die, with its own mismatch).
#[derive(Debug, Clone)]
pub struct DnaChip {
    config: DnaChipConfig,
    pixels: Vec<DnaPixel>,
    probes: Vec<Option<DnaSequence>>,
    bandgap: BandgapReference,
    electrode_dac: Dac,
    rng: SmallRng,
    calibrated: bool,
    faults: CompiledFaults,
    health: HealthMonitor,
    link_stats: SerialLinkStats,
    /// Counts array-wide conversions; each one seeds a fresh family of
    /// per-pixel noise streams, so repeated measurements draw fresh noise
    /// yet the whole sequence is reproducible.
    conversion_epoch: u64,
}

impl DnaChip {
    /// Instantiates a die: samples per-pixel mismatch from the seed and
    /// builds the periphery.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError`] if the configuration is internally invalid.
    pub fn new(config: DnaChipConfig) -> Result<Self, ChipError> {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let n = config.geometry.len();
        let pixels = (0..n)
            .map(|_| {
                DnaPixel::with_variation(config.pixel.clone(), PixelVariation::sample(&mut rng))
            })
            .collect();
        // 8-bit DAC over 0 … 2.5 V provides the electrochemical potentials.
        let electrode_dac =
            Dac::new(8, Volt::ZERO, Volt::new(2.5))?.with_element_mismatch(0.002, &mut rng);
        Ok(Self {
            pixels,
            probes: vec![None; n],
            bandgap: BandgapReference::typical_5v(),
            electrode_dac,
            rng,
            calibrated: false,
            faults: CompiledFaults::none(config.geometry.rows(), config.geometry.cols()),
            health: HealthMonitor::all_healthy(config.geometry),
            link_stats: SerialLinkStats::default(),
            conversion_epoch: 0,
            config,
        })
    }

    /// The chip configuration.
    pub fn config(&self) -> &DnaChipConfig {
        &self.config
    }

    /// Array geometry.
    pub fn geometry(&self) -> ArrayGeometry {
        self.config.geometry
    }

    /// Whether auto-calibration has run on this die.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// The pixel at an address.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] for bad addresses.
    pub fn pixel(&self, addr: PixelAddress) -> Result<&DnaPixel, ChipError> {
        Ok(&self.pixels[self.config.geometry.index_of(addr)?])
    }

    /// Working-electrode potential produced by the on-chip DAC for a code,
    /// referenced to the bandgap.
    pub fn electrode_voltage(&self, dac_code: u32) -> Volt {
        // Line regulation: the DAC reference tracks the bandgap.
        let bg = self
            .bandgap
            .output(bsa_units::consts::ROOM_TEMPERATURE, Volt::new(5.0));
        let nominal_bg = 1.205;
        self.electrode_dac.output(dac_code) * (bg.value() / nominal_bg)
    }

    /// Spots a probe onto a site (immobilization, paper Fig. 2 a–c).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] for bad addresses.
    pub fn spot(&mut self, addr: PixelAddress, probe: DnaSequence) -> Result<(), ChipError> {
        let i = self.config.geometry.index_of(addr)?;
        self.probes[i] = Some(probe);
        Ok(())
    }

    /// Spots probes across the whole array in scan order; shorter slices
    /// leave the remaining sites bare.
    pub fn spot_all(&mut self, probes: &[DnaSequence]) {
        for (slot, p) in self.probes.iter_mut().zip(probes.iter()) {
            *slot = Some(p.clone());
        }
    }

    /// The probe at a site, if spotted.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] for bad addresses.
    pub fn probe_at(&self, addr: PixelAddress) -> Result<Option<&DnaSequence>, ChipError> {
        Ok(self.probes[self.config.geometry.index_of(addr)?].as_ref())
    }

    /// Injects a compiled fault map into the die: every pixel takes on its
    /// planned defects, and the map's serial-link state drives
    /// [`serial_readout_robust`](Self::serial_readout_robust). Channel-loss
    /// faults are inert on this chip (the DNA array has no multiplexer);
    /// they only matter on the neuro chip.
    ///
    /// Re-run [`auto_calibrate`](Self::auto_calibrate) afterwards so the
    /// health monitor reflects the new defects.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::FaultGeometryMismatch`] if the map was compiled
    /// for a different array geometry.
    pub fn inject_faults(&mut self, faults: &CompiledFaults) -> Result<(), ChipError> {
        let g = self.config.geometry;
        if faults.rows() != g.rows() || faults.cols() != g.cols() {
            return Err(ChipError::FaultGeometryMismatch {
                map: (faults.rows(), faults.cols()),
                chip: (g.rows(), g.cols()),
            });
        }
        for (pixel, &f) in self.pixels.iter_mut().zip(faults.pixels().iter()) {
            pixel.set_faults(f);
        }
        self.faults = faults.clone();
        Ok(())
    }

    /// The fault map currently injected (fault-free for a pristine die).
    pub fn faults(&self) -> &CompiledFaults {
        &self.faults
    }

    /// Per-pixel health as established by the last
    /// [`auto_calibrate`](Self::auto_calibrate) run.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Serial-link statistics from the last
    /// [`serial_readout_robust`](Self::serial_readout_robust) call.
    pub fn link_stats(&self) -> SerialLinkStats {
        self.link_stats
    }

    /// Runs the periphery auto-calibration over all pixels, retrying every
    /// first-pass failure with [escalated](GainCalibration::escalated)
    /// settings (8× reference current, 4× integration window, relaxed
    /// limit). Pixels recovered by escalation are classified
    /// [`PixelHealth::OutOfFamily`]; the rest are masked
    /// [`PixelHealth::Dead`] in [`health`](Self::health).
    pub fn auto_calibrate(&mut self) -> CalibrationReport {
        let report = self.config.calibration.run(&mut self.pixels, &mut self.rng);
        let mut health = HealthMonitor::all_healthy(self.config.geometry);
        let escalated = self.config.calibration.escalated();
        for &i in &report.dead_pixels {
            let state = match escalated.retry_pixel(&mut self.pixels[i], &mut self.rng) {
                Some(_) => PixelHealth::OutOfFamily,
                None => PixelHealth::Dead,
            };
            health.set_state(i, state);
        }
        self.health = health;
        self.calibrated = true;
        report
    }

    /// The shared conversion core: digitizes one current per pixel
    /// through the in-pixel sawtooth converters, each pixel drawing its
    /// counting noise from a deterministic per-pixel stream for this
    /// conversion epoch.
    fn convert_all(&mut self, currents: &[Ampere], counts: &mut Vec<u64>) {
        debug_assert_eq!(currents.len(), self.pixels.len());
        let frame = self.config.frame_time;
        let seed = self.config.seed;
        let epoch = self.conversion_epoch;
        self.conversion_epoch += 1;
        counts.clear();
        counts.extend(
            self.pixels
                .iter_mut()
                .zip(currents)
                .enumerate()
                .map(|(k, (p, &i))| {
                    let mut rng = SmallRng::seed_from_u64(conversion_stream_seed(seed, epoch, k));
                    p.convert(i, frame, &mut rng).count
                }),
        );
    }

    /// Digitizes externally supplied sensor currents (one per site, scan
    /// order) — the electrical-characterization mode used to sweep the
    /// converter transfer curve.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::LengthMismatch`] unless exactly one current per
    /// pixel is supplied.
    pub fn measure_currents(&mut self, currents: &[Ampere]) -> Result<Vec<u64>, ChipError> {
        let mut counts = Vec::with_capacity(currents.len());
        self.measure_currents_into(currents, &mut counts)?;
        Ok(counts)
    }

    /// Allocation-free variant of [`measure_currents`](Self::measure_currents):
    /// digitizes into a caller-provided buffer (cleared and refilled), so
    /// a measurement loop reuses one buffer instead of allocating per
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::LengthMismatch`] unless exactly one current per
    /// pixel is supplied.
    pub fn measure_currents_into(
        &mut self,
        currents: &[Ampere],
        counts: &mut Vec<u64>,
    ) -> Result<(), ChipError> {
        if currents.len() != self.pixels.len() {
            return Err(ChipError::LengthMismatch {
                expected: self.pixels.len(),
                got: currents.len(),
            });
        }
        self.convert_all(currents, counts);
        Ok(())
    }

    /// Recovers current estimates from counts using each pixel's
    /// calibration state.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::LengthMismatch`] unless exactly one count per
    /// pixel is supplied.
    pub fn estimate_currents(&self, counts: &[u64]) -> Result<Vec<Ampere>, ChipError> {
        if counts.len() != self.pixels.len() {
            return Err(ChipError::LengthMismatch {
                expected: self.pixels.len(),
                got: counts.len(),
            });
        }
        Ok(counts
            .iter()
            .zip(self.pixels.iter())
            .map(|(&c, p)| p.estimate_current(c, self.config.frame_time))
            .collect())
    }

    /// Runs the complete assay (hybridization → wash → redox readout →
    /// in-pixel conversion) against a sample.
    pub fn run_assay(&mut self, sample: &SampleMix) -> AssayReadout {
        let n = self.config.geometry.len();
        let mut coverages = Vec::with_capacity(n);
        for i in 0..n {
            let theta = match &self.probes[i] {
                None => 0.0,
                Some(probe) => {
                    let site = SpottedSite::new(probe.clone());
                    let mut total = 0.0;
                    for (target, c) in sample.targets() {
                        total += site.run(target, *c, &self.config.assay).final_coverage;
                    }
                    total.clamp(0.0, 1.0)
                }
            };
            coverages.push(theta);
        }

        let frame = self.config.frame_time;
        let mut true_currents = Vec::with_capacity(n);
        for theta in &coverages {
            let i_sensor = self
                .config
                .redox
                .sample_current(*theta, frame, &mut self.rng)
                .max(Ampere::from_femto(1.0));
            true_currents.push(i_sensor);
        }
        let mut counts = Vec::with_capacity(n);
        self.convert_all(&true_currents, &mut counts);
        // `convert_all` produced exactly one count per pixel, so the
        // length check in `estimate_currents` cannot fire — estimate
        // directly instead of unwrapping a Result.
        let estimated_currents = counts
            .iter()
            .zip(self.pixels.iter())
            .map(|(&c, p)| p.estimate_current(c, frame))
            .collect();

        AssayReadout {
            geometry: self.config.geometry,
            coverages,
            true_currents,
            counts,
            estimated_currents,
        }
    }

    /// Serializes counts through the 6-pin interface (DOUT bit stream).
    pub fn serial_readout(&self, readout: &AssayReadout) -> Vec<bool> {
        encode_frames(&readout.to_readings())
    }

    /// Fault-tolerant serial readout: transmits every word through the
    /// (possibly corrupt) link, decodes leniently, then re-requests only
    /// the words that failed their CRC, up to `max_rereads` extra passes.
    /// The resulting [`SerialLinkStats`] are kept on the chip for
    /// [`yield_report`](Self::yield_report).
    pub fn serial_readout_robust(
        &mut self,
        readout: &AssayReadout,
        max_rereads: usize,
    ) -> RobustReadout {
        let readings = readout.to_readings();
        let n = readings.len();
        let mut corruptor = self.faults.serial_corruptor();
        let mut words: Vec<Option<PixelReading>> = vec![None; n];
        let mut word_errors: Vec<Option<SerialError>> = vec![None; n];
        let mut pending: Vec<usize> = (0..n).collect();
        let mut stats = SerialLinkStats::default();

        for pass in 0..=max_rereads {
            if pending.is_empty() {
                break;
            }
            if pass > 0 {
                stats.rereads += 1;
            }
            let subset: Vec<PixelReading> = pending.iter().map(|&i| readings[i]).collect();
            let mut bits = encode_frames(&subset);
            corrupt_stream(&mut bits, &mut corruptor);
            let verdicts = decode_frames_lenient(&bits);
            let mut still = Vec::new();
            for (&idx, verdict) in pending.iter().zip(verdicts.iter()) {
                match verdict {
                    Ok(r) => {
                        words[idx] = Some(*r);
                        word_errors[idx] = None;
                        if pass == 0 {
                            stats.clean_words += 1;
                        } else {
                            stats.recovered_words += 1;
                        }
                    }
                    Err(e) => {
                        word_errors[idx] = Some(e.clone());
                        still.push(idx);
                    }
                }
            }
            pending = still;
        }

        stats.unrecovered_words = pending.len();
        self.link_stats = stats;
        let first_error = pending.first().and_then(|&idx| word_errors[idx].clone());
        RobustReadout {
            words,
            stats,
            first_error,
        }
    }

    /// Summarizes the die: per-pixel health from the last calibration,
    /// injected fault counts from the compiled plan, and serial-link
    /// statistics from the last robust readout.
    pub fn yield_report(&self) -> YieldReport {
        YieldReport::new(
            &self.health,
            Vec::new(), // the DNA chip has no multiplexed channels to lose
            0,
            self.faults.injected_counts().clone(),
            self.link_stats,
        )
    }

    /// Monitors hybridization *kinetics*: reads the whole array at each of
    /// the given times into the hybridization phase (no washing), giving
    /// the association curves electrochemical chips can record in real
    /// time. Timepoints should be ascending.
    pub fn monitor_hybridization(
        &mut self,
        sample: &SampleMix,
        timepoints: &[Seconds],
    ) -> KineticReadout {
        let n = self.config.geometry.len();
        let mut coverages = Vec::with_capacity(timepoints.len());
        let mut currents = Vec::with_capacity(timepoints.len());
        // Reused across timepoints so the kinetic loop does not allocate
        // per frame.
        let mut sensor_currents: Vec<Ampere> = Vec::with_capacity(n);
        let mut counts: Vec<u64> = Vec::with_capacity(n);
        for &t in timepoints {
            let mut theta_t = Vec::with_capacity(n);
            for probe in &self.probes {
                let theta = match probe {
                    None => 0.0,
                    Some(p) => {
                        let active = self.config.assay.immobilization_yield.clamp(0.0, 1.0);
                        let mut total = 0.0;
                        for (target, c) in sample.targets() {
                            total += self.config.assay.model.coverage_after(
                                p,
                                target,
                                *c,
                                self.config.assay.temperature,
                                0.0,
                                t,
                            );
                        }
                        (total * active).clamp(0.0, 1.0)
                    }
                };
                theta_t.push(theta);
            }
            let frame = self.config.frame_time;
            sensor_currents.clear();
            for theta in &theta_t {
                let i_sensor = self
                    .config
                    .redox
                    .sample_current(*theta, frame, &mut self.rng)
                    .max(Ampere::from_femto(1.0));
                sensor_currents.push(i_sensor);
            }
            self.convert_all(&sensor_currents, &mut counts);
            let i_t: Vec<Ampere> = self
                .pixels
                .iter()
                .zip(counts.iter())
                .map(|(pixel, &c)| pixel.estimate_current(c, frame))
                .collect();
            coverages.push(theta_t);
            currents.push(i_t);
        }
        KineticReadout {
            times: timepoints.to_vec(),
            coverages,
            currents,
        }
    }

    /// Access to the die's RNG, for callers that need reproducible
    /// follow-on sampling tied to this die.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna_chip::interface::decode_frames;

    fn chip() -> DnaChip {
        DnaChip::new(DnaChipConfig::default()).unwrap()
    }

    fn probe_set(n: usize, seed: u64) -> Vec<DnaSequence> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| DnaSequence::random(20, &mut rng)).collect()
    }

    #[test]
    fn die_has_128_distinct_pixels() {
        let c = chip();
        assert_eq!(c.geometry().len(), 128);
        let v0 = c
            .pixel(PixelAddress::new(0, 0))
            .unwrap()
            .variation()
            .c_int_rel_err;
        let v1 = c
            .pixel(PixelAddress::new(0, 1))
            .unwrap()
            .variation()
            .c_int_rel_err;
        assert_ne!(v0, v1, "mismatch must differ pixel to pixel");
    }

    #[test]
    fn same_seed_same_die() {
        let a = DnaChip::new(DnaChipConfig::default()).unwrap();
        let b = DnaChip::new(DnaChipConfig::default()).unwrap();
        for addr in a.geometry().iter() {
            assert_eq!(
                a.pixel(addr).unwrap().variation(),
                b.pixel(addr).unwrap().variation()
            );
        }
    }

    #[test]
    fn electrode_voltage_tracks_dac_code() {
        let c = chip();
        let v0 = c.electrode_voltage(0);
        let v128 = c.electrode_voltage(128);
        let v255 = c.electrode_voltage(255);
        assert!(v0 < v128 && v128 < v255);
        assert!((v255.value() - 2.5).abs() < 0.05, "full scale = {v255}");
    }

    #[test]
    fn spotting_and_probe_lookup() {
        let mut c = chip();
        let p = probe_set(1, 1).remove(0);
        let addr = PixelAddress::new(2, 3);
        assert!(c.probe_at(addr).unwrap().is_none());
        c.spot(addr, p.clone()).unwrap();
        assert_eq!(c.probe_at(addr).unwrap(), Some(&p));
        assert!(c.spot(PixelAddress::new(99, 0), p).is_err());
    }

    #[test]
    fn assay_discriminates_match_from_mismatch_sites() {
        let mut c = chip();
        let probes = probe_set(128, 2);
        c.spot_all(&probes);
        c.auto_calibrate();

        // The sample contains the perfect complement of probe 0 only.
        let sample =
            SampleMix::new().with_target(probes[0].reverse_complement(), Molar::from_nano(100.0));
        let readout = c.run_assay(&sample);

        let match_i = readout.estimated_currents[0];
        // All other sites are mismatches: their median current is the floor.
        let mut others: Vec<f64> = readout.estimated_currents[1..]
            .iter()
            .map(|a| a.value())
            .collect();
        others.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_other = others[others.len() / 2];
        assert!(
            match_i.value() > 100.0 * median_other.max(1e-15),
            "match {match_i} vs median mismatch {median_other}"
        );
        assert!(match_i.value() > 1e-9, "match current should be nA-scale");
    }

    #[test]
    fn bare_sites_read_background_only() {
        let mut c = chip();
        c.auto_calibrate();
        let sample = SampleMix::new();
        let readout = c.run_assay(&sample);
        for i in &readout.true_currents {
            assert!(i.value() < 10e-12, "bare site current = {i}");
        }
    }

    #[test]
    fn serial_readout_round_trips() {
        let mut c = chip();
        let probes = probe_set(128, 3);
        c.spot_all(&probes);
        let sample =
            SampleMix::new().with_target(probes[5].reverse_complement(), Molar::from_nano(50.0));
        let readout = c.run_assay(&sample);
        let bits = c.serial_readout(&readout);
        let decoded = decode_frames(&bits).unwrap();
        assert_eq!(decoded.len(), 128);
        for (r, (addr, &count)) in decoded
            .iter()
            .zip(c.geometry().iter().zip(readout.counts.iter()))
        {
            assert_eq!(r.address, addr);
            assert_eq!(r.count, count.min(0xFF_FFFF));
        }
    }

    #[test]
    fn measure_currents_spans_five_decades() {
        let mut c = chip();
        c.auto_calibrate();
        let n = c.geometry().len();
        // Pixel k gets a current log-spaced over 1 pA … 100 nA.
        let currents: Vec<Ampere> = (0..n)
            .map(|k| {
                let f = k as f64 / (n - 1) as f64;
                Ampere::new(1e-12 * 10f64.powf(5.0 * f))
            })
            .collect();
        let counts = c.measure_currents(&currents).unwrap();
        let estimates = c.estimate_currents(&counts).unwrap();
        for (i, (est, truth)) in estimates.iter().zip(currents.iter()).enumerate() {
            let rel = (est.value() - truth.value()).abs() / truth.value();
            // Bottom decade is shot/quantization limited; be looser there.
            let tol = if truth.value() < 10e-12 { 0.25 } else { 0.05 };
            assert!(rel < tol, "pixel {i}: {truth} → {est} (rel {rel})");
        }
    }

    #[test]
    fn assay_readout_address_accessor() {
        let mut c = chip();
        let readout = c.run_assay(&SampleMix::new());
        assert!(readout.estimate_at(PixelAddress::new(0, 0)).is_ok());
        assert!(readout.estimate_at(PixelAddress::new(8, 0)).is_err());
    }

    #[test]
    fn kinetic_monitoring_shows_association() {
        let mut c = chip();
        let probes = probe_set(128, 21);
        c.spot_all(&probes);
        c.auto_calibrate();
        let sample =
            SampleMix::new().with_target(probes[0].reverse_complement(), Molar::from_nano(10.0));
        let times: Vec<Seconds> = [0.0, 60.0, 180.0, 600.0, 1800.0, 3600.0]
            .iter()
            .map(|s| Seconds::new(*s))
            .collect();
        let kinetics = c.monitor_hybridization(&sample, &times);

        // Site 0 associates monotonically (up to counting noise) and
        // saturates.
        let series = kinetics.site_series(0);
        assert_eq!(series.len(), 6);
        let first = series[0].1.value();
        let last = series[5].1.value();
        assert!(
            last > 100.0 * first.max(1e-15),
            "first {first}, last {last}"
        );
        let mid = series[3].1.value();
        assert!(mid > 0.3 * last, "association should be well underway");

        // A non-target site stays at background throughout.
        let other = kinetics.site_series(64);
        assert!(other.iter().all(|(_, i)| i.value() < 10e-12));
    }

    #[test]
    fn higher_concentration_associates_faster() {
        let probes = probe_set(128, 22);
        let times: Vec<Seconds> = (0..30).map(|k| Seconds::new(k as f64 * 120.0)).collect();
        let t_half = |c_nm: f64| -> f64 {
            let mut chip = chip();
            chip.spot_all(&probes);
            chip.auto_calibrate();
            let sample = SampleMix::new()
                .with_target(probes[0].reverse_complement(), Molar::from_nano(c_nm));
            let kinetics = chip.monitor_hybridization(&sample, &times);
            kinetics
                .time_to_fraction(0, 0.5)
                .expect("association completes")
                .value()
        };
        let fast = t_half(100.0);
        let slow = t_half(1.0);
        assert!(slow > 2.0 * fast, "t½(1 nM) = {slow}, t½(100 nM) = {fast}");
    }

    #[test]
    fn measurement_length_mismatch_is_an_error() {
        let mut c = chip();
        assert!(matches!(
            c.measure_currents(&[Ampere::from_nano(1.0); 5]),
            Err(ChipError::LengthMismatch {
                expected: 128,
                got: 5
            })
        ));
        assert!(matches!(
            c.estimate_currents(&[1000; 200]),
            Err(ChipError::LengthMismatch {
                expected: 128,
                got: 200
            })
        ));
    }

    #[test]
    fn fault_map_geometry_is_checked() {
        use bsa_faults::InjectionPlan;
        let mut c = chip();
        let wrong = InjectionPlan::new(1).compile(128, 128);
        assert!(matches!(
            c.inject_faults(&wrong),
            Err(ChipError::FaultGeometryMismatch { .. })
        ));
        let right = InjectionPlan::new(1).compile(8, 16);
        assert!(c.inject_faults(&right).is_ok());
    }

    #[test]
    fn calibration_masks_injected_dead_pixels() {
        use crate::health::{DegradationMode, PixelHealth};
        use bsa_faults::{FaultKind, InjectionPlan};
        let mut c = chip();
        let faults = InjectionPlan::new(5)
            .at(2, 3, FaultKind::DeadPixel)
            .at(4, 9, FaultKind::ComparatorStuck { high: true })
            .compile(8, 16);
        c.inject_faults(&faults).unwrap();
        c.auto_calibrate();
        let h = c.health();
        assert_eq!(
            h.state_at(PixelAddress::new(2, 3)).unwrap(),
            PixelHealth::Dead
        );
        assert_eq!(
            h.state_at(PixelAddress::new(4, 9)).unwrap(),
            PixelHealth::Dead
        );
        assert_eq!(h.dead_indices().len(), 2);
        let report = c.yield_report();
        assert_eq!(report.dead, 2);
        assert_eq!(report.degradation, DegradationMode::Degraded);
    }

    #[test]
    fn escalation_recovers_drifted_pixel_as_out_of_family() {
        use crate::health::PixelHealth;
        use bsa_faults::{FaultKind, InjectionPlan};
        let mut c = chip();
        let faults = InjectionPlan::new(6)
            .at(
                1,
                1,
                FaultKind::ComparatorDrift {
                    offset: Volt::from_milli(400.0),
                },
            )
            .compile(8, 16);
        c.inject_faults(&faults).unwrap();
        c.auto_calibrate();
        assert_eq!(
            c.health().state_at(PixelAddress::new(1, 1)).unwrap(),
            PixelHealth::OutOfFamily,
            "escalated calibration should keep the drifted pixel usable"
        );
    }

    #[test]
    fn robust_readout_is_transparent_on_a_clean_link() {
        let mut c = chip();
        let readout = c.run_assay(&SampleMix::new());
        let robust = c.serial_readout_robust(&readout, 3);
        assert!(robust.is_complete());
        assert_eq!(robust.stats.clean_words, 128);
        assert_eq!(robust.stats.rereads, 0);
        let readings = robust.into_readings().unwrap();
        assert_eq!(readings, readout.to_readings());
    }

    #[test]
    fn robust_readout_rereads_through_bit_errors() {
        use bsa_faults::InjectionPlan;
        let mut c = chip();
        // ~5 % of words hit per pass: p_word = 1 − (1−1e-3)^56 ≈ 0.054.
        let faults = InjectionPlan::new(7).serial_bit_errors(1e-3).compile(8, 16);
        c.inject_faults(&faults).unwrap();
        let readout = c.run_assay(&SampleMix::new());
        let robust = c.serial_readout_robust(&readout, 8);
        assert!(robust.is_complete(), "stats: {:?}", robust.stats);
        assert!(
            robust.stats.recovered_words > 0,
            "stats: {:?}",
            robust.stats
        );
        assert!(robust.stats.rereads >= 1);
        assert_eq!(robust.into_readings().unwrap(), readout.to_readings());
        assert_eq!(c.link_stats().unrecovered_words, 0);
    }

    #[test]
    fn hopeless_link_reports_unrecoverable_words() {
        use crate::health::DegradationMode;
        use bsa_faults::InjectionPlan;
        let mut c = chip();
        let faults = InjectionPlan::new(8).serial_bit_errors(0.4).compile(8, 16);
        c.inject_faults(&faults).unwrap();
        let readout = c.run_assay(&SampleMix::new());
        let robust = c.serial_readout_robust(&readout, 2);
        assert!(!robust.is_complete());
        assert!(robust.stats.unrecovered_words > 64);
        assert!(matches!(
            robust.into_readings(),
            Err(ChipError::SerialUnrecoverable { .. })
        ));
        assert_eq!(c.yield_report().degradation, DegradationMode::Unusable);
    }

    #[test]
    fn estimated_matches_true_current_after_calibration() {
        let mut c = chip();
        let probes = probe_set(128, 4);
        c.spot_all(&probes);
        c.auto_calibrate();
        let sample =
            SampleMix::new().with_target(probes[10].reverse_complement(), Molar::from_nano(100.0));
        let readout = c.run_assay(&sample);
        let est = readout.estimated_currents[10].value();
        let truth = readout.true_currents[10].value();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "est {est}, true {truth}"
        );
    }
}
