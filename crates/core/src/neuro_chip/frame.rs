//! Full-array frame scanning at 2 kframes/s.
//!
//! "chips with 128×128 positions within a total sensor area of 1 mm×1 mm
//! … Full frame rate is 2k samples/s." Rows are selected sequentially
//! (switch S2); within a row, the 128 columns leave the chip over 16
//! parallel channels, each serving 8 columns through an 8-to-1 multiplexer
//! — a rolling-shutter scan whose per-pixel timing this module reproduces.

use super::chain::{ChainConfig, ChannelChain};
use super::linear::{scan_chunk_linear, LinearState};
use super::pixel::{NeuroPixel, NeuroPixelConfig};
use super::scan::{clipped, scan_chunk, ScanPlan};
use crate::array::{ArrayGeometry, PixelAddress};
use crate::error::ChipError;
use crate::health::{HealthMonitor, PixelHealth, SerialLinkStats, YieldReport};
use crate::scan::{
    channel_stream_seed, resolve_threads, ArenaStats, FrameArena, ScanMode, ScanOptions,
};
use bsa_faults::CompiledFaults;
use bsa_neuro::culture::Culture;
use bsa_units::{Hertz, Seconds, Siemens, Volt};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Upper bound on the number of frames scanned per fan-out chunk: large
/// enough to amortize worker spawn-up, small enough to keep the stripe
/// scratch modest and recalibration points exact.
const MAX_CHUNK_FRAMES: usize = 32;

/// Scan-timing bookkeeping derived from the frame rate and geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanTiming {
    /// Full-frame rate.
    pub frame_rate: Hertz,
    /// Duration of one frame.
    pub frame_period: Seconds,
    /// Duration of one row slot.
    pub row_period: Seconds,
    /// Per-pixel dwell time on a channel (row period / columns-per-channel).
    pub pixel_dwell: Seconds,
    /// Number of parallel output channels.
    pub channels: usize,
    /// Columns served by each channel (the mux ratio).
    pub columns_per_channel: usize,
}

impl ScanTiming {
    /// Computes the timing for a geometry, frame rate and channel count.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidConfig`] if the column count is not an
    /// integer multiple of the channel count or the frame rate is not
    /// positive.
    pub fn new(
        geometry: ArrayGeometry,
        frame_rate: Hertz,
        channels: usize,
    ) -> Result<Self, ChipError> {
        if frame_rate.value() <= 0.0 {
            return Err(ChipError::InvalidConfig {
                reason: "frame rate must be positive".into(),
            });
        }
        if channels == 0 || !geometry.cols().is_multiple_of(channels) {
            return Err(ChipError::InvalidConfig {
                reason: format!(
                    "{} columns cannot be split over {} channels",
                    geometry.cols(),
                    channels
                ),
            });
        }
        let frame_period = frame_rate.recip();
        let row_period = Seconds::new(frame_period.value() / geometry.rows() as f64);
        let columns_per_channel = geometry.cols() / channels;
        let pixel_dwell = Seconds::new(row_period.value() / columns_per_channel as f64);
        Ok(Self {
            frame_rate,
            frame_period,
            row_period,
            pixel_dwell,
            channels,
            columns_per_channel,
        })
    }

    /// Absolute sample time of a pixel within frame `frame`: rolling
    /// shutter over rows, mux sequence over the channel's columns.
    pub fn sample_time(&self, frame: usize, addr: PixelAddress) -> Seconds {
        let slot = addr.col % self.columns_per_channel;
        Seconds::new(
            frame as f64 * self.frame_period.value()
                + addr.row as f64 * self.row_period.value()
                + slot as f64 * self.pixel_dwell.value(),
        )
    }
}

/// Configuration of a neural-recording chip instance.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuroChipConfig {
    /// Array geometry (default: the paper's 128×128 at 7.8 µm).
    pub geometry: ArrayGeometry,
    /// Full-frame rate (paper: 2 kHz).
    pub frame_rate: Hertz,
    /// Parallel output channels (paper: 16).
    pub channels: usize,
    /// Pixel design values.
    pub pixel: NeuroPixelConfig,
    /// Per-channel signal-chain design values.
    pub chain: ChainConfig,
    /// Recalibration interval (the paper's periodic row-parallel,
    /// column-sequential calibration).
    pub recalibration_interval: Seconds,
    /// Die seed for mismatch and noise.
    pub seed: u64,
}

impl Default for NeuroChipConfig {
    fn default() -> Self {
        Self {
            geometry: ArrayGeometry::neuro_128x128(),
            frame_rate: Hertz::from_kilo(2.0),
            channels: 16,
            pixel: NeuroPixelConfig::default(),
            chain: ChainConfig::default(),
            recalibration_interval: Seconds::from_milli(50.0),
            seed: 0x0EE5_1281,
        }
    }
}

/// One recorded frame: output-referred voltages in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    rows: usize,
    cols: usize,
    samples: Vec<f64>,
}

impl Frame {
    /// Sample at an address (volts at the chain output).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the frame.
    pub fn at(&self, addr: PixelAddress) -> f64 {
        assert!(addr.row < self.rows && addr.col < self.cols);
        self.samples[addr.row * self.cols + addr.col]
    }

    /// Raw row-major samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Frame rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Frame columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// A multi-frame recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    geometry: ArrayGeometry,
    timing: ScanTiming,
    frames: Vec<Frame>,
    /// Mean pixel→output conversion (V out per V of cleft signal), for
    /// input-referred analysis.
    nominal_voltage_gain: f64,
}

impl Recording {
    /// The frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if no frames were recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Scan timing of the recording.
    pub fn timing(&self) -> ScanTiming {
        self.timing
    }

    /// Array geometry.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// Output-referred time series of one pixel across frames.
    pub fn pixel_series(&self, addr: PixelAddress) -> Vec<f64> {
        self.frames.iter().map(|f| f.at(addr)).collect()
    }

    /// Input-referred (cleft-voltage) time series of one pixel: output
    /// divided by the nominal end-to-end voltage gain.
    pub fn pixel_series_input_referred(&self, addr: PixelAddress) -> Vec<f64> {
        let g = self.nominal_voltage_gain;
        self.frames.iter().map(|f| f.at(addr) / g).collect()
    }

    /// The nominal end-to-end voltage gain used for input referral.
    pub fn nominal_voltage_gain(&self) -> f64 {
        self.nominal_voltage_gain
    }
}

/// Median of a slice (0.0 when empty).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    let mid = sorted.len() / 2;
    let (_, m, _) = sorted.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    *m
}

/// A neural-recording chip instance (one die).
#[derive(Debug, Clone)]
pub struct NeuroChip {
    config: NeuroChipConfig,
    timing: ScanTiming,
    pixels: Vec<NeuroPixel>,
    channels: Vec<ChannelChain>,
    calibrated: bool,
    faults: CompiledFaults,
    health: HealthMonitor,
    /// The full-scale output the standing self-test classified against;
    /// `None` once faults or an uncalibrated acquisition have changed the
    /// die since (or before the first calibration). While it matches, a
    /// recalibration would reproduce `health` exactly.
    self_tested: Option<f64>,
    /// Precomputed per-channel scan order (rebuilt on fault injection).
    plan: ScanPlan,
    /// Frame-buffer pool backing allocation-free steady-state recording.
    arena: FrameArena,
    /// Linearized fast-path coefficient tables (SoA), invalidated whenever
    /// calibration or fault state changes and rebuilt lazily at the next
    /// fast-path chunk.
    linear: LinearState,
}

impl NeuroChip {
    /// Instantiates a die with sampled mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError`] if the configuration is invalid.
    pub fn new(config: NeuroChipConfig) -> Result<Self, ChipError> {
        let timing = ScanTiming::new(config.geometry, config.frame_rate, config.channels)?;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let pixels: Vec<NeuroPixel> = (0..config.geometry.len())
            .map(|_| NeuroPixel::sample(config.pixel.clone(), &mut rng))
            .collect::<Result<_, _>>()?;
        let channels: Vec<ChannelChain> = (0..config.channels)
            .map(|_| ChannelChain::sample(config.chain.clone(), &mut rng))
            .collect();
        let faults = CompiledFaults::none(config.geometry.rows(), config.geometry.cols());
        let plan = ScanPlan::build(
            config.geometry,
            timing.row_period,
            timing.pixel_dwell,
            config.channels,
            &faults,
            &pixels,
        );
        Ok(Self {
            timing,
            pixels,
            channels,
            calibrated: false,
            faults,
            health: HealthMonitor::all_healthy(config.geometry),
            self_tested: None,
            plan,
            arena: FrameArena::new(),
            linear: LinearState::default(),
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NeuroChipConfig {
        &self.config
    }

    /// Scan timing.
    pub fn timing(&self) -> ScanTiming {
        self.timing
    }

    /// Whether pixel and gain-stage calibration have run.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// The pixel at an address.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] for bad addresses.
    pub fn pixel(&self, addr: PixelAddress) -> Result<&NeuroPixel, ChipError> {
        Ok(&self.pixels[self.config.geometry.index_of(addr)?])
    }

    /// Injects a compiled fault map into the die: every pixel takes on its
    /// planned defects, lost multiplexer channels go silent, and
    /// [`calibrate`](Self::calibrate)'s self-test reclassifies pixel
    /// health. Serial-bit-error faults are inert here (the neural chip
    /// streams analog samples, not serial words).
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
        // Clip limits and lost channels are baked into the scan plan and
        // the linearized tables.
        self.plan = ScanPlan::build(
            self.config.geometry,
            self.timing.row_period,
            self.timing.pixel_dwell,
            self.config.channels,
            &self.faults,
            &self.pixels,
        );
        self.self_tested = None;
        self.linear.invalidate();
        Ok(())
    }

    /// The fault map currently injected (fault-free for a pristine die).
    pub fn faults(&self) -> &CompiledFaults {
        &self.faults
    }

    /// Per-pixel health as established by the last
    /// [`calibrate`](Self::calibrate) self-test.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// The multiplexer channels currently lost to injected faults, sorted.
    pub fn lost_channels(&self) -> &[usize] {
        self.faults.lost_channels()
    }

    /// Calibrates all pixels (rows in parallel, columns in sequence, as in
    /// the paper) and all channel gain stages, at absolute time `now`,
    /// then self-tests every pixel and updates [`health`](Self::health):
    /// a pixel with no response to a capacitively applied test amplitude
    /// is dead; one whose calibration residual is grossly out of family,
    /// or whose output would clip inside the ±5 mV signal window, is
    /// flagged out-of-family.
    ///
    /// Recalibration restores each pixel's stored gate to the same
    /// operating point, so when nothing has changed since the last
    /// self-test (no fault injection, no uncalibrated acquisition) the
    /// self-test is skipped: read at its calibration instant, every pixel
    /// returns exactly what it returned then. The linearized tables keep
    /// their expansion and only shift to the new instant.
    pub fn calibrate(&mut self, now: Seconds) {
        for p in &mut self.pixels {
            p.calibrate(now);
        }
        for c in &mut self.channels {
            c.calibrate();
        }
        // The clip threshold depends on the calibration instant only
        // through droop before t = 0, so compare it rather than assume it.
        let full_scale = self.full_scale_out();
        if self.self_tested == Some(full_scale) {
            self.linear.recalibrated();
        } else {
            self.self_test(now, full_scale);
            self.self_tested = Some(full_scale);
            // Operating points moved: the fast path must re-linearize.
            self.linear.invalidate();
        }
        self.calibrated = true;
    }

    /// Output swing a full-scale 5 mV signal produces at this channel
    /// gain — a clip limit inside it truncates real spikes.
    fn full_scale_out(&self) -> f64 {
        5.0 * 1e-3 * self.nominal_voltage_gain()
    }

    /// Classifies every pixel from a two-point capacitive self-test.
    fn self_test(&mut self, now: Seconds, full_scale_out: f64) {
        let test = Volt::from_milli(1.0);
        let mut residuals = Vec::with_capacity(self.pixels.len());
        let mut responses = Vec::with_capacity(self.pixels.len());
        for p in &self.pixels {
            let base = p.read(Volt::ZERO, now);
            residuals.push(base.value().abs());
            responses.push((p.read(test, now) - base).value().abs());
        }
        // A healthy pixel converts 1 mV to tens of nA of ΔI; 1 nA floors
        // the threshold so an (improbable) all-dead array still classifies.
        let dead_threshold = (0.2 * median(&responses)).max(1e-9);
        // Residuals after calibration are injection-offset sized (tens of
        // nA); a µA-class residual means something besides mismatch leaks
        // into the pixel.
        let residual_limit = 500e-9;

        let cols_per_ch = self.timing.columns_per_channel;
        let cols = self.config.geometry.cols();
        let mut health = HealthMonitor::all_healthy(self.config.geometry);
        for (i, p) in self.pixels.iter().enumerate() {
            let channel = (i % cols) / cols_per_ch;
            let state = if self.faults.channel_lost(channel) {
                // Unobservable through a lost multiplexer channel: mask it.
                PixelHealth::Dead
            } else if responses[i] < dead_threshold {
                PixelHealth::Dead
            } else if residuals[i] > residual_limit
                || p.faults()
                    .clip_limit
                    .is_some_and(|l| l.value() < full_scale_out)
            {
                PixelHealth::OutOfFamily
            } else {
                PixelHealth::Healthy
            };
            health.set_state(i, state);
        }
        self.health = health;
    }

    /// Summarizes the die: pixel health from the last self-test, lost
    /// channels and injected fault counts. The neural chip has no serial
    /// word link, so serial statistics are always zero.
    pub fn yield_report(&self) -> YieldReport {
        YieldReport::new(
            &self.health,
            self.faults.lost_channels().to_vec(),
            self.config.channels,
            self.faults.injected_counts().clone(),
            SerialLinkStats::default(),
        )
    }

    /// Mean pixel conversion gain × chain gain × transimpedance: the
    /// nominal cleft-voltage → output-voltage gain.
    pub fn nominal_voltage_gain(&self) -> f64 {
        let gm: f64 = self
            .pixels
            .iter()
            .take(16)
            .map(|p| p.conversion_gain(Seconds::ZERO).value())
            .sum::<f64>()
            / 16.0_f64.min(self.pixels.len() as f64);
        Siemens::new(gm).value()
            * self.channels[0].nominal_current_gain()
            * self.config.chain.conversion_resistance.value()
    }

    /// Records `frames` full frames from a culture starting at `t0`,
    /// recalibrating at the configured interval, with default scan
    /// options (all available worker threads).
    ///
    /// Pixels are sampled at their true rolling-shutter times; each
    /// channel's settling state evolves down its column sequence.
    pub fn record(&mut self, culture: &Culture, t0: Seconds, frames: usize) -> Recording {
        self.record_with(culture, t0, frames, ScanOptions::default())
    }

    /// [`record`](Self::record) with explicit scan options. Results are
    /// identical for every thread count: frame noise comes from
    /// deterministic per-channel RNG streams, so scheduling never touches
    /// the sample values.
    pub fn record_with(
        &mut self,
        culture: &Culture,
        t0: Seconds,
        frames: usize,
        opts: ScanOptions,
    ) -> Recording {
        self.acquire(culture, t0, opts).into_recording(frames)
    }

    /// Records without ever calibrating — the baseline the paper's
    /// calibration scheme is designed to beat. (Forces an uncalibrated
    /// state; any prior calibration is discarded. Injected faults stay.)
    pub fn record_uncalibrated(
        &mut self,
        culture: &Culture,
        t0: Seconds,
        frames: usize,
    ) -> Recording {
        self.record_uncalibrated_with(culture, t0, frames, ScanOptions::default())
    }

    /// [`record_uncalibrated`](Self::record_uncalibrated) with explicit
    /// scan options.
    pub fn record_uncalibrated_with(
        &mut self,
        culture: &Culture,
        t0: Seconds,
        frames: usize,
        opts: ScanOptions,
    ) -> Recording {
        self.acquire_uncalibrated(culture, t0, opts)
            .into_recording(frames)
    }

    /// Opens an acquisition cursor on a culture starting at `t0`: the
    /// streaming form of [`record_with`](Self::record_with). Frames drawn
    /// from the cursor in chunks of any size are `f64::to_bits`-identical
    /// to one `record_with` call of the same total length.
    pub fn acquire<'a>(
        &'a mut self,
        culture: &'a Culture,
        t0: Seconds,
        opts: ScanOptions,
    ) -> Acquisition<'a> {
        Acquisition::open(self, culture, t0, opts, true)
    }

    /// Opens a cursor that never calibrates: the streaming form of
    /// [`record_uncalibrated_with`](Self::record_uncalibrated_with), which
    /// discards any prior calibration.
    pub fn acquire_uncalibrated<'a>(
        &'a mut self,
        culture: &'a Culture,
        t0: Seconds,
        opts: ScanOptions,
    ) -> Acquisition<'a> {
        for p in &mut self.pixels {
            p.clear_calibration();
        }
        self.calibrated = false;
        self.self_tested = None;
        self.linear.invalidate();
        Acquisition::open(self, culture, t0, opts, false)
    }

    /// Rebuilds the linearized fast-path coefficient tables around the
    /// operating point at `now`. Recording does this automatically at
    /// every recalibration boundary; this entry point exists so stage
    /// timings can be measured in isolation (and tables pre-warmed). It
    /// always linearizes every pixel, and a later recalibration does not
    /// reuse the tables it builds.
    pub fn relinearize(&mut self, now: Seconds) {
        self.linear.rebuild(
            &self.plan,
            &self.pixels,
            &self.channels,
            self.timing.pixel_dwell,
            now,
            false,
        );
    }

    /// Compiles the fast path's culture scatter tables, over the thread
    /// count a default acquisition resolves, and returns the total number
    /// of `(neuron, weight)` pairs retained. An acquisition does this in
    /// its first scan chunk; this entry point exists for stage timing and
    /// diagnostics.
    pub fn compile_culture_sources(&mut self, culture: &Culture) -> usize {
        let threads = resolve_threads(self.config.channels, ScanOptions::default());
        self.linear.compile_culture(&self.plan, culture, threads)
    }

    /// The worker-thread count `opts` resolves to on this die (the value
    /// recorded by benchmarks instead of the `None` = "auto" request).
    pub fn resolved_scan_threads(&self, opts: ScanOptions) -> usize {
        resolve_threads(self.config.channels, opts)
    }

    /// Returns a finished recording's frame buffers to the arena so the
    /// next record call reuses them instead of allocating.
    pub fn recycle(&mut self, recording: Recording) {
        for f in recording.frames {
            self.arena.release(f.samples);
        }
    }

    /// Frame-arena pool statistics (fresh allocations vs pooled reuses).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Electrical test mode: measures each pixel's conversion gain
    /// (output volts per volt of cleft signal) by applying a known test
    /// amplitude capacitively — the gain map production test programs
    /// record before shipping a die. Requires a calibrated chip for
    /// meaningful numbers.
    pub fn gain_map(&mut self, test_amplitude: Volt, now: Seconds) -> Vec<f64> {
        let cols_per_ch = self.timing.columns_per_channel;
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0x6A1);
        let mut out = vec![0.0; self.config.geometry.len()];
        // Long dwell + two reads (0 and test amplitude) per pixel.
        let dwell = Seconds::from_micro(10.0);
        for row in 0..self.config.geometry.rows() {
            for slot in 0..cols_per_ch {
                for (ch_idx, ch) in self.channels.iter_mut().enumerate() {
                    let col = ch_idx * cols_per_ch + slot;
                    let idx = row * self.config.geometry.cols() + col;
                    if self.faults.channel_lost(ch_idx) {
                        out[idx] = 0.0;
                        continue;
                    }
                    let clip = self.pixels[idx].faults().clip_limit;
                    ch.reset_settling();
                    let i0 = self.pixels[idx].read(Volt::ZERO, now);
                    let v0 = clipped(clip, ch.process_sample(i0, dwell, &mut rng));
                    ch.reset_settling();
                    let i1 = self.pixels[idx].read(test_amplitude, now);
                    let v1 = clipped(clip, ch.process_sample(i1, dwell, &mut rng));
                    out[idx] = (v1 - v0) / test_amplitude.value();
                }
            }
        }
        out
    }

    /// Per-pixel zero-input offsets at the chain output (one instantaneous
    /// read of every pixel with no signal), for mismatch/calibration
    /// studies.
    pub fn offset_map(&mut self, now: Seconds) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0xBEEF);
        let cols_per_ch = self.timing.columns_per_channel;
        let mut out = vec![0.0; self.config.geometry.len()];
        for row in 0..self.config.geometry.rows() {
            for ch in &mut self.channels {
                ch.reset_settling();
            }
            for slot in 0..cols_per_ch {
                for (ch_idx, ch) in self.channels.iter_mut().enumerate() {
                    let col = ch_idx * cols_per_ch + slot;
                    let idx = row * self.config.geometry.cols() + col;
                    if self.faults.channel_lost(ch_idx) {
                        out[idx] = 0.0;
                        continue;
                    }
                    let i_diff = self.pixels[idx].read(Volt::ZERO, now);
                    let v = ch.process_sample(i_diff, Seconds::from_micro(10.0), &mut rng);
                    out[idx] = clipped(self.pixels[idx].faults().clip_limit, v);
                }
            }
        }
        out
    }
}

/// Where an [`Acquisition`] gathers its frames.
enum Sink<'o> {
    /// Row-major frames appended back to back to one buffer.
    Contiguous(&'o mut Vec<f64>),
    /// One arena buffer per frame.
    Frames(&'o mut Vec<Frame>),
}

/// A resumable acquisition cursor over one die, opened by
/// [`NeuroChip::acquire`]. The chip is a continuous readout, so the cursor
/// is unbounded: each [`next_chunk`](Self::next_chunk) call scans the next
/// frames in sequence.
///
/// The cursor carries what a recording needs across calls: the
/// per-channel noise streams (seeded once, when the cursor opens), the
/// last recalibration instant and the next frame index. Recalibration
/// and re-linearization happen at the same frames however the frames are
/// drawn, so any chunking reproduces a one-shot
/// [`NeuroChip::record_with`] bit for bit.
#[derive(Debug)]
pub struct Acquisition<'a> {
    chip: &'a mut NeuroChip,
    culture: &'a Culture,
    t0: f64,
    threads: usize,
    fast: bool,
    /// Whether the fast path's scatter tables hold `culture` yet. They
    /// depend only on geometry and the culture, so the first chunk
    /// compiles them and every later chunk reuses them.
    compiled: bool,
    recalibrate: bool,
    rngs: Vec<SmallRng>,
    last_cal: f64,
    next_frame: usize,
    frame_starts: Vec<f64>,
}

impl<'a> Acquisition<'a> {
    fn open(
        chip: &'a mut NeuroChip,
        culture: &'a Culture,
        t0: Seconds,
        opts: ScanOptions,
        recalibrate: bool,
    ) -> Self {
        let fast = opts.mode == ScanMode::Linearized;
        let seed = chip.config.seed;
        let rngs = (0..chip.config.channels)
            .map(|ch| SmallRng::seed_from_u64(channel_stream_seed(seed, ch)))
            .collect();
        Self {
            threads: resolve_threads(chip.config.channels, opts),
            chip,
            culture,
            t0: t0.value(),
            fast,
            compiled: false,
            recalibrate,
            rngs,
            last_cal: f64::NEG_INFINITY,
            next_frame: 0,
            frame_starts: Vec::with_capacity(MAX_CHUNK_FRAMES),
        }
    }

    /// Scans the next `n` frames and appends them to `out`, row-major and
    /// back to back (`n × rows × cols` samples).
    pub fn next_chunk(&mut self, out: &mut Vec<f64>, n: usize) {
        self.fill(Sink::Contiguous(out), n);
    }

    /// Collects the next `frames` frames into a [`Recording`] whose
    /// sample buffers come from the chip's arena.
    fn into_recording(mut self, frames: usize) -> Recording {
        let nominal_voltage_gain = self.chip.nominal_voltage_gain();
        let mut out = Vec::with_capacity(frames);
        self.fill(Sink::Frames(&mut out), frames);
        Recording {
            geometry: self.chip.config.geometry,
            timing: self.chip.timing,
            frames: out,
            nominal_voltage_gain,
        }
    }

    /// The scan loop: splits the next `n` frames into scan chunks at
    /// recalibration due-times and at [`MAX_CHUNK_FRAMES`], fans each
    /// chunk's channels out into a channel-major stripe buffer, then
    /// gathers the stripes into `sink` as row-major frames.
    fn fill(&mut self, mut sink: Sink<'_>, n: usize) {
        let chip = &mut *self.chip;
        let timing = chip.timing;
        let frame_period = timing.frame_period.value();
        let interval = chip.config.recalibration_interval.value();
        let (rows, cols) = (chip.config.geometry.rows(), chip.config.geometry.cols());
        let channels = chip.config.channels;
        let block = rows * timing.columns_per_channel;
        if let Sink::Contiguous(buf) = &mut sink {
            buf.reserve(n * rows * cols);
        }

        let end = self.next_frame + n;
        while self.next_frame < end {
            let chunk_t0 = self.t0 + self.next_frame as f64 * frame_period;
            if self.recalibrate && (chunk_t0 - self.last_cal) >= interval {
                chip.calibrate(Seconds::new(chunk_t0));
                self.last_cal = chunk_t0;
            }
            if self.fast && !chip.linear.is_fresh() {
                // Re-linearize at the chunk start — for a recalibrating
                // cursor this is exactly the calibration instant, so the
                // expansion point matches the fresh operating points (and a
                // recalibration that moved none of them only shifts `off`).
                chip.linear.rebuild(
                    &chip.plan,
                    &chip.pixels,
                    &chip.channels,
                    timing.pixel_dwell,
                    Seconds::new(chunk_t0),
                    self.last_cal == chunk_t0,
                );
            }

            // The chunk runs until the next recalibration would be due (or
            // the cap), so calibration happens at exactly the same frames
            // as a per-frame check would produce.
            self.frame_starts.clear();
            self.frame_starts.push(chunk_t0);
            while self.frame_starts.len() < MAX_CHUNK_FRAMES
                && self.next_frame + self.frame_starts.len() < end
            {
                let fs =
                    self.t0 + (self.next_frame + self.frame_starts.len()) as f64 * frame_period;
                if self.recalibrate && (fs - self.last_cal) >= interval {
                    break;
                }
                self.frame_starts.push(fs);
            }
            let chunk = self.frame_starts.len();

            // Channel-major scratch: [channel][frame][row][slot]. Taken
            // from the arena so its capacity persists across chunks.
            let mut stripe = std::mem::take(&mut chip.arena.stripe);
            stripe.clear();
            stripe.resize(channels * chunk * block, 0.0);
            if self.fast {
                scan_chunk_linear(
                    &chip.plan,
                    &mut chip.linear,
                    &mut self.rngs,
                    self.culture,
                    &self.frame_starts,
                    timing.frame_period,
                    &mut stripe,
                    self.threads,
                    !self.compiled,
                );
                self.compiled = true;
            } else {
                scan_chunk(
                    &chip.plan,
                    &chip.pixels,
                    &mut chip.channels,
                    &mut self.rngs,
                    self.culture,
                    timing.pixel_dwell,
                    &self.frame_starts,
                    &mut stripe,
                    self.threads,
                );
            }

            // Gather: each channel's slots within a row are a contiguous
            // run of columns (col = ch·cpc + slot), so a row-major frame is
            // one copy per (row, channel) in that order.
            let cpc = timing.columns_per_channel;
            for fi in 0..chunk {
                let gather = |dst: &mut Vec<f64>| {
                    for row in 0..rows {
                        for ch in 0..channels {
                            let start = (ch * chunk + fi) * block + row * cpc;
                            if let Some(segment) = stripe.get(start..start + cpc) {
                                dst.extend_from_slice(segment);
                            }
                        }
                    }
                };
                match &mut sink {
                    Sink::Contiguous(buf) => gather(buf),
                    Sink::Frames(frames) => {
                        let mut samples = chip.arena.acquire(rows * cols);
                        gather(&mut samples);
                        frames.push(Frame {
                            rows,
                            cols,
                            samples,
                        });
                    }
                }
            }
            chip.arena.stripe = stripe;
            self.next_frame += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_neuro::culture::{Culture, CultureConfig};
    use bsa_units::{Ampere, Meter};

    fn small_config() -> NeuroChipConfig {
        NeuroChipConfig {
            geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
            channels: 4,
            ..NeuroChipConfig::default()
        }
    }

    #[test]
    fn paper_timing_numbers() {
        let t = ScanTiming::new(ArrayGeometry::neuro_128x128(), Hertz::from_kilo(2.0), 16).unwrap();
        // Frame 500 µs, row 3.9 µs, dwell 488 ns, 8 columns per channel.
        assert!((t.frame_period.as_micro() - 500.0).abs() < 1e-9);
        assert!((t.row_period.as_micro() - 3.90625).abs() < 1e-6);
        assert_eq!(t.columns_per_channel, 8);
        assert!((t.pixel_dwell.as_nano() - 488.28).abs() < 0.1);
    }

    #[test]
    fn timing_rejects_bad_channel_split() {
        assert!(
            ScanTiming::new(ArrayGeometry::neuro_128x128(), Hertz::from_kilo(2.0), 10).is_err()
        );
        assert!(ScanTiming::new(ArrayGeometry::neuro_128x128(), Hertz::ZERO, 16).is_err());
    }

    #[test]
    fn sample_times_are_rolling_shutter() {
        let t = ScanTiming::new(ArrayGeometry::neuro_128x128(), Hertz::from_kilo(2.0), 16).unwrap();
        let t00 = t.sample_time(0, PixelAddress::new(0, 0));
        let t10 = t.sample_time(0, PixelAddress::new(1, 0));
        let t01 = t.sample_time(0, PixelAddress::new(0, 1));
        let t08 = t.sample_time(0, PixelAddress::new(0, 8));
        assert!(t10 > t00, "later rows sample later");
        assert!(t01 > t00, "later mux slots sample later");
        // Column 8 is slot 0 of channel 1: same time as column 0.
        assert_eq!(t08, t00);
        let next_frame = t.sample_time(1, PixelAddress::new(0, 0));
        assert!((next_frame.value() - 500e-6).abs() < 1e-12);
    }

    #[test]
    fn quiet_culture_records_near_zero_after_calibration() {
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        let rec = chip.record(&culture, Seconds::ZERO, 5);
        assert_eq!(rec.len(), 5);
        assert!(chip.is_calibrated());
        // Residual output spread ≪ the output swing a 1 mV signal causes.
        let gain = rec.nominal_voltage_gain();
        for f in rec.frames() {
            for s in f.samples() {
                assert!(
                    s.abs() < gain * 2e-3,
                    "zero-signal output {s} vs 2 mV-equivalent {}",
                    gain * 2e-3
                );
            }
        }
    }

    #[test]
    fn uncalibrated_offsets_dominate() {
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        let cal = chip.record(&culture, Seconds::ZERO, 1);
        let uncal = chip.record_uncalibrated(&culture, Seconds::ZERO, 1);
        let spread = |fr: &Frame| {
            let m = fr.samples().iter().sum::<f64>() / fr.samples().len() as f64;
            (fr.samples().iter().map(|x| (x - m).powi(2)).sum::<f64>() / fr.samples().len() as f64)
                .sqrt()
        };
        let s_cal = spread(&cal.frames()[0]);
        let s_uncal = spread(&uncal.frames()[0]);
        assert!(
            s_uncal > 10.0 * s_cal,
            "uncal {s_uncal} vs cal {s_cal}: calibration must win by ≫10×"
        );
    }

    #[test]
    fn spiking_neuron_appears_at_its_pixel() {
        use bsa_neuro::firing::FiringPattern;
        use bsa_neuro::junction::ApTemplate;

        let mut chip = NeuroChip::new(small_config()).unwrap();
        let geometry = chip.config().geometry;
        // Place one neuron over pixel (8, 8).
        let (x, y) = geometry.position_of(PixelAddress::new(8, 8));
        // A well-coupled neuron (tight cleft): 3× the nominal template,
        // still inside the paper's 100 µV – 5 mV window.
        let template = ApTemplate::nominal().clone().scaled(3.0);
        let mut culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        // Pixel (8, 8) of the 16×16 test array samples at 250 µs within
        // each 500 µs frame (row 8 of 16); place the spike so that sample
        // lands ~150 µs after the upstroke, inside the AP's main phase.
        culture.push(bsa_neuro::culture::CulturedNeuron {
            x,
            y,
            diameter: Meter::from_micro(30.0),
            pattern: FiringPattern::Silent,
            template,
            spikes: vec![Seconds::from_micro(2100.0)],
        });

        let rec = chip.record(&culture, Seconds::ZERO, 12); // 6 ms
                                                            // Remove each pixel's static offset (injection residual) the way
                                                            // any real readout pipeline does, then look for the transient.
        let detrended_peak = |series: &[f64]| {
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            series
                .iter()
                .map(|x| (x - mean).abs())
                .fold(0.0f64, f64::max)
        };
        let series = rec.pixel_series_input_referred(PixelAddress::new(8, 8));
        let peak = detrended_peak(&series);
        assert!(
            peak > 100e-6,
            "spike must appear ≥100 µV input-referred, got {peak}"
        );
        // A far-away pixel stays quiet.
        let far = rec.pixel_series_input_referred(PixelAddress::new(1, 1));
        let far_peak = detrended_peak(&far);
        assert!(far_peak < peak / 3.0, "far pixel {far_peak} vs {peak}");
    }

    #[test]
    fn offset_map_has_one_entry_per_pixel() {
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let map = chip.offset_map(Seconds::ZERO);
        assert_eq!(map.len(), 256);
    }

    #[test]
    fn gain_map_is_uniform_after_calibration() {
        let mut chip = NeuroChip::new(small_config()).unwrap();
        chip.calibrate(Seconds::ZERO);
        let map = chip.gain_map(Volt::from_milli(1.0), Seconds::ZERO);
        assert_eq!(map.len(), 256);
        let mean = map.iter().sum::<f64>() / map.len() as f64;
        let sd = (map.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / map.len() as f64).sqrt();
        // Nominal cleft-to-output gain is ~120 V/V; residual spread comes
        // from gm variation M1 calibration cannot equalize.
        assert!(mean > 50.0 && mean < 300.0, "mean gain = {mean}");
        assert!(sd / mean < 0.15, "gain spread = {}", sd / mean);
        assert!(map.iter().all(|g| *g > 0.0), "all pixels respond");
    }

    #[test]
    fn pixel_accessor_bounds_check() {
        let chip = NeuroChip::new(small_config()).unwrap();
        assert!(chip.pixel(PixelAddress::new(0, 0)).is_ok());
        assert!(chip.pixel(PixelAddress::new(16, 0)).is_err());
    }

    #[test]
    fn recording_accessors() {
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        let rec = chip.record(&culture, Seconds::ZERO, 3);
        assert!(!rec.is_empty());
        assert_eq!(rec.pixel_series(PixelAddress::new(0, 0)).len(), 3);
        assert_eq!(rec.geometry().len(), 256);
        assert!(rec.nominal_voltage_gain() > 0.0);
    }

    #[test]
    fn self_test_masks_injected_dead_pixels() {
        use crate::health::{DegradationMode, PixelHealth};
        use bsa_faults::{FaultKind, InjectionPlan};
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let faults = InjectionPlan::new(21)
            .at(3, 4, FaultKind::DeadPixel)
            .at(10, 12, FaultKind::DeadPixel)
            .compile(16, 16);
        chip.inject_faults(&faults).unwrap();
        chip.calibrate(Seconds::ZERO);
        let h = chip.health();
        assert_eq!(
            h.state_at(PixelAddress::new(3, 4)).unwrap(),
            PixelHealth::Dead
        );
        assert_eq!(
            h.state_at(PixelAddress::new(10, 12)).unwrap(),
            PixelHealth::Dead
        );
        assert_eq!(h.dead_indices().len(), 2);
        let report = chip.yield_report();
        assert_eq!(report.dead, 2);
        assert_eq!(report.degradation, DegradationMode::Degraded);
    }

    #[test]
    fn lost_channel_goes_silent_and_is_masked() {
        use crate::health::PixelHealth;
        use bsa_faults::InjectionPlan;
        let mut chip = NeuroChip::new(small_config()).unwrap();
        // 16 columns over 4 channels: channel 1 serves columns 4–7.
        let faults = InjectionPlan::new(22).lose_channel(1).compile(16, 16);
        chip.inject_faults(&faults).unwrap();
        let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        let rec = chip.record(&culture, Seconds::ZERO, 2);
        for row in 0..16 {
            for col in 4..8 {
                assert_eq!(rec.frames()[0].at(PixelAddress::new(row, col)), 0.0);
                assert_eq!(
                    chip.health().state_at(PixelAddress::new(row, col)).unwrap(),
                    PixelHealth::Dead
                );
            }
        }
        // A column on a live channel still responds and stays healthy.
        assert_eq!(
            chip.health().state_at(PixelAddress::new(0, 0)).unwrap(),
            PixelHealth::Healthy
        );
        let report = chip.yield_report();
        assert_eq!(report.lost_channels, vec![1]);
        assert_eq!(report.dead, 64);
    }

    #[test]
    fn gain_clipping_clamps_output_and_flags_pixel() {
        use crate::health::PixelHealth;
        use bsa_faults::{FaultKind, InjectionPlan};
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let clip = Volt::from_milli(50.0); // well inside the 5 mV window's swing
        let faults = InjectionPlan::new(23)
            .at(2, 2, FaultKind::GainClipping { limit: clip })
            .compile(16, 16);
        chip.inject_faults(&faults).unwrap();
        chip.calibrate(Seconds::ZERO);
        assert_eq!(
            chip.health().state_at(PixelAddress::new(2, 2)).unwrap(),
            PixelHealth::OutOfFamily
        );
        // A 5 mV test tone cannot exceed the clip at the output: the two
        // clipped reads differ by at most 2 × the limit.
        let map = chip.gain_map(Volt::from_milli(5.0), Seconds::ZERO);
        let idx = 2 * 16 + 2;
        assert!(
            map[idx] * 5e-3 <= 2.0 * clip.value() + 1e-12,
            "clipped gain = {}",
            map[idx]
        );
        let healthy_gain = map[0];
        assert!(
            map[idx] < 0.5 * healthy_gain,
            "clipped {} vs healthy {healthy_gain}",
            map[idx]
        );
    }

    #[test]
    fn leaky_pixel_is_flagged_out_of_family() {
        use crate::health::PixelHealth;
        use bsa_faults::{FaultKind, InjectionPlan};
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let faults = InjectionPlan::new(24)
            .at(
                5,
                5,
                FaultKind::LeakyElectrode {
                    leakage: Ampere::from_micro(2.0),
                },
            )
            .compile(16, 16);
        chip.inject_faults(&faults).unwrap();
        chip.calibrate(Seconds::ZERO);
        assert_eq!(
            chip.health().state_at(PixelAddress::new(5, 5)).unwrap(),
            PixelHealth::OutOfFamily,
            "a µA-class residual is far out of the injection-offset family"
        );
    }

    #[test]
    fn neuro_fault_geometry_is_checked() {
        use bsa_faults::InjectionPlan;
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let wrong = InjectionPlan::new(1).compile(8, 16);
        assert!(matches!(
            chip.inject_faults(&wrong),
            Err(ChipError::FaultGeometryMismatch { .. })
        ));
    }

    #[test]
    fn clean_neuro_die_reports_full_performance() {
        use crate::health::DegradationMode;
        let mut chip = NeuroChip::new(small_config()).unwrap();
        chip.calibrate(Seconds::ZERO);
        let report = chip.yield_report();
        assert_eq!(report.degradation, DegradationMode::FullPerformance);
        assert_eq!(report.total_channels, 4);
        assert!(report.is_clean());
    }

    fn spiking_culture(seed: u64) -> Culture {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = CultureConfig {
            neuron_count: 6,
            ..CultureConfig::default()
        };
        let mut culture = Culture::random(&cfg, &mut rng);
        culture.generate_spikes(Seconds::from_milli(200.0), &mut rng);
        culture
    }

    fn bits(samples: &[f64]) -> Vec<u64> {
        samples.iter().map(|s| s.to_bits()).collect()
    }

    fn recording_bits(rec: &Recording) -> Vec<u64> {
        rec.frames()
            .iter()
            .flat_map(|f| bits(f.samples()))
            .collect()
    }

    fn assert_same_die(a: &NeuroChip, b: &NeuroChip) {
        for addr in a.config().geometry.iter() {
            assert_eq!(a.pixel(addr).unwrap(), b.pixel(addr).unwrap(), "{addr:?}");
        }
        assert_eq!(a.health(), b.health());
        assert_eq!(a.yield_report(), b.yield_report());
    }

    #[test]
    fn recalibration_matches_a_single_calibration_at_the_same_instant() {
        use bsa_faults::{FaultKind, InjectionPlan};
        let pristine = NeuroChip::new(small_config()).unwrap();
        // Before t = 0, droop moves the conversion gain that the
        // self-test's clip threshold is taken at. A clip limit between the
        // thresholds of two such instants must be judged at the later one.
        let full_scale_at = |t: f64| {
            let mut die = pristine.clone();
            die.calibrate(Seconds::new(t));
            die.full_scale_out()
        };
        let (early, late) = (full_scale_at(-1.0), full_scale_at(-2.0));
        assert_ne!(early, late);
        let limit = Volt::new(0.5 * (early + late));
        let mut clipped = pristine.clone();
        let clip = InjectionPlan::new(26)
            .at(2, 2, FaultKind::GainClipping { limit })
            .compile(16, 16);
        clipped.inject_faults(&clip).unwrap();
        for (die, straddles) in [(&pristine, false), (&clipped, true)] {
            for (t0, t1) in [(0.0, 0.37), (0.2, 0.05), (-1.0, -2.0)] {
                let mut twice = die.clone();
                twice.calibrate(Seconds::new(t0));
                let first = twice.health().clone();
                twice.calibrate(Seconds::new(t1));
                let mut once = die.clone();
                once.calibrate(Seconds::new(t1));
                assert_same_die(&twice, &once);
                if straddles && t0 < 0.0 {
                    assert_ne!(&first, twice.health(), "the clip limit must straddle");
                }
            }
        }
    }

    #[test]
    fn shifted_tables_record_what_a_full_rebuild_records() {
        let culture = spiking_culture(31);
        let t0 = Seconds::from_milli(3.0);
        let frames = 350; // four calibrations, 50 ms apart
        let mut shifted = NeuroChip::new(small_config()).unwrap();
        shifted.calibrate(Seconds::ZERO);
        let mut rebuilt = shifted.clone();
        let expected = recording_bits(&shifted.record(&culture, t0, frames));

        // Forgetting the standing self-test before every frame sends each
        // calibration down the full path: self-test, then every pixel
        // linearized again.
        let mut acq = rebuilt.acquire(&culture, t0, ScanOptions::default());
        let mut samples = Vec::new();
        for _ in 0..frames {
            acq.chip.self_tested = None;
            acq.next_chunk(&mut samples, 1);
        }
        drop(acq);
        assert!(
            bits(&samples) == expected,
            "shifted tables changed a sample"
        );
        assert_same_die(&shifted, &rebuilt);
    }

    #[test]
    fn faults_or_uncalibrated_scans_force_a_full_recalibration() {
        use crate::health::PixelHealth;
        use bsa_faults::{FaultKind, InjectionPlan};
        let culture = spiking_culture(32);
        let faults = InjectionPlan::new(25)
            .at(3, 4, FaultKind::DeadPixel)
            .at(
                5,
                5,
                FaultKind::LeakyElectrode {
                    leakage: Ampere::from_micro(2.0),
                },
            )
            .lose_channel(2)
            .compile(16, 16);
        let pristine = NeuroChip::new(small_config()).unwrap();

        let mut faulted = pristine.clone();
        faulted.calibrate(Seconds::ZERO);
        assert!(faulted.yield_report().is_clean());
        faulted.inject_faults(&faults).unwrap();
        faulted.calibrate(Seconds::new(0.4));
        let mut reference = pristine.clone();
        reference.inject_faults(&faults).unwrap();
        reference.calibrate(Seconds::new(0.4));
        assert_same_die(&faulted, &reference);
        let h = faulted.health();
        assert_eq!(
            h.state_at(PixelAddress::new(3, 4)).unwrap(),
            PixelHealth::Dead
        );
        assert_eq!(
            h.state_at(PixelAddress::new(5, 5)).unwrap(),
            PixelHealth::OutOfFamily
        );
        assert_eq!(faulted.yield_report().lost_channels, vec![2]);

        let mut uncal = pristine.clone();
        uncal.inject_faults(&faults).unwrap();
        uncal.calibrate(Seconds::ZERO);
        uncal.record_uncalibrated(&culture, Seconds::ZERO, 3);
        assert!(!uncal.is_calibrated());
        uncal.calibrate(Seconds::new(0.4));
        assert_same_die(&uncal, &reference);

        let expected = recording_bits(&reference.record(&culture, Seconds::new(0.4), 120));
        for die in [&mut faulted, &mut uncal] {
            let got = recording_bits(&die.record(&culture, Seconds::new(0.4), 120));
            assert!(got == expected, "a recalibrated die recorded other samples");
        }
    }

    #[test]
    fn random_culture_smoke_test() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = CultureConfig {
            neuron_count: 5,
            ..CultureConfig::default()
        };
        let mut culture = Culture::random(&cfg, &mut rng);
        culture.generate_spikes(Seconds::from_milli(20.0), &mut rng);
        let mut chip = NeuroChip::new(small_config()).unwrap();
        let rec = chip.record(&culture, Seconds::ZERO, 10);
        assert_eq!(rec.len(), 10);
        assert!(rec
            .frames()
            .iter()
            .all(|f| f.samples().iter().all(|s| s.is_finite())));
    }
}
