//! The calibrated linearized fast path behind the default
//! [`ScanMode::Linearized`](crate::scan::ScanMode) readout.
//!
//! The reference scan spends its per-sample budget on a full EKV
//! `drain_current` solve (two `ln1pexp` transcendentals) and an O(all
//! neurons) culture sum. Neither is necessary in steady state:
//!
//! * **Per-pixel transfer coefficients**: around the calibrated operating
//!   point, `ΔI(v_cleft, t) = off + slope·t_frame + gm·v_cleft` to first
//!   order ([`NeuroPixel::linearize`]), with `off`/`slope`/`gm` laid out
//!   in structure-of-arrays buffers, one entry per pixel in the channel's
//!   scan order.
//!   Tables are rebuilt at every recalibration boundary, so droop between
//!   expansion points stays second-order (DESIGN.md §13).
//! * **A neuron-major culture scatter table**: each pixel's `(neuron,
//!   footprint_weight)` pairs are loop-invariant in position, so once per
//!   acquisition [`Culture::compile_scatter`] lists, per neuron, the
//!   channel's entries it reaches, with their weights. That turns the
//!   per-sample gather over every neuron into a per-frame *scatter*: each
//!   neuron passing a conservative activity window accumulates its
//!   waveform into a frame voltage buffer, and the inner loop just reads
//!   one voltage per sample. Each active neuron's spike window is found
//!   once per frame, not once per entry. The compile builds each
//!   channel's buckets in one pass, neurons ascending and entries
//!   ascending within a bucket, and skips whole the neurons that never
//!   spike or whose cull disc misses the channel's stripe. Each channel
//!   compiles on the thread that scans it in the acquisition's first
//!   chunk, so the compile shares that chunk's channel fan-out.
//!   Every prune is *bit-identical* to the reference full sum, because
//!   each skipped contribution is exactly `+0.0` there and buckets scatter
//!   in the reference's ascending-neuron order.
//! * **The chain recursion in passes**: gain, settling factors,
//!   transimpedance and noise scale are per-channel constants
//!   ([`ChannelChain::linear_coeffs`]). A frame's noise is drawn in one
//!   pass, its chain inputs computed in another, and its rows settled
//!   [`SIDE_BY_SIDE_ROWS`] at a time, sharing the reference path's exact
//!   arithmetic, its deterministic per-channel RNG streams and its
//!   [`Ziggurat`] noise draws. The only divergence from the reference
//!   output is the pixel-current linearization itself.
//!
//! [`NeuroPixel::linearize`]: super::pixel::NeuroPixel::linearize
//! [`ChannelChain::linear_coeffs`]: super::chain::ChannelChain
//! [`Culture::compile_scatter`]: bsa_neuro::culture::Culture::compile_scatter
//! [`Ziggurat`]: bsa_rng::Ziggurat

use super::chain::{ChainCoeffs, ChannelChain};
use super::pixel::{NeuroPixel, PixelLinearization};
use super::scan::{ChannelPlan, ScanPlan};
use crate::scan::fan_out;
use bsa_neuro::culture::{Culture, ScatterTable};
use bsa_rng::{SmallRng, Ziggurat};
use bsa_units::Seconds;

/// One channel's structure-of-arrays coefficient tables, one entry per
/// pixel in the channel's scan order, plus its clipped pixels, its
/// compiled culture scatter table and per-frame scatter scratch. All
/// buffers are reused across rebuilds.
#[derive(Debug, Clone, Default)]
pub(super) struct LinearChannel {
    /// Residual current at the expansion point, in amperes.
    offset: Vec<f64>,
    /// Residual current folded to the frame-start reference:
    /// `offset + slope·(dt_k − t_lin)`, in amperes.
    off: Vec<f64>,
    /// Droop drift in A/s (multiplies the absolute frame start).
    slope: Vec<f64>,
    /// Conversion gain ∂ΔI/∂V_cleft in A/V.
    gm: Vec<f64>,
    /// The pixels with an injected clip fault, as `(entry, −|limit|,
    /// |limit|)` in ascending entry order: empty on a clean channel.
    clips: Vec<(usize, f64, f64)>,
    /// Per neuron, the `(entry, weight)` pairs it feeds.
    scatter: ScatterTable,
    /// Per-frame cleft-voltage accumulator, one slot per entry
    /// (scratch: zero between frames).
    vbuf: Vec<f64>,
}

/// How the coefficient tables stand against the die.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Freshness {
    /// The tables match the die; `at_calibration` if they were expanded
    /// at the instant of its last calibration.
    Fresh { at_calibration: bool },
    /// The die was recalibrated, and nothing else changed, since the
    /// tables were expanded at an earlier calibration instant. Every
    /// pixel sits at the same operating point again, so `offset`,
    /// `slope` and `gm` still hold; only `off` must move to the new
    /// instant.
    Recalibrated,
    /// Calibration or fault state changed: every table must be rebuilt.
    #[default]
    Stale,
}

/// The fast path's complete per-die state: per-channel coefficient SoA,
/// per-channel chain constants, and the freshness that drives
/// re-linearization at recalibration boundaries.
#[derive(Debug, Clone, Default)]
pub(super) struct LinearState {
    channels: Vec<LinearChannel>,
    chain: Vec<ChainCoeffs>,
    freshness: Freshness,
}

impl LinearState {
    /// Whether the coefficient tables match the die's current calibration
    /// and fault state.
    pub fn is_fresh(&self) -> bool {
        matches!(self.freshness, Freshness::Fresh { .. })
    }

    /// Marks the tables stale. Called whenever calibration state or
    /// injected faults change.
    pub fn invalidate(&mut self) {
        self.freshness = Freshness::Stale;
    }

    /// Records a recalibration that left every operating point where the
    /// previous one put it. Tables expanded at that previous calibration
    /// instant then only need their `off` shifted; any others stay stale.
    pub fn recalibrated(&mut self) {
        self.freshness = match self.freshness {
            Freshness::Fresh {
                at_calibration: true,
            }
            | Freshness::Recalibrated => Freshness::Recalibrated,
            Freshness::Fresh {
                at_calibration: false,
            }
            | Freshness::Stale => Freshness::Stale,
        };
    }

    /// Brings the tables up to date around the operating point at `t_lin`,
    /// which is the die's last calibration instant when `at_calibration`
    /// holds (as during a recalibrating record). After a
    /// [`recalibrated`](Self::recalibrated) die that is only
    /// `off = offset + slope·(dt − t_lin)` per entry, bit-identical to a
    /// full rebuild; otherwise every pixel is linearized again. Lost
    /// channels are skipped entirely — the scan never reads their tables.
    /// Warm rebuilds allocate nothing.
    pub fn rebuild(
        &mut self,
        plan: &ScanPlan,
        pixels: &[NeuroPixel],
        chains: &[ChannelChain],
        dwell: Seconds,
        t_lin: Seconds,
        at_calibration: bool,
    ) {
        self.chain.clear();
        self.chain
            .extend(chains.iter().map(|c| c.linear_coeffs(dwell)));
        let t0 = t_lin.value();
        if at_calibration && self.freshness == Freshness::Recalibrated {
            for lc in &mut self.channels {
                for (((off, &offset), &slope), &dt) in lc
                    .off
                    .iter_mut()
                    .zip(&lc.offset)
                    .zip(&lc.slope)
                    .zip(&plan.dt)
                {
                    *off = offset + slope * (dt - t0);
                }
            }
        } else {
            self.expand(plan, pixels, t_lin);
        }
        self.freshness = Freshness::Fresh { at_calibration };
    }

    /// Linearizes every pixel of every live channel around `t_lin`.
    fn expand(&mut self, plan: &ScanPlan, pixels: &[NeuroPixel], t_lin: Seconds) {
        self.channels
            .resize_with(plan.channels.len(), LinearChannel::default);
        let t0 = t_lin.value();
        for (&cp, lc) in plan.channels.iter().zip(self.channels.iter_mut()) {
            lc.offset.clear();
            lc.off.clear();
            lc.slope.clear();
            lc.gm.clear();
            lc.clips.clear();
            if cp.lost {
                continue;
            }
            for (entry, ((idx, _, _), &dt)) in plan.pixels(cp).zip(&plan.dt).enumerate() {
                let pixel = pixels.get(idx);
                let lin = pixel.map_or(PixelLinearization::DEAD, |p| p.linearize(t_lin));
                let offset = lin.offset.value();
                lc.offset.push(offset);
                lc.off.push(offset + lin.slope_a_per_s * (dt - t0));
                lc.slope.push(lin.slope_a_per_s);
                lc.gm.push(lin.gm.value());
                if let Some(l) = pixel.and_then(|p| p.faults().clip_limit) {
                    lc.clips.push((entry, -l.value().abs(), l.value().abs()));
                }
            }
        }
    }

    /// Compiles every channel's culture scatter table, fanning the
    /// channels out over `threads` workers, and returns the total pair
    /// count. An acquisition instead compiles each channel inside its first
    /// scan chunk ([`scan_chunk_linear`]); a warm serial compile allocates
    /// nothing either way.
    pub fn compile_culture(&mut self, plan: &ScanPlan, culture: &Culture, threads: usize) -> usize {
        self.channels
            .resize_with(plan.channels.len(), LinearChannel::default);
        let work = plan.channels.iter().zip(self.channels.iter_mut());
        fan_out(work, threads, |(&cp, lc)| {
            lc.compile_culture(plan, cp, culture)
        });
        self.channels.iter().map(|lc| lc.scatter.pair_count()).sum()
    }
}

impl LinearChannel {
    /// Compiles this channel's culture scatter table into its reused
    /// buffers. A lost channel's table is empty: the scan never reads it.
    fn compile_culture(&mut self, plan: &ScanPlan, channel: ChannelPlan, culture: &Culture) {
        let points = if channel.lost { 0 } else { usize::MAX };
        let positions = plan.pixels(channel).take(points).map(|(_, x, y)| (x, y));
        culture.compile_scatter(positions, &mut self.scatter);
    }
}

/// Rows whose settling recursions the linearized kernel runs side by
/// side. Each row restarts settling, so the rows' recursions are
/// independent chains the core can overlap.
const SIDE_BY_SIDE_ROWS: usize = 4;

/// Scans one channel's column stripe for a chunk of frames through the
/// linearized tables. Mirrors the reference `scan_channel` sample for
/// sample: same per-channel RNG stream, same draw count, same chain
/// arithmetic — only the pixel current is the first-order model instead
/// of the full solve. A lost channel writes zeros and returns without
/// touching tables, culture or RNG.
///
/// Each frame runs in passes over the channel's output block, every one
/// bit-identical to the per-sample loop it replaces (DESIGN.md §13):
/// the frame's noise draws in scan order; the culture scatter; the
/// pixel current and the chain's input, sample by sample; the settling
/// recursion, [`SIDE_BY_SIDE_ROWS`] rows at a time; the clipped pixels.
#[allow(clippy::too_many_arguments)]
fn scan_channel_linear(
    channel: ChannelPlan,
    dt: &[f64],
    lc: &mut LinearChannel,
    cc: ChainCoeffs,
    stream: &mut SmallRng,
    culture: &Culture,
    frame_starts: &[f64],
    frame_period: Seconds,
    rows: usize,
    cols_per_channel: usize,
    out: &mut [f64],
) {
    if channel.lost {
        out.fill(0.0);
        return;
    }
    let frame_len = rows * cols_per_channel;
    let neurons = culture.neurons();
    let noise = Ziggurat::new();
    // Draw from a local copy of the stream and store it back once: the
    // per-channel states sit side by side in one `Vec`, so writing them
    // in place on every draw would bounce a shared cache line between
    // the threads scanning neighbouring channels.
    let mut rng = stream.clone();
    lc.vbuf.clear();
    lc.vbuf.resize(frame_len, 0.0);
    for (frame_out, &fs) in out.chunks_mut(frame_len).zip(frame_starts) {
        // Noise: one draw per sample in scan order, the order the
        // per-sample loop drew them in, parked in the output block until
        // the chain input takes them up. Nothing else runs between draws,
        // and two draws a step halve the loop's own overhead.
        let mut pairs = frame_out.chunks_exact_mut(2);
        for pair in &mut pairs {
            if let [a, b] = pair {
                *a = noise.sample(&mut rng);
                *b = noise.sample(&mut rng);
            }
        }
        for z in pairs.into_remainder() {
            *z = noise.sample(&mut rng);
        }

        // Scatter phase: accumulate each active neuron's waveform into the
        // frame voltage buffer. The activity window is conservative — a
        // neuron skipped here contributes exactly zero to every sample of
        // this frame — and buckets are scattered in ascending neuron
        // order, which is the reference sum's per-sample pair order, so
        // the accumulated voltages are bitwise identical to the gather.
        // Every sample of the frame lies at or after its start, so one
        // spike window found from there serves every pair.
        let f_from = Seconds::new(fs);
        let f_to = f_from + frame_period;
        for (ni, n) in neurons.iter().enumerate() {
            let pad = n.activity_padding();
            if !n.active_in(f_from - pad, f_to + pad) {
                continue;
            }
            let spikes = n.spikes_from(f_from);
            for &(e, w) in lc.scatter.bucket(ni) {
                let (Some(slot), Some(&dt_e)) = (lc.vbuf.get_mut(e as usize), dt.get(e as usize))
                else {
                    continue;
                };
                *slot += (spikes.temporal_at(Seconds::new(fs + dt_e)) * w).value();
            }
        }

        // The full linearized pixel current i = off + slope·t_frame + gm·v,
        // then the chain input (i + σ·z)·gain: the exact expressions (and
        // FP association) the per-sample loop used. Taking each voltage
        // leaves the buffer zeroed for the next frame's scatter.
        let inputs = frame_out
            .iter_mut()
            .zip(lc.vbuf.iter_mut())
            .zip(&lc.off)
            .zip(&lc.slope)
            .zip(&lc.gm);
        for ((((y, v), &off_k), &slope_k), &gm_k) in inputs {
            let v = std::mem::take(v);
            let i = off_k + slope_k * fs + gm_k * v;
            *y = (i + cc.sigma * *y) * cc.gain;
        }

        settle(frame_out, cols_per_channel, cc);

        // Clamping against (−∞, +∞) is the identity, so only the clipped
        // pixels are touched.
        for &(k, lo, hi) in &lc.clips {
            if let Some(y) = frame_out.get_mut(k) {
                *y = y.clamp(lo, hi);
            }
        }
    }
    *stream = rng;
}

/// Runs the chain's two settling stages over one frame of chain inputs in
/// place, leaving the transimpedance outputs. Each row starts settled at
/// zero, exactly as the reference chain's `reset_settling`, so the rows
/// are independent: groups of [`SIDE_BY_SIDE_ROWS`] rows advance one slot
/// at a time, each lane doing exactly one row's scalar steps, and the
/// rows past the last full group run alone.
fn settle(frame: &mut [f64], cols_per_channel: usize, cc: ChainCoeffs) {
    let mut groups = frame.chunks_exact_mut(SIDE_BY_SIDE_ROWS * cols_per_channel);
    for group in &mut groups {
        let mut last = [0.0f64; SIDE_BY_SIDE_ROWS];
        for slot in 0..cols_per_channel {
            for (lane, last) in last.iter_mut().enumerate() {
                if let Some(y) = group.get_mut(lane * cols_per_channel + slot) {
                    *y = settle_step(last, *y, cc);
                }
            }
        }
    }
    for row in groups.into_remainder().chunks_exact_mut(cols_per_channel) {
        let mut last = 0.0f64;
        for y in row {
            *y = settle_step(&mut last, *y, cc);
        }
    }
}

/// One sample through the readout amplifier's and the output driver's
/// settling from the row's previous output `last`, then the
/// transimpedance.
#[inline(always)]
fn settle_step(last: &mut f64, target: f64, cc: ChainCoeffs) -> f64 {
    let after_a = target + (*last - target) * cc.alpha_a;
    let o = after_a + (*last - after_a) * cc.alpha_b;
    *last = o;
    o * cc.r
}

/// Scans a chunk of frames across all channels through the linearized
/// tables, with the reference `scan_chunk`'s claim-as-you-go channel
/// fan-out and its one write-back of each channel's RNG stream.
/// `stripe` layout and determinism contract are identical. With
/// `compile`, each channel first compiles its scatter table for `culture`,
/// on the thread that then scans it: an acquisition's first chunk does
/// this, so the compile costs no fan-out of its own.
#[allow(clippy::too_many_arguments)]
pub(super) fn scan_chunk_linear(
    plan: &ScanPlan,
    state: &mut LinearState,
    rngs: &mut [SmallRng],
    culture: &Culture,
    frame_starts: &[f64],
    frame_period: Seconds,
    stripe: &mut [f64],
    threads: usize,
    compile: bool,
) {
    let rows = plan.rows;
    let cpc = plan.cols_per_channel;
    let block = frame_starts.len() * rows * cpc;
    let LinearState {
        channels, chain, ..
    } = state;
    debug_assert_eq!(stripe.len(), channels.len() * block);

    let work = plan
        .channels
        .iter()
        .zip(channels.iter_mut())
        .zip(chain.iter().copied())
        .zip(rngs.iter_mut())
        .zip(stripe.chunks_mut(block));
    fan_out(work, threads, |((((&cp, lc), cc), rng), out)| {
        if compile {
            lc.compile_culture(plan, cp, culture);
        }
        scan_channel_linear(
            cp,
            &plan.dt,
            lc,
            cc,
            rng,
            culture,
            frame_starts,
            frame_period,
            rows,
            cpc,
            out,
        );
    });
}
