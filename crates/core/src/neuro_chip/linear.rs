//! The calibrated linearized fast path behind the default
//! [`ScanMode::Linearized`](crate::scan::ScanMode) readout.
//!
//! The reference scan spends its per-sample budget on a full EKV
//! `drain_current` solve (two `ln1pexp` transcendentals), an O(all
//! neurons) culture sum and a fresh Box–Muller state per sample. None of
//! that is necessary in steady state:
//!
//! * **Per-pixel transfer coefficients**: around the calibrated operating
//!   point, `ΔI(v_cleft, t) = off + slope·t_frame + gm·v_cleft` to first
//!   order ([`NeuroPixel::linearize`]), with `off`/`slope`/`gm` laid out
//!   in structure-of-arrays buffers parallel to the scan plan entries.
//!   Tables are rebuilt at every recalibration boundary, so droop between
//!   expansion points stays second-order (DESIGN.md §13).
//! * **Precompiled culture source lists**: each pixel's `(neuron,
//!   footprint_weight)` pairs are loop-invariant in position, so
//!   [`Culture::compile_sources`] resolves them once per acquisition —
//!   and their neuron-major transpose turns the per-sample gather into a
//!   per-frame *scatter*: each neuron passing a conservative activity
//!   window accumulates its waveform into a frame voltage buffer, and the
//!   inner loop just reads one voltage per sample. Both prunings are
//!   *bit-identical* to the reference full sum, because every skipped
//!   contribution is exactly `+0.0` there and buckets scatter in the
//!   reference's ascending-neuron order.
//! * **The chain recursion in registers**: gain, settling factors,
//!   transimpedance and noise scale are per-channel constants
//!   ([`ChannelChain::linear_coeffs`]); the inner loop is a branch-free
//!   multiply-add over contiguous `f64` slices sharing the reference
//!   path's exact arithmetic and its deterministic per-channel RNG
//!   streams. The only divergence from the reference output is the
//!   pixel-current linearization itself.
//!
//! [`NeuroPixel::linearize`]: super::pixel::NeuroPixel::linearize
//! [`ChannelChain::linear_coeffs`]: super::chain::ChannelChain
//! [`Culture::compile_sources`]: bsa_neuro::culture::Culture::compile_sources

use super::chain::{ChainCoeffs, ChannelChain};
use super::pixel::{NeuroPixel, PixelLinearization};
use super::scan::{ChannelPlan, ScanPlan};
use crate::scan::fan_out;
use bsa_circuit::noise::GaussianSampler;
use bsa_neuro::culture::{Culture, SourceTable};
use bsa_units::Seconds;
use rand::rngs::SmallRng;

/// One channel's structure-of-arrays coefficient tables, parallel to its
/// [`ChannelPlan`] entries, plus its compiled culture source lists and
/// per-frame scatter scratch. All buffers are reused across rebuilds.
#[derive(Debug, Clone, Default)]
pub(super) struct LinearChannel {
    /// Residual current folded to the frame-start reference:
    /// `offset + slope·(dt_k − t_lin)`, in amperes.
    off: Vec<f64>,
    /// Droop drift in A/s (multiplies the absolute frame start).
    slope: Vec<f64>,
    /// Conversion gain ∂ΔI/∂V_cleft in A/V.
    gm: Vec<f64>,
    /// Clip lower bound (−∞ when the pixel has no clip fault).
    clip_lo: Vec<f64>,
    /// Clip upper bound (+∞ when the pixel has no clip fault).
    clip_hi: Vec<f64>,
    /// Within-frame sample-time offsets, copied from the plan entries.
    dt: Vec<f64>,
    /// Per-entry `(neuron, weight)` source lists for the culture sum.
    sources: SourceTable,
    /// CSR transpose of `sources`: per neuron, the `(entry, weight)`
    /// pairs it feeds. `neuron_off.len()` is the neuron count plus one.
    neuron_off: Vec<u32>,
    /// Pair pool of the transpose, bucketed by neuron.
    neuron_pairs: Vec<(u32, f64)>,
    /// Per-frame cleft-voltage accumulator, one slot per plan entry
    /// (scratch, rewritten every frame).
    vbuf: Vec<f64>,
}

/// The fast path's complete per-die state: per-channel coefficient SoA,
/// per-channel chain constants, and the staleness flag that drives
/// re-linearization at recalibration boundaries.
#[derive(Debug, Clone, Default)]
pub(super) struct LinearState {
    channels: Vec<LinearChannel>,
    chain: Vec<ChainCoeffs>,
    fresh: bool,
}

impl LinearState {
    /// Whether the coefficient tables match the die's current calibration
    /// and fault state.
    pub fn is_fresh(&self) -> bool {
        self.fresh
    }

    /// Marks the tables stale. Called whenever calibration state or
    /// injected faults change.
    pub fn invalidate(&mut self) {
        self.fresh = false;
    }

    /// Rebuilds every coefficient table by linearizing each pixel around
    /// the operating point at `t_lin` (the calibration instant during a
    /// recalibrating record). Lost channels are skipped entirely — the
    /// scan never reads their tables. Warm rebuilds allocate nothing.
    pub fn rebuild(
        &mut self,
        plan: &ScanPlan,
        pixels: &[NeuroPixel],
        chains: &[ChannelChain],
        dwell: Seconds,
        t_lin: Seconds,
    ) {
        self.chain.clear();
        self.chain
            .extend(chains.iter().map(|c| c.linear_coeffs(dwell)));
        self.channels
            .resize_with(plan.channels.len(), LinearChannel::default);
        let t0 = t_lin.value();
        for (cp, lc) in plan.channels.iter().zip(self.channels.iter_mut()) {
            lc.off.clear();
            lc.slope.clear();
            lc.gm.clear();
            lc.clip_lo.clear();
            lc.clip_hi.clear();
            lc.dt.clear();
            if cp.lost {
                continue;
            }
            for e in &cp.entries {
                let lin = pixels
                    .get(e.idx)
                    .map_or(PixelLinearization::DEAD, |p| p.linearize(t_lin));
                lc.off
                    .push(lin.offset.value() + lin.slope_a_per_s * (e.dt - t0));
                lc.slope.push(lin.slope_a_per_s);
                lc.gm.push(lin.gm.value());
                let (lo, hi) = match e.clip {
                    Some(l) => (-l.value().abs(), l.value().abs()),
                    None => (f64::NEG_INFINITY, f64::INFINITY),
                };
                lc.clip_lo.push(lo);
                lc.clip_hi.push(hi);
                lc.dt.push(e.dt);
            }
        }
        self.fresh = true;
    }

    /// Compiles per-entry culture source lists for every live channel into
    /// the pooled tables, returning the total pair count. Runs once per
    /// acquisition (the culture is a per-acquisition input, not die state).
    ///
    /// Alongside the per-entry (CSR) table this builds its transpose —
    /// per neuron, the entries it feeds — which is what the scan actually
    /// consumes: each frame scatters only the *active* neurons' waveforms
    /// into a voltage buffer, so quiet neurons cost nothing per sample.
    pub fn compile_culture(&mut self, plan: &ScanPlan, culture: &Culture) -> usize {
        self.channels
            .resize_with(plan.channels.len(), LinearChannel::default);
        let neuron_count = culture.neurons().len();
        let mut pairs = 0usize;
        for (cp, lc) in plan.channels.iter().zip(self.channels.iter_mut()) {
            if cp.lost {
                culture.compile_sources(std::iter::empty(), &mut lc.sources);
            } else {
                culture.compile_sources(cp.entries.iter().map(|e| (e.x, e.y)), &mut lc.sources);
            }
            pairs += lc.sources.pair_count();
            transpose_sources(
                &lc.sources,
                neuron_count,
                &mut lc.neuron_off,
                &mut lc.neuron_pairs,
            );
        }
        pairs
    }
}

/// Builds the neuron-major transpose of a per-entry source table: bucket
/// counts, prefix sum, then a fill pass with per-neuron cursors. Entry
/// order within each bucket is ascending, matching the ascending-neuron
/// order inside each entry's source list, so scattering buckets in neuron
/// order reproduces the reference per-sample sum bit for bit.
fn transpose_sources(
    sources: &SourceTable,
    neuron_count: usize,
    neuron_off: &mut Vec<u32>,
    neuron_pairs: &mut Vec<(u32, f64)>,
) {
    neuron_off.clear();
    neuron_off.resize(neuron_count + 1, 0);
    for point in 0..sources.points() {
        for pair in sources.sources(point) {
            if let Some(count) = neuron_off.get_mut(pair.neuron as usize + 1) {
                *count += 1;
            }
        }
    }
    let mut running = 0u32;
    for off in neuron_off.iter_mut() {
        running += *off;
        *off = running;
    }
    neuron_pairs.clear();
    neuron_pairs.resize(running as usize, (0, 0.0));
    let mut cursor: Vec<u32> = neuron_off.clone();
    for point in 0..sources.points() {
        for pair in sources.sources(point) {
            let Some(c) = cursor.get_mut(pair.neuron as usize) else {
                continue;
            };
            if let Some(slot) = neuron_pairs.get_mut(*c as usize) {
                *slot = (point as u32, pair.weight);
                *c += 1;
            }
        }
    }
}

/// Scans one channel's column stripe for a chunk of frames through the
/// linearized tables. Mirrors the reference `scan_channel` sample for
/// sample: same per-channel RNG stream, same draw count, same chain
/// arithmetic — only the pixel current is the first-order model instead
/// of the full solve. A lost channel writes zeros and returns without
/// touching tables, culture or RNG.
#[allow(clippy::too_many_arguments)]
fn scan_channel_linear(
    plan: &ChannelPlan,
    lc: &mut LinearChannel,
    cc: ChainCoeffs,
    rng: &mut SmallRng,
    culture: &Culture,
    frame_starts: &[f64],
    frame_period: Seconds,
    rows: usize,
    cols_per_channel: usize,
    out: &mut [f64],
) {
    if plan.lost {
        out.fill(0.0);
        return;
    }
    let frame_len = rows * cols_per_channel;
    let neurons = culture.neurons();
    lc.vbuf.clear();
    lc.vbuf.resize(frame_len, 0.0);
    // Channels whose stripe contains no clipped pixel skip the clamp
    // entirely: clamping against (−∞, +∞) is the identity, so the output
    // is bitwise unchanged — only the two bound loads and compares go.
    let any_clip = lc
        .clip_lo
        .iter()
        .zip(lc.clip_hi.iter())
        .any(|(lo, hi)| lo.is_finite() || hi.is_finite());
    for (frame_out, &fs) in out.chunks_mut(frame_len).zip(frame_starts) {
        // Scatter phase: accumulate each active neuron's waveform into the
        // frame voltage buffer. The activity window is conservative — a
        // neuron skipped here contributes exactly zero to every sample of
        // this frame — and buckets are scattered in ascending neuron
        // order, which is the reference sum's per-sample pair order, so
        // the accumulated voltages are bitwise identical to the gather.
        let f_from = Seconds::new(fs);
        let f_to = f_from + frame_period;
        lc.vbuf.fill(0.0);
        for (ni, n) in neurons.iter().enumerate() {
            let pad = n.activity_padding();
            if !n.active_in(f_from - pad, f_to + pad) {
                continue;
            }
            let b_lo = lc.neuron_off.get(ni).map_or(0, |&o| o as usize);
            let b_hi = lc.neuron_off.get(ni + 1).map_or(b_lo, |&o| o as usize);
            for &(e, w) in lc.neuron_pairs.get(b_lo..b_hi).unwrap_or(&[]) {
                let (Some(slot), Some(&dt_e)) =
                    (lc.vbuf.get_mut(e as usize), lc.dt.get(e as usize))
                else {
                    continue;
                };
                *slot += (n.temporal_at(Seconds::new(fs + dt_e)) * w).value();
            }
        }

        // Fold the full linearized pixel current into the buffer in place:
        // i = off + slope·t_frame + gm·v, the exact expression (and FP
        // association) the gather loop used per sample. The inner loop
        // then streams one current per sample.
        for (((ib, &off_k), &slope_k), &gm_k) in lc
            .vbuf
            .iter_mut()
            .zip(lc.off.iter())
            .zip(lc.slope.iter())
            .zip(lc.gm.iter())
        {
            *ib = off_k + slope_k * fs + gm_k * *ib;
        }

        if any_clip {
            let row_iter = frame_out
                .chunks_exact_mut(cols_per_channel)
                .zip(lc.vbuf.chunks_exact(cols_per_channel))
                .zip(lc.clip_lo.chunks_exact(cols_per_channel))
                .zip(lc.clip_hi.chunks_exact(cols_per_channel));
            for (((row_out, ib), lo), hi) in row_iter {
                // Row boundary: settling and noise-pair state restart,
                // exactly as the reference chain's `reset_settling`.
                let mut last = 0.0f64;
                let mut noise = GaussianSampler::new();
                for (((y, &i), &lo_k), &hi_k) in row_out.iter_mut().zip(ib).zip(lo).zip(hi) {
                    let z = noise.sample(rng);
                    let noisy = i + cc.sigma * z;
                    let target = noisy * cc.gain;
                    let after_a = target + (last - target) * cc.alpha_a;
                    let o = after_a + (last - after_a) * cc.alpha_b;
                    last = o;
                    *y = (o * cc.r).clamp(lo_k, hi_k);
                }
            }
        } else {
            let row_iter = frame_out
                .chunks_exact_mut(cols_per_channel)
                .zip(lc.vbuf.chunks_exact(cols_per_channel));
            for (row_out, ib) in row_iter {
                let mut last = 0.0f64;
                let mut noise = GaussianSampler::new();
                for (y, &i) in row_out.iter_mut().zip(ib) {
                    let z = noise.sample(rng);
                    let noisy = i + cc.sigma * z;
                    let target = noisy * cc.gain;
                    let after_a = target + (last - target) * cc.alpha_a;
                    let o = after_a + (last - after_a) * cc.alpha_b;
                    last = o;
                    *y = o * cc.r;
                }
            }
        }
    }
}

/// Scans a chunk of frames across all channels through the linearized
/// tables, with the same channel fan-out as the reference `scan_chunk`.
/// `stripe` layout and determinism contract are identical.
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
) {
    let rows = plan.rows;
    let cpc = plan.cols_per_channel;
    let block = frame_starts.len() * rows * cpc;
    let LinearState {
        channels, chain, ..
    } = state;
    debug_assert_eq!(stripe.len(), channels.len() * block);

    let mut work: Vec<(
        &ChannelPlan,
        &mut LinearChannel,
        ChainCoeffs,
        &mut SmallRng,
        &mut [f64],
    )> = plan
        .channels
        .iter()
        .zip(channels.iter_mut())
        .zip(chain.iter().copied())
        .zip(rngs.iter_mut())
        .zip(stripe.chunks_mut(block))
        .map(|((((cp, lc), cc), rng), out)| (cp, lc, cc, rng, out))
        .collect();
    fan_out(&mut work, threads, |(cp, lc, cc, rng, out)| {
        scan_channel_linear(
            cp,
            lc,
            *cc,
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
