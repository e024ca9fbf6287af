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
//!   in structure-of-arrays buffers parallel to the scan plan entries.
//!   Tables are rebuilt at every recalibration boundary, so droop between
//!   expansion points stays second-order (DESIGN.md §13).
//! * **A neuron-major culture scatter table**: each pixel's `(neuron,
//!   footprint_weight)` pairs are loop-invariant in position, so once per
//!   acquisition [`Culture::compile_scatter`] lists, per neuron, the
//!   channel's entries it reaches, with their weights. That turns the
//!   per-sample gather over every neuron into a per-frame *scatter*: each
//!   neuron passing a conservative activity window accumulates its
//!   waveform into a frame voltage buffer, and the inner loop just reads
//!   one voltage per sample. The compile builds each channel's buckets in
//!   one pass, neurons ascending and entries ascending within a bucket,
//!   and skips whole the neurons that never spike or whose cull disc
//!   misses the channel's stripe. Each channel compiles on the thread that
//!   scans it in the acquisition's first chunk, so the compile shares that
//!   chunk's channel fan-out.
//!   Every prune is *bit-identical* to the reference full sum, because
//!   each skipped contribution is exactly `+0.0` there and buckets scatter
//!   in the reference's ascending-neuron order.
//! * **The chain recursion in registers**: gain, settling factors,
//!   transimpedance and noise scale are per-channel constants
//!   ([`ChannelChain::linear_coeffs`]); the inner loop is a branch-free
//!   multiply-add over contiguous `f64` slices sharing the reference
//!   path's exact arithmetic, its deterministic per-channel RNG streams
//!   and its [`Ziggurat`] noise draws. The only divergence from the
//!   reference output is the pixel-current linearization itself.
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

/// One channel's structure-of-arrays coefficient tables, parallel to its
/// [`ChannelPlan`] entries, plus its compiled culture scatter table and
/// per-frame scatter scratch. All buffers are reused across rebuilds.
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
    /// Clip lower bound (−∞ when the pixel has no clip fault).
    clip_lo: Vec<f64>,
    /// Clip upper bound (+∞ when the pixel has no clip fault).
    clip_hi: Vec<f64>,
    /// Within-frame sample-time offsets, copied from the plan entries.
    dt: Vec<f64>,
    /// Per neuron, the `(entry, weight)` pairs it feeds.
    scatter: ScatterTable,
    /// Per-frame cleft-voltage accumulator, one slot per plan entry
    /// (scratch, rewritten every frame).
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
                for (((off, &offset), &slope), &dt) in
                    lc.off.iter_mut().zip(&lc.offset).zip(&lc.slope).zip(&lc.dt)
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
        for (cp, lc) in plan.channels.iter().zip(self.channels.iter_mut()) {
            lc.offset.clear();
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
                let offset = lin.offset.value();
                lc.offset.push(offset);
                lc.off.push(offset + lin.slope_a_per_s * (e.dt - t0));
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
        fan_out(work, threads, |(cp, lc)| lc.compile_culture(cp, culture));
        self.channels.iter().map(|lc| lc.scatter.pair_count()).sum()
    }
}

impl LinearChannel {
    /// Compiles this channel's culture scatter table into its reused
    /// buffers. A lost channel's table is empty: the scan never reads it.
    fn compile_culture(&mut self, plan: &ChannelPlan, culture: &Culture) {
        let entries = if plan.lost {
            &[][..]
        } else {
            &plan.entries[..]
        };
        culture.compile_scatter(entries.iter().map(|e| (e.x, e.y)), &mut self.scatter);
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
    stream: &mut SmallRng,
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
    let noise = Ziggurat::new();
    // Draw from a local copy of the stream and store it back once: the
    // per-channel states sit side by side in one `Vec`, so writing them
    // in place on every draw would bounce a shared cache line between
    // the threads scanning neighbouring channels.
    let mut rng = stream.clone();
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
            for &(e, w) in lc.scatter.bucket(ni) {
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
                // Row boundary: settling restarts, exactly as the
                // reference chain's `reset_settling`.
                let mut last = 0.0f64;
                for (((y, &i), &lo_k), &hi_k) in row_out.iter_mut().zip(ib).zip(lo).zip(hi) {
                    let z = noise.sample(&mut rng);
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
                for (y, &i) in row_out.iter_mut().zip(ib) {
                    let z = noise.sample(&mut rng);
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
    *stream = rng;
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
    fan_out(work, threads, |((((cp, lc), cc), rng), out)| {
        if compile {
            lc.compile_culture(cp, culture);
        }
        scan_channel_linear(
            cp,
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
