//! The parallel, allocation-free scan engine behind [`NeuroChip::record`].
//!
//! The paper's readout hardware is parallel by construction: the 128
//! columns leave the chip over 16 independent output channels (Fig. 6),
//! each serving 8 columns through its own 8-to-1 multiplexer and gain
//! chain. This module exploits exactly that structure:
//!
//! * **Per-channel scan plans** ([`ScanPlan`]) precompute everything that
//!   is loop-invariant across frames — pixel indices, electrode positions,
//!   within-frame sample-time offsets, clip-limit fault lookups and
//!   lost-channel flags — so the per-sample inner loop touches no
//!   geometry or fault tables.
//! * **Deterministic per-channel RNG streams**
//!   ([`channel_stream_seed`](bsa_rng::channel_stream_seed)): each
//!   channel chain owns a `SmallRng` seeded from the die seed and its
//!   channel index, replacing the single shared frame RNG that serialized
//!   the old scan. Output is therefore identical for any thread count,
//!   including fully serial execution.
//! * **Channel fan-out** over `std::thread::scope`: each resolved worker
//!   thread, the caller included, claims the next unscanned channel until
//!   none is left, so a thread that gets less of a core scans fewer
//!   channels instead of delaying the chunk. A channel kernel draws from
//!   a local copy of its RNG stream and stores it back once: neighbouring
//!   channels' states share cache lines and may be scanned on different
//!   threads at once. A lost multiplexer channel short-circuits to a
//!   `fill(0.0)` without evaluating a single pixel or culture sample.
//! * **A reusable frame arena** ([`FrameArena`](crate::scan::FrameArena)):
//!   frame buffers are acquired from a pool and recycled from finished
//!   [`Recording`]s, so a steady-state record loop performs zero
//!   per-frame heap allocations.
//!
//! The chunk loop that drives these kernels is the acquisition cursor,
//! [`Acquisition`].
//!
//! [`NeuroChip::record`]: super::NeuroChip::record
//! [`Recording`]: super::Recording
//! [`Acquisition`]: super::Acquisition

use super::chain::ChannelChain;
use super::pixel::NeuroPixel;
use crate::array::{ArrayGeometry, PixelAddress};
use crate::scan::fan_out;
use bsa_faults::CompiledFaults;
use bsa_neuro::culture::Culture;
use bsa_rng::SmallRng;
use bsa_units::{Meter, Seconds, Volt};

/// Applies an injected gain-chain clipping limit to one output sample.
pub(super) fn clipped(limit: Option<Volt>, v: Volt) -> f64 {
    match limit {
        Some(l) => v.value().clamp(-l.value().abs(), l.value().abs()),
        None => v.value(),
    }
}

/// Everything the inner loop needs about one pixel, precomputed once.
#[derive(Debug, Clone, Copy)]
pub(super) struct PlanEntry {
    /// Row-major pixel index into the pixel array and the frame buffer.
    pub idx: usize,
    /// Electrode x position.
    pub x: Meter,
    /// Electrode y position.
    pub y: Meter,
    /// Sample-time offset from the frame start (rolling shutter + mux
    /// slot), in seconds.
    pub dt: f64,
    /// Injected gain-chain clip limit of this pixel, if any.
    pub clip: Option<Volt>,
}

/// One channel's precomputed scan order: its column stripe across all
/// rows, in (row, mux-slot) order.
#[derive(Debug, Clone)]
pub(super) struct ChannelPlan {
    /// `true` if the multiplexer channel is lost to an injected fault; the
    /// scan then writes zeros without evaluating pixels or the culture.
    pub lost: bool,
    /// `rows × columns_per_channel` entries in scan order.
    pub entries: Vec<PlanEntry>,
}

/// Precomputed per-channel scan plans for a die (rebuilt when faults are
/// injected).
#[derive(Debug, Clone)]
pub(super) struct ScanPlan {
    pub channels: Vec<ChannelPlan>,
    pub rows: usize,
    pub cols_per_channel: usize,
}

impl ScanPlan {
    /// Builds the plan from the die's geometry, timing, faults and pixels.
    pub fn build(
        geometry: ArrayGeometry,
        row_period: Seconds,
        pixel_dwell: Seconds,
        channels: usize,
        faults: &CompiledFaults,
        pixels: &[NeuroPixel],
    ) -> Self {
        let rows = geometry.rows();
        let cols = geometry.cols();
        let cpc = cols / channels;
        let plans = (0..channels)
            .map(|ch| {
                let mut entries = Vec::with_capacity(rows * cpc);
                for row in 0..rows {
                    for slot in 0..cpc {
                        let col = ch * cpc + slot;
                        let idx = row * cols + col;
                        let (x, y) = geometry.position_of(PixelAddress::new(row, col));
                        entries.push(PlanEntry {
                            idx,
                            x,
                            y,
                            dt: row as f64 * row_period.value() + slot as f64 * pixel_dwell.value(),
                            clip: pixels.get(idx).and_then(|p| p.faults().clip_limit),
                        });
                    }
                }
                ChannelPlan {
                    lost: faults.channel_lost(ch),
                    entries,
                }
            })
            .collect();
        Self {
            channels: plans,
            rows,
            cols_per_channel: cpc,
        }
    }
}

/// Scans one channel's column stripe for a chunk of frames.
///
/// `out` is channel-major: `frame_starts.len() × rows × cols_per_channel`
/// samples, frame-major then scan order. A lost channel writes zeros and
/// returns immediately — no pixel read, no culture evaluation, no RNG
/// draw (its stream stays aligned because the stream is per-channel and
/// never observed elsewhere).
#[allow(clippy::too_many_arguments)]
fn scan_channel(
    plan: &ChannelPlan,
    chain: &mut ChannelChain,
    stream: &mut SmallRng,
    pixels: &[NeuroPixel],
    culture: &Culture,
    dwell: Seconds,
    frame_starts: &[f64],
    rows: usize,
    cols_per_channel: usize,
    out: &mut [f64],
) {
    if plan.lost {
        out.fill(0.0);
        return;
    }
    let frame_len = rows * cols_per_channel;
    // A local copy of the stream, stored back once: see the fast path's
    // `scan_channel_linear` for why no draw writes the shared `Vec`.
    let mut rng = stream.clone();
    for (frame_out, &fs) in out.chunks_mut(frame_len).zip(frame_starts) {
        let row_outs = frame_out.chunks_exact_mut(cols_per_channel);
        for (row, row_out) in plan.entries.chunks_exact(cols_per_channel).zip(row_outs) {
            chain.reset_settling();
            for (e, o) in row.iter().zip(row_out) {
                let Some(pixel) = pixels.get(e.idx) else {
                    continue;
                };
                let t = Seconds::new(fs + e.dt);
                let v_cleft = culture.cleft_voltage_at(e.x, e.y, t);
                let i_diff = pixel.read(v_cleft, t);
                let v = chain.process_sample(i_diff, dwell, &mut rng);
                *o = clipped(e.clip, v);
            }
        }
    }
    *stream = rng;
}

/// Scans a chunk of frames across all channels, fanning the channels out
/// over `threads` workers. `stripe` must hold
/// `channels × frame_starts.len() × rows × cols_per_channel` samples and
/// is filled channel-major.
#[allow(clippy::too_many_arguments)]
pub(super) fn scan_chunk(
    plan: &ScanPlan,
    pixels: &[NeuroPixel],
    channels: &mut [ChannelChain],
    rngs: &mut [SmallRng],
    culture: &Culture,
    dwell: Seconds,
    frame_starts: &[f64],
    stripe: &mut [f64],
    threads: usize,
) {
    let rows = plan.rows;
    let cpc = plan.cols_per_channel;
    let block = frame_starts.len() * rows * cpc;
    debug_assert_eq!(stripe.len(), channels.len() * block);

    let work = plan
        .channels
        .iter()
        .zip(channels.iter_mut())
        .zip(rngs.iter_mut())
        .zip(stripe.chunks_mut(block));
    fan_out(work, threads, |(((cp, chain), rng), out)| {
        scan_channel(
            cp,
            chain,
            rng,
            pixels,
            culture,
            dwell,
            frame_starts,
            rows,
            cpc,
            out,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuro_chip::chain::ChainConfig;

    #[test]
    fn lost_channel_does_zero_pixel_and_culture_work() {
        // The plan's entries point at pixel indices that do not exist, so
        // a scan that walked them would leave the buffer's 42.0 in place.
        // A lost channel must instead short-circuit to a zero fill.
        let plan = ChannelPlan {
            lost: true,
            entries: vec![PlanEntry {
                idx: usize::MAX, // no such pixel
                x: Meter::ZERO,
                y: Meter::ZERO,
                dt: 0.0,
                clip: None,
            }],
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut chain = ChannelChain::sample(ChainConfig::default(), &mut rng);
        let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        let no_pixels: Vec<NeuroPixel> = Vec::new();
        let mut out = vec![42.0; 4];
        scan_channel(
            &plan,
            &mut chain,
            &mut rng,
            &no_pixels,
            &culture,
            Seconds::from_nano(488.0),
            &[0.0, 1.0],
            1,
            2,
            &mut out,
        );
        assert_eq!(out, vec![0.0; 4], "lost channel must read flat zero");
    }
}
