//! The parallel, allocation-free scan engine behind [`NeuroChip::record`].
//!
//! The paper's readout hardware is parallel by construction: the 128
//! columns leave the chip over 16 independent output channels (Fig. 6),
//! each serving 8 columns through its own 8-to-1 multiplexer and gain
//! chain. This module exploits exactly that structure:
//!
//! * **A scan plan** ([`ScanPlan`]) holds what is loop-invariant across
//!   frames and not already in the geometry: the within-frame sample-time
//!   offsets, one table shared by every channel, and the lost-channel
//!   flags. Pixel indices and electrode positions follow from the
//!   geometry, and a clip limit stays with the pixel it was injected
//!   into.
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

/// One multiplexer channel of a [`ScanPlan`].
#[derive(Debug, Clone, Copy)]
pub(super) struct ChannelPlan {
    /// The channel's first column; it serves `cols_per_channel` columns
    /// from there.
    pub first_col: usize,
    /// `true` if the multiplexer channel is lost to an injected fault; the
    /// scan then writes zeros without evaluating pixels or the culture.
    pub lost: bool,
}

/// Precomputed per-channel scan order for a die (rebuilt when faults are
/// injected). Each channel scans its column stripe across all rows in
/// (row, mux-slot) order; a pixel's index and position follow from the
/// geometry, and its sample-time offset is the same on every channel, so
/// the plan keeps one shared offset table and a lost flag per channel.
/// Clip limits stay with the pixels that have one: the reference scan
/// reads them there and the linearized tables list them sparsely.
#[derive(Debug, Clone)]
pub(super) struct ScanPlan {
    pub channels: Vec<ChannelPlan>,
    pub rows: usize,
    pub cols_per_channel: usize,
    /// Sample-time offset from the frame start of each (row, slot), in
    /// scan order (rolling shutter + mux slot), in seconds.
    pub dt: Vec<f64>,
    geometry: ArrayGeometry,
}

impl ScanPlan {
    /// Builds the plan from the die's geometry, timing and faults.
    pub fn build(
        geometry: ArrayGeometry,
        row_period: Seconds,
        pixel_dwell: Seconds,
        channels: usize,
        faults: &CompiledFaults,
    ) -> Self {
        let rows = geometry.rows();
        let cpc = geometry.cols() / channels;
        let dt = (0..rows)
            .flat_map(|row| {
                (0..cpc).map(move |slot| {
                    row as f64 * row_period.value() + slot as f64 * pixel_dwell.value()
                })
            })
            .collect();
        Self {
            channels: (0..channels)
                .map(|ch| ChannelPlan {
                    first_col: ch * cpc,
                    lost: faults.channel_lost(ch),
                })
                .collect(),
            rows,
            cols_per_channel: cpc,
            dt,
            geometry,
        }
    }

    /// The pixels `channel` scans, in scan order: each one's row-major
    /// index into the pixel array and its electrode position.
    pub fn pixels(
        &self,
        channel: ChannelPlan,
    ) -> impl Iterator<Item = (usize, Meter, Meter)> + Clone + '_ {
        let cols = self.geometry.cols();
        (0..self.rows).flat_map(move |row| {
            (channel.first_col..channel.first_col + self.cols_per_channel).map(move |col| {
                let (x, y) = self.geometry.position_of(PixelAddress::new(row, col));
                (row * cols + col, x, y)
            })
        })
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
    plan: &ScanPlan,
    channel: ChannelPlan,
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
    if channel.lost {
        out.fill(0.0);
        return;
    }
    let frame_len = rows * cols_per_channel;
    // A local copy of the stream, stored back once: see the fast path's
    // `scan_channel_linear` for why no draw writes the shared `Vec`.
    let mut rng = stream.clone();
    for (frame_out, &fs) in out.chunks_mut(frame_len).zip(frame_starts) {
        let scan = plan.pixels(channel).zip(&plan.dt).zip(frame_out);
        for (k, (((idx, x, y), &dt), o)) in scan.enumerate() {
            if k % cols_per_channel == 0 {
                chain.reset_settling();
            }
            let Some(pixel) = pixels.get(idx) else {
                continue;
            };
            let t = Seconds::new(fs + dt);
            let v_cleft = culture.cleft_voltage_at(x, y, t);
            let i_diff = pixel.read(v_cleft, t);
            let v = chain.process_sample(i_diff, dwell, &mut rng);
            *o = clipped(pixel.faults().clip_limit, v);
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
    fan_out(work, threads, |(((&cp, chain), rng), out)| {
        scan_channel(
            plan,
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
    use bsa_faults::InjectionPlan;

    #[test]
    fn lost_channel_does_zero_pixel_and_culture_work() {
        // The die has no pixels, so a scan that walked the plan would
        // leave the buffer's 42.0 in place. A lost channel must instead
        // short-circuit to a zero fill.
        let geometry = ArrayGeometry::new(1, 2, Meter::from_micro(7.8)).unwrap();
        let faults = InjectionPlan::new(0).lose_channel(0).compile(1, 2);
        let dwell = Seconds::from_nano(488.0);
        let plan = ScanPlan::build(geometry, dwell * 2.0, dwell, 1, &faults);
        let channel = plan.channels[0];
        assert!(channel.lost);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut chain = ChannelChain::sample(ChainConfig::default(), &mut rng);
        let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        let no_pixels: Vec<NeuroPixel> = Vec::new();
        let mut out = vec![42.0; 4];
        scan_channel(
            &plan,
            channel,
            &mut chain,
            &mut rng,
            &no_pixels,
            &culture,
            dwell,
            &[0.0, 1.0],
            1,
            2,
            &mut out,
        );
        assert_eq!(out, vec![0.0; 4], "lost channel must read flat zero");
    }
}
