//! Shared readout-engine infrastructure used by both chip pipelines:
//! scan options, deterministic RNG stream derivation, and the
//! allocation-free frame arena.
//!
//! Determinism contract: every noise draw in a scan comes from a stream
//! whose seed is a pure function of (die seed, stream identity). Workers
//! never share an RNG, so fanning the work out over any number of threads
//! cannot change a single sample — parallel and serial runs are
//! bit-identical.

/// Salt folded into the die seed for the neuro chip's frame-noise stream
/// family, chosen so channel streams cannot collide with the other
/// per-die derived seeds (`seed ^ 0x6A1` for gain maps, `seed ^ 0xBEEF`
/// for offset maps).
const FRAME_STREAM_SALT: u64 = 0xF0F0;

/// Salt for the DNA chip's conversion-noise stream family.
const CONVERSION_STREAM_SALT: u64 = 0xD4A;

/// SplitMix64-style finalizer over a die seed, a family salt and a
/// stream index: decorrelates adjacent indices so per-stream `SmallRng`s
/// start in unrelated regions of the seed space.
pub fn stream_seed(die_seed: u64, salt: u64, index: u64) -> u64 {
    let mut z = die_seed ^ salt ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of one neuro-chip output channel's frame-noise RNG stream.
pub fn channel_stream_seed(die_seed: u64, channel: usize) -> u64 {
    stream_seed(die_seed, FRAME_STREAM_SALT, channel as u64)
}

/// Seed of one DNA-chip pixel's conversion-noise RNG stream for one
/// conversion epoch (each array-wide conversion advances the epoch, so
/// repeated conversions draw fresh noise yet stay reproducible).
pub fn conversion_stream_seed(die_seed: u64, epoch: u64, pixel: usize) -> u64 {
    stream_seed(
        stream_seed(die_seed, CONVERSION_STREAM_SALT, epoch),
        CONVERSION_STREAM_SALT,
        pixel as u64,
    )
}

/// Which evaluation path a neuro scan uses for the per-sample pixel
/// current. Either way the output is bit-identical across thread counts;
/// the two modes differ from each other only by the documented
/// linearization tolerance (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Calibrated linearized fast path: per-pixel small-signal transfer
    /// coefficients and precompiled culture source lists, re-linearized at
    /// every recalibration boundary. The default.
    #[default]
    Linearized,
    /// Full per-sample EKV circuit solve — the bit-exact reference path.
    Reference,
}

/// Options controlling how a readout is fanned out over worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanOptions {
    /// Worker threads. `None` picks the runtime's available parallelism
    /// (capped at the work-unit count); `Some(1)` forces the serial path.
    /// Output is identical for every setting — per-stream RNGs make the
    /// scan scheduling-independent.
    pub threads: Option<usize>,
    /// Evaluation path for neuro scans (DNA conversions ignore this).
    pub mode: ScanMode,
}

impl ScanOptions {
    /// Options forcing fully serial execution.
    pub fn serial() -> Self {
        Self {
            threads: Some(1),
            mode: ScanMode::default(),
        }
    }

    /// Options requesting a specific worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
            mode: ScanMode::default(),
        }
    }

    /// Options selecting the full-solve reference path (auto threads).
    pub fn reference() -> Self {
        Self {
            threads: None,
            mode: ScanMode::Reference,
        }
    }

    /// Returns these options with the given evaluation mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ScanMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Resolves the effective worker count for `units` parallel work units:
/// the requested count, or the host's available parallelism, capped at
/// the unit count.
pub(crate) fn resolve_threads(units: usize, opts: ScanOptions) -> usize {
    let requested = opts.threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    requested.clamp(1, units.max(1))
}

/// Runs `work` on every item, split into `threads` balanced contiguous
/// groups (16 items over 3 threads run as 6/5/5). The first group runs on
/// the calling thread and the others on scoped threads, so no more than
/// `threads` OS threads work at once; one group is a plain serial loop.
pub(crate) fn fan_out<T: Send>(items: &mut [T], threads: usize, work: impl Fn(&mut T) + Sync) {
    let groups = threads.clamp(1, items.len().max(1));
    if groups == 1 {
        items.iter_mut().for_each(work);
        return;
    }
    let (base, extra) = (items.len() / groups, items.len() % groups);
    let work = &work;
    std::thread::scope(|s| {
        let (first, mut rest) = items.split_at_mut(base + usize::from(extra > 0));
        for g in 1..groups {
            let (group, tail) =
                std::mem::take(&mut rest).split_at_mut(base + usize::from(g < extra));
            s.spawn(move || group.iter_mut().for_each(work));
            rest = tail;
        }
        first.iter_mut().for_each(work);
    });
}

/// Statistics of a [`FrameArena`]'s buffer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Frame buffers allocated fresh from the heap.
    pub allocations: u64,
    /// Frame buffers served from the recycle pool.
    pub reuses: u64,
}

/// A pool of frame buffers: recordings recycled into the arena donate
/// their sample buffers back, so a steady-state record loop allocates no
/// per-frame memory.
#[derive(Debug, Clone, Default)]
pub struct FrameArena {
    free: Vec<Vec<f64>>,
    /// Channel-major scratch for in-flight scan chunks, reused across
    /// chunks and acquisitions.
    pub(crate) stripe: Vec<f64>,
    stats: ArenaStats,
}

impl FrameArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires an empty buffer with room for `len` samples, reusing a
    /// pooled buffer when one is available.
    pub(crate) fn acquire(&mut self, len: usize) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                self.stats.reuses += 1;
                buf.clear();
                buf.reserve(len);
                buf
            }
            None => {
                self.stats.allocations += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Returns a sample buffer to the pool.
    pub(crate) fn release(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }

    /// Number of pooled buffers currently available.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Pool statistics since the arena was created.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_streams_do_not_collide_on_adjacent_indices() {
        let die = 0x0EE5_1281;
        let seeds: Vec<u64> = (0..16).map(|ch| channel_stream_seed(die, ch)).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "channels {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn conversion_streams_differ_across_epochs_and_pixels() {
        let die = 0xD9A_C819;
        let mut seen = std::collections::BTreeSet::new();
        for epoch in 0..8u64 {
            for pixel in 0..128usize {
                assert!(
                    seen.insert(conversion_stream_seed(die, epoch, pixel)),
                    "epoch {epoch} pixel {pixel} aliases an earlier stream"
                );
            }
        }
    }

    #[test]
    fn arena_reuses_recycled_buffers() {
        let mut arena = FrameArena::new();
        let a = arena.acquire(64);
        assert_eq!(arena.stats().allocations, 1);
        arena.release(a);
        let b = arena.acquire(64);
        assert_eq!(arena.stats().reuses, 1);
        assert_eq!(arena.stats().allocations, 1);
        assert!(b.is_empty(), "reused buffers come back empty");
        assert!(b.capacity() >= 64, "reused buffers keep their capacity");
    }

    #[test]
    fn fan_out_runs_balanced_contiguous_groups() {
        let mut ids = vec![None; 16];
        fan_out(&mut ids, 3, |id| *id = Some(std::thread::current().id()));
        // One group per thread: consecutive runs of one thread id.
        let groups: Vec<usize> = ids.chunk_by(|a, b| a == b).map(<[_]>::len).collect();
        assert_eq!(groups, vec![6, 5, 5]);
        let caller = Some(std::thread::current().id());
        assert!(ids[..6].iter().all(|&id| id == caller));
        assert!(ids[6..].iter().all(|&id| id != caller));
    }

    #[test]
    fn thread_resolution_clamps_to_work_units() {
        assert_eq!(resolve_threads(16, ScanOptions::serial()), 1);
        assert_eq!(resolve_threads(4, ScanOptions::with_threads(64)), 4);
        let auto = resolve_threads(16, ScanOptions::default());
        assert!((1..=16).contains(&auto));
    }
}
