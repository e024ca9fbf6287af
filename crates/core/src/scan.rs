//! Shared readout-engine infrastructure used by both chip pipelines:
//! scan options, deterministic RNG stream derivation, and the
//! allocation-free frame arena.
//!
//! Determinism contract: every noise draw in a scan comes from a stream
//! whose seed is a pure function of (die seed, stream identity). Workers
//! never share an RNG, so fanning the work out over any number of threads,
//! in whatever order they claim the work units, cannot change a single
//! sample — parallel and serial runs are bit-identical.

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
    /// coefficients and a precompiled culture scatter table, re-linearized
    /// at every recalibration boundary. The default.
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
    opts.threads
        .unwrap_or_else(host_threads)
        .clamp(1, units.max(1))
}

/// The host's available parallelism, read once per process: on Linux the
/// answer comes from the cgroup CPU quota and takes a few heap
/// allocations to read.
fn host_threads() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `work` on every item `items` yields, each thread claiming the
/// next unclaimed item until none is left. The calling thread claims too
/// and the others are scoped threads, so no more than `threads` OS
/// threads work at once; one thread is a plain serial loop, which
/// allocates nothing.
///
/// Claiming balances the load when the threads do not get equal shares of
/// the cores: a thread that starts late or is descheduled simply claims
/// fewer items, instead of holding back a fixed group the others wait on.
/// Items adjacent in `items` may therefore run on different threads at the
/// same time, so `work` should keep an item's hot mutable state (an RNG,
/// say) in a local and write it back once, not store to `items`' memory
/// per step: neighbouring items' state can share a cache line.
pub(crate) fn fan_out<I>(items: I, threads: usize, work: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        items.for_each(work);
        return;
    }
    let queue = std::sync::Mutex::new(items);
    // A poisoned lock means another worker panicked; the scope re-raises
    // that panic, so this worker just stops claiming.
    let claim = || queue.lock().ok()?.next();
    let run = || {
        while let Some(item) = claim() {
            work(item);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(run);
        }
        run();
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
    fn fan_out_runs_every_item_exactly_once() {
        for len in 0..=17 {
            for threads in 1..=5 {
                let mut runs = vec![0u32; len];
                fan_out(runs.iter_mut(), threads, |n| *n += 1);
                assert!(
                    runs.iter().all(|&n| n == 1),
                    "{len} items over {threads} threads ran {runs:?}"
                );
            }
        }
    }

    #[test]
    fn fan_out_uses_at_most_threads_workers_including_the_caller() {
        for threads in 1..=5 {
            let mut ids = [None; 16];
            fan_out(ids.iter_mut(), threads, |id| {
                // Hold each item briefly so every worker gets to claim.
                std::thread::sleep(std::time::Duration::from_millis(1));
                *id = Some(std::thread::current().id());
            });
            let mut distinct = Vec::new();
            for id in ids.iter().flatten() {
                if !distinct.contains(id) {
                    distinct.push(*id);
                }
            }
            assert!(
                distinct.len() <= threads,
                "{} workers for {threads} threads",
                distinct.len()
            );
            assert!(
                distinct.contains(&std::thread::current().id()),
                "the caller claims items too ({threads} threads)"
            );
        }
    }

    #[test]
    fn fan_out_free_thread_takes_up_the_slack() {
        // Item 0 holds its thread until every other item is done. Under a
        // fixed split, items 1-7 would sit behind it on the same thread
        // and the wait would time out; with claiming, the free thread
        // runs all fifteen.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let done = AtomicUsize::new(0);
        let timed_out = AtomicBool::new(true);
        fan_out(0..16usize, 2, |i| {
            if i > 0 {
                done.fetch_add(1, Ordering::Release);
                return;
            }
            // A deadline of about five seconds, counted in sleeps: this
            // crate reads no clock.
            for _ in 0..5_000 {
                if done.load(Ordering::Acquire) == 15 {
                    timed_out.store(false, Ordering::Relaxed);
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        assert!(
            !timed_out.load(Ordering::Relaxed),
            "items 1-15 did not finish while item 0 waited"
        );
    }

    #[test]
    fn thread_resolution_clamps_to_work_units() {
        assert_eq!(resolve_threads(16, ScanOptions::serial()), 1);
        assert_eq!(resolve_threads(4, ScanOptions::with_threads(64)), 4);
        let auto = resolve_threads(16, ScanOptions::default());
        assert!((1..=16).contains(&auto));
    }
}
