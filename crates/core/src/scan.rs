//! Shared readout-engine infrastructure used by both chip pipelines:
//! scan options, the work fan-out, and the allocation-free frame arena.
//!
//! Determinism contract: every noise draw in a scan comes from a stream
//! whose seed is a pure function of (die seed, stream identity), derived
//! by `bsa-rng` ([`bsa_rng::channel_stream_seed`],
//! [`bsa_rng::conversion_stream_seed`]). Workers
//! never share an RNG, so fanning the work out over any number of threads,
//! in whatever order they claim the work units, cannot change a single
//! sample — parallel and serial runs are bit-identical.

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
