//! Station-wide counters, shared across the accept loop and every
//! session thread as plain atomics (no locks on the hot streaming path).

use bsa_link::StatsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counter block behind an `Arc`. All updates are `Relaxed`: the
/// counters are monotonic telemetry, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct StationStats {
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_active: AtomicU64,
    pub(crate) chips_attached: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) frames_served: AtomicU64,
    pub(crate) frames_dropped: AtomicU64,
    pub(crate) chunks_sent: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) queue_depth: AtomicU64,
    pub(crate) queue_peak: AtomicU64,
}

impl StationStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements a gauge, saturating at zero.
    pub(crate) fn sub(counter: &AtomicU64, n: u64) {
        let mut cur = counter.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the outbound-queue depth gauge and folds it into the peak.
    pub(crate) fn queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn queue_exit(&self) {
        Self::sub(&self.queue_depth, 1);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            chips_attached: self.chips_attached.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            frames_served: self.frames_served.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            chunks_sent: self.chunks_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_gauge_tracks_peak() {
        let stats = StationStats::default();
        stats.queue_enter();
        stats.queue_enter();
        stats.queue_exit();
        stats.queue_enter();
        let snap = stats.snapshot();
        assert_eq!(snap.queue_peak, 2);
        stats.queue_exit();
        stats.queue_exit();
        stats.queue_exit(); // extra exit saturates at zero
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 0);
    }
}
