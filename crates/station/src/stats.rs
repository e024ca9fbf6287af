//! Station-wide counters, shared across the accept loop and every
//! session thread, and the three types they are built from: [`Counter`],
//! [`Gauge`] and [`Flag`].
//!
//! This is the one module of the serving crates that holds an atomic or
//! names a memory `Ordering`. Their `clippy.toml` bans the std atomics,
//! `Mutex`, `RwLock` and `Condvar` everywhere else (DESIGN.md §9.2), so
//! every shared counter goes through these types, each of which fixes
//! one ordering for all its uses. A gauge is only raised by claiming a
//! [`Slot`] and only lowered by dropping it, so no exit path can forget
//! or repeat a release, and a [`Capped`] gauge has no unconditional
//! increment from which to build a check-then-act admission.

// The wrappers below are the sanctioned home of the std atomics.
#![allow(clippy::disallowed_types)]

use bsa_link::StatsSnapshot;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonic event count. `Relaxed`: counters are telemetry, not
/// synchronization.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The level a gauge and its slots share, with its high-water mark.
#[derive(Debug, Default)]
struct Level {
    now: AtomicU64,
    peak: AtomicU64,
}

/// A level that counts the live [`Slot`]s claimed from it and records
/// its peak. `K` fixes how a slot is claimed: an [`Open`] gauge
/// [`enter`](Gauge::enter)s unconditionally, a [`Capped`] one only
/// [`try_enter`](Gauge::try_enter)s below a ceiling. `Relaxed`, like
/// [`Counter`].
#[derive(Debug)]
pub(crate) struct Gauge<K> {
    level: Arc<Level>,
    kind: PhantomData<K>,
}

/// [`Gauge`] kind whose slots enter unconditionally: the outbound queue.
#[derive(Debug)]
pub(crate) enum Open {}

/// [`Gauge`] kind whose slots are claimed only below a ceiling: the
/// sessions.
#[derive(Debug)]
pub(crate) enum Capped {}

impl<K> Default for Gauge<K> {
    fn default() -> Self {
        Self {
            level: Arc::default(),
            kind: PhantomData,
        }
    }
}

impl<K> Gauge<K> {
    pub(crate) fn get(&self) -> u64 {
        self.level.now.load(Ordering::Relaxed)
    }

    pub(crate) fn peak(&self) -> u64 {
        self.level.peak.load(Ordering::Relaxed)
    }

    /// The slot for a level just raised to `now`.
    fn slot(&self, now: u64) -> Slot {
        self.level.peak.fetch_max(now, Ordering::Relaxed);
        Slot(Arc::clone(&self.level))
    }
}

impl Gauge<Open> {
    /// Raises the level by one and folds it into the peak.
    pub(crate) fn enter(&self) -> Slot {
        let now = self.level.now.fetch_add(1, Ordering::Relaxed) + 1;
        self.slot(now)
    }
}

impl Gauge<Capped> {
    /// Raises the level by one if it is below `max`, in one atomic step,
    /// so concurrent claims can never take it past `max`. `None` leaves
    /// the level untouched.
    pub(crate) fn try_enter(&self, max: u64) -> Option<Slot> {
        let claim = |now: u64| (now < max).then_some(now + 1);
        let before = (self.level.now)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim)
            .ok()?;
        Some(self.slot(before + 1))
    }
}

/// One unit of a [`Gauge`]'s level, released when dropped.
#[derive(Debug)]
#[must_use = "dropping a slot releases it at once"]
pub(crate) struct Slot(Arc<Level>);

impl Drop for Slot {
    fn drop(&mut self) {
        // Saturating, so a level never wraps below zero.
        let release = |now: u64| Some(now.saturating_sub(1));
        let _ = (self.0.now).fetch_update(Ordering::Relaxed, Ordering::Relaxed, release);
    }
}

/// A one-way switch, raised once (at shutdown) and read by every
/// thread. `SeqCst` on both sides.
#[derive(Debug, Default)]
pub(crate) struct Flag(AtomicBool);

impl Flag {
    pub(crate) fn raise(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_raised(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The station's counter block, behind an `Arc`.
#[derive(Debug, Default)]
pub(crate) struct StationStats {
    pub(crate) sessions_opened: Counter,
    /// One slot per admitted session, held by its `Admission`.
    pub(crate) sessions_active: Gauge<Capped>,
    pub(crate) chips_attached: Counter,
    pub(crate) requests: Counter,
    pub(crate) frames_served: Counter,
    pub(crate) frames_dropped: Counter,
    pub(crate) chunks_sent: Counter,
    pub(crate) bytes_sent: Counter,
    /// One slot per outbound frame, from just before it is offered to
    /// the queue until the writer takes it or the queue drops it.
    pub(crate) queue_depth: Gauge<Open>,
}

impl StationStats {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_opened: self.sessions_opened.get(),
            sessions_active: self.sessions_active.get(),
            chips_attached: self.chips_attached.get(),
            requests: self.requests.get(),
            frames_served: self.frames_served.get(),
            frames_dropped: self.frames_dropped.get(),
            chunks_sent: self.chunks_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            queue_peak: self.queue_depth.peak(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds() {
        let c = Counter::default();
        c.add(2);
        c.add(3);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn open_gauge_tracks_its_peak_and_releases_on_drop() {
        let gauge = Gauge::<Open>::default();
        let a = gauge.enter();
        let b = gauge.enter();
        drop(a);
        let c = gauge.enter();
        assert_eq!((gauge.get(), gauge.peak()), (2, 2));
        drop((b, c));
        assert_eq!((gauge.get(), gauge.peak()), (0, 2));
    }

    #[test]
    fn capped_gauge_refuses_at_its_ceiling_and_reopens_on_release() {
        let gauge = Gauge::<Capped>::default();
        let first = gauge.try_enter(2).unwrap();
        let _second = gauge.try_enter(2).unwrap();
        assert!(gauge.try_enter(2).is_none());
        assert_eq!(gauge.get(), 2);
        drop(first);
        assert!(gauge.try_enter(2).is_some());
        assert!(gauge.try_enter(0).is_none());
    }

    /// Only this module can build a slot without raising the level; such
    /// a slot floors the level at zero instead of wrapping it.
    #[test]
    fn a_release_below_zero_saturates() {
        let gauge = Gauge::<Open>::default();
        drop(Slot(Arc::clone(&gauge.level)));
        assert_eq!(gauge.get(), 0);
        let _slot = gauge.enter();
        assert_eq!(gauge.get(), 1);
    }

    #[test]
    fn flag_stays_raised() {
        let flag = Flag::default();
        assert!(!flag.is_raised());
        flag.raise();
        flag.raise();
        assert!(flag.is_raised());
    }
}
