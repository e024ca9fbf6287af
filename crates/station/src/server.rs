//! The TCP station: accept loop, session spawning, lifecycle.
//!
//! Thread-per-connection over `std::net`: the accept loop hands every
//! connection to a session thread (the `session` module), which itself
//! splits into a reader (request execution) and a writer (bounded
//! outbound queue). Wall-clock time is allowed here — session read
//! timeouts are real timeouts — but never inside the chip crates, whose
//! outputs must stay bit-reproducible (the determinism boundary
//! documented in DESIGN.md §10).

use crate::session::{run_session, SessionLimits};
use crate::session_table::SessionTable;
use crate::stats::{Flag, Slot, StationStats};
use bsa_link::{write_message, ErrorCode, Message, StatsSnapshot};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Station tuning knobs.
#[derive(Debug, Clone)]
pub struct StationConfig {
    /// Listen address. Use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Outbound queue capacity per session, in messages. Backpressure
    /// drops stream chunks beyond this depth.
    pub queue_depth: usize,
    /// Idle-session read timeout; `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Maximum concurrent sessions; further connections are refused with
    /// an `Overloaded` error reply.
    pub max_sessions: u64,
    /// Directory for persisted recordings (`bsa-store` segment files).
    /// `None` disables record/replay: the requests fail with a
    /// `StoreError` reply instead of touching the filesystem.
    pub store_root: Option<PathBuf>,
}

impl Default for StationConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            queue_depth: 64,
            read_timeout: Some(Duration::from_secs(30)),
            max_sessions: 64,
            store_root: None,
        }
    }
}

/// The running station. Binds with [`Station::bind`].
#[derive(Debug)]
pub struct Station;

impl Station {
    /// Binds the listener and starts the accept loop on a background
    /// thread. Returns once the socket is listening, so `handle.addr()`
    /// is immediately connectable.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`EADDRINUSE`, permission, …).
    pub fn bind(config: StationConfig) -> io::Result<StationHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(StationStats::default());
        let shutdown = Arc::new(Flag::default());
        let sessions = Arc::new(Sockets::default());
        let limits = SessionLimits {
            queue_depth: config.queue_depth,
            read_timeout: config.read_timeout,
            store_root: config.store_root,
        };
        let accept_stats = Arc::clone(&stats);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_sessions = Arc::clone(&sessions);
        let max_sessions = config.max_sessions;
        let accept = thread::spawn(move || {
            accept_loop(
                &listener,
                &accept_stats,
                &accept_shutdown,
                &accept_sessions,
                &limits,
                max_sessions,
            );
        });
        Ok(StationHandle {
            addr,
            stats,
            shutdown,
            sessions,
            accept: Some(accept),
        })
    }
}

/// Read halves of every live session socket, keyed by a monotonically
/// increasing id. The accept loop registers a clone before spawning the
/// session thread; the session's [`Admission`] deregisters it on exit
/// (alongside its `sessions_active` slot), and shutdown drains the table
/// to unblock in-flight readers.
type Sockets = SessionTable<TcpStream>;

/// A session's claim on the station: its `sessions_active` slot and its
/// socket-table entry. Dropping it frees both, however the session
/// thread ends — a panicking session included.
#[derive(Debug)]
struct Admission {
    _slot: Slot,
    sessions: Arc<Sockets>,
    id: u64,
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.sessions.remove(self.id);
    }
}

/// Claims a `sessions_active` slot for session `id` if fewer than `max`
/// are held; `None` when the station is full.
fn try_open_session(
    stats: &StationStats,
    sessions: &Arc<Sockets>,
    max: u64,
    id: u64,
) -> Option<Admission> {
    let slot = stats.sessions_active.try_enter(max)?;
    stats.sessions_opened.add(1);
    Some(Admission {
        _slot: slot,
        sessions: Arc::clone(sessions),
        id,
    })
}

fn accept_loop(
    listener: &TcpListener,
    stats: &Arc<StationStats>,
    shutdown: &Arc<Flag>,
    sessions: &Arc<Sockets>,
    limits: &SessionLimits,
    max_sessions: u64,
) {
    let mut next_session: u64 = 0;
    for stream in listener.incoming() {
        if shutdown.is_raised() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let session_id = next_session;
        let Some(admission) = try_open_session(stats, sessions, max_sessions, session_id) else {
            refuse(stream);
            continue;
        };
        next_session = next_session.wrapping_add(1);
        if let Ok(clone) = stream.try_clone() {
            sessions.insert(session_id, clone);
        }
        let session_stats = Arc::clone(stats);
        let session_limits = limits.clone();
        let session_shutdown = Arc::clone(shutdown);
        // Detached: the session ends when its client disconnects or its
        // read timeout reaps it; dropping the admission frees both the
        // slot and the socket-table entry. Shutdown closes the registered
        // read halves, so live sessions wind down too.
        thread::spawn(move || {
            let _admission = admission;
            run_session(stream, session_stats, &session_limits, &session_shutdown);
        });
    }
}

/// Tells an over-capacity client why it is being dropped (best-effort).
fn refuse(mut stream: TcpStream) {
    let _ = write_message(
        &mut stream,
        &Message::ErrorReply {
            code: ErrorCode::Overloaded,
            message: "station at max sessions".into(),
        },
    );
}

/// Owner handle for a running station. Dropping it shuts the accept
/// loop down and closes the read half of every live session socket:
/// an in-flight request (including a stream and its `StreamEnd`) still
/// completes, then the session observes EOF and winds down.
#[derive(Debug)]
pub struct StationHandle {
    addr: SocketAddr,
    stats: Arc<StationStats>,
    shutdown: Arc<Flag>,
    sessions: Arc<Sockets>,
    accept: Option<JoinHandle<()>>,
}

impl StationHandle {
    /// The bound listen address (with the OS-assigned port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the station-wide counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Blocks the calling thread until the accept loop exits (i.e. until
    /// another thread drops/shuts the handle — the server bin parks
    /// here forever).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stops accepting new connections, joins the accept thread, and
    /// closes the read half of every live session socket. A session busy
    /// serving a request finishes it — queued stream chunks and the
    /// `StreamEnd` marker still reach the client — then reads EOF and
    /// exits; an idle session wakes from its blocking read immediately.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.shutdown.raise();
        // The accept loop is blocked in accept(); poke it awake with a
        // throwaway connection so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // With the accept loop joined, no new sessions can register:
        // drain the table and deliver EOF to each reader. Writes stay
        // open so sessions can flush their outbound queues first.
        for stream in self.sessions.take_all() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for StationHandle {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn try_open_session_respects_the_limit_sequentially() {
        let stats = Arc::new(StationStats::default());
        let sessions = Arc::new(Sockets::default());
        let first = try_open_session(&stats, &sessions, 2, 0);
        let second = try_open_session(&stats, &sessions, 2, 1);
        assert!(first.is_some() && second.is_some());
        assert!(try_open_session(&stats, &sessions, 2, 2).is_none());
        assert_eq!(stats.sessions_active.get(), 2);
        assert_eq!(stats.sessions_opened.get(), 2);
        drop(first);
        let third = try_open_session(&stats, &sessions, 2, 3);
        assert!(third.is_some());
        assert!(try_open_session(&stats, &sessions, 2, 4).is_none());
    }

    #[test]
    fn try_open_session_never_over_admits_under_contention() {
        const MAX: u64 = 8;
        const THREADS: usize = 16;
        let stats = Arc::new(StationStats::default());
        let sessions = Arc::new(Sockets::default());
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|id| {
                let (stats, sessions) = (Arc::clone(&stats), Arc::clone(&sessions));
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    try_open_session(&stats, &sessions, MAX, id)
                })
            })
            .collect();
        // Keep every admission alive until the gauge is read.
        let admitted: Vec<Admission> = handles
            .into_iter()
            .filter_map(|h| h.join().expect("worker thread panicked"))
            .collect();
        assert_eq!(admitted.len() as u64, MAX);
        assert_eq!(stats.sessions_active.get(), MAX);
        assert_eq!(stats.sessions_opened.get(), MAX);
    }

    #[test]
    fn a_panicking_session_releases_its_admission() {
        let stats = Arc::new(StationStats::default());
        let sessions = Arc::new(Sockets::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let admission = try_open_session(&stats, &sessions, 1, 7).unwrap();
        sessions.insert(7, stream);
        assert_eq!(stats.sessions_active.get(), 1);
        let joined = thread::spawn(move || {
            let _admission = admission;
            panic!("session thread fails mid-request");
        })
        .join();
        assert!(joined.is_err());
        assert_eq!(stats.sessions_active.get(), 0);
        assert!(sessions.take_all().is_empty());
        assert!(try_open_session(&stats, &sessions, 1, 8).is_some());
    }
}
