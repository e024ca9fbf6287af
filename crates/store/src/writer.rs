//! Append-only segment writer: a dedicated thread drains a bounded queue
//! and persists frames, so the acquisition path never blocks on disk.
//!
//! # Backpressure policy
//!
//! [`Recorder::offer`] is a `try_send`: past the queue's high-water mark
//! the frame is dropped on the spot and counted, mirroring the station's
//! `StreamEnd { sent, dropped }` contract. The writer thread finalises
//! the segment (index footer, fsync of the tail and footer) when the
//! channel closes — on [`Recorder::finish`], on drop, or when the owning
//! session dies — so an abandoned recording is still a valid, replayable
//! segment.
//!
//! # Sync cadence
//!
//! Whenever its queue runs dry and at least [`SYNC_BYTES`] have been
//! written since the last sync, the writer thread also syncs the file's
//! data. A writer that never catches up still syncs once
//! [`SYNC_CAP_BYTES`] are unsynced, even with frames queued. The page
//! cache a recording dirties stays bounded either way, and the final
//! sync in [`Recorder::finish`] writes back only the tail. A disk slower
//! than acquisition fills the queue during the stream and shows up as
//! dropped frames there, not as a long stop.
//!
//! # Buffer reuse
//!
//! A recorder starts with a pool of [`SPARE_BYTES`] of payload buffers,
//! and the writer thread hands each buffer back through a second bounded
//! queue once it has written the frame. [`Recorder::offer_bytes`]
//! copies a frame into one of those, so the tee allocates nothing per
//! frame while the writer stays within a pool's worth of frames.

use crate::error::StoreError;
use crate::format::{
    SegmentMeta, FOOTER_MAGIC, FOOTER_TAIL_LEN, MAX_SPEC_LEN, RECORD_META_LEN, RECORD_OVERHEAD,
};
use bsa_link::crc::Crc8;
use bsa_link::wire::Writer;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::thread::{Builder, JoinHandle};

/// Default bound on the writer queue, in frames.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Bytes of payload buffers a recorder pools for [`Recorder::offer_bytes`].
/// At 128×128 that is 8 frames, one default stream chunk; a frame larger
/// than the pool gets a one-buffer pool, filled when the writer hands the
/// first buffer back. The pool stays resident until the recording ends:
/// a 4 MiB pool read about 1 MB more peak memory than this one on the
/// benchmark's `stream_record` (2-vCPU VM, 4 runs each).
const SPARE_BYTES: usize = 1 << 20;

/// Bytes the writer thread writes between two syncs of the segment's
/// data: 16 frames at 128×128. The writer checks it when its queue runs
/// dry, so such a sync delays no queued frame; while it syncs, the tee
/// draws on the spare pool, and a longer interval stalls the writer
/// past the pool: 8 MiB read 0.7 MB more peak memory than this one on
/// the benchmark's `stream_record`, at the same throughput (2-vCPU VM,
/// 4 interleaved pairs).
pub const SYNC_BYTES: u64 = 2 << 20;

/// Unsynced bytes at which the writer thread syncs even with frames
/// queued: a writer that never runs dry would otherwise leave the whole
/// recording to the final sync in [`Recorder::finish`].
pub const SYNC_CAP_BYTES: u64 = 4 * SYNC_BYTES;

/// Whether the writer thread syncs now, with `unsynced` bytes written
/// since the last sync: at [`SYNC_BYTES`] once its queue runs dry, so a
/// sync rarely delays a queued frame, and at [`SYNC_CAP_BYTES`] in any
/// case.
fn sync_due(queue_dry: bool, unsynced: u64) -> bool {
    let threshold = if queue_dry {
        SYNC_BYTES
    } else {
        SYNC_CAP_BYTES
    };
    unsynced >= threshold
}

/// File extension of segment files in a store root.
pub const SEGMENT_EXT: &str = "seg";

/// Outcome of offering a frame to the writer queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The frame was queued for persistence.
    Accepted,
    /// The queue was at high-water (or the writer died); the frame was
    /// dropped and counted.
    Dropped,
}

/// Accounting returned when a recording is finalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteSummary {
    /// Frames persisted to the segment.
    pub frames_written: u64,
    /// Frames dropped by queue backpressure.
    pub frames_dropped: u64,
    /// Final segment size in bytes, index footer included.
    pub bytes_written: u64,
    /// Acquisition epochs the segment spans.
    pub epochs: u32,
    /// Syncs of the segment's data made while recording, at most one
    /// per [`SYNC_BYTES`] written; the final sync is not counted.
    pub data_syncs: u64,
}

struct Frame {
    epoch: u32,
    payload: Vec<u8>,
}

/// Handle on an in-progress recording. Owned by the acquisition side;
/// dropping it finalises the segment in the background thread.
#[derive(Debug)]
pub struct Recorder {
    name: String,
    expected_payload: usize,
    dropped: u64,
    tx: Option<SyncSender<Frame>>,
    /// The pool of payload buffers; the writer thread hands each one
    /// back once it has written the frame.
    spares: Receiver<Vec<u8>>,
    join: Option<JoinHandle<Result<WriteSummary, StoreError>>>,
}

/// Validates a recording name: 1..=64 bytes of `[A-Za-z0-9._-]`, not
/// starting with a dot (no hidden files, no `..` traversal).
pub fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok_len = !name.is_empty() && name.len() <= 64;
    let ok_chars = name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok_len && ok_chars && !name.starts_with('.') {
        Ok(())
    } else {
        Err(StoreError::BadName {
            name: name.to_string(),
        })
    }
}

/// Path of the named segment inside a store root.
pub fn segment_path(root: &Path, name: &str) -> Result<PathBuf, StoreError> {
    validate_name(name)?;
    Ok(root.join(format!("{name}.{SEGMENT_EXT}")))
}

impl Recorder {
    /// Creates the segment file, writes and flushes its header (so
    /// creation errors surface here, not mid-stream) and spawns the
    /// writer thread. `expected_payload` is the byte size every offered
    /// frame must have — use [`crate::frame_payload_len`]. A spec longer
    /// than [`crate::format::MAX_SPEC_LEN`] is refused before any file exists.
    pub fn create(
        root: &Path,
        name: &str,
        meta: &SegmentMeta,
        expected_payload: usize,
        queue_depth: usize,
    ) -> Result<Self, StoreError> {
        let path = segment_path(root, name)?;
        if meta.spec.len() > MAX_SPEC_LEN {
            return Err(StoreError::InvalidValue {
                what: "segment spec length",
            });
        }
        std::fs::create_dir_all(root)?;
        let file = match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(file) => file,
            Err(err) if err.kind() == ErrorKind::AlreadyExists => {
                return Err(StoreError::AlreadyExists {
                    name: name.to_string(),
                })
            }
            Err(err) => return Err(err.into()),
        };
        let header = meta.encode_header();
        let mut out = BufWriter::new(file);
        out.write_all(&header)?;
        out.flush()?;
        let header_len = header.len() as u64;
        let (tx, rx) = sync_channel::<Frame>(queue_depth.max(1));
        let pool = (SPARE_BYTES / expected_payload.max(1)).min(queue_depth);
        let (spare_tx, spares) = sync_channel::<Vec<u8>>(pool.max(1));
        for _ in 0..pool {
            let _ = spare_tx.try_send(Vec::with_capacity(expected_payload));
        }
        let join = Builder::new()
            .name("bsa-store-writer".into())
            .spawn(move || run_writer(out, header_len, &rx, &spare_tx))
            .map_err(StoreError::Io)?;
        Ok(Self {
            name: name.to_string(),
            expected_payload,
            dropped: 0,
            tx: Some(tx),
            spares,
            join: Some(join),
        })
    }

    /// The recording's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames dropped by backpressure so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Offers one frame payload to the writer queue. Never blocks: a full
    /// queue (or a dead writer thread) drops the frame and counts it. A
    /// payload of the wrong size for the segment's kind is a caller bug
    /// and is rejected typed instead of being persisted.
    pub fn offer(&mut self, epoch: u32, payload: Vec<u8>) -> Result<Offer, StoreError> {
        if payload.len() != self.expected_payload {
            return Err(StoreError::PayloadSize {
                expected: self.expected_payload,
                got: payload.len(),
            });
        }
        let Some(tx) = self.tx.as_ref() else {
            self.dropped += 1;
            return Ok(Offer::Dropped);
        };
        match tx.try_send(Frame { epoch, payload }) {
            Ok(()) => Ok(Offer::Accepted),
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.dropped += 1;
                Ok(Offer::Dropped)
            }
        }
    }

    /// Offers a copy of `bytes` as one frame payload, like [`Self::offer`].
    /// The copy goes into a pooled buffer, and into a new one only when
    /// the writer thread has all of them, so a caller that tees frames
    /// out of a larger buffer (a wire chunk's sample block, say) allocates
    /// nothing per frame while the writer keeps up.
    pub fn offer_bytes(&mut self, epoch: u32, bytes: &[u8]) -> Result<Offer, StoreError> {
        let mut payload = self
            .spares
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.expected_payload));
        payload.clear();
        payload.extend_from_slice(bytes);
        self.offer(epoch, payload)
    }

    /// Closes the queue, waits for the writer thread to finalise the
    /// segment and returns the accounting. Finalising writes the index
    /// footer and syncs the file, so the segment is durable when this
    /// returns. The writer syncs as it goes (see [`SYNC_BYTES`]), so this
    /// waits only for the unsynced tail and the footer.
    pub fn finish(mut self) -> Result<WriteSummary, StoreError> {
        self.tx = None; // close the channel: the writer drains and finalises
        let join = self.join.take().ok_or(StoreError::WriterGone)?;
        let mut summary = join.join().map_err(|_| StoreError::WriterGone)??;
        summary.frames_dropped = self.dropped;
        Ok(summary)
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(join) = self.join.take() {
            // Block until the footer is on disk so the segment a dying
            // session leaves behind is valid and replayable.
            let _ = join.join();
        }
    }
}

/// Writer-thread body: drain the queue, append records, then finalise
/// with the index footer. Each record's meta, payload and CRC go to `out`
/// one after another, with no copy of the payload; the payload buffer is
/// handed back through `spares` (or dropped when `spares` is full) once
/// written, ahead of the CRC byte. `out` is flushed whenever the queue
/// runs dry, so the file holds every record offered so far (and so every
/// buffer is back) once the writer catches up; [`sync_due`] decides
/// there, and before each queued frame, whether to sync the file's data
/// too. Any I/O error aborts persistence; the error is surfaced by
/// [`Recorder::finish`] and the unfinalised segment is rejected (typed)
/// by the reader.
fn run_writer(
    mut out: BufWriter<File>,
    header_len: u64,
    rx: &Receiver<Frame>,
    spares: &SyncSender<Vec<u8>>,
) -> Result<WriteSummary, StoreError> {
    let mut offsets: Vec<u64> = Vec::new();
    let mut pos = header_len;
    let mut epochs: u32 = 0;
    let mut synced = 0;
    let mut data_syncs = 0;
    let mut meta = Writer::with_capacity(RECORD_META_LEN);
    loop {
        let (frame, queue_dry) = match rx.try_recv() {
            Ok(frame) => (Some(frame), false),
            Err(TryRecvError::Empty) => (None, true),
            Err(TryRecvError::Disconnected) => break,
        };
        let sync = sync_due(queue_dry, pos - synced);
        if queue_dry || sync {
            out.flush()?;
        }
        if sync {
            out.get_ref().sync_data()?;
            synced = pos;
            data_syncs += 1;
        }
        let Some(frame) = frame.or_else(|| rx.recv().ok()) else {
            break;
        };
        let len = frame.payload.len();
        meta.clear();
        meta.u64(offsets.len() as u64);
        meta.u32(frame.epoch);
        meta.u32(len as u32);
        let mut crc = Crc8::new();
        crc.update_bytes(meta.as_bytes());
        crc.update_bytes(&frame.payload);
        out.write_all(meta.as_bytes())?;
        out.write_all(&frame.payload)?;
        let _ = spares.try_send(frame.payload);
        out.write_all(&[crc.finish()])?;
        offsets.push(pos);
        pos += (RECORD_OVERHEAD + len) as u64;
        epochs = epochs.max(frame.epoch.saturating_add(1));
    }
    let mut footer = Writer::with_capacity(offsets.len() * 8 + FOOTER_TAIL_LEN);
    for &off in &offsets {
        footer.u64(off);
    }
    footer.u64(offsets.len() as u64);
    footer.u64(pos);
    footer.u32(epochs);
    footer.crc8();
    footer.bytes(FOOTER_MAGIC);
    let footer = footer.into_bytes();
    out.write_all(&footer)?;
    out.flush()?;
    let file = out.into_inner().map_err(|err| StoreError::Io(err.into()))?;
    file.sync_all()?;
    Ok(WriteSummary {
        frames_written: offsets.len() as u64,
        frames_dropped: 0,
        bytes_written: pos + footer.len() as u64,
        epochs,
        data_syncs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dry_queue_syncs_from_the_sync_interval_on() {
        assert!(sync_due(true, SYNC_BYTES));
        assert!(sync_due(true, SYNC_CAP_BYTES));
    }

    #[test]
    fn queued_frames_sync_from_the_cap_on() {
        assert!(sync_due(false, SYNC_CAP_BYTES));
        assert!(sync_due(false, SYNC_CAP_BYTES + 1));
    }

    #[test]
    fn anything_else_does_not_sync() {
        assert!(!sync_due(true, 0));
        assert!(!sync_due(true, SYNC_BYTES - 1));
        assert!(!sync_due(false, SYNC_BYTES));
        assert!(!sync_due(false, SYNC_CAP_BYTES - 1));
    }
}
