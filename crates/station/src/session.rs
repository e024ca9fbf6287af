//! One client session: a reader thread that owns the session's chips and
//! executes requests sequentially, plus a writer thread draining a
//! bounded outbound queue.
//!
//! # Backpressure policy
//!
//! The outbound queue is a `sync_channel` with a fixed capacity. Control
//! responses (acks, results, stream-end markers) use a *blocking* send —
//! they are few and must not be lost; if the writer died because the
//! socket broke, the send fails and the session ends. Stream data chunks
//! use `try_send`: when a slow consumer fills the queue the chunk is
//! dropped on the spot and counted, so the server never buffers without
//! bound and the consumer learns exactly how many frames it lost from
//! `StreamEnd { frames_dropped, .. }`.

use crate::registry::{
    culture_from_spec, dna_config_from_spec, injection_plan_from_spec, neuro_config_from_spec,
    yield_summary, Chip, Registry, MAX_PIXELS,
};
use crate::stats::StationStats;
use bsa_core::dna_chip::{DnaChip, SampleMix};
use bsa_core::health::PixelHealth;
use bsa_core::neuro_chip::NeuroChip;
use bsa_core::ScanOptions;
use bsa_dsp::masking::PixelMask;
use bsa_electrochem::sequence::DnaSequence;
use bsa_link::{
    read_message, write_message, ChipId, ChipKind, ErrorCode, Message, PixelCount, ProtocolError,
    RecordingEntry, StreamPayload, PROTOCOL_VERSION,
};
use bsa_store::{
    decode_dna_reading, decode_neuro_frame, encode_dna_reading, encode_neuro_frame, fnv1a64,
    frame_payload_len, list_recordings, Recorder, SegmentMeta, SegmentReader, DEFAULT_QUEUE_DEPTH,
};
use bsa_units::{Molar, Seconds};
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Hard cap on frames per neuro stream request (about 100 MiB of payload
/// at 128×128), so one request cannot pin the server indefinitely.
pub(crate) const MAX_STREAM_FRAMES: u32 = 4096;

/// Default frames per `StreamData` chunk when the client passes 0.
pub(crate) const DEFAULT_CHUNK_FRAMES: u32 = 8;

/// DNA count readings per streamed chunk.
const DNA_CHUNK_READINGS: usize = 64;

/// Upper bound on a recorded frame's rows/cols accepted for replay. The
/// geometry comes from a stored segment header — attacker/corruption
/// territory — and sizes the chunk sample buffer, so it must be bounded
/// before it feeds an allocation. Far above any real CMOS array axis.
const MAX_REPLAY_DIM: usize = 4096;

/// The receiving side of the session is gone (socket closed or writer
/// dead); the session should wind down.
#[derive(Debug)]
pub(crate) struct Gone;

/// Outcome of offering a stream chunk to the queue.
enum Offer {
    Sent,
    Dropped,
}

/// The session's handle on its outbound queue.
struct Outbound {
    tx: SyncSender<Message>,
    stats: Arc<StationStats>,
}

impl Outbound {
    /// Blocking send for control responses. Fails only when the writer
    /// thread has exited (socket gone).
    fn send_control(&self, msg: Message) -> Result<(), Gone> {
        self.stats.queue_enter();
        match self.tx.send(msg) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.stats.queue_exit();
                Err(Gone)
            }
        }
    }

    /// Non-blocking send for stream data. A full queue drops the chunk
    /// (the caller accounts for it); a disconnected queue ends the
    /// session.
    fn offer_stream(&self, msg: Message) -> Result<Offer, Gone> {
        self.stats.queue_enter();
        match self.tx.try_send(msg) {
            Ok(()) => {
                StationStats::add(&self.stats.chunks_sent, 1);
                Ok(Offer::Sent)
            }
            Err(TrySendError::Full(_)) => {
                self.stats.queue_exit();
                Ok(Offer::Dropped)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.stats.queue_exit();
                Err(Gone)
            }
        }
    }
}

/// Tuning knobs handed down from `StationConfig`.
#[derive(Debug, Clone)]
pub(crate) struct SessionLimits {
    pub(crate) queue_depth: usize,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) store_root: Option<PathBuf>,
}

/// Runs one session to completion on the current thread. Spawns the
/// writer thread internally and joins it before returning.
pub(crate) fn run_session(stream: TcpStream, stats: Arc<StationStats>, limits: &SessionLimits) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(limits.read_timeout);
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            // No writer thread can exist; tell the client why the session
            // is dying (best-effort, straight on the reader socket) —
            // this is the one condition that is the station's fault, not
            // the client's, hence `Internal` rather than `BadRequest`.
            let mut stream = stream;
            let _ = write_message(
                &mut stream,
                &Message::ErrorReply {
                    code: ErrorCode::Internal,
                    message: format!("cannot split session socket: {e}"),
                },
            );
            return;
        }
    };
    let (tx, rx) = sync_channel::<Message>(limits.queue_depth.max(1));
    let writer_stats = Arc::clone(&stats);
    let writer = thread::spawn(move || {
        let mut stream = writer_stream;
        for msg in rx {
            writer_stats.queue_exit();
            match write_message(&mut stream, &msg) {
                Ok(n) => StationStats::add(&writer_stats.bytes_sent, n as u64),
                Err(_) => break,
            }
        }
        // Drain without writing so blocked senders unblock promptly even
        // though the socket is gone; dropping the receiver then fails
        // all later sends.
        let _ = stream.shutdown(std::net::Shutdown::Both);
    });

    let mut session = Session {
        registry: Registry::default(),
        masks: BTreeMap::new(),
        recorders: BTreeMap::new(),
        store_root: limits.store_root.clone(),
        out: Outbound {
            tx,
            stats: Arc::clone(&stats),
        },
        stats: Arc::clone(&stats),
    };

    let mut reader = stream;
    loop {
        match read_message(&mut reader) {
            Ok(msg) => {
                StationStats::add(&stats.requests, 1);
                if session.handle(msg).is_err() {
                    break;
                }
            }
            Err(ProtocolError::Io(_)) => break, // EOF, reset or timeout
            Err(err) => {
                // Corrupt frame: tell the client (best-effort) and close —
                // framing sync cannot be trusted after a bad header.
                let _ = session.out.send_control(Message::ErrorReply {
                    code: ErrorCode::BadRequest,
                    message: format!("protocol error: {err}"),
                });
                break;
            }
        }
    }
    drop(session); // drops the sender; the writer drains and exits
    let _ = writer.join();
}

struct Session {
    registry: Registry,
    /// Client-masked pixels per chip (row-major indices). Neuro stream
    /// chunks are repaired over this mask by neighbor interpolation
    /// before they are queued; an empty/absent mask leaves the stream
    /// path bit-identical to an unmasked session.
    masks: BTreeMap<ChipId, BTreeSet<u32>>,
    /// Active recordings per chip. Streams from a recorded chip are teed
    /// into the store's bounded writer queue frame by frame (post-mask,
    /// so the segment holds exactly what a client would have received);
    /// dropping the session finalises any recording still open.
    recorders: BTreeMap<ChipId, ActiveRecording>,
    /// `bsa-store` root directory; `None` disables record/replay.
    store_root: Option<PathBuf>,
    out: Outbound,
    stats: Arc<StationStats>,
}

/// One in-flight recording: the store writer plus the next acquisition
/// epoch. The epoch is a stream-request ordinal (not wall time), so a
/// segment written by a deterministic acquisition is itself
/// deterministic.
struct ActiveRecording {
    name: String,
    recorder: Recorder,
    epoch: u32,
}

impl ActiveRecording {
    /// Claims the next acquisition epoch.
    fn claim_epoch(&mut self) -> u32 {
        let epoch = self.epoch;
        self.epoch = self.epoch.wrapping_add(1);
        epoch
    }
}

impl Session {
    /// Handles one request. `Err(Gone)` means the connection is dead.
    fn handle(&mut self, msg: Message) -> Result<(), Gone> {
        match msg {
            Message::Hello { .. } => self.out.send_control(Message::HelloAck {
                server: format!("bsa-station/{}", env!("CARGO_PKG_VERSION")),
                version: PROTOCOL_VERSION,
            }),
            Message::Ping { token } => self.out.send_control(Message::Pong { token }),
            Message::AttachDna(spec) => {
                let reply = self.attach_dna(&spec);
                self.out.send_control(reply)
            }
            Message::AttachNeuro(spec) => {
                let reply = self.attach_neuro(&spec);
                self.out.send_control(reply)
            }
            Message::Detach { chip } => {
                let reply = if self.registry.detach(chip) {
                    self.masks.remove(&chip);
                    // Dropping the recorder joins its writer thread and
                    // finalises the segment; the client simply does not
                    // get the `RecordingStopped` accounting.
                    self.recorders.remove(&chip);
                    Message::Detached { chip }
                } else {
                    error_reply(ErrorCode::UnknownChip, format!("no chip {chip}"))
                };
                self.out.send_control(reply)
            }
            Message::ConfigureAssay {
                chip,
                probes,
                targets,
            } => {
                let reply = self.configure_assay(chip, &probes, &targets);
                self.out.send_control(reply)
            }
            Message::Calibrate { chip } => {
                let reply = self.calibrate(chip);
                self.out.send_control(reply)
            }
            Message::InjectFaults { chip, plan } => {
                let reply = self.inject_faults(chip, &plan);
                self.out.send_control(reply)
            }
            Message::QueryHealth { chip } => {
                let reply = self.query_health(chip);
                self.out.send_control(reply)
            }
            Message::MaskPixels { chip, pixels } => {
                let reply = self.mask_pixels(chip, &pixels);
                self.out.send_control(reply)
            }
            Message::RunAssay {
                chip,
                stream_counts,
            } => self.run_assay(chip, stream_counts),
            Message::StartNeuroStream {
                chip,
                frames,
                chunk_frames,
                t0_s,
                culture,
            } => self.neuro_stream(chip, frames, chunk_frames, t0_s, &culture),
            Message::QueryStats => self
                .out
                .send_control(Message::StatsReport(self.stats.snapshot())),
            Message::StartRecording { chip, name } => {
                let reply = self.start_recording(chip, &name);
                self.out.send_control(reply)
            }
            Message::StopRecording { chip } => {
                let reply = self.stop_recording(chip);
                self.out.send_control(reply)
            }
            Message::ListRecordings => {
                let reply = self.list_store();
                self.out.send_control(reply)
            }
            Message::Replay { name, chunk_frames } => self.replay(&name, chunk_frames),
            // Server-to-client messages arriving at the server are a
            // client bug, not a transport failure: answer and carry on.
            // Named one by one (no `_`), so a new variant does not compile
            // until it is either served above or listed here.
            other @ (Message::HelloAck { .. }
            | Message::Pong { .. }
            | Message::Attached { .. }
            | Message::Detached { .. }
            | Message::CalibrationDone { .. }
            | Message::HealthReport { .. }
            | Message::Masked { .. }
            | Message::AssayResult { .. }
            | Message::StreamData { .. }
            | Message::StreamEnd { .. }
            | Message::StatsReport(_)
            | Message::Ack
            | Message::ErrorReply { .. }
            | Message::RecordingStarted { .. }
            | Message::RecordingStopped { .. }
            | Message::RecordingList { .. }) => self.out.send_control(error_reply(
                ErrorCode::BadRequest,
                format!("unexpected message at server: {other:?}"),
            )),
        }
    }

    fn attach_dna(&mut self, spec: &bsa_link::DnaChipSpec) -> Message {
        let config = match dna_config_from_spec(spec) {
            Ok(c) => c,
            Err(err) => return error_reply(ErrorCode::BadRequest, err.to_string()),
        };
        if config.geometry.len() > MAX_PIXELS {
            return error_reply(ErrorCode::BadRequest, "array too large".into());
        }
        let rows = config.geometry.rows();
        let cols = config.geometry.cols();
        match DnaChip::new(config) {
            Ok(chip) => {
                let id = self.registry.attach(Chip::Dna {
                    chip: Box::new(chip),
                    sample: SampleMix::new(),
                });
                StationStats::add(&self.stats.chips_attached, 1);
                Message::Attached {
                    chip: id,
                    kind: ChipKind::Dna,
                    rows: rows as u16,
                    cols: cols as u16,
                }
            }
            Err(err) => error_reply(ErrorCode::ChipError, err.to_string()),
        }
    }

    fn attach_neuro(&mut self, spec: &bsa_link::NeuroChipSpec) -> Message {
        let config = match neuro_config_from_spec(spec) {
            Ok(c) => c,
            Err(err) => return error_reply(ErrorCode::BadRequest, err.to_string()),
        };
        if config.geometry.len() > MAX_PIXELS {
            return error_reply(ErrorCode::BadRequest, "array too large".into());
        }
        let rows = config.geometry.rows();
        let cols = config.geometry.cols();
        match NeuroChip::new(config) {
            Ok(chip) => {
                let id = self.registry.attach(Chip::Neuro(Box::new(chip)));
                StationStats::add(&self.stats.chips_attached, 1);
                Message::Attached {
                    chip: id,
                    kind: ChipKind::Neuro,
                    rows: rows as u16,
                    cols: cols as u16,
                }
            }
            Err(err) => error_reply(ErrorCode::ChipError, err.to_string()),
        }
    }

    fn configure_assay(
        &mut self,
        id: ChipId,
        probes: &[String],
        targets: &[bsa_link::TargetSpec],
    ) -> Message {
        let mut parsed = Vec::with_capacity(probes.len());
        for probe in probes {
            match probe.parse::<DnaSequence>() {
                Ok(seq) => parsed.push(seq),
                Err(err) => {
                    return error_reply(ErrorCode::BadRequest, format!("probe {probe:?}: {err}"))
                }
            }
        }
        let mut sample = SampleMix::new();
        for target in targets {
            let seq = match target.sequence.parse::<DnaSequence>() {
                Ok(seq) => seq,
                Err(err) => {
                    return error_reply(
                        ErrorCode::BadRequest,
                        format!("target {:?}: {err}", target.sequence),
                    )
                }
            };
            if !target.concentration_molar.is_finite() || target.concentration_molar < 0.0 {
                return error_reply(ErrorCode::BadRequest, "bad concentration".into());
            }
            sample = sample.with_target(seq, Molar::new(target.concentration_molar));
        }
        match self.registry.get_mut(id) {
            Some(Chip::Dna { chip, sample: slot }) => {
                chip.spot_all(&parsed);
                *slot = sample;
                Message::Ack
            }
            Some(Chip::Neuro(_)) => {
                error_reply(ErrorCode::WrongChipKind, "assays run on DNA chips".into())
            }
            None => error_reply(ErrorCode::UnknownChip, format!("no chip {id}")),
        }
    }

    fn calibrate(&mut self, id: ChipId) -> Message {
        match self.registry.get_mut(id) {
            Some(Chip::Dna { chip, .. }) => {
                let _ = chip.auto_calibrate();
                let health = chip.health();
                Message::CalibrationDone {
                    chip: id,
                    healthy: health.count(PixelHealth::Healthy) as u32,
                    out_of_family: health.count(PixelHealth::OutOfFamily) as u32,
                    dead: health.count(PixelHealth::Dead) as u32,
                }
            }
            Some(Chip::Neuro(chip)) => {
                chip.calibrate(Seconds::new(0.0));
                let health = chip.health();
                Message::CalibrationDone {
                    chip: id,
                    healthy: health.count(PixelHealth::Healthy) as u32,
                    out_of_family: health.count(PixelHealth::OutOfFamily) as u32,
                    dead: health.count(PixelHealth::Dead) as u32,
                }
            }
            None => error_reply(ErrorCode::UnknownChip, format!("no chip {id}")),
        }
    }

    fn inject_faults(&mut self, id: ChipId, plan: &bsa_link::FaultPlanSpec) -> Message {
        let plan = injection_plan_from_spec(plan);
        match self.registry.get_mut(id) {
            Some(Chip::Dna { chip, .. }) => {
                let g = chip.geometry();
                match chip.inject_faults(&plan.compile(g.rows(), g.cols())) {
                    Ok(()) => Message::Ack,
                    Err(err) => error_reply(ErrorCode::ChipError, err.to_string()),
                }
            }
            Some(Chip::Neuro(chip)) => {
                let g = chip.config().geometry;
                match chip.inject_faults(&plan.compile(g.rows(), g.cols())) {
                    Ok(()) => Message::Ack,
                    Err(err) => error_reply(ErrorCode::ChipError, err.to_string()),
                }
            }
            None => error_reply(ErrorCode::UnknownChip, format!("no chip {id}")),
        }
    }

    fn mask_pixels(&mut self, id: ChipId, pixels: &[u32]) -> Message {
        let len = match self.registry.get_mut(id) {
            Some(Chip::Dna { chip, .. }) => chip.geometry().len(),
            Some(Chip::Neuro(chip)) => chip.config().geometry.len(),
            None => return error_reply(ErrorCode::UnknownChip, format!("no chip {id}")),
        };
        if let Some(&bad) = pixels.iter().find(|&&p| p as usize >= len) {
            return error_reply(
                ErrorCode::BadRequest,
                format!("pixel {bad} out of range (array has {len} pixels)"),
            );
        }
        let mask = self.masks.entry(id).or_default();
        mask.extend(pixels.iter().copied());
        Message::Masked {
            chip: id,
            masked: mask.len() as u32,
        }
    }

    fn query_health(&mut self, id: ChipId) -> Message {
        match self.registry.get_mut(id) {
            Some(Chip::Dna { chip, .. }) => Message::HealthReport {
                chip: id,
                report: yield_summary(&chip.yield_report()),
            },
            Some(Chip::Neuro(chip)) => Message::HealthReport {
                chip: id,
                report: yield_summary(&chip.yield_report()),
            },
            None => error_reply(ErrorCode::UnknownChip, format!("no chip {id}")),
        }
    }

    /// Opens a store segment and begins teeing the chip's streams to it.
    /// The spec snapshot is the Debug rendering of the *resolved* chip
    /// configuration (the same one the registry built from the wire
    /// spec), hashed with FNV-1a-64 so replay consumers can check which
    /// configuration produced a recording without parsing the spec.
    fn start_recording(&mut self, id: ChipId, name: &str) -> Message {
        let Some(root) = self.store_root.clone() else {
            return error_reply(
                ErrorCode::StoreError,
                "station has no store root (start with --store DIR)".into(),
            );
        };
        if self.recorders.contains_key(&id) {
            return error_reply(
                ErrorCode::StoreError,
                format!("chip {id} already recording"),
            );
        }
        let (kind, rows, cols, spec) = match self.registry.get_mut(id) {
            Some(Chip::Dna { chip, .. }) => {
                let g = chip.geometry();
                (
                    ChipKind::Dna,
                    g.rows() as u16,
                    g.cols() as u16,
                    format!("{:?}", chip.config()),
                )
            }
            Some(Chip::Neuro(chip)) => {
                let g = chip.config().geometry;
                (
                    ChipKind::Neuro,
                    g.rows() as u16,
                    g.cols() as u16,
                    format!("{:?}", chip.config()),
                )
            }
            None => return error_reply(ErrorCode::UnknownChip, format!("no chip {id}")),
        };
        let meta = SegmentMeta {
            chip: id,
            kind,
            rows,
            cols,
            config_hash: fnv1a64(spec.as_bytes()),
            spec,
        };
        match Recorder::create(
            &root,
            name,
            &meta,
            frame_payload_len(kind, rows, cols),
            DEFAULT_QUEUE_DEPTH,
        ) {
            Ok(recorder) => {
                self.recorders.insert(
                    id,
                    ActiveRecording {
                        name: name.to_string(),
                        recorder,
                        epoch: 0,
                    },
                );
                Message::RecordingStarted {
                    chip: id,
                    name: name.to_string(),
                }
            }
            Err(err) => error_reply(ErrorCode::StoreError, err.to_string()),
        }
    }

    /// Finalises a chip's recording and reports the store's own
    /// sent/dropped accounting (the writer queue drops-and-counts past
    /// high water, exactly like the outbound stream queue).
    fn stop_recording(&mut self, id: ChipId) -> Message {
        let Some(active) = self.recorders.remove(&id) else {
            return error_reply(ErrorCode::StoreError, format!("chip {id} is not recording"));
        };
        match active.recorder.finish() {
            Ok(summary) => Message::RecordingStopped {
                chip: id,
                name: active.name,
                frames_written: summary.frames_written,
                frames_dropped: summary.frames_dropped,
                bytes_written: summary.bytes_written,
            },
            Err(err) => error_reply(ErrorCode::StoreError, err.to_string()),
        }
    }

    fn list_store(&self) -> Message {
        let Some(root) = &self.store_root else {
            return error_reply(
                ErrorCode::StoreError,
                "station has no store root (start with --store DIR)".into(),
            );
        };
        match list_recordings(root) {
            Ok(entries) => Message::RecordingList {
                recordings: entries
                    .into_iter()
                    .map(|e| RecordingEntry {
                        name: e.name,
                        kind: e.kind,
                        rows: e.rows,
                        cols: e.cols,
                        frames: e.frames,
                        bytes: e.bytes,
                        config_hash: e.config_hash,
                    })
                    .collect(),
            },
            Err(err) => error_reply(ErrorCode::StoreError, err.to_string()),
        }
    }

    /// Streams a stored recording back with the exact `StreamData`*
    /// `StreamEnd` grammar a live chip produces, under the recorded chip
    /// id. Neuro payloads are decoded from their raw IEEE-754 bits, so a
    /// replayed frame is `f64::to_bits`-identical to the recorded one.
    fn replay(&mut self, name: &str, chunk_frames: u32) -> Result<(), Gone> {
        let Some(root) = self.store_root.clone() else {
            return self.out.send_control(error_reply(
                ErrorCode::StoreError,
                "station has no store root (start with --store DIR)".into(),
            ));
        };
        let mut reader = match SegmentReader::open_named(&root, name) {
            Ok(reader) => reader,
            Err(err) => {
                return self
                    .out
                    .send_control(error_reply(ErrorCode::StoreError, err.to_string()))
            }
        };
        let meta = reader.meta().clone();
        let id = meta.chip;
        let frame_count = reader.frames();
        let chunk = match (meta.kind, chunk_frames) {
            (ChipKind::Neuro, 0) => u64::from(DEFAULT_CHUNK_FRAMES),
            (ChipKind::Dna, 0) => DNA_CHUNK_READINGS as u64,
            (_, n) => u64::from(n),
        };
        let mut sent: u32 = 0;
        let mut dropped: u32 = 0;
        let mut index = 0u64;
        let mut seq: u32 = 0;
        while index < frame_count {
            let n = chunk.min(frame_count - index);
            // Assemble one chunk from n consecutive records. A corrupted
            // record aborts the replay with a typed error reply; the
            // client's stream loop surfaces it as a server error.
            let payload = match meta.kind {
                ChipKind::Neuro => {
                    let rows = usize::from(meta.rows);
                    let cols = usize::from(meta.cols);
                    if rows > MAX_REPLAY_DIM || cols > MAX_REPLAY_DIM {
                        return self.out.send_control(error_reply(
                            ErrorCode::StoreError,
                            format!("recorded geometry {rows}x{cols} exceeds the replay limit"),
                        ));
                    }
                    let mut samples = Vec::with_capacity((n as usize) * rows * cols);
                    for i in index..index + n {
                        let decoded = reader
                            .frame(i)
                            .and_then(|frame| decode_neuro_frame(frame.payload, &mut samples));
                        if let Err(err) = decoded {
                            return self
                                .out
                                .send_control(error_reply(ErrorCode::StoreError, err.to_string()));
                        }
                    }
                    StreamPayload::NeuroFrames {
                        first_frame: sent.saturating_add(dropped),
                        rows: meta.rows,
                        cols: meta.cols,
                        samples,
                    }
                }
                ChipKind::Dna => {
                    let mut readings = Vec::with_capacity(n as usize);
                    for i in index..index + n {
                        let decoded = reader
                            .frame(i)
                            .and_then(|frame| decode_dna_reading(frame.payload));
                        match decoded {
                            Ok(reading) => readings.push(reading),
                            Err(err) => {
                                return self.out.send_control(error_reply(
                                    ErrorCode::StoreError,
                                    err.to_string(),
                                ))
                            }
                        }
                    }
                    StreamPayload::DnaCounts { readings }
                }
            };
            match self.out.offer_stream(Message::StreamData {
                chip: id,
                seq,
                payload,
            })? {
                Offer::Sent => sent = sent.saturating_add(n as u32),
                Offer::Dropped => dropped = dropped.saturating_add(n as u32),
            }
            seq = seq.wrapping_add(1);
            index += n;
        }
        StationStats::add(&self.stats.frames_served, u64::from(sent));
        StationStats::add(&self.stats.frames_dropped, u64::from(dropped));
        self.out.send_control(Message::StreamEnd {
            chip: id,
            frames_sent: sent,
            frames_dropped: dropped,
        })
    }

    fn run_assay(&mut self, id: ChipId, stream_counts: bool) -> Result<(), Gone> {
        let readout = match self.registry.get_mut(id) {
            Some(Chip::Dna { chip, sample }) => chip.run_assay(sample),
            Some(Chip::Neuro(_)) => {
                return self.out.send_control(error_reply(
                    ErrorCode::WrongChipKind,
                    "assays run on DNA chips".into(),
                ))
            }
            None => {
                return self
                    .out
                    .send_control(error_reply(ErrorCode::UnknownChip, format!("no chip {id}")))
            }
        };
        let readings: Vec<PixelCount> = readout
            .to_readings()
            .iter()
            .map(|r| PixelCount {
                row: r.address.row as u16,
                col: r.address.col as u16,
                count: r.count,
            })
            .collect();
        // Tee the whole readout into an active recording (one record per
        // reading, whether or not the client streamed). Store
        // backpressure drops-and-counts; I/O failures surface in the
        // `RecordingStopped` accounting, never in the assay reply.
        if let Some(active) = self.recorders.get_mut(&id) {
            let epoch = active.claim_epoch();
            for reading in &readings {
                let _ = active.recorder.offer(epoch, encode_dna_reading(reading));
            }
        }
        if stream_counts {
            let mut sent: u32 = 0;
            let mut dropped: u32 = 0;
            for (seq, chunk) in readings.chunks(DNA_CHUNK_READINGS).enumerate() {
                let n = chunk.len() as u32;
                let msg = Message::StreamData {
                    chip: id,
                    seq: seq as u32,
                    payload: StreamPayload::DnaCounts {
                        readings: chunk.to_vec(),
                    },
                };
                match self.out.offer_stream(msg)? {
                    Offer::Sent => sent += n,
                    Offer::Dropped => dropped += n,
                }
            }
            StationStats::add(&self.stats.frames_served, u64::from(sent));
            StationStats::add(&self.stats.frames_dropped, u64::from(dropped));
            self.out.send_control(Message::StreamEnd {
                chip: id,
                frames_sent: sent,
                frames_dropped: dropped,
            })?;
        }
        self.out.send_control(Message::AssayResult {
            chip: id,
            counts: readout.counts.clone(),
            estimated_currents_a: readout
                .estimated_currents
                .iter()
                .map(|i| i.value())
                .collect(),
        })
    }

    fn neuro_stream(
        &mut self,
        id: ChipId,
        frames: u32,
        chunk_frames: u32,
        t0_s: f64,
        culture_spec: &bsa_link::CultureSpec,
    ) -> Result<(), Gone> {
        if frames == 0 || frames > MAX_STREAM_FRAMES {
            return self.out.send_control(error_reply(
                ErrorCode::BadRequest,
                format!("frames must be 1..={MAX_STREAM_FRAMES}"),
            ));
        }
        let t0 = if t0_s.is_finite() { t0_s } else { 0.0 };
        let chunk = if chunk_frames == 0 {
            DEFAULT_CHUNK_FRAMES
        } else {
            chunk_frames
        };
        let chip = match self.registry.get_mut(id) {
            Some(Chip::Neuro(chip)) => chip,
            Some(Chip::Dna { .. }) => {
                return self.out.send_control(error_reply(
                    ErrorCode::WrongChipKind,
                    "streams run on neuro chips".into(),
                ))
            }
            None => {
                return self
                    .out
                    .send_control(error_reply(ErrorCode::UnknownChip, format!("no chip {id}")))
            }
        };
        let g = chip.config().geometry;
        let (rows, cols) = (g.rows() as u16, g.cols() as u16);
        let mask = self.masks.get(&id).filter(|m| !m.is_empty()).map(|m| {
            let mut usable = vec![true; g.len()];
            for &p in m {
                if let Some(slot) = usable.get_mut(p as usize) {
                    *slot = false;
                }
            }
            PixelMask::new(g.rows(), g.cols(), usable)
        });
        let culture = culture_from_spec(culture_spec);
        // Tee epoch for an active recording on this chip: claimed once
        // per stream request, so identical request sequences produce
        // identical segments.
        let mut tee = self
            .recorders
            .get_mut(&id)
            .map(|active| (active.claim_epoch(), &mut active.recorder));
        // One cursor per request: chunks drawn from it are bit-identical
        // to an in-process record() of the whole request, and the session
        // holds one chunk at a time.
        let mut acquisition = chip.acquire(&culture, Seconds::new(t0), ScanOptions::default());
        let mut sent: u32 = 0;
        let mut dropped: u32 = 0;
        let mut seq: u32 = 0;
        let mut outcome = Ok(());
        while sent + dropped < frames {
            let n = chunk.min(frames - sent - dropped);
            let mut samples = Vec::new();
            acquisition.next_chunk(&mut samples, n as usize);
            for frame in samples.chunks_exact_mut(g.len()) {
                if let Some(mask) = &mask {
                    let _ = mask.interpolate(frame);
                }
                // Persist the post-mask frame *before* the outbound
                // offer: the segment records what the chip produced for
                // the client, independent of TCP backpressure. The store
                // queue drops-and-counts on its own; I/O failures
                // surface at `StopRecording`.
                if let Some((epoch, recorder)) = &mut tee {
                    let _ = recorder.offer(*epoch, encode_neuro_frame(frame));
                }
            }
            let msg = Message::StreamData {
                chip: id,
                seq,
                payload: StreamPayload::NeuroFrames {
                    first_frame: sent + dropped,
                    rows,
                    cols,
                    samples,
                },
            };
            match self.out.offer_stream(msg) {
                Ok(Offer::Sent) => sent += n,
                Ok(Offer::Dropped) => dropped += n,
                Err(Gone) => {
                    // The client is gone: stop acquiring.
                    outcome = Err(Gone);
                    break;
                }
            }
            seq = seq.wrapping_add(1);
        }
        StationStats::add(&self.stats.frames_served, u64::from(sent));
        StationStats::add(&self.stats.frames_dropped, u64::from(dropped));
        outcome?;
        self.out.send_control(Message::StreamEnd {
            chip: id,
            frames_sent: sent,
            frames_dropped: dropped,
        })
    }
}

fn error_reply(code: ErrorCode, message: String) -> Message {
    Message::ErrorReply { code, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// Deterministic backpressure accounting at the queue level, no TCP:
    /// with a capacity-2 queue and no consumer, the first two chunks are
    /// accepted and every further offer is dropped — and the drop is
    /// visible in the stats.
    #[test]
    fn full_queue_drops_are_counted_not_buffered() {
        let stats = Arc::new(StationStats::default());
        let (tx, _rx) = sync_channel::<Message>(2);
        let out = Outbound {
            tx,
            stats: Arc::clone(&stats),
        };
        let mut sent = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match out.offer_stream(Message::Ack).unwrap() {
                Offer::Sent => sent += 1,
                Offer::Dropped => dropped += 1,
            }
        }
        assert_eq!(sent, 2);
        assert_eq!(dropped, 8);
        let snap = stats.snapshot();
        assert_eq!(snap.chunks_sent, 2);
        assert_eq!(snap.queue_peak, 3); // two enqueued + one in-flight attempt
    }

    /// A disconnected queue (writer thread gone) surfaces as `Gone` for
    /// both send flavors instead of blocking or panicking.
    #[test]
    fn disconnected_queue_reports_gone() {
        let stats = Arc::new(StationStats::default());
        let (tx, rx) = sync_channel::<Message>(1);
        drop(rx);
        let out = Outbound {
            tx,
            stats: Arc::clone(&stats),
        };
        assert!(out.send_control(Message::Ack).is_err());
        assert!(out.offer_stream(Message::Ack).is_err());
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 0);
    }
}
