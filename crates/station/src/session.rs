//! One client session: a reader thread that owns the session's chips and
//! executes requests sequentially, plus a writer thread draining a
//! bounded outbound queue.
//!
//! # Backpressure policy
//!
//! The outbound queue is a `sync_channel` with a fixed capacity that
//! carries encoded wire frames: the session encodes each message before
//! it is queued, and the writer thread only writes bytes. Control
//! responses (acks, results, stream-end markers) use a *blocking* send —
//! they are few and must not be lost; if the writer died because the
//! socket broke, the send fails and the session ends. Stream data chunks
//! use `try_send`: when a slow consumer fills the queue the chunk is
//! dropped on the spot and counted, so the server never buffers without
//! bound and the consumer learns exactly how many frames it lost from
//! `StreamEnd { frames_dropped, .. }`.

use crate::registry::{
    chunk_size, culture_from_spec, dna_config_from_spec, injection_plan_from_spec,
    max_chunk_frames, neuro_config_from_spec, yield_summary, Chip, Registry, MAX_ASSAY_PIXELS,
    MAX_CHUNK_READINGS, MAX_FRAME_PIXELS, MAX_SESSION_PIXELS,
};
use crate::stats::{Flag, Slot, StationStats};
use bsa_core::dna_chip::{DnaChip, SampleMix};
use bsa_core::health::PixelHealth;
use bsa_core::neuro_chip::NeuroChip;
use bsa_core::ScanOptions;
use bsa_dsp::masking::PixelMask;
use bsa_electrochem::sequence::DnaSequence;
use bsa_link::samples::encode_samples;
use bsa_link::{
    encode_frame, encode_neuro_chunk, read_message, write_message, ChipId, ChipKind, ErrorCode,
    Message, NeuroChunkHead, PixelCount, ProtocolError, StreamPayload, PROTOCOL_VERSION,
};
use bsa_store::{
    decode_dna_reading, encode_dna_reading, fnv1a64, frame_payload_len, list_recordings, Recorder,
    SegmentMeta, SegmentReader, DEFAULT_QUEUE_DEPTH,
};
use bsa_units::{Molar, Seconds};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Hard cap on frames per neuro stream request (about 100 MiB of payload
/// at 128×128), so one request cannot pin the server indefinitely.
pub(crate) const MAX_STREAM_FRAMES: u32 = 4096;

/// Hard cap on a stream culture's `neuron_count`. The culture holds one
/// 120-byte neuron per count, allocated up front, and every frame sums
/// over the neurons; `u32::MAX` would ask for about 515 GB.
pub(crate) const MAX_CULTURE_NEURONS: u32 = 256;

/// Hard cap on a stream culture's `spike_duration_s`. Spike trains grow
/// linearly with it, about 5 spikes per neuron per second at the default
/// rates, so a capped culture holds about 300 000 spikes at most.
/// Non-finite and non-positive durations still select the 1 s default.
pub(crate) const MAX_SPIKE_DURATION_S: f64 = 60.0;

/// Hard cap on `ConfigureAssay.targets`. A `RunAssay` hybridizes every
/// spotted pixel with every target, so its cost is pixels × targets.
pub(crate) const MAX_ASSAY_TARGETS: usize = 8;

/// Hard cap on the bases of one assay probe or target. Hybridization
/// slides the probe along the target, so one pixel × target pair costs
/// about probe length × target length.
pub(crate) const MAX_SEQUENCE_BASES: usize = 32;

/// Hard cap on `InjectFaults` plan entries. An array-wide entry visits
/// up to every pixel of the chip when the plan is compiled.
pub(crate) const MAX_FAULT_ENTRIES: usize = 64;

/// Default frames per `StreamData` chunk when the client passes 0. Like
/// a requested size, it is clamped so that one chunk fits a wire frame.
pub(crate) const DEFAULT_CHUNK_FRAMES: u32 = 8;

/// DNA count readings per streamed chunk.
const DNA_CHUNK_READINGS: u32 = 64;

/// The receiving side of the session is gone (socket closed or writer
/// dead); the session should wind down.
#[derive(Debug)]
pub(crate) struct Gone;

/// Outcome of offering a stream chunk to the queue.
enum Offer {
    Sent,
    Dropped,
}

/// An encoded wire frame in the outbound queue, with the `queue_depth`
/// slot it holds until the writer takes it. A frame the queue refuses or
/// still holds when the writer exits releases its slot as it drops.
type Queued = (Slot, Vec<u8>);

/// The session's handle on its outbound queue of encoded frames.
struct Outbound {
    tx: SyncSender<Queued>,
    stats: Arc<StationStats>,
}

impl Outbound {
    /// Blocking send for control responses. Fails only when the writer
    /// thread has exited (socket gone).
    fn send_control(&self, msg: Message) -> Result<(), Gone> {
        let frame = encode_frame(&msg);
        let slot = self.stats.queue_depth.enter();
        self.tx.send((slot, frame)).map_err(|_| Gone)
    }

    /// Non-blocking send for an encoded stream data frame. A full queue
    /// drops the chunk (the caller accounts for it); a disconnected queue
    /// ends the session.
    fn offer_stream(&self, frame: Vec<u8>) -> Result<Offer, Gone> {
        let slot = self.stats.queue_depth.enter();
        match self.tx.try_send((slot, frame)) {
            Ok(()) => {
                self.stats.chunks_sent.add(1);
                Ok(Offer::Sent)
            }
            Err(TrySendError::Full(_)) => Ok(Offer::Dropped),
            Err(TrySendError::Disconnected(_)) => Err(Gone),
        }
    }

    /// Serves one `StreamData`* `StreamEnd` stream of `total` frames (or
    /// DNA readings) in chunks of at most `chunk` (≥ 1).
    /// `produce(seq, first, n)` encodes chunk `seq`, frames `first` to
    /// `first + n`, as a complete `StreamData` wire frame just before it
    /// is offered, so the session holds one chunk at a time. The emitter
    /// owns the chunk sequence, the sent/dropped tally and the closing
    /// `StreamEnd`, and adds the tally to `frames_served`/`frames_dropped`
    /// however the stream ends. A producer `Err(reply)` ends the stream with that
    /// reply in place of `StreamEnd`; a vanished client stops it at once.
    fn emit_stream(
        &self,
        chip: ChipId,
        total: u32,
        chunk: u32,
        mut produce: impl FnMut(u32, u32, u32) -> Result<Vec<u8>, Message>,
    ) -> Result<(), Gone> {
        let mut sent: u32 = 0;
        let mut dropped: u32 = 0;
        let mut seq: u32 = 0;
        let end = loop {
            let first = sent + dropped;
            if first >= total {
                break Ok(Message::StreamEnd {
                    chip,
                    frames_sent: sent,
                    frames_dropped: dropped,
                });
            }
            let n = chunk.min(total - first);
            let frame = match produce(seq, first, n) {
                Ok(frame) => frame,
                Err(reply) => break Ok(reply),
            };
            match self.offer_stream(frame) {
                Ok(Offer::Sent) => sent += n,
                Ok(Offer::Dropped) => dropped += n,
                Err(Gone) => break Err(Gone),
            }
            seq = seq.wrapping_add(1);
        };
        self.stats.frames_served.add(u64::from(sent));
        self.stats.frames_dropped.add(u64::from(dropped));
        self.send_control(end?)
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
/// writer thread internally and joins it before returning. Once
/// `shutdown` is set the session serves no further request.
pub(crate) fn run_session(
    stream: TcpStream,
    stats: Arc<StationStats>,
    limits: &SessionLimits,
    shutdown: &Flag,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(limits.read_timeout);
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            // No writer thread can exist; tell the client why the session
            // is dying (best-effort, straight on the reader socket).
            let mut stream = stream;
            let _ = write_message(&mut stream, &split_failure_reply(&e));
            return;
        }
    };
    let (tx, rx) = sync_channel::<Queued>(limits.queue_depth.max(1));
    let writer_stats = Arc::clone(&stats);
    let writer = thread::spawn(move || {
        let mut stream = writer_stream;
        for (slot, frame) in rx {
            drop(slot);
            match stream.write_all(&frame) {
                Ok(()) => writer_stats.bytes_sent.add(frame.len() as u64),
                Err(_) => break,
            }
        }
        // Leaving the loop drops the receiver: the frames still queued
        // drop with it and release their slots, a sender blocked on the
        // full queue wakes with an error, and every later send fails.
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
            // The station closes the read half at shutdown, but Linux
            // still hands over bytes that arrive after that: a request
            // read once shutdown has begun is not served.
            Ok(_) if shutdown.is_raised() => break,
            Ok(msg) => {
                stats.requests.add(1);
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

    /// The refusal of an attach that would take the session's chips past
    /// [`MAX_SESSION_PIXELS`], checked before the chip is built.
    fn over_pixel_budget(&self, pixels: usize) -> Option<Message> {
        let held = self.registry.pixels();
        (held + pixels > MAX_SESSION_PIXELS).then(|| {
            error_reply(
                ErrorCode::Overloaded,
                format!(
                    "session holds {held} pixels; {pixels} more would pass its \
                     {MAX_SESSION_PIXELS}-pixel budget"
                ),
            )
        })
    }

    fn attach_dna(&mut self, spec: &bsa_link::DnaChipSpec) -> Message {
        let config = match dna_config_from_spec(spec) {
            Ok(c) => c,
            Err(err) => return error_reply(ErrorCode::BadRequest, err.to_string()),
        };
        // The assay reply must fit one wire frame.
        if config.geometry.len() > MAX_ASSAY_PIXELS {
            return error_reply(ErrorCode::BadRequest, "array too large".into());
        }
        if let Some(refusal) = self.over_pixel_budget(config.geometry.len()) {
            return refusal;
        }
        let rows = config.geometry.rows();
        let cols = config.geometry.cols();
        match DnaChip::new(config) {
            Ok(chip) => {
                let id = self.registry.attach(Chip::Dna {
                    chip: Box::new(chip),
                    sample: SampleMix::new(),
                });
                self.stats.chips_attached.add(1);
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
        // One frame must fit a stream chunk.
        if config.geometry.len() > MAX_FRAME_PIXELS {
            return error_reply(ErrorCode::BadRequest, "array too large".into());
        }
        if let Some(refusal) = self.over_pixel_budget(config.geometry.len()) {
            return refusal;
        }
        let rows = config.geometry.rows();
        let cols = config.geometry.cols();
        match NeuroChip::new(config) {
            Ok(chip) => {
                let id = self.registry.attach(Chip::Neuro(Box::new(chip)));
                self.stats.chips_attached.add(1);
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
        if targets.len() > MAX_ASSAY_TARGETS {
            return error_reply(
                ErrorCode::BadRequest,
                format!("at most {MAX_ASSAY_TARGETS} targets per assay"),
            );
        }
        let mut parsed = Vec::with_capacity(probes.len());
        for probe in probes {
            match assay_sequence(probe) {
                Ok(seq) => parsed.push(seq),
                Err(err) => {
                    return error_reply(ErrorCode::BadRequest, format!("probe {probe:?}: {err}"))
                }
            }
        }
        let mut sample = SampleMix::new();
        for target in targets {
            let seq = match assay_sequence(&target.sequence) {
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
        if plan.entries.len() > MAX_FAULT_ENTRIES {
            return error_reply(
                ErrorCode::BadRequest,
                format!("at most {MAX_FAULT_ENTRIES} fault entries per plan"),
            );
        }
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
            Ok(recordings) => Message::RecordingList { recordings },
            Err(err) => error_reply(ErrorCode::StoreError, err.to_string()),
        }
    }

    /// Streams a stored recording back with the exact `StreamData`*
    /// `StreamEnd` grammar a live chip produces, under the recorded chip
    /// id. A neuro record is its frame's slice of the wire's sample
    /// block, so each chunk appends its records' bytes as they are stored:
    /// a replayed frame is byte-identical to the recorded one, and no
    /// sample is decoded on the way.
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
        // The geometry comes from a stored segment header — attacker or
        // corruption territory — and sizes each chunk's frame: one
        // recorded frame must fit a stream chunk.
        let meta = reader.meta().clone();
        let rows = usize::from(meta.rows);
        let cols = usize::from(meta.cols);
        let pixels = rows * cols;
        if pixels > MAX_FRAME_PIXELS {
            return self.out.send_control(error_reply(
                ErrorCode::StoreError,
                format!("recorded geometry {rows}x{cols} exceeds the replay limit"),
            ));
        }
        let total = u32::try_from(reader.frames()).unwrap_or(u32::MAX);
        let (default, cap) = match meta.kind {
            ChipKind::Neuro => (DEFAULT_CHUNK_FRAMES, max_chunk_frames(pixels)),
            ChipKind::Dna => (DNA_CHUNK_READINGS, MAX_CHUNK_READINGS),
        };
        let chunk = chunk_size(chunk_frames, default, cap);
        // Each chunk is assembled from n consecutive records, each checked
        // against its CRC as it is read. A corrupted record ends the
        // replay with a typed error reply in place of its chunk; the
        // client's stream loop surfaces it as a server error.
        self.out
            .emit_stream(meta.chip, total, chunk, |seq, first, n| {
                let mut records = u64::from(first)..u64::from(first) + u64::from(n);
                let frame = match meta.kind {
                    ChipKind::Neuro => {
                        let head = NeuroChunkHead {
                            chip: meta.chip,
                            seq,
                            first_frame: first,
                            rows: meta.rows,
                            cols: meta.cols,
                            frames: n,
                        };
                        encode_neuro_chunk(&head, |block| {
                            records.try_for_each(|i| {
                                block.extend_from_slice(reader.frame(i)?.payload);
                                Ok(())
                            })
                        })
                    }
                    ChipKind::Dna => records
                        .map(|i| {
                            reader
                                .frame(i)
                                .and_then(|frame| decode_dna_reading(frame.payload))
                        })
                        .collect::<Result<_, _>>()
                        .map(|readings| dna_chunk(meta.chip, seq, readings)),
                };
                frame.map_err(|err| error_reply(ErrorCode::StoreError, err.to_string()))
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
            let total = readings.len() as u32;
            self.out
                .emit_stream(id, total, DNA_CHUNK_READINGS, |seq, first, n| {
                    let chunk = readings.iter().skip(first as usize).take(n as usize);
                    Ok(dna_chunk(id, seq, chunk.copied().collect()))
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
        if culture_spec.neuron_count > MAX_CULTURE_NEURONS {
            return self.out.send_control(error_reply(
                ErrorCode::BadRequest,
                format!("culture neuron_count must be at most {MAX_CULTURE_NEURONS}"),
            ));
        }
        if culture_spec.spike_duration_s.is_finite()
            && culture_spec.spike_duration_s > MAX_SPIKE_DURATION_S
        {
            return self.out.send_control(error_reply(
                ErrorCode::BadRequest,
                format!("culture spike_duration_s must be at most {MAX_SPIKE_DURATION_S} s"),
            ));
        }
        let t0 = if t0_s.is_finite() { t0_s } else { 0.0 };
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
        let chunk = chunk_size(
            chunk_frames,
            DEFAULT_CHUNK_FRAMES,
            max_chunk_frames(g.len()),
        );
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
        let record_len = frame_payload_len(ChipKind::Neuro, rows, cols);
        // One cursor per request: chunks drawn from it are bit-identical
        // to an in-process record() of the whole request, and the session
        // holds one chunk at a time, drawn into one reused sample buffer
        // and encoded once, straight into its wire frame.
        let mut acquisition = chip.acquire(&culture, Seconds::new(t0), ScanOptions::default());
        let mut samples = Vec::new();
        self.out.emit_stream(id, frames, chunk, |seq, first, n| {
            samples.clear();
            acquisition.next_chunk(&mut samples, n as usize);
            if let Some(mask) = &mask {
                for frame in samples.chunks_exact_mut(g.len()) {
                    let _ = mask.interpolate(frame);
                }
            }
            let head = NeuroChunkHead {
                chip: id,
                seq,
                first_frame: first,
                rows,
                cols,
                frames: n,
            };
            encode_neuro_chunk(&head, |block| {
                let start = block.len();
                encode_samples(&samples, block);
                // Persist the post-mask frames *before* the outbound
                // offer: the segment records what the chip produced for
                // the client, independent of TCP backpressure. A record
                // is its frame's slice of the encoded block, copied into
                // a buffer the store hands back. The store queue
                // drops-and-counts on its own; I/O failures surface at
                // `StopRecording`.
                if let Some((epoch, recorder)) = &mut tee {
                    let encoded = block.get(start..).unwrap_or_default();
                    for frame in encoded.chunks_exact(record_len) {
                        let _ = recorder.offer_bytes(*epoch, frame);
                    }
                }
                Ok::<_, ProtocolError>(())
            })
            .map_err(|err| error_reply(ErrorCode::Internal, err.to_string()))
        })
    }
}

/// One `StreamData` chunk of DNA readings, as a wire frame.
fn dna_chunk(chip: ChipId, seq: u32, readings: Vec<PixelCount>) -> Vec<u8> {
    encode_frame(&Message::StreamData {
        chip,
        seq,
        payload: StreamPayload::DnaCounts { readings },
    })
}

/// An assay probe or target of at most [`MAX_SEQUENCE_BASES`] bases.
fn assay_sequence(text: &str) -> Result<DnaSequence, String> {
    let seq = text.parse::<DnaSequence>().map_err(|err| err.to_string())?;
    if seq.len() > MAX_SEQUENCE_BASES {
        return Err(format!("longer than {MAX_SEQUENCE_BASES} bases"));
    }
    Ok(seq)
}

fn error_reply(code: ErrorCode, message: String) -> Message {
    Message::ErrorReply { code, message }
}

/// The reply to a session whose socket cannot be split for its writer
/// thread: the one failure that is the station's fault, not the client's,
/// hence `Internal` rather than `BadRequest`.
fn split_failure_reply(err: &std::io::Error) -> Message {
    error_reply(
        ErrorCode::Internal,
        format!("cannot split session socket: {err}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, StationClient};
    use crate::server::{Station, StationConfig};
    use bsa_link::{
        CultureSpec, DnaChipSpec, FaultEntrySpec, FaultKindSpec, FaultPlanSpec, FaultTargetSpec,
        NeuroChipSpec, TargetSpec,
    };

    /// Every `ErrorCode` the codec knows: an `ErrorReply` payload decoded
    /// with each possible code byte.
    fn wire_codes() -> Vec<ErrorCode> {
        let reply = |code| {
            let message = String::new();
            Message::ErrorReply { code, message }.encode_payload()
        };
        let payload = reply(ErrorCode::BadRequest);
        let other = reply(ErrorCode::UnknownChip);
        let at = payload
            .iter()
            .zip(&other)
            .position(|(a, b)| a != b)
            .unwrap();
        (0..=u8::MAX)
            .filter_map(|tag| {
                let mut p = payload.clone();
                p[at] = tag;
                match Message::decode_payload(&p) {
                    Ok(Message::ErrorReply { code, .. }) => Some(code),
                    _ => None,
                }
            })
            .collect()
    }

    fn server_code<T: std::fmt::Debug>(result: Result<T, ClientError>) -> ErrorCode {
        match result {
            Err(ClientError::Server { code, .. }) => code,
            other => panic!("expected a typed server error, got {other:?}"),
        }
    }

    /// The station sends every reply code. Each code the wire knows is
    /// provoked from a live loopback station, except `Internal`, whose
    /// socket-split failure cannot be forced on a healthy host; its arm
    /// checks the reply that failure sends. The `match` has no wildcard
    /// arm, so a new code does not compile here until its case is written.
    #[test]
    fn station_sends_every_error_code() {
        // One session slot: the client below holds it, so the next
        // connection is refused.
        let station = Station::bind(StationConfig {
            max_sessions: 1,
            ..StationConfig::default()
        })
        .unwrap();
        let mut client = StationClient::connect(station.addr(), "codes").unwrap();
        let spec = NeuroChipSpec {
            rows: 16,
            cols: 16,
            channels: 4,
            seed: 1,
            frame_rate_hz: 0.0,
        };
        let chip = client.attach_neuro(&spec).unwrap().chip;
        let culture = CultureSpec {
            seed: 1,
            neuron_count: 4,
            spike_duration_s: 0.01,
        };
        let codes = wire_codes();
        assert_eq!(codes.len(), 7, "{codes:?}");
        for code in codes {
            let sent = match code {
                ErrorCode::BadRequest => {
                    server_code(client.stream_neuro(chip, 0, 1, Seconds::ZERO, &culture))
                }
                ErrorCode::UnknownChip => server_code(client.calibrate(chip + 1)),
                ErrorCode::WrongChipKind => server_code(client.run_assay(chip, false)),
                // 16 columns cannot be shared evenly among 7 channels.
                ErrorCode::ChipError => server_code(client.attach_neuro(&NeuroChipSpec {
                    channels: 7,
                    ..spec.clone()
                })),
                ErrorCode::Overloaded => {
                    let mut refused = TcpStream::connect(station.addr()).unwrap();
                    refused
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    match read_message(&mut refused).unwrap() {
                        Message::ErrorReply { code, .. } => code,
                        other => panic!("expected ErrorReply, got {other:?}"),
                    }
                }
                ErrorCode::Internal => {
                    match split_failure_reply(&std::io::Error::other("no descriptor")) {
                        Message::ErrorReply { code, .. } => code,
                        other => panic!("expected ErrorReply, got {other:?}"),
                    }
                }
                // The station has no store root.
                ErrorCode::StoreError => server_code(client.start_recording(chip, "take")),
            };
            assert_eq!(sent, code);
        }
    }

    /// Lists the request fields that size station work, per `Message`
    /// variant, and generates two functions from the list: every listed
    /// (variant, field) pair, and the variant a message is listed under.
    /// The latter matches every variant with no `_` arm, so a new variant
    /// does not compile until it is listed here with its fields (often
    /// none). Replies sent to the station are refused whole.
    macro_rules! work_sizing_fields {
        ($($variant:ident => [$($field:literal),*];)*) => {
            fn listed_fields() -> BTreeSet<(&'static str, &'static str)> {
                let mut listed = BTreeSet::new();
                $($(listed.insert((stringify!($variant), $field));)*)*
                listed
            }

            fn variant_name(msg: &Message) -> &'static str {
                match msg {
                    $(Message::$variant { .. } => stringify!($variant),)*
                }
            }
        };
    }

    // Fields whose work grows only with the bytes received are not
    // listed: the frame bounds them, and `Reader::seq` checks each count
    // against the bytes left before it allocates. Such are the number of
    // probes (each spots one pixel), `MaskPixels.pixels` and the names.
    // `probes` is listed for the length of each probe.
    work_sizing_fields! {
        Hello => [];
        HelloAck => [];
        Ping => [];
        Pong => [];
        AttachDna => ["rows", "cols"];
        AttachNeuro => ["rows", "cols", "channels"];
        Attached => [];
        Detach => [];
        Detached => [];
        ConfigureAssay => ["probes", "targets", "targets.sequence"];
        Calibrate => [];
        CalibrationDone => [];
        InjectFaults => ["plan.entries"];
        QueryHealth => [];
        HealthReport => [];
        RunAssay => [];
        AssayResult => [];
        StartNeuroStream => [
            "frames",
            "chunk_frames",
            "culture.neuron_count",
            "culture.spike_duration_s"
        ];
        StreamData => [];
        StreamEnd => [];
        QueryStats => [];
        StatsReport => [];
        Ack => [];
        ErrorReply => [];
        MaskPixels => [];
        Masked => [];
        StartRecording => [];
        RecordingStarted => [];
        StopRecording => [];
        RecordingStopped => [];
        ListRecordings => [];
        RecordingList => [];
        Replay => ["chunk_frames"];
    }

    /// What the station does with a request.
    #[derive(Debug, PartialEq)]
    enum Served {
        /// A typed `ErrorReply`.
        Refused(ErrorCode),
        /// A whole stream: frames sent, frames dropped and chunks.
        Stream {
            sent: u32,
            dropped: u32,
            chunks: u32,
        },
        /// Any other single reply.
        Reply(Message),
    }

    /// Sends one request and reads its reply, or its whole stream.
    fn serve(socket: &mut TcpStream, request: &Message) -> Served {
        write_message(socket, request).unwrap();
        let mut chunks = 0;
        loop {
            match read_message(socket).unwrap() {
                Message::StreamData { .. } => chunks += 1,
                Message::StreamEnd {
                    frames_sent,
                    frames_dropped,
                    ..
                } => {
                    return Served::Stream {
                        sent: frames_sent,
                        dropped: frames_dropped,
                        chunks,
                    }
                }
                Message::ErrorReply { code, .. } => return Served::Refused(code),
                reply => return Served::Reply(reply),
            }
        }
    }

    fn attached_chip(served: Served) -> ChipId {
        match served {
            Served::Reply(Message::Attached { chip, .. }) => chip,
            other => panic!("expected Attached, got {other:?}"),
        }
    }

    /// Every request field that sizes station work is bounded: one row per
    /// listed field sends its first out-of-range value and gets a typed
    /// refusal or a clamped chunk size, and the session answers a `Ping`
    /// afterwards. The rows must cover exactly the listed fields.
    #[test]
    fn every_work_sizing_request_field_is_bounded() {
        let store_root =
            std::env::temp_dir().join(format!("bsa-station-bounds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_root);
        let station = Station::bind(StationConfig {
            store_root: Some(store_root.clone()),
            ..StationConfig::default()
        })
        .unwrap();
        let mut socket = TcpStream::connect(station.addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();

        let neuro = |rows: usize, cols: usize, channels: u16| {
            Message::AttachNeuro(NeuroChipSpec {
                rows: u16::try_from(rows).unwrap(),
                cols: u16::try_from(cols).unwrap(),
                channels,
                seed: 1,
                frame_rate_hz: 0.0,
            })
        };
        let dna = |rows: usize, cols: usize| {
            Message::AttachDna(DnaChipSpec {
                rows: u16::try_from(rows).unwrap(),
                cols: u16::try_from(cols).unwrap(),
                seed: 1,
                frame_time_s: 0.0,
            })
        };
        let dna_chip = attached_chip(serve(&mut socket, &dna(0, 0)));
        let culture = CultureSpec {
            seed: 1,
            neuron_count: 4,
            spike_duration_s: 0.01,
        };
        let stream =
            |chip, frames, chunk_frames, culture: &CultureSpec| Message::StartNeuroStream {
                chip,
                frames,
                chunk_frames,
                t0_s: 0.0,
                culture: culture.clone(),
            };

        let assay = |probes: Vec<String>, targets: Vec<&str>| Message::ConfigureAssay {
            chip: dna_chip,
            probes,
            targets: targets
                .into_iter()
                .map(|sequence| TargetSpec {
                    sequence: sequence.to_string(),
                    concentration_molar: 1e-9,
                })
                .collect(),
        };
        let long_sequence = "A".repeat(MAX_SEQUENCE_BASES + 1);
        let plan = FaultPlanSpec {
            seed: 1,
            entries: vec![
                FaultEntrySpec {
                    target: FaultTargetSpec::ArrayWide { density: 1.0 },
                    kind: FaultKindSpec::DeadPixel,
                };
                MAX_FAULT_ENTRIES + 1
            ],
        };
        // A 16×16 chip for the request bounds, and a 128×128 chip whose
        // chunks clamp at 127 frames, with a 128-frame recording of it.
        let small = attached_chip(serve(&mut socket, &neuro(16, 16, 0)));
        let big = attached_chip(serve(&mut socket, &neuro(128, 128, 0)));
        let cap = max_chunk_frames(128 * 128);
        assert_eq!(cap, 127);
        let take = "bounds".to_string();
        let start = Message::StartRecording {
            chip: big,
            name: take.clone(),
        };
        assert!(matches!(
            serve(&mut socket, &start),
            Served::Reply(Message::RecordingStarted { .. })
        ));
        serve(&mut socket, &stream(big, cap + 1, 0, &culture));
        match serve(&mut socket, &Message::StopRecording { chip: big }) {
            Served::Reply(Message::RecordingStopped { frames_written, .. }) => {
                assert_eq!(frames_written, u64::from(cap + 1));
            }
            other => panic!("expected RecordingStopped, got {other:?}"),
        }

        // The clamped chunk size splits 128 frames into two chunks.
        let clamped = || Served::Stream {
            sent: cap + 1,
            dropped: 0,
            chunks: 2,
        };
        let bad = || Served::Refused(ErrorCode::BadRequest);
        let crowded = CultureSpec {
            neuron_count: MAX_CULTURE_NEURONS + 1,
            ..culture.clone()
        };
        let long = CultureSpec {
            spike_duration_s: MAX_SPIKE_DURATION_S.next_up(),
            ..culture.clone()
        };
        let rows = [
            ("rows", neuro(MAX_FRAME_PIXELS / 64 + 1, 64, 0), bad()),
            ("cols", neuro(64, MAX_FRAME_PIXELS / 64 + 1, 0), bad()),
            // Channels share the columns evenly, so at most `cols`.
            (
                "channels",
                neuro(16, 16, 17),
                Served::Refused(ErrorCode::ChipError),
            ),
            ("rows", dna(MAX_ASSAY_PIXELS / 64 + 1, 64), bad()),
            ("cols", dna(64, MAX_ASSAY_PIXELS / 64 + 1), bad()),
            ("probes", assay(vec![long_sequence.clone()], vec![]), bad()),
            (
                "targets",
                assay(vec![], vec!["ACGT"; MAX_ASSAY_TARGETS + 1]),
                bad(),
            ),
            (
                "targets.sequence",
                assay(vec![], vec![&long_sequence]),
                bad(),
            ),
            (
                "plan.entries",
                Message::InjectFaults {
                    chip: dna_chip,
                    plan,
                },
                bad(),
            ),
            ("frames", stream(small, 0, 0, &culture), bad()),
            (
                "frames",
                stream(small, MAX_STREAM_FRAMES + 1, 0, &culture),
                bad(),
            ),
            (
                "chunk_frames",
                stream(big, cap + 1, cap + 1, &culture),
                clamped(),
            ),
            ("culture.neuron_count", stream(small, 1, 0, &crowded), bad()),
            (
                "culture.spike_duration_s",
                stream(small, 1, 0, &long),
                bad(),
            ),
            (
                "chunk_frames",
                Message::Replay {
                    name: take,
                    chunk_frames: cap + 1,
                },
                clamped(),
            ),
        ];

        let covered: BTreeSet<_> = rows
            .iter()
            .map(|(field, request, _)| (variant_name(request), *field))
            .collect();
        assert_eq!(covered, listed_fields());
        for (token, (field, request, want)) in (0u64..).zip(rows) {
            let row = format!("{}.{field}", variant_name(&request));
            assert_eq!(serve(&mut socket, &request), want, "{row}");
            let ping = Message::Ping { token };
            assert_eq!(
                serve(&mut socket, &ping),
                Served::Reply(Message::Pong { token }),
                "{row}"
            );
        }

        drop(socket);
        drop(station);
        let _ = std::fs::remove_dir_all(&store_root);
    }

    /// A session's attached pixels stay within `MAX_SESSION_PIXELS` over
    /// both chip kinds: attaching past it is refused with `Overloaded`, a
    /// `Detach` returns the chip's pixels, and the session serves on.
    #[test]
    fn attached_pixels_stay_within_the_session_budget() {
        let station = Station::bind(StationConfig::default()).unwrap();
        let mut socket = TcpStream::connect(station.addr()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let neuro = |rows: usize, cols: usize| {
            Message::AttachNeuro(NeuroChipSpec {
                rows: u16::try_from(rows).unwrap(),
                cols: u16::try_from(cols).unwrap(),
                channels: 1,
                seed: 1,
                frame_rate_hz: 0.0,
            })
        };
        let dna = Message::AttachDna(DnaChipSpec {
            rows: 16,
            cols: 16,
            seed: 1,
            frame_time_s: 0.0,
        });
        // A DNA chip and two neuro chips fill the budget exactly.
        let half = MAX_SESSION_PIXELS / 2;
        let rest_rows = (half - 16 * 16) / 128;
        assert_eq!(16 * 16 + half + rest_rows * 128, MAX_SESSION_PIXELS);
        attached_chip(serve(&mut socket, &dna));
        let big = attached_chip(serve(&mut socket, &neuro(128, half / 128)));
        attached_chip(serve(&mut socket, &neuro(rest_rows, 128)));
        // One more chip of either kind is over budget.
        let over = Served::Refused(ErrorCode::Overloaded);
        assert_eq!(serve(&mut socket, &neuro(1, 1)), over);
        assert_eq!(serve(&mut socket, &dna), over);
        // Detaching returns the chip's pixels to the budget.
        assert_eq!(
            serve(&mut socket, &Message::Detach { chip: big }),
            Served::Reply(Message::Detached { chip: big })
        );
        attached_chip(serve(&mut socket, &neuro(128, 128)));
        attached_chip(serve(&mut socket, &dna));
        let ping = Message::Ping { token: 7 };
        assert_eq!(
            serve(&mut socket, &ping),
            Served::Reply(Message::Pong { token: 7 })
        );
    }

    /// Deterministic backpressure accounting at the queue level, no TCP:
    /// with a capacity-2 queue and no consumer, the first two chunks are
    /// accepted and every further offer is dropped — and the drop is
    /// visible in the stats.
    #[test]
    fn full_queue_drops_are_counted_not_buffered() {
        let stats = Arc::new(StationStats::default());
        let (tx, _rx) = sync_channel(2);
        let out = Outbound {
            tx,
            stats: Arc::clone(&stats),
        };
        let mut sent = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match out.offer_stream(encode_frame(&Message::Ack)).unwrap() {
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
        let (tx, rx) = sync_channel(1);
        drop(rx);
        let out = Outbound {
            tx,
            stats: Arc::clone(&stats),
        };
        assert!(out.send_control(Message::Ack).is_err());
        assert!(out.offer_stream(encode_frame(&Message::Ack)).is_err());
        assert_eq!(stats.queue_depth.get(), 0);
    }

    /// Frames still queued when the writer exits release their
    /// `queue_depth` slots with the queue, so the gauge falls back to 0
    /// and a later `queue_peak` is not read high.
    #[test]
    fn frames_left_in_a_dropped_queue_release_their_depth() {
        let stats = Arc::new(StationStats::default());
        let (tx, rx) = sync_channel(4);
        let out = Outbound {
            tx,
            stats: Arc::clone(&stats),
        };
        for _ in 0..3 {
            let offer = out.offer_stream(encode_frame(&Message::Ack));
            assert!(matches!(offer, Ok(Offer::Sent)));
        }
        assert_eq!(stats.queue_depth.get(), 3);
        drop(rx);
        drop(out);
        assert_eq!(stats.queue_depth.get(), 0);
        assert_eq!(stats.snapshot().queue_peak, 3);
    }
}
