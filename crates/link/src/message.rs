//! Typed protocol messages and their binary payload codec.
//!
//! Every message is a tagged union: a one-byte tag followed by the
//! variant's fields in declaration order, little-endian, with `f64`
//! carried as IEEE-754 bits, strings and vectors length-prefixed by a
//! `u32`, as [`crate::wire`] lays them out. Element counts are validated
//! against the bytes remaining in the payload *before* any allocation, so
//! a corrupted count cannot balloon memory. Decoding is total: every
//! outcome is `Ok` or a typed [`ProtocolError`].
//!
//! The request/response pairing (client → station, station → client):
//!
//! | Request              | Response(s)                                |
//! |----------------------|--------------------------------------------|
//! | `Hello`              | `HelloAck`                                 |
//! | `Ping`               | `Pong`                                     |
//! | `AttachDna`/`Neuro`  | `Attached`                                 |
//! | `Detach`             | `Detached`                                 |
//! | `ConfigureAssay`     | `Ack`                                      |
//! | `Calibrate`          | `CalibrationDone`                          |
//! | `InjectFaults`       | `Ack`                                      |
//! | `QueryHealth`        | `HealthReport`                             |
//! | `MaskPixels`         | `Masked`                                   |
//! | `RunAssay`           | (`StreamData`* `StreamEnd`)? `AssayResult` |
//! | `StartNeuroStream`   | `StreamData`* `StreamEnd`                  |
//! | `QueryStats`         | `StatsReport`                              |
//! | `StartRecording`     | `RecordingStarted`                         |
//! | `StopRecording`      | `RecordingStopped`                         |
//! | `ListRecordings`     | `RecordingList`                            |
//! | `Replay`             | `StreamData`* `StreamEnd`                  |
//! | any                  | `ErrorReply` on failure                    |

use crate::error::ProtocolError;
use crate::wire::{Codec, Reader, Writer, COUNT_LEN};

/// Station-assigned handle for an attached chip, scoped to one session.
pub type ChipId = u32;

/// Which of the paper's two sensor arrays a chip handle refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipKind {
    /// 16×8 DNA microarray with in-pixel current-to-frequency conversion.
    Dna,
    /// 128×128 neural-recording array.
    Neuro,
}

/// Parameters for attaching a simulated DNA chip.
#[derive(Debug, Clone, PartialEq)]
pub struct DnaChipSpec {
    /// Sensor rows (0 selects the paper default, 8).
    pub rows: u16,
    /// Sensor columns (0 selects the paper default, 16).
    pub cols: u16,
    /// Master seed for the chip's deterministic RNG streams.
    pub seed: u64,
    /// Measurement window per frame in seconds (NaN/≤0 selects default).
    pub frame_time_s: f64,
}

/// Parameters for attaching a simulated neural-recording chip.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuroChipSpec {
    /// Sensor rows (0 selects the paper default, 128).
    pub rows: u16,
    /// Sensor columns (0 selects the paper default, 128).
    pub cols: u16,
    /// Parallel readout channels (0 selects the paper default, 16).
    pub channels: u16,
    /// Master seed for the chip's deterministic RNG streams.
    pub seed: u64,
    /// Frame rate in Hz (NaN/≤0 selects the paper default, 2 kHz).
    pub frame_rate_hz: f64,
}

/// Parameters for the simulated culture a neuro stream records from.
#[derive(Debug, Clone, PartialEq)]
pub struct CultureSpec {
    /// Seed for culture geometry and spike-train generation.
    pub seed: u64,
    /// Number of neurons to scatter over the array (0 selects default).
    pub neuron_count: u32,
    /// Length of pre-generated spike activity, in seconds.
    pub spike_duration_s: f64,
}

/// One analyte in a `ConfigureAssay` sample mix.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    /// Target DNA sequence (A/C/G/T).
    pub sequence: String,
    /// Concentration in mol/L.
    pub concentration_molar: f64,
}

/// One pixel's count reading in a streamed DNA chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelCount {
    /// Sensor row.
    pub row: u16,
    /// Sensor column.
    pub col: u16,
    /// Event count accumulated over the measurement window.
    pub count: u64,
}

/// The data body of a `StreamData` message.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamPayload {
    /// A chunk of consecutive neuro frames, row-major samples
    /// concatenated frame after frame (`samples.len()` is a multiple of
    /// `rows * cols`).
    NeuroFrames {
        /// Index of the first frame in this chunk within the stream.
        first_frame: u32,
        /// Frame height in pixels.
        rows: u16,
        /// Frame width in pixels.
        cols: u16,
        /// IEEE-754 sample values, bit-exact.
        samples: Vec<f64>,
    },
    /// A chunk of DNA pixel count readings.
    DnaCounts {
        /// Per-pixel readings, in chip scan order.
        readings: Vec<PixelCount>,
    },
}

/// Where a fault entry lands on the array (mirrors
/// `bsa_faults::InjectionPlan` targets without depending on the crate).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTargetSpec {
    /// A single pixel.
    Pixel {
        /// Sensor row.
        row: u16,
        /// Sensor column.
        col: u16,
    },
    /// A random subset of the array at the given defect density (0..=1).
    ArrayWide {
        /// Fraction of pixels affected.
        density: f64,
    },
    /// A chip-global fault (channel loss, serial bit errors).
    Global,
}

/// Wire mirror of `bsa_faults::FaultKind`.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKindSpec {
    /// Pixel produces no signal at all.
    DeadPixel,
    /// Counter output stuck at a fixed value.
    StuckCount {
        /// The stuck count value.
        count: u64,
    },
    /// Electrode leaks a constant parasitic current.
    LeakyElectrode {
        /// Leakage in amperes.
        leakage_a: f64,
    },
    /// Comparator threshold shifted by an offset.
    ComparatorDrift {
        /// Offset in volts.
        offset_v: f64,
    },
    /// Comparator output stuck high or low.
    ComparatorStuck {
        /// `true` = stuck high, `false` = stuck low.
        high: bool,
    },
    /// Calibration DAC saturates at a fraction of full scale.
    DacSaturation {
        /// Saturation limit as a fraction of full scale (0..=1).
        limit: f64,
    },
    /// Readout amplifier clips beyond a voltage limit.
    GainClipping {
        /// Clipping limit in volts.
        limit_v: f64,
    },
    /// An entire readout channel is lost.
    ChannelLoss {
        /// Channel index.
        channel: u32,
    },
    /// Serial link flips bits at the given rate.
    SerialBitErrors {
        /// Per-bit error probability (0..=1).
        rate: f64,
    },
}

/// One (target, kind) pair in a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEntrySpec {
    /// Where the fault lands.
    pub target: FaultTargetSpec,
    /// What the fault does.
    pub kind: FaultKindSpec,
}

/// Wire form of a `bsa_faults::InjectionPlan`: the station rebuilds the
/// plan with the builder API and compiles it against the chip geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanSpec {
    /// Seed for stochastic placement (array-wide densities, bit errors).
    pub seed: u64,
    /// The fault entries, applied in order.
    pub entries: Vec<FaultEntrySpec>,
}

/// Wire mirror of `bsa_core::health::SerialLinkStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SerialLinkSummary {
    /// Words accepted on first read.
    pub clean_words: u64,
    /// Words recovered by re-read.
    pub recovered_words: u64,
    /// Words lost after exhausting re-reads.
    pub unrecovered_words: u64,
    /// Total re-read attempts issued.
    pub rereads: u64,
}

/// Wire mirror of `bsa_core::health::DegradationMode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationSummary {
    /// All pixels and channels nominal.
    FullPerformance,
    /// Usable with masked pixels / reduced channels.
    Degraded,
    /// Yield below the usable floor.
    Unusable,
}

/// Wire mirror of `bsa_core::health::YieldReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YieldSummary {
    /// Pixels on the array.
    pub total_pixels: u32,
    /// Pixels classified healthy.
    pub healthy: u32,
    /// Pixels out of calibration family.
    pub out_of_family: u32,
    /// Dead pixels.
    pub dead: u32,
    /// Indices of lost readout channels.
    pub lost_channels: Vec<u32>,
    /// Total readout channels.
    pub total_channels: u32,
    /// Faults injected by test plans.
    pub injected: u32,
    /// Serial-link error accounting.
    pub serial: SerialLinkSummary,
    /// Overall degradation classification.
    pub degradation: DegradationSummary,
}

/// Station-wide counters returned by `QueryStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Sessions accepted since startup.
    pub sessions_opened: u64,
    /// Sessions currently connected.
    pub sessions_active: u64,
    /// Chips attached across all sessions since startup.
    pub chips_attached: u64,
    /// Requests handled.
    pub requests: u64,
    /// Frames delivered into session queues.
    pub frames_served: u64,
    /// Frames dropped by backpressure on slow consumers.
    pub frames_dropped: u64,
    /// Stream chunks enqueued.
    pub chunks_sent: u64,
    /// Payload bytes written to sockets.
    pub bytes_sent: u64,
    /// High-water mark of any session's outbound queue depth.
    pub queue_peak: u64,
}

/// Error classes a station reports in an `ErrorReply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Request malformed or semantically invalid.
    BadRequest,
    /// No chip with that id in this session.
    UnknownChip,
    /// Operation targets the other chip kind.
    WrongChipKind,
    /// The chip model rejected the operation.
    ChipError,
    /// Server at capacity; retry later.
    Overloaded,
    /// Unexpected server-side failure.
    Internal,
    /// The recording store rejected the operation (missing, corrupt, or
    /// not configured).
    StoreError,
}

/// Summary of one on-disk recording, as reported by `RecordingList`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingEntry {
    /// Recording name (store-scoped, unique).
    pub name: String,
    /// Which array kind produced the frames.
    pub kind: ChipKind,
    /// Frame height in pixels at record time.
    pub rows: u16,
    /// Frame width in pixels at record time.
    pub cols: u16,
    /// Frames (or DNA readings) persisted.
    pub frames: u64,
    /// Segment file size in bytes.
    pub bytes: u64,
    /// FNV-1a-64 hash of the recorded chip's config snapshot.
    pub config_hash: u64,
}

/// A protocol message — see the module docs for the request/response map.
///
/// Deliberately exhaustive: the station's dispatch and the golden
/// `abi_lock` test match every variant with no `_` arm, so adding one
/// fails to compile until it is served and locked.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client greeting; first message on a connection.
    Hello {
        /// Free-form client identity string.
        client: String,
    },
    /// Station's reply to `Hello`.
    HelloAck {
        /// Free-form server identity string.
        server: String,
        /// Protocol version the server speaks.
        version: u8,
    },
    /// Liveness probe.
    Ping {
        /// Echo token.
        token: u64,
    },
    /// Reply to `Ping` carrying the same token.
    Pong {
        /// Echoed token.
        token: u64,
    },
    /// Attach a simulated DNA chip to this session.
    AttachDna(DnaChipSpec),
    /// Attach a simulated neural-recording chip to this session.
    AttachNeuro(NeuroChipSpec),
    /// A chip was attached.
    Attached {
        /// Session-scoped chip handle.
        chip: ChipId,
        /// Which array kind was attached.
        kind: ChipKind,
        /// Array rows actually configured.
        rows: u16,
        /// Array columns actually configured.
        cols: u16,
    },
    /// Detach and drop a chip.
    Detach {
        /// Chip handle to drop.
        chip: ChipId,
    },
    /// A chip was detached.
    Detached {
        /// The dropped handle.
        chip: ChipId,
    },
    /// Functionalise a DNA chip with probes and set the sample mix.
    ConfigureAssay {
        /// DNA chip handle.
        chip: ChipId,
        /// Probe sequences, assigned in chip scan order.
        probes: Vec<String>,
        /// Analytes present in the sample.
        targets: Vec<TargetSpec>,
    },
    /// Run the chip's calibration loop.
    Calibrate {
        /// Chip handle.
        chip: ChipId,
    },
    /// Calibration finished.
    CalibrationDone {
        /// Chip handle.
        chip: ChipId,
        /// Pixels healthy after calibration.
        healthy: u32,
        /// Pixels out of family.
        out_of_family: u32,
        /// Dead pixels.
        dead: u32,
    },
    /// Apply a fault-injection plan to a chip.
    InjectFaults {
        /// Chip handle.
        chip: ChipId,
        /// The plan to compile and apply.
        plan: FaultPlanSpec,
    },
    /// Ask for the chip's yield report.
    QueryHealth {
        /// Chip handle.
        chip: ChipId,
    },
    /// Yield report for a chip.
    HealthReport {
        /// Chip handle.
        chip: ChipId,
        /// The report.
        report: YieldSummary,
    },
    /// Mark pixels unusable so streamed frames interpolate over them.
    /// Indices are row-major (`row * cols + col`); repeated requests
    /// union with the pixels already masked for the chip.
    MaskPixels {
        /// Chip handle.
        chip: ChipId,
        /// Row-major pixel indices to mask.
        pixels: Vec<u32>,
    },
    /// Reply to `MaskPixels` with the mask size after the union.
    Masked {
        /// Chip handle.
        chip: ChipId,
        /// Total pixels masked for this chip after applying the request.
        masked: u32,
    },
    /// Run a DNA assay on the configured sample.
    RunAssay {
        /// DNA chip handle.
        chip: ChipId,
        /// Also stream per-pixel counts as `StreamData` chunks.
        stream_counts: bool,
    },
    /// Final result of a DNA assay.
    AssayResult {
        /// Chip handle.
        chip: ChipId,
        /// Per-pixel event counts in scan order.
        counts: Vec<u64>,
        /// Estimated sensor currents in amperes, scan order.
        estimated_currents_a: Vec<f64>,
    },
    /// Record and stream frames from a neuro chip.
    StartNeuroStream {
        /// Neuro chip handle.
        chip: ChipId,
        /// Total frames to record.
        frames: u32,
        /// Frames per `StreamData` chunk (0 selects the server default).
        /// The station clamps it so that one chunk fits [`MAX_PAYLOAD`]
        /// (127 frames at 128×128).
        ///
        /// [`MAX_PAYLOAD`]: crate::MAX_PAYLOAD
        chunk_frames: u32,
        /// Recording start time on the chip's deterministic clock, seconds.
        t0_s: f64,
        /// The culture to record from.
        culture: CultureSpec,
    },
    /// One chunk of streamed acquisition data.
    StreamData {
        /// Chip handle the data came from.
        chip: ChipId,
        /// Chunk sequence number within the stream, starting at 0.
        seq: u32,
        /// The data.
        payload: StreamPayload,
    },
    /// End of a stream, with delivery accounting.
    StreamEnd {
        /// Chip handle.
        chip: ChipId,
        /// Frames (or DNA readings) delivered into the session queue.
        frames_sent: u32,
        /// Frames (or DNA readings) dropped by backpressure.
        frames_dropped: u32,
    },
    /// Ask for station-wide counters.
    QueryStats,
    /// Station-wide counters.
    StatsReport(StatsSnapshot),
    /// Generic success for requests with no richer response.
    Ack,
    /// Request failed.
    ErrorReply {
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Start persisting a chip's streamed frames to the station's store
    /// under the given name.
    StartRecording {
        /// Chip handle whose streams should be persisted.
        chip: ChipId,
        /// Store-scoped recording name (`[A-Za-z0-9._-]`, non-empty).
        name: String,
    },
    /// The recording is live: subsequent streams from the chip are teed
    /// to disk until `StopRecording` (or session end) finalises it.
    RecordingStarted {
        /// Chip handle being recorded.
        chip: ChipId,
        /// The accepted recording name.
        name: String,
    },
    /// Finalise the chip's active recording.
    StopRecording {
        /// Chip handle being recorded.
        chip: ChipId,
    },
    /// Recording finalised, with persistence accounting (the store's own
    /// bounded queue drops-and-counts, mirroring `StreamEnd`).
    RecordingStopped {
        /// Chip handle that was recorded.
        chip: ChipId,
        /// The finalised recording's name.
        name: String,
        /// Frames (or DNA readings) persisted to the segment.
        frames_written: u64,
        /// Frames dropped by store backpressure.
        frames_dropped: u64,
        /// Segment file size in bytes, index footer included.
        bytes_written: u64,
    },
    /// List recordings in the station's store.
    ListRecordings,
    /// The store catalog.
    RecordingList {
        /// One entry per readable recording, sorted by name.
        recordings: Vec<RecordingEntry>,
    },
    /// Replay a stored recording as a stream. The station answers with
    /// the same `StreamData`* `StreamEnd` grammar a live chip produces.
    Replay {
        /// Recording name from the catalog.
        name: String,
        /// Frames (or readings) per chunk (0 selects the server default).
        /// The station clamps it so that one chunk fits [`MAX_PAYLOAD`]
        /// (127 frames at 128×128).
        ///
        /// [`MAX_PAYLOAD`]: crate::MAX_PAYLOAD
        chunk_frames: u32,
    },
}

// Payload tags. Gaps are reserved for future messages.
const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_PONG: u8 = 0x04;
const TAG_ATTACH_DNA: u8 = 0x05;
const TAG_ATTACH_NEURO: u8 = 0x06;
const TAG_ATTACHED: u8 = 0x07;
const TAG_DETACH: u8 = 0x08;
const TAG_DETACHED: u8 = 0x09;
const TAG_CONFIGURE_ASSAY: u8 = 0x0A;
const TAG_CALIBRATE: u8 = 0x0B;
const TAG_CALIBRATION_DONE: u8 = 0x0C;
const TAG_INJECT_FAULTS: u8 = 0x0D;
const TAG_QUERY_HEALTH: u8 = 0x0E;
const TAG_HEALTH_REPORT: u8 = 0x0F;
const TAG_RUN_ASSAY: u8 = 0x10;
const TAG_ASSAY_RESULT: u8 = 0x11;
const TAG_START_NEURO_STREAM: u8 = 0x12;
const TAG_STREAM_DATA: u8 = 0x13;
const TAG_STREAM_END: u8 = 0x14;
const TAG_QUERY_STATS: u8 = 0x15;
const TAG_STATS_REPORT: u8 = 0x16;
const TAG_ACK: u8 = 0x17;
const TAG_ERROR_REPLY: u8 = 0x18;
const TAG_MASK_PIXELS: u8 = 0x19;
const TAG_MASKED: u8 = 0x1A;
const TAG_START_RECORDING: u8 = 0x1B;
const TAG_RECORDING_STARTED: u8 = 0x1C;
const TAG_STOP_RECORDING: u8 = 0x1D;
const TAG_RECORDING_STOPPED: u8 = 0x1E;
const TAG_LIST_RECORDINGS: u8 = 0x1F;
const TAG_RECORDING_LIST: u8 = 0x20;
const TAG_REPLAY: u8 = 0x21;

impl Codec for ChipKind {
    const MIN_LEN: usize = u8::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Self::Dna => 0,
            Self::Neuro => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0 => Ok(Self::Dna),
            1 => Ok(Self::Neuro),
            tag => Err(ProtocolError::UnknownTag {
                what: "ChipKind",
                tag,
            }),
        }
    }
}

impl DnaChipSpec {
    fn encode(&self, w: &mut Writer) {
        w.u16(self.rows);
        w.u16(self.cols);
        w.u64(self.seed);
        w.f64(self.frame_time_s);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            rows: r.u16()?,
            cols: r.u16()?,
            seed: r.u64()?,
            frame_time_s: r.f64()?,
        })
    }
}

impl NeuroChipSpec {
    fn encode(&self, w: &mut Writer) {
        w.u16(self.rows);
        w.u16(self.cols);
        w.u16(self.channels);
        w.u64(self.seed);
        w.f64(self.frame_rate_hz);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            rows: r.u16()?,
            cols: r.u16()?,
            channels: r.u16()?,
            seed: r.u64()?,
            frame_rate_hz: r.f64()?,
        })
    }
}

impl CultureSpec {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.seed);
        w.u32(self.neuron_count);
        w.f64(self.spike_duration_s);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            seed: r.u64()?,
            neuron_count: r.u32()?,
            spike_duration_s: r.f64()?,
        })
    }
}

impl Codec for TargetSpec {
    const MIN_LEN: usize = String::MIN_LEN + f64::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        w.string(&self.sequence);
        w.f64(self.concentration_molar);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            sequence: r.string()?,
            concentration_molar: r.f64()?,
        })
    }
}

impl Codec for PixelCount {
    const MIN_LEN: usize = 2 * u16::MIN_LEN + u64::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        w.u16(self.row);
        w.u16(self.col);
        w.u64(self.count);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            row: r.u16()?,
            col: r.u16()?,
            count: r.u64()?,
        })
    }
}

impl StreamPayload {
    fn encode(&self, w: &mut Writer) {
        match self {
            Self::NeuroFrames {
                first_frame,
                rows,
                cols,
                samples,
            } => {
                w.u8(0);
                w.u32(*first_frame);
                w.u16(*rows);
                w.u16(*cols);
                w.seq(samples);
            }
            Self::DnaCounts { readings } => {
                w.u8(1);
                w.seq(readings);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0 => Ok(Self::NeuroFrames {
                first_frame: r.u32()?,
                rows: r.u16()?,
                cols: r.u16()?,
                samples: r.seq("NeuroFrames.samples")?,
            }),
            1 => Ok(Self::DnaCounts {
                readings: r.seq("DnaCounts.readings")?,
            }),
            tag => Err(ProtocolError::UnknownTag {
                what: "StreamPayload",
                tag,
            }),
        }
    }
}

impl Codec for FaultTargetSpec {
    const MIN_LEN: usize = u8::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        match self {
            Self::Pixel { row, col } => {
                w.u8(0);
                w.u16(*row);
                w.u16(*col);
            }
            Self::ArrayWide { density } => {
                w.u8(1);
                w.f64(*density);
            }
            Self::Global => w.u8(2),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0 => Ok(Self::Pixel {
                row: r.u16()?,
                col: r.u16()?,
            }),
            1 => Ok(Self::ArrayWide { density: r.f64()? }),
            2 => Ok(Self::Global),
            tag => Err(ProtocolError::UnknownTag {
                what: "FaultTargetSpec",
                tag,
            }),
        }
    }
}

impl Codec for FaultKindSpec {
    const MIN_LEN: usize = u8::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        match self {
            Self::DeadPixel => w.u8(0),
            Self::StuckCount { count } => {
                w.u8(1);
                w.u64(*count);
            }
            Self::LeakyElectrode { leakage_a } => {
                w.u8(2);
                w.f64(*leakage_a);
            }
            Self::ComparatorDrift { offset_v } => {
                w.u8(3);
                w.f64(*offset_v);
            }
            Self::ComparatorStuck { high } => {
                w.u8(4);
                w.bool(*high);
            }
            Self::DacSaturation { limit } => {
                w.u8(5);
                w.f64(*limit);
            }
            Self::GainClipping { limit_v } => {
                w.u8(6);
                w.f64(*limit_v);
            }
            Self::ChannelLoss { channel } => {
                w.u8(7);
                w.u32(*channel);
            }
            Self::SerialBitErrors { rate } => {
                w.u8(8);
                w.f64(*rate);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0 => Ok(Self::DeadPixel),
            1 => Ok(Self::StuckCount { count: r.u64()? }),
            2 => Ok(Self::LeakyElectrode {
                leakage_a: r.f64()?,
            }),
            3 => Ok(Self::ComparatorDrift { offset_v: r.f64()? }),
            4 => Ok(Self::ComparatorStuck { high: r.bool()? }),
            5 => Ok(Self::DacSaturation { limit: r.f64()? }),
            6 => Ok(Self::GainClipping { limit_v: r.f64()? }),
            7 => Ok(Self::ChannelLoss { channel: r.u32()? }),
            8 => Ok(Self::SerialBitErrors { rate: r.f64()? }),
            tag => Err(ProtocolError::UnknownTag {
                what: "FaultKindSpec",
                tag,
            }),
        }
    }
}

impl Codec for FaultEntrySpec {
    const MIN_LEN: usize = FaultTargetSpec::MIN_LEN + FaultKindSpec::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        self.target.encode(w);
        self.kind.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            target: FaultTargetSpec::decode(r)?,
            kind: FaultKindSpec::decode(r)?,
        })
    }
}

impl FaultPlanSpec {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.seed);
        w.seq(&self.entries);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            seed: r.u64()?,
            entries: r.seq("FaultPlanSpec.entries")?,
        })
    }
}

impl SerialLinkSummary {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.clean_words);
        w.u64(self.recovered_words);
        w.u64(self.unrecovered_words);
        w.u64(self.rereads);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            clean_words: r.u64()?,
            recovered_words: r.u64()?,
            unrecovered_words: r.u64()?,
            rereads: r.u64()?,
        })
    }
}

impl DegradationSummary {
    fn encode(self, w: &mut Writer) {
        w.u8(match self {
            Self::FullPerformance => 0,
            Self::Degraded => 1,
            Self::Unusable => 2,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0 => Ok(Self::FullPerformance),
            1 => Ok(Self::Degraded),
            2 => Ok(Self::Unusable),
            tag => Err(ProtocolError::UnknownTag {
                what: "DegradationSummary",
                tag,
            }),
        }
    }
}

impl YieldSummary {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.total_pixels);
        w.u32(self.healthy);
        w.u32(self.out_of_family);
        w.u32(self.dead);
        w.seq(&self.lost_channels);
        w.u32(self.total_channels);
        w.u32(self.injected);
        self.serial.encode(w);
        self.degradation.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            total_pixels: r.u32()?,
            healthy: r.u32()?,
            out_of_family: r.u32()?,
            dead: r.u32()?,
            lost_channels: r.seq("YieldSummary.lost_channels")?,
            total_channels: r.u32()?,
            injected: r.u32()?,
            serial: SerialLinkSummary::decode(r)?,
            degradation: DegradationSummary::decode(r)?,
        })
    }
}

impl StatsSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.sessions_opened);
        w.u64(self.sessions_active);
        w.u64(self.chips_attached);
        w.u64(self.requests);
        w.u64(self.frames_served);
        w.u64(self.frames_dropped);
        w.u64(self.chunks_sent);
        w.u64(self.bytes_sent);
        w.u64(self.queue_peak);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            sessions_opened: r.u64()?,
            sessions_active: r.u64()?,
            chips_attached: r.u64()?,
            requests: r.u64()?,
            frames_served: r.u64()?,
            frames_dropped: r.u64()?,
            chunks_sent: r.u64()?,
            bytes_sent: r.u64()?,
            queue_peak: r.u64()?,
        })
    }
}

impl ErrorCode {
    fn encode(self, w: &mut Writer) {
        w.u8(match self {
            Self::BadRequest => 0,
            Self::UnknownChip => 1,
            Self::WrongChipKind => 2,
            Self::ChipError => 3,
            Self::Overloaded => 4,
            Self::Internal => 5,
            Self::StoreError => 6,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0 => Ok(Self::BadRequest),
            1 => Ok(Self::UnknownChip),
            2 => Ok(Self::WrongChipKind),
            3 => Ok(Self::ChipError),
            4 => Ok(Self::Overloaded),
            5 => Ok(Self::Internal),
            6 => Ok(Self::StoreError),
            tag => Err(ProtocolError::UnknownTag {
                what: "ErrorCode",
                tag,
            }),
        }
    }
}

impl Codec for RecordingEntry {
    const MIN_LEN: usize =
        String::MIN_LEN + ChipKind::MIN_LEN + 2 * u16::MIN_LEN + 3 * u64::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        w.string(&self.name);
        self.kind.encode(w);
        w.u16(self.rows);
        w.u16(self.cols);
        w.u64(self.frames);
        w.u64(self.bytes);
        w.u64(self.config_hash);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(Self {
            name: r.string()?,
            kind: ChipKind::decode(r)?,
            rows: r.u16()?,
            cols: r.u16()?,
            frames: r.u64()?,
            bytes: r.u64()?,
            config_hash: r.u64()?,
        })
    }
}

/// Bytes of a `StreamData` message before its payload's fields: message
/// tag, chip, seq and payload tag.
const CHUNK_HEAD: usize = u8::MIN_LEN + ChipId::MIN_LEN + u32::MIN_LEN + u8::MIN_LEN;

/// Bytes of a `StreamData` message of `NeuroFrames` besides its samples.
pub const NEURO_CHUNK_HEAD: usize = CHUNK_HEAD + u32::MIN_LEN + 2 * u16::MIN_LEN + COUNT_LEN;

/// Bytes of a `StreamData` message of `DnaCounts` besides its readings.
pub const DNA_CHUNK_HEAD: usize = CHUNK_HEAD + COUNT_LEN;

/// Bytes of an `AssayResult` message besides its counts and currents.
pub const ASSAY_RESULT_HEAD: usize = u8::MIN_LEN + ChipId::MIN_LEN + 2 * COUNT_LEN;

impl Message {
    /// Bytes [`Self::encode_payload`] writes for a stream chunk, the one
    /// message whose size scales with the data; other messages get a
    /// small start that grows as needed.
    fn payload_len_hint(&self) -> usize {
        match self {
            Self::StreamData {
                payload: StreamPayload::NeuroFrames { samples, .. },
                ..
            } => NEURO_CHUNK_HEAD + samples.len() * f64::MIN_LEN,
            Self::StreamData {
                payload: StreamPayload::DnaCounts { readings },
                ..
            } => DNA_CHUNK_HEAD + readings.len() * PixelCount::MIN_LEN,
            _ => 64,
        }
    }

    /// Serialises the message body (tag + fields) without framing.
    /// [`crate::encode_frame`] wraps this in magic/version/length/CRC.
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        self.encode_after(0)
    }

    /// Serialises the message body behind `head` zero bytes, in one
    /// buffer with room for a one-byte trailer as well, so that
    /// [`crate::encode_frame`] fills in the header and appends the CRC
    /// without moving the body or allocating again.
    pub(crate) fn encode_after(&self, head: usize) -> Vec<u8> {
        let mut w = Writer::with_capacity(head + self.payload_len_hint() + 1);
        w.zeros(head);
        match self {
            Self::Hello { client } => {
                w.u8(TAG_HELLO);
                w.string(client);
            }
            Self::HelloAck { server, version } => {
                w.u8(TAG_HELLO_ACK);
                w.string(server);
                w.u8(*version);
            }
            Self::Ping { token } => {
                w.u8(TAG_PING);
                w.u64(*token);
            }
            Self::Pong { token } => {
                w.u8(TAG_PONG);
                w.u64(*token);
            }
            Self::AttachDna(spec) => {
                w.u8(TAG_ATTACH_DNA);
                spec.encode(&mut w);
            }
            Self::AttachNeuro(spec) => {
                w.u8(TAG_ATTACH_NEURO);
                spec.encode(&mut w);
            }
            Self::Attached {
                chip,
                kind,
                rows,
                cols,
            } => {
                w.u8(TAG_ATTACHED);
                w.u32(*chip);
                kind.encode(&mut w);
                w.u16(*rows);
                w.u16(*cols);
            }
            Self::Detach { chip } => {
                w.u8(TAG_DETACH);
                w.u32(*chip);
            }
            Self::Detached { chip } => {
                w.u8(TAG_DETACHED);
                w.u32(*chip);
            }
            Self::ConfigureAssay {
                chip,
                probes,
                targets,
            } => {
                w.u8(TAG_CONFIGURE_ASSAY);
                w.u32(*chip);
                w.seq(probes);
                w.seq(targets);
            }
            Self::Calibrate { chip } => {
                w.u8(TAG_CALIBRATE);
                w.u32(*chip);
            }
            Self::CalibrationDone {
                chip,
                healthy,
                out_of_family,
                dead,
            } => {
                w.u8(TAG_CALIBRATION_DONE);
                w.u32(*chip);
                w.u32(*healthy);
                w.u32(*out_of_family);
                w.u32(*dead);
            }
            Self::InjectFaults { chip, plan } => {
                w.u8(TAG_INJECT_FAULTS);
                w.u32(*chip);
                plan.encode(&mut w);
            }
            Self::QueryHealth { chip } => {
                w.u8(TAG_QUERY_HEALTH);
                w.u32(*chip);
            }
            Self::HealthReport { chip, report } => {
                w.u8(TAG_HEALTH_REPORT);
                w.u32(*chip);
                report.encode(&mut w);
            }
            Self::MaskPixels { chip, pixels } => {
                w.u8(TAG_MASK_PIXELS);
                w.u32(*chip);
                w.seq(pixels);
            }
            Self::Masked { chip, masked } => {
                w.u8(TAG_MASKED);
                w.u32(*chip);
                w.u32(*masked);
            }
            Self::RunAssay {
                chip,
                stream_counts,
            } => {
                w.u8(TAG_RUN_ASSAY);
                w.u32(*chip);
                w.bool(*stream_counts);
            }
            Self::AssayResult {
                chip,
                counts,
                estimated_currents_a,
            } => {
                w.u8(TAG_ASSAY_RESULT);
                w.u32(*chip);
                w.seq(counts);
                w.seq(estimated_currents_a);
            }
            Self::StartNeuroStream {
                chip,
                frames,
                chunk_frames,
                t0_s,
                culture,
            } => {
                w.u8(TAG_START_NEURO_STREAM);
                w.u32(*chip);
                w.u32(*frames);
                w.u32(*chunk_frames);
                w.f64(*t0_s);
                culture.encode(&mut w);
            }
            Self::StreamData { chip, seq, payload } => {
                w.u8(TAG_STREAM_DATA);
                w.u32(*chip);
                w.u32(*seq);
                payload.encode(&mut w);
            }
            Self::StreamEnd {
                chip,
                frames_sent,
                frames_dropped,
            } => {
                w.u8(TAG_STREAM_END);
                w.u32(*chip);
                w.u32(*frames_sent);
                w.u32(*frames_dropped);
            }
            Self::QueryStats => w.u8(TAG_QUERY_STATS),
            Self::StatsReport(stats) => {
                w.u8(TAG_STATS_REPORT);
                stats.encode(&mut w);
            }
            Self::Ack => w.u8(TAG_ACK),
            Self::ErrorReply { code, message } => {
                w.u8(TAG_ERROR_REPLY);
                code.encode(&mut w);
                w.string(message);
            }
            Self::StartRecording { chip, name } => {
                w.u8(TAG_START_RECORDING);
                w.u32(*chip);
                w.string(name);
            }
            Self::RecordingStarted { chip, name } => {
                w.u8(TAG_RECORDING_STARTED);
                w.u32(*chip);
                w.string(name);
            }
            Self::StopRecording { chip } => {
                w.u8(TAG_STOP_RECORDING);
                w.u32(*chip);
            }
            Self::RecordingStopped {
                chip,
                name,
                frames_written,
                frames_dropped,
                bytes_written,
            } => {
                w.u8(TAG_RECORDING_STOPPED);
                w.u32(*chip);
                w.string(name);
                w.u64(*frames_written);
                w.u64(*frames_dropped);
                w.u64(*bytes_written);
            }
            Self::ListRecordings => w.u8(TAG_LIST_RECORDINGS),
            Self::RecordingList { recordings } => {
                w.u8(TAG_RECORDING_LIST);
                w.seq(recordings);
            }
            Self::Replay { name, chunk_frames } => {
                w.u8(TAG_REPLAY);
                w.string(name);
                w.u32(*chunk_frames);
            }
        }
        w.into_bytes()
    }

    /// Decodes a message body produced by [`Self::encode_payload`].
    ///
    /// Total: every malformed payload yields a typed [`ProtocolError`];
    /// trailing bytes after a complete message are rejected.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => Self::Hello {
                client: r.string()?,
            },
            TAG_HELLO_ACK => Self::HelloAck {
                server: r.string()?,
                version: r.u8()?,
            },
            TAG_PING => Self::Ping { token: r.u64()? },
            TAG_PONG => Self::Pong { token: r.u64()? },
            TAG_ATTACH_DNA => Self::AttachDna(DnaChipSpec::decode(&mut r)?),
            TAG_ATTACH_NEURO => Self::AttachNeuro(NeuroChipSpec::decode(&mut r)?),
            TAG_ATTACHED => Self::Attached {
                chip: r.u32()?,
                kind: ChipKind::decode(&mut r)?,
                rows: r.u16()?,
                cols: r.u16()?,
            },
            TAG_DETACH => Self::Detach { chip: r.u32()? },
            TAG_DETACHED => Self::Detached { chip: r.u32()? },
            TAG_CONFIGURE_ASSAY => Self::ConfigureAssay {
                chip: r.u32()?,
                probes: r.seq("ConfigureAssay.probes")?,
                targets: r.seq("ConfigureAssay.targets")?,
            },
            TAG_CALIBRATE => Self::Calibrate { chip: r.u32()? },
            TAG_CALIBRATION_DONE => Self::CalibrationDone {
                chip: r.u32()?,
                healthy: r.u32()?,
                out_of_family: r.u32()?,
                dead: r.u32()?,
            },
            TAG_INJECT_FAULTS => Self::InjectFaults {
                chip: r.u32()?,
                plan: FaultPlanSpec::decode(&mut r)?,
            },
            TAG_QUERY_HEALTH => Self::QueryHealth { chip: r.u32()? },
            TAG_HEALTH_REPORT => Self::HealthReport {
                chip: r.u32()?,
                report: YieldSummary::decode(&mut r)?,
            },
            TAG_MASK_PIXELS => Self::MaskPixels {
                chip: r.u32()?,
                pixels: r.seq("MaskPixels.pixels")?,
            },
            TAG_MASKED => Self::Masked {
                chip: r.u32()?,
                masked: r.u32()?,
            },
            TAG_RUN_ASSAY => Self::RunAssay {
                chip: r.u32()?,
                stream_counts: r.bool()?,
            },
            TAG_ASSAY_RESULT => Self::AssayResult {
                chip: r.u32()?,
                counts: r.seq("AssayResult.counts")?,
                estimated_currents_a: r.seq("AssayResult.estimated_currents_a")?,
            },
            TAG_START_NEURO_STREAM => Self::StartNeuroStream {
                chip: r.u32()?,
                frames: r.u32()?,
                chunk_frames: r.u32()?,
                t0_s: r.f64()?,
                culture: CultureSpec::decode(&mut r)?,
            },
            TAG_STREAM_DATA => Self::StreamData {
                chip: r.u32()?,
                seq: r.u32()?,
                payload: StreamPayload::decode(&mut r)?,
            },
            TAG_STREAM_END => Self::StreamEnd {
                chip: r.u32()?,
                frames_sent: r.u32()?,
                frames_dropped: r.u32()?,
            },
            TAG_QUERY_STATS => Self::QueryStats,
            TAG_STATS_REPORT => Self::StatsReport(StatsSnapshot::decode(&mut r)?),
            TAG_ACK => Self::Ack,
            TAG_ERROR_REPLY => Self::ErrorReply {
                code: ErrorCode::decode(&mut r)?,
                message: r.string()?,
            },
            TAG_START_RECORDING => Self::StartRecording {
                chip: r.u32()?,
                name: r.string()?,
            },
            TAG_RECORDING_STARTED => Self::RecordingStarted {
                chip: r.u32()?,
                name: r.string()?,
            },
            TAG_STOP_RECORDING => Self::StopRecording { chip: r.u32()? },
            TAG_RECORDING_STOPPED => Self::RecordingStopped {
                chip: r.u32()?,
                name: r.string()?,
                frames_written: r.u64()?,
                frames_dropped: r.u64()?,
                bytes_written: r.u64()?,
            },
            TAG_LIST_RECORDINGS => Self::ListRecordings,
            TAG_RECORDING_LIST => Self::RecordingList {
                recordings: r.seq("RecordingList.recordings")?,
            },
            TAG_REPLAY => Self::Replay {
                name: r.string()?,
                chunk_frames: r.u32()?,
            },
            tag => {
                return Err(ProtocolError::UnknownTag {
                    what: "Message",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) {
        let bytes = msg.encode_payload();
        let back = Message::decode_payload(&bytes).unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn payload_roundtrips() {
        roundtrip(&Message::Hello {
            client: "bsa-ctl/0.1".into(),
        });
        roundtrip(&Message::QueryStats);
        roundtrip(&Message::Ack);
        roundtrip(&Message::StreamData {
            chip: 3,
            seq: 7,
            payload: StreamPayload::NeuroFrames {
                first_frame: 224,
                rows: 2,
                cols: 2,
                samples: vec![1.5, -0.25, 0.0, 3.25],
            },
        });
        roundtrip(&Message::MaskPixels {
            chip: 2,
            pixels: vec![0, 17, 4095],
        });
        roundtrip(&Message::Masked { chip: 2, masked: 3 });
        roundtrip(&Message::StartRecording {
            chip: 1,
            name: "run-2026-001".into(),
        });
        roundtrip(&Message::RecordingStarted {
            chip: 1,
            name: "run-2026-001".into(),
        });
        roundtrip(&Message::StopRecording { chip: 1 });
        roundtrip(&Message::RecordingStopped {
            chip: 1,
            name: "run-2026-001".into(),
            frames_written: 112,
            frames_dropped: 4,
            bytes_written: 131_072,
        });
        roundtrip(&Message::ListRecordings);
        roundtrip(&Message::RecordingList {
            recordings: vec![RecordingEntry {
                name: "run-2026-001".into(),
                kind: ChipKind::Neuro,
                rows: 128,
                cols: 128,
                frames: 112,
                bytes: 131_072,
                config_hash: 0xDEAD_BEEF_CAFE_F00D,
            }],
        });
        roundtrip(&Message::Replay {
            name: "run-2026-001".into(),
            chunk_frames: 8,
        });
        roundtrip(&Message::ErrorReply {
            code: ErrorCode::StoreError,
            message: "no recording named x".into(),
        });
        roundtrip(&Message::InjectFaults {
            chip: 1,
            plan: FaultPlanSpec {
                seed: 42,
                entries: vec![
                    FaultEntrySpec {
                        target: FaultTargetSpec::Pixel { row: 3, col: 4 },
                        kind: FaultKindSpec::DeadPixel,
                    },
                    FaultEntrySpec {
                        target: FaultTargetSpec::Global,
                        kind: FaultKindSpec::SerialBitErrors { rate: 1e-3 },
                    },
                ],
            },
        });
    }

    #[test]
    fn unknown_message_tag_rejected() {
        assert!(matches!(
            Message::decode_payload(&[0xEE]),
            Err(ProtocolError::UnknownTag {
                what: "Message",
                ..
            })
        ));
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(matches!(
            Message::decode_payload(&[]),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut bytes = Message::Ack.encode_payload();
        bytes.push(0);
        assert!(matches!(
            Message::decode_payload(&bytes),
            Err(ProtocolError::TrailingBytes { count: 1 })
        ));
    }
}
