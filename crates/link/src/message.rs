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
//! # Where a layout is declared
//!
//! Each type below is declared once, in a `wire_struct!` or `wire_enum!`
//! block: its fields in wire order, and for an enum each variant's tag
//! byte. The block emits the type and its [`Codec`] impl: `encode`
//! writes the tag (for an enum) and then the fields in order, `decode`
//! reads them back in the same order, and `MIN_LEN` is the sum of the
//! fields' minimums (the tag plus the smallest variant, for an enum). A
//! `Vec<T>` field is a count-prefixed sequence read through
//! [`crate::wire::Reader::seq`], whose count error names the field as
//! `"<Type or Variant>.<field>"`.
//!
//! To add a message, add a `tag => Variant { fields }` line to `Message`
//! with an unused tag, serve it in the station's dispatch and add its
//! canonical instance to the `abi_lock` test (both match every variant,
//! so neither compiles until it does). A new field type needs a [`Codec`]
//! impl, from another block here or from [`crate::wire`].
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
use crate::samples::SAMPLE_LEN;
use crate::wire::{Codec, Field, Reader, Writer, COUNT_LEN};

/// The smallest of `lens` (0 for none): an enum's smallest variant.
const fn smallest(lens: &[usize]) -> usize {
    match lens {
        [] => 0,
        [only] => *only,
        [first, rest @ ..] => {
            let rest = smallest(rest);
            if *first < rest {
                *first
            } else {
                rest
            }
        }
    }
}

/// Declares a struct whose wire layout is its fields in order, and
/// emits the struct and its [`Codec`] impl.
macro_rules! wire_struct {
    (
        $(#[$attr:meta])*
        pub struct $Name:ident {
            $( $(#[$fattr:meta])* pub $f:ident: $T:ty, )*
        }
    ) => {
        $(#[$attr])*
        pub struct $Name {
            $( $(#[$fattr])* pub $f: $T, )*
        }

        impl Codec for $Name {
            const MIN_LEN: usize = 0 $( + <$T as Field>::MIN_BYTES )*;

            fn encode(&self, w: &mut Writer) {
                $( Field::write(&self.$f, w); )*
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
                Ok(Self {
                    $( $f: Field::read(r, concat!(stringify!($Name), ".", stringify!($f)))?, )*
                })
            }
        }
    };
}

/// Declares an enum whose wire layout is a tag byte, then the tagged
/// variant's fields in order, and emits the enum and its [`Codec`] impl.
/// A variant is `tag => Variant`, `tag => Variant { fields }` or
/// `tag => Variant(binding: Type)`; any other tag decodes to
/// [`ProtocolError::UnknownTag`] naming the enum. `tag as NAME => …`
/// also declares the tag as the constant `NAME`, for code that writes
/// the variant's head by hand.
macro_rules! wire_enum {
    (
        $(#[$attr:meta])*
        pub enum $Name:ident {
            $(
                $(#[$vattr:meta])*
                $tag:literal $(as $Tag:ident)? => $Variant:ident
                    $({ $( $(#[$fattr:meta])* $f:ident: $T:ty, )* })?
                    $(($x:ident: $X:ty))?,
            )*
        }
    ) => {
        $($(const $Tag: u8 = $tag;)?)*

        $(#[$attr])*
        pub enum $Name {
            $(
                $(#[$vattr])*
                $Variant $({ $( $(#[$fattr])* $f: $T, )* })? $(($X))?,
            )*
        }

        impl Codec for $Name {
            const MIN_LEN: usize = u8::MIN_LEN + smallest(&[$(
                0 $($( + <$T as Field>::MIN_BYTES )*)? $( + <$X as Field>::MIN_BYTES )?
            ),*]);

            fn encode(&self, w: &mut Writer) {
                match self {
                    $(Self::$Variant $({ $($f),* })? $(($x))? => {
                        w.u8($tag);
                        $($( Field::write($f, w); )*)?
                        $( Field::write($x, w); )?
                    })*
                }
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
                Ok(match r.u8()? {
                    $($tag => Self::$Variant
                        $({ $(
                            $f: Field::read(r, concat!(stringify!($Variant), ".", stringify!($f)))?,
                        )* })?
                        $(( <$X as Field>::read(r, stringify!($Variant))? ))?,
                    )*
                    tag => return Err(ProtocolError::UnknownTag { what: stringify!($Name), tag }),
                })
            }
        }
    };
}

/// Station-assigned handle for an attached chip, scoped to one session.
pub type ChipId = u32;

wire_enum! {
    /// Which of the paper's two sensor arrays a chip handle refers to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ChipKind {
        /// 16×8 DNA microarray with in-pixel current-to-frequency conversion.
        0 => Dna,
        /// 128×128 neural-recording array.
        1 => Neuro,
    }
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
    /// One analyte in a `ConfigureAssay` sample mix.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TargetSpec {
        /// Target DNA sequence (A/C/G/T).
        pub sequence: String,
        /// Concentration in mol/L.
        pub concentration_molar: f64,
    }
}

wire_struct! {
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
}

wire_enum! {
    /// The data body of a `StreamData` message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum StreamPayload {
        /// A chunk of consecutive neuro frames, row-major samples
        /// concatenated frame after frame (`samples.len()` is a multiple of
        /// `rows * cols`).
        0 as PAYLOAD_NEURO_FRAMES => NeuroFrames {
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
        1 => DnaCounts {
            /// Per-pixel readings, in chip scan order.
            readings: Vec<PixelCount>,
        },
    }
}

wire_enum! {
    /// Where a fault entry lands on the array (mirrors
    /// `bsa_faults::InjectionPlan` targets without depending on the crate).
    #[derive(Debug, Clone, PartialEq)]
    pub enum FaultTargetSpec {
        /// A single pixel.
        0 => Pixel {
            /// Sensor row.
            row: u16,
            /// Sensor column.
            col: u16,
        },
        /// A random subset of the array at the given defect density (0..=1).
        1 => ArrayWide {
            /// Fraction of pixels affected.
            density: f64,
        },
        /// A chip-global fault (channel loss, serial bit errors).
        2 => Global,
    }
}

wire_enum! {
    /// Wire mirror of `bsa_faults::FaultKind`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum FaultKindSpec {
        /// Pixel produces no signal at all.
        0 => DeadPixel,
        /// Counter output stuck at a fixed value.
        1 => StuckCount {
            /// The stuck count value.
            count: u64,
        },
        /// Electrode leaks a constant parasitic current.
        2 => LeakyElectrode {
            /// Leakage in amperes.
            leakage_a: f64,
        },
        /// Comparator threshold shifted by an offset.
        3 => ComparatorDrift {
            /// Offset in volts.
            offset_v: f64,
        },
        /// Comparator output stuck high or low.
        4 => ComparatorStuck {
            /// `true` = stuck high, `false` = stuck low.
            high: bool,
        },
        /// Calibration DAC saturates at a fraction of full scale.
        5 => DacSaturation {
            /// Saturation limit as a fraction of full scale (0..=1).
            limit: f64,
        },
        /// Readout amplifier clips beyond a voltage limit.
        6 => GainClipping {
            /// Clipping limit in volts.
            limit_v: f64,
        },
        /// An entire readout channel is lost.
        7 => ChannelLoss {
            /// Channel index.
            channel: u32,
        },
        /// Serial link flips bits at the given rate.
        8 => SerialBitErrors {
            /// Per-bit error probability (0..=1).
            rate: f64,
        },
    }
}

wire_struct! {
    /// One (target, kind) pair in a fault plan.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultEntrySpec {
        /// Where the fault lands.
        pub target: FaultTargetSpec,
        /// What the fault does.
        pub kind: FaultKindSpec,
    }
}

wire_struct! {
    /// Wire form of a `bsa_faults::InjectionPlan`: the station rebuilds the
    /// plan with the builder API and compiles it against the chip geometry.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultPlanSpec {
        /// Seed for stochastic placement (array-wide densities, bit errors).
        pub seed: u64,
        /// The fault entries, applied in order.
        pub entries: Vec<FaultEntrySpec>,
    }
}

wire_struct! {
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
}

wire_enum! {
    /// Wire mirror of `bsa_core::health::DegradationMode`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DegradationSummary {
        /// All pixels and channels nominal.
        0 => FullPerformance,
        /// Usable with masked pixels / reduced channels.
        1 => Degraded,
        /// Yield below the usable floor.
        2 => Unusable,
    }
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_enum! {
    /// Error classes a station reports in an `ErrorReply`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode {
        /// Request malformed or semantically invalid.
        0 => BadRequest,
        /// No chip with that id in this session.
        1 => UnknownChip,
        /// Operation targets the other chip kind.
        2 => WrongChipKind,
        /// The chip model rejected the operation.
        3 => ChipError,
        /// Server at capacity; retry later.
        4 => Overloaded,
        /// Unexpected server-side failure.
        5 => Internal,
        /// The recording store rejected the operation (missing, corrupt, or
        /// not configured).
        6 => StoreError,
    }
}

wire_struct! {
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
}

// Message tags; gaps are reserved for future messages.
wire_enum! {
    /// A protocol message — see the module docs for the request/response map.
    ///
    /// Deliberately exhaustive: the station's dispatch and the golden
    /// `abi_lock` test match every variant with no `_` arm, so adding one
    /// fails to compile until it is served and locked.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        /// Client greeting; first message on a connection.
        0x01 => Hello {
            /// Free-form client identity string.
            client: String,
        },
        /// Station's reply to `Hello`.
        0x02 => HelloAck {
            /// Free-form server identity string.
            server: String,
            /// Protocol version the server speaks.
            version: u8,
        },
        /// Liveness probe.
        0x03 => Ping {
            /// Echo token.
            token: u64,
        },
        /// Reply to `Ping` carrying the same token.
        0x04 => Pong {
            /// Echoed token.
            token: u64,
        },
        /// Attach a simulated DNA chip to this session.
        0x05 => AttachDna(spec: DnaChipSpec),
        /// Attach a simulated neural-recording chip to this session.
        0x06 => AttachNeuro(spec: NeuroChipSpec),
        /// A chip was attached.
        0x07 => Attached {
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
        0x08 => Detach {
            /// Chip handle to drop.
            chip: ChipId,
        },
        /// A chip was detached.
        0x09 => Detached {
            /// The dropped handle.
            chip: ChipId,
        },
        /// Functionalise a DNA chip with probes and set the sample mix.
        0x0A => ConfigureAssay {
            /// DNA chip handle.
            chip: ChipId,
            /// Probe sequences, assigned in chip scan order.
            probes: Vec<String>,
            /// Analytes present in the sample.
            targets: Vec<TargetSpec>,
        },
        /// Run the chip's calibration loop.
        0x0B => Calibrate {
            /// Chip handle.
            chip: ChipId,
        },
        /// Calibration finished.
        0x0C => CalibrationDone {
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
        0x0D => InjectFaults {
            /// Chip handle.
            chip: ChipId,
            /// The plan to compile and apply.
            plan: FaultPlanSpec,
        },
        /// Ask for the chip's yield report.
        0x0E => QueryHealth {
            /// Chip handle.
            chip: ChipId,
        },
        /// Yield report for a chip.
        0x0F => HealthReport {
            /// Chip handle.
            chip: ChipId,
            /// The report.
            report: YieldSummary,
        },
        /// Run a DNA assay on the configured sample.
        0x10 => RunAssay {
            /// DNA chip handle.
            chip: ChipId,
            /// Also stream per-pixel counts as `StreamData` chunks.
            stream_counts: bool,
        },
        /// Final result of a DNA assay.
        0x11 => AssayResult {
            /// Chip handle.
            chip: ChipId,
            /// Per-pixel event counts in scan order.
            counts: Vec<u64>,
            /// Estimated sensor currents in amperes, scan order.
            estimated_currents_a: Vec<f64>,
        },
        /// Record and stream frames from a neuro chip.
        0x12 => StartNeuroStream {
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
        0x13 as TAG_STREAM_DATA => StreamData {
            /// Chip handle the data came from.
            chip: ChipId,
            /// Chunk sequence number within the stream, starting at 0.
            seq: u32,
            /// The data.
            payload: StreamPayload,
        },
        /// End of a stream, with delivery accounting.
        0x14 => StreamEnd {
            /// Chip handle.
            chip: ChipId,
            /// Frames (or DNA readings) delivered into the session queue.
            frames_sent: u32,
            /// Frames (or DNA readings) dropped by backpressure.
            frames_dropped: u32,
        },
        /// Ask for station-wide counters.
        0x15 => QueryStats,
        /// Station-wide counters.
        0x16 => StatsReport(stats: StatsSnapshot),
        /// Generic success for requests with no richer response.
        0x17 => Ack,
        /// Request failed.
        0x18 => ErrorReply {
            /// Error class.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
        /// Mark pixels unusable so streamed frames interpolate over them.
        /// Indices are row-major (`row * cols + col`); repeated requests
        /// union with the pixels already masked for the chip.
        0x19 => MaskPixels {
            /// Chip handle.
            chip: ChipId,
            /// Row-major pixel indices to mask.
            pixels: Vec<u32>,
        },
        /// Reply to `MaskPixels` with the mask size after the union.
        0x1A => Masked {
            /// Chip handle.
            chip: ChipId,
            /// Total pixels masked for this chip after applying the request.
            masked: u32,
        },
        /// Start persisting a chip's streamed frames to the station's store
        /// under the given name.
        0x1B => StartRecording {
            /// Chip handle whose streams should be persisted.
            chip: ChipId,
            /// Store-scoped recording name (`[A-Za-z0-9._-]`, non-empty).
            name: String,
        },
        /// The recording is live: subsequent streams from the chip are teed
        /// to disk until `StopRecording` (or session end) finalises it.
        0x1C => RecordingStarted {
            /// Chip handle being recorded.
            chip: ChipId,
            /// The accepted recording name.
            name: String,
        },
        /// Finalise the chip's active recording.
        0x1D => StopRecording {
            /// Chip handle being recorded.
            chip: ChipId,
        },
        /// Recording finalised, with persistence accounting (the store's own
        /// bounded queue drops-and-counts, mirroring `StreamEnd`).
        0x1E => RecordingStopped {
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
        0x1F => ListRecordings,
        /// The store catalog.
        0x20 => RecordingList {
            /// One entry per readable recording, sorted by name.
            recordings: Vec<RecordingEntry>,
        },
        /// Replay a stored recording as a stream. The station answers with
        /// the same `StreamData`* `StreamEnd` grammar a live chip produces.
        0x21 => Replay {
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
}

/// Bytes of a `StreamData` message before its payload's fields: message
/// tag, chip, seq and payload tag.
const CHUNK_HEAD: usize = u8::MIN_LEN + ChipId::MIN_LEN + u32::MIN_LEN + u8::MIN_LEN;

/// Bytes of a `StreamData` message of `NeuroFrames` besides its samples.
pub const NEURO_CHUNK_HEAD: usize = CHUNK_HEAD + u32::MIN_LEN + 2 * u16::MIN_LEN + COUNT_LEN;

/// Everything in a `StreamData` message of `NeuroFrames` but its samples:
/// what [`crate::encode_neuro_chunk`] writes ahead of the sample block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeuroChunkHead {
    /// Chip the chunk belongs to.
    pub chip: ChipId,
    /// Chunk sequence number within its stream.
    pub seq: u32,
    /// Index of the chunk's first frame within its stream.
    pub first_frame: u32,
    /// Frame height in pixels.
    pub rows: u16,
    /// Frame width in pixels.
    pub cols: u16,
    /// Frames in the chunk.
    pub frames: u32,
}

impl NeuroChunkHead {
    /// Bytes of the chunk's sample block, saturating.
    pub(crate) fn block_len(&self) -> usize {
        usize::from(self.rows)
            .saturating_mul(usize::from(self.cols))
            .saturating_mul(self.frames as usize)
            .saturating_mul(SAMPLE_LEN)
    }

    /// Writes the message up to its sample block, whose sample count is
    /// `samples`: the bytes `Message::encode_payload` writes ahead of the
    /// samples of the matching `StreamData`.
    pub(crate) fn encode(&self, w: &mut Writer, samples: u32) {
        w.u8(TAG_STREAM_DATA);
        w.u32(self.chip);
        w.u32(self.seq);
        w.u8(PAYLOAD_NEURO_FRAMES);
        w.u32(self.first_frame);
        w.u16(self.rows);
        w.u16(self.cols);
        w.u32(samples);
    }
}

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
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a message body produced by [`Self::encode_payload`].
    ///
    /// Total: every malformed payload yields a typed [`ProtocolError`];
    /// trailing bytes after a complete message are rejected.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let msg = Self::decode(&mut r)?;
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

    /// `MIN_LEN` of `T` must be the encoded length of the shortest of
    /// `values`, each type's smallest values: `Reader::seq` rejects a count
    /// the bytes left cannot hold at `MIN_LEN` each, so a larger value
    /// would refuse valid sequences and a smaller one would admit larger
    /// allocations than the bytes can back.
    fn assert_min_len<T: Codec>(name: &str, values: &[T]) {
        let encoded = |v: &T| {
            let mut w = Writer::default();
            v.encode(&mut w);
            w.into_bytes().len()
        };
        assert_eq!(Some(T::MIN_LEN), values.iter().map(encoded).min(), "{name}");
    }

    #[test]
    fn min_len_is_the_smallest_encoding() {
        let s = String::new;
        let spec = FaultPlanSpec {
            seed: 0,
            entries: vec![],
        };
        let summary = YieldSummary {
            total_pixels: 0,
            healthy: 0,
            out_of_family: 0,
            dead: 0,
            lost_channels: vec![],
            total_channels: 0,
            injected: 0,
            serial: SerialLinkSummary::default(),
            degradation: DegradationSummary::Unusable,
        };
        let culture = CultureSpec {
            seed: 0,
            neuron_count: 0,
            spike_duration_s: 0.0,
        };
        let dna = DnaChipSpec {
            rows: 0,
            cols: 0,
            seed: 0,
            frame_time_s: 0.0,
        };
        let neuro = NeuroChipSpec {
            rows: 0,
            cols: 0,
            channels: 0,
            seed: 0,
            frame_rate_hz: 0.0,
        };
        let recording = RecordingEntry {
            name: s(),
            kind: ChipKind::Dna,
            rows: 0,
            cols: 0,
            frames: 0,
            bytes: 0,
            config_hash: 0,
        };
        let frames = StreamPayload::NeuroFrames {
            first_frame: 0,
            rows: 0,
            cols: 0,
            samples: vec![],
        };
        let counts = StreamPayload::DnaCounts { readings: vec![] };
        let targets = [
            FaultTargetSpec::Pixel { row: 0, col: 0 },
            FaultTargetSpec::ArrayWide { density: 0.0 },
            FaultTargetSpec::Global,
        ];
        let kinds = [
            FaultKindSpec::DeadPixel,
            FaultKindSpec::StuckCount { count: 0 },
            FaultKindSpec::LeakyElectrode { leakage_a: 0.0 },
            FaultKindSpec::ComparatorDrift { offset_v: 0.0 },
            FaultKindSpec::ComparatorStuck { high: false },
            FaultKindSpec::DacSaturation { limit: 0.0 },
            FaultKindSpec::GainClipping { limit_v: 0.0 },
            FaultKindSpec::ChannelLoss { channel: 0 },
            FaultKindSpec::SerialBitErrors { rate: 0.0 },
        ];
        assert_min_len("u8", &[0u8]);
        assert_min_len("u16", &[0u16]);
        assert_min_len("u32", &[0u32]);
        assert_min_len("u64", &[0u64]);
        assert_min_len("f64", &[0.0f64]);
        assert_min_len("bool", &[false]);
        assert_min_len("String", &[s()]);
        assert_min_len("ChipKind", &[ChipKind::Dna, ChipKind::Neuro]);
        assert_min_len("DnaChipSpec", std::slice::from_ref(&dna));
        assert_min_len("NeuroChipSpec", std::slice::from_ref(&neuro));
        assert_min_len("CultureSpec", std::slice::from_ref(&culture));
        let target = TargetSpec {
            sequence: s(),
            concentration_molar: 0.0,
        };
        assert_min_len("TargetSpec", &[target]);
        let reading = PixelCount {
            row: 0,
            col: 0,
            count: 0,
        };
        assert_min_len("PixelCount", &[reading]);
        assert_min_len("StreamPayload", &[frames.clone(), counts]);
        assert_min_len("FaultTargetSpec", &targets);
        assert_min_len("FaultKindSpec", &kinds);
        let entry = FaultEntrySpec {
            target: FaultTargetSpec::Global,
            kind: FaultKindSpec::DeadPixel,
        };
        assert_min_len("FaultEntrySpec", &[entry]);
        assert_min_len("FaultPlanSpec", std::slice::from_ref(&spec));
        assert_min_len("SerialLinkSummary", &[SerialLinkSummary::default()]);
        assert_min_len(
            "DegradationSummary",
            &[
                DegradationSummary::FullPerformance,
                DegradationSummary::Degraded,
                DegradationSummary::Unusable,
            ],
        );
        assert_min_len("YieldSummary", std::slice::from_ref(&summary));
        assert_min_len("StatsSnapshot", &[StatsSnapshot::default()]);
        assert_min_len(
            "ErrorCode",
            &[
                ErrorCode::BadRequest,
                ErrorCode::UnknownChip,
                ErrorCode::WrongChipKind,
                ErrorCode::ChipError,
                ErrorCode::Overloaded,
                ErrorCode::Internal,
                ErrorCode::StoreError,
            ],
        );
        assert_min_len("RecordingEntry", &[recording]);
        let chip = 0;
        assert_min_len(
            "Message",
            &[
                Message::Hello { client: s() },
                Message::HelloAck {
                    server: s(),
                    version: 0,
                },
                Message::Ping { token: 0 },
                Message::Pong { token: 0 },
                Message::AttachDna(dna),
                Message::AttachNeuro(neuro),
                Message::Attached {
                    chip,
                    kind: ChipKind::Dna,
                    rows: 0,
                    cols: 0,
                },
                Message::Detach { chip },
                Message::Detached { chip },
                Message::ConfigureAssay {
                    chip,
                    probes: vec![],
                    targets: vec![],
                },
                Message::Calibrate { chip },
                Message::CalibrationDone {
                    chip,
                    healthy: 0,
                    out_of_family: 0,
                    dead: 0,
                },
                Message::InjectFaults { chip, plan: spec },
                Message::QueryHealth { chip },
                Message::HealthReport {
                    chip,
                    report: summary,
                },
                Message::RunAssay {
                    chip,
                    stream_counts: false,
                },
                Message::AssayResult {
                    chip,
                    counts: vec![],
                    estimated_currents_a: vec![],
                },
                Message::StartNeuroStream {
                    chip,
                    frames: 0,
                    chunk_frames: 0,
                    t0_s: 0.0,
                    culture,
                },
                Message::StreamData {
                    chip,
                    seq: 0,
                    payload: frames,
                },
                Message::StreamEnd {
                    chip,
                    frames_sent: 0,
                    frames_dropped: 0,
                },
                Message::QueryStats,
                Message::StatsReport(StatsSnapshot::default()),
                Message::Ack,
                Message::ErrorReply {
                    code: ErrorCode::Internal,
                    message: s(),
                },
                Message::MaskPixels {
                    chip,
                    pixels: vec![],
                },
                Message::Masked { chip, masked: 0 },
                Message::StartRecording { chip, name: s() },
                Message::RecordingStarted { chip, name: s() },
                Message::StopRecording { chip },
                Message::RecordingStopped {
                    chip,
                    name: s(),
                    frames_written: 0,
                    frames_dropped: 0,
                    bytes_written: 0,
                },
                Message::ListRecordings,
                Message::RecordingList { recordings: vec![] },
                Message::Replay {
                    name: s(),
                    chunk_frames: 0,
                },
            ],
        );
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
