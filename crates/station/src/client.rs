//! Blocking client for the station protocol: connect, drive chips,
//! collect streams. This is the library behind the `bsa-ctl` binary and
//! the loopback tests.

use bsa_link::{
    read_message, write_message, ChipId, ChipKind, CultureSpec, DnaChipSpec, ErrorCode,
    FaultPlanSpec, Message, NeuroChipSpec, PixelCount, ProtocolError, RecordingEntry,
    StatsSnapshot, StreamPayload, TargetSpec, YieldSummary,
};
use bsa_units::Seconds;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// Transport or decode failure.
    Protocol(ProtocolError),
    /// A connect or request deadline elapsed before the station answered.
    Timeout,
    /// The station answered with an `ErrorReply`.
    Server {
        /// Error class reported by the station.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The station answered with a message the request does not expect.
    Unexpected {
        /// What the client was waiting for.
        expected: &'static str,
        /// Debug rendering of what arrived.
        got: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Protocol(err) => write!(f, "protocol failure: {err}"),
            Self::Timeout => write!(f, "request deadline elapsed"),
            Self::Server { code, message } => write!(f, "station error ({code:?}): {message}"),
            Self::Unexpected { expected, got } => {
                write!(f, "expected {expected}, station sent {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Protocol(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(err: ProtocolError) -> Self {
        match err {
            // Socket deadlines surface as WouldBlock (unix) or TimedOut
            // (windows / connect_timeout): both mean the station missed
            // the per-request deadline, not that the protocol broke.
            ProtocolError::Io(io)
                if matches!(
                    io.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Self::Timeout
            }
            err => Self::Protocol(err),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        Self::from(ProtocolError::Io(err))
    }
}

/// Connection and per-request deadlines for a [`StationClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect deadline; `None` blocks until the OS gives up.
    pub connect_timeout: Option<Duration>,
    /// Read/write deadline per request; `None` waits forever.
    pub io_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Chip metadata returned by the attach calls.
#[derive(Debug, Clone, Copy)]
pub struct AttachedChip {
    /// Session-scoped chip handle.
    pub chip: ChipId,
    /// Which array kind was attached.
    pub kind: ChipKind,
    /// Array rows.
    pub rows: u16,
    /// Array columns.
    pub cols: u16,
}

/// Result of a remote DNA assay.
#[derive(Debug, Clone)]
pub struct AssayOutcome {
    /// Per-pixel event counts in scan order.
    pub counts: Vec<u64>,
    /// Estimated sensor currents in amperes, scan order.
    pub estimated_currents_a: Vec<f64>,
    /// The streamed count readings, when streaming was requested.
    pub stream: Option<Streamed>,
}

/// One collected `StreamData`* `StreamEnd` stream: a live neuro stream,
/// a streamed assay readout or a replayed recording. Frames arrive in
/// `frames`, DNA count readings in `readings`, according to `kind`.
#[derive(Debug, Clone)]
pub struct Streamed {
    /// Which array kind the chunks came from.
    pub kind: ChipKind,
    /// Frame height in pixels (neuro streams).
    pub rows: u16,
    /// Frame width in pixels (neuro streams).
    pub cols: u16,
    /// Received frames, each `rows * cols` row-major samples, bit-exact
    /// as acquired. Dropped frames are absent (see `frames_dropped`).
    pub frames: Vec<Vec<f64>>,
    /// Received DNA count readings.
    pub readings: Vec<PixelCount>,
    /// Frames (or readings) the station delivered into the session queue.
    pub frames_sent: u32,
    /// Frames (or readings) dropped by backpressure.
    pub frames_dropped: u32,
    /// Stream chunks received.
    pub chunks: u32,
}

/// Accounting for a finalised recording, from
/// [`StationClient::stop_recording`].
#[derive(Debug, Clone)]
pub struct RecordingSummary {
    /// The finalised recording's name.
    pub name: String,
    /// Frames (or DNA readings) persisted to the segment.
    pub frames_written: u64,
    /// Frames dropped by the store's bounded writer queue.
    pub frames_dropped: u64,
    /// Segment file size in bytes, index footer included.
    pub bytes_written: u64,
}

/// Calibration counts returned by [`StationClient::calibrate`].
#[derive(Debug, Clone, Copy)]
pub struct CalibrationCounts {
    /// Pixels healthy after calibration.
    pub healthy: u32,
    /// Pixels out of family.
    pub out_of_family: u32,
    /// Dead pixels.
    pub dead: u32,
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct StationClient {
    stream: TcpStream,
}

impl StationClient {
    /// Connects and performs the `Hello`/`HelloAck` handshake with the
    /// default deadlines ([`ClientConfig::default`]), so a dead station
    /// yields [`ClientError::Timeout`] instead of blocking forever.
    ///
    /// # Errors
    ///
    /// Connection failures and handshake protocol violations.
    pub fn connect<A: ToSocketAddrs>(addr: A, identity: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, identity, &ClientConfig::default())
    }

    /// Connects with explicit deadlines. The connect deadline applies to
    /// each resolved address in turn; the I/O deadline is armed on the
    /// socket for every subsequent request.
    ///
    /// # Errors
    ///
    /// Connection failures, elapsed deadlines ([`ClientError::Timeout`])
    /// and handshake protocol violations.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        identity: &str,
        config: &ClientConfig,
    ) -> Result<Self, ClientError> {
        let stream = connect_stream(addr, config.connect_timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(config.io_timeout)?;
        stream.set_write_timeout(config.io_timeout)?;
        let mut client = Self { stream };
        match client.roundtrip(&Message::Hello {
            client: identity.to_string(),
        })? {
            Message::HelloAck { .. } => Ok(client),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// Sends one request and reads one response, mapping `ErrorReply` to
    /// [`ClientError::Server`].
    fn roundtrip(&mut self, request: &Message) -> Result<Message, ClientError> {
        write_message(&mut self.stream, request)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Message, ClientError> {
        match read_message(&mut self.stream)? {
            Message::ErrorReply { code, message } => Err(ClientError::Server { code, message }),
            msg => Ok(msg),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures, or a reply that is not `Pong` with the token.
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        match self.roundtrip(&Message::Ping { token })? {
            Message::Pong { token: t } if t == token => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Attaches a simulated DNA chip.
    ///
    /// # Errors
    ///
    /// Station-side validation failures surface as [`ClientError::Server`].
    pub fn attach_dna(&mut self, spec: &DnaChipSpec) -> Result<AttachedChip, ClientError> {
        attached(self.roundtrip(&Message::AttachDna(spec.clone()))?)
    }

    /// Attaches a simulated neural-recording chip.
    ///
    /// # Errors
    ///
    /// Station-side validation failures surface as [`ClientError::Server`].
    pub fn attach_neuro(&mut self, spec: &NeuroChipSpec) -> Result<AttachedChip, ClientError> {
        attached(self.roundtrip(&Message::AttachNeuro(spec.clone()))?)
    }

    /// Detaches a chip.
    ///
    /// # Errors
    ///
    /// Unknown handles surface as [`ClientError::Server`].
    pub fn detach(&mut self, chip: ChipId) -> Result<(), ClientError> {
        match self.roundtrip(&Message::Detach { chip })? {
            Message::Detached { .. } => Ok(()),
            other => Err(unexpected("Detached", &other)),
        }
    }

    /// Spots probes onto a DNA chip and sets the sample mix.
    ///
    /// # Errors
    ///
    /// Bad sequences or the wrong chip kind surface as
    /// [`ClientError::Server`].
    pub fn configure_assay(
        &mut self,
        chip: ChipId,
        probes: Vec<String>,
        targets: Vec<TargetSpec>,
    ) -> Result<(), ClientError> {
        match self.roundtrip(&Message::ConfigureAssay {
            chip,
            probes,
            targets,
        })? {
            Message::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Runs the chip's calibration loop.
    ///
    /// # Errors
    ///
    /// Unknown handles surface as [`ClientError::Server`].
    pub fn calibrate(&mut self, chip: ChipId) -> Result<CalibrationCounts, ClientError> {
        match self.roundtrip(&Message::Calibrate { chip })? {
            Message::CalibrationDone {
                healthy,
                out_of_family,
                dead,
                ..
            } => Ok(CalibrationCounts {
                healthy,
                out_of_family,
                dead,
            }),
            other => Err(unexpected("CalibrationDone", &other)),
        }
    }

    /// Applies a fault-injection plan.
    ///
    /// # Errors
    ///
    /// Plan/chip mismatches surface as [`ClientError::Server`].
    pub fn inject_faults(&mut self, chip: ChipId, plan: FaultPlanSpec) -> Result<(), ClientError> {
        match self.roundtrip(&Message::InjectFaults { chip, plan })? {
            Message::Ack => Ok(()),
            other => Err(unexpected("Ack", &other)),
        }
    }

    /// Masks pixels on a chip so streamed frames are repaired by
    /// neighbor interpolation. Indices are row-major; repeated calls
    /// union. Returns the total mask size after applying.
    ///
    /// # Errors
    ///
    /// Out-of-range indices / unknown handles surface as
    /// [`ClientError::Server`].
    pub fn mask_pixels(&mut self, chip: ChipId, pixels: &[u32]) -> Result<u32, ClientError> {
        match self.roundtrip(&Message::MaskPixels {
            chip,
            pixels: pixels.to_vec(),
        })? {
            Message::Masked { masked, .. } => Ok(masked),
            other => Err(unexpected("Masked", &other)),
        }
    }

    /// Fetches a chip's yield report.
    ///
    /// # Errors
    ///
    /// Unknown handles surface as [`ClientError::Server`].
    pub fn health(&mut self, chip: ChipId) -> Result<YieldSummary, ClientError> {
        match self.roundtrip(&Message::QueryHealth { chip })? {
            Message::HealthReport { report, .. } => Ok(report),
            other => Err(unexpected("HealthReport", &other)),
        }
    }

    /// Runs a DNA assay, optionally streaming per-pixel counts.
    ///
    /// # Errors
    ///
    /// Wrong chip kind / unknown handles surface as
    /// [`ClientError::Server`]; stream-protocol violations as
    /// [`ClientError::Unexpected`].
    pub fn run_assay(
        &mut self,
        chip: ChipId,
        stream_counts: bool,
    ) -> Result<AssayOutcome, ClientError> {
        write_message(
            &mut self.stream,
            &Message::RunAssay {
                chip,
                stream_counts,
            },
        )?;
        let stream = if stream_counts {
            Some(self.collect_stream(ChipKind::Dna)?)
        } else {
            None
        };
        match self.read_reply()? {
            Message::AssayResult {
                counts,
                estimated_currents_a,
                ..
            } => Ok(AssayOutcome {
                counts,
                estimated_currents_a,
                stream,
            }),
            other => Err(unexpected("AssayResult", &other)),
        }
    }

    /// Records `frames` frames from a neuro chip against the specified
    /// culture and collects the stream. `chunk_frames = 0` uses the
    /// server default.
    ///
    /// # Errors
    ///
    /// Wrong chip kind / oversized requests surface as
    /// [`ClientError::Server`]; malformed chunks as
    /// [`ClientError::Unexpected`].
    pub fn stream_neuro(
        &mut self,
        chip: ChipId,
        frames: u32,
        chunk_frames: u32,
        t0: Seconds,
        culture: &CultureSpec,
    ) -> Result<Streamed, ClientError> {
        write_message(
            &mut self.stream,
            &Message::StartNeuroStream {
                chip,
                frames,
                chunk_frames,
                t0_s: t0.value(),
                culture: culture.clone(),
            },
        )?;
        self.collect_stream(ChipKind::Neuro)
    }

    /// Starts persisting a chip's streams into the station's store under
    /// `name`.
    ///
    /// # Errors
    ///
    /// A station without a store root, a duplicate name, or a bad name
    /// surface as [`ClientError::Server`] with
    /// [`ErrorCode::StoreError`].
    pub fn start_recording(&mut self, chip: ChipId, name: &str) -> Result<(), ClientError> {
        match self.roundtrip(&Message::StartRecording {
            chip,
            name: name.to_string(),
        })? {
            Message::RecordingStarted { .. } => Ok(()),
            other => Err(unexpected("RecordingStarted", &other)),
        }
    }

    /// Finalises a chip's recording and returns the persistence
    /// accounting.
    ///
    /// # Errors
    ///
    /// A chip with no active recording or a writer I/O failure surfaces
    /// as [`ClientError::Server`].
    pub fn stop_recording(&mut self, chip: ChipId) -> Result<RecordingSummary, ClientError> {
        match self.roundtrip(&Message::StopRecording { chip })? {
            Message::RecordingStopped {
                name,
                frames_written,
                frames_dropped,
                bytes_written,
                ..
            } => Ok(RecordingSummary {
                name,
                frames_written,
                frames_dropped,
                bytes_written,
            }),
            other => Err(unexpected("RecordingStopped", &other)),
        }
    }

    /// Lists the station's stored recordings, sorted by name.
    ///
    /// # Errors
    ///
    /// A station without a store root surfaces as
    /// [`ClientError::Server`].
    pub fn recordings(&mut self) -> Result<Vec<RecordingEntry>, ClientError> {
        match self.roundtrip(&Message::ListRecordings)? {
            Message::RecordingList { recordings } => Ok(recordings),
            other => Err(unexpected("RecordingList", &other)),
        }
    }

    /// Replays a stored recording and collects the stream.
    /// `chunk_frames = 0` uses the server default for the recording's
    /// kind.
    ///
    /// # Errors
    ///
    /// Unknown or corrupted recordings surface as
    /// [`ClientError::Server`]; malformed chunks as
    /// [`ClientError::Unexpected`].
    pub fn replay(&mut self, name: &str, chunk_frames: u32) -> Result<Streamed, ClientError> {
        write_message(
            &mut self.stream,
            &Message::Replay {
                name: name.to_string(),
                chunk_frames,
            },
        )?;
        // Until the first chunk names it, a recording counts as neuro.
        self.collect_stream(ChipKind::Neuro)
    }

    /// Reads one `StreamData`* `StreamEnd` stream. `kind` stands until a
    /// chunk says otherwise; a neuro chunk must hold whole frames.
    fn collect_stream(&mut self, kind: ChipKind) -> Result<Streamed, ClientError> {
        let mut result = Streamed {
            kind,
            rows: 0,
            cols: 0,
            frames: Vec::new(),
            readings: Vec::new(),
            frames_sent: 0,
            frames_dropped: 0,
            chunks: 0,
        };
        loop {
            let payload = match self.read_reply()? {
                Message::StreamData { payload, .. } => payload,
                Message::StreamEnd {
                    frames_sent,
                    frames_dropped,
                    ..
                } => {
                    result.frames_sent = frames_sent;
                    result.frames_dropped = frames_dropped;
                    return Ok(result);
                }
                other => return Err(unexpected("StreamData/StreamEnd", &other)),
            };
            result.chunks += 1;
            match payload {
                StreamPayload::NeuroFrames {
                    rows,
                    cols,
                    samples,
                    ..
                } => {
                    let frame_len = usize::from(rows) * usize::from(cols);
                    if frame_len == 0 || samples.len() % frame_len != 0 {
                        return Err(ClientError::Unexpected {
                            expected: "chunk of whole frames",
                            got: format!("{} samples for {rows}x{cols}", samples.len()),
                        });
                    }
                    result.kind = ChipKind::Neuro;
                    result.rows = rows;
                    result.cols = cols;
                    result
                        .frames
                        .extend(samples.chunks(frame_len).map(<[f64]>::to_vec));
                }
                StreamPayload::DnaCounts { readings } => {
                    result.kind = ChipKind::Dna;
                    result.readings.extend(readings);
                }
            }
        }
    }

    /// Fetches station-wide counters.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.roundtrip(&Message::QueryStats)? {
            Message::StatsReport(stats) => Ok(stats),
            other => Err(unexpected("StatsReport", &other)),
        }
    }
}

/// Maps an attach reply to the attached chip's metadata.
fn attached(reply: Message) -> Result<AttachedChip, ClientError> {
    match reply {
        Message::Attached {
            chip,
            kind,
            rows,
            cols,
        } => Ok(AttachedChip {
            chip,
            kind,
            rows,
            cols,
        }),
        other => Err(unexpected("Attached", &other)),
    }
}

fn unexpected(expected: &'static str, got: &Message) -> ClientError {
    ClientError::Unexpected {
        expected,
        got: format!("{got:?}"),
    }
}

/// Resolves `addr` and tries each candidate under the connect deadline.
fn connect_stream<A: ToSocketAddrs>(
    addr: A,
    timeout: Option<Duration>,
) -> Result<TcpStream, io::Error> {
    let Some(timeout) = timeout else {
        return TcpStream::connect(addr);
    };
    let mut last: Option<io::Error> = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => return Ok(stream),
            Err(err) => last = Some(err),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "no socket addresses resolved")
    }))
}
