//! A blocking client that speaks the wire protocol itself on a raw
//! `TcpStream`, so it can timestamp the first chunk of a stream and every
//! later one (`StationClient::stream_neuro` only returns at the end).

use crate::trace::Tracer;
use bsa_link::{decode_frame, write_message, Message, StreamPayload, HEADER_LEN, MAX_PAYLOAD};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One message off the wire with the instants that split its cost: the
/// client began waiting at `waited`, the last byte arrived at `arrived`,
/// and decoding (CRC check included) finished at `decoded`.
pub struct Reply {
    pub msg: Message,
    pub waited: Instant,
    pub arrived: Instant,
    pub decoded: Instant,
}

/// What one request delivered, as the client saw it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ttfc_ms: Option<f64>,
    pub request_ms: f64,
    /// Frames received in chunks.
    pub received: u64,
    pub chunks: u64,
    /// `StreamEnd` accounting.
    pub sent: u64,
    pub dropped: u64,
    /// `(frame index, digest)` of every neuro frame received.
    pub digests: Vec<(u32, u64)>,
    /// Time between consecutive chunk arrivals.
    pub gaps_ms: Vec<f64>,
    /// Time spent blocked waiting for chunk bytes.
    pub recv_wait_s: f64,
}

#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    /// Receive buffer, kept at its largest size so a chunk does not
    /// re-zero a megabyte before every read.
    buf: Vec<u8>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// A short rendering of an unexpected message (a chunk's Debug form is
/// megabytes long).
fn brief(msg: &Message) -> String {
    format!("{msg:?}").chars().take(160).collect()
}

impl WireClient {
    pub fn connect(addr: SocketAddr, name: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let mut client = Self {
            stream,
            buf: Vec::new(),
        };
        match client.call(&Message::Hello {
            client: name.to_string(),
        })? {
            Message::HelloAck { .. } => Ok(client),
            other => Err(format!("expected HelloAck, got {}", brief(&other))),
        }
    }

    pub fn send(&mut self, msg: &Message) -> Result<(), String> {
        write_message(&mut self.stream, msg)
            .map(|_| ())
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<Reply, String> {
        let waited = Instant::now();
        if self.buf.len() < HEADER_LEN {
            self.buf.resize(HEADER_LEN, 0);
        }
        self.stream
            .read_exact(&mut self.buf[..HEADER_LEN])
            .map_err(|e| format!("recv header: {e}"))?;
        let len = u32::from_le_bytes([self.buf[3], self.buf[4], self.buf[5], self.buf[6]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(format!("frame of {len} bytes exceeds MAX_PAYLOAD"));
        }
        let total = HEADER_LEN + len + 1;
        if self.buf.len() < total {
            self.buf.resize(total, 0);
        }
        self.stream
            .read_exact(&mut self.buf[HEADER_LEN..total])
            .map_err(|e| format!("recv body: {e}"))?;
        let arrived = Instant::now();
        let msg = decode_frame(&self.buf[..total]).map_err(|e| format!("decode: {e}"))?;
        Ok(Reply {
            msg,
            waited,
            arrived,
            decoded: Instant::now(),
        })
    }

    /// One request, one reply; an `ErrorReply` is an error.
    pub fn call(&mut self, msg: &Message) -> Result<Message, String> {
        self.send(msg)?;
        match self.recv()?.msg {
            Message::ErrorReply { code, message } => {
                Err(format!("station error {code:?}: {message}"))
            }
            reply => Ok(reply),
        }
    }

    /// Sends a streaming request and collects its chunks up to
    /// `StreamEnd`. With a tracer, the request, each chunk's receive wait
    /// and its decode are recorded as spans.
    pub fn request(
        &mut self,
        msg: &Message,
        mut trace: Option<(&mut Tracer, u64)>,
    ) -> Result<Outcome, String> {
        let start = Instant::now();
        let span = trace
            .as_mut()
            .map(|(t, r)| t.open("client.request", None, *r));
        self.send(msg)?;
        let mut out = Outcome::default();
        let mut last_chunk: Option<Instant> = None;
        loop {
            let reply = self.recv()?;
            match reply.msg {
                Message::StreamData { payload, .. } => {
                    out.chunks += 1;
                    out.recv_wait_s += (reply.arrived - reply.waited).as_secs_f64();
                    out.ttfc_ms.get_or_insert(ms(start, reply.decoded));
                    if let Some(prev) = last_chunk {
                        out.gaps_ms.push(ms(prev, reply.decoded));
                    }
                    last_chunk = Some(reply.decoded);
                    if let (Some((t, r)), Some(parent)) = (trace.as_mut(), span) {
                        t.record(
                            "transport.recv_wait",
                            reply.waited,
                            reply.arrived,
                            Some(parent),
                            *r,
                        );
                        t.record(
                            "link.decode",
                            reply.arrived,
                            reply.decoded,
                            Some(parent),
                            *r,
                        );
                    }
                    let StreamPayload::NeuroFrames {
                        first_frame,
                        rows,
                        cols,
                        samples,
                    } = payload
                    else {
                        return Err("DNA counts in a neuro stream".into());
                    };
                    let len = usize::from(rows) * usize::from(cols);
                    if len == 0 || samples.len() % len != 0 {
                        return Err(format!(
                            "chunk of {} samples for {rows}x{cols}",
                            samples.len()
                        ));
                    }
                    for (i, frame) in samples.chunks_exact(len).enumerate() {
                        out.digests.push((first_frame + i as u32, digest(frame)));
                    }
                    out.received += (samples.len() / len) as u64;
                }
                Message::StreamEnd {
                    frames_sent,
                    frames_dropped,
                    ..
                } => {
                    out.sent = u64::from(frames_sent);
                    out.dropped = u64::from(frames_dropped);
                    break;
                }
                Message::ErrorReply { code, message } => {
                    return Err(format!("station error {code:?}: {message}"))
                }
                other => return Err(format!("unexpected reply {}", brief(&other))),
            }
        }
        out.request_ms = ms(start, Instant::now());
        if let (Some((t, _)), Some(id)) = (trace, span) {
            t.close(id);
        }
        Ok(out)
    }
}

/// Digest of a frame's exact sample bits. Four independent lanes keep it
/// cheap next to the decode it follows; it only has to tell frames apart,
/// not resist an adversary.
pub fn digest(samples: &[f64]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [K, K.rotate_left(16), K.rotate_left(32), K.rotate_left(48)];
    let mut quads = samples.chunks_exact(4);
    for quad in &mut quads {
        for (lane, s) in lanes.iter_mut().zip(quad) {
            *lane = (lane.rotate_left(23) ^ s.to_bits()).wrapping_mul(K);
        }
    }
    for (lane, s) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = (lane.rotate_left(23) ^ s.to_bits()).wrapping_mul(K);
    }
    lanes.iter().fold(samples.len() as u64, |h, &l| {
        (h.rotate_left(29) ^ l).wrapping_mul(K)
    })
}
