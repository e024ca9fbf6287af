//! One slice: a fresh in-process station on loopback, the workload's
//! fixed work driven as a closed loop, then the correctness gate. A
//! slice runs in a process of its own, so the peak resident set and CPU
//! time it reports are the slice's alone.

use crate::client::{digest, Outcome, WireClient};
use crate::host;
use crate::json::Value;
use crate::shadow;
use crate::trace::{span_cost_ns, Tracer};
use crate::workload::{self, ClientPlan, Kind, Size, Workload, CHUNK_FRAMES};
use bsa_core::neuro_chip::NeuroChip;
use bsa_link::{ChipId, CultureSpec, Message};
use bsa_station::{culture_from_spec, neuro_config_from_spec, Station, StationConfig};
use bsa_units::Seconds;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests per client whose spans a traced slice keeps; the aggregates
/// cover every request, this only bounds the size of `trace.json`.
const TRACE_KEEP: usize = 64;

#[derive(Debug)]
pub struct SliceArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub slice: u64,
    pub smoke: bool,
    pub trace: bool,
    /// Directory under which the slice keeps its store segments.
    pub store_root: PathBuf,
}

/// Timed-region accounting of one client.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    failed: u64,
    /// Frames requested, and how many of them reached the client.
    attempted: u64,
    delivered: u64,
    chunks: u64,
    recv_wait_s: f64,
    ttfc_ms: Vec<f64>,
    request_ms: Vec<f64>,
    gaps_ms: Vec<f64>,
    store_written: u64,
    store_dropped: u64,
}

#[derive(Debug)]
struct Client {
    id: usize,
    wire: WireClient,
    plan: ClientPlan,
    chip: ChipId,
    /// Frame digests of every live neuro stream, in the order the chip
    /// served them (set-up streams first).
    streams: Vec<Vec<(u32, u64)>>,
    /// Frame digests of every replay (the set-up warm-up first).
    replays: Vec<Vec<(u32, u64)>>,
    /// `StreamEnd` accounting over every stream, set-up included, to
    /// reconcile with the station's own counters.
    wire_sent: u64,
    wire_dropped: u64,
    tally: Tally,
    failures: Vec<String>,
    errors: Vec<String>,
}

impl Client {
    fn setup(
        addr: std::net::SocketAddr,
        id: usize,
        plan: &ClientPlan,
        kind: Kind,
        size: Size,
        store: &Path,
    ) -> Result<Self, String> {
        let mut wire = WireClient::connect(addr, &format!("benchmark-{id}"))?;
        let chip = match wire.call(&Message::AttachNeuro(plan.spec.clone()))? {
            Message::Attached { chip, .. } => chip,
            other => return Err(format!("expected Attached, got {other:?}")),
        };
        match wire.call(&Message::Calibrate { chip })? {
            Message::CalibrationDone { .. } => {}
            other => return Err(format!("expected CalibrationDone, got {other:?}")),
        }
        let mut c = Self {
            id,
            wire,
            plan: plan.clone(),
            chip,
            streams: Vec::new(),
            replays: Vec::new(),
            wire_sent: 0,
            wire_dropped: 0,
            tally: Tally::default(),
            failures: Vec::new(),
            errors: Vec::new(),
        };
        let warmup = c.plan.warmup.clone();
        match kind {
            Kind::Live => {
                c.neuro(&warmup, size.frames, None)?;
            }
            Kind::Record => {
                c.neuro(&warmup, size.frames, None)?;
                c.start_recording(store)?;
            }
            Kind::Replay => {
                // The segment every timed request replays, recorded live.
                c.start_recording(store)?;
                c.neuro(&warmup, size.frames, None)?;
                c.stop_recording(store, 1, size.frames, false)?;
                c.replay(size.frames, None)?;
            }
        }
        Ok(c)
    }

    /// The client's one store segment: recorded and deleted by
    /// `stream_record`, recorded once and replayed by `replay`.
    fn segment(&self) -> String {
        format!("bench-{}", self.id)
    }

    fn start_recording(&mut self, store: &Path) -> Result<(), String> {
        let name = self.segment();
        // A leftover from an aborted run must not make this one fail.
        let _ =
            std::fs::remove_file(bsa_store::segment_path(store, &name).map_err(|e| e.to_string())?);
        match self.wire.call(&Message::StartRecording {
            chip: self.chip,
            name,
        })? {
            Message::RecordingStarted { .. } => Ok(()),
            other => Err(format!("expected RecordingStarted, got {other:?}")),
        }
    }

    /// Stops the recording and checks the store accounted for every
    /// frame the chip produced; with `delete`, removes the segment.
    fn stop_recording(
        &mut self,
        store: &Path,
        requests: usize,
        frames: u32,
        delete: bool,
    ) -> Result<(), String> {
        let (written, dropped) = match self
            .wire
            .call(&Message::StopRecording { chip: self.chip })?
        {
            Message::RecordingStopped {
                frames_written,
                frames_dropped,
                ..
            } => (frames_written, frames_dropped),
            other => return Err(format!("expected RecordingStopped, got {other:?}")),
        };
        let expected = requests as u64 * u64::from(frames);
        if written + dropped != expected {
            self.errors.push(format!(
                "recording: {written} written + {dropped} dropped != {expected} frames requested"
            ));
        }
        self.tally.store_written += written;
        self.tally.store_dropped += dropped;
        if delete {
            let path =
                bsa_store::segment_path(store, &self.segment()).map_err(|e| e.to_string())?;
            std::fs::remove_file(&path).map_err(|e| format!("delete {}: {e}", path.display()))?;
        } else if dropped != 0 {
            return Err(format!("source recording dropped {dropped} frames"));
        }
        Ok(())
    }

    /// Checks one stream's accounting: every frame sent arrived, and
    /// sent plus dropped is what was asked for.
    fn account(&mut self, o: &Outcome, expected: u64) {
        self.wire_sent += o.sent;
        self.wire_dropped += o.dropped;
        if o.received != o.sent || o.sent + o.dropped != expected {
            self.errors.push(format!(
                "stream accounting: received {}, sent {}, dropped {}, requested {expected}",
                o.received, o.sent, o.dropped
            ));
        }
    }

    fn neuro(
        &mut self,
        culture: &CultureSpec,
        frames: u32,
        trace: Option<(&mut Tracer, u64)>,
    ) -> Result<Outcome, String> {
        let msg = Message::StartNeuroStream {
            chip: self.chip,
            frames,
            chunk_frames: CHUNK_FRAMES,
            t0_s: 0.0,
            culture: culture.clone(),
        };
        let mut o = self.wire.request(&msg, trace)?;
        self.account(&o, u64::from(frames));
        self.streams.push(std::mem::take(&mut o.digests));
        Ok(o)
    }

    fn replay(
        &mut self,
        frames: u32,
        trace: Option<(&mut Tracer, u64)>,
    ) -> Result<Outcome, String> {
        let msg = Message::Replay {
            name: self.segment(),
            chunk_frames: CHUNK_FRAMES,
        };
        let mut o = self.wire.request(&msg, trace)?;
        self.account(&o, u64::from(frames));
        self.replays.push(std::mem::take(&mut o.digests));
        Ok(o)
    }

    /// The timed closed loop: each request is sent when the previous one
    /// has completed.
    fn run(&mut self, kind: Kind, size: Size, store: &Path, mut tracer: Option<&mut Tracer>) {
        for r in 0..size.requests {
            let trace = tracer
                .as_deref_mut()
                .filter(|_| r < TRACE_KEEP)
                .map(|t| (t, (self.id * 1_000_000 + r) as u64));
            let result = match (kind, self.plan.cultures.get(r)) {
                (Kind::Live | Kind::Record, Some(culture)) => {
                    let culture = culture.clone();
                    self.neuro(&culture, size.frames, trace)
                }
                (Kind::Replay, _) => self.replay(size.frames, trace),
                _ => Err(format!("request {r} has no culture in the plan")),
            };
            let t = &mut self.tally;
            t.requests += 1;
            t.attempted += u64::from(size.frames);
            match result {
                Ok(o) => {
                    t.delivered += o.received;
                    t.ttfc_ms.extend(o.ttfc_ms);
                    t.request_ms.push(o.request_ms);
                    t.chunks += o.chunks;
                    t.recv_wait_s += o.recv_wait_s;
                    if tracer.is_some() {
                        t.gaps_ms.extend(o.gaps_ms);
                    }
                }
                Err(e) => {
                    t.failed += 1;
                    self.failures.push(e);
                    return;
                }
            }
        }
        if kind == Kind::Record {
            if let Err(e) = self.stop_recording(store, size.requests, size.frames, true) {
                self.tally.failed += 1;
                self.failures.push(e);
            }
        }
    }

    /// The correctness gate, run after the timed region: an in-process
    /// chip built from the same spec replays this client's call sequence.
    fn verify(&mut self, kind: Kind, size: Size) -> Result<(), String> {
        let ClientPlan {
            spec,
            warmup,
            cultures,
        } = &self.plan;
        let config = neuro_config_from_spec(spec).map_err(|e| e.to_string())?;
        let mut chip = NeuroChip::new(config).map_err(|e| e.to_string())?;
        chip.calibrate(Seconds::new(0.0));
        let served = std::iter::once(warmup).chain(cultures.iter());
        let mut reference: Vec<u64> = Vec::new();
        for (n, (culture, got)) in served.zip(&self.streams).enumerate() {
            let rec = chip.record(
                &culture_from_spec(culture),
                Seconds::new(0.0),
                size.frames as usize,
            );
            reference = rec.frames().iter().map(|f| digest(f.samples())).collect();
            chip.recycle(rec);
            let bad = got
                .iter()
                .filter(|(i, d)| reference.get(*i as usize) != Some(d))
                .count();
            if bad > 0 {
                self.errors.push(format!(
                    "stream {n}: {bad} delivered frames differ from in-process record()"
                ));
            }
        }
        if kind == Kind::Replay {
            // The one live stream was the recorded one, and its frames
            // matched `reference` above; every replay must reproduce all
            // of them.
            for (n, got) in self.replays.iter().enumerate() {
                let bad = got
                    .iter()
                    .filter(|(i, d)| reference.get(*i as usize) != Some(d))
                    .count();
                if bad > 0 || got.len() != size.frames as usize {
                    self.errors.push(format!(
                        "replay {n}: {bad} of {} frames differ from the recorded stream",
                        got.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runs one slice and returns its record. The slice's store directory
/// is removed whatever happens.
pub fn run(a: &SliceArgs) -> Result<Value, String> {
    let store = a.store_root.join(format!(
        "{}-{}-{}",
        a.workload.name,
        std::process::id(),
        a.slice
    ));
    let out = run_in(a, &store);
    let _ = std::fs::remove_dir_all(&store);
    out
}

fn run_in(a: &SliceArgs, store: &Path) -> Result<Value, String> {
    let w = a.workload;
    let size = w.size(a.smoke);
    let plans = workload::plan(w, a.seed, a.slice, size);
    let epoch = Instant::now();

    // Set-up: from bind to ready.
    let station = Station::bind(StationConfig {
        store_root: Some(store.to_path_buf()),
        ..StationConfig::default()
    })
    .map_err(|e| format!("bind station: {e}"))?;
    let mut clients = plans
        .iter()
        .enumerate()
        .map(|(id, plan)| Client::setup(station.addr(), id, plan, w.kind, size, store))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_s = epoch.elapsed().as_secs_f64();

    // Timed region: every client runs its closed loop on its own thread,
    // released together by the barrier.
    let mut tracers: Vec<Tracer> = clients.iter().map(|_| Tracer::new(epoch)).collect();
    let barrier = Barrier::new(clients.len() + 1);
    let sampling = AtomicBool::new(true);
    let (timed_s, cpu_s, threads_peak, panicked) = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(c, tracer)| {
                let barrier = &barrier;
                let tracer = a.trace.then_some(tracer);
                s.spawn(move || {
                    barrier.wait();
                    c.run(w.kind, size, store, tracer);
                })
            })
            .collect();
        // Traced slices sample the process's thread count throughout.
        let sampler = a.trace.then(|| {
            s.spawn(|| {
                let mut peak = host::threads();
                while sampling.load(Ordering::Relaxed) {
                    peak = peak.max(host::threads());
                    std::thread::sleep(Duration::from_millis(1));
                }
                peak
            })
        });
        barrier.wait();
        let (t0, cpu0) = (Instant::now(), host::cpu_seconds());
        let panicked = workers.into_iter().any(|h| h.join().is_err());
        let (t1, cpu1) = (Instant::now(), host::cpu_seconds());
        sampling.store(false, Ordering::Relaxed);
        let peak = sampler.map_or(0.0, |h| h.join().unwrap_or(0.0));
        ((t1 - t0).as_secs_f64(), cpu1 - cpu0, peak, panicked)
    });
    if panicked {
        return Err("a client thread panicked".into());
    }
    let peak_rss_mb = host::peak_rss_mb();

    // The station's own counters must agree with what the clients saw.
    let mut errors = Vec::new();
    let stats = match clients[0].wire.call(&Message::QueryStats)? {
        Message::StatsReport(stats) => stats,
        other => return Err(format!("expected StatsReport, got {other:?}")),
    };
    let sent: u64 = clients.iter().map(|c| c.wire_sent).sum();
    let dropped: u64 = clients.iter().map(|c| c.wire_dropped).sum();
    if (stats.frames_served, stats.frames_dropped) != (sent, dropped) {
        errors.push(format!(
            "station served {} / dropped {}, clients saw {sent} / {dropped}",
            stats.frames_served, stats.frames_dropped
        ));
    }
    let rtt_us = if a.trace {
        let pings = if a.smoke { 5 } else { 200 };
        (0..pings)
            .map(|token| {
                let start = Instant::now();
                match clients[0].wire.call(&Message::Ping { token })? {
                    Message::Pong { .. } => Ok(start.elapsed().as_secs_f64() * 1e6),
                    other => Err(format!("expected Pong, got {other:?}")),
                }
            })
            .collect::<Result<Vec<f64>, String>>()?
    } else {
        Vec::new()
    };
    drop(station);

    for c in &mut clients {
        c.verify(w.kind, size)?;
        errors.append(&mut c.errors);
    }

    let sum = |f: fn(&Tally) -> u64| clients.iter().map(|c| f(&c.tally)).sum::<u64>();
    let pool = |f: fn(&Tally) -> &Vec<f64>| -> Vec<f64> {
        clients
            .iter()
            .flat_map(|c| f(&c.tally).iter().copied())
            .collect()
    };
    let mut station_stats = Value::obj();
    station_stats
        .set("frames_served", stats.frames_served)
        .set("frames_dropped", stats.frames_dropped)
        .set("bytes_sent", stats.bytes_sent)
        .set("queue_peak", stats.queue_peak)
        .set("requests", stats.requests);
    let mut record = Value::obj();
    record
        .set("workload", w.name)
        .set("slice", a.slice)
        .set("setup_s", setup_s)
        .set("timed_s", timed_s)
        .set("cpu_s", cpu_s)
        .set("peak_rss_mb", peak_rss_mb)
        .set("requests", sum(|t| t.requests))
        .set("failed", sum(|t| t.failed))
        .set("attempted", sum(|t| t.attempted))
        .set("delivered", sum(|t| t.delivered))
        .set("chunks", sum(|t| t.chunks))
        .set("store_written", sum(|t| t.store_written))
        .set("store_dropped", sum(|t| t.store_dropped))
        .set("ttfc_ms", pool(|t| &t.ttfc_ms))
        .set("request_ms", pool(|t| &t.request_ms))
        .set("station", station_stats)
        .set(
            "failures",
            clients
                .iter()
                .flat_map(|c| c.failures.iter().map(|f| Value::from(f.as_str())))
                .collect::<Vec<_>>(),
        )
        .set(
            "errors",
            errors.into_iter().map(Value::from).collect::<Vec<_>>(),
        );

    if a.trace {
        let mut shadow_tracer = Tracer::new(epoch);
        let layers = shadow::run(
            &plans,
            w.kind,
            size,
            a.smoke,
            workload::mix(a.seed, a.slice),
            &store.join("shadow"),
            &mut shadow_tracer,
        )?;
        let mut spans = Vec::new();
        for tracer in tracers.iter().chain(std::iter::once(&shadow_tracer)) {
            let offset = spans.len();
            spans.extend(tracer.to_json(a.slice, offset));
        }
        let kept: usize = tracers.iter().map(|t| t.spans.len()).sum();
        record
            .set(
                "recv_wait_s",
                clients.iter().map(|c| c.tally.recv_wait_s).sum::<f64>(),
            )
            .set("gaps_ms", pool(|t| &t.gaps_ms))
            .set("rtt_us", rtt_us)
            .set("threads_peak", threads_peak)
            .set("spans_kept", kept)
            .set("span_cost_ns", span_cost_ns())
            .set(
                "layers",
                Value::Obj(
                    layers
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Value::from(v)))
                        .collect(),
                ),
            )
            .set("spans", spans);
    }
    Ok(record)
}
