//! The shadow pass of a traced slice: re-issues the slice's server-side
//! work in-process through the public calls the station's session makes
//! (`neuro_config_from_spec`/`culture_from_spec`, `NeuroChip::record`,
//! `encode_frame`, `encode_neuro_frame` plus `Recorder`, `SegmentReader`,
//! `DnaChip::run_assay`), with a span around each call. No workload
//! drives a DNA chip, so the DNA layers are measured on a seed-derived
//! one in every traced slice.

use crate::client::digest;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, mix, ClientPlan, DnaPlan, Kind, Size, CHUNK_FRAMES};
use bsa_core::dna_chip::{DnaChip, SampleMix};
use bsa_core::neuro_chip::NeuroChip;
use bsa_core::ScanOptions;
use bsa_electrochem::sequence::DnaSequence;
use bsa_link::crc::crc8;
use bsa_link::{decode_frame, encode_frame, ChipKind, Message, StreamPayload, TargetSpec};
use bsa_station::{culture_from_spec, dna_config_from_spec, neuro_config_from_spec};
use bsa_store::{
    decode_neuro_frame, encode_neuro_frame, fnv1a64, frame_payload_len, segment_path, Offer,
    Recorder, SegmentMeta, SegmentReader, DEFAULT_QUEUE_DEPTH,
};
use bsa_units::{Molar, Seconds};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Requests of the slice re-issued in the shadow, and repeats of each
/// single-call stage timing (the median is kept).
const SHADOW_REQUESTS: usize = 3;
const REPEATS: usize = 3;

pub type Layers = Vec<(&'static str, f64)>;

fn err(e: impl std::fmt::Display) -> String {
    format!("shadow: {e}")
}

fn median_ms(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_ms(name)).unwrap_or(0.0)
}

pub fn run(
    plans: &[ClientPlan],
    kind: Kind,
    size: Size,
    smoke: bool,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let frames = size.frames.min(128);
    let neuro = plans
        .first()
        .ok_or_else(|| err("a slice without clients"))?;
    let dna = workload::dna_plan(mix(seed, 2));
    let mut layers = Layers::new();
    neuro_layers(neuro, frames, kind, dir, tracer, &mut layers)?;
    dna_layers(&dna, if smoke { 3 } else { 200 }, tracer, &mut layers)?;
    Ok(layers)
}

fn neuro_layers(
    plan: &ClientPlan,
    frames: u32,
    kind: Kind,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let ClientPlan {
        spec,
        warmup,
        cultures,
    } = plan;
    // Replay serves a recording of the warm-up culture.
    let cultures: Vec<_> = if kind == Kind::Replay || cultures.is_empty() {
        vec![warmup; SHADOW_REQUESTS]
    } else {
        cultures.iter().take(SHADOW_REQUESTS).collect()
    };
    let mut chip = NeuroChip::new(neuro_config_from_spec(spec).map_err(err)?).map_err(err)?;
    chip.calibrate(Seconds::new(0.0));
    let n = frames as usize;
    let chunk = CHUNK_FRAMES as usize;

    // The session's stream path, request by request: culture, one
    // record() for the whole request, then per chunk the sample copy, the
    // store tee's encoding, the wire encoding and the client's decode.
    let mut payloads = Vec::new();
    let mut digests = Vec::new();
    let mut wire_chunk = Vec::new();
    for (r, culture_spec) in cultures.iter().enumerate() {
        let r = r as u64;
        let req = tracer.open("session.request", None, r);
        let culture = tracer.leaf("neuro.culture", Some(req), r, || {
            culture_from_spec(culture_spec)
        });
        let rec = tracer.leaf("core.scan", Some(req), r, || {
            chip.record(&culture, Seconds::new(0.0), n)
        });
        for (seq, frames) in rec.frames().chunks(chunk).enumerate() {
            let samples = tracer.leaf("session.chunk", Some(req), r, || {
                let mut samples = Vec::with_capacity(frames.len() * spec_len(spec));
                for f in frames {
                    samples.extend_from_slice(f.samples());
                }
                samples
            });
            if r == 0 {
                for f in frames {
                    payloads.push(tracer.leaf("store.encode", Some(req), r, || {
                        encode_neuro_frame(f.samples())
                    }));
                    digests.push(digest(f.samples()));
                }
            }
            let msg = Message::StreamData {
                chip: 0,
                seq: seq as u32,
                payload: StreamPayload::NeuroFrames {
                    first_frame: (seq * chunk) as u32,
                    rows: spec.rows,
                    cols: spec.cols,
                    samples,
                },
            };
            let bytes = tracer.leaf("link.encode", Some(req), r, || encode_frame(&msg));
            let back = tracer.leaf("link.decode", Some(req), r, || decode_frame(&bytes));
            if !matches!(&back, Ok(m) if *m == msg) {
                return Err(err(
                    "decode_frame(encode_frame(chunk)) differs from the chunk",
                ));
            }
            if frames.len() == chunk {
                wire_chunk = bytes;
            }
        }
        chip.recycle(rec);
        tracer.close(req);
    }
    let arena = chip.arena_stats();
    let done = (n * cultures.len()) as f64;
    let chunks = tracer.durations_ms("link.encode").len().max(1) as f64;
    out.push(("neuro.culture_ms", median_ms(tracer, "neuro.culture")));
    out.push(("core.scan_ms_per_frame", tracer.self_ms("core.scan") / done));
    out.push((
        "link.encode_ms_per_frame",
        tracer.self_ms("link.encode") / done,
    ));
    out.push((
        "link.decode_ms_per_frame",
        tracer.self_ms("link.decode") / done,
    ));
    out.push((
        "link.wire_bytes_per_frame",
        wire_chunk.len() as f64 / chunk as f64,
    ));
    out.push((
        "shadow.copy_ms_per_chunk",
        tracer.self_ms("session.chunk") / chunks,
    ));
    out.push((
        "core.arena_reuse_share",
        arena.reuses as f64 / (arena.allocations + arena.reuses).max(1) as f64,
    ));

    // Serial against parallel scans of the same request, alternated.
    let culture = culture_from_spec(cultures[0]);
    for _ in 0..REPEATS {
        for (name, opts) in [
            ("core.scan_serial", ScanOptions::serial()),
            ("core.scan_parallel", ScanOptions::default()),
        ] {
            let start = Instant::now();
            let rec = chip.record_with(&culture, Seconds::new(0.0), n, opts);
            tracer.record(name, start, Instant::now(), None, 0);
            chip.recycle(rec);
        }
    }
    let serial = median_ms(tracer, "core.scan_serial") / n as f64;
    let parallel = median_ms(tracer, "core.scan_parallel") / n as f64;
    out.push(("core.scan_serial_ms_per_frame", serial));
    let threads = chip.resolved_scan_threads(ScanOptions::default());
    if threads > 1 {
        out.push((
            "core.scan_parallel_efficiency",
            serial / parallel / threads as f64,
        ));
    } else {
        eprintln!("refusing core.scan_parallel_efficiency: only one scan thread resolved");
    }

    for _ in 0..REPEATS {
        tracer.leaf("core.calibrate", None, 0, || {
            chip.calibrate(Seconds::new(0.0))
        });
        tracer.leaf("core.linearize", None, 0, || {
            chip.relinearize(Seconds::new(0.0))
        });
        tracer.leaf("core.culture_compile", None, 0, || {
            chip.compile_culture_sources(&culture)
        });
        tracer.leaf("link.crc", None, 0, || crc8(black_box(&wire_chunk)));
    }
    out.push(("core.calibrate_ms", median_ms(tracer, "core.calibrate")));
    out.push(("core.linearize_ms", median_ms(tracer, "core.linearize")));
    out.push((
        "core.culture_compile_ms",
        median_ms(tracer, "core.culture_compile"),
    ));
    out.push((
        "link.crc_ms_per_mb",
        median_ms(tracer, "link.crc") * 1e6 / wire_chunk.len().max(1) as f64,
    ));

    // The store: the first request's frames through a recorder, then read
    // back and checked bit for bit.
    std::fs::create_dir_all(dir).map_err(err)?;
    let config = format!("{:?}", chip.config());
    let meta = SegmentMeta {
        chip: 0,
        kind: ChipKind::Neuro,
        rows: spec.rows,
        cols: spec.cols,
        config_hash: fnv1a64(config.as_bytes()),
        spec: config,
    };
    let name = "shadow";
    let _ = std::fs::remove_file(segment_path(dir, name).map_err(err)?);
    let count = payloads.len();
    let write = tracer.open("store.write", None, 0);
    let mut recorder = Recorder::create(
        dir,
        name,
        &meta,
        frame_payload_len(ChipKind::Neuro, spec.rows, spec.cols),
        DEFAULT_QUEUE_DEPTH,
    )
    .map_err(err)?;
    for payload in payloads {
        let offer = tracer.leaf("store.offer", Some(write), 0, || recorder.offer(0, payload));
        if !matches!(offer, Ok(Offer::Accepted)) {
            return Err(err("the recorder refused a frame with room in its queue"));
        }
    }
    let summary = recorder.finish().map_err(err)?;
    tracer.close(write);
    if summary.frames_written != count as u64 {
        return Err(err("the recorder lost frames"));
    }
    let count_f = count.max(1) as f64;
    out.push((
        "store.encode_us_per_frame",
        tracer.self_ms("store.encode") * 1e3 / count_f,
    ));
    out.push((
        "store.offer_us_per_frame",
        tracer.self_ms("store.offer") * 1e3 / count_f,
    ));
    out.push((
        "store.write_ms_per_frame",
        median_ms(tracer, "store.write") / count_f,
    ));
    for _ in 0..REPEATS {
        tracer
            .leaf("store.open", None, 0, || {
                SegmentReader::open_named(dir, name)
            })
            .map_err(err)?;
    }
    out.push(("store.open_ms", median_ms(tracer, "store.open")));
    let mut reader = SegmentReader::open_named(dir, name).map_err(err)?;
    let mut samples = Vec::new();
    for (i, want) in digests.iter().enumerate() {
        samples.clear();
        tracer
            .leaf("store.read", None, 0, || {
                reader
                    .frame(i as u64)
                    .and_then(|f| decode_neuro_frame(f.payload, &mut samples))
            })
            .map_err(err)?;
        if digest(&samples) != *want {
            return Err(err(format!(
                "stored frame {i} differs from the recorded one"
            )));
        }
    }
    out.push((
        "store.read_us_per_frame",
        tracer.self_ms("store.read") * 1e3 / count_f,
    ));
    std::fs::remove_file(segment_path(dir, name).map_err(err)?).map_err(err)?;
    Ok(())
}

fn spec_len(spec: &bsa_link::NeuroChipSpec) -> usize {
    usize::from(spec.rows) * usize::from(spec.cols)
}

/// Parses the wire-form probes and targets the way the station does.
fn dna_inputs(
    probes: &[String],
    targets: &[TargetSpec],
) -> Result<(Vec<DnaSequence>, SampleMix), String> {
    let probes = probes
        .iter()
        .map(|p| p.parse::<DnaSequence>().map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let mut sample = SampleMix::new();
    for t in targets {
        let seq = t.sequence.parse::<DnaSequence>().map_err(err)?;
        sample = sample.with_target(seq, Molar::new(t.concentration_molar));
    }
    Ok((probes, sample))
}

fn dna_layers(
    plan: &DnaPlan,
    assays: usize,
    tracer: &mut Tracer,
    out: &mut Layers,
) -> Result<(), String> {
    let DnaPlan {
        spec,
        probes,
        targets,
    } = plan;
    let mut chip = DnaChip::new(dna_config_from_spec(spec).map_err(err)?).map_err(err)?;
    let (probes, sample) = dna_inputs(probes, targets)?;
    chip.spot_all(&probes);
    chip.auto_calibrate();
    let warm = chip.run_assay(&sample);
    for i in 0..assays {
        tracer.leaf("core.dna_assay", None, i as u64, || {
            black_box(chip.run_assay(&sample))
        });
    }
    for i in 0..assays {
        tracer
            .leaf("core.dna_convert", None, i as u64, || {
                chip.measure_currents(&warm.true_currents)
            })
            .map_err(err)?;
    }
    out.push((
        "core.dna_assay_us",
        median_ms(tracer, "core.dna_assay") * 1e3,
    ));
    out.push((
        "core.dna_convert_us",
        median_ms(tracer, "core.dna_convert") * 1e3,
    ));
    Ok(())
}
