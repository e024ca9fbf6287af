//! Pools slice records into a workload's metrics: the end-to-end set from
//! untraced runs, the per-layer set from traced ones.

use crate::json::Value;
use crate::stats::{median, percentile};
use crate::workload::{Kind, Workload, CHUNK_FRAMES};

/// End-to-end metrics, as a user of the station sees them. Frames are
/// the delivered unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("delivered_per_s", "1/s"),
    ("delivered_share", "share"),
    ("ttfc_ms_p50", "ms"),
    ("request_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_op", "us"),
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.scan_ms_per_frame", "ms"),
    ("core.scan_serial_ms_per_frame", "ms"),
    ("core.scan_parallel_efficiency", "ratio"),
    ("core.calibrate_ms", "ms"),
    ("core.linearize_ms", "ms"),
    ("core.culture_compile_ms", "ms"),
    ("neuro.culture_ms", "ms"),
    ("core.arena_reuse_share", "share"),
    ("process.threads_peak", "count"),
    ("core.dna_assay_us", "us"),
    ("core.dna_convert_us", "us"),
    ("transport.rtt_us", "us"),
    ("link.encode_ms_per_frame", "ms"),
    ("link.decode_ms_per_frame", "ms"),
    ("link.crc_ms_per_mb", "ms"),
    ("link.wire_bytes_per_frame", "bytes"),
    ("transport.recv_wait_ms_per_chunk", "ms"),
    ("client.chunk_gap_ms_p50", "ms"),
    ("client.chunk_gap_ms_p90", "ms"),
    ("station.queue_peak", "count"),
    ("station.drop_share", "share"),
    ("station.bytes_per_frame", "bytes"),
    ("station.requests", "count"),
    ("store.encode_us_per_frame", "us"),
    ("store.offer_us_per_frame", "us"),
    ("store.write_ms_per_frame", "ms"),
    ("store.open_ms", "ms"),
    ("store.read_us_per_frame", "us"),
    ("reconcile.ttfc_ratio", "ratio"),
    ("reconcile.serve_ratio", "ratio"),
    ("trace.overhead_share", "share"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct Summary {
    pub workload: &'static Workload,
    pub slices: usize,
    pub correct: bool,
    /// Timed requests, and those that failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the run's mode, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Printed and saved, but not part of the benchmark's metric set.
    pub extra: Vec<Metric>,
    /// Correctness failures, refused metrics and warnings.
    pub notes: Vec<String>,
}

fn total(records: &[Value], key: &str) -> f64 {
    records.iter().map(|r| r.f64_or(key, 0.0)).sum()
}

fn pooled(records: &[Value], key: &str) -> Vec<f64> {
    records.iter().flat_map(|r| r.f64s(key)).collect()
}

fn per_slice(records: &[Value], key: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get(key)?.as_f64())
        .collect()
}

/// Median over slices of one slice's `num ÷ den`: a slice that a burst of
/// host load slowed moves a run's rate less than in a pooled ratio.
fn slice_median(records: &[Value], num: &str, den: &str) -> Option<f64> {
    let ratios: Vec<f64> = records
        .iter()
        .map(|r| share(r.f64_or(num, 0.0), r.f64_or(den, 0.0)))
        .collect();
    median(&ratios)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn summarize(workload: &'static Workload, records: &[Value], trace: bool) -> Summary {
    let mut notes: Vec<String> = records
        .iter()
        .flat_map(|r| r.get("errors").map(Value::as_arr).unwrap_or_default())
        .filter_map(|e| e.as_str().map(str::to_string))
        .collect();
    let correct = notes.is_empty() && !records.is_empty();
    notes.extend(
        records
            .iter()
            .flat_map(|r| r.get("failures").map(Value::as_arr).unwrap_or_default())
            .filter_map(|e| e.as_str().map(|f| format!("failed: {f}"))),
    );
    let mut found: Vec<(&'static str, Option<f64>)> = Vec::new();
    let mut extra = Vec::new();
    let mut push_extra = |name: &'static str, unit: &'static str, value: Option<f64>| {
        if let Some(value) = value {
            extra.push(Metric { name, value, unit });
        }
    };

    let ttfc = pooled(records, "ttfc_ms");
    let request = pooled(records, "request_ms");
    let attempted_ops = total(records, "attempted");
    let delivered = total(records, "delivered");
    if trace {
        found.extend(layer_metrics(
            workload, records, &ttfc, &request, &mut notes,
        ));
    } else {
        found.extend([
            ("setup_s", median(&per_slice(records, "setup_s"))),
            (
                "delivered_per_s",
                slice_median(records, "delivered", "timed_s"),
            ),
            ("delivered_share", Some(share(delivered, attempted_ops))),
            ("ttfc_ms_p50", percentile(&ttfc, 50)),
            ("request_ms_p50", percentile(&request, 50)),
            ("peak_rss_mb", median(&per_slice(records, "peak_rss_mb"))),
            (
                "cpu_us_per_op",
                slice_median(records, "cpu_s", "delivered").map(|s| s * 1e6),
            ),
        ]);
    }
    push_extra("ttfc_ms_p90", "ms", percentile(&ttfc, 90));
    push_extra("request_ms_p90", "ms", percentile(&request, 90));
    push_extra(
        "failed_share",
        "share",
        Some(share(attempted_ops - delivered, attempted_ops)),
    );
    push_extra("ttfc_samples", "count", Some(ttfc.len() as f64));
    push_extra("request_samples", "count", Some(request.len() as f64));
    if workload.kind == Kind::Record {
        let written = total(records, "store_written");
        let dropped = total(records, "store_dropped");
        push_extra(
            "store_drop_share",
            "share",
            Some(share(dropped, written + dropped)),
        );
    }

    let mut metrics = Vec::new();
    for (name, value) in found {
        match value {
            Some(value) => metrics.push(Metric {
                name,
                value,
                unit: unit_of(name),
            }),
            None => notes.push(format!(
                "{name}: not reported, fewer than ten samples lie beyond the percentile"
            )),
        }
    }
    Summary {
        workload,
        slices: records.len(),
        correct,
        attempted: total(records, "requests") as u64,
        failed: total(records, "failed") as u64,
        metrics,
        extra,
        notes,
    }
}

/// The per-layer set: shadow-pass figures as medians over slices, live
/// client and station figures pooled over slices, and the reconcile
/// ratios that check the layer costs add up to what the client saw.
fn layer_metrics(
    w: &Workload,
    records: &[Value],
    ttfc: &[f64],
    request: &[f64],
    notes: &mut Vec<String>,
) -> Vec<(&'static str, Option<f64>)> {
    let layer = |name: &str| {
        let values: Vec<f64> = records
            .iter()
            .filter_map(|r| r.get("layers")?.get(name)?.as_f64())
            .collect();
        median(&values)
    };
    let station = |key: &str| -> Vec<f64> {
        records
            .iter()
            .filter_map(|r| r.get("station")?.get(key)?.as_f64())
            .collect()
    };
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let gaps = pooled(records, "gaps_ms");
    let served = sum(station("frames_served"));
    let dropped = sum(station("frames_dropped"));
    let requests = total(records, "requests");
    let chunks = total(records, "chunks");
    let timed = total(records, "timed_s");

    let l = |name: &str| layer(name).unwrap_or(0.0);
    let chunk = f64::from(CHUNK_FRAMES);
    let encode = l("link.encode_ms_per_frame") * chunk;
    let decode = l("link.decode_ms_per_frame") * chunk;
    let copy = l("shadow.copy_ms_per_chunk");
    let tee = chunk * (l("store.encode_us_per_frame") + l("store.offer_us_per_frame")) / 1e3;
    let read = chunk * l("store.read_us_per_frame") / 1e3;
    let frames = share(total(records, "attempted"), requests);
    // Work that blocks the first chunk, and the per-chunk cost of each
    // side of the pipeline that follows it.
    let (first_chunk_ms, server_chunk_ms, client_chunk_ms) = match w.kind {
        Kind::Live => (
            l("neuro.culture_ms") + l("core.scan_ms_per_frame") * frames + copy + encode + decode,
            copy + encode,
            decode,
        ),
        Kind::Record => (
            l("neuro.culture_ms")
                + l("core.scan_ms_per_frame") * frames
                + copy
                + tee
                + encode
                + decode,
            copy + tee + encode,
            decode,
        ),
        Kind::Replay => (
            l("store.open_ms") + read + encode + decode,
            read + encode,
            decode,
        ),
    };
    let ttfc_p50 = percentile(ttfc, 50);
    let request_p50 = percentile(request, 50);
    let ttfc_ratio = ttfc_p50.map(|t| first_chunk_ms / t);
    let serve_ratio = ttfc_p50.zip(request_p50).map(|(t, r)| {
        (share(chunks, requests) - 1.0) * server_chunk_ms.max(client_chunk_ms) / (r - t)
    });
    // The model above is a single uncontended pipeline: it should hold on
    // one live client. Elsewhere contention (two clients) moves the
    // ratios by design.
    if w.kind == Kind::Live && w.clients == 1 {
        for (name, ratio) in [
            ("reconcile.ttfc_ratio", ttfc_ratio),
            ("reconcile.serve_ratio", serve_ratio),
        ] {
            if let Some(r) = ratio.filter(|r| !(0.8..=1.25).contains(r)) {
                notes.push(format!("warning: {name} = {r:.3} is outside 0.8-1.25"));
            }
        }
    }
    let span_cost = median(&per_slice(records, "span_cost_ns")).unwrap_or(0.0);

    let mut out: Vec<(&'static str, Option<f64>)> = Vec::new();
    for (name, _) in PER_LAYER {
        let value = match name {
            "process.threads_peak" => per_slice(records, "threads_peak")
                .into_iter()
                .reduce(f64::max),
            "transport.rtt_us" => median(&pooled(records, "rtt_us")),
            "transport.recv_wait_ms_per_chunk" => {
                Some(share(total(records, "recv_wait_s") * 1e3, chunks))
            }
            "client.chunk_gap_ms_p50" => percentile(&gaps, 50),
            "client.chunk_gap_ms_p90" => percentile(&gaps, 90),
            "station.queue_peak" => station("queue_peak").into_iter().reduce(f64::max),
            "station.drop_share" => Some(share(dropped, served + dropped)),
            "station.bytes_per_frame" => Some(share(sum(station("bytes_sent")), served)),
            "station.requests" => median(&station("requests")),
            "reconcile.ttfc_ratio" => ttfc_ratio,
            "reconcile.serve_ratio" => serve_ratio,
            "trace.overhead_share" => {
                Some(share(total(records, "spans_kept") * span_cost, timed * 1e9))
            }
            "core.scan_parallel_efficiency" if layer(name).is_none() => {
                notes.push(
                    "core.scan_parallel_efficiency: refused, only one scan thread resolved".into(),
                );
                continue;
            }
            _ => layer(name),
        };
        out.push((name, value));
    }
    out
}
