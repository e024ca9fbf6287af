//! Closed-loop benchmark of the acquisition station.
//!
//! Each workload brings up an in-process `bsa_station::Station` on
//! loopback and drives it as a closed loop of blocking clients that speak
//! the wire protocol themselves. A run is a sequence of slices; each
//! slice is a fresh process (this binary re-executed with `slice`) that
//! does the workload's fixed work, checks every output, and reports its
//! samples. Workloads are interleaved slice by slice, so host noise
//! spreads evenly across them.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out DIR]
//! benchmark compare RUNS_A RUNS_B
//! ```
//!
//! A run keeps adding slices until the timed regions reach S seconds
//! (10 by default) and every percentile has its samples; `--smoke` runs
//! one small slice per workload instead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics, end-to-end ones without `--trace`, per-layer ones with it.
//! The exit code is non-zero if any correctness check failed.

mod client;
mod compare;
mod host;
mod json;
mod report;
mod shadow;
mod slice;
mod stats;
mod trace;
mod workload;

use json::Value;
use report::Summary;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

/// Requests a workload needs before its p50 may be reported (ten beyond
/// the median); slices keep coming until a run has them.
const MIN_REQUESTS: f64 = 20.0;
/// A run stops adding slices after this long, whatever it still lacks,
/// so that it always ends well inside three minutes.
const WALL_CAP: Duration = Duration::from_secs(120);
/// Where slices keep their store segments, relative to the working
/// directory; each slice removes its own directory when it ends.
const STORE_ROOT: &str = ".bench_store";

#[derive(Debug)]
struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    slice: u64,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
        slice: 0,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg} needs a whole number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                o.workloads = vec![workload::find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?];
            }
            "--seed" => o.seed = number(value("a seed")?)?,
            "--seconds" => o.seconds = number(value("a duration")?)? as f64,
            "--slice" => o.slice = number(value("an index")?)?,
            "--out" => o.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => o.smoke = true,
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Runs one slice in this process and prints its record as one line.
fn run_slice(o: &Options) -> Result<bool, String> {
    let [w] = o.workloads[..] else {
        return Err("slice needs --workload".into());
    };
    let record = slice::run(&slice::SliceArgs {
        workload: w,
        seed: o.seed,
        slice: o.slice,
        smoke: o.smoke,
        trace: o.trace,
        store_root: PathBuf::from(STORE_ROOT),
    })?;
    println!("{record}");
    Ok(true)
}

/// Runs one slice in a fresh process and waits for it; the parent stays
/// idle meanwhile.
fn spawn_slice(o: &Options, w: &Workload, slice: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["slice", "--workload", w.name])
        .args(["--seed", &o.seed.to_string(), "--slice", &slice.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn slice: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "slice {slice} of {} failed ({})",
            w.name, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("slice {slice} of {}: unreadable record: {e}", w.name))
}

fn wants_more(o: &Options, records: &[Value], round: usize, start: Instant) -> bool {
    if o.smoke || records.is_empty() {
        return round == 0;
    }
    if start.elapsed() > WALL_CAP {
        return false;
    }
    let timed: f64 = records.iter().map(|r| r.f64_or("timed_s", 0.0)).sum();
    let requests: f64 = records.iter().map(|r| r.f64_or("requests", 0.0)).sum();
    let per_slice = timed / records.len() as f64;
    requests < MIN_REQUESTS || timed + per_slice <= o.seconds
}

fn print_summary(s: &Summary) {
    println!(
        "{}: {} slices, {} requests, {} failed, {}",
        s.workload.name,
        s.slices,
        s.attempted,
        s.failed,
        if s.correct { "correct" } else { "INCORRECT" }
    );
    for m in &s.metrics {
        println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for m in &s.extra {
        println!("  ({:<32}) {:>14.6} {}", m.name, m.value, m.unit);
    }
    for note in &s.notes {
        println!("  note: {note}");
    }
}

fn metrics_json(metrics: &[report::Metric], prefix: &str) -> Vec<(String, Value)> {
    metrics
        .iter()
        .map(|m| {
            let mut v = Value::obj();
            v.set("value", m.value).set("unit", m.unit);
            (format!("{prefix}{}", m.name), v)
        })
        .collect()
}

/// Appends a slice's spans to the run's list, moving their parent
/// indices past the spans already there.
fn append_spans(all: &mut Vec<Value>, record: &mut Value) {
    let Value::Obj(fields) = record else { return };
    let Some(pos) = fields.iter().position(|(k, _)| k == "spans") else {
        return;
    };
    let (_, Value::Arr(spans)) = fields.remove(pos) else {
        return;
    };
    let base = all.len() as f64;
    for mut span in spans {
        if let Value::Obj(f) = &mut span {
            if let Some((_, Value::Num(parent))) = f.iter_mut().find(|(k, _)| k == "parent") {
                *parent += base;
            }
        }
        all.push(span);
    }
}

/// Self time per span name over a whole run's spans, in milliseconds.
fn self_ms(spans: &[Value]) -> Value {
    let tuples: Vec<(u64, u64, Option<usize>)> = spans
        .iter()
        .map(|s| {
            (
                s.f64_or("start_ns", 0.0) as u64,
                s.f64_or("end_ns", 0.0) as u64,
                s.get("parent").and_then(Value::as_f64).map(|p| p as usize),
            )
        })
        .collect();
    let mut totals: Vec<(String, Value)> = Vec::new();
    for (span, ns) in spans.iter().zip(trace::self_times(&tuples)) {
        let name = span.get("name").and_then(Value::as_str).unwrap_or_default();
        match totals.iter_mut().find(|(n, _)| n == name) {
            Some((_, Value::Num(t))) => *t += ns as f64 / 1e6,
            _ => totals.push((name.to_string(), Value::Num(ns as f64 / 1e6))),
        }
    }
    Value::Obj(totals)
}

fn bench(o: &Options) -> Result<bool, String> {
    let start = Instant::now();
    let mut records: Vec<Vec<Value>> = vec![Vec::new(); o.workloads.len()];
    let mut spans = Vec::new();
    let mut round = 0;
    loop {
        let mut ran = false;
        for (w, recs) in o.workloads.iter().zip(records.iter_mut()) {
            if wants_more(o, recs, round, start) {
                let mut record = spawn_slice(o, w, round as u64)?;
                append_spans(&mut spans, &mut record);
                recs.push(record);
                ran = true;
            }
        }
        if !ran {
            break;
        }
        round += 1;
    }
    let _ = std::fs::remove_dir(STORE_ROOT);

    let summaries: Vec<Summary> = o
        .workloads
        .iter()
        .zip(&records)
        .map(|(w, recs)| report::summarize(w, recs, o.trace))
        .collect();
    summaries.iter().for_each(print_summary);

    if let Some(dir) = &o.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut workloads = Value::obj();
        for s in &summaries {
            let mut v = Value::obj();
            v.set("slices", s.slices)
                .set("correct", s.correct)
                .set("attempted", s.attempted)
                .set("failed", s.failed)
                .set("metrics", Value::Obj(metrics_json(&s.metrics, "")))
                .set("extra", Value::Obj(metrics_json(&s.extra, "")))
                .set(
                    "notes",
                    s.notes
                        .iter()
                        .map(|n| Value::from(n.as_str()))
                        .collect::<Vec<_>>(),
                );
            workloads.set(s.workload.name, v);
        }
        let mut doc = Value::obj();
        doc.set("schema", "bsa-benchmark/v1")
            .set("host", host::fingerprint(o.seed, round, o.trace))
            .set("seed", o.seed)
            .set("trace", o.trace)
            .set("smoke", o.smoke)
            .set("workloads", workloads);
        let path = dir.join("benchmark.json");
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if o.trace {
            let mut t = Value::obj();
            t.set("self_ms", self_ms(&spans)).set("spans", spans);
            let path = dir.join("trace.json");
            std::fs::write(&path, format!("{t}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let correct = summaries.iter().all(|s| s.correct);
    let prefixed = summaries.len() > 1;
    let mut metrics = Vec::new();
    for s in &summaries {
        let prefix = if prefixed {
            format!("{}.", s.workload.name)
        } else {
            String::new()
        };
        metrics.extend(metrics_json(&s.metrics, &prefix));
    }
    let mut line = Value::obj();
    line.set("correct", correct)
        .set(
            "attempted",
            summaries.iter().map(|s| s.attempted).sum::<u64>(),
        )
        .set("failed", summaries.iter().map(|s| s.failed).sum::<u64>())
        .set("metrics", Value::Obj(metrics));
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("slice") => parse(&args[1..]).and_then(|o| run_slice(&o)),
        _ => parse(&args).and_then(|o| bench(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload in one smoke slice each, traced: the correctness
    /// gate passes, and the pooled records yield every metric
    /// `BENCHMARK.json` names, with the unit it declares. (A smoke slice
    /// has two requests, so its record is repeated until every percentile
    /// has the samples the percentile rule asks for.)
    #[test]
    fn smoke_slices_pass_the_gate_and_report_every_metric() {
        let (end_to_end, per_layer) = compare::catalog().expect("BENCHMARK.json parses");
        let root = std::env::temp_dir().join(format!("bsa-benchmark-test-{}", std::process::id()));
        for w in &WORKLOADS {
            let mut record = slice::run(&slice::SliceArgs {
                workload: w,
                seed: 3,
                slice: 0,
                smoke: true,
                trace: true,
                store_root: root.clone(),
            })
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            append_spans(&mut Vec::new(), &mut record);
            let records = vec![record; 50];
            for (trace, specs) in [(false, &end_to_end), (true, &per_layer)] {
                let s = report::summarize(w, &records, trace);
                assert!(s.correct, "{}: {:?}", w.name, s.notes);
                assert_eq!(s.failed, 0, "{}", w.name);
                for spec in specs.iter() {
                    let m = s.metrics.iter().find(|m| m.name == spec.name);
                    let m =
                        m.unwrap_or_else(|| panic!("{}: no {} ({:?})", w.name, spec.name, s.notes));
                    assert_eq!(m.unit, spec.unit, "{}: unit of {}", w.name, spec.name);
                    assert!(
                        m.value.is_finite(),
                        "{}: {} = {}",
                        w.name,
                        spec.name,
                        m.value
                    );
                }
                assert_eq!(
                    s.metrics.len(),
                    specs.len(),
                    "{}: metrics beyond BENCHMARK.json",
                    w.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn arguments_parse_in_the_benchmark_json_command_form() {
        let args: Vec<String> = [
            "--workload",
            "replay",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.workloads, vec![workload::find("replay").unwrap()]);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 10.0, false));
        assert!(parse(&["--trace".to_string()]).unwrap().trace);
        assert!(parse(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
