//! `compare RUNS_A RUNS_B`: for each workload × metric, the median and
//! quartiles of each side's runs and a verdict from the bounds in
//! `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use std::path::{Path, PathBuf};

/// The benchmark definition the verdicts read their bounds from.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metrics `BENCHMARK.json` declares.
pub fn catalog() -> Result<(Vec<MetricSpec>, Vec<MetricSpec>), String> {
    let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let specs = |key: &str| -> Vec<MetricSpec> {
        doc.get(key)
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| MetricSpec {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
    };
    Ok((specs("end_to_end"), specs("per_layer")))
}

/// Every `benchmark.json` in `dir` or one level below it, in path order,
/// so that the i-th run of one side pairs with the i-th of the other.
fn load_runs(dir: &Path) -> Result<Vec<Value>, String> {
    let mut paths: Vec<PathBuf> = vec![dir.join("benchmark.json")];
    if let Ok(entries) = std::fs::read_dir(dir) {
        paths.extend(entries.flatten().map(|e| e.path().join("benchmark.json")));
    }
    paths.retain(|p| p.is_file());
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no benchmark.json in or under {}", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Verdict for one metric:
/// - `unresolved` when either side's quartile spread (as a share of its
///   median) is wider than the bound, unless every B run is better, or
///   worse, than every A run;
/// - `regressed` when B's median is worse than A's by more than the bound;
/// - `improved` when B's median is better by more than A's own spread and
///   B wins at least nine tenths of the pairs (runs paired in order);
/// - `unchanged` otherwise.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return "unresolved";
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let spread_a = ((a3 - a1) / am).abs();
    let spread_b = ((b3 - b1) / bm).abs();
    let worsening = if lower_is_better {
        (bm - am) / am
    } else {
        (am - bm) / am
    };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let all_worse = b.iter().all(|&x| a.iter().all(|&y| better(y, x)));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if spread_a.max(spread_b) > bound {
        if all_better {
            "improved"
        } else if all_worse {
            "regressed"
        } else {
            "unresolved"
        }
    } else if worsening > bound {
        "regressed"
    } else if -worsening > spread_a && wins * 10 >= pairs * 9 {
        "improved"
    } else {
        "unchanged"
    }
}

fn cell(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, m, q3)) => format!("{m:>12.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => format!("{:>12}", "-"),
    }
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare RUNS_A RUNS_B".into());
    };
    let (end_to_end, per_layer) = catalog()?;
    let runs_a = load_runs(Path::new(a))?;
    let runs_b = load_runs(Path::new(b))?;
    println!(
        "A = {a} ({} runs), B = {b} ({} runs); change is B against A, positive = worse",
        runs_a.len(),
        runs_b.len()
    );
    for w in &WORKLOADS {
        for m in end_to_end.iter().chain(&per_layer) {
            let va = values(&runs_a, w.name, &m.name);
            let vb = values(&runs_b, w.name, &m.name);
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let (ma, mb) = (quartiles(&va).map(|q| q.1), quartiles(&vb).map(|q| q.1));
            let change = ma.zip(mb).map_or(f64::NAN, |(ma, mb)| {
                let rel = (mb - ma) / ma;
                if m.lower_is_better {
                    rel
                } else {
                    -rel
                }
            });
            let verdict = m
                .bound
                .map_or("-", |bound| verdict(&va, &vb, m.lower_is_better, bound));
            println!(
                "{:<14} {:<34} {:<6} A {}  B {}  {:>+8.2}%  {verdict}",
                w.name,
                m.name,
                m.unit,
                cell(&va),
                cell(&vb),
                change * 100.0
            );
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, true, 0.1), "unchanged");
        let slower = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &slower, true, 0.1), "regressed");
        let faster = a.map(|x| x * 0.9);
        assert_eq!(verdict(&a, &faster, true, 0.1), "improved");
        // The same drop on a higher-is-better metric is a regression.
        let lower = a.map(|x| x * 0.8);
        assert_eq!(verdict(&a, &lower, false, 0.1), "regressed");
        let noisy = [50.0, 150.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &noisy, true, 0.1), "unresolved");
    }
}
