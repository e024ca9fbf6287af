// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-CTL: closed-loop recovery drills against a live
//! loopback station.
//!
//! Spins an in-process station, runs the three seeded fault-injection
//! scenarios from `bsa-control` (scattered dead pixels, lost readout
//! channels, array-wide comparator drift), and reports whether the
//! controller restored effective yield to ≥90% of the pre-fault
//! baseline within the 32-frame observation budget. Each scenario is
//! run twice from the same seed to demonstrate the bit-identical
//! replay guarantee, and the full action traces are written as
//! `recovery_trace.json` for the CI artifact.
//!
//! Usage: `exp_control [--seed N] [--out DIR]`

use bsa_bench::{banner, pct, Table};
use bsa_control::scenario::{baseline_drift, channel_loss, dead_pixels, ScenarioReport};
use bsa_station::{Station, StationConfig, StationHandle};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;

const DEFAULT_SEED: u64 = 0xC0_17_20_05;

type Scenario = fn(SocketAddr, u64) -> Result<ScenarioReport, bsa_control::ControlError>;

fn start_station() -> StationHandle {
    Station::bind(StationConfig::default()).expect("bind loopback station")
}

fn run_once(scenario: Scenario, seed: u64) -> ScenarioReport {
    let station = start_station();
    let report = scenario(station.addr(), seed).expect("scenario runs");
    station.shutdown();
    report
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                seed = v.parse().expect("--seed takes a u64");
            }
            "--out" => {
                let v = it.next().expect("--out needs a directory");
                out = PathBuf::from(v);
            }
            other => panic!("unknown argument {other:?} (try --seed/--out)"),
        }
    }

    banner(
        "E-CTL",
        "closed-loop recovery (DESIGN.md \u{a7}12)",
        "the controller restores \u{2265}90% of pre-fault yield within 32 frames \
         and replays bit-identically from its seed",
    );

    let scenarios: [(&str, Scenario); 3] = [
        ("dead-pixels", dead_pixels),
        ("channel-loss", channel_loss),
        ("baseline-drift", baseline_drift),
    ];

    let mut table = Table::new(
        format!("Recovery drills (seed {seed:#x})"),
        &[
            "scenario",
            "recovered",
            "ticks",
            "pre yield",
            "post yield",
            "replay",
        ],
    );
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bsa-recovery-trace/v1\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"scenarios\": [");
    let mut all_recovered = true;
    let mut all_replayed = true;
    for (i, (name, scenario)) in scenarios.iter().enumerate() {
        let first = run_once(*scenario, seed);
        let second = run_once(*scenario, seed);
        let replayed = first.trace.to_json() == second.trace.to_json();
        all_recovered &= first.recovered;
        all_replayed &= replayed;
        table.add_row(vec![
            (*name).to_string(),
            if first.recovered { "yes" } else { "NO" }.to_string(),
            first.ticks.to_string(),
            pct(f64::from(first.pre_yield_permille) / 1000.0),
            pct(f64::from(first.final_yield_permille) / 1000.0),
            if replayed {
                "bit-identical"
            } else {
                "DIVERGED"
            }
            .to_string(),
        ]);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{name}\",");
        let _ = writeln!(json, "      \"recovered\": {},", first.recovered);
        let _ = writeln!(json, "      \"ticks\": {},", first.ticks);
        let _ = writeln!(
            json,
            "      \"pre_yield_permille\": {},",
            first.pre_yield_permille
        );
        let _ = writeln!(
            json,
            "      \"final_yield_permille\": {},",
            first.final_yield_permille
        );
        let _ = writeln!(json, "      \"replay_bit_identical\": {replayed},");
        let _ = writeln!(json, "      \"trace\": {}", first.trace.to_json());
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    table.print();
    std::fs::create_dir_all(&out).expect("create output directory");
    let path = out.join("recovery_trace.json");
    std::fs::write(&path, &json).expect("write recovery_trace.json");
    println!("\nwrote {}", path.display());

    assert!(all_recovered, "a scenario failed to recover");
    assert!(all_replayed, "a scenario trace diverged between replays");
    println!("all scenarios recovered; traces replay bit-identically");
}
