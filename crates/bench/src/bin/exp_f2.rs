// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-F2: DNA hybridization match/mismatch discrimination
//! (paper Fig. 2).
//!
//! Runs the full assay protocol — immobilization, hybridization, washing,
//! redox-cycling readout, in-pixel conversion — on a 16×8 chip spotted
//! with probes at 0–4 mismatches from the sample target, and reports the
//! per-class currents and calls.

use bsa_bench::{banner, eng, sig, Table};
use bsa_core::dna_chip::{DnaChip, DnaChipConfig, SampleMix};
use bsa_dsp::calling::{CallAccuracy, MatchCaller};
use bsa_dsp::stats::median;
use bsa_electrochem::sequence::DnaSequence;
use bsa_rng::SmallRng;
use bsa_units::Molar;

fn main() {
    banner(
        "E-F2",
        "Fig. 2 (hybridization: match vs mismatch sites)",
        "hybridization occurs for matching strands; washing leaves ssDNA at mismatch sites",
    );

    // Stringent wash: single-base mismatch discrimination needs the wash
    // pushed right to the perfect-match stability edge.
    let mut config = DnaChipConfig::default();
    config.assay.wash_stringency = 100.0;
    let mut chip = DnaChip::new(config).expect("config is valid");
    let mut rng = SmallRng::seed_from_u64(42);

    // One reference 20-mer; spot probes grouped by mismatch count:
    // columns 0–3: perfect probe, 4–7: 1 mm, 8–11: 2 mm, 12–13: 3 mm,
    // 14: 4 mm, 15: unrelated random probe.
    let reference = DnaSequence::random(20, &mut rng);
    let target = reference.reverse_complement();
    let geometry = chip.geometry();
    let mut mismatch_class = vec![0usize; geometry.len()];
    for addr in geometry.iter() {
        let class = match addr.col {
            0..=3 => 0,
            4..=7 => 1,
            8..=11 => 2,
            12..=13 => 3,
            14 => 4,
            _ => usize::MAX, // random control
        };
        let probe = if class == usize::MAX {
            DnaSequence::random(20, &mut rng)
        } else {
            // Probe that sees `class` mismatches against the true target.
            reference.with_mismatches(class)
        };
        mismatch_class[geometry.index_of(addr).unwrap()] = class;
        chip.spot(addr, probe).unwrap();
    }

    chip.auto_calibrate();
    let sample = SampleMix::new().with_target(target, Molar::from_nano(100.0));
    let readout = chip.run_assay(&sample);

    let mut t = Table::new(
        "Per-class coverages and currents after the full protocol",
        &[
            "probe class",
            "sites",
            "median coverage θ",
            "median current",
            "vs perfect match",
        ],
    );
    let classes: [(usize, &str); 6] = [
        (0, "perfect match"),
        (1, "1 mismatch"),
        (2, "2 mismatches"),
        (3, "3 mismatches"),
        (4, "4 mismatches"),
        (usize::MAX, "random probe"),
    ];
    let class_median = |class: usize, values: &dyn Fn(usize) -> f64| -> f64 {
        let v: Vec<f64> = (0..geometry.len())
            .filter(|i| mismatch_class[*i] == class)
            .map(values)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let match_current = class_median(0, &|i| readout.estimated_currents[i].value());
    for (class, name) in classes {
        let n = mismatch_class.iter().filter(|c| **c == class).count();
        let cov = class_median(class, &|i| readout.coverages[i]);
        let cur = class_median(class, &|i| readout.estimated_currents[i].value());
        t.add_row(vec![
            name.to_string(),
            n.to_string(),
            sig(cov, 3),
            eng(cur, "A"),
            format!("{:.1e}", cur / match_current),
        ]);
    }
    t.print();
    println!();

    // Match calling.
    let currents: Vec<f64> = readout
        .estimated_currents
        .iter()
        .map(|a| a.value())
        .collect();
    let result = MatchCaller::default().call(&currents);
    let truth: Vec<bool> = mismatch_class.iter().map(|c| *c == 0).collect();
    let acc = CallAccuracy::of(&result.calls, &truth);
    println!(
        "Match calling: {} matches called, accuracy {:.1} % (TP {}, FP {}, TN {}, FN {})",
        result.match_count(),
        acc.accuracy() * 100.0,
        acc.true_positives,
        acc.false_positives,
        acc.true_negatives,
        acc.false_negatives,
    );
    let ratio = MatchCaller::discrimination_ratio(&currents, &truth).unwrap_or(f64::NAN);
    println!(
        "Discrimination ratio (median match / median non-match): {:.1e}",
        ratio
    );
    println!();

    // Real-time association kinetics (the electrochemical chip can watch
    // hybridization happen — no optical scanner needed).
    let mut kin_chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    for addr in kin_chip.geometry().iter() {
        kin_chip.spot(addr, reference.clone()).unwrap();
    }
    kin_chip.auto_calibrate();
    let kin_sample =
        SampleMix::new().with_target(reference.reverse_complement(), Molar::from_nano(10.0));
    let times: Vec<bsa_units::Seconds> = [0.0, 60.0, 300.0, 900.0, 1800.0, 3600.0]
        .iter()
        .map(|s| bsa_units::Seconds::new(*s))
        .collect();
    let kinetics = kin_chip.monitor_hybridization(&kin_sample, &times);
    let mut t = Table::new(
        "Real-time hybridization kinetics at 10 nM (site 0)",
        &["time into hybridization", "coverage θ", "sensor current"],
    );
    for (k, time) in times.iter().enumerate() {
        t.add_row(vec![
            eng(time.value(), "s"),
            sig(kinetics.coverages[k][0], 3),
            eng(kinetics.currents[k][0].value(), "A"),
        ]);
    }
    t.print();
    println!();

    // Concentration series (Fig. 2's \"amount of specific DNA sequences\").
    let mut t = Table::new(
        "Dose response: perfect-match current vs target concentration",
        &[
            "target conc.",
            "median match coverage",
            "median match current",
        ],
    );
    for c_nm in [0.1, 1.0, 10.0, 100.0, 1000.0] {
        let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
        for addr in chip.geometry().iter() {
            chip.spot(addr, reference.clone()).unwrap();
        }
        chip.auto_calibrate();
        let sample =
            SampleMix::new().with_target(reference.reverse_complement(), Molar::from_nano(c_nm));
        let r = chip.run_assay(&sample);
        let cov: Vec<f64> = r.coverages.clone();
        let cur: Vec<f64> = r.estimated_currents.iter().map(|a| a.value()).collect();
        t.add_row(vec![
            eng(c_nm * 1e-9, "M"),
            sig(median(&cov).unwrap_or(0.0), 3),
            eng(median(&cur).unwrap_or(0.0), "A"),
        ]);
    }
    t.print();
}
