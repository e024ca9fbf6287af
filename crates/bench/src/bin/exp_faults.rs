// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-FT: fault density vs genotyping-call accuracy.
//!
//! Sweeps random pixel-fault density on the 16×8 DNA microarray and
//! measures how far the fault-tolerance stack — calibration retry with
//! escalation, health masking, robust serial readout, redundant-spot
//! majority voting — carries the assay before calls start to break.
//! A second sweep stresses the serial link alone: bit-error rate vs
//! words recovered by bounded re-reads.

use bsa_bench::{banner, pct, sig, Table};
use bsa_core::dna_chip::{DnaChip, DnaChipConfig, SampleMix};
use bsa_dsp::calling::{Call, MatchCaller};
use bsa_electrochem::redundancy::RedundantLayout;
use bsa_electrochem::sequence::DnaSequence;
use bsa_faults::{FaultKind, InjectionPlan};
use bsa_rng::SmallRng;
use bsa_units::{Ampere, Molar, Volt};

const TARGETS: usize = 42;
const REPLICATES: usize = 3;
const PRESENT: [usize; 5] = [4, 17, 23, 30, 41];
const TRIALS: u64 = 3;

struct TrialOutcome {
    voted_correct: usize,
    spot_calls_correct: usize,
    spots_called: usize,
    usable_fraction: f64,
}

fn run_trial(density: f64, seed: u64) -> TrialOutcome {
    let mut config = DnaChipConfig::default();
    config.assay.wash_stringency = 100.0;
    config.seed = seed.wrapping_mul(7919) + 1;

    let layout = RedundantLayout::new(TARGETS, REPLICATES);
    let mut rng = SmallRng::seed_from_u64(11);
    let probes: Vec<DnaSequence> = (0..TARGETS)
        .map(|_| DnaSequence::random(22, &mut rng))
        .collect();
    let mut sample = SampleMix::new();
    for &t in &PRESENT {
        sample = sample.with_target(probes[t].reverse_complement(), Molar::from_nano(100.0));
    }

    let mut chip = DnaChip::new(config).expect("valid config");
    chip.spot_all(&layout.expand(&probes));

    // A representative fault mix at the requested density: mostly dead
    // pixels, plus drifted comparators, leaky electrodes and a noisy
    // serial link.
    let plan = InjectionPlan::new(seed)
        .array_wide(density * 0.6, FaultKind::DeadPixel)
        .array_wide(
            density * 0.2,
            FaultKind::ComparatorDrift {
                offset: Volt::from_milli(400.0),
            },
        )
        .array_wide(
            density * 0.2,
            FaultKind::LeakyElectrode {
                leakage: Ampere::from_pico(5.0),
            },
        )
        .serial_bit_errors(if density > 0.0 { 1e-3 } else { 0.0 });
    let faults = plan.compile(chip.geometry().rows(), chip.geometry().cols());
    chip.inject_faults(&faults).expect("geometry matches");
    chip.auto_calibrate();

    let readout = chip.run_assay(&sample);
    let robust = chip.serial_readout_robust(&readout, 8);
    // Fall back to the counts of the words that did arrive; unrecovered
    // words keep the direct (pre-link) counts so the sweep measures
    // calling, not link failure.
    let counts: Vec<u64> = robust
        .words
        .iter()
        .zip(readout.counts.iter())
        .map(|(w, direct)| w.as_ref().map_or(*direct, |r| r.count))
        .collect();
    let estimates = chip
        .estimate_currents(&counts)
        .expect("one count per pixel");
    let currents: Vec<f64> = estimates.iter().map(|a| a.value()).collect();
    let spot_matches: Vec<bool> = MatchCaller::default()
        .call(&currents)
        .calls
        .iter()
        .map(|c| *c == Call::Match)
        .collect();

    let usable = chip.health().usable_mask();
    let voted = layout.vote(&spot_matches, &usable);

    let mut voted_correct = 0;
    for (t, v) in voted.iter().enumerate() {
        if v.matched() == PRESENT.contains(&t) {
            voted_correct += 1;
        }
    }
    // Raw per-spot accuracy (no masking, no voting) for contrast.
    let mut spot_calls_correct = 0;
    let mut spots_called = 0;
    for (spot, called_match) in spot_matches.iter().enumerate().take(layout.total_spots()) {
        let t = spot % TARGETS;
        spots_called += 1;
        if *called_match == PRESENT.contains(&t) {
            spot_calls_correct += 1;
        }
    }

    TrialOutcome {
        voted_correct,
        spot_calls_correct,
        spots_called,
        usable_fraction: chip.yield_report().usable_fraction(),
    }
}

fn main() {
    banner(
        "E-FT",
        "fault-tolerant readout (robustness study, beyond the paper's figures)",
        "redundant spotting + health masking keep genotyping calls correct to ≥10 % faulty sites",
    );

    println!(
        "Panel: {TARGETS} targets × {REPLICATES} interleaved replicates on the 16×8 array, \
         {} targets present at 100 nM, {TRIALS} dies per density.",
        PRESENT.len()
    );
    println!();

    let mut t = Table::new(
        "Fault density vs call accuracy (mean over dies)",
        &[
            "fault density",
            "usable pixels",
            "raw spot accuracy",
            "voted target accuracy",
        ],
    );
    for density in [0.0, 0.02, 0.05, 0.08, 0.10, 0.15, 0.25] {
        let mut voted = 0.0;
        let mut raw = 0.0;
        let mut usable = 0.0;
        for trial in 0..TRIALS {
            let o = run_trial(density, 1 + trial);
            voted += o.voted_correct as f64 / TARGETS as f64;
            raw += o.spot_calls_correct as f64 / o.spots_called as f64;
            usable += o.usable_fraction;
        }
        let n = TRIALS as f64;
        t.add_row(vec![
            pct(density),
            pct(usable / n),
            pct(raw / n),
            pct(voted / n),
        ]);
    }
    t.print();
    println!();

    // Serial-link stress: BER vs re-read effort on one clean-pixel die.
    let mut t = Table::new(
        "Serial link: bit-error rate vs bounded re-reads (128-word frame)",
        &["BER", "clean", "recovered", "unrecovered", "rereads"],
    );
    for ber in [1e-5, 1e-4, 1e-3, 1e-2, 5e-2] {
        let mut chip = DnaChip::new(DnaChipConfig::default()).expect("valid");
        chip.auto_calibrate();
        let faults = InjectionPlan::new(5)
            .serial_bit_errors(ber)
            .compile(chip.geometry().rows(), chip.geometry().cols());
        chip.inject_faults(&faults).expect("geometry matches");
        let readout = chip.run_assay(&SampleMix::new());
        let robust = chip.serial_readout_robust(&readout, 8);
        t.add_row(vec![
            sig(ber, 1),
            robust.stats.clean_words.to_string(),
            robust.stats.recovered_words.to_string(),
            robust.stats.unrecovered_words.to_string(),
            robust.stats.rereads.to_string(),
        ]);
    }
    t.print();
}
