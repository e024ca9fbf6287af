// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end fault tolerance: every fault class injected into both chip
//! pipelines, with graceful degradation down to correct genotyping calls.
//!
//! DNA path: fault injection → calibration retry/escalation → robust
//! serial readout → dead-pixel masking → redundant-spot majority voting.
//! Neural path: fault injection → self-test health screen → recording →
//! neighbor interpolation over the usable mask.

use cmos_biosensor_arrays::chips::array::{ArrayGeometry, PixelAddress};
use cmos_biosensor_arrays::chips::dna_chip::{DnaChip, DnaChipConfig, SampleMix};
use cmos_biosensor_arrays::chips::neuro_chip::{NeuroChip, NeuroChipConfig};
use cmos_biosensor_arrays::chips::{DegradationMode, PixelHealth};
use cmos_biosensor_arrays::dsp::calling::MatchCaller;
use cmos_biosensor_arrays::dsp::frames::FrameStack;
use cmos_biosensor_arrays::dsp::masking::PixelMask;
use cmos_biosensor_arrays::electrochem::redundancy::RedundantLayout;
use cmos_biosensor_arrays::electrochem::sequence::DnaSequence;
use cmos_biosensor_arrays::faults::{FaultClass, FaultKind, InjectionPlan};
use cmos_biosensor_arrays::neuro::culture::Culture;
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::{Ampere, Meter, Molar, Seconds, Volt};

/// 42 targets × 3 interleaved replicates on the 128-site array.
const TARGETS: usize = 42;
const REPLICATES: usize = 3;
const PRESENT: [usize; 5] = [4, 17, 23, 30, 41];

fn stringent_config() -> DnaChipConfig {
    let mut config = DnaChipConfig::default();
    config.assay.wash_stringency = 100.0;
    config
}

fn genotyping_panel() -> (RedundantLayout, Vec<DnaSequence>, SampleMix) {
    let layout = RedundantLayout::new(TARGETS, REPLICATES);
    let mut rng = SmallRng::seed_from_u64(11);
    let probes: Vec<DnaSequence> = (0..TARGETS)
        .map(|_| DnaSequence::random(22, &mut rng))
        .collect();
    let mut sample = SampleMix::new();
    for &t in &PRESENT {
        sample = sample.with_target(probes[t].reverse_complement(), Molar::from_nano(100.0));
    }
    (layout, probes, sample)
}

/// A plan exercising every fault class, ≤ 10 % of the 128 sites faulty.
fn dna_fault_plan() -> InjectionPlan {
    InjectionPlan::new(99)
        .at(0, 3, FaultKind::DeadPixel)
        .at(1, 7, FaultKind::StuckCount { count: 50_000 })
        .at(
            2,
            2,
            FaultKind::LeakyElectrode {
                leakage: Ampere::from_pico(5.0),
            },
        )
        .at(
            3,
            9,
            FaultKind::ComparatorDrift {
                offset: Volt::from_milli(400.0),
            },
        )
        .at(4, 11, FaultKind::ComparatorStuck { high: true })
        .at(5, 13, FaultKind::DacSaturation { limit: 1.05 })
        .at(
            6,
            1,
            FaultKind::GainClipping {
                limit: Volt::from_milli(50.0),
            },
        )
        .array_wide(0.03, FaultKind::DeadPixel)
        .serial_bit_errors(1e-3)
}

/// Runs the full fault-tolerant pipeline: assay → robust serial link →
/// estimates → per-spot calls → health-masked majority vote.
fn voted_calls(chip: &mut DnaChip, sample: &SampleMix, layout: &RedundantLayout) -> Vec<bool> {
    let readout = chip.run_assay(sample);
    let robust = chip.serial_readout_robust(&readout, 8);
    assert!(
        robust.is_complete(),
        "link must recover at this BER: {:?}",
        robust.stats
    );
    let counts: Vec<u64> = robust
        .into_readings()
        .expect("complete readout")
        .iter()
        .map(|r| r.count)
        .collect();
    let estimates = chip
        .estimate_currents(&counts)
        .expect("one count per pixel");
    let currents: Vec<f64> = estimates.iter().map(|a| a.value()).collect();
    let calls = MatchCaller::default().call(&currents);
    let spot_matches: Vec<bool> = calls
        .calls
        .iter()
        .map(|c| *c == cmos_biosensor_arrays::dsp::calling::Call::Match)
        .collect();
    let usable = chip.health().usable_mask();
    layout
        .vote(&spot_matches, &usable)
        .iter()
        .map(|v| v.matched())
        .collect()
}

#[test]
fn dna_assay_survives_every_fault_class() {
    let (layout, probes, sample) = genotyping_panel();
    let spotted = layout.expand(&probes);
    let truth: Vec<bool> = (0..TARGETS).map(|t| PRESENT.contains(&t)).collect();

    // Fault-free reference run.
    let mut clean = DnaChip::new(stringent_config()).unwrap();
    clean.spot_all(&spotted);
    clean.auto_calibrate();
    let reference = voted_calls(&mut clean, &sample, &layout);
    assert_eq!(reference, truth, "fault-free panel must call perfectly");
    assert!(clean.yield_report().is_clean());

    // Faulty die: same panel, every fault class injected.
    let mut chip = DnaChip::new(stringent_config()).unwrap();
    let faults = dna_fault_plan().compile(chip.geometry().rows(), chip.geometry().cols());
    let faulty_fraction = faults.faulty_pixel_count() as f64 / chip.geometry().len() as f64;
    assert!(
        faulty_fraction <= 0.10,
        "plan must stay within the 10 % budget, got {faulty_fraction}"
    );
    chip.spot_all(&spotted);
    chip.inject_faults(&faults).unwrap();
    chip.auto_calibrate();

    let degraded = voted_calls(&mut chip, &sample, &layout);
    assert_eq!(
        degraded, reference,
        "≤10 % faults must not change a single genotyping call"
    );

    // Every injected pixel fault is repaired or flagged.
    let report = chip.yield_report();
    for row in 0..chip.geometry().rows() {
        for col in 0..chip.geometry().cols() {
            let f = faults.at(row, col);
            if !f.is_faulty() {
                continue;
            }
            let idx = row * chip.geometry().cols() + col;
            let state = chip.health().state(idx);
            let flagged = state != Some(PixelHealth::Healthy);
            // Unflagged faults (small leaks, mild DAC saturation) must be
            // harmless: the per-spot call matches the reference die's.
            if !flagged {
                let spot_ok = f.leakage.value().abs() < 1e-10 || f.dac_limit.is_some();
                assert!(
                    spot_ok,
                    "unflagged fault at ({row},{col}) is neither repaired nor benign: {f:?}"
                );
            }
        }
    }

    // The yield report records the injection inventory and the degradation.
    assert_eq!(report.degradation, DegradationMode::Degraded);
    for class in [
        FaultClass::DeadPixel,
        FaultClass::StuckCount,
        FaultClass::LeakyElectrode,
        FaultClass::ComparatorDrift,
        FaultClass::ComparatorStuck,
        FaultClass::DacSaturation,
        FaultClass::GainClipping,
        FaultClass::SerialBitErrors,
    ] {
        assert!(
            report.injected.contains_key(&class),
            "{class} missing from the injection inventory"
        );
    }
    assert!(report.dead >= 2, "dead + stuck pixels must be masked");
    assert!(report.usable_fraction() > 0.85);
}

#[test]
fn neural_recording_survives_every_fault_class() {
    // The full 128×128 die, as in the paper.
    let mut chip = NeuroChip::new(NeuroChipConfig::default()).unwrap();
    let geometry = chip.config().geometry;
    assert_eq!((geometry.rows(), geometry.cols()), (128, 128));

    let plan = InjectionPlan::new(7)
        .at(10, 10, FaultKind::DeadPixel)
        .at(
            20,
            20,
            FaultKind::LeakyElectrode {
                leakage: Ampere::from_micro(2.0),
            },
        )
        .at(
            30,
            30,
            FaultKind::GainClipping {
                limit: Volt::from_milli(50.0),
            },
        )
        .at(40, 40, FaultKind::StuckCount { count: 1 })
        .at(
            50,
            50,
            FaultKind::ComparatorDrift {
                offset: Volt::from_milli(100.0),
            },
        )
        .at(60, 60, FaultKind::ComparatorStuck { high: false })
        .at(70, 70, FaultKind::DacSaturation { limit: 1.01 })
        .array_wide(0.01, FaultKind::DeadPixel)
        .lose_channel(12)
        .serial_bit_errors(1e-3);
    let faults = plan.compile(geometry.rows(), geometry.cols());
    chip.inject_faults(&faults).unwrap();
    chip.calibrate(Seconds::ZERO);

    let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
    let rec = chip.record(&culture, Seconds::ZERO, 3);

    // No poison values anywhere, and the lost channel reads flat zero.
    let cols_per_ch = geometry.cols() / chip.config().channels;
    for frame in rec.frames() {
        for (idx, s) in frame.samples().iter().enumerate() {
            assert!(s.is_finite(), "non-finite sample at {idx}");
            let ch = (idx % geometry.cols()) / cols_per_ch;
            if ch == 12 {
                assert_eq!(*s, 0.0, "lost channel must be silent at {idx}");
            }
        }
    }

    // Health screen: injected dead pixel and the whole lost channel are
    // masked; the clipped pixel is flagged but stays usable.
    let health = chip.health();
    assert_eq!(
        health.state(10 * geometry.cols() + 10),
        Some(PixelHealth::Dead)
    );
    assert_eq!(
        health.state(30 * geometry.cols() + 30),
        Some(PixelHealth::OutOfFamily)
    );
    assert_eq!(
        health.state(20 * geometry.cols() + 12 * cols_per_ch),
        Some(PixelHealth::Dead)
    );

    let report = chip.yield_report();
    assert_eq!(report.lost_channels, vec![12]);
    assert_eq!(report.total_channels, chip.config().channels);
    assert_eq!(report.degradation, DegradationMode::Degraded);
    assert!(report.injected.contains_key(&FaultClass::ChannelLoss));
    assert!(
        report.dead >= 128 / 16 * 128,
        "the lost channel masks its pixels"
    );

    // Graceful degradation: interpolate the masked pixels from usable
    // neighbors; every masked sample gets repaired.
    let mask = PixelMask::new(geometry.rows(), geometry.cols(), health.usable_mask());
    let stack = FrameStack::new(
        geometry.rows(),
        geometry.cols(),
        rec.frames().iter().map(|f| f.samples().to_vec()).collect(),
    );
    let repaired = mask.repair_stack(&stack);
    let mut frame0 = stack.frame(0).unwrap().to_vec();
    let repair = mask.interpolate(&mut frame0);
    assert_eq!(repair.repaired(), mask.masked_count());
    assert_eq!(repaired.frame(0), Some(frame0.as_slice()));
}

#[test]
fn fault_free_dies_report_full_performance() {
    let mut dna = DnaChip::new(DnaChipConfig::default()).unwrap();
    dna.auto_calibrate();
    assert_eq!(
        dna.yield_report().degradation,
        DegradationMode::FullPerformance
    );

    let mut neuro = NeuroChip::new(NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        channels: 4,
        ..NeuroChipConfig::default()
    })
    .unwrap();
    neuro.calibrate(Seconds::ZERO);
    let report = neuro.yield_report();
    assert!(report.is_clean(), "clean small die: {report}");
    assert_eq!(PixelAddress::new(0, 0).row, 0);
}
