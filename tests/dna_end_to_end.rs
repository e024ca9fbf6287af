// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end integration: electrochemistry → DNA chip → DSP calling.

use cmos_biosensor_arrays::chips::array::PixelAddress;
use cmos_biosensor_arrays::chips::dna_chip::{decode_frames, DnaChip, DnaChipConfig, SampleMix};
use cmos_biosensor_arrays::dsp::calling::{Call, CallAccuracy, MatchCaller};
use cmos_biosensor_arrays::electrochem::sequence::DnaSequence;
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::Molar;

fn stringent_config() -> DnaChipConfig {
    let mut config = DnaChipConfig::default();
    config.assay.wash_stringency = 100.0;
    config
}

#[test]
fn single_target_lights_up_only_its_site() {
    let mut chip = DnaChip::new(stringent_config()).unwrap();
    let mut rng = SmallRng::seed_from_u64(1);
    let probes: Vec<DnaSequence> = (0..128)
        .map(|_| DnaSequence::random(22, &mut rng))
        .collect();
    chip.spot_all(&probes);
    chip.auto_calibrate();

    let hot = 37usize;
    let sample =
        SampleMix::new().with_target(probes[hot].reverse_complement(), Molar::from_nano(100.0));
    let readout = chip.run_assay(&sample);

    let currents: Vec<f64> = readout
        .estimated_currents
        .iter()
        .map(|a| a.value())
        .collect();
    let calls = MatchCaller::default().call(&currents);
    assert_eq!(
        calls.match_indices(),
        vec![hot],
        "exactly one site lights up"
    );
    assert_eq!(calls.calls[hot], Call::Match);
}

#[test]
fn multiplexed_sample_recovers_all_targets() {
    let mut chip = DnaChip::new(stringent_config()).unwrap();
    let mut rng = SmallRng::seed_from_u64(2);
    let probes: Vec<DnaSequence> = (0..128)
        .map(|_| DnaSequence::random(22, &mut rng))
        .collect();
    chip.spot_all(&probes);
    chip.auto_calibrate();

    let targets = [3usize, 40, 77, 126];
    let mut sample = SampleMix::new();
    for &t in &targets {
        sample = sample.with_target(probes[t].reverse_complement(), Molar::from_nano(50.0));
    }
    let readout = chip.run_assay(&sample);
    let currents: Vec<f64> = readout
        .estimated_currents
        .iter()
        .map(|a| a.value())
        .collect();
    let calls = MatchCaller::default().call(&currents);
    let truth: Vec<bool> = (0..128).map(|i| targets.contains(&i)).collect();
    let acc = CallAccuracy::of(&calls.calls, &truth);
    assert_eq!(acc.false_negatives, 0, "all spiked targets must be found");
    assert!(acc.accuracy() > 0.97, "accuracy = {}", acc.accuracy());
}

#[test]
fn dose_response_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(3);
    let probe = DnaSequence::random(20, &mut rng);
    let mut last = 0.0;
    for c_nm in [0.1, 1.0, 10.0, 100.0] {
        let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
        for addr in chip.geometry().iter() {
            chip.spot(addr, probe.clone()).unwrap();
        }
        chip.auto_calibrate();
        let sample =
            SampleMix::new().with_target(probe.reverse_complement(), Molar::from_nano(c_nm));
        let readout = chip.run_assay(&sample);
        let mean: f64 = readout
            .estimated_currents
            .iter()
            .map(|a| a.value())
            .sum::<f64>()
            / readout.estimated_currents.len() as f64;
        assert!(
            mean > last,
            "current must grow with concentration: {mean} after {last}"
        );
        last = mean;
    }
}

#[test]
fn serial_interface_survives_full_assay_round_trip() {
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    let mut rng = SmallRng::seed_from_u64(4);
    let probes: Vec<DnaSequence> = (0..128)
        .map(|_| DnaSequence::random(20, &mut rng))
        .collect();
    chip.spot_all(&probes);
    let sample =
        SampleMix::new().with_target(probes[0].reverse_complement(), Molar::from_nano(100.0));
    let readout = chip.run_assay(&sample);
    let bits = chip.serial_readout(&readout);
    let decoded = decode_frames(&bits).expect("valid stream");
    assert_eq!(decoded.len(), 128);
    for (reading, expected) in decoded.iter().zip(readout.to_readings()) {
        assert_eq!(*reading, expected);
    }
}

#[test]
fn calibration_is_required_for_cross_die_comparability() {
    // Two dies measure the same currents; calibrated estimates agree
    // across dies far better than uncalibrated ones.
    let config_a = DnaChipConfig {
        seed: 101,
        ..DnaChipConfig::default()
    };
    let config_b = DnaChipConfig {
        seed: 202,
        ..DnaChipConfig::default()
    };

    let probe_current = cmos_biosensor_arrays::units::Ampere::from_nano(5.0);
    let currents = vec![probe_current; 128];

    let disagreement = |calibrate: bool| -> f64 {
        let mut worst: f64 = 0.0;
        let mut estimates = Vec::new();
        for config in [config_a.clone(), config_b.clone()] {
            let mut chip = DnaChip::new(config).unwrap();
            if calibrate {
                chip.auto_calibrate();
            }
            let counts = chip
                .measure_currents(&currents)
                .expect("one current per pixel");
            let est = chip
                .estimate_currents(&counts)
                .expect("one count per pixel");
            let mean = est.iter().map(|a| a.value()).sum::<f64>() / est.len() as f64;
            estimates.push(mean);
        }
        for e in &estimates {
            worst = worst.max((e - probe_current.value()).abs() / probe_current.value());
        }
        worst
    };

    let uncal = disagreement(false);
    let cal = disagreement(true);
    assert!(cal < 0.01, "calibrated cross-die error = {cal}");
    assert!(cal < uncal, "calibration must improve comparability");
}

#[test]
fn bare_chip_reports_background_everywhere() {
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    chip.auto_calibrate();
    let readout = chip.run_assay(&SampleMix::new());
    let calls = MatchCaller::default().call(
        &readout
            .estimated_currents
            .iter()
            .map(|a| a.value())
            .collect::<Vec<_>>(),
    );
    assert_eq!(calls.match_count(), 0);
    assert!(readout.estimate_at(PixelAddress::new(7, 15)).is_ok());
}
