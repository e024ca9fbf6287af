// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end: probe-panel design → chip spotting → multiplexed assay →
//! calling. The full workflow a microarray user runs.

use cmos_biosensor_arrays::chips::dna_chip::{DnaChip, DnaChipConfig, SampleMix};
use cmos_biosensor_arrays::dsp::calling::MatchCaller;
use cmos_biosensor_arrays::electrochem::panel::PanelDesign;
use cmos_biosensor_arrays::electrochem::sequence::DnaSequence;
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::Molar;

/// Eight random 100-base "pathogen" targets and a designed panel.
fn setup() -> (
    Vec<DnaSequence>,
    Vec<cmos_biosensor_arrays::electrochem::panel::DesignedProbe>,
) {
    let mut rng = SmallRng::seed_from_u64(2025);
    let targets: Vec<DnaSequence> = (0..8).map(|_| DnaSequence::random(100, &mut rng)).collect();
    let panel = PanelDesign::default()
        .design(&targets)
        .expect("panel designable");
    (targets, panel)
}

#[test]
fn designed_panel_identifies_present_targets_on_chip() {
    let (targets, panel) = setup();
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();

    // Spot each designed probe in a 16-site replicate row.
    for (row, probe) in panel.iter().enumerate() {
        for col in 0..16 {
            chip.spot(
                cmos_biosensor_arrays::chips::array::PixelAddress::new(row, col),
                probe.probe.clone(),
            )
            .unwrap();
        }
    }
    chip.auto_calibrate();

    // Sample contains targets 1, 4 and 6.
    let present = [1usize, 4, 6];
    let mut sample = SampleMix::new();
    for &t in &present {
        sample = sample.with_target(targets[t].clone(), Molar::from_nano(100.0));
    }
    let readout = chip.run_assay(&sample);

    // Call per row (replicate median).
    let currents: Vec<f64> = readout
        .estimated_currents
        .iter()
        .map(|a| a.value())
        .collect();
    let calls = MatchCaller::default().call(&currents);
    for row in 0..8 {
        let row_matches = (0..16)
            .filter(|col| {
                calls.calls[row * 16 + col] == cmos_biosensor_arrays::dsp::calling::Call::Match
            })
            .count();
        if present.contains(&row) {
            assert!(
                row_matches >= 14,
                "target {row} present: {row_matches}/16 replicates called"
            );
        } else {
            assert!(
                row_matches <= 2,
                "target {row} absent: {row_matches}/16 false calls"
            );
        }
    }
}

#[test]
fn panel_probes_do_not_cross_react_on_chip() {
    let (targets, panel) = setup();
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    for (row, probe) in panel.iter().enumerate() {
        for col in 0..16 {
            chip.spot(
                cmos_biosensor_arrays::chips::array::PixelAddress::new(row, col),
                probe.probe.clone(),
            )
            .unwrap();
        }
    }
    chip.auto_calibrate();

    // Only target 0 present at high concentration: rows 1..8 stay dark.
    let sample = SampleMix::new().with_target(targets[0].clone(), Molar::from_micro(1.0));
    let readout = chip.run_assay(&sample);
    let row_median = |row: usize| -> f64 {
        let mut v: Vec<f64> = (0..16)
            .map(|col| readout.estimated_currents[row * 16 + col].value())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[8]
    };
    let own = row_median(0);
    for row in 1..8 {
        let cross = row_median(row);
        assert!(
            own > 50.0 * cross,
            "row {row} cross-reacts: own {own}, cross {cross}"
        );
    }
}

#[test]
fn panel_tm_uniformity_supports_single_wash() {
    let (_, panel) = setup();
    let spread = PanelDesign::tm_spread(&panel);
    let design = PanelDesign::default();
    assert!(
        spread.value() <= (design.tm_max - design.tm_min).value(),
        "Tm spread {spread} exceeds the design window"
    );
}
