//! Quickstart: detect a target DNA sequence with the 16×8 microarray chip.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cmos_biosensor_arrays::chips::array::PixelAddress;
use cmos_biosensor_arrays::chips::dna_chip::{DnaChip, DnaChipConfig, SampleMix};
use cmos_biosensor_arrays::dsp::calling::MatchCaller;
use cmos_biosensor_arrays::electrochem::sequence::DnaSequence;
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::Molar;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Instantiate a die (mismatch and noise are seeded per die).
    let mut chip = DnaChip::new(DnaChipConfig::default())?;
    println!(
        "DNA microarray chip: {}×{} sensor sites.",
        chip.geometry().rows(),
        chip.geometry().cols()
    );

    // 2. Spot a probe for the sequence we care about on site (0, 0); the
    //    rest of the array carries unrelated probes.
    let probe: DnaSequence = "ACGTTGCAGGTCCATAGCTA".parse()?;
    chip.spot(PixelAddress::new(0, 0), probe.clone())?;
    let mut rng = SmallRng::seed_from_u64(2005);
    for addr in chip.geometry().iter().skip(1) {
        chip.spot(addr, DnaSequence::random(20, &mut rng))?;
    }

    // 3. Run the periphery auto-calibration (removes per-pixel converter
    //    gain spread).
    let cal = chip.auto_calibrate();
    println!(
        "Auto-calibration: conversion spread {:.2} % → {:.2} %.",
        cal.spread_before * 100.0,
        cal.spread_after * 100.0
    );

    // 4. Apply a sample containing the target at 100 nM, hybridize, wash,
    //    and read out the redox-cycling currents through the in-pixel
    //    converters.
    let sample = SampleMix::new().with_target(probe.reverse_complement(), Molar::from_nano(100.0));
    let readout = chip.run_assay(&sample);

    // 5. Call matches from the recovered currents.
    let currents: Vec<f64> = readout
        .estimated_currents
        .iter()
        .map(|a| a.value())
        .collect();
    let calls = MatchCaller::default().call(&currents);
    println!(
        "Site (0, 0) current: {} — array background: {}.",
        readout.estimated_currents[0],
        cmos_biosensor_arrays::units::format_eng(calls.background_current, "A"),
    );
    println!(
        "Match calls: {:?} (expected exactly site 0).",
        calls.match_indices()
    );
    Ok(())
}
