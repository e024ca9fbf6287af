//! Integration: the same hybridized surface read by all three detection
//! principles (labelled redox cycling, interfacial impedance, FBAR mass).

use cmos_biosensor_arrays::electrochem::assay::{AssayConditions, SpottedSite};
use cmos_biosensor_arrays::electrochem::impedance::ImpedanceSensor;
use cmos_biosensor_arrays::electrochem::mass::FbarSensor;
use cmos_biosensor_arrays::electrochem::redox::RedoxCyclingModel;
use cmos_biosensor_arrays::electrochem::sequence::DnaSequence;
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::{Hertz, Molar};

fn hybridized_coverage(mismatches: usize, c: Molar) -> f64 {
    let mut rng = SmallRng::seed_from_u64(55);
    let probe = DnaSequence::random(20, &mut rng);
    let target = probe.reverse_complement().with_mismatches(mismatches);
    SpottedSite::new(probe)
        .run(&target, c, &AssayConditions::default())
        .final_coverage
}

#[test]
fn all_three_principles_see_the_match() {
    let theta = hybridized_coverage(0, Molar::from_nano(100.0));
    assert!(theta > 0.5, "coverage = {theta}");

    // Redox: current well above the pA background.
    let redox = RedoxCyclingModel::default();
    let i = redox.sensor_current(theta);
    assert!(i.value() > 1e-8, "redox current = {i}");

    // Impedance: capacitance drop above the detection limit.
    let imp = ImpedanceSensor::default();
    assert!(theta > imp.minimum_detectable_coverage());
    assert!(imp.relative_signal(theta) > 0.01);

    // FBAR: frequency shift above the noise floor.
    let fbar = FbarSensor::default();
    assert!(theta > fbar.minimum_detectable_coverage());
    assert!(fbar.frequency_shift(theta).value() > 3.0 * fbar.frequency_noise.value());
}

#[test]
fn only_redox_sees_trace_coverage() {
    // A weak partial hybridization (low concentration): below the
    // label-free limits, still resolvable by redox cycling.
    let theta = hybridized_coverage(0, Molar::from_pico(1.0));
    assert!(theta > 1e-4 && theta < 0.02, "trace coverage = {theta}");

    let redox = RedoxCyclingModel::default();
    let background = redox.sensor_current(0.0);
    let signal = redox.sensor_current(theta);
    assert!(
        signal.value() > 3.0 * background.value(),
        "redox must resolve θ = {theta}: {signal} vs background {background}"
    );

    let imp = ImpedanceSensor::default();
    assert!(theta < imp.minimum_detectable_coverage());
    let fbar = FbarSensor::default();
    assert!(theta < fbar.minimum_detectable_coverage());
}

#[test]
fn washed_mismatch_is_invisible_to_all() {
    let theta = hybridized_coverage(3, Molar::from_nano(100.0));
    assert!(theta < 1e-6, "3-mismatch coverage = {theta}");

    let redox = RedoxCyclingModel::default();
    let background = redox.sensor_current(0.0);
    let signal = redox.sensor_current(theta);
    assert!(signal.value() < 1.5 * background.value());

    let imp = ImpedanceSensor::default();
    assert!(imp.relative_signal(theta) < 1e-6);
}

#[test]
fn impedance_spectrum_shift_tracks_assay_coverage() {
    let theta = hybridized_coverage(0, Molar::from_nano(100.0));
    let imp = ImpedanceSensor::default();
    let f = Hertz::new(1000.0);
    let z_bare = imp.impedance_at(f, 0.0).magnitude;
    let z_hyb = imp.impedance_at(f, theta).magnitude;
    assert!(
        z_hyb > z_bare * 1.05,
        "|Z| must rise ≥5 %: {z_bare} → {z_hyb}"
    );
}

#[test]
fn detection_principles_agree_on_ordering() {
    // More coverage ⇒ more signal, for every principle.
    let redox = RedoxCyclingModel::default();
    let imp = ImpedanceSensor::default();
    let fbar = FbarSensor::default();
    let thetas = [0.01, 0.1, 0.5, 1.0];
    for w in thetas.windows(2) {
        assert!(redox.sensor_current(w[1]) > redox.sensor_current(w[0]));
        assert!(imp.relative_signal(w[1]) > imp.relative_signal(w[0]));
        assert!(fbar.frequency_shift(w[1]) > fbar.frequency_shift(w[0]));
    }
}
