//! Record a cultured network with the 128×128 neural chip and map the
//! active neurons — the paper's Section 3 application.
//!
//! ```bash
//! cargo run --release --example neural_recording
//! ```

use cmos_biosensor_arrays::chips::neuro_chip::{NeuroChip, NeuroChipConfig};
use cmos_biosensor_arrays::dsp::frames::FrameStack;
use cmos_biosensor_arrays::dsp::spike::SpikeDetector;
use cmos_biosensor_arrays::neuro::culture::{Culture, CultureConfig};
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::Seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Grow a culture over the 1 mm² surface.
    let mut rng = SmallRng::seed_from_u64(1234);
    let cfg = CultureConfig {
        neuron_count: 8,
        mean_rate_hz: 25.0,
        ..CultureConfig::default()
    };
    let mut culture = Culture::random(&cfg, &mut rng);
    let duration = Seconds::from_milli(150.0);
    culture.generate_spikes(duration, &mut rng);
    println!(
        "Culture: {} neurons, {} spikes over {duration}.",
        culture.neurons().len(),
        culture.total_spikes()
    );

    // 2. Record with the chip (per-pixel calibration happens
    //    automatically at the configured refresh interval).
    let mut chip = NeuroChip::new(NeuroChipConfig::default())?;
    let frames = (duration.value() * chip.timing().frame_rate.value()).round() as usize;
    let rec = chip.record(&culture, Seconds::ZERO, frames);
    println!(
        "Recorded {} frames at {} ({} pixels).",
        rec.len(),
        chip.timing().frame_rate,
        rec.geometry().len()
    );

    // 3. Input-referred frame stack, baseline-subtracted.
    let gain = rec.nominal_voltage_gain();
    let stack = FrameStack::new(
        rec.geometry().rows(),
        rec.geometry().cols(),
        rec.frames()
            .iter()
            .map(|f| f.samples().iter().map(|s| s / gain).collect())
            .collect(),
    )
    .detrended();

    // 4. Detect spikes at each neuron's soma pixel.
    let detector = SpikeDetector::default();
    let pitch = rec.geometry().pitch().value();
    println!();
    println!("neuron  position(µm)   diameter   true spikes  detected at soma");
    for (k, n) in culture.neurons().iter().enumerate() {
        let row = ((n.y.value() / pitch) as usize).min(rec.geometry().rows() - 1);
        let col = ((n.x.value() / pitch) as usize).min(rec.geometry().cols() - 1);
        let detections = detector.detect(&stack.pixel_series(row, col)).len();
        println!(
            "{k:>6}  ({:>4.0}, {:>4.0})   {:>7.1}µm  {:>11}  {detections:>16}",
            n.x.as_micro(),
            n.y.as_micro(),
            n.diameter.as_micro(),
            n.spikes.len(),
        );
    }

    // 5. Overall activity centroid sanity check.
    if let Some((r, c)) = stack.activity_centroid(0.7) {
        println!();
        println!(
            "Peak-activity centroid at pixel ({r:.1}, {c:.1}) ≈ ({:.0} µm, {:.0} µm).",
            c * pitch * 1e6,
            r * pitch * 1e6
        );
    }
    Ok(())
}
