//! Record population bursts of a synaptically coupled culture — the
//! network-level activity dissociated cultures show on MEAs, seen through
//! the 128×128 chip.
//!
//! ```bash
//! cargo run --release --example network_bursts
//! ```

use cmos_biosensor_arrays::chips::neuro_chip::{NeuroChip, NeuroChipConfig};
use cmos_biosensor_arrays::neuro::culture::{Culture, CultureConfig};
use cmos_biosensor_arrays::neuro::network::{NetworkConfig, SynapticNetwork};
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::Seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Simulate a recurrent network (the culture's own dynamics).
    let mut rng = SmallRng::seed_from_u64(31);
    let net_cfg = NetworkConfig {
        neuron_count: 40,
        ..NetworkConfig::default()
    };
    let mut network = SynapticNetwork::random(net_cfg, &mut rng);
    let duration = Seconds::from_milli(400.0);
    let activity = network.run(duration, &mut rng);
    println!(
        "Network: {} neurons, {} spikes, burst synchrony {:.2}.",
        network.len(),
        activity.total_spikes(),
        activity.burst_synchrony(4)
    );

    // 2. Place the network's units on the chip surface and hand each its
    //    simulated spike train.
    let cfg = CultureConfig {
        neuron_count: network.len(),
        ..CultureConfig::default()
    };
    let culture = Culture::random(&cfg, &mut rng);
    // Overwrite the independent Poisson trains with the network's.
    let neurons = culture.neurons().len();
    let mut with_trains = Culture::empty(culture.width(), culture.height());
    for k in 0..neurons {
        let mut n = culture.neurons()[k].clone();
        n.spikes = activity.spike_trains[k].clone();
        with_trains.push(n);
    }

    // 3. Record with the chip and look at the population signal.
    let mut chip = NeuroChip::new(NeuroChipConfig::default())?;
    let frames = (duration.value() * chip.timing().frame_rate.value()).round() as usize;
    let rec = chip.record(&with_trains, Seconds::ZERO, frames);

    // Frame-wise total |activity| (input-referred), coarse-binned.
    let gain = rec.nominal_voltage_gain();
    let mut base: Vec<f64> = vec![0.0; rec.geometry().len()];
    for f in rec.frames() {
        for (b, s) in base.iter_mut().zip(f.samples()) {
            *b += s / rec.len() as f64;
        }
    }
    println!();
    println!("Chip-side population activity (20 ms bins, suprathreshold samples):");
    let bin_frames = 40; // 20 ms at 2 kfps
    let threshold = 120e-6; // input-referred volts, above the noise floor
    for (bin, chunk) in rec.frames().chunks(bin_frames).enumerate() {
        let mut events = 0usize;
        for f in chunk {
            for (s, b) in f.samples().iter().zip(base.iter()) {
                if ((s - b) / gain).abs() > threshold {
                    events += 1;
                }
            }
        }
        let bars = (events / 8).min(60);
        println!("{:>5.0} ms |{}", bin as f64 * 20.0, "#".repeat(bars));
    }
    println!();
    println!("Population bursts appear as synchronized activity bars; quiet bins are");
    println!("the inter-burst intervals.");
    Ok(())
}
