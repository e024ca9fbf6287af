//! Synaptically coupled networks.
//!
//! Dissociated cultures on MEAs — the preparation recorded by the paper's
//! neural chip — develop recurrent excitatory connectivity and fire in
//! network-wide bursts. This module simulates a sparse random network of
//! Izhikevich neurons with current-pulse synapses and returns per-neuron
//! spike trains, which [`crate::culture::Culture`] can stamp onto the chip
//! surface in place of independent Poisson units.

use crate::izhikevich::{Izhikevich, IzhikevichParams};
use bsa_rng::SmallRng;
use bsa_units::Seconds;

/// Network configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Number of neurons.
    pub neuron_count: usize,
    /// Fraction of inhibitory units.
    pub inhibitory_fraction: f64,
    /// Connection probability between any ordered pair.
    pub connection_probability: f64,
    /// Synaptic weight of an excitatory spike (drive units).
    pub excitatory_weight: f64,
    /// Synaptic weight of an inhibitory spike (positive number,
    /// subtracted).
    pub inhibitory_weight: f64,
    /// Mean background drive (noisy, per step).
    pub background_drive: f64,
    /// Simulation step.
    pub dt: Seconds,
}

impl Default for NetworkConfig {
    /// A small culture-like network: 50 units, 20 % inhibitory, 20 %
    /// connectivity with strong recurrent excitation — the regime of
    /// dissociated cultures, which fire in population bursts.
    fn default() -> Self {
        Self {
            neuron_count: 50,
            inhibitory_fraction: 0.2,
            connection_probability: 0.2,
            excitatory_weight: 10.0,
            inhibitory_weight: 6.0,
            background_drive: 2.5,
            dt: Seconds::new(1e-3),
        }
    }
}

/// A simulated recurrent network.
#[derive(Debug, Clone)]
pub struct SynapticNetwork {
    config: NetworkConfig,
    neurons: Vec<Izhikevich>,
    inhibitory: Vec<bool>,
    /// Adjacency: targets\[i\] lists the neurons neuron `i` projects to.
    targets: Vec<Vec<usize>>,
}

/// Result of a network run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkActivity {
    /// Spike times per neuron.
    pub spike_trains: Vec<Vec<Seconds>>,
    /// Population spike count per time bin (bin = simulation step).
    pub population_rate: Vec<usize>,
    /// Simulation step used.
    pub dt: Seconds,
}

impl NetworkActivity {
    /// Total spikes across the population.
    pub fn total_spikes(&self) -> usize {
        self.spike_trains.iter().map(|t| t.len()).sum()
    }

    /// Burst-synchrony index: fraction of all spikes falling in bins whose
    /// population count exceeds `threshold` neurons. Near 0 for
    /// asynchronous firing, near 1 for all-spikes-in-bursts.
    pub fn burst_synchrony(&self, threshold: usize) -> f64 {
        let total: usize = self.population_rate.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let in_bursts: usize = self
            .population_rate
            .iter()
            .filter(|c| **c >= threshold)
            .sum();
        in_bursts as f64 / total as f64
    }
}

impl SynapticNetwork {
    /// Builds a network with random connectivity from `rng`.
    pub fn random(config: NetworkConfig, rng: &mut SmallRng) -> Self {
        let n = config.neuron_count;
        let inhibitory: Vec<bool> = (0..n)
            .map(|_| rng.next_f64() < config.inhibitory_fraction)
            .collect();
        let neurons: Vec<Izhikevich> = inhibitory
            .iter()
            .map(|inh| {
                Izhikevich::new(if *inh {
                    IzhikevichParams::fast_spiking()
                } else {
                    IzhikevichParams::regular_spiking()
                })
            })
            .collect();
        let targets: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|j| *j != i && rng.next_f64() < config.connection_probability)
                    .collect()
            })
            .collect();
        Self {
            config,
            neurons,
            inhibitory,
            targets,
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.neurons.len()
    }

    /// `true` if the network has no neurons.
    pub fn is_empty(&self) -> bool {
        self.neurons.is_empty()
    }

    /// Whether neuron `i` is inhibitory, or `None` if `i` is out of range.
    pub fn is_inhibitory(&self, i: usize) -> Option<bool> {
        self.inhibitory.get(i).copied()
    }

    /// Simulates the network for `duration`, with noisy background drive
    /// from `rng`.
    pub fn run(&mut self, duration: Seconds, rng: &mut SmallRng) -> NetworkActivity {
        let steps = (duration.value() / self.config.dt.value()).round() as usize;
        let n = self.neurons.len();
        let mut spike_trains: Vec<Vec<Seconds>> = vec![Vec::new(); n];
        let mut population_rate = Vec::with_capacity(steps);
        // Synaptic input for this step, and accumulated for the *next*.
        let mut input = vec![0.0f64; n];
        let mut pending = vec![0.0f64; n];
        let mut fired = Vec::new();

        for k in 0..steps {
            let now = self.config.dt * k as f64;
            std::mem::swap(&mut input, &mut pending);
            pending.fill(0.0);
            fired.clear();
            let cells = self.neurons.iter_mut().zip(&input).zip(&mut spike_trains);
            for (i, ((neuron, &input), train)) in cells.enumerate() {
                // Background: uniform noise around the mean drive.
                let drive = self.config.background_drive * 2.0 * rng.next_f64() + input;
                if neuron.step(drive, self.config.dt) {
                    fired.push(i);
                    train.push(now);
                }
            }
            for &i in &fired {
                let (Some(&inhibitory), Some(targets)) =
                    (self.inhibitory.get(i), self.targets.get(i))
                else {
                    continue;
                };
                let w = if inhibitory {
                    -self.config.inhibitory_weight
                } else {
                    self.config.excitatory_weight
                };
                for &j in targets {
                    if let Some(p) = pending.get_mut(j) {
                        *p += w;
                    }
                }
            }
            population_rate.push(fired.len());
        }

        NetworkActivity {
            spike_trains,
            population_rate,
            dt: self.config.dt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(config: NetworkConfig, seed: u64, secs: f64) -> NetworkActivity {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = SynapticNetwork::random(config, &mut rng);
        net.run(Seconds::new(secs), &mut rng)
    }

    #[test]
    fn quiescent_without_drive() {
        let config = NetworkConfig {
            background_drive: 0.0,
            ..NetworkConfig::default()
        };
        let activity = run_with(config, 1, 1.0);
        assert_eq!(activity.total_spikes(), 0);
        assert_eq!(activity.burst_synchrony(3), 0.0);
    }

    #[test]
    fn driven_network_is_active() {
        let activity = run_with(NetworkConfig::default(), 2, 2.0);
        assert!(
            activity.total_spikes() > 100,
            "{} spikes",
            activity.total_spikes()
        );
        // Every-ish neuron participates.
        let active = activity
            .spike_trains
            .iter()
            .filter(|t| !t.is_empty())
            .count();
        assert!(active > 40, "{active}/50 active");
    }

    #[test]
    fn coupling_increases_synchrony() {
        let coupled = run_with(NetworkConfig::default(), 3, 3.0);
        let uncoupled = run_with(
            NetworkConfig {
                connection_probability: 0.0,
                ..NetworkConfig::default()
            },
            3,
            3.0,
        );
        let s_c = coupled.burst_synchrony(5);
        let s_u = uncoupled.burst_synchrony(5);
        assert!(
            s_c > s_u + 0.2,
            "coupled synchrony {s_c} vs uncoupled {s_u}"
        );
    }

    #[test]
    fn inhibition_reduces_firing() {
        let excitatory_only = run_with(
            NetworkConfig {
                inhibitory_fraction: 0.0,
                ..NetworkConfig::default()
            },
            4,
            2.0,
        );
        let inhibited = run_with(
            NetworkConfig {
                inhibitory_fraction: 0.5,
                ..NetworkConfig::default()
            },
            4,
            2.0,
        );
        assert!(excitatory_only.total_spikes() > inhibited.total_spikes());
    }

    #[test]
    fn spike_trains_are_sorted_and_bounded() {
        let activity = run_with(NetworkConfig::default(), 5, 1.0);
        for train in &activity.spike_trains {
            assert!(train.windows(2).all(|w| w[0] <= w[1]));
            assert!(train.iter().all(|t| t.value() < 1.0));
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_with(NetworkConfig::default(), 6, 1.0);
        let b = run_with(NetworkConfig::default(), 6, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn population_rate_sums_to_total() {
        let activity = run_with(NetworkConfig::default(), 7, 1.0);
        let rate_sum: usize = activity.population_rate.iter().sum();
        assert_eq!(rate_sum, activity.total_spikes());
    }
}
