//! Spike-train generators.
//!
//! Cultured networks on the chip fire with characteristic statistics:
//! irregular (Poisson-like) background activity, pacemaker-like regular
//! units, and the population bursts typical of dissociated cultures. The
//! neural-recording experiments drive each simulated neuron from one of
//! these generators.

use bsa_rng::{box_muller, SmallRng};
use bsa_units::Seconds;

/// A spike-train pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum FiringPattern {
    /// Homogeneous Poisson process at the given mean rate (Hz).
    Poisson {
        /// Mean firing rate in Hz.
        rate_hz: f64,
    },
    /// Regular (pacemaker) firing with optional phase and jitter.
    Regular {
        /// Firing rate in Hz.
        rate_hz: f64,
        /// Start phase as a fraction of the period, in `[0, 1)`.
        phase: f64,
        /// Gaussian jitter σ applied to each spike time, in seconds.
        jitter_s: f64,
    },
    /// Bursts of `spikes_per_burst` at `intra_burst_hz`, with burst onsets
    /// following a Poisson process at `burst_rate_hz`.
    Bursting {
        /// Burst-onset rate in Hz.
        burst_rate_hz: f64,
        /// Spikes in each burst.
        spikes_per_burst: u32,
        /// Intra-burst firing rate in Hz.
        intra_burst_hz: f64,
    },
    /// No spontaneous activity.
    Silent,
}

impl FiringPattern {
    /// Generates spike times over `[0, duration)`, sorted ascending.
    pub fn generate(&self, duration: Seconds, rng: &mut SmallRng) -> Vec<Seconds> {
        let mut spikes = match self {
            Self::Poisson { rate_hz } => poisson_train(*rate_hz, duration, rng),
            Self::Regular {
                rate_hz,
                phase,
                jitter_s,
            } => {
                if *rate_hz <= 0.0 {
                    return Vec::new();
                }
                let period = 1.0 / rate_hz;
                let mut t = phase.rem_euclid(1.0) * period;
                let mut out = Vec::new();
                while t < duration.value() {
                    let jitter = if *jitter_s > 0.0 {
                        box_muller(rng) * jitter_s
                    } else {
                        0.0
                    };
                    let jt = t + jitter;
                    if jt >= 0.0 && jt < duration.value() {
                        out.push(Seconds::new(jt));
                    }
                    t += period;
                }
                out
            }
            Self::Bursting {
                burst_rate_hz,
                spikes_per_burst,
                intra_burst_hz,
            } => {
                let onsets = poisson_train(*burst_rate_hz, duration, rng);
                let isi = 1.0 / intra_burst_hz.max(1e-9);
                let mut out = Vec::new();
                for onset in onsets {
                    for k in 0..*spikes_per_burst {
                        let t = onset.value() + k as f64 * isi;
                        if t < duration.value() {
                            out.push(Seconds::new(t));
                        }
                    }
                }
                out
            }
            Self::Silent => Vec::new(),
        };
        spikes.sort_by(|a, b| a.value().total_cmp(&b.value()));
        spikes
    }

    /// Expected mean rate of the pattern in Hz.
    pub fn mean_rate_hz(&self) -> f64 {
        match self {
            Self::Poisson { rate_hz } => *rate_hz,
            Self::Regular { rate_hz, .. } => *rate_hz,
            Self::Bursting {
                burst_rate_hz,
                spikes_per_burst,
                ..
            } => burst_rate_hz * *spikes_per_burst as f64,
            Self::Silent => 0.0,
        }
    }
}

/// Homogeneous Poisson spike train via exponential inter-arrival times.
fn poisson_train(rate_hz: f64, duration: Seconds, rng: &mut SmallRng) -> Vec<Seconds> {
    if rate_hz <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = 1.0 - rng.next_f64();
        t += -u.ln() / rate_hz;
        if t >= duration.value() {
            return out;
        }
        out.push(Seconds::new(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_matches() {
        let mut rng = SmallRng::seed_from_u64(1);
        let p = FiringPattern::Poisson { rate_hz: 10.0 };
        let spikes = p.generate(Seconds::new(100.0), &mut rng);
        let rate = spikes.len() as f64 / 100.0;
        assert!((rate - 10.0).abs() < 1.0, "rate = {rate}");
    }

    #[test]
    fn poisson_isi_cv_is_one() {
        let mut rng = SmallRng::seed_from_u64(2);
        let p = FiringPattern::Poisson { rate_hz: 50.0 };
        let spikes = p.generate(Seconds::new(200.0), &mut rng);
        let isis: Vec<f64> = spikes.windows(2).map(|w| (w[1] - w[0]).value()).collect();
        let mean = isis.iter().sum::<f64>() / isis.len() as f64;
        let sd = (isis.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / isis.len() as f64).sqrt();
        let cv = sd / mean;
        assert!((cv - 1.0).abs() < 0.1, "CV = {cv}");
    }

    #[test]
    fn regular_is_periodic() {
        let mut rng = SmallRng::seed_from_u64(3);
        let p = FiringPattern::Regular {
            rate_hz: 5.0,
            phase: 0.25,
            jitter_s: 0.0,
        };
        let spikes = p.generate(Seconds::new(2.0), &mut rng);
        assert_eq!(spikes.len(), 10);
        assert!((spikes[0].value() - 0.05).abs() < 1e-12);
        for w in spikes.windows(2) {
            assert!(((w[1] - w[0]).value() - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn regular_jitter_perturbs_but_preserves_count() {
        let mut rng = SmallRng::seed_from_u64(4);
        let p = FiringPattern::Regular {
            rate_hz: 10.0,
            phase: 0.5,
            jitter_s: 1e-3,
        };
        let spikes = p.generate(Seconds::new(10.0), &mut rng);
        assert!((spikes.len() as i64 - 100).abs() <= 2);
        let irregular = spikes
            .windows(2)
            .any(|w| ((w[1] - w[0]).value() - 0.1).abs() > 1e-5);
        assert!(irregular);
    }

    #[test]
    fn bursting_produces_clusters() {
        let mut rng = SmallRng::seed_from_u64(5);
        let p = FiringPattern::Bursting {
            burst_rate_hz: 1.0,
            spikes_per_burst: 5,
            intra_burst_hz: 200.0,
        };
        let spikes = p.generate(Seconds::new(60.0), &mut rng);
        assert!(spikes.len() > 100, "{} spikes", spikes.len());
        // ISIs split into intra-burst (5 ms) and inter-burst (~1 s) modes.
        let isis: Vec<f64> = spikes.windows(2).map(|w| (w[1] - w[0]).value()).collect();
        let short = isis.iter().filter(|x| **x < 0.01).count();
        let long = isis.iter().filter(|x| **x > 0.1).count();
        assert!(short > 3 * long, "short = {short}, long = {long}");
    }

    #[test]
    fn silent_generates_nothing() {
        let mut rng = SmallRng::seed_from_u64(6);
        assert!(FiringPattern::Silent
            .generate(Seconds::new(10.0), &mut rng)
            .is_empty());
    }

    #[test]
    fn spikes_are_sorted_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for p in [
            FiringPattern::Poisson { rate_hz: 30.0 },
            FiringPattern::Regular {
                rate_hz: 20.0,
                phase: 0.0,
                jitter_s: 2e-3,
            },
            FiringPattern::Bursting {
                burst_rate_hz: 2.0,
                spikes_per_burst: 4,
                intra_burst_hz: 100.0,
            },
        ] {
            let spikes = p.generate(Seconds::new(5.0), &mut rng);
            assert!(spikes.windows(2).all(|w| w[0] <= w[1]));
            assert!(spikes.iter().all(|t| t.value() >= 0.0 && t.value() < 5.0));
        }
    }

    #[test]
    fn mean_rate_reports_expected_values() {
        assert_eq!(FiringPattern::Silent.mean_rate_hz(), 0.0);
        assert_eq!(FiringPattern::Poisson { rate_hz: 7.0 }.mean_rate_hz(), 7.0);
        let b = FiringPattern::Bursting {
            burst_rate_hz: 2.0,
            spikes_per_burst: 5,
            intra_burst_hz: 100.0,
        };
        assert_eq!(b.mean_rate_hz(), 10.0);
    }

    #[test]
    fn zero_rate_poisson_is_empty() {
        let mut rng = SmallRng::seed_from_u64(8);
        let p = FiringPattern::Poisson { rate_hz: 0.0 };
        assert!(p.generate(Seconds::new(10.0), &mut rng).is_empty());
    }
}
