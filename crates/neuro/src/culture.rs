//! Neuron cultures on the chip surface.
//!
//! The 128×128 array covers 1 mm × 1 mm at 7.8 µm pitch; "typical neuron
//! diameters are 10 µm…100 µm", so the pitch "guarantees that each cell is
//! monitored independent of its individual position" (paper Section 3).
//! This module places neurons on the plane, generates their spike trains,
//! and evaluates the cleft potential under any point of the surface at any
//! time — the input the sensor array samples.

use crate::firing::FiringPattern;
use crate::junction::ApTemplate;
use bsa_units::{Meter, Seconds, Volt};
use rand::Rng;

/// Footprint weights below this threshold are treated as exactly zero:
/// [`CulturedNeuron::cleft_voltage_at`] early-returns `Volt::ZERO` under it,
/// and [`Culture::compile_scatter`] prunes such `(neuron, weight)` pairs.
/// Sharing one constant is what makes the pruned sum bit-identical to the
/// full sum — every pruned contribution is exactly `+0.0`.
pub const MIN_FOOTPRINT: f64 = 1e-6;

/// A cultured neuron adhering to the chip surface.
#[derive(Debug, Clone, PartialEq)]
pub struct CulturedNeuron {
    /// Soma center x position.
    pub x: Meter,
    /// Soma center y position.
    pub y: Meter,
    /// Soma diameter (10–100 µm per the paper).
    pub diameter: Meter,
    /// Firing statistics.
    pub pattern: FiringPattern,
    /// Junction waveform template (already scaled by per-neuron coupling).
    pub template: ApTemplate,
    /// Spike times, filled by [`Culture::generate_spikes`].
    pub spikes: Vec<Seconds>,
}

impl CulturedNeuron {
    /// Soma radius.
    pub fn radius(&self) -> Meter {
        self.diameter * 0.5
    }

    /// Spatial coupling profile at distance `r` from the soma center:
    /// 1 under the soma, Gaussian falloff (σ = radius/2) outside — the
    /// junction signal is confined to the adhesion footprint.
    pub fn footprint(&self, r: Meter) -> f64 {
        let radius = self.radius().value();
        if r.value() <= radius {
            1.0
        } else {
            let d = r.value() - radius;
            let sigma = radius * 0.5;
            (-0.5 * (d / sigma).powi(2)).exp()
        }
    }

    /// Footprint weight of this neuron at surface position `(x, y)` —
    /// [`CulturedNeuron::footprint`] of the distance to the soma center.
    pub fn footprint_at(&self, x: Meter, y: Meter) -> f64 {
        let dx = (x - self.x).value();
        let dy = (y - self.y).value();
        self.footprint(Meter::new((dx * dx + dy * dy).sqrt()))
    }

    /// Temporal junction waveform of this neuron at time `t` (the spatial
    /// footprint factored out), summing over its (recent) spikes.
    pub fn temporal_at(&self, t: Seconds) -> Volt {
        // Only spikes within the template window contribute; binary search
        // for the window start keeps this O(log n + k).
        let window = self.template.duration().value();
        let t0 = t.value() - window;
        let start = self.spikes.partition_point(|s| s.value() < t0);
        let mut v = Volt::ZERO;
        for s in self.spikes.get(start..).unwrap_or_default() {
            let rel = t - *s;
            if rel.value() < -window {
                break;
            }
            v += self.template.sample_at(rel);
        }
        v
    }

    /// Whether any spike lies in the closed interval `[from, to]`.
    ///
    /// With `from`/`to` padded by the template duration around a frame this
    /// is a conservative activity test: a neuron reported inactive is
    /// guaranteed to contribute exactly zero to every sample of the frame.
    pub fn active_in(&self, from: Seconds, to: Seconds) -> bool {
        let i = self.spikes.partition_point(|s| s.value() < from.value());
        self.spikes.get(i).is_some_and(|s| s.value() <= to.value())
    }

    /// Cleft voltage contributed by this neuron at position `(x, y)` and
    /// time `t`, summing over its (recent) spikes.
    pub fn cleft_voltage_at(&self, x: Meter, y: Meter, t: Seconds) -> Volt {
        let w = self.footprint_at(x, y);
        if w < MIN_FOOTPRINT {
            return Volt::ZERO;
        }
        self.temporal_at(t) * w
    }
}

/// Neuron-major culture scatter table over a list of sample points.
///
/// The `(neuron, weight)` pairs of [`CulturedNeuron::cleft_voltage_at`] are
/// loop-invariant in position — only `t` varies during a scan — so a
/// readout engine compiles them once per recording with
/// [`Culture::compile_scatter`]. Each neuron's bucket lists the points it
/// reaches, so a frame scatters only the neurons that fire near it instead
/// of gathering over every neuron at every point. Buffers are reused
/// across compiles, so a warm table allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScatterTable {
    /// Bucket offsets: `offsets.len()` is the neuron count plus one, and
    /// neuron `n`'s pairs live at `pairs[offsets[n]..offsets[n+1]]`.
    offsets: Vec<u32>,
    /// `(point, weight)` pairs, bucketed by ascending neuron, points
    /// ascending within each bucket.
    pairs: Vec<(u32, f64)>,
}

impl ScatterTable {
    /// Total number of `(point, weight)` pairs across all neurons.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The `(point, weight)` pairs neuron `neuron` feeds, points ascending
    /// (empty if out of range).
    pub fn bucket(&self, neuron: usize) -> &[(u32, f64)] {
        let lo = self.offsets.get(neuron).map_or(0, |&o| o as usize);
        let hi = self.offsets.get(neuron + 1).map_or(lo, |&o| o as usize);
        self.pairs.get(lo..hi).unwrap_or(&[])
    }
}

impl CulturedNeuron {
    /// Conservative activity padding for [`CulturedNeuron::active_in`]:
    /// a spike can influence samples up to one template duration away on
    /// either side (the template extends both before and after its
    /// alignment point).
    pub fn activity_padding(&self) -> Seconds {
        self.template.duration()
    }
}

/// A population of neurons over a rectangular chip surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Culture {
    width: Meter,
    height: Meter,
    neurons: Vec<CulturedNeuron>,
}

/// Configuration for random culture generation.
#[derive(Debug, Clone, PartialEq)]
pub struct CultureConfig {
    /// Surface width (the paper's array: 1 mm).
    pub width: Meter,
    /// Surface height (1 mm).
    pub height: Meter,
    /// Number of neurons to place.
    pub neuron_count: usize,
    /// Minimum soma diameter.
    pub min_diameter: Meter,
    /// Maximum soma diameter.
    pub max_diameter: Meter,
    /// Mean Poisson firing rate (Hz) of the population.
    pub mean_rate_hz: f64,
    /// Fraction of bursting (vs. Poisson) units.
    pub bursting_fraction: f64,
    /// Mean junction-coupling factor relative to the nominal 60 nm-cleft
    /// template (tighter adhesion ⇒ larger; the paper's amplitude window
    /// spans roughly 0.3× … 13× the nominal template).
    pub coupling_mean: f64,
    /// Relative per-neuron coupling spread around the mean.
    pub coupling_spread: f64,
}

impl Default for CultureConfig {
    /// The paper's setting: 1 mm² surface, neurons of 10–100 µm.
    fn default() -> Self {
        Self {
            width: Meter::from_milli(1.0),
            height: Meter::from_milli(1.0),
            neuron_count: 20,
            min_diameter: Meter::from_micro(10.0),
            max_diameter: Meter::from_micro(100.0),
            mean_rate_hz: 5.0,
            bursting_fraction: 0.3,
            coupling_mean: 2.0,
            coupling_spread: 0.5,
        }
    }
}

impl Culture {
    /// Creates an empty culture over the given surface.
    pub fn empty(width: Meter, height: Meter) -> Self {
        Self {
            width,
            height,
            neurons: Vec::new(),
        }
    }

    /// Places neurons at random per `config`, with junction templates from
    /// the nominal 60 nm cleft ([`ApTemplate::nominal`]) scaled by
    /// per-neuron coupling variation.
    pub fn random<R: Rng>(config: &CultureConfig, rng: &mut R) -> Self {
        let base_template = ApTemplate::nominal();
        let mut neurons = Vec::with_capacity(config.neuron_count);
        for _ in 0..config.neuron_count {
            let x = Meter::new(rng.gen::<f64>() * config.width.value());
            let y = Meter::new(rng.gen::<f64>() * config.height.value());
            let d = config.min_diameter.value()
                + rng.gen::<f64>() * (config.max_diameter - config.min_diameter).value();
            let pattern = if rng.gen::<f64>() < config.bursting_fraction {
                FiringPattern::Bursting {
                    burst_rate_hz: config.mean_rate_hz / 5.0,
                    spikes_per_burst: 5,
                    intra_burst_hz: 100.0,
                }
            } else {
                FiringPattern::Poisson {
                    rate_hz: config.mean_rate_hz,
                }
            };
            // Coupling factor in mean·[1−spread, 1+spread].
            let coupling = config.coupling_mean
                * (1.0 + config.coupling_spread * (2.0 * rng.gen::<f64>() - 1.0));
            neurons.push(CulturedNeuron {
                x,
                y,
                diameter: Meter::new(d),
                pattern,
                template: base_template.clone().scaled(coupling.max(0.05)),
                spikes: Vec::new(),
            });
        }
        Self {
            width: config.width,
            height: config.height,
            neurons,
        }
    }

    /// Adds a neuron.
    pub fn push(&mut self, neuron: CulturedNeuron) {
        self.neurons.push(neuron);
    }

    /// The neurons.
    pub fn neurons(&self) -> &[CulturedNeuron] {
        &self.neurons
    }

    /// Surface width.
    pub fn width(&self) -> Meter {
        self.width
    }

    /// Surface height.
    pub fn height(&self) -> Meter {
        self.height
    }

    /// Generates spike trains for all neurons over `[0, duration)`.
    pub fn generate_spikes<R: Rng>(&mut self, duration: Seconds, rng: &mut R) {
        for n in &mut self.neurons {
            n.spikes = n.pattern.generate(duration, rng);
        }
    }

    /// Total cleft voltage at surface position `(x, y)` and time `t`.
    pub fn cleft_voltage_at(&self, x: Meter, y: Meter, t: Seconds) -> Volt {
        self.neurons
            .iter()
            .map(|n| n.cleft_voltage_at(x, y, t))
            .sum()
    }

    /// Total number of spikes across the culture.
    pub fn total_spikes(&self) -> usize {
        self.neurons.iter().map(|n| n.spikes.len()).sum()
    }

    /// Compiles the neuron-major scatter table of the given sample points
    /// into `table`, reusing its buffers (a warm table allocates nothing).
    ///
    /// Neuron `n`'s bucket holds every point at which its footprint weight
    /// is at least [`MIN_FOOTPRINT`], in ascending point order, with the
    /// weight already resolved. Scattering the buckets in ascending neuron
    /// order into per-point accumulators that start at `+0.0` is
    /// bit-identical to [`Culture::cleft_voltage_at`] at every point: each
    /// accumulator receives the same terms in the same order as the full
    /// sum, less terms that are exactly `+0.0` there, and IEEE-754
    /// addition of `+0.0` preserves every accumulator bit (an accumulator
    /// that starts at `+0.0` can never become `-0.0`).
    ///
    /// Two whole-neuron prunes keep the compile cheap, each dropping only
    /// `+0.0` terms: a neuron without spikes has a zero waveform at every
    /// instant, and a neuron whose cull disc misses the points' bounding
    /// box reaches none of them.
    pub fn compile_scatter<I>(&self, points: I, table: &mut ScatterTable)
    where
        I: IntoIterator<Item = (Meter, Meter)>,
        I::IntoIter: Clone,
    {
        let points = points.into_iter();
        let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (x, y) in points.clone() {
            x_lo = x_lo.min(x.value());
            x_hi = x_hi.max(x.value());
            y_lo = y_lo.min(y.value());
            y_hi = y_hi.max(y.value());
        }
        table.offsets.clear();
        table.pairs.clear();
        table.offsets.push(0);
        for n in &self.neurons {
            let (nx, ny) = (n.x.value(), n.y.value());
            // Conservative cull radius: the footprint is monotone
            // decreasing outside the soma, so beyond radius + σ·√(−2·ln MIN)
            // it is strictly below MIN_FOOTPRINT and the exact test below
            // could only reject. A squared-distance compare (with a
            // relative safety margin against rounding) skips the sqrt/exp
            // for most (point, neuron) pairs without changing a single
            // emitted weight.
            let radius = n.radius().value();
            let cut = (radius + radius * 0.5 * (-2.0 * MIN_FOOTPRINT.ln()).sqrt()) * (1.0 + 1e-9);
            let cut_sq = cut * cut;
            // Rounding is monotone, so the box's squared distance never
            // exceeds a box point's: a box the disc misses holds no point
            // the per-point compare below would keep. An empty point list
            // leaves an inverted box at infinite distance.
            let bx = (x_lo - nx).max(nx - x_hi).max(0.0);
            let by = (y_lo - ny).max(ny - y_hi).max(0.0);
            if !n.spikes.is_empty() && bx * bx + by * by <= cut_sq {
                for (p, (x, y)) in points.clone().enumerate() {
                    let dx = x.value() - nx;
                    let dy = y.value() - ny;
                    if dx * dx + dy * dy > cut_sq {
                        continue;
                    }
                    let w = n.footprint_at(x, y);
                    if w >= MIN_FOOTPRINT {
                        table.pairs.push((p as u32, w));
                    }
                }
            }
            table.offsets.push(table.pairs.len() as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn one_neuron_culture() -> Culture {
        let template = ApTemplate::nominal().clone();
        let mut c = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        c.push(CulturedNeuron {
            x: Meter::from_micro(500.0),
            y: Meter::from_micro(500.0),
            diameter: Meter::from_micro(40.0),
            pattern: FiringPattern::Regular {
                rate_hz: 10.0,
                phase: 0.0,
                jitter_s: 0.0,
            },
            template,
            spikes: vec![Seconds::from_milli(50.0)],
        });
        c
    }

    #[test]
    fn signal_present_under_soma_at_spike_time() {
        let c = one_neuron_culture();
        let v = c.cleft_voltage_at(
            Meter::from_micro(500.0),
            Meter::from_micro(500.0),
            Seconds::from_milli(50.3),
        );
        assert!(v.abs().value() > 20e-6, "v = {v}");
    }

    #[test]
    fn signal_absent_far_away_or_at_other_times() {
        let c = one_neuron_culture();
        // Far corner.
        let v_far = c.cleft_voltage_at(
            Meter::from_micro(50.0),
            Meter::from_micro(50.0),
            Seconds::from_milli(50.3),
        );
        assert_eq!(v_far, Volt::ZERO);
        // Before the spike.
        let v_before = c.cleft_voltage_at(
            Meter::from_micro(500.0),
            Meter::from_micro(500.0),
            Seconds::from_milli(40.0),
        );
        assert_eq!(v_before, Volt::ZERO);
    }

    #[test]
    fn footprint_is_flat_inside_and_decays_outside() {
        let c = one_neuron_culture();
        let n = &c.neurons()[0];
        assert_eq!(n.footprint(Meter::ZERO), 1.0);
        assert_eq!(n.footprint(Meter::from_micro(19.0)), 1.0);
        let just_out = n.footprint(Meter::from_micro(25.0));
        let far_out = n.footprint(Meter::from_micro(40.0));
        assert!(just_out < 1.0 && just_out > far_out);
    }

    #[test]
    fn random_culture_places_all_neurons_on_surface() {
        let mut rng = SmallRng::seed_from_u64(42);
        let cfg = CultureConfig::default();
        let c = Culture::random(&cfg, &mut rng);
        assert_eq!(c.neurons().len(), cfg.neuron_count);
        for n in c.neurons() {
            assert!(n.x.value() >= 0.0 && n.x <= cfg.width);
            assert!(n.y.value() >= 0.0 && n.y <= cfg.height);
            assert!(n.diameter >= cfg.min_diameter && n.diameter <= cfg.max_diameter);
        }
    }

    #[test]
    fn generate_spikes_fills_trains() {
        let mut rng = SmallRng::seed_from_u64(43);
        let mut c = Culture::random(&CultureConfig::default(), &mut rng);
        assert_eq!(c.total_spikes(), 0);
        c.generate_spikes(Seconds::new(2.0), &mut rng);
        assert!(c.total_spikes() > 10, "spikes = {}", c.total_spikes());
    }

    #[test]
    fn culture_generation_is_seed_deterministic() {
        let cfg = CultureConfig::default();
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        let mut c1 = Culture::random(&cfg, &mut r1);
        let mut c2 = Culture::random(&cfg, &mut r2);
        c1.generate_spikes(Seconds::new(1.0), &mut r1);
        c2.generate_spikes(Seconds::new(1.0), &mut r2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn compiled_sources_are_bit_identical_to_full_sum() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut c = Culture::random(&CultureConfig::default(), &mut rng);
        c.generate_spikes(Seconds::new(0.2), &mut rng);
        // A silent neuron right on the grid: the compile prunes it whole.
        c.push(CulturedNeuron {
            x: Meter::from_micro(7.8 * 16.0),
            y: Meter::from_micro(7.8 * 16.0),
            diameter: Meter::from_micro(60.0),
            pattern: FiringPattern::Silent,
            template: ApTemplate::nominal().clone(),
            spikes: Vec::new(),
        });
        let points: Vec<(Meter, Meter)> = (0..64)
            .map(|k| {
                (
                    Meter::from_micro(7.8 * (k % 8) as f64 * 16.0),
                    Meter::from_micro(7.8 * (k / 8) as f64 * 16.0),
                )
            })
            .collect();
        let mut table = ScatterTable::default();
        c.compile_scatter(points.iter().copied(), &mut table);
        assert!(table.pair_count() > 0);
        assert!(table.bucket(c.neurons().len() - 1).is_empty());
        let mut v = vec![0.0f64; points.len()];
        for step in 0..20 {
            let t = Seconds::from_milli(step as f64 * 10.0);
            v.fill(0.0);
            for (ni, n) in c.neurons().iter().enumerate() {
                for &(p, w) in table.bucket(ni) {
                    v[p as usize] += (n.temporal_at(t) * w).value();
                }
            }
            for (p, &(x, y)) in points.iter().enumerate() {
                let full = c.cleft_voltage_at(x, y, t);
                assert_eq!(
                    full.value().to_bits(),
                    v[p].to_bits(),
                    "divergence at point {p}, t {t}"
                );
            }
        }
    }

    #[test]
    fn scatter_compile_of_no_points_is_empty() {
        let mut rng = SmallRng::seed_from_u64(78);
        let mut c = Culture::random(&CultureConfig::default(), &mut rng);
        c.generate_spikes(Seconds::new(0.2), &mut rng);
        let mut table = ScatterTable::default();
        c.compile_scatter(std::iter::empty(), &mut table);
        assert_eq!(table.pair_count(), 0);
        assert!((0..c.neurons().len()).all(|n| table.bucket(n).is_empty()));
    }

    #[test]
    fn activity_window_is_conservative() {
        // A neuron reported inactive over a padded window must contribute
        // exactly zero at every instant inside the unpadded window.
        let c = one_neuron_culture();
        let n = &c.neurons()[0];
        let pad = n.activity_padding();
        for step in 0..200 {
            let from = Seconds::from_milli(step as f64);
            let to = from + Seconds::from_milli(1.0);
            if !n.active_in(from - pad, to + pad) {
                for sub in 0..10 {
                    let t = from + Seconds::from_micro(100.0 * sub as f64);
                    assert_eq!(n.temporal_at(t), Volt::ZERO, "t = {t}");
                }
            }
        }
        // Sanity: the window around the 50 ms spike does report active.
        assert!(n.active_in(
            Seconds::from_milli(50.0) - pad,
            Seconds::from_milli(51.0) + pad
        ));
    }

    #[test]
    fn overlapping_neurons_superpose() {
        let template = ApTemplate::nominal().clone();
        let mut c = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        for _ in 0..2 {
            c.push(CulturedNeuron {
                x: Meter::from_micro(500.0),
                y: Meter::from_micro(500.0),
                diameter: Meter::from_micro(40.0),
                pattern: FiringPattern::Silent,
                template: template.clone(),
                spikes: vec![Seconds::from_milli(10.0)],
            });
        }
        let v2 = c.cleft_voltage_at(
            Meter::from_micro(500.0),
            Meter::from_micro(500.0),
            Seconds::from_milli(10.3),
        );
        let single = one_neuron_culture();
        let v1 = single.cleft_voltage_at(
            Meter::from_micro(500.0),
            Meter::from_micro(500.0),
            Seconds::from_milli(50.3),
        );
        assert!((v2.value() / v1.value() - 2.0).abs() < 1e-9);
    }
}
