//! Standard-normal samplers over a [`SmallRng`].
//!
//! Three samplers, each with its own bits, so each is kept where its
//! stream is pinned:
//!
//! * [`Ziggurat`] — one `u64` per draw almost always; the readout
//!   chains' per-sample input noise.
//! * [`GaussianSampler`] — Marsaglia polar pairs; die mismatch, converter
//!   noise and the white and pink noise sources.
//! * [`box_muller`] — one cosine draw per call; spike-time jitter and the
//!   redox current's fluctuation floor.
//!
//! Each `sample` is `#[inline]` for the same reason as the draws of
//! [`SmallRng`]: the scan loops that call it live in other crates.

use crate::SmallRng;
use std::sync::OnceLock;

/// Marsaglia-polar Gaussian sampler producing `N(0, 1)` variates.
///
/// Caches the second variate of each polar pair, so consecutive calls cost
/// one `ln`/`sqrt` pair per two samples — and no trigonometry at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one standard-normal sample using `rng` for uniforms.
    #[inline]
    pub fn sample(&mut self, rng: &mut SmallRng) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Marsaglia polar: rejection-sample a point in the open unit disc
        // (w = 0 would divide by zero, w ≥ 1 would flip the ln sign), then
        // scale both coordinates into an independent Gaussian pair.
        loop {
            let x = 2.0 * rng.next_f64() - 1.0;
            let y = 2.0 * rng.next_f64() - 1.0;
            let w = x * x + y * y;
            if w > 0.0 && w < 1.0 {
                let s = (-2.0 * w.ln() / w).sqrt();
                self.spare = Some(y * s);
                return x * s;
            }
        }
    }
}

/// One Box–Muller `N(0, 1)` draw from two uniforms, keeping only the
/// cosine branch of the pair.
#[inline]
pub fn box_muller(rng: &mut SmallRng) -> f64 {
    // 1 − [0, 1) is in (0, 1]: the logarithm stays finite.
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Layers of the ziggurat, the base layer with its tail included.
const ZIGGURAT_LAYERS: usize = 256;

/// Right edge R of the base layer's rectangle for 256 layers (Marsaglia
/// & Tsang 2000): the tail beyond it is sampled exactly.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// Area V of every layer under the unnormalized density e^(−x²/2).
const ZIGGURAT_V: f64 = 0.004_928_673_233_99;

/// The layer edges of a 256-layer ziggurat over e^(−x²/2).
#[derive(Debug)]
struct ZigguratTables {
    /// `x[i]` is the right edge of layer `i`. `x[0] = V/f(R)` is the base
    /// layer's pseudo-width (rectangle plus tail), `x[1] = R` and
    /// `x[256] = 0` is the peak.
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `f[i] = e^(−x[i]²/2)`: the layer's bottom, and the top of layer `i − 1`.
    f: [f64; ZIGGURAT_LAYERS + 1],
}

impl ZigguratTables {
    /// Stacks the layers up from R: each one is as wide as its lower edge
    /// and tall enough to hold area V.
    fn build() -> Self {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        let mut edge = ZIGGURAT_R;
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = match i {
                0 => ZIGGURAT_V / density(ZIGGURAT_R),
                ZIGGURAT_LAYERS => 0.0,
                _ => {
                    let current = edge;
                    edge = (-2.0 * (density(current) + ZIGGURAT_V / current).ln()).sqrt();
                    current
                }
            };
        }
        Self {
            f: x.map(density),
            x,
        }
    }
}

/// The ziggurat tables, built on first use.
fn ziggurat_tables() -> &'static ZigguratTables {
    static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
    TABLES.get_or_init(ZigguratTables::build)
}

/// Ziggurat sampler for `N(0, 1)` variates (Marsaglia & Tsang 2000, 256
/// layers, exact tail).
///
/// Almost every draw (98.5 %) costs one `u64` and one multiply: its
/// low 8 bits pick a layer, its top 52 bits a signed position inside the
/// layer's rectangle. Only draws that land in a layer's wedge or in the
/// tail take a second uniform and an `exp` or `ln`. The sampler holds no
/// state between draws, so each one is a pure function of the RNG
/// stream, and it costs about a third of a [`GaussianSampler`] draw.
#[derive(Debug, Clone, Copy)]
pub struct Ziggurat {
    tables: &'static ZigguratTables,
}

impl Default for Ziggurat {
    fn default() -> Self {
        Self::new()
    }
}

impl Ziggurat {
    /// A sampler over the shared layer tables.
    pub fn new() -> Self {
        Self {
            tables: ziggurat_tables(),
        }
    }

    /// Draws one standard-normal sample using `rng` for uniform bits.
    ///
    /// Only the rectangle test is inlined: it loads the layer's two
    /// edges and nothing else. A draw that misses it goes to a cold
    /// function with the same bits, which repeats the test and goes on
    /// exactly as one loop would have, so the split moves no draw and
    /// changes no bit.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        let bits = rng.next_u64();
        match self.inside(bits) {
            Some(z) => z,
            None => self.sample_outside(rng, bits),
        }
    }

    /// The draw `bits` makes when it lands inside its layer's rectangle:
    /// its low 8 bits pick a layer, its top 52 bits a signed position.
    #[inline]
    fn inside(&self, bits: u64) -> Option<f64> {
        let (layer, u) = Self::split(bits);
        let x = &self.tables.x;
        // layer + 1 <= 256: both lookups hit.
        let z = u * x.get(layer)?;
        (z.abs() < *x.get(layer + 1)?).then_some(z)
    }

    /// The layer and the uniform `u` in [−1, 1) of one draw's bits.
    #[inline]
    fn split(bits: u64) -> (usize, f64) {
        // 2 + 52 mantissa bits is uniform in [2, 4): u in [−1, 1).
        let u = f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)) - 3.0;
        ((bits & 0xff) as usize, u)
    }

    /// The rest of a draw whose bits missed their rectangle: the wedge or
    /// tail test for them, then fresh draws until one is accepted.
    #[cold]
    #[inline(never)]
    fn sample_outside(&self, rng: &mut SmallRng, mut bits: u64) -> f64 {
        let ZigguratTables { x, f } = self.tables;
        loop {
            let (layer, u) = Self::split(bits);
            // layer + 1 <= 256: every lookup hits, and the `else` never runs.
            let (Some(&outer), Some(&inner), Some(&bottom), Some(&top)) = (
                x.get(layer),
                x.get(layer + 1),
                f.get(layer),
                f.get(layer + 1),
            ) else {
                bits = rng.next_u64();
                continue;
            };
            let z = u * outer;
            if z.abs() < inner {
                return z;
            }
            if layer == 0 {
                return Self::tail(rng, u < 0.0);
            }
            // Wedge: accept under the density at a uniform height
            // between the layer's bottom and top.
            if bottom + (top - bottom) * rng.next_f64() < (-0.5 * z * z).exp() {
                return z;
            }
            bits = rng.next_u64();
        }
    }

    /// Exact draw from the tail beyond R (Marsaglia 1964).
    fn tail(rng: &mut SmallRng, negative: bool) -> f64 {
        loop {
            // 1 − [0, 1) is in (0, 1]: both logarithms stay finite.
            let t = -(1.0 - rng.next_f64()).ln() / ZIGGURAT_R;
            let y = -(1.0 - rng.next_f64()).ln();
            if 2.0 * y >= t * t {
                let z = ZIGGURAT_R + t;
                return if negative { -z } else { z };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(v: &[f64]) -> (f64, f64) {
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// Draws `n` samples from each normal sampler in turn.
    fn every_sampler(seed: u64, n: usize) -> [(&'static str, Vec<f64>); 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut polar = GaussianSampler::new();
        let polar: Vec<f64> = (0..n).map(|_| polar.sample(&mut rng)).collect();
        let zig = Ziggurat::new();
        let zig: Vec<f64> = (0..n).map(|_| zig.sample(&mut rng)).collect();
        let bm: Vec<f64> = (0..n).map(|_| box_muller(&mut rng)).collect();
        [("polar", polar), ("ziggurat", zig), ("box-muller", bm)]
    }

    #[test]
    fn gaussian_moments() {
        for (name, v) in every_sampler(1, 50_000) {
            let (mean, sd) = stats(&v);
            assert!(mean.abs() < 0.02, "{name}: mean = {mean}");
            assert!((sd - 1.0).abs() < 0.02, "{name}: sd = {sd}");
        }
    }

    #[test]
    fn gaussian_tails_are_plausible() {
        let n = 100_000;
        for (name, v) in every_sampler(2, n) {
            let beyond_2sigma = v.iter().filter(|z| z.abs() > 2.0).count();
            let frac = beyond_2sigma as f64 / n as f64;
            assert!((frac - 0.0455).abs() < 0.005, "{name}: frac = {frac}");
        }
    }

    #[test]
    fn ziggurat_tail_beyond_the_base_layer_has_its_share() {
        // P(|z| > R) = erfc(R/√2) = 2.58e-4 for R = 3.6542: about 516 of
        // 2e6 draws (σ ≈ 23), split evenly between the two tails.
        let mut rng = SmallRng::seed_from_u64(12);
        let zig = Ziggurat::new();
        let n = 2_000_000;
        let (mut below, mut above) = (0usize, 0usize);
        for _ in 0..n {
            let z = zig.sample(&mut rng);
            if z < -3.6542 {
                below += 1;
            } else if z > 3.6542 {
                above += 1;
            }
        }
        let share = (below + above) as f64 / n as f64;
        assert!((share / 2.58e-4 - 1.0).abs() < 0.15, "share = {share}");
        assert!(below > 180 && above > 180, "tails {below} / {above}");
    }

    /// The draw as one loop: the four table entries loaded before the
    /// rectangle test, then the wedge or tail, then a fresh draw.
    fn looped_sample(rng: &mut SmallRng) -> f64 {
        let ZigguratTables { x, f } = ziggurat_tables();
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xff) as usize;
            let u = f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)) - 3.0;
            let (outer, inner, bottom, top) = (x[layer], x[layer + 1], f[layer], f[layer + 1]);
            let z = u * outer;
            if z.abs() < inner {
                return z;
            }
            if layer == 0 {
                return Ziggurat::tail(rng, u < 0.0);
            }
            if bottom + (top - bottom) * rng.next_f64() < (-0.5 * z * z).exp() {
                return z;
            }
        }
    }

    #[test]
    fn the_cold_path_split_draws_like_one_loop() {
        // 2e6 draws take the wedge about 30 000 times and the tail about
        // 500 times; the streams must agree on every bit and stay aligned.
        let zig = Ziggurat::new();
        let mut split = SmallRng::seed_from_u64(38);
        let mut looped = split.clone();
        for i in 0..2_000_000 {
            let (a, b) = (zig.sample(&mut split), looped_sample(&mut looped));
            assert_eq!(a.to_bits(), b.to_bits(), "draw {i}");
        }
        assert_eq!(split, looped);
    }

    #[test]
    fn ziggurat_tables_stack_layers_of_equal_area() {
        let ZigguratTables { x, f } = ziggurat_tables();
        assert_eq!(x.get(1), Some(&3.654_152_885_361_009));
        assert_eq!(x.last(), Some(&0.0));
        assert_eq!(f.last(), Some(&1.0));
        // The base layer: its pseudo-width times f(R) covers rectangle
        // and tail.
        let base = x.first().zip(f.get(1)).map_or(0.0, |(x0, f1)| x0 * f1);
        assert!((base / ZIGGURAT_V - 1.0).abs() < 1e-12, "base {base}");
        let mut layers = 1;
        for (xs, fs) in x.windows(2).zip(f.windows(2)).skip(1) {
            let ([outer, _], [bottom, top]) = (xs, fs) else {
                unreachable!("windows(2) yields pairs");
            };
            let area = outer * (top - bottom);
            assert!(
                (area / ZIGGURAT_V - 1.0).abs() < 1e-8,
                "layer {layers}: area {area}"
            );
            layers += 1;
        }
        assert_eq!(layers, ZIGGURAT_LAYERS);
    }
}
