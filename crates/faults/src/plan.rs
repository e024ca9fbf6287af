//! Injection plans and their compiled, geometry-specific fault maps.

use crate::kinds::{FaultClass, FaultKind, PixelFaults};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;

/// Where a planned fault lands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    /// A single pixel by (row, column).
    Pixel { row: usize, col: usize },
    /// A random subset of the array at the given pixel density.
    ArrayWide { density: f64 },
    /// Array-independent (channel loss, serial link).
    Global,
}

/// Public view of one planned entry's addressing, for callers that
/// serialize or mirror a plan (e.g. onto the wire protocol) without
/// access to the private builder state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanTarget {
    /// A single pixel by (row, column).
    Pixel {
        /// Sensor row.
        row: usize,
        /// Sensor column.
        col: usize,
    },
    /// A random subset of the array at the given pixel density.
    ArrayWide {
        /// Fraction of pixels affected, clamped to `[0, 1]`.
        density: f64,
    },
    /// Array-independent (channel loss, serial link).
    Global,
}

/// A composable, seedable description of which defects to inject.
///
/// Build one with the fluent methods, then [`compile`](Self::compile) it
/// for a concrete geometry. Plans are plain data: cloning, inspecting and
/// serializing them is cheap, and compiling the same plan twice yields
/// identical fault maps.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionPlan {
    seed: u64,
    entries: Vec<(Target, FaultKind)>,
}

impl InjectionPlan {
    /// An empty plan with the given compilation seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            entries: Vec::new(),
        }
    }

    /// The compilation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of planned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been planned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The planned entries in application order, as public
    /// [`PlanTarget`]/[`FaultKind`] pairs.
    pub fn entries(&self) -> impl Iterator<Item = (PlanTarget, FaultKind)> + '_ {
        self.entries.iter().map(|(target, kind)| {
            let target = match *target {
                Target::Pixel { row, col } => PlanTarget::Pixel { row, col },
                Target::ArrayWide { density } => PlanTarget::ArrayWide { density },
                Target::Global => PlanTarget::Global,
            };
            (target, *kind)
        })
    }

    /// Injects `kind` at one pixel.
    ///
    /// Channel-loss and serial faults carry their own addressing and are
    /// recorded globally regardless of the pixel given.
    pub fn at(mut self, row: usize, col: usize, kind: FaultKind) -> Self {
        let target = if kind.is_pixel_fault() {
            Target::Pixel { row, col }
        } else {
            Target::Global
        };
        self.entries.push((target, kind));
        self
    }

    /// Injects `kind` into a random fraction `density` (clamped to
    /// `[0, 1]`) of all pixels, selected deterministically from the seed
    /// at compile time.
    ///
    /// Non-pixel faults (channel loss, serial bit errors) are recorded
    /// globally; density is ignored for them.
    pub fn array_wide(mut self, density: f64, kind: FaultKind) -> Self {
        let target = if kind.is_pixel_fault() {
            Target::ArrayWide {
                density: density.clamp(0.0, 1.0),
            }
        } else {
            Target::Global
        };
        self.entries.push((target, kind));
        self
    }

    /// Convenience: loses one multiplexed readout channel.
    pub fn lose_channel(self, channel: usize) -> Self {
        self.at(0, 0, FaultKind::ChannelLoss { channel })
    }

    /// Convenience: corrupts the serial link at the given bit-error rate.
    pub fn serial_bit_errors(self, rate: f64) -> Self {
        self.at(0, 0, FaultKind::SerialBitErrors { rate })
    }

    /// Compiles the plan for a `rows` × `cols` array.
    ///
    /// Array-wide entries each select `round(density × rows × cols)`
    /// distinct pixels with a partial Fisher–Yates shuffle driven by a
    /// [`SmallRng`] seeded from the plan seed, so compilation is
    /// reproducible and independent of entry order for per-pixel entries.
    /// Out-of-range per-pixel entries are ignored (the chip models
    /// validate addresses separately).
    pub fn compile(&self, rows: usize, cols: usize) -> CompiledFaults {
        let n = rows * cols;
        let mut pixels = vec![PixelFaults::default(); n];
        let mut lost_channels = Vec::new();
        let mut serial_bit_error_rate: f64 = 0.0;
        let mut injected: BTreeMap<FaultClass, usize> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(self.seed);

        for (target, kind) in &self.entries {
            match *target {
                Target::Pixel { row, col } => {
                    if row < rows && col < cols {
                        pixels[row * cols + col].merge(*kind);
                        *injected.entry(kind.class()).or_default() += 1;
                    }
                }
                Target::ArrayWide { density } => {
                    let picks = ((density * n as f64).round() as usize).min(n);
                    for idx in choose_distinct(n, picks, &mut rng) {
                        if let Some(p) = pixels.get_mut(idx) {
                            p.merge(*kind);
                            *injected.entry(kind.class()).or_default() += 1;
                        }
                    }
                }
                Target::Global => match *kind {
                    FaultKind::ChannelLoss { channel } if !lost_channels.contains(&channel) => {
                        lost_channels.push(channel);
                        *injected.entry(kind.class()).or_default() += 1;
                    }
                    FaultKind::ChannelLoss { .. } => {}
                    FaultKind::SerialBitErrors { rate } => {
                        // Independent error processes compose:
                        // p = 1 − (1−p₁)(1−p₂).
                        let rate = rate.clamp(0.0, 1.0);
                        serial_bit_error_rate = 1.0 - (1.0 - serial_bit_error_rate) * (1.0 - rate);
                        *injected.entry(kind.class()).or_default() += 1;
                    }
                    // Pixel-class kinds need a pixel address; a Global
                    // target gives them nothing to act on, so they are
                    // dropped (and not counted as injected).
                    _ => {}
                },
            }
        }

        lost_channels.sort_unstable();
        CompiledFaults {
            rows,
            cols,
            seed: self.seed,
            pixels,
            lost_channels,
            serial_bit_error_rate,
            injected,
        }
    }
}

/// Picks `k` distinct indices from `0..n` (partial Fisher–Yates).
fn choose_distinct(n: usize, k: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        indices.swap(i, j);
    }
    indices.truncate(k);
    indices
}

/// A plan compiled for one concrete array geometry: the per-pixel fault
/// map plus the non-pixel fault state.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFaults {
    rows: usize,
    cols: usize,
    seed: u64,
    pixels: Vec<PixelFaults>,
    lost_channels: Vec<usize>,
    serial_bit_error_rate: f64,
    injected: BTreeMap<FaultClass, usize>,
}

impl CompiledFaults {
    /// A fault-free map for the given geometry.
    pub fn none(rows: usize, cols: usize) -> Self {
        InjectionPlan::new(0).compile(rows, cols)
    }

    /// Array rows this map was compiled for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns this map was compiled for.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The seed the plan was compiled with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The aggregate fault state of one pixel. Out-of-range addresses
    /// report as fault-free.
    pub fn at(&self, row: usize, col: usize) -> PixelFaults {
        if row < self.rows && col < self.cols {
            self.pixels[row * self.cols + col]
        } else {
            PixelFaults::default()
        }
    }

    /// Per-pixel fault states in row-major order.
    pub fn pixels(&self) -> &[PixelFaults] {
        &self.pixels
    }

    /// Number of pixels carrying at least one fault.
    pub fn faulty_pixel_count(&self) -> usize {
        self.pixels.iter().filter(|f| f.is_faulty()).count()
    }

    /// `true` if the given readout channel is lost.
    pub fn channel_lost(&self, channel: usize) -> bool {
        self.lost_channels.binary_search(&channel).is_ok()
    }

    /// The lost readout channels, sorted.
    pub fn lost_channels(&self) -> &[usize] {
        &self.lost_channels
    }

    /// Per-bit flip probability on the serial link.
    pub fn serial_bit_error_rate(&self) -> f64 {
        self.serial_bit_error_rate
    }

    /// A deterministic corruptor for the serial link, derived from the
    /// plan seed.
    pub fn serial_corruptor(&self) -> SerialCorruptor {
        SerialCorruptor::new(
            self.serial_bit_error_rate,
            self.seed ^ 0x5e71_a1b1_7e77_0a5d,
        )
    }

    /// How many injections of each class the compilation performed.
    pub fn injected_counts(&self) -> &BTreeMap<FaultClass, usize> {
        &self.injected
    }

    /// `true` if no fault of any kind was compiled in.
    pub fn is_clean(&self) -> bool {
        self.faulty_pixel_count() == 0
            && self.lost_channels.is_empty()
            && self.serial_bit_error_rate == 0.0
    }
}

/// Flips bits of serial words with a fixed per-bit probability, using its
/// own deterministic RNG stream.
#[derive(Debug, Clone)]
pub struct SerialCorruptor {
    rate: f64,
    rng: SmallRng,
}

impl SerialCorruptor {
    /// A corruptor flipping each bit with probability `rate`.
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            rate: rate.clamp(0.0, 1.0),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The per-bit flip probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Corrupts the low `bits` bits of `word`, returning the corrupted
    /// word and the number of bits flipped.
    pub fn corrupt(&mut self, word: u64, bits: u32) -> (u64, u32) {
        if self.rate <= 0.0 {
            return (word, 0);
        }
        let mut out = word;
        let mut flipped = 0;
        for b in 0..bits.min(64) {
            if self.rng.gen_bool(self.rate) {
                out ^= 1u64 << b;
                flipped += 1;
            }
        }
        (out, flipped)
    }

    /// Fresh randomness source shared with the corruptor's stream.
    pub fn rng(&mut self) -> &mut impl RngCore {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_units::Ampere;

    #[test]
    fn compile_is_deterministic() {
        let plan = InjectionPlan::new(7)
            .array_wide(0.1, FaultKind::DeadPixel)
            .array_wide(
                0.05,
                FaultKind::LeakyElectrode {
                    leakage: Ampere::from_pico(20.0),
                },
            );
        let a = plan.compile(128, 128);
        let b = plan.compile(128, 128);
        assert_eq!(a, b);
        assert!(a.faulty_pixel_count() > 0);
    }

    #[test]
    fn different_seeds_select_different_pixels() {
        let mk = |seed| {
            InjectionPlan::new(seed)
                .array_wide(0.1, FaultKind::DeadPixel)
                .compile(128, 128)
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn density_selects_expected_count() {
        let faults = InjectionPlan::new(3)
            .array_wide(0.1, FaultKind::DeadPixel)
            .compile(128, 128);
        let n = faults.faulty_pixel_count();
        // Exactly round(0.1 × 16384) distinct pixels.
        assert_eq!(n, 1638);
    }

    #[test]
    fn per_pixel_entry_lands_where_told() {
        let faults = InjectionPlan::new(0)
            .at(2, 5, FaultKind::StuckCount { count: 999 })
            .compile(8, 16);
        assert_eq!(faults.at(2, 5).stuck_count, Some(999));
        assert_eq!(faults.faulty_pixel_count(), 1);
    }

    #[test]
    fn out_of_range_entry_is_ignored() {
        let faults = InjectionPlan::new(0)
            .at(100, 100, FaultKind::DeadPixel)
            .compile(8, 16);
        assert!(faults.is_clean());
        assert!(!faults.at(100, 100).is_faulty());
    }

    #[test]
    fn channel_loss_and_serial_faults_are_global() {
        let faults = InjectionPlan::new(0)
            .lose_channel(3)
            .lose_channel(3)
            .serial_bit_errors(0.5)
            .serial_bit_errors(0.5)
            .compile(8, 16);
        assert_eq!(faults.lost_channels(), &[3]);
        assert!(faults.channel_lost(3));
        assert!(!faults.channel_lost(4));
        // Two independent 0.5 processes compose to 0.75.
        assert!((faults.serial_bit_error_rate() - 0.75).abs() < 1e-12);
        assert_eq!(faults.faulty_pixel_count(), 0);
    }

    #[test]
    fn full_density_hits_every_pixel() {
        let faults = InjectionPlan::new(9)
            .array_wide(1.0, FaultKind::DeadPixel)
            .compile(8, 16);
        assert_eq!(faults.faulty_pixel_count(), 128);
    }

    #[test]
    fn corruptor_flips_no_bits_at_zero_rate() {
        let mut c = SerialCorruptor::new(0.0, 1);
        assert_eq!(c.corrupt(0xDEAD_BEEF, 56), (0xDEAD_BEEF, 0));
    }

    #[test]
    fn corruptor_flips_all_bits_at_unit_rate() {
        let mut c = SerialCorruptor::new(1.0, 1);
        let (word, flipped) = c.corrupt(0, 8);
        assert_eq!(word, 0xFF);
        assert_eq!(flipped, 8);
    }

    #[test]
    fn entries_expose_the_planned_pairs_in_order() {
        let plan = InjectionPlan::new(5)
            .at(2, 3, FaultKind::DeadPixel)
            .array_wide(0.25, FaultKind::ComparatorStuck { high: true })
            .lose_channel(7);
        let entries: Vec<_> = plan.entries().collect();
        assert_eq!(
            entries,
            vec![
                (PlanTarget::Pixel { row: 2, col: 3 }, FaultKind::DeadPixel),
                (
                    PlanTarget::ArrayWide { density: 0.25 },
                    FaultKind::ComparatorStuck { high: true }
                ),
                (PlanTarget::Global, FaultKind::ChannelLoss { channel: 7 }),
            ]
        );
    }

    #[test]
    fn injected_counts_track_classes() {
        let faults = InjectionPlan::new(11)
            .at(0, 0, FaultKind::DeadPixel)
            .at(1, 1, FaultKind::DeadPixel)
            .lose_channel(2)
            .compile(8, 16);
        assert_eq!(faults.injected_counts()[&FaultClass::DeadPixel], 2);
        assert_eq!(faults.injected_counts()[&FaultClass::ChannelLoss], 1);
    }
}
