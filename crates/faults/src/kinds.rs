//! Defect taxonomy and the per-pixel aggregate fault state.

use bsa_units::{Ampere, Volt};
use std::fmt;

/// One injectable defect.
///
/// Each variant models a physical failure mechanism observed in
/// sensor-array silicon; the chip models in `bsa-core` interpret them:
///
/// * Pixel-level electrical defects ([`DeadPixel`](Self::DeadPixel),
///   [`StuckCount`](Self::StuckCount),
///   [`LeakyElectrode`](Self::LeakyElectrode),
///   [`ComparatorDrift`](Self::ComparatorDrift),
///   [`ComparatorStuck`](Self::ComparatorStuck),
///   [`DacSaturation`](Self::DacSaturation),
///   [`GainClipping`](Self::GainClipping)) attach to individual pixels.
/// * [`ChannelLoss`](Self::ChannelLoss) kills one of the multiplexed
///   readout channels (paper: 16 parallel channels on the neural chip).
/// * [`SerialBitErrors`](Self::SerialBitErrors) corrupts the 6-pin serial
///   interface of the DNA chip at a given bit-error rate.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Pixel produces no output at all (open electrode, dead in-pixel
    /// amplifier). The counter never advances.
    DeadPixel,
    /// In-pixel counter latches a fixed value regardless of input
    /// (stuck-at defect in the counter or its readout latch).
    StuckCount {
        /// The frozen counter value returned every frame.
        count: u64,
    },
    /// Electrode leaks a parasitic current into the integration node
    /// (residual metallization, electrolyte creep under the passivation).
    /// Typically pA-scale — comparable to the smallest sensor currents.
    LeakyElectrode {
        /// Parasitic current added to the sensor current.
        leakage: Ampere,
    },
    /// Comparator switching level has drifted from its calibrated value
    /// (NBTI / charge trapping), changing the effective ramp span and
    /// therefore the conversion gain.
    ComparatorDrift {
        /// Additional input-referred offset of the switching level.
        offset: Volt,
    },
    /// Comparator output is stuck. Stuck high holds the reset switch on,
    /// so the ramp never runs and the count stays 0; stuck low never
    /// fires a reset, so the first ramp saturates and the count is also
    /// frozen — but the two fail differently under recalibration.
    ComparatorStuck {
        /// `true` = output stuck high (reset held), `false` = stuck low
        /// (reset never fires).
        high: bool,
    },
    /// Calibration DAC saturates: the per-pixel gain correction cannot
    /// leave the range `[1/limit, limit]`, leaving residual gain error on
    /// pixels whose mismatch needs more correction than the DAC spans.
    DacSaturation {
        /// Maximum correction magnitude the DAC can realize (> 1).
        limit: f64,
    },
    /// Neural-chip gain chain clips at a reduced swing (damaged output
    /// stage), compressing large signals.
    GainClipping {
        /// Output swing limit; samples are clamped to ±`limit`.
        limit: Volt,
    },
    /// One multiplexed readout channel is lost (metal open in the column
    /// bus or a dead channel amplifier); every pixel read through it
    /// returns a flat zero.
    ChannelLoss {
        /// Index of the lost channel.
        channel: usize,
    },
    /// Bit errors on the serial interface: each transmitted bit flips
    /// independently with the given probability.
    SerialBitErrors {
        /// Per-bit flip probability in `[0, 1]`.
        rate: f64,
    },
}

impl FaultKind {
    /// The class this fault belongs to, for reporting.
    pub fn class(&self) -> FaultClass {
        match self {
            Self::DeadPixel => FaultClass::DeadPixel,
            Self::StuckCount { .. } => FaultClass::StuckCount,
            Self::LeakyElectrode { .. } => FaultClass::LeakyElectrode,
            Self::ComparatorDrift { .. } => FaultClass::ComparatorDrift,
            Self::ComparatorStuck { .. } => FaultClass::ComparatorStuck,
            Self::DacSaturation { .. } => FaultClass::DacSaturation,
            Self::GainClipping { .. } => FaultClass::GainClipping,
            Self::ChannelLoss { .. } => FaultClass::ChannelLoss,
            Self::SerialBitErrors { .. } => FaultClass::SerialBitErrors,
        }
    }

    /// `true` if this fault attaches to an individual pixel (as opposed
    /// to a readout channel or the serial link).
    pub fn is_pixel_fault(&self) -> bool {
        !matches!(
            self,
            Self::ChannelLoss { .. } | Self::SerialBitErrors { .. }
        )
    }
}

/// Parameter-free fault classification used for counting and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum FaultClass {
    /// See [`FaultKind::DeadPixel`].
    DeadPixel,
    /// See [`FaultKind::StuckCount`].
    StuckCount,
    /// See [`FaultKind::LeakyElectrode`].
    LeakyElectrode,
    /// See [`FaultKind::ComparatorDrift`].
    ComparatorDrift,
    /// See [`FaultKind::ComparatorStuck`].
    ComparatorStuck,
    /// See [`FaultKind::DacSaturation`].
    DacSaturation,
    /// See [`FaultKind::GainClipping`].
    GainClipping,
    /// See [`FaultKind::ChannelLoss`].
    ChannelLoss,
    /// See [`FaultKind::SerialBitErrors`].
    SerialBitErrors,
}

impl FaultClass {
    /// All fault classes, in reporting order.
    pub const ALL: [FaultClass; 9] = [
        FaultClass::DeadPixel,
        FaultClass::StuckCount,
        FaultClass::LeakyElectrode,
        FaultClass::ComparatorDrift,
        FaultClass::ComparatorStuck,
        FaultClass::DacSaturation,
        FaultClass::GainClipping,
        FaultClass::ChannelLoss,
        FaultClass::SerialBitErrors,
    ];

    /// Stable human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::DeadPixel => "dead pixel",
            Self::StuckCount => "stuck counter",
            Self::LeakyElectrode => "leaky electrode",
            Self::ComparatorDrift => "comparator drift",
            Self::ComparatorStuck => "comparator stuck",
            Self::DacSaturation => "DAC saturation",
            Self::GainClipping => "gain clipping",
            Self::ChannelLoss => "channel loss",
            Self::SerialBitErrors => "serial bit errors",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The aggregate fault state of one pixel after compiling a plan.
///
/// Multiple injected faults compose: leakages add, drifts add, and the
/// most severe stuck condition wins. A default value means "no fault".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelFaults {
    /// Pixel produces no output ([`FaultKind::DeadPixel`] or comparator
    /// stuck in either state).
    pub dead: bool,
    /// Counter frozen at this value, if stuck.
    pub stuck_count: Option<u64>,
    /// Total parasitic leakage added to the sensor current.
    pub leakage: Ampere,
    /// Total comparator switching-level drift.
    pub comparator_drift: Volt,
    /// Tightest calibration-DAC correction limit, if saturated (> 1).
    pub dac_limit: Option<f64>,
    /// Tightest gain-chain output clip, if clipping.
    pub clip_limit: Option<Volt>,
}

impl Default for PixelFaults {
    fn default() -> Self {
        Self::NONE
    }
}

impl PixelFaults {
    /// No fault (the default), as a constant that a pixel without faults
    /// can point at.
    pub const NONE: Self = Self {
        dead: false,
        stuck_count: None,
        leakage: Ampere::ZERO,
        comparator_drift: Volt::ZERO,
        dac_limit: None,
        clip_limit: None,
    };

    /// `true` if any fault is present on this pixel.
    pub fn is_faulty(&self) -> bool {
        *self != Self::NONE
    }

    /// Folds one more injected fault into the aggregate state.
    ///
    /// Global (link-level) kinds — `ChannelLoss`, `SerialBitErrors` —
    /// have no pixel-level effect and are ignored
    /// (see [`FaultKind::is_pixel_fault`]).
    pub fn merge(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::DeadPixel => self.dead = true,
            FaultKind::StuckCount { count } => {
                // The larger frozen value dominates — it is the one the
                // health monitor must catch as out-of-family.
                self.stuck_count = Some(self.stuck_count.map_or(count, |c| c.max(count)));
            }
            FaultKind::LeakyElectrode { leakage } => self.leakage += leakage,
            FaultKind::ComparatorDrift { offset } => {
                self.comparator_drift += offset;
            }
            FaultKind::ComparatorStuck { .. } => {
                // Either polarity freezes the converter; the count signature
                // (0 in both cases here) is what calibration observes.
                self.dead = true;
            }
            FaultKind::DacSaturation { limit } => {
                let limit = limit.max(1.0);
                self.dac_limit = Some(self.dac_limit.map_or(limit, |l| l.min(limit)));
            }
            FaultKind::GainClipping { limit } => {
                let limit = limit.abs();
                self.clip_limit = Some(self.clip_limit.map_or(limit, |l| l.min(limit)));
            }
            FaultKind::ChannelLoss { .. } | FaultKind::SerialBitErrors { .. } => {
                // Link-level faults live on the serial interface, not in
                // the pixel; merging one here is a no-op by design.
            }
        }
    }

    /// Clamps a gain-correction factor to the surviving DAC range.
    pub fn clamp_correction(&self, k: f64) -> f64 {
        match self.dac_limit {
            Some(limit) => k.clamp(1.0 / limit, limit),
            None => k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_not_faulty() {
        assert!(!PixelFaults::default().is_faulty());
    }

    #[test]
    fn leakages_add() {
        let mut f = PixelFaults::default();
        f.merge(FaultKind::LeakyElectrode {
            leakage: Ampere::from_pico(10.0),
        });
        f.merge(FaultKind::LeakyElectrode {
            leakage: Ampere::from_pico(5.0),
        });
        assert!((f.leakage.as_pico() - 15.0).abs() < 1e-9);
        assert!(f.is_faulty());
    }

    #[test]
    fn tighter_dac_limit_wins() {
        let mut f = PixelFaults::default();
        f.merge(FaultKind::DacSaturation { limit: 1.2 });
        f.merge(FaultKind::DacSaturation { limit: 1.1 });
        assert_eq!(f.dac_limit, Some(1.1));
        assert!((f.clamp_correction(2.0) - 1.1).abs() < 1e-12);
        assert!((f.clamp_correction(0.5) - 1.0 / 1.1).abs() < 1e-12);
    }

    #[test]
    fn comparator_stuck_reads_as_dead() {
        let mut f = PixelFaults::default();
        f.merge(FaultKind::ComparatorStuck { high: true });
        assert!(f.dead);
    }

    #[test]
    fn channel_loss_is_inert_on_a_pixel() {
        let mut f = PixelFaults::default();
        f.merge(FaultKind::ChannelLoss { channel: 0 });
        f.merge(FaultKind::SerialBitErrors { rate: 0.5 });
        assert!(!f.is_faulty());
    }

    #[test]
    fn class_names_are_stable() {
        for class in FaultClass::ALL {
            assert!(!class.name().is_empty());
        }
        assert_eq!(FaultKind::DeadPixel.class(), FaultClass::DeadPixel);
        assert!(!FaultKind::SerialBitErrors { rate: 0.1 }.is_pixel_fault());
        assert!(FaultKind::GainClipping {
            limit: Volt::new(1.0)
        }
        .is_pixel_fault());
    }
}
