//! Pixel-health tracking and yield reporting for both chip pipelines.
//!
//! Production sensor arrays are never defect-free; what makes them usable
//! is knowing *which* pixels to distrust. This module holds the shared
//! bookkeeping: calibration (DNA) and the pixel self-test (neuro) classify
//! every pixel into a [`PixelHealth`] state collected in a
//! [`HealthMonitor`]; a [`YieldReport`] then summarizes the die — counts
//! per health state, faults found per class, serial-link statistics and
//! the resulting [`DegradationMode`] the application should assume.

use crate::array::{ArrayGeometry, PixelAddress};
use crate::error::ChipError;
use bsa_faults::FaultClass;
use std::collections::BTreeMap;
use std::fmt;

/// Health classification of one pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PixelHealth {
    /// Calibrated within family limits; fully trusted.
    #[default]
    Healthy,
    /// Responds, but needed an out-of-family correction (e.g. only after
    /// calibration escalated its reference current or integration window).
    /// Usable, flagged for monitoring.
    OutOfFamily,
    /// No usable response; must be masked from interpretation.
    Dead,
}

impl PixelHealth {
    /// `true` if the pixel's readings may be used (healthy or flagged).
    pub fn is_usable(&self) -> bool {
        !matches!(self, Self::Dead)
    }
}

impl fmt::Display for PixelHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Healthy => "healthy",
            Self::OutOfFamily => "out-of-family",
            Self::Dead => "dead",
        })
    }
}

/// Per-pixel health states for one die, produced by calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthMonitor {
    geometry: ArrayGeometry,
    states: Vec<PixelHealth>,
}

impl HealthMonitor {
    /// A monitor with every pixel healthy.
    pub fn all_healthy(geometry: ArrayGeometry) -> Self {
        Self {
            states: vec![PixelHealth::Healthy; geometry.len()],
            geometry,
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// Health of the pixel at a row-major index, or `None` outside the
    /// array.
    pub fn state(&self, index: usize) -> Option<PixelHealth> {
        self.states.get(index).copied()
    }

    /// Health of the pixel at an address.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::AddressOutOfRange`] for bad addresses.
    pub fn state_at(&self, addr: PixelAddress) -> Result<PixelHealth, ChipError> {
        self.geometry.entry(&self.states, addr).copied()
    }

    /// Reclassifies one pixel (row-major index); an index outside the
    /// array changes nothing.
    pub fn set_state(&mut self, index: usize, health: PixelHealth) {
        if let Some(state) = self.states.get_mut(index) {
            *state = health;
        }
    }

    /// All per-pixel states in row-major order.
    pub fn states(&self) -> &[PixelHealth] {
        &self.states
    }

    /// Usability mask in row-major order (`true` = reading may be used).
    pub fn usable_mask(&self) -> Vec<bool> {
        self.states.iter().map(PixelHealth::is_usable).collect()
    }

    /// Row-major indices of dead pixels.
    pub fn dead_indices(&self) -> Vec<usize> {
        self.indices_of(PixelHealth::Dead)
    }

    /// Row-major indices of out-of-family pixels.
    pub fn out_of_family_indices(&self) -> Vec<usize> {
        self.indices_of(PixelHealth::OutOfFamily)
    }

    fn indices_of(&self, wanted: PixelHealth) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == wanted)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of pixels in the given state.
    pub fn count(&self, health: PixelHealth) -> usize {
        self.states.iter().filter(|s| **s == health).count()
    }

    /// Fraction of usable pixels.
    pub fn usable_fraction(&self) -> f64 {
        if self.states.is_empty() {
            return 1.0;
        }
        self.states.iter().filter(|s| s.is_usable()).count() as f64 / self.states.len() as f64
    }
}

/// How degraded the die is, as the application should treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationMode {
    /// Every pixel healthy, every channel up, serial link clean.
    FullPerformance,
    /// Some pixels or channels lost, but masking/interpolation/redundancy
    /// keep the application-level result trustworthy.
    Degraded,
    /// Too much of the array is gone for the result to be trusted.
    Unusable,
}

impl fmt::Display for DegradationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::FullPerformance => "full performance",
            Self::Degraded => "degraded",
            Self::Unusable => "unusable",
        })
    }
}

/// Serial-link statistics gathered during a fault-tolerant readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SerialLinkStats {
    /// Words that decoded cleanly on the first pass.
    pub clean_words: usize,
    /// Words recovered by re-reading.
    pub recovered_words: usize,
    /// Words still corrupt after the re-read budget.
    pub unrecovered_words: usize,
    /// Re-read passes performed.
    pub rereads: usize,
}

/// One die's fault/yield summary.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// Total pixels on the die.
    pub total_pixels: usize,
    /// Pixels fully healthy.
    pub healthy: usize,
    /// Pixels flagged out-of-family (usable, monitored).
    pub out_of_family: usize,
    /// Pixels masked dead.
    pub dead: usize,
    /// Readout channels lost (neuro multiplexer).
    pub lost_channels: Vec<usize>,
    /// Total readout channels.
    pub total_channels: usize,
    /// Injections per fault class known to have been applied (from the
    /// compiled plan; empty for an un-instrumented die).
    pub injected: BTreeMap<FaultClass, usize>,
    /// Serial-link statistics from the last fault-tolerant readout.
    pub serial: SerialLinkStats,
    /// The resulting degradation classification.
    pub degradation: DegradationMode,
}

/// Above this fraction of unusable pixels the die is declared unusable —
/// redundancy-based calling needs a solid majority of replicates.
const UNUSABLE_DEAD_FRACTION: f64 = 0.5;

impl YieldReport {
    /// Builds a report from the monitor plus channel/serial state.
    pub fn new(
        monitor: &HealthMonitor,
        lost_channels: Vec<usize>,
        total_channels: usize,
        injected: BTreeMap<FaultClass, usize>,
        serial: SerialLinkStats,
    ) -> Self {
        let total_pixels = monitor.states().len();
        let healthy = monitor.count(PixelHealth::Healthy);
        let out_of_family = monitor.count(PixelHealth::OutOfFamily);
        let dead = monitor.count(PixelHealth::Dead);

        let dead_fraction = if total_pixels == 0 {
            0.0
        } else {
            dead as f64 / total_pixels as f64
        };
        let channels_gone = total_channels > 0 && lost_channels.len() * 2 >= total_channels;
        let degradation = if dead_fraction > UNUSABLE_DEAD_FRACTION
            || channels_gone
            || serial.unrecovered_words > total_pixels / 2
        {
            DegradationMode::Unusable
        } else if dead > 0
            || out_of_family > 0
            || !lost_channels.is_empty()
            || serial.recovered_words > 0
            || serial.unrecovered_words > 0
        {
            DegradationMode::Degraded
        } else {
            DegradationMode::FullPerformance
        };

        Self {
            total_pixels,
            healthy,
            out_of_family,
            dead,
            lost_channels,
            total_channels,
            injected,
            serial,
            degradation,
        }
    }

    /// Fraction of pixels that may be used.
    pub fn usable_fraction(&self) -> f64 {
        if self.total_pixels == 0 {
            return 1.0;
        }
        (self.healthy + self.out_of_family) as f64 / self.total_pixels as f64
    }

    /// `true` if every pixel, channel and serial word is clean.
    pub fn is_clean(&self) -> bool {
        self.degradation == DegradationMode::FullPerformance
    }
}

impl fmt::Display for YieldReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "yield: {}/{} usable ({:.1} %) — {} healthy, {} out-of-family, {} dead; mode: {}",
            self.healthy + self.out_of_family,
            self.total_pixels,
            100.0 * self.usable_fraction(),
            self.healthy,
            self.out_of_family,
            self.dead,
            self.degradation,
        )?;
        if !self.lost_channels.is_empty() {
            writeln!(
                f,
                "channels lost: {:?} of {}",
                self.lost_channels, self.total_channels
            )?;
        }
        if self.serial != SerialLinkStats::default() {
            writeln!(
                f,
                "serial: {} clean, {} recovered, {} unrecovered words ({} re-reads)",
                self.serial.clean_words,
                self.serial.recovered_words,
                self.serial.unrecovered_words,
                self.serial.rereads,
            )?;
        }
        for (class, n) in &self.injected {
            writeln!(f, "injected {class}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> ArrayGeometry {
        ArrayGeometry::dna_16x8()
    }

    #[test]
    fn fresh_monitor_is_fully_healthy() {
        let m = HealthMonitor::all_healthy(geometry());
        assert_eq!(m.usable_fraction(), 1.0);
        assert!(m.dead_indices().is_empty());
        assert_eq!(m.count(PixelHealth::Healthy), 128);
        assert!(m.state_at(PixelAddress::new(0, 0)).unwrap().is_usable());
    }

    #[test]
    fn clean_die_reports_full_performance() {
        let m = HealthMonitor::all_healthy(geometry());
        let r = YieldReport::new(
            &m,
            Vec::new(),
            16,
            BTreeMap::new(),
            SerialLinkStats::default(),
        );
        assert_eq!(r.degradation, DegradationMode::FullPerformance);
        assert!(r.is_clean());
        assert_eq!(r.usable_fraction(), 1.0);
    }

    #[test]
    fn dead_pixels_degrade_but_stay_usable() {
        let mut m = HealthMonitor::all_healthy(geometry());
        for i in 0..10 {
            m.set_state(i, PixelHealth::Dead);
        }
        m.set_state(20, PixelHealth::OutOfFamily);
        let r = YieldReport::new(
            &m,
            Vec::new(),
            16,
            BTreeMap::new(),
            SerialLinkStats::default(),
        );
        assert_eq!(r.degradation, DegradationMode::Degraded);
        assert_eq!(r.dead, 10);
        assert_eq!(r.out_of_family, 1);
        assert!((r.usable_fraction() - 118.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn mostly_dead_die_is_unusable() {
        let mut m = HealthMonitor::all_healthy(geometry());
        for i in 0..80 {
            m.set_state(i, PixelHealth::Dead);
        }
        let r = YieldReport::new(
            &m,
            Vec::new(),
            16,
            BTreeMap::new(),
            SerialLinkStats::default(),
        );
        assert_eq!(r.degradation, DegradationMode::Unusable);
    }

    #[test]
    fn losing_half_the_channels_is_unusable() {
        let m = HealthMonitor::all_healthy(geometry());
        let r = YieldReport::new(
            &m,
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            16,
            BTreeMap::new(),
            SerialLinkStats::default(),
        );
        assert_eq!(r.degradation, DegradationMode::Unusable);
    }

    #[test]
    fn serial_recoveries_count_as_degraded() {
        let m = HealthMonitor::all_healthy(geometry());
        let serial = SerialLinkStats {
            clean_words: 120,
            recovered_words: 8,
            unrecovered_words: 0,
            rereads: 2,
        };
        let r = YieldReport::new(&m, Vec::new(), 16, BTreeMap::new(), serial);
        assert_eq!(r.degradation, DegradationMode::Degraded);
    }

    #[test]
    fn display_summarizes_the_die() {
        let mut m = HealthMonitor::all_healthy(geometry());
        m.set_state(0, PixelHealth::Dead);
        let mut injected = BTreeMap::new();
        injected.insert(FaultClass::DeadPixel, 1);
        let r = YieldReport::new(&m, vec![3], 16, injected, SerialLinkStats::default());
        let text = r.to_string();
        assert!(text.contains("dead"), "{text}");
        assert!(text.contains("channels lost"), "{text}");
        assert!(text.contains("dead pixel: 1"), "{text}");
    }

    #[test]
    fn health_display_names() {
        assert_eq!(PixelHealth::Healthy.to_string(), "healthy");
        assert_eq!(PixelHealth::OutOfFamily.to_string(), "out-of-family");
        assert_eq!(PixelHealth::Dead.to_string(), "dead");
        assert_eq!(DegradationMode::Degraded.to_string(), "degraded");
    }
}
