//! Interdigitated gold sensor-electrode geometry.
//!
//! Each sensor site of the DNA chip carries a pair of interdigitated noble
//! metal electrode combs (generator and collector) within the sensor area;
//! probe molecules are immobilized on/between the fingers and redox-active
//! species shuttle across the sub-µm finger gap (paper Section 2,
//! refs [4–6, 12, 13]).

use bsa_units::{Farad, Meter, SquareMeter};
use std::error::Error;
use std::fmt;

/// Error constructing an electrode geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidGeometryError {
    what: &'static str,
}

impl fmt::Display for InvalidGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid electrode geometry: {}", self.what)
    }
}

impl Error for InvalidGeometryError {}

/// Interdigitated electrode (IDE) pair of a single sensor site.
#[derive(Debug, Clone, PartialEq)]
pub struct InterdigitatedElectrode {
    fingers: u32,
    finger_width: Meter,
    finger_gap: Meter,
    finger_length: Meter,
}

impl InterdigitatedElectrode {
    /// The geometry used on the 16×8 chip generation: ~1 µm fingers and
    /// gaps over a ~100 µm site.
    pub fn standard_site() -> Self {
        Self {
            fingers: 50,
            finger_width: Meter::from_micro(1.0),
            finger_gap: Meter::from_micro(1.0),
            finger_length: Meter::from_micro(100.0),
        }
    }

    /// Creates a custom geometry.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometryError`] if any dimension is non-positive or
    /// fewer than two fingers are requested.
    pub fn new(
        fingers: u32,
        finger_width: Meter,
        finger_gap: Meter,
        finger_length: Meter,
    ) -> Result<Self, InvalidGeometryError> {
        if fingers < 2 {
            return Err(InvalidGeometryError {
                what: "need at least two fingers",
            });
        }
        for (v, what) in [
            (finger_width, "finger width must be positive"),
            (finger_gap, "finger gap must be positive"),
            (finger_length, "finger length must be positive"),
        ] {
            if v.value() <= 0.0 || !v.is_finite() {
                return Err(InvalidGeometryError { what });
            }
        }
        Ok(Self {
            fingers,
            finger_width,
            finger_gap,
            finger_length,
        })
    }

    /// Number of fingers (both combs together).
    pub fn fingers(&self) -> u32 {
        self.fingers
    }

    /// Finger width.
    pub fn finger_width(&self) -> Meter {
        self.finger_width
    }

    /// Gap between adjacent fingers.
    pub fn finger_gap(&self) -> Meter {
        self.finger_gap
    }

    /// Finger length.
    pub fn finger_length(&self) -> Meter {
        self.finger_length
    }

    /// Total metal area of the site (all fingers).
    pub fn metal_area(&self) -> SquareMeter {
        self.finger_width * self.finger_length * self.fingers as f64
    }

    /// Total site footprint including gaps.
    pub fn footprint(&self) -> SquareMeter {
        let pitch = self.finger_width + self.finger_gap;
        pitch * self.finger_length * self.fingers as f64
    }

    /// Mean diffusion distance for redox shuttling between the combs:
    /// half the center-to-center pitch of adjacent fingers.
    pub fn shuttle_distance(&self) -> Meter {
        (self.finger_width + self.finger_gap) * 0.5
    }

    /// Electrochemical double-layer capacitance of one comb, assuming
    /// `c_dl` per unit area (typ. 0.2 F/m² for gold in buffer).
    pub fn double_layer_capacitance(&self, c_dl_f_per_m2: f64) -> Farad {
        Farad::new(self.metal_area().value() * 0.5 * c_dl_f_per_m2)
    }

    /// Redox-cycling amplification factor relative to a single electrode of
    /// the same area: proportional to the ratio of the diffusion boundary
    /// layer (~δ) to the finger-scale shuttle distance, saturating at the
    /// collection-efficiency limit.
    ///
    /// `boundary_layer` is the bulk diffusion-layer thickness (tens of µm
    /// in unstirred solution).
    pub fn cycling_gain(&self, boundary_layer: Meter) -> f64 {
        let gain = boundary_layer.value() / self.shuttle_distance().value();
        gain.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_site_dimensions() {
        let e = InterdigitatedElectrode::standard_site();
        // 50 fingers × 2 µm pitch = 100 µm wide site.
        let fp = e.footprint();
        assert!((fp.value() - 100e-6 * 100e-6).abs() / fp.value() < 1e-9);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(InterdigitatedElectrode::new(
            1,
            Meter::from_micro(1.0),
            Meter::from_micro(1.0),
            Meter::from_micro(100.0)
        )
        .is_err());
        assert!(InterdigitatedElectrode::new(
            10,
            Meter::ZERO,
            Meter::from_micro(1.0),
            Meter::from_micro(100.0)
        )
        .is_err());
    }

    #[test]
    fn metal_area_scales_with_fingers() {
        let a = InterdigitatedElectrode::new(
            10,
            Meter::from_micro(1.0),
            Meter::from_micro(1.0),
            Meter::from_micro(100.0),
        )
        .unwrap();
        let b = InterdigitatedElectrode::new(
            20,
            Meter::from_micro(1.0),
            Meter::from_micro(1.0),
            Meter::from_micro(100.0),
        )
        .unwrap();
        assert!((b.metal_area().value() / a.metal_area().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shuttle_distance_is_half_pitch() {
        let e = InterdigitatedElectrode::standard_site();
        assert!((e.shuttle_distance().as_micro() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn finer_fingers_give_more_cycling_gain() {
        let coarse = InterdigitatedElectrode::new(
            25,
            Meter::from_micro(2.0),
            Meter::from_micro(2.0),
            Meter::from_micro(100.0),
        )
        .unwrap();
        let fine = InterdigitatedElectrode::new(
            100,
            Meter::from_micro(0.5),
            Meter::from_micro(0.5),
            Meter::from_micro(100.0),
        )
        .unwrap();
        let bl = Meter::from_micro(30.0);
        assert!(fine.cycling_gain(bl) > coarse.cycling_gain(bl));
        assert!(fine.cycling_gain(bl) >= 1.0);
    }

    #[test]
    fn cycling_gain_floors_at_unity() {
        let e = InterdigitatedElectrode::standard_site();
        assert_eq!(e.cycling_gain(Meter::from_nano(10.0)), 1.0);
    }

    #[test]
    fn double_layer_capacitance_magnitude() {
        let e = InterdigitatedElectrode::standard_site();
        let c = e.double_layer_capacitance(0.2);
        // Half of 50 × 1 µm × 100 µm = 2.5e-9 m²; × 0.2 F/m² = 500 pF.
        assert!((c.as_pico() - 500.0).abs() / c.as_pico() < 1e-6, "c = {c}");
    }
}
