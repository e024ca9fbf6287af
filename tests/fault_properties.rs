#![allow(clippy::unwrap_used, clippy::panic)] // tests unwrap and panic idiomatically
//! Property tests over the fault-injection subsystem: injection
//! never panics, degraded readouts stay well-formed, and the error types
//! behave like proper `std::error::Error`s.

use cmos_biosensor_arrays::chips::array::ArrayGeometry;
use cmos_biosensor_arrays::chips::dna_chip::{DnaChip, DnaChipConfig, SerialError};
use cmos_biosensor_arrays::chips::neuro_chip::{NeuroChip, NeuroChipConfig};
use cmos_biosensor_arrays::chips::{ChipError, DegradationMode};
use cmos_biosensor_arrays::circuit::CircuitError;
use cmos_biosensor_arrays::faults::{FaultClass, FaultKind, InjectionPlan};
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::{Ampere, Meter, Seconds, Volt};
use std::error::Error;

/// Seeded random cases per property; a failure names its case, whose seed
/// is its index.
const CASES: u64 = 24;

fn arb_fault_kind(rng: &mut SmallRng) -> FaultKind {
    match rng.gen_range(0..9) {
        0 => FaultKind::DeadPixel,
        1 => FaultKind::StuckCount {
            count: rng.gen_range(0..1 << 24) as u64,
        },
        2 => FaultKind::LeakyElectrode {
            leakage: Ampere::from_pico(1000.0 * rng.next_f64()),
        },
        3 => FaultKind::ComparatorDrift {
            offset: Volt::from_milli(2000.0 * rng.next_f64() - 1000.0),
        },
        4 => FaultKind::ComparatorStuck {
            high: rng.gen_bool(0.5),
        },
        5 => FaultKind::DacSaturation {
            limit: 1.0 + 2.0 * rng.next_f64(),
        },
        6 => FaultKind::GainClipping {
            limit: Volt::from_milli(5000.0 * rng.next_f64()),
        },
        7 => FaultKind::ChannelLoss {
            channel: rng.gen_range(0..40),
        },
        _ => FaultKind::SerialBitErrors {
            rate: rng.next_f64(),
        },
    }
}

/// Arbitrary fault kinds at arbitrary — including out-of-range —
/// addresses compile, inject, calibrate and measure without a panic.
#[test]
fn injection_at_arbitrary_addresses_never_panics() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut plan = InjectionPlan::new(rng.gen_range(0..1000) as u64);
        for _ in 0..rng.gen_range(0..12) {
            let (row, col) = (rng.gen_range(0..64), rng.gen_range(0..64));
            plan = plan.at(row, col, arb_fault_kind(&mut rng));
        }
        let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
        let compiled = plan.compile(chip.geometry().rows(), chip.geometry().cols());
        chip.inject_faults(&compiled)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        chip.auto_calibrate();
        let currents = vec![Ampere::from_nano(1.0); chip.geometry().len()];
        let counts = chip
            .measure_currents(&currents)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let estimates = chip
            .estimate_currents(&counts)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert!(
            estimates.iter().all(|a| a.value().is_finite()),
            "case {case}"
        );
        let report = chip.yield_report();
        assert_eq!(
            report.healthy + report.out_of_family + report.dead,
            report.total_pixels,
            "case {case}"
        );
    }
}

/// A die with every pixel faulty still produces a well-formed yield
/// report — and declares itself unusable rather than lying.
#[test]
fn all_faulty_array_reports_well_formed_yield() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0..1000) as u64;
        let extra = arb_fault_kind(&mut rng);
        let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
        let compiled = InjectionPlan::new(seed)
            .array_wide(1.0, FaultKind::DeadPixel)
            .array_wide(0.5, extra)
            .compile(chip.geometry().rows(), chip.geometry().cols());
        chip.inject_faults(&compiled)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        chip.auto_calibrate();
        let report = chip.yield_report();
        assert_eq!(report.dead, report.total_pixels, "case {case}");
        assert_eq!(report.degradation, DegradationMode::Unusable, "case {case}");
        assert!(report.usable_fraction() == 0.0, "case {case}");
        assert!(!report.is_clean(), "case {case}");
        assert!(
            report.injected.contains_key(&FaultClass::DeadPixel),
            "case {case}"
        );
        // The masked readout itself still yields finite numbers.
        let currents = vec![Ampere::from_nano(1.0); chip.geometry().len()];
        let counts = chip
            .measure_currents(&currents)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(counts.len(), chip.geometry().len(), "case {case}");
        // Display renders without panicking.
        assert!(!format!("{report}").is_empty(), "case {case}");
    }
}

/// Neuro die: arbitrary channel losses always land masked, never
/// panic, and the report accounting stays consistent.
#[test]
fn neuro_channel_loss_keeps_reports_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let channel = rng.gen_range(0..8);
        let seed = rng.gen_range(0..100) as u64;
        let mut chip = NeuroChip::new(NeuroChipConfig {
            geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
            channels: 4,
            ..NeuroChipConfig::default()
        })
        .unwrap();
        let compiled = InjectionPlan::new(seed)
            .lose_channel(channel)
            .compile(16, 16);
        chip.inject_faults(&compiled)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        chip.calibrate(Seconds::ZERO);
        let report = chip.yield_report();
        assert_eq!(
            report.healthy + report.out_of_family + report.dead,
            report.total_pixels,
            "case {case}"
        );
        if channel < 4 {
            assert!(
                report.dead >= 16 * 4,
                "case {case}: lost channel masks its columns"
            );
            assert_eq!(report.lost_channels, vec![channel], "case {case}");
        } else {
            // Out-of-range channels are recorded but hit no pixel.
            assert_eq!(report.dead, 0, "case {case}");
        }
    }
}

/// Every error variant renders a non-empty `Display` and honors the
/// `source()` chain contract.
#[test]
fn chip_error_display_and_source_round_trip() {
    let serial = SerialError::BadChecksum { word_index: 3 };
    let variants: Vec<(ChipError, bool)> = vec![
        (
            ChipError::InvalidConfig {
                reason: "negative frame time".into(),
            },
            false,
        ),
        (
            ChipError::AddressOutOfRange {
                row: 9,
                col: 20,
                rows: 8,
                cols: 16,
            },
            false,
        ),
        (
            ChipError::LengthMismatch {
                expected: 128,
                got: 5,
            },
            false,
        ),
        (
            ChipError::SerialDecode {
                reason: "bad sync".into(),
            },
            false,
        ),
        (
            ChipError::SerialUnrecoverable {
                failed_words: 2,
                rereads: 8,
                last: serial.clone(),
            },
            true,
        ),
        (
            ChipError::FaultGeometryMismatch {
                map: (4, 4),
                chip: (8, 16),
            },
            false,
        ),
        (
            ChipError::Circuit(CircuitError::NonPositiveParameter {
                name: "channel width",
                value: -1.0,
            }),
            true,
        ),
    ];
    for (error, has_source) in &variants {
        let shown = error.to_string();
        assert!(!shown.is_empty(), "{error:?} renders empty");
        assert_eq!(
            error.source().is_some(),
            *has_source,
            "wrong source() for {error:?}"
        );
        if let Some(src) = error.source() {
            // The chained message must surface in the outer Display too,
            // so operators see the root cause without walking the chain.
            assert!(
                shown.contains(&src.to_string()),
                "{shown:?} hides its source {src}"
            );
        }
    }

    // SerialError itself is a proper Error.
    for e in [
        SerialError::BadSync { got: 0x5A },
        SerialError::BadChecksum { word_index: 7 },
        SerialError::Truncated { leftover_bits: 13 },
    ] {
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_none());
    }

    // Fault classes keep their stable reporting names.
    for class in FaultClass::ALL {
        assert_eq!(class.to_string(), class.name());
    }
}
