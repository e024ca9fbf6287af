//! Fault-injection recovery scenarios: seeded, replayable end-to-end
//! drills shared by the integration tests and the `exp_control`
//! experiment binary.
//!
//! Each scenario attaches a chip through a live station, captures a
//! pre-fault baseline, injects an [`InjectionPlan`], and lets the
//! [`Controller`] recover. The scenario seed fixes the chip RNG, the
//! fault placement, and the policy's reattach seeds, so two runs of the
//! same scenario produce bit-identical [`RecoveryTrace`]s.

use crate::classifier::StateClassifier;
use crate::controller::{ChipTarget, Controller};
use crate::error::ControlError;
use crate::policy::{PolicyConfig, PolicyEngine};
use crate::trace::RecoveryTrace;
use bsa_faults::{FaultKind, InjectionPlan};
use bsa_link::{CultureSpec, DnaChipSpec, NeuroChipSpec};
use bsa_station::{plan_to_spec, ClientConfig, StationClient};
use bsa_units::Volt;
use std::net::SocketAddr;
use std::time::Duration;

/// Outcome of one scenario run, with its replayable trace.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Whether yield crossed the recovery target in budget.
    pub recovered: bool,
    /// Observation ticks used.
    pub ticks: u32,
    /// Baseline (pre-fault) yield in permille.
    pub pre_yield_permille: u32,
    /// Yield at exit in permille.
    pub final_yield_permille: u32,
    /// The full decision log.
    pub trace: RecoveryTrace,
}

/// Observation budget per scenario: `TICKS * FRAMES_PER_TICK` stays
/// within the issue's 32-frame recovery window.
const MAX_TICKS: u32 = 4;
const FRAMES_PER_TICK: u32 = 8;

fn neuro_target(seed: u64) -> ChipTarget {
    ChipTarget::Neuro {
        spec: NeuroChipSpec {
            rows: 32,
            cols: 32,
            channels: 8,
            seed,
            frame_rate_hz: 2_000.0,
        },
        culture: CultureSpec {
            seed: 77,
            neuron_count: 24,
            spike_duration_s: 0.1,
        },
        frames_per_tick: FRAMES_PER_TICK,
    }
}

fn dna_target(seed: u64) -> ChipTarget {
    // Deterministic probe layout: every spot gets a short synthetic
    // sequence; no analytes, so counts are pure baseline activity.
    let probes: Vec<String> = (0..128)
        .map(|i| match i % 4 {
            0 => "ACGTACGT".to_string(),
            1 => "TTGGCCAA".to_string(),
            2 => "GATTACAG".to_string(),
            _ => "CCGGTTAA".to_string(),
        })
        .collect();
    ChipTarget::Dna {
        spec: DnaChipSpec {
            rows: 8,
            cols: 16,
            seed,
            frame_time_s: 0.0,
        },
        probes,
        targets: Vec::new(),
    }
}

fn connect(addr: SocketAddr, identity: &str) -> Result<StationClient, ControlError> {
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        io_timeout: Some(Duration::from_secs(30)),
    };
    Ok(StationClient::connect_with(addr, identity, &config)?)
}

fn run_scenario(
    name: &str,
    client: StationClient,
    target: ChipTarget,
    seed: u64,
    plan: &InjectionPlan,
) -> Result<ScenarioReport, ControlError> {
    let classifier = StateClassifier::default();
    // Headroom over the default mask budget: at 15% dead density the
    // candidate set (true dead + quiet live pixels) can top 256 on a
    // 32x32 array, and masking is the path these scenarios exercise.
    let policy = PolicyEngine::new(
        seed,
        PolicyConfig {
            mask_budget: 320,
            max_recalibrations: 2,
        },
    );
    let mut controller = Controller::start(client, target, classifier, policy, name)?;
    let pre_yield = crate::trace::permille(controller.baseline_yield());
    let chip = controller.chip();
    let spec = plan_to_spec(plan);
    controller.client_mut().inject_faults(chip, spec)?;
    let outcome = controller.run(MAX_TICKS)?;
    Ok(ScenarioReport {
        name: name.to_string(),
        recovered: outcome.recovered,
        ticks: outcome.ticks_used,
        pre_yield_permille: pre_yield,
        final_yield_permille: outcome.final_yield_permille,
        trace: controller.into_trace(),
    })
}

/// Scenario: scattered dead pixels on a neuro chip, recovered by
/// masking + neighbor interpolation.
///
/// # Errors
///
/// Connection or control-loop failures.
pub fn dead_pixels(addr: SocketAddr, seed: u64) -> Result<ScenarioReport, ControlError> {
    let client = connect(addr, "control/dead-pixels")?;
    let plan = InjectionPlan::new(seed).array_wide(0.15, FaultKind::DeadPixel);
    run_scenario("dead-pixels", client, neuro_target(seed), seed, &plan)
}

/// Scenario: two lost readout channels on a neuro chip, recovered by
/// detaching and attaching a replacement part.
///
/// # Errors
///
/// Connection or control-loop failures.
pub fn channel_loss(addr: SocketAddr, seed: u64) -> Result<ScenarioReport, ControlError> {
    let client = connect(addr, "control/channel-loss")?;
    let plan = InjectionPlan::new(seed).lose_channel(2).lose_channel(5);
    run_scenario("channel-loss", client, neuro_target(seed), seed, &plan)
}

/// Scenario: comparator drift across a DNA array, recovered by
/// auto-recalibration.
///
/// # Errors
///
/// Connection or control-loop failures.
pub fn baseline_drift(addr: SocketAddr, seed: u64) -> Result<ScenarioReport, ControlError> {
    let client = connect(addr, "control/baseline-drift")?;
    let plan = InjectionPlan::new(seed).array_wide(
        0.15,
        FaultKind::ComparatorDrift {
            offset: Volt::from_milli(400.0),
        },
    );
    run_scenario("baseline-drift", client, dna_target(seed), seed, &plan)
}
