//! The closed control loop: observe → classify → decide → act, with
//! deadline-bounded, retried station calls.
//!
//! The [`StationClient`] is the loop's only I/O edge: socket deadlines
//! and backoff pauses happen there, and everything in front of it
//! (classifier, policy, trace) is pure.

use crate::backoff::Backoff;
use crate::classifier::{ChipAssessment, ChipCondition, StateClassifier};
use crate::error::ControlError;
use crate::policy::{Action, PolicyEngine};
use crate::trace::{permille, RecoveryTrace, TraceEvent};
use bsa_link::{ChipId, CultureSpec, DnaChipSpec, NeuroChipSpec, TargetSpec};
use bsa_station::{ClientError, StationClient};
use bsa_units::Seconds;
use std::collections::BTreeSet;
use std::thread;
use std::time::Duration;

/// Attempts per station request, the first try included; timeouts
/// between them wait out [`Backoff::default`].
const MAX_ATTEMPTS: u32 = 3;

/// The recovery target, as a fraction of the pre-fault baseline yield.
const RECOVERY_FRACTION: f64 = 0.9;

/// Start time of every observation window. The chip model re-seeds per
/// recording, so a fixed start replays the same window bit-exactly and
/// recovery is measured against a stable reference.
const T0: Seconds = Seconds::new(0.0);

/// What the controller supervises.
#[derive(Debug, Clone)]
pub enum ChipTarget {
    /// A neural-recording chip observed through streamed frames.
    Neuro {
        /// Attachment parameters.
        spec: NeuroChipSpec,
        /// Culture driving the recorded activity.
        culture: CultureSpec,
        /// Frames streamed per observation tick.
        frames_per_tick: u32,
    },
    /// A DNA microarray observed through assay counts.
    Dna {
        /// Attachment parameters.
        spec: DnaChipSpec,
        /// Probe sequences spotted at configure time.
        probes: Vec<String>,
        /// Sample mix applied at configure time.
        targets: Vec<TargetSpec>,
    },
}

/// Result of a [`Controller::run`] loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether yield crossed the recovery target within the budget.
    pub recovered: bool,
    /// Ticks consumed (observation windows).
    pub ticks_used: u32,
    /// Effective yield at exit, in permille.
    pub final_yield_permille: u32,
}

/// Drives one chip through observe/classify/decide/act cycles.
#[derive(Debug)]
pub struct Controller {
    client: StationClient,
    target: ChipTarget,
    chip: ChipId,
    rows: u16,
    cols: u16,
    classifier: StateClassifier,
    policy: PolicyEngine,
    masked: BTreeSet<u32>,
    trace: RecoveryTrace,
    baseline_yield: f64,
}

impl Controller {
    /// Attaches the target chip, calibrates it, and captures the
    /// pre-fault baseline the recovery target is measured against.
    ///
    /// # Errors
    ///
    /// Propagates station failures (after retries for timeouts).
    pub fn start(
        client: StationClient,
        target: ChipTarget,
        classifier: StateClassifier,
        policy: PolicyEngine,
        scenario: impl Into<String>,
    ) -> Result<Self, ControlError> {
        let mut controller = Self {
            client,
            target,
            chip: 0,
            rows: 0,
            cols: 0,
            classifier,
            policy,
            masked: BTreeSet::new(),
            trace: RecoveryTrace::new(scenario),
            baseline_yield: 1.0,
        };
        controller.attach_and_baseline()?;
        Ok(controller)
    }

    /// The current chip handle (changes after a reattach).
    #[must_use]
    pub fn chip(&self) -> ChipId {
        self.chip
    }

    /// Baseline yield captured at start, `0..=1`.
    #[must_use]
    pub fn baseline_yield(&self) -> f64 {
        self.baseline_yield
    }

    /// The decision log so far.
    #[must_use]
    pub fn trace(&self) -> &RecoveryTrace {
        &self.trace
    }

    /// Consumes the controller, returning its trace.
    #[must_use]
    pub fn into_trace(self) -> RecoveryTrace {
        self.trace
    }

    /// The station client, e.g. to inject scenario faults between
    /// baseline capture and the recovery run.
    pub fn client_mut(&mut self) -> &mut StationClient {
        &mut self.client
    }

    /// Runs the loop for at most `max_ticks` observation windows.
    /// Returns early once effective yield is back above 90% of the
    /// baseline yield.
    ///
    /// # Errors
    ///
    /// Propagates station failures (after retries for timeouts).
    pub fn run(&mut self, max_ticks: u32) -> Result<RunOutcome, ControlError> {
        let mut last_permille = 0;
        for tick in 0..max_ticks {
            let assessment = self.observe(tick)?;
            let yield_permille = permille(assessment.effective_yield);
            last_permille = yield_permille;
            self.trace.push(TraceEvent::Observed {
                tick,
                condition: condition_label(assessment.condition).to_string(),
                yield_permille,
            });
            let healthy_enough =
                assessment.effective_yield >= RECOVERY_FRACTION * self.baseline_yield;
            if healthy_enough {
                self.trace.push(TraceEvent::Recovered {
                    tick,
                    yield_permille,
                });
                return Ok(RunOutcome {
                    recovered: true,
                    ticks_used: tick + 1,
                    final_yield_permille: yield_permille,
                });
            }
            match self.policy.decide(&assessment) {
                None => {}
                Some(action) => {
                    self.trace.push(TraceEvent::Decided {
                        tick,
                        action: action.label(),
                    });
                    let label = action.label();
                    let outcome = self.execute(tick, action);
                    self.trace.push(TraceEvent::Executed {
                        tick,
                        action: label,
                        ok: outcome.is_ok(),
                    });
                    outcome?;
                }
            }
        }
        Ok(RunOutcome {
            recovered: false,
            ticks_used: max_ticks,
            final_yield_permille: last_permille,
        })
    }

    fn attach_and_baseline(&mut self) -> Result<(), ControlError> {
        match self.target.clone() {
            ChipTarget::Neuro {
                spec,
                culture,
                frames_per_tick,
            } => {
                let attached = self.with_retry(0, |client| client.attach_neuro(&spec))?;
                self.chip = attached.chip;
                self.rows = attached.rows;
                self.cols = attached.cols;
                self.with_retry(0, |client| client.calibrate(attached.chip))?;
                let chip = self.chip;
                let stream = self.with_retry(0, |client| {
                    client.stream_neuro(chip, frames_per_tick, 0, T0, &culture)
                })?;
                let summary = self.with_retry(0, |client| client.health(chip))?;
                let assessment = self.classifier.observe_neuro(
                    &summary,
                    self.rows,
                    self.cols,
                    &stream.frames,
                    &self.masked,
                );
                self.baseline_yield = assessment.effective_yield.max(f64::MIN_POSITIVE);
            }
            ChipTarget::Dna {
                spec,
                probes,
                targets,
            } => {
                let attached = self.with_retry(0, |client| client.attach_dna(&spec))?;
                self.chip = attached.chip;
                self.rows = attached.rows;
                self.cols = attached.cols;
                let chip = self.chip;
                self.with_retry(0, |client| {
                    client.configure_assay(chip, probes.clone(), targets.clone())
                })?;
                self.with_retry(0, |client| client.calibrate(chip))?;
                let outcome = self.with_retry(0, |client| client.run_assay(chip, false))?;
                self.classifier
                    .set_dna_baseline(outcome.estimated_currents_a);
                self.baseline_yield = 1.0;
            }
        }
        Ok(())
    }

    fn observe(&mut self, tick: u32) -> Result<ChipAssessment, ControlError> {
        let chip = self.chip;
        match self.target.clone() {
            ChipTarget::Neuro {
                culture,
                frames_per_tick,
                ..
            } => {
                let stream = self.with_retry(tick, |client| {
                    client.stream_neuro(chip, frames_per_tick, 0, T0, &culture)
                })?;
                let summary = self.with_retry(tick, |client| client.health(chip))?;
                Ok(self.classifier.observe_neuro(
                    &summary,
                    self.rows,
                    self.cols,
                    &stream.frames,
                    &self.masked,
                ))
            }
            ChipTarget::Dna { .. } => {
                let outcome = self.with_retry(tick, |client| client.run_assay(chip, false))?;
                let summary = self.with_retry(tick, |client| client.health(chip))?;
                Ok(self
                    .classifier
                    .observe_dna(&summary, &outcome.estimated_currents_a))
            }
        }
    }

    fn execute(&mut self, tick: u32, action: Action) -> Result<(), ControlError> {
        let chip = self.chip;
        match action {
            Action::Recalibrate => {
                self.with_retry(tick, |client| client.calibrate(chip))?;
            }
            Action::MaskPixels(pixels) => {
                self.with_retry(tick, |client| client.mask_pixels(chip, &pixels))?;
                self.masked.extend(pixels.iter().copied());
            }
            Action::ReRunAssay => {
                self.with_retry(tick, |client| client.run_assay(chip, false))?;
            }
            Action::Reattach { seed } => {
                self.with_retry(tick, |client| client.detach(chip))?;
                self.masked.clear();
                self.policy.reset_escalation();
                self.reseed_target(seed);
                self.attach_and_baseline()?;
            }
        }
        Ok(())
    }

    /// Gives the replacement chip its own RNG stream while keeping
    /// geometry and assay configuration.
    fn reseed_target(&mut self, seed: u64) {
        match &mut self.target {
            ChipTarget::Neuro { spec, .. } => spec.seed = seed,
            ChipTarget::Dna { spec, .. } => spec.seed = seed,
        }
    }

    /// Runs a station call, retrying timeouts with deterministic
    /// backoff. Non-timeout failures surface immediately.
    fn with_retry<T>(
        &mut self,
        tick: u32,
        mut call: impl FnMut(&mut StationClient) -> Result<T, ClientError>,
    ) -> Result<T, ControlError> {
        for attempt in 0..MAX_ATTEMPTS {
            match call(&mut self.client) {
                Ok(value) => return Ok(value),
                Err(ClientError::Timeout) => {
                    if attempt + 1 < MAX_ATTEMPTS {
                        let delay_ms = Backoff::default().delay_ms(attempt);
                        self.trace.push(TraceEvent::Retried {
                            tick,
                            attempt,
                            delay_ms,
                        });
                        thread::sleep(Duration::from_millis(delay_ms));
                    }
                }
                Err(other) => return Err(ControlError::Client(other)),
            }
        }
        Err(ControlError::Exhausted {
            attempts: MAX_ATTEMPTS,
        })
    }
}

/// Stable label for a chip condition in traces.
#[must_use]
pub fn condition_label(condition: ChipCondition) -> &'static str {
    match condition {
        ChipCondition::Healthy => "healthy",
        ChipCondition::ChannelLoss => "channel_loss",
        ChipCondition::DeadPixels => "dead_pixels",
        ChipCondition::BaselineDrift => "baseline_drift",
        ChipCondition::Clipping => "clipping",
        ChipCondition::HybridizationDetected => "hybridization_detected",
        ChipCondition::Unobserved => "unobserved",
    }
}
