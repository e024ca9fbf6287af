//! Clocked/continuous comparator with offset, hysteresis and propagation
//! delay, plus the monostable delay stage that shapes the reset pulse of
//! the in-pixel sawtooth converter (paper Fig. 3: "comparator", "delay
//! stage", τ_delay, τ₁, τ₂).

use crate::error::{require_in_range, CircuitError};
use bsa_units::{Seconds, Volt};

/// Continuous-time comparator.
///
/// The output goes high once the positive input exceeds the threshold plus
/// half the hysteresis, and low again below threshold minus half the
/// hysteresis. Transitions propagate to the output after a fixed delay,
/// which in the sawtooth converter adds a current-independent term to the
/// conversion period and compresses the transfer curve at high currents.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparator {
    threshold: Volt,
    offset: Volt,
    hysteresis: Volt,
    delay: Seconds,
    state: bool,
    /// Pending output transition: (time it becomes visible, new value).
    pending: Option<(Seconds, bool)>,
}

impl Comparator {
    /// Creates a comparator switching at `threshold`.
    ///
    /// * `offset` — input-referred offset added to the effective threshold;
    /// * `hysteresis` — total hysteresis window (may be zero);
    /// * `delay` — propagation delay from input crossing to output edge.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `hysteresis` or `delay` is negative.
    pub fn new(
        threshold: Volt,
        offset: Volt,
        hysteresis: Volt,
        delay: Seconds,
    ) -> Result<Self, CircuitError> {
        require_in_range("hysteresis", hysteresis.value(), 0.0, f64::MAX)?;
        require_in_range("delay", delay.value(), 0.0, f64::MAX)?;
        Ok(Self {
            threshold,
            offset,
            hysteresis,
            delay,
            state: false,
            pending: None,
        })
    }

    /// An ideal comparator: no offset, hysteresis or delay.
    pub fn ideal(threshold: Volt) -> Self {
        // All-zero imperfections trivially satisfy `new`'s validation, so
        // construct directly and keep this constructor infallible.
        Self {
            threshold,
            offset: Volt::ZERO,
            hysteresis: Volt::ZERO,
            delay: Seconds::ZERO,
            state: false,
            pending: None,
        }
    }

    /// The nominal switching threshold (excluding offset).
    pub fn threshold(&self) -> Volt {
        self.threshold
    }

    /// Effective rising-edge threshold including offset and hysteresis.
    pub fn rising_threshold(&self) -> Volt {
        self.threshold + self.offset + self.hysteresis * 0.5
    }

    /// Effective falling-edge threshold including offset and hysteresis.
    pub fn falling_threshold(&self) -> Volt {
        self.threshold + self.offset - self.hysteresis * 0.5
    }

    /// The propagation delay.
    pub fn delay(&self) -> Seconds {
        self.delay
    }

    /// Evaluates the comparator at absolute time `now` with input `v_in`,
    /// returning the (delayed) output and whether a rising edge became
    /// visible during this call.
    pub fn evaluate(&mut self, v_in: Volt, now: Seconds) -> ComparatorOutput {
        // Instantaneous decision.
        let decided = if self.pending.map(|(_, v)| v).unwrap_or(self.state) {
            v_in > self.falling_threshold()
        } else {
            v_in > self.rising_threshold()
        };
        let latest = self.pending.map(|(_, v)| v).unwrap_or(self.state);
        if decided != latest {
            // Schedule the transition.
            self.pending = Some((now + self.delay, decided));
        }

        // Commit a due transition.
        let mut rising_edge = false;
        if let Some((t, v)) = self.pending {
            if now >= t {
                rising_edge = v && !self.state;
                self.state = v;
                self.pending = None;
            }
        }
        ComparatorOutput {
            high: self.state,
            rising_edge,
        }
    }

    /// Resets dynamic state (output low, nothing pending).
    pub fn reset(&mut self) {
        self.state = false;
        self.pending = None;
    }
}

/// Result of a comparator evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparatorOutput {
    /// Present (delayed) logic state of the output.
    pub high: bool,
    /// `true` exactly once per low→high transition.
    pub rising_edge: bool,
}

/// Monostable delay stage: converts a trigger edge into a reset pulse of
/// fixed width, after a fixed delay (paper Fig. 3 timing: τ_delay sets when
/// the reset transistor M_res closes, τ₂−τ₁ its on-time).
#[derive(Debug, Clone, PartialEq)]
pub struct DelayStage {
    delay: Seconds,
    pulse_width: Seconds,
    /// Absolute start time of the currently scheduled pulse, if any.
    scheduled: Option<Seconds>,
}

impl DelayStage {
    /// Creates a delay stage producing `pulse_width` pulses `delay` after
    /// each trigger.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if either duration is negative or the pulse
    /// width is zero.
    pub fn new(delay: Seconds, pulse_width: Seconds) -> Result<Self, CircuitError> {
        require_in_range("delay", delay.value(), 0.0, f64::MAX)?;
        if pulse_width.value() <= 0.0 {
            return Err(CircuitError::NonPositiveParameter {
                name: "pulse width",
                value: pulse_width.value(),
            });
        }
        Ok(Self {
            delay,
            pulse_width,
            scheduled: None,
        })
    }

    /// The trigger-to-pulse delay.
    pub fn delay(&self) -> Seconds {
        self.delay
    }

    /// The pulse width.
    pub fn pulse_width(&self) -> Seconds {
        self.pulse_width
    }

    /// Registers a trigger at absolute time `now`. Retriggers are ignored
    /// while a pulse is scheduled or active (non-retriggerable monostable).
    pub fn trigger(&mut self, now: Seconds) {
        if self.scheduled.is_none() {
            self.scheduled = Some(now + self.delay);
        }
    }

    /// Is the pulse output high at absolute time `now`?
    pub fn is_active(&mut self, now: Seconds) -> bool {
        match self.scheduled {
            Some(start) => {
                if now < start {
                    false
                } else if now < start + self.pulse_width {
                    true
                } else {
                    self.scheduled = None;
                    false
                }
            }
            None => false,
        }
    }

    /// Clears any scheduled pulse.
    pub fn reset(&mut self) {
        self.scheduled = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_comparator_switches_at_threshold() {
        let mut c = Comparator::ideal(Volt::new(1.0));
        let t = Seconds::ZERO;
        assert!(!c.evaluate(Volt::new(0.99), t).high);
        let out = c.evaluate(Volt::new(1.01), t);
        assert!(out.high);
        assert!(out.rising_edge);
        // No repeated rising edge while held high.
        assert!(!c.evaluate(Volt::new(1.5), t).rising_edge);
    }

    #[test]
    fn offset_shifts_threshold() {
        let mut c = Comparator::new(
            Volt::new(1.0),
            Volt::from_milli(50.0),
            Volt::ZERO,
            Seconds::ZERO,
        )
        .unwrap();
        assert!(!c.evaluate(Volt::new(1.02), Seconds::ZERO).high);
        assert!(c.evaluate(Volt::new(1.06), Seconds::ZERO).high);
    }

    #[test]
    fn hysteresis_window() {
        let mut c = Comparator::new(
            Volt::new(1.0),
            Volt::ZERO,
            Volt::from_milli(100.0),
            Seconds::ZERO,
        )
        .unwrap();
        assert!(
            !c.evaluate(Volt::new(1.02), Seconds::ZERO).high,
            "below +hys/2"
        );
        assert!(c.evaluate(Volt::new(1.06), Seconds::ZERO).high);
        // Falls only below 0.95.
        assert!(c.evaluate(Volt::new(0.97), Seconds::ZERO).high);
        assert!(!c.evaluate(Volt::new(0.94), Seconds::ZERO).high);
    }

    #[test]
    fn propagation_delay_defers_edge() {
        let mut c = Comparator::new(
            Volt::new(1.0),
            Volt::ZERO,
            Volt::ZERO,
            Seconds::from_micro(1.0),
        )
        .unwrap();
        let out = c.evaluate(Volt::new(1.5), Seconds::ZERO);
        assert!(!out.high, "edge not yet visible");
        let out = c.evaluate(Volt::new(1.5), Seconds::from_micro(0.5));
        assert!(!out.high);
        let out = c.evaluate(Volt::new(1.5), Seconds::from_micro(1.0));
        assert!(out.high && out.rising_edge);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Comparator::ideal(Volt::new(1.0));
        c.evaluate(Volt::new(2.0), Seconds::ZERO);
        c.reset();
        let out = c.evaluate(Volt::new(2.0), Seconds::ZERO);
        assert!(out.rising_edge, "after reset the edge fires again");
    }

    #[test]
    fn negative_delay_rejected() {
        assert!(
            Comparator::new(Volt::new(1.0), Volt::ZERO, Volt::ZERO, Seconds::new(-1.0)).is_err()
        );
    }

    #[test]
    fn delay_stage_pulse_timing() {
        let mut d = DelayStage::new(Seconds::from_micro(1.0), Seconds::from_micro(2.0)).unwrap();
        d.trigger(Seconds::ZERO);
        assert!(!d.is_active(Seconds::from_micro(0.5)), "during delay");
        assert!(d.is_active(Seconds::from_micro(1.5)), "pulse active");
        assert!(d.is_active(Seconds::from_micro(2.9)));
        assert!(!d.is_active(Seconds::from_micro(3.1)), "pulse over");
    }

    #[test]
    fn delay_stage_ignores_retrigger() {
        let mut d = DelayStage::new(Seconds::from_micro(1.0), Seconds::from_micro(2.0)).unwrap();
        d.trigger(Seconds::ZERO);
        d.trigger(Seconds::from_micro(0.5)); // ignored
        assert!(!d.is_active(Seconds::from_micro(3.2)));
        // After completion a new trigger is accepted.
        d.trigger(Seconds::from_micro(4.0));
        assert!(d.is_active(Seconds::from_micro(5.5)));
    }

    #[test]
    fn delay_stage_rejects_zero_width() {
        assert!(DelayStage::new(Seconds::ZERO, Seconds::ZERO).is_err());
    }
}
