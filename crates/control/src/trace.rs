//! Recovery traces: the controller's decision log, replayable
//! bit-identically for the same seeded scenario.
//!
//! Traces carry no wall-clock timestamps — only logical tick numbers —
//! so two runs of the same scenario serialize to identical JSON. Yields
//! are recorded as integer permille to keep the encoding exact.

/// One entry in a recovery trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The classifier's verdict for a tick.
    Observed {
        /// Logical tick number (0-based).
        tick: u32,
        /// The classified chip condition, as a stable label.
        condition: String,
        /// Effective yield in permille (`0..=1000`).
        yield_permille: u32,
    },
    /// The policy picked an action this tick.
    Decided {
        /// Logical tick number.
        tick: u32,
        /// Stable label of the chosen action.
        action: String,
    },
    /// The controller executed an action through the station client.
    Executed {
        /// Logical tick number.
        tick: u32,
        /// Stable label of the executed action.
        action: String,
        /// Whether the station call succeeded.
        ok: bool,
    },
    /// A deadline-bounded request timed out and was retried.
    Retried {
        /// Logical tick number.
        tick: u32,
        /// Retry attempt number (0-based).
        attempt: u32,
        /// Backoff delay before this retry, in milliseconds.
        delay_ms: u64,
    },
    /// Yield crossed back over the recovery target.
    Recovered {
        /// Logical tick number.
        tick: u32,
        /// Effective yield in permille at recovery.
        yield_permille: u32,
    },
}

/// An ordered decision log for one scenario run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryTrace {
    /// Scenario name the trace belongs to.
    pub scenario: String,
    /// Events in the order they happened.
    pub events: Vec<TraceEvent>,
}

impl RecoveryTrace {
    /// An empty trace for the named scenario.
    #[must_use]
    pub fn new(scenario: impl Into<String>) -> Self {
        Self {
            scenario: scenario.into(),
            events: Vec::new(),
        }
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Serializes the trace as deterministic JSON: no timestamps, no
    /// map iteration order, fields always in the same order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"scenario\":");
        push_json_string(&mut out, &self.scenario);
        out.push_str(",\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_event(&mut out, event);
        }
        out.push_str("]}");
        out
    }
}

fn push_event(out: &mut String, event: &TraceEvent) {
    use std::fmt::Write as _;
    match event {
        TraceEvent::Observed {
            tick,
            condition,
            yield_permille,
        } => {
            out.push_str("{\"type\":\"observed\",\"tick\":");
            let _ = write!(out, "{tick}");
            out.push_str(",\"condition\":");
            push_json_string(out, condition);
            let _ = write!(out, ",\"yield_permille\":{yield_permille}}}");
        }
        TraceEvent::Decided { tick, action } => {
            out.push_str("{\"type\":\"decided\",\"tick\":");
            let _ = write!(out, "{tick}");
            out.push_str(",\"action\":");
            push_json_string(out, action);
            out.push('}');
        }
        TraceEvent::Executed { tick, action, ok } => {
            out.push_str("{\"type\":\"executed\",\"tick\":");
            let _ = write!(out, "{tick}");
            out.push_str(",\"action\":");
            push_json_string(out, action);
            let _ = write!(out, ",\"ok\":{ok}}}");
        }
        TraceEvent::Retried {
            tick,
            attempt,
            delay_ms,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"retried\",\"tick\":{tick},\"attempt\":{attempt},\"delay_ms\":{delay_ms}}}"
            );
        }
        TraceEvent::Recovered {
            tick,
            yield_permille,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"recovered\",\"tick\":{tick},\"yield_permille\":{yield_permille}}}"
            );
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn push_json_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Converts a `0..=1` yield fraction to integer permille, clamped.
#[must_use]
pub fn permille(fraction: f64) -> u32 {
    if !fraction.is_finite() || fraction <= 0.0 {
        return 0;
    }
    let scaled = (fraction * 1000.0).round();
    if scaled >= 1000.0 {
        1000
    } else {
        scaled as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
        let mut trace = RecoveryTrace::new("dead \"pixels\"");
        trace.push(TraceEvent::Observed {
            tick: 0,
            condition: "dead_pixels".into(),
            yield_permille: 879,
        });
        trace.push(TraceEvent::Decided {
            tick: 0,
            action: "mask_pixels(123)".into(),
        });
        trace.push(TraceEvent::Recovered {
            tick: 1,
            yield_permille: 1000,
        });
        let json = trace.to_json();
        assert_eq!(
            json,
            "{\"scenario\":\"dead \\\"pixels\\\"\",\"events\":[\
             {\"type\":\"observed\",\"tick\":0,\"condition\":\"dead_pixels\",\"yield_permille\":879},\
             {\"type\":\"decided\",\"tick\":0,\"action\":\"mask_pixels(123)\"},\
             {\"type\":\"recovered\",\"tick\":1,\"yield_permille\":1000}]}"
        );
        // Serialization is a pure function of the trace.
        assert_eq!(json, trace.to_json());
    }

    #[test]
    fn permille_clamps_and_rounds() {
        assert_eq!(permille(0.8794), 879);
        assert_eq!(permille(1.2), 1000);
        assert_eq!(permille(-0.5), 0);
        assert_eq!(permille(f64::NAN), 0);
    }
}
