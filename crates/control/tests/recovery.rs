//! Fault-injection recovery suite: seeded scenarios driven through a
//! live loopback station, asserting that the closed loop restores
//! effective yield to at least 90% of the pre-fault baseline within the
//! observation budget — and that two runs of the same seeded scenario
//! produce bit-identical action traces.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bsa_control::scenario::{baseline_drift, channel_loss, dead_pixels, ScenarioReport};
use bsa_control::trace::TraceEvent;
use bsa_control::{
    ChipTarget, ControlError, Controller, PolicyConfig, PolicyEngine, StateClassifier,
};
use bsa_link::{read_message, write_message, CultureSpec, Message, NeuroChipSpec};
use bsa_station::{ClientConfig, Station, StationClient, StationConfig, StationHandle};
use std::net::TcpListener;
use std::time::Duration;

fn start_station() -> StationHandle {
    Station::bind(StationConfig::default()).expect("bind loopback station")
}

const SEED: u64 = 0xC0_17_20_05;

fn assert_recovered(report: &ScenarioReport) {
    assert!(
        report.recovered,
        "{}: yield not restored within budget (trace: {})",
        report.name,
        report.trace.to_json()
    );
    // The acceptance bar: final yield within 90% of the pre-fault
    // baseline.
    assert!(
        u64::from(report.final_yield_permille) * 10 >= u64::from(report.pre_yield_permille) * 9,
        "{}: final yield {} vs baseline {}",
        report.name,
        report.final_yield_permille,
        report.pre_yield_permille
    );
    // The fault must actually have degraded the chip before recovery:
    // the first observation sits below the recovery target.
    let first_observed = report.trace.events.iter().find_map(|e| match e {
        TraceEvent::Observed { yield_permille, .. } => Some(*yield_permille),
        _ => None,
    });
    let first = first_observed.expect("trace records an observation");
    assert!(
        u64::from(first) * 10 < u64::from(report.pre_yield_permille) * 9,
        "{}: fault did not degrade yield (first observed {} vs baseline {})",
        report.name,
        first,
        report.pre_yield_permille
    );
}

fn executed_actions(report: &ScenarioReport) -> Vec<String> {
    report
        .trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Executed { action, ok, .. } => {
                assert!(*ok, "{}: action {action} failed", report.name);
                Some(action.clone())
            }
            _ => None,
        })
        .collect()
}

#[test]
fn dead_pixels_recover_by_masking() {
    let station = start_station();
    let report = dead_pixels(station.addr(), SEED).expect("scenario runs");
    assert_recovered(&report);
    let actions = executed_actions(&report);
    assert!(
        actions.iter().any(|a| a.starts_with("mask_pixels(")),
        "expected a mask action, got {actions:?}"
    );
    station.shutdown();
}

#[test]
fn channel_loss_recovers_by_reattach() {
    let station = start_station();
    let report = channel_loss(station.addr(), SEED).expect("scenario runs");
    assert_recovered(&report);
    let actions = executed_actions(&report);
    assert!(
        actions.iter().any(|a| a == "reattach"),
        "expected a reattach action, got {actions:?}"
    );
    // The first observation must have seen the lost channels.
    assert!(
        report.trace.events.iter().any(|e| matches!(
            e,
            TraceEvent::Observed { condition, .. } if condition == "channel_loss"
        )),
        "trace never classified channel loss: {}",
        report.trace.to_json()
    );
    station.shutdown();
}

#[test]
fn baseline_drift_recovers_by_recalibration() {
    let station = start_station();
    let report = baseline_drift(station.addr(), SEED).expect("scenario runs");
    assert_recovered(&report);
    let actions = executed_actions(&report);
    assert!(
        actions.iter().any(|a| a == "recalibrate"),
        "expected a recalibrate action, got {actions:?}"
    );
    assert!(
        !actions.iter().any(|a| a == "reattach"),
        "drift should be repaired in place, got {actions:?}"
    );
    station.shutdown();
}

/// Two runs of the same seeded scenario — fresh station, fresh
/// connection, fresh controller — replay bit-identically.
#[test]
fn seeded_scenarios_replay_bit_identically() {
    for scenario in [dead_pixels, channel_loss, baseline_drift] {
        let station_a = start_station();
        let run_a = scenario(station_a.addr(), SEED).expect("first run");
        station_a.shutdown();

        let station_b = start_station();
        let run_b = scenario(station_b.addr(), SEED).expect("second run");
        station_b.shutdown();

        assert_eq!(
            run_a.trace.to_json(),
            run_b.trace.to_json(),
            "{}: traces diverged",
            run_a.name
        );
        assert_eq!(run_a.recovered, run_b.recovered);
        assert_eq!(run_a.final_yield_permille, run_b.final_yield_permille);
    }
}

/// A different seed changes the scenario (placement, chip noise) but
/// recovery still holds — the controller is not tuned to one trace.
#[test]
fn recovery_holds_across_seeds() {
    for seed in [1u64, 0xDEAD_BEEF, 0x5EED_0006] {
        let station = start_station();
        let report = dead_pixels(station.addr(), seed).expect("scenario runs");
        assert_recovered(&report);
        station.shutdown();
    }
}

/// A peer that completes the handshake and then never answers: every
/// request times out, the controller retries with backoff, and after
/// the third attempt gives up with `Exhausted`.
#[test]
fn silent_station_exhausts_the_retries() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        assert!(matches!(
            read_message(&mut socket).unwrap(),
            Message::Hello { .. }
        ));
        let ack = Message::HelloAck {
            server: "silent".into(),
            version: bsa_link::PROTOCOL_VERSION,
        };
        write_message(&mut socket, &ack).unwrap();
        // Swallow requests unanswered until the client hangs up.
        while read_message(&mut socket).is_ok() {}
    });

    let config = ClientConfig {
        io_timeout: Some(Duration::from_millis(100)),
        ..ClientConfig::default()
    };
    let client = StationClient::connect_with(addr, "silent-test", &config).unwrap();
    let target = ChipTarget::Neuro {
        spec: NeuroChipSpec {
            rows: 16,
            cols: 16,
            channels: 16,
            seed: SEED,
            frame_rate_hz: 0.0,
        },
        culture: CultureSpec {
            seed: 77,
            neuron_count: 4,
            spike_duration_s: 0.01,
        },
        frames_per_tick: 4,
    };
    let result = Controller::start(
        client,
        target,
        StateClassifier::default(),
        PolicyEngine::new(SEED, PolicyConfig::default()),
        "silent",
    );
    assert!(
        matches!(result, Err(ControlError::Exhausted { attempts: 3 })),
        "expected Exhausted after 3 attempts, got {:?}",
        result.err()
    );
    peer.join().unwrap();
}
