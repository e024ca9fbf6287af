//! End-to-end loopback tests: real TCP sockets against an in-process
//! station.
//!
//! The headline property is determinism across the wire — a neuro stream
//! served over TCP is *bit-identical* (`f64::to_bits`) to an in-process
//! `record()` call built from the same wire specs, because the station
//! constructs chips through the very same `registry` conversion functions
//! these tests use for the reference.

#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically

use bsa_core::neuro_chip::NeuroChip;
use bsa_link::{
    read_message, write_message, CultureSpec, DnaChipSpec, ErrorCode, FaultEntrySpec,
    FaultKindSpec, FaultPlanSpec, FaultTargetSpec, Message, NeuroChipSpec, TargetSpec,
};
use bsa_station::{
    culture_from_spec, neuro_config_from_spec, Station, StationClient, StationConfig,
};
use bsa_units::Seconds;
use std::net::TcpStream;
use std::time::Duration;

fn start_station() -> bsa_station::StationHandle {
    Station::bind(StationConfig::default()).expect("bind loopback station")
}

const NEURO_SEED: u64 = 0x0EE5_1281;
const CULTURE_SEED: u64 = 77;

fn neuro_spec(rows: u16, cols: u16) -> NeuroChipSpec {
    NeuroChipSpec {
        rows,
        cols,
        channels: 16,
        seed: NEURO_SEED,
        frame_rate_hz: 0.0,
    }
}

fn culture_spec(frames: u32) -> CultureSpec {
    CultureSpec {
        seed: CULTURE_SEED,
        neuron_count: 24,
        // Long enough that spikes cover the whole recording window.
        spike_duration_s: f64::from(frames) / 1000.0,
    }
}

/// Records the reference frames in-process, through the same spec
/// conversions the server uses.
fn reference_frames(spec: &NeuroChipSpec, culture: &CultureSpec, frames: usize) -> Vec<Vec<f64>> {
    let config = neuro_config_from_spec(spec).unwrap();
    let mut chip = NeuroChip::new(config).unwrap();
    let culture = culture_from_spec(culture);
    let recording = chip.record(&culture, Seconds::new(0.0), frames);
    recording
        .frames()
        .iter()
        .map(|f| f.samples().to_vec())
        .collect()
}

/// The acceptance-criteria test: a full 128x128 chip streams >= 100
/// frames over TCP, and every sample is bit-identical to the in-process
/// recording.
#[test]
fn streamed_frames_bit_identical_to_direct_record() {
    let station = start_station();
    let spec = neuro_spec(128, 128);
    let culture = culture_spec(112);

    let mut client = StationClient::connect(station.addr(), "bit-identical").unwrap();
    let attached = client.attach_neuro(&spec).unwrap();
    assert_eq!((attached.rows, attached.cols), (128, 128));

    let stream = client
        .stream_neuro(attached.chip, 112, 8, Seconds::new(0.0), &culture)
        .unwrap();
    assert!(
        stream.frames.len() >= 100,
        "only {} frames arrived",
        stream.frames.len()
    );
    assert_eq!(
        u32::try_from(stream.frames.len()).unwrap(),
        stream.frames_sent
    );
    assert_eq!(stream.frames_sent + stream.frames_dropped, 112);
    // Local client drains the loopback socket fast enough that nothing
    // should be dropped; if this ever flakes the bit-identity check below
    // still covers whatever arrived.
    assert_eq!(stream.frames_dropped, 0, "loopback client fell behind");

    let reference = reference_frames(&spec, &culture_spec(112), 112);
    assert_eq!(stream.frames.len(), reference.len());
    for (i, (got, want)) in stream.frames.iter().zip(&reference).enumerate() {
        assert_eq!(got.len(), want.len(), "frame {i} sample count");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "frame {i} sample {j}: {g} != {w}");
        }
    }
}

/// Two clients work the station concurrently — one runs a DNA assay with
/// streamed counts, the other streams neuro frames — and both see
/// correct, isolated results.
#[test]
fn two_concurrent_clients_dna_and_neuro() {
    let station = start_station();
    let addr = station.addr();

    let neuro_thread = std::thread::spawn(move || {
        let spec = neuro_spec(32, 32);
        let culture = culture_spec(64);
        let mut client = StationClient::connect(addr, "neuro-client").unwrap();
        let attached = client.attach_neuro(&spec).unwrap();
        let stream = client
            .stream_neuro(attached.chip, 64, 4, Seconds::new(0.0), &culture)
            .unwrap();
        assert_eq!(stream.frames_sent + stream.frames_dropped, 64);
        let reference = reference_frames(&spec, &culture_spec(64), 64);
        for (got, want) in stream.frames.iter().zip(&reference) {
            let same = got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "neuro frames diverged under concurrent load");
        }
        stream.frames.len()
    });

    let dna_thread = std::thread::spawn(move || {
        let mut client = StationClient::connect(addr, "dna-client").unwrap();
        let attached = client
            .attach_dna(&DnaChipSpec {
                rows: 0,
                cols: 0,
                seed: 42,
                frame_time_s: 0.0,
            })
            .unwrap();
        assert_eq!((attached.rows, attached.cols), (8, 16));
        let cal = client.calibrate(attached.chip).unwrap();
        assert!(cal.healthy > 0);
        let probe = "ACGTACGTACGT".to_string();
        client
            .configure_assay(
                attached.chip,
                vec![probe.clone()],
                vec![TargetSpec {
                    sequence: probe,
                    concentration_molar: 1e-9,
                }],
            )
            .unwrap();
        let outcome = client.run_assay(attached.chip, true).unwrap();
        assert_eq!(outcome.counts.len(), 8 * 16);
        assert_eq!(outcome.estimated_currents_a.len(), 8 * 16);
        // Streamed per-pixel counts must agree with the final result.
        let (sent, dropped) = outcome.stream_accounting.unwrap();
        assert_eq!(usize::try_from(sent).unwrap(), outcome.streamed.len());
        assert_eq!(dropped, 0);
        for reading in &outcome.streamed {
            let idx = usize::from(reading.row) * 16 + usize::from(reading.col);
            assert_eq!(outcome.counts.get(idx).copied(), Some(reading.count));
        }
        outcome.counts.iter().sum::<u64>()
    });

    let neuro_frames = neuro_thread.join().expect("neuro client panicked");
    let total_counts = dna_thread.join().expect("dna client panicked");
    assert!(neuro_frames > 0);
    assert!(
        total_counts > 0,
        "a matched 1 nM target must produce counts"
    );

    let stats = station.stats();
    assert!(stats.sessions_opened >= 2);
    assert_eq!(stats.chips_attached, 2);
    assert!(stats.frames_served > 0);
}

/// Killing a client mid-stream must not take the station down: the
/// surviving session keeps getting served.
#[test]
fn killing_one_client_leaves_the_other_served() {
    let station = start_station();
    let addr = station.addr();

    // Victim speaks raw protocol so we can drop the socket mid-stream.
    let mut victim = TcpStream::connect(addr).unwrap();
    victim
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_message(
        &mut victim,
        &Message::Hello {
            client: "victim".into(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_message(&mut victim).unwrap(),
        Message::HelloAck { .. }
    ));
    write_message(&mut victim, &Message::AttachNeuro(neuro_spec(32, 32))).unwrap();
    let chip = match read_message(&mut victim).unwrap() {
        Message::Attached { chip, .. } => chip,
        other => panic!("expected Attached, got {other:?}"),
    };
    write_message(
        &mut victim,
        &Message::StartNeuroStream {
            chip,
            frames: 256,
            chunk_frames: 1,
            t0_s: 0.0,
            culture: culture_spec(256),
        },
    )
    .unwrap();
    // Take exactly one chunk, then vanish without a goodbye.
    assert!(matches!(
        read_message(&mut victim).unwrap(),
        Message::StreamData { .. }
    ));
    drop(victim);

    // The survivor connects afterwards and must get full service.
    let mut survivor = StationClient::connect(addr, "survivor").unwrap();
    let attached = survivor.attach_neuro(&neuro_spec(16, 16)).unwrap();
    let stream = survivor
        .stream_neuro(attached.chip, 32, 4, Seconds::new(0.0), &culture_spec(32))
        .unwrap();
    assert_eq!(stream.frames_sent + stream.frames_dropped, 32);
    assert!(!stream.frames.is_empty());
    survivor.ping(0xDEAD_BEEF).unwrap();
}

/// Fault injection round-trips over the wire: a dead pixel and a lost
/// channel show up in the health report.
#[test]
fn fault_injection_over_the_wire() {
    let station = start_station();
    let mut client = StationClient::connect(station.addr(), "faults").unwrap();
    let attached = client.attach_neuro(&neuro_spec(16, 16)).unwrap();
    client
        .inject_faults(
            attached.chip,
            FaultPlanSpec {
                seed: 3,
                entries: vec![
                    FaultEntrySpec {
                        target: FaultTargetSpec::Pixel { row: 2, col: 3 },
                        kind: FaultKindSpec::DeadPixel,
                    },
                    FaultEntrySpec {
                        target: FaultTargetSpec::Global,
                        kind: FaultKindSpec::ChannelLoss { channel: 1 },
                    },
                ],
            },
        )
        .unwrap();
    let health = client.health(attached.chip).unwrap();
    assert_eq!(health.total_pixels, 256);
    assert_eq!(health.lost_channels, vec![1]);
    assert!(health.injected >= 1);
}

/// Wire-level errors come back as typed `ErrorReply`s, not dropped
/// connections: unknown chip ids and malformed assay configs.
#[test]
fn server_replies_with_typed_errors() {
    let station = start_station();
    let mut client = StationClient::connect(station.addr(), "errors").unwrap();

    let err = client.calibrate(99).unwrap_err();
    assert!(
        matches!(err, bsa_station::ClientError::Server { .. }),
        "unknown chip must yield a server error, got {err:?}"
    );

    // The session survives the error.
    client.ping(5).unwrap();

    let attached = client.attach_neuro(&neuro_spec(16, 16)).unwrap();
    let err = client
        .stream_neuro(
            attached.chip,
            0, // zero frames is invalid
            1,
            Seconds::new(0.0),
            &culture_spec(1),
        )
        .unwrap_err();
    assert!(matches!(err, bsa_station::ClientError::Server { .. }));

    // Detach then use-after-detach.
    client.detach(attached.chip).unwrap();
    let err = client.calibrate(attached.chip).unwrap_err();
    assert!(matches!(err, bsa_station::ClientError::Server { .. }));
}

/// A server-to-client message sent *to* the station is a client bug: it
/// is answered with `BadRequest` and the session keeps serving.
#[test]
fn server_bound_reply_is_refused_and_session_survives() {
    let station = start_station();
    let mut client = TcpStream::connect(station.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    write_message(&mut client, &Message::Pong { token: 3 }).unwrap();
    match read_message(&mut client).unwrap() {
        Message::ErrorReply { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("Pong"), "{message}");
        }
        other => panic!("expected ErrorReply, got {other:?}"),
    }

    write_message(&mut client, &Message::Ping { token: 4 }).unwrap();
    assert_eq!(
        read_message(&mut client).unwrap(),
        Message::Pong { token: 4 }
    );
}

/// Station shutdown mid-stream is graceful: the in-flight stream is
/// delivered whole (no partial frame), `StreamEnd` arrives, and the
/// next request fails with a typed error instead of hanging.
#[test]
fn shutdown_mid_stream_delivers_stream_end_then_typed_error() {
    let station = start_station();
    let addr = station.addr();

    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_message(
        &mut client,
        &Message::Hello {
            client: "shutdown-victim".into(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_message(&mut client).unwrap(),
        Message::HelloAck { .. }
    ));
    write_message(&mut client, &Message::AttachNeuro(neuro_spec(32, 32))).unwrap();
    let chip = match read_message(&mut client).unwrap() {
        Message::Attached { chip, .. } => chip,
        other => panic!("expected Attached, got {other:?}"),
    };
    write_message(
        &mut client,
        &Message::StartNeuroStream {
            chip,
            frames: 64,
            chunk_frames: 4,
            t0_s: 0.0,
            culture: culture_spec(64),
        },
    )
    .unwrap();
    // Take one chunk, then shut the station down under the stream.
    let first = read_message(&mut client).unwrap();
    assert!(matches!(first, Message::StreamData { .. }));
    station.shutdown();

    // The rest of the stream still arrives: whole frames only, then a
    // clean StreamEnd.
    let frame_len = 32usize * 32;
    let mut samples_seen = match first {
        Message::StreamData {
            payload: bsa_link::StreamPayload::NeuroFrames { samples, .. },
            ..
        } => samples.len(),
        _ => 0,
    };
    let (frames_sent, frames_dropped) = loop {
        match read_message(&mut client).expect("stream continues past shutdown") {
            Message::StreamData {
                payload: bsa_link::StreamPayload::NeuroFrames { samples, .. },
                ..
            } => {
                assert_eq!(
                    samples.len() % frame_len,
                    0,
                    "chunk must contain whole frames"
                );
                samples_seen += samples.len();
            }
            Message::StreamEnd {
                frames_sent,
                frames_dropped,
                ..
            } => break (frames_sent, frames_dropped),
            other => panic!("unexpected message {other:?}"),
        }
    };
    assert_eq!(samples_seen, (frames_sent as usize) * frame_len);
    assert_eq!(u64::from(frames_sent) + u64::from(frames_dropped), 64);

    // The session's read half is gone: the next request errors (EOF or
    // reset) within the client deadline — it does not hang.
    write_message(&mut client, &Message::Ping { token: 7 }).ok();
    assert!(
        read_message(&mut client).is_err(),
        "request after shutdown must fail with a typed error"
    );
}

/// Idle sessions are reaped: with `max_sessions: 1` and a short server
/// read timeout, an idle client is disconnected and its slot freed, so
/// a second client gets admitted instead of an Overloaded refusal.
#[test]
fn idle_sessions_are_reaped_and_slots_freed() {
    let station = Station::bind(StationConfig {
        read_timeout: Some(Duration::from_millis(200)),
        max_sessions: 1,
        ..StationConfig::default()
    })
    .unwrap();
    let addr = station.addr();

    let mut first = StationClient::connect(addr, "idler").unwrap();
    first.ping(1).unwrap();

    // While the first session is live, the slot is taken.
    let refused = StationClient::connect(addr, "refused");
    assert!(
        refused.is_err(),
        "second session must be refused while busy"
    );

    // Go idle past the server read timeout; the reaper frees the slot.
    std::thread::sleep(Duration::from_millis(600));
    let mut second = StationClient::connect(addr, "admitted").unwrap();
    second.ping(2).unwrap();

    // The idle client was disconnected by the reap.
    assert!(
        first.ping(3).is_err(),
        "reaped session must be disconnected"
    );
}

/// The store acceptance test: record a live 128x128 neuro stream and a
/// DNA assay to disk, then replay both through a *fresh* station session
/// and require the replayed data to be indistinguishable from the live
/// acquisition — `f64::to_bits`-identical neuro samples, identical DNA
/// counts, the same `StreamData`*/`StreamEnd` grammar.
#[test]
fn recorded_streams_replay_bit_identical_through_fresh_session() {
    let store_root = std::env::temp_dir().join(format!("bsa-station-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let station = Station::bind(StationConfig {
        store_root: Some(store_root.clone()),
        ..StationConfig::default()
    })
    .unwrap();
    let addr = station.addr();

    let spec = neuro_spec(128, 128);
    let culture = culture_spec(48);
    let dna_counts;
    {
        let mut recorder = StationClient::connect(addr, "recorder").unwrap();

        // Live neuro stream, teed to the store.
        let attached = recorder.attach_neuro(&spec).unwrap();
        recorder
            .start_recording(attached.chip, "neuro-take")
            .unwrap();
        let stream = recorder
            .stream_neuro(attached.chip, 48, 8, Seconds::new(0.0), &culture)
            .unwrap();
        assert_eq!(stream.frames_sent + stream.frames_dropped, 48);
        let summary = recorder.stop_recording(attached.chip).unwrap();
        assert_eq!(summary.name, "neuro-take");
        // The tee runs before the outbound offer, so the segment holds
        // every produced frame whatever TCP backpressure did; the store
        // queue is deeper than the stream, so nothing drops here either.
        assert_eq!(summary.frames_written, 48, "store writer fell behind");
        assert_eq!(summary.frames_dropped, 0);
        assert!(summary.bytes_written > 0);

        // DNA assay, one record per pixel reading.
        let dna = recorder
            .attach_dna(&DnaChipSpec {
                rows: 0,
                cols: 0,
                seed: 42,
                frame_time_s: 0.0,
            })
            .unwrap();
        let probe = "ACGTACGTACGT".to_string();
        recorder
            .configure_assay(
                dna.chip,
                vec![probe.clone()],
                vec![TargetSpec {
                    sequence: probe,
                    concentration_molar: 1e-9,
                }],
            )
            .unwrap();
        recorder.start_recording(dna.chip, "assay-take").unwrap();
        // Not streamed to the client — the tee persists the readout
        // independently of `stream_counts`.
        let outcome = recorder.run_assay(dna.chip, false).unwrap();
        let summary = recorder.stop_recording(dna.chip).unwrap();
        assert_eq!(summary.frames_written, 8 * 16);
        assert_eq!(summary.frames_dropped, 0);
        dna_counts = outcome.counts;
    }

    // Fresh session: the catalog lists both takes with their geometry.
    let mut replayer = StationClient::connect(addr, "replayer").unwrap();
    let entries = replayer.recordings().unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["assay-take", "neuro-take"]);
    let neuro_entry = entries.iter().find(|e| e.name == "neuro-take").unwrap();
    assert_eq!(neuro_entry.kind, bsa_link::ChipKind::Neuro);
    assert_eq!((neuro_entry.rows, neuro_entry.cols), (128, 128));
    assert_eq!(neuro_entry.frames, 48);

    // Replayed neuro frames are bit-identical to an in-process record()
    // built from the same wire specs — the recording really did capture
    // the acquisition, not an approximation of it.
    let replayed = replayer.replay("neuro-take", 0).unwrap();
    assert_eq!(replayed.kind, bsa_link::ChipKind::Neuro);
    assert_eq!((replayed.rows, replayed.cols), (128, 128));
    assert_eq!(replayed.frames_sent + replayed.frames_dropped, 48);
    assert_eq!(replayed.frames_dropped, 0, "loopback replay fell behind");
    let reference = reference_frames(&spec, &culture_spec(48), 48);
    assert_eq!(replayed.frames.len(), reference.len());
    for (i, (got, want)) in replayed.frames.iter().zip(&reference).enumerate() {
        assert_eq!(got.len(), want.len(), "frame {i} sample count");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "frame {i} sample {j}: {g} != {w}");
        }
    }

    // Replayed assay readings reproduce the live counts exactly.
    let assay = replayer.replay("assay-take", 0).unwrap();
    assert_eq!(assay.kind, bsa_link::ChipKind::Dna);
    assert_eq!(assay.readings.len(), 8 * 16);
    for reading in &assay.readings {
        let idx = usize::from(reading.row) * 16 + usize::from(reading.col);
        assert_eq!(dna_counts.get(idx).copied(), Some(reading.count));
    }

    // A bogus name is a typed server error on the same session.
    let err = replayer.replay("no-such-take", 0).unwrap_err();
    assert!(matches!(err, bsa_station::ClientError::Server { .. }));

    drop(station);
    let _ = std::fs::remove_dir_all(&store_root);
}

/// A recording whose stored header declares an absurd frame geometry is
/// refused at replay with a typed server error before the session sizes
/// any sample buffer from it — the header is segment-controlled data,
/// the same trust boundary as the wire.
#[test]
fn replay_refuses_oversized_recorded_geometry() {
    use bsa_store::{fnv1a64, Recorder, SegmentMeta};

    let store_root = std::env::temp_dir().join(format!("bsa-station-geom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);

    // Plant a structurally valid segment (real CRCs, real footer) whose
    // header claims a 8192x8192 array — far past MAX_REPLAY_DIM, and a
    // ~25 GiB chunk buffer if the session trusted it.
    let meta = SegmentMeta {
        chip: 1,
        kind: bsa_link::ChipKind::Neuro,
        rows: 8192,
        cols: 8192,
        config_hash: fnv1a64(b"rogue"),
        spec: "rogue".into(),
    };
    let mut rec = Recorder::create(&store_root, "rogue-take", &meta, 16, 4).unwrap();
    rec.offer(0, vec![0u8; 16]).unwrap();
    rec.finish().unwrap();

    let station = Station::bind(StationConfig {
        store_root: Some(store_root.clone()),
        ..StationConfig::default()
    })
    .unwrap();
    let mut client = StationClient::connect(station.addr(), "geom").unwrap();
    let err = client.replay("rogue-take", 0).unwrap_err();
    match err {
        bsa_station::ClientError::Server { message, .. } => {
            assert!(
                message.contains("replay limit"),
                "unexpected server message: {message}"
            );
        }
        other => panic!("expected typed server error, got {other:?}"),
    }

    drop(station);
    let _ = std::fs::remove_dir_all(&store_root);
}

/// Pixel masking round-trips: masked pixels are repaired by neighbor
/// interpolation bit-identically to an in-process `PixelMask` repair of
/// the same recording, and bad indices get a typed error.
#[test]
fn masked_stream_matches_in_process_repair() {
    let station = start_station();
    let mut client = StationClient::connect(station.addr(), "masker").unwrap();
    let spec = neuro_spec(16, 16);
    let culture = culture_spec(8);
    let attached = client.attach_neuro(&spec).unwrap();

    // Out-of-range index is rejected, session survives.
    let err = client.mask_pixels(attached.chip, &[256]).unwrap_err();
    assert!(matches!(err, bsa_station::ClientError::Server { .. }));

    // Mask three pixels; repeated masking unions.
    assert_eq!(client.mask_pixels(attached.chip, &[0, 17]).unwrap(), 2);
    assert_eq!(client.mask_pixels(attached.chip, &[17, 40]).unwrap(), 3);

    let stream = client
        .stream_neuro(attached.chip, 8, 4, Seconds::new(0.0), &culture)
        .unwrap();
    assert_eq!(stream.frames.len(), 8);

    // Reference: same recording, repaired in-process with the same mask.
    let mut usable = vec![true; 256];
    for idx in [0usize, 17, 40] {
        usable[idx] = false;
    }
    let mask = bsa_dsp::masking::PixelMask::new(16, 16, usable);
    let reference = reference_frames(&spec, &culture, 8);
    for (served, reference) in stream.frames.iter().zip(reference.iter()) {
        let mut repaired = reference.clone();
        let _ = mask.interpolate(&mut repaired);
        let served_bits: Vec<u64> = served.iter().map(|s| s.to_bits()).collect();
        let repaired_bits: Vec<u64> = repaired.iter().map(|s| s.to_bits()).collect();
        assert_eq!(served_bits, repaired_bits);
    }

    // Detaching clears the mask: a fresh chip with the same spec streams
    // the unmasked recording again.
    client.detach(attached.chip).unwrap();
    let fresh = client.attach_neuro(&spec).unwrap();
    let unmasked = client
        .stream_neuro(fresh.chip, 8, 4, Seconds::new(0.0), &culture)
        .unwrap();
    for (served, reference) in unmasked.frames.iter().zip(reference.iter()) {
        let served_bits: Vec<u64> = served.iter().map(|s| s.to_bits()).collect();
        let reference_bits: Vec<u64> = reference.iter().map(|s| s.to_bits()).collect();
        assert_eq!(served_bits, reference_bits);
    }
}
