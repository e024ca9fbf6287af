// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
//! `bsa-ctl` — command-line client for a running `bsa-station`.
//!
//! ```text
//! bsa-ctl [--addr HOST:PORT | --local] stats
//! bsa-ctl [--addr HOST:PORT | --local] assay  [--seed N]
//! bsa-ctl [--addr HOST:PORT | --local] stream [--frames N] [--rows N] [--cols N]
//!                                              [--channels N] [--seed N]
//! bsa-ctl [--addr HOST:PORT | --local --store DIR] record [--name NAME] [--frames N] ...
//! bsa-ctl [--addr HOST:PORT | --local --store DIR] recordings
//! bsa-ctl [--addr HOST:PORT | --local --store DIR] replay [--name NAME] [--chunk N]
//! ```
//!
//! `--local` spins up an in-process station on a loopback port and runs
//! the command against it — a one-command end-to-end smoke test. With
//! `--store DIR` the local station persists recordings to `DIR`, so a
//! `record` in one invocation can be `replay`ed by the next.
//!
//! `record` starts a recording, streams neuro frames through it, and
//! stops it — exercising the full start/tee/stop path in one command.

use bsa_link::{CultureSpec, DnaChipSpec, NeuroChipSpec, TargetSpec};
use bsa_station::{AttachedChip, Station, StationClient, StationConfig, StationHandle, Streamed};
use bsa_units::Seconds;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: bsa-ctl [--addr HOST:PORT | --local] <stats | assay | stream | record | recordings | replay> [options]\n\
     \n\
     commands:\n\
     stats                      print station counters\n\
     assay  [--seed N]          run a small DNA assay end to end\n\
     stream [--frames N] [--rows N] [--cols N] [--channels N] [--seed N]\n\
     \x20                          record and stream neuro frames\n\
     record [--name NAME] [--frames N] [--rows N] [--cols N] [--channels N] [--seed N]\n\
     \x20                          start a store recording, stream through it, stop it\n\
     recordings                 list the station's stored recordings\n\
     replay [--name NAME] [--chunk N]\n\
     \x20                          replay a stored recording as a stream\n\
     \n\
     connection:\n\
     --addr HOST:PORT           connect to a running station (default 127.0.0.1:7801)\n\
     --local                    run against an in-process station\n\
     --store DIR                store directory for the --local station"
}

struct Options {
    addr: String,
    local: bool,
    store: Option<String>,
    command: String,
    name: String,
    chunk: u32,
    frames: u32,
    rows: u16,
    cols: u16,
    channels: u16,
    seed: u64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7801".into(),
        local: false,
        store: None,
        command: String::new(),
        name: "recording".into(),
        chunk: 0,
        frames: 64,
        rows: 32,
        cols: 32,
        channels: 8,
        seed: 0x0EE5_1281,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value_for("--addr")?,
            "--local" => opts.local = true,
            "--store" => opts.store = Some(value_for("--store")?),
            "--name" => opts.name = value_for("--name")?,
            "--chunk" => opts.chunk = parse_num(&value_for("--chunk")?, "--chunk")?,
            "--frames" => opts.frames = parse_num(&value_for("--frames")?, "--frames")?,
            "--rows" => opts.rows = parse_num(&value_for("--rows")?, "--rows")?,
            "--cols" => opts.cols = parse_num(&value_for("--cols")?, "--cols")?,
            "--channels" => opts.channels = parse_num(&value_for("--channels")?, "--channels")?,
            "--seed" => opts.seed = parse_num(&value_for("--seed")?, "--seed")?,
            "--help" | "-h" => return Err(String::new()),
            cmd if !cmd.starts_with('-') && opts.command.is_empty() => {
                opts.command = cmd.to_string();
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.command.is_empty() {
        return Err("missing command".into());
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse::<T>().map_err(|e| format!("{flag}: {e}"))
}

fn run(opts: &Options) -> Result<(), String> {
    // Keep the in-process station alive for the whole command.
    let local: Option<StationHandle> = if opts.local {
        let config = StationConfig {
            store_root: opts.store.as_ref().map(Into::into),
            ..StationConfig::default()
        };
        Some(Station::bind(config).map_err(|e| format!("local bind: {e}"))?)
    } else {
        None
    };
    let addr = local
        .as_ref()
        .map_or_else(|| opts.addr.clone(), |h| h.addr().to_string());
    let mut client =
        StationClient::connect(&addr, "bsa-ctl").map_err(|e| format!("connect {addr}: {e}"))?;

    match opts.command.as_str() {
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!("sessions opened   {}", stats.sessions_opened);
            println!("sessions active   {}", stats.sessions_active);
            println!("chips attached    {}", stats.chips_attached);
            println!("requests          {}", stats.requests);
            println!("frames served     {}", stats.frames_served);
            println!("frames dropped    {}", stats.frames_dropped);
            println!("chunks sent       {}", stats.chunks_sent);
            println!("bytes sent        {}", stats.bytes_sent);
            println!("queue peak        {}", stats.queue_peak);
        }
        "assay" => {
            let attached = client
                .attach_dna(&DnaChipSpec {
                    rows: 0,
                    cols: 0,
                    seed: opts.seed,
                    frame_time_s: 0.0,
                })
                .map_err(|e| e.to_string())?;
            println!(
                "attached DNA chip {} ({}x{})",
                attached.chip, attached.rows, attached.cols
            );
            let cal = client.calibrate(attached.chip).map_err(|e| e.to_string())?;
            println!(
                "calibrated: {} healthy / {} out-of-family / {} dead",
                cal.healthy, cal.out_of_family, cal.dead
            );
            let probe = "ACGTACGTACGT";
            client
                .configure_assay(
                    attached.chip,
                    vec![probe.to_string()],
                    vec![TargetSpec {
                        sequence: probe.to_string(),
                        concentration_molar: 1e-9,
                    }],
                )
                .map_err(|e| e.to_string())?;
            let outcome = client
                .run_assay(attached.chip, true)
                .map_err(|e| e.to_string())?;
            let max = outcome.counts.iter().max().copied().unwrap_or(0);
            println!(
                "assay done: {} pixels, {} streamed readings, max count {}",
                outcome.counts.len(),
                outcome.stream.map_or(0, |s| s.readings.len()),
                max
            );
        }
        "stream" => {
            let (_, stream) = attach_and_stream(&mut client, opts, |_, attached| {
                println!(
                    "attached neuro chip {} ({}x{})",
                    attached.chip, attached.rows, attached.cols
                );
                Ok(())
            })?;
            println!(
                "streamed {} frames in {} chunks ({} sent, {} dropped by backpressure)",
                stream.frames.len(),
                stream.chunks,
                stream.frames_sent,
                stream.frames_dropped
            );
        }
        "record" => {
            let (attached, stream) = attach_and_stream(&mut client, opts, |client, attached| {
                client
                    .start_recording(attached.chip, &opts.name)
                    .map_err(|e| e.to_string())?;
                println!(
                    "recording {:?} started on neuro chip {} ({}x{})",
                    opts.name, attached.chip, attached.rows, attached.cols
                );
                Ok(())
            })?;
            let summary = client
                .stop_recording(attached.chip)
                .map_err(|e| e.to_string())?;
            println!(
                "recorded {} frames ({} streamed to client, {} dropped to disk, {} bytes)",
                summary.frames_written,
                stream.frames.len(),
                summary.frames_dropped,
                summary.bytes_written
            );
        }
        "recordings" => {
            let entries = client.recordings().map_err(|e| e.to_string())?;
            if entries.is_empty() {
                println!("no recordings");
            }
            for e in entries {
                println!(
                    "{}  {:?} {}x{}  {} frames  {} bytes  config {:#018x}",
                    e.name, e.kind, e.rows, e.cols, e.frames, e.bytes, e.config_hash
                );
            }
        }
        "replay" => {
            let replayed = client
                .replay(&opts.name, opts.chunk)
                .map_err(|e| e.to_string())?;
            println!(
                "replayed {:?}: {:?}, {} frames + {} readings in {} chunks ({} sent, {} dropped)",
                opts.name,
                replayed.kind,
                replayed.frames.len(),
                replayed.readings.len(),
                replayed.chunks,
                replayed.frames_sent,
                replayed.frames_dropped
            );
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

/// Attaches a neuro chip from the options, runs `prepare` on it, then
/// streams `--frames` frames from it.
fn attach_and_stream(
    client: &mut StationClient,
    opts: &Options,
    prepare: impl FnOnce(&mut StationClient, &AttachedChip) -> Result<(), String>,
) -> Result<(AttachedChip, Streamed), String> {
    let attached = client
        .attach_neuro(&NeuroChipSpec {
            rows: opts.rows,
            cols: opts.cols,
            channels: opts.channels,
            seed: opts.seed,
            frame_rate_hz: 0.0,
        })
        .map_err(|e| e.to_string())?;
    prepare(client, &attached)?;
    let stream = client
        .stream_neuro(
            attached.chip,
            opts.frames,
            0,
            Seconds::new(0.0),
            &CultureSpec {
                seed: opts.seed,
                neuron_count: 0,
                spike_duration_s: opts.frames as f64 / 2000.0,
            },
        )
        .map_err(|e| e.to_string())?;
    Ok((attached, stream))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
