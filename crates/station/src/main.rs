// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
//! `bsa-station` binary: bind the acquisition server and serve forever.
//!
//! ```text
//! bsa-station [--addr HOST:PORT] [--queue N] [--timeout-secs S] [--max-sessions N]
//!             [--store DIR]
//! ```

use bsa_station::{Station, StationConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> &'static str {
    "usage: bsa-station [--addr HOST:PORT] [--queue N] [--timeout-secs S] [--max-sessions N]\n\
     \x20                  [--store DIR]\n\
     \n\
     --addr HOST:PORT   listen address (default 127.0.0.1:7801)\n\
     --queue N          outbound queue depth per session (default 64)\n\
     --timeout-secs S   idle session timeout, 0 = none (default 30)\n\
     --max-sessions N   concurrent session cap (default 64)\n\
     --store DIR        recording store directory (default: record/replay disabled)"
}

fn parse_args(args: &[String]) -> Result<StationConfig, String> {
    let mut config = StationConfig {
        addr: "127.0.0.1:7801".into(),
        ..StationConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value_for("--addr")?,
            "--queue" => {
                config.queue_depth = value_for("--queue")?
                    .parse::<usize>()
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            "--timeout-secs" => {
                let secs = value_for("--timeout-secs")?
                    .parse::<u64>()
                    .map_err(|e| format!("--timeout-secs: {e}"))?;
                config.read_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--max-sessions" => {
                config.max_sessions = value_for("--max-sessions")?
                    .parse::<u64>()
                    .map_err(|e| format!("--max-sessions: {e}"))?;
            }
            "--store" => config.store_root = Some(value_for("--store")?.into()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match Station::bind(config) {
        Ok(handle) => {
            println!("bsa-station listening on {}", handle.addr());
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: bind failed: {err}");
            ExitCode::FAILURE
        }
    }
}
