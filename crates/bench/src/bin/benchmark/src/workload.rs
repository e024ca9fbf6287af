//! The five closed-loop workloads and the seed → request derivation.
//!
//! Every workload is a closed loop: each client sends its next request
//! only after the previous one completed, as the station's blocking
//! callers (`bsa-ctl`, `bsa-control`'s controller) do. A slice is one
//! fresh station plus the workload's fixed amount of work; the seed
//! derives every chip seed and culture seed, and the station only ever
//! sees the generated requests. Sizes (array, culture, request length)
//! are fixed and only contents vary with the seed, so two seeds cost the
//! same.
//!
//! Where the sizes come from: every workload uses the paper's 128×128 /
//! 16-channel neural array, with request lengths set against the
//! station's 64-chunk outbound queue (512 frames at 8 frames a chunk):
//! 128 and 256 frames fit in it with room to spare, 1024 frames overflow
//! it.

use bsa_link::{CultureSpec, DnaChipSpec, NeuroChipSpec, TargetSpec};
use bsa_store::fnv1a64;

/// Frames per `StreamData` chunk requested by every workload.
pub const CHUNK_FRAMES: u32 = 8;
/// Neurons in every generated culture.
const NEURONS: u32 = 20;
/// The DNA chip the traced run's shadow pass measures: every site of the
/// 16×8 array spotted, and how many probes have a complementary target
/// in the sample.
const PROBES: usize = 128;
const TARGETS: usize = 8;
const PROBE_LEN: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `StartNeuroStream` requests against a live chip.
    Live,
    /// Live streams teed into the store; the segment is stopped, checked
    /// and deleted after the slice's last request.
    Record,
    /// `Replay` of a segment recorded during set-up.
    Replay,
}

#[derive(Debug, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Concurrent closed-loop clients, each with its own connection and
    /// chip.
    pub clients: usize,
    /// Requests per client per slice.
    pub requests: usize,
    /// Frames per neuro request (`Live`, `Record`) or per recorded
    /// segment (`Replay`).
    pub frames: u32,
}

/// Per-slice sizes: two to three seconds of timed work each, so that a
/// run's medians are taken over several slices.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stream_live",
        kind: Kind::Live,
        clients: 1,
        requests: 12,
        frames: 128,
    },
    Workload {
        name: "stream_long",
        kind: Kind::Live,
        clients: 1,
        requests: 4,
        frames: 1024,
    },
    Workload {
        name: "stream_pair",
        kind: Kind::Live,
        clients: 2,
        requests: 8,
        frames: 128,
    },
    Workload {
        name: "stream_record",
        kind: Kind::Record,
        clients: 1,
        requests: 10,
        frames: 128,
    },
    Workload {
        name: "replay",
        kind: Kind::Replay,
        clients: 1,
        requests: 10,
        frames: 256,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sizes one slice actually runs: the workload's own, or the `--smoke`
/// sizes (two requests per client, an eighth of the frames) that only
/// exercise every path and the correctness gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub clients: usize,
    pub requests: usize,
    pub frames: u32,
}

impl Workload {
    pub fn size(&self, smoke: bool) -> Size {
        Size {
            clients: self.clients.min(crate::host::nproc()).max(1),
            requests: if smoke { 2 } else { self.requests },
            frames: if smoke { self.frames / 8 } else { self.frames },
        }
    }
}

/// One client's chip and the cultures of its streams.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientPlan {
    pub spec: NeuroChipSpec,
    /// Culture of the untimed warm-up stream (for `Replay`, of the
    /// recorded segment).
    pub warmup: CultureSpec,
    /// One culture per timed request, in order (empty for `Replay`).
    pub cultures: Vec<CultureSpec>,
}

/// A spotted DNA chip and its sample, in wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct DnaPlan {
    pub spec: DnaChipSpec,
    pub probes: Vec<String>,
    pub targets: Vec<TargetSpec>,
}

/// SplitMix64 finaliser over a pair: the derivation behind every seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn culture(seed: u64, frames: u32) -> CultureSpec {
    CultureSpec {
        seed,
        neuron_count: NEURONS,
        // Spikes cover the whole request window at 2 kframes/s.
        spike_duration_s: f64::from(frames.max(1)) / 2000.0,
    }
}

fn sequence(seed: u64) -> String {
    (0..PROBE_LEN)
        .map(|i| b"ACGT"[(mix(seed, i as u64) % 4) as usize] as char)
        .collect()
}

fn reverse_complement(seq: &str) -> String {
    seq.chars()
        .rev()
        .map(|c| match c {
            'A' => 'T',
            'T' => 'A',
            'C' => 'G',
            _ => 'C',
        })
        .collect()
}

/// A fully spotted DNA chip and a sample holding the complementary
/// targets of `TARGETS` probes at 0.1–1 nM.
pub fn dna_plan(seed: u64) -> DnaPlan {
    let probes: Vec<String> = (0..PROBES)
        .map(|p| sequence(mix(seed, 10 + p as u64)))
        .collect();
    let targets = probes
        .iter()
        .take(TARGETS)
        .enumerate()
        .map(|(t, probe)| TargetSpec {
            sequence: reverse_complement(probe),
            concentration_molar: 1e-10
                * 10f64.powf((mix(seed, 100 + t as u64) % 1000) as f64 / 1000.0),
        })
        .collect();
    DnaPlan {
        spec: DnaChipSpec {
            rows: 0,
            cols: 0,
            seed: mix(seed, 1),
            frame_time_s: 0.0,
        },
        probes,
        targets,
    }
}

/// A 128×128 chip with a warm-up culture and `requests` request cultures.
fn neuro_plan(seed: u64, requests: usize, frames: u32) -> ClientPlan {
    ClientPlan {
        spec: NeuroChipSpec {
            rows: 128,
            cols: 128,
            channels: 16,
            seed: mix(seed, 1),
            frame_rate_hz: 0.0,
        },
        warmup: culture(mix(seed, 2), frames),
        cultures: (0..requests)
            .map(|r| culture(mix(seed, 100 + r as u64), frames))
            .collect(),
    }
}

/// Every client's plan for one slice of a workload.
pub fn plan(w: &Workload, seed: u64, slice: u64, size: Size) -> Vec<ClientPlan> {
    let base = mix(mix(seed, fnv1a64(w.name.as_bytes())), slice);
    (0..size.clients)
        .map(|c| {
            let cseed = mix(base, c as u64);
            match w.kind {
                Kind::Replay => neuro_plan(cseed, 0, size.frames),
                Kind::Live | Kind::Record => neuro_plan(cseed, size.requests, size.frames),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determines_every_request() {
        for w in &WORKLOADS {
            let size = w.size(false);
            let a = plan(w, 7, 3, size);
            assert_eq!(a, plan(w, 7, 3, size), "{}: same seed, same plan", w.name);
            assert_ne!(a, plan(w, 8, 3, size), "{}: new seed, new plan", w.name);
            assert_ne!(a, plan(w, 7, 4, size), "{}: new slice, new plan", w.name);
        }
        let cultures = &plan(&WORKLOADS[0], 1, 0, WORKLOADS[0].size(false))[0].cultures;
        assert_eq!(cultures.len(), 12);
        assert!(cultures.windows(2).all(|p| p[0].seed != p[1].seed));
    }

    #[test]
    fn targets_complement_their_probes() {
        let DnaPlan {
            probes, targets, ..
        } = dna_plan(5);
        assert_eq!(probes.len(), PROBES);
        assert_eq!(targets.len(), TARGETS);
        assert_eq!(reverse_complement(&targets[0].sequence), probes[0]);
        assert!(targets
            .iter()
            .all(|t| (1e-10..=1e-9).contains(&t.concentration_molar)));
    }
}
