//! Per-session chip registry and the wire-spec → simulation-config
//! conversions.
//!
//! The conversions are `pub` (not just `pub(crate)`) deliberately: the
//! loopback tests and the bench harness build their *in-process*
//! reference chips through the very same functions the server uses, so
//! "bit-identical to a direct `record()` call" is checked against the
//! exact configuration the wire spec produces.

use bsa_core::array::ArrayGeometry;
use bsa_core::dna_chip::{DnaChip, DnaChipConfig, SampleMix};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig};
use bsa_core::{ChipError, YieldReport};
use bsa_faults::{FaultKind, InjectionPlan, PlanTarget};
use bsa_link::wire::Codec;
use bsa_link::{
    ChipId, CultureSpec, DnaChipSpec, FaultEntrySpec, FaultKindSpec, FaultPlanSpec,
    FaultTargetSpec, NeuroChipSpec, PixelCount, SerialLinkSummary, YieldSummary, ASSAY_RESULT_HEAD,
    DNA_CHUNK_HEAD, MAX_PAYLOAD, NEURO_CHUNK_HEAD,
};
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_rng::SmallRng;
use bsa_units::{Ampere, Hertz, Seconds, Volt};

// Every station reply must fit one wire frame of at most `MAX_PAYLOAD`
// bytes, which also keeps a hostile spec from demanding an absurd
// allocation. Three replies grow with the array; `bsa-link` states the
// bytes each takes besides its elements and the size of each element.

/// The most pixels whose single neuro frame fits one `StreamData` chunk.
/// Larger neuro arrays are refused at attach and at replay.
pub(crate) const MAX_FRAME_PIXELS: usize = (MAX_PAYLOAD - NEURO_CHUNK_HEAD) / f64::MIN_LEN;

/// The most pixels one session may hold attached, over both chip kinds:
/// four of the paper's 128×128 neural dies, about 10 MB of chip state.
/// An attach past it is refused with `ErrorCode::Overloaded` until a
/// `Detach` frees room, so repeated attaches cannot exhaust the host.
pub(crate) const MAX_SESSION_PIXELS: usize = 4 * 128 * 128;
const _: () = assert!(MAX_SESSION_PIXELS <= MAX_FRAME_PIXELS);

/// The most DNA readings one `StreamData` chunk carries.
pub(crate) const MAX_CHUNK_READINGS: u32 =
    ((MAX_PAYLOAD - DNA_CHUNK_HEAD) / PixelCount::MIN_LEN) as u32;

/// The most pixels whose `AssayResult` fits one frame: each carries a
/// count and an estimated current. Larger DNA arrays are refused at
/// attach.
pub(crate) const MAX_ASSAY_PIXELS: usize =
    (MAX_PAYLOAD - ASSAY_RESULT_HEAD) / (u64::MIN_LEN + f64::MIN_LEN);

/// The most neuro frames of `pixels` samples one `StreamData` chunk
/// carries: 127 at 128×128. Requested chunk sizes are clamped to it.
pub(crate) fn max_chunk_frames(pixels: usize) -> u32 {
    u32::try_from(MAX_FRAME_PIXELS / pixels.max(1)).unwrap_or(u32::MAX)
}

/// The chunk size a stream request gets: `default` when it asks for 0,
/// else what it asks for, clamped to `cap` so that one chunk fits a frame.
pub(crate) fn chunk_size(requested: u32, default: u32, cap: u32) -> u32 {
    match requested {
        0 => default,
        n => n,
    }
    .min(cap)
}

/// Builds a neuro-chip configuration from its wire spec. Zero /
/// non-finite fields select the paper defaults (128×128, 16 channels,
/// 2 kHz).
pub fn neuro_config_from_spec(spec: &NeuroChipSpec) -> Result<NeuroChipConfig, ChipError> {
    let mut config = NeuroChipConfig::default();
    if spec.rows != 0 || spec.cols != 0 {
        let rows = usize::from(spec.rows.max(1));
        let cols = usize::from(spec.cols.max(1));
        config.geometry = ArrayGeometry::new(rows, cols, config.geometry.pitch())?;
    }
    if spec.channels != 0 {
        config.channels = usize::from(spec.channels);
    }
    if spec.frame_rate_hz.is_finite() && spec.frame_rate_hz > 0.0 {
        config.frame_rate = Hertz::new(spec.frame_rate_hz);
    }
    config.seed = spec.seed;
    Ok(config)
}

/// Builds a DNA-chip configuration from its wire spec. Zero / non-finite
/// fields select the paper defaults (16×8, 10 s frames).
pub fn dna_config_from_spec(spec: &DnaChipSpec) -> Result<DnaChipConfig, ChipError> {
    let mut config = DnaChipConfig::default();
    if spec.rows != 0 || spec.cols != 0 {
        let rows = usize::from(spec.rows.max(1));
        let cols = usize::from(spec.cols.max(1));
        config.geometry = ArrayGeometry::new(rows, cols, config.geometry.pitch())?;
    }
    if spec.frame_time_s.is_finite() && spec.frame_time_s > 0.0 {
        config.frame_time = Seconds::new(spec.frame_time_s);
    }
    config.seed = spec.seed;
    Ok(config)
}

/// Builds the simulated culture a neuro stream records from. Fully
/// deterministic in `spec.seed`, which is what makes the streamed frames
/// reproducible by an in-process `record()` with the same spec.
#[must_use]
pub fn culture_from_spec(spec: &CultureSpec) -> Culture {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut config = CultureConfig::default();
    if spec.neuron_count != 0 {
        config.neuron_count = spec.neuron_count as usize;
    }
    let mut culture = Culture::random(&config, &mut rng);
    let duration = if spec.spike_duration_s.is_finite() && spec.spike_duration_s > 0.0 {
        spec.spike_duration_s
    } else {
        1.0
    };
    culture.generate_spikes(Seconds::new(duration), &mut rng);
    culture
}

fn fault_kind_from_spec(kind: &FaultKindSpec) -> FaultKind {
    match kind {
        FaultKindSpec::DeadPixel => FaultKind::DeadPixel,
        FaultKindSpec::StuckCount { count } => FaultKind::StuckCount { count: *count },
        FaultKindSpec::LeakyElectrode { leakage_a } => FaultKind::LeakyElectrode {
            leakage: Ampere::new(*leakage_a),
        },
        FaultKindSpec::ComparatorDrift { offset_v } => FaultKind::ComparatorDrift {
            offset: Volt::new(*offset_v),
        },
        FaultKindSpec::ComparatorStuck { high } => FaultKind::ComparatorStuck { high: *high },
        FaultKindSpec::DacSaturation { limit } => FaultKind::DacSaturation { limit: *limit },
        FaultKindSpec::GainClipping { limit_v } => FaultKind::GainClipping {
            limit: Volt::new(*limit_v),
        },
        FaultKindSpec::ChannelLoss { channel } => FaultKind::ChannelLoss {
            channel: *channel as usize,
        },
        FaultKindSpec::SerialBitErrors { rate } => FaultKind::SerialBitErrors { rate: *rate },
    }
}

/// Rebuilds a `bsa_faults::InjectionPlan` from its wire form. Chip-global
/// kinds (channel loss, serial bit errors) route through the dedicated
/// builder calls whatever their declared target; a `Global` target with a
/// pixel-level kind becomes an array-wide fault at density 1.
#[must_use]
pub fn injection_plan_from_spec(spec: &FaultPlanSpec) -> InjectionPlan {
    let mut plan = InjectionPlan::new(spec.seed);
    for entry in &spec.entries {
        let kind = fault_kind_from_spec(&entry.kind);
        plan = match (&entry.target, kind) {
            (_, FaultKind::ChannelLoss { channel }) => plan.lose_channel(channel),
            (_, FaultKind::SerialBitErrors { rate }) => plan.serial_bit_errors(rate),
            (FaultTargetSpec::Pixel { row, col }, kind) => {
                plan.at(usize::from(*row), usize::from(*col), kind)
            }
            (FaultTargetSpec::ArrayWide { density }, kind) => plan.array_wide(*density, kind),
            (FaultTargetSpec::Global, kind) => plan.array_wide(1.0, kind),
        };
    }
    plan
}

/// Converts an [`InjectionPlan`] into its wire form for
/// `InjectFaults`. Fault kinds the wire protocol does not model are
/// skipped (none exist today; the arm guards against future kinds).
#[must_use]
pub fn plan_to_spec(plan: &InjectionPlan) -> FaultPlanSpec {
    let entries = plan
        .entries()
        .filter_map(|(target, kind)| {
            let target = match target {
                PlanTarget::Pixel { row, col } => FaultTargetSpec::Pixel {
                    row: row as u16,
                    col: col as u16,
                },
                PlanTarget::ArrayWide { density } => FaultTargetSpec::ArrayWide { density },
                PlanTarget::Global => FaultTargetSpec::Global,
            };
            let kind = match kind {
                FaultKind::DeadPixel => FaultKindSpec::DeadPixel,
                FaultKind::StuckCount { count } => FaultKindSpec::StuckCount { count },
                FaultKind::LeakyElectrode { leakage } => FaultKindSpec::LeakyElectrode {
                    leakage_a: leakage.value(),
                },
                FaultKind::ComparatorDrift { offset } => FaultKindSpec::ComparatorDrift {
                    offset_v: offset.value(),
                },
                FaultKind::ComparatorStuck { high } => FaultKindSpec::ComparatorStuck { high },
                FaultKind::DacSaturation { limit } => FaultKindSpec::DacSaturation { limit },
                FaultKind::GainClipping { limit } => FaultKindSpec::GainClipping {
                    limit_v: limit.value(),
                },
                FaultKind::ChannelLoss { channel } => FaultKindSpec::ChannelLoss {
                    channel: channel as u32,
                },
                FaultKind::SerialBitErrors { rate } => FaultKindSpec::SerialBitErrors { rate },
                _ => return None,
            };
            Some(FaultEntrySpec { target, kind })
        })
        .collect();
    FaultPlanSpec {
        seed: plan.seed(),
        entries,
    }
}

fn as_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Converts a chip's `YieldReport` into its wire summary.
#[must_use]
pub fn yield_summary(report: &YieldReport) -> YieldSummary {
    YieldSummary {
        total_pixels: as_u32(report.total_pixels),
        healthy: as_u32(report.healthy),
        out_of_family: as_u32(report.out_of_family),
        dead: as_u32(report.dead),
        lost_channels: report.lost_channels.iter().map(|&c| as_u32(c)).collect(),
        total_channels: as_u32(report.total_channels),
        injected: as_u32(report.injected.values().sum::<usize>()),
        serial: SerialLinkSummary {
            clean_words: report.serial.clean_words as u64,
            recovered_words: report.serial.recovered_words as u64,
            unrecovered_words: report.serial.unrecovered_words as u64,
            rereads: report.serial.rereads as u64,
        },
        degradation: match report.degradation {
            bsa_core::DegradationMode::FullPerformance => {
                bsa_link::DegradationSummary::FullPerformance
            }
            bsa_core::DegradationMode::Degraded => bsa_link::DegradationSummary::Degraded,
            bsa_core::DegradationMode::Unusable => bsa_link::DegradationSummary::Unusable,
        },
    }
}

/// One attached chip, with the DNA chip carrying its configured sample.
#[derive(Debug)]
pub(crate) enum Chip {
    Dna {
        chip: Box<DnaChip>,
        sample: SampleMix,
    },
    Neuro(Box<NeuroChip>),
}

/// Session-scoped chip table. A `Vec` keyed by id: sessions hold a
/// handful of chips, and iteration order stays deterministic.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    next_id: ChipId,
    chips: Vec<(ChipId, Chip)>,
}

impl Registry {
    pub(crate) fn attach(&mut self, chip: Chip) -> ChipId {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.chips.push((id, chip));
        id
    }

    pub(crate) fn get_mut(&mut self, id: ChipId) -> Option<&mut Chip> {
        self.chips
            .iter_mut()
            .find(|(cid, _)| *cid == id)
            .map(|(_, chip)| chip)
    }

    /// Pixels of every chip attached, the figure [`MAX_SESSION_PIXELS`]
    /// bounds.
    pub(crate) fn pixels(&self) -> usize {
        self.chips
            .iter()
            .map(|(_, chip)| match chip {
                Chip::Dna { chip, .. } => chip.geometry().len(),
                Chip::Neuro(chip) => chip.config().geometry.len(),
            })
            .sum()
    }

    pub(crate) fn detach(&mut self, id: ChipId) -> bool {
        let before = self.chips.len();
        self.chips.retain(|(cid, _)| *cid != id);
        self.chips.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_link::{encode_frame, Message, PixelCount, StreamPayload};

    /// Payload bytes of `msg`; `encode_frame` asserts the same bound.
    fn fits(msg: &Message) -> bool {
        msg.encode_payload().len() <= MAX_PAYLOAD
    }

    fn neuro_chunk(frames: usize, pixels: usize) -> Message {
        Message::StreamData {
            chip: 1,
            seq: 0,
            payload: StreamPayload::NeuroFrames {
                first_frame: 0,
                rows: 1,
                cols: 1,
                samples: vec![0.5; frames * pixels],
            },
        }
    }

    /// The largest reply the station can build at each limit encodes
    /// within `MAX_PAYLOAD` (so `encode_frame`'s assert cannot fire from
    /// the station), and one more frame, reading or pixel would not.
    #[test]
    fn largest_admitted_replies_fit_one_frame() {
        assert_eq!(max_chunk_frames(128 * 128), 127);
        let cap = max_chunk_frames(128 * 128) as usize;
        assert!(!encode_frame(&neuro_chunk(cap, 128 * 128)).is_empty());
        assert!(!fits(&neuro_chunk(cap + 1, 128 * 128)));
        assert_eq!(max_chunk_frames(MAX_FRAME_PIXELS), 1);
        assert!(!encode_frame(&neuro_chunk(1, MAX_FRAME_PIXELS)).is_empty());
        assert!(!fits(&neuro_chunk(1, MAX_FRAME_PIXELS + 1)));

        let reading = PixelCount {
            row: 1,
            col: 2,
            count: 3,
        };
        let readings = |n: u32| Message::StreamData {
            chip: 1,
            seq: 0,
            payload: StreamPayload::DnaCounts {
                readings: vec![reading; n as usize],
            },
        };
        assert!(!encode_frame(&readings(MAX_CHUNK_READINGS)).is_empty());
        assert!(!fits(&readings(MAX_CHUNK_READINGS + 1)));

        let assay = |pixels: usize| Message::AssayResult {
            chip: 1,
            counts: vec![7; pixels],
            estimated_currents_a: vec![1e-9; pixels],
        };
        assert!(!encode_frame(&assay(MAX_ASSAY_PIXELS)).is_empty());
        assert!(!fits(&assay(MAX_ASSAY_PIXELS + 1)));
    }

    #[test]
    fn default_specs_select_paper_geometry() {
        let neuro = neuro_config_from_spec(&NeuroChipSpec {
            rows: 0,
            cols: 0,
            channels: 0,
            seed: 7,
            frame_rate_hz: f64::NAN,
        })
        .unwrap();
        assert_eq!(neuro.geometry.rows(), 128);
        assert_eq!(neuro.geometry.cols(), 128);
        assert_eq!(neuro.channels, 16);
        assert_eq!(neuro.seed, 7);

        let dna = dna_config_from_spec(&DnaChipSpec {
            rows: 0,
            cols: 0,
            seed: 9,
            frame_time_s: 0.0,
        })
        .unwrap();
        assert_eq!(dna.geometry.rows(), 8);
        assert_eq!(dna.geometry.cols(), 16);
        assert_eq!(dna.seed, 9);
    }

    #[test]
    fn culture_from_spec_is_deterministic() {
        let spec = CultureSpec {
            seed: 42,
            neuron_count: 10,
            spike_duration_s: 0.05,
        };
        let a = culture_from_spec(&spec);
        let b = culture_from_spec(&spec);
        assert_eq!(a.neurons().len(), b.neurons().len());
    }

    #[test]
    fn plan_spec_compiles_like_the_builder() {
        let spec = FaultPlanSpec {
            seed: 5,
            entries: vec![
                FaultEntrySpec {
                    target: FaultTargetSpec::Pixel { row: 1, col: 2 },
                    kind: FaultKindSpec::DeadPixel,
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::ChannelLoss { channel: 3 },
                },
            ],
        };
        let compiled = injection_plan_from_spec(&spec).compile(8, 8);
        let reference = InjectionPlan::new(5)
            .at(1, 2, FaultKind::DeadPixel)
            .lose_channel(3)
            .compile(8, 8);
        assert_eq!(compiled.lost_channels(), reference.lost_channels());
        assert!(compiled.at(1, 2).dead);
        assert_eq!(compiled.at(1, 2).dead, reference.at(1, 2).dead);
    }

    #[test]
    fn plan_round_trips_to_wire_spec() {
        let plan = InjectionPlan::new(9)
            .at(1, 2, FaultKind::DeadPixel)
            .array_wide(
                0.25,
                FaultKind::ComparatorDrift {
                    offset: Volt::from_milli(400.0),
                },
            )
            .lose_channel(3)
            .serial_bit_errors(1e-4);
        let spec = plan_to_spec(&plan);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.entries.len(), 4);
        assert_eq!(
            spec.entries.first().map(|e| e.kind.clone()),
            Some(FaultKindSpec::DeadPixel)
        );
        assert!(matches!(
            spec.entries.get(2),
            Some(FaultEntrySpec {
                target: FaultTargetSpec::Global,
                kind: FaultKindSpec::ChannelLoss { channel: 3 },
            })
        ));
    }

    /// Every fault kind survives plan → wire spec → plan: the rebuilt
    /// plan compiles to the same fault map as the original.
    #[test]
    fn every_fault_kind_round_trips_through_the_wire_spec() {
        let plan = InjectionPlan::new(0x5EED)
            .at(0, 0, FaultKind::DeadPixel)
            .at(1, 2, FaultKind::StuckCount { count: 17 })
            .at(
                2,
                3,
                FaultKind::LeakyElectrode {
                    leakage: Ampere::new(3e-12),
                },
            )
            .array_wide(
                0.25,
                FaultKind::ComparatorDrift {
                    offset: Volt::from_milli(400.0),
                },
            )
            .at(3, 1, FaultKind::ComparatorStuck { high: true })
            .array_wide(0.1, FaultKind::DacSaturation { limit: 1.2 })
            .at(
                4,
                4,
                FaultKind::GainClipping {
                    limit: Volt::from_milli(5.0),
                },
            )
            .lose_channel(3)
            .serial_bit_errors(1e-4);
        let rebuilt = injection_plan_from_spec(&plan_to_spec(&plan));
        assert_eq!(rebuilt.compile(8, 8), plan.compile(8, 8));
    }

    #[test]
    fn registry_attach_get_detach() {
        let mut reg = Registry::default();
        let config = dna_config_from_spec(&DnaChipSpec {
            rows: 2,
            cols: 2,
            seed: 1,
            frame_time_s: 0.1,
        })
        .unwrap();
        let chip = DnaChip::new(config).unwrap();
        let id = reg.attach(Chip::Dna {
            chip: Box::new(chip),
            sample: SampleMix::new(),
        });
        assert!(reg.get_mut(id).is_some());
        assert!(reg.detach(id));
        assert!(!reg.detach(id));
        assert!(reg.get_mut(id).is_none());
    }
}
