//! The 128×128 neural-recording chip (paper Section 3, Figs. 5–6).
//!
//! Each 7.8 µm pixel couples the cleft potential capacitively onto the
//! gate of a sensor transistor M1. Because the signals (100 µV – 5 mV) are
//! far below MOSFET parameter variation, each pixel is calibrated by
//! forcing the current of source M2 through M1 (switch S1) and storing the
//! resulting gate voltage; in readout, difference currents between M1 and
//! M2 are amplified through a calibrated gain chain (×100 and ×7 on-chip,
//! 8-to-1 multiplexer, ×4 and ×2 off-chip) over 16 parallel channels at a
//! full frame rate of 2 ksamples/s.

mod chain;
mod frame;
mod linear;
mod pixel;
mod scan;

pub use chain::{ChainConfig, ChannelChain, GainStage};
pub use frame::{Acquisition, Frame, NeuroChip, NeuroChipConfig, Recording, ScanTiming};
pub use pixel::{NeuroPixel, NeuroPixelConfig, PixelLinearization};

pub use crate::scan::{channel_stream_seed, ArenaStats, FrameArena, ScanMode, ScanOptions};
