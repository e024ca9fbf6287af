//! Seeded call-graph panic-reachability violations (semantic lint fixture
//! — lexed and parsed, never compiled). Tilde-comment markers sit on the
//! public entry points whose panic sites are only visible transitively.

pub fn calibrated_offset(raw: &str) -> f64 { //~ reach.panic
    parse_offset(raw)
}

fn parse_offset(raw: &str) -> f64 {
    raw.parse().unwrap()
}

pub fn settled_bias(code: u16) -> f64 { //~ reach.panic
    bias_step(code)
}

fn bias_step(code: u16) -> f64 {
    bias_leaf(code)
}

fn bias_leaf(code: u16) -> f64 {
    table_entry(code).expect("code within table")
}

pub struct FrameDecoder;

impl FrameDecoder {
    pub fn first_sample(&self, frame: &[u8]) -> u8 { //~ reach.panic
        self.header_byte(frame)
    }

    fn header_byte(&self, frame: &[u8]) -> u8 {
        frame[0]
    }
}

/// A direct panic site is the lexical rules' territory: `reach.panic`
/// stays silent here (clippy's `unwrap_used` owns this line).
pub fn directly_panicking(raw: &str) -> f64 {
    raw.parse().unwrap()
}

/// Clean chain: nothing to report on either fn.
pub fn safe_gain(x: f64) -> f64 {
    doubled(x)
}

fn doubled(x: f64) -> f64 {
    x * 2.0
}

// ---------------------------------------------------------------------------
// Call resolution — the one rule every call-graph pass shares
// (DESIGN.md §9.2)
// ---------------------------------------------------------------------------

pub struct Gauge;
pub struct Meter;
pub struct Probe;

impl Gauge {
    /// `Type::name` binds exactly, although the bare `read_raw` is
    /// defined twice.
    pub fn gauge_reading(&self) -> u8 { //~ reach.panic
        Meter::read_raw()
    }

    /// `Self::name` binds to this impl's fn.
    pub fn gauge_level() -> u8 { //~ reach.panic
        Self::read_raw()
    }

    fn read_raw() -> u8 {
        table_entry(0).expect("gauge table")
    }
}

impl Meter {
    fn read_raw() -> u8 {
        table_entry(1).expect("meter table")
    }
}

impl Probe {
    fn probe_raw(&self) -> u8 {
        table_entry(2).expect("probe table")
    }
}

/// An ambiguous bare name binds nothing.
pub fn ambiguous_reading() -> u8 {
    read_raw()
}

/// Method syntax cannot call a free fn.
pub fn method_form_reading(probe: &Probe) -> u8 {
    probe.free_raw()
}

fn free_raw() -> u8 {
    table_entry(3).expect("free table")
}

/// A bare call cannot call a fn that takes `self`.
pub fn bare_form_reading() -> u8 {
    probe_raw()
}
