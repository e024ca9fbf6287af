//! Small digital blocks: the in-pixel reset-pulse counter and the shift
//! registers behind the serial readout ("the number of reset pulses is
//! counted with a digital counter within a given time frame", paper §2).

/// Saturating event counter of configurable width.
///
/// The DNA pixel counts comparator reset pulses; the count within the
/// measurement frame is the digitized sensor current. Hardware counters
/// have finite width, so the model saturates (and reports it) rather than
/// wrapping, matching the chip's overflow flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCounter {
    bits: u8,
    count: u64,
    overflowed: bool,
}

impl EventCounter {
    /// Creates a counter with `bits` width (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    pub fn new(bits: u8) -> Self {
        assert!((1..=64).contains(&bits), "counter width must be 1..=64");
        Self {
            bits,
            count: 0,
            overflowed: false,
        }
    }

    /// Maximum representable count, 2^bits − 1.
    pub fn max_count(&self) -> u64 {
        if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Registers one event; saturates at the maximum count.
    pub fn tick(&mut self) {
        if self.count >= self.max_count() {
            self.overflowed = true;
        } else {
            self.count += 1;
        }
    }

    /// Present count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if an event arrived while the counter was saturated.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Counter width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Resets the count and overflow flag, returning the final count.
    pub fn reset(&mut self) -> u64 {
        let c = self.count;
        self.count = 0;
        self.overflowed = false;
        c
    }
}

/// Parallel-in/serial-out shift register used by the array readout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShiftRegister {
    bits: Vec<bool>,
}

impl ShiftRegister {
    /// Creates an empty register.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a word MSB-first into the register (appending after any bits
    /// still pending).
    pub fn load_word(&mut self, word: u64, width: u8) {
        assert!((1..=64).contains(&width), "word width must be 1..=64");
        for k in (0..width).rev() {
            self.bits.push(word & (1 << k) != 0);
        }
    }

    /// Shifts one bit out, if any remain.
    pub fn shift_out(&mut self) -> Option<bool> {
        if self.bits.is_empty() {
            None
        } else {
            Some(self.bits.remove(0))
        }
    }

    /// Number of bits still pending.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` if no bits are pending.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Drains all pending bits as a vector.
    pub fn drain_all(&mut self) -> Vec<bool> {
        std::mem::take(&mut self.bits)
    }
}

/// Reassembles words from a serial bit stream (the receiving side of the
/// chip's data-out pin).
#[derive(Debug, Clone, Default)]
pub struct Deserializer {
    acc: u64,
    nbits: u8,
}

impl Deserializer {
    /// Creates an empty deserializer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes one bit (MSB-first); returns a completed word once `width`
    /// bits have accumulated.
    pub fn push(&mut self, bit: bool, width: u8) -> Option<u64> {
        assert!((1..=64).contains(&width), "word width must be 1..=64");
        self.acc = (self.acc << 1) | bit as u64;
        self.nbits += 1;
        if self.nbits == width {
            let w = self.acc;
            self.acc = 0;
            self.nbits = 0;
            Some(w)
        } else {
            None
        }
    }

    /// Bits currently accumulated toward the next word.
    pub fn pending_bits(&self) -> u8 {
        self.nbits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let mut c = EventCounter::new(16);
        for _ in 0..100 {
            c.tick();
        }
        assert_eq!(c.count(), 100);
        assert_eq!(c.reset(), 100);
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn counter_saturates_without_wrap() {
        let mut c = EventCounter::new(4);
        for _ in 0..100 {
            c.tick();
        }
        assert_eq!(c.count(), 15);
        assert!(c.overflowed());
        c.reset();
        assert!(!c.overflowed());
    }

    #[test]
    fn counter_full_width() {
        let c = EventCounter::new(64);
        assert_eq!(c.max_count(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn counter_rejects_zero_width() {
        EventCounter::new(0);
    }

    #[test]
    fn shift_register_round_trip() {
        let mut sr = ShiftRegister::new();
        sr.load_word(0b1011_0010, 8);
        let mut de = Deserializer::new();
        let mut out = None;
        while let Some(bit) = sr.shift_out() {
            out = de.push(bit, 8).or(out);
        }
        assert_eq!(out, Some(0b1011_0010));
        assert!(sr.is_empty());
    }

    #[test]
    fn shift_register_multiple_words_preserve_order() {
        let mut sr = ShiftRegister::new();
        sr.load_word(0xAB, 8);
        sr.load_word(0xCD, 8);
        assert_eq!(sr.len(), 16);
        let mut de = Deserializer::new();
        let mut words = Vec::new();
        while let Some(bit) = sr.shift_out() {
            if let Some(w) = de.push(bit, 8) {
                words.push(w);
            }
        }
        assert_eq!(words, vec![0xAB, 0xCD]);
    }

    #[test]
    fn deserializer_partial_word_pending() {
        let mut de = Deserializer::new();
        assert_eq!(de.push(true, 3), None);
        assert_eq!(de.pending_bits(), 1);
        assert_eq!(de.push(false, 3), None);
        assert_eq!(de.push(true, 3), Some(0b101));
        assert_eq!(de.pending_bits(), 0);
    }

    #[test]
    fn wide_words_survive_round_trip() {
        let mut sr = ShiftRegister::new();
        let word = 0xDEAD_BEEF_CAFE_F00Du64;
        sr.load_word(word, 64);
        let mut de = Deserializer::new();
        let mut out = None;
        while let Some(bit) = sr.shift_out() {
            out = de.push(bit, 64).or(out);
        }
        assert_eq!(out, Some(word));
    }
}
