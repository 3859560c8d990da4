//! Bit-level codeword representation and streaming reads.

use std::fmt;

/// A finite bit string, stored most-significant-bit first (the order in which
/// a codeword is written on paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Codeword {
    bits: Vec<bool>,
}

impl Codeword {
    /// The empty codeword `λ`.
    pub fn empty() -> Self {
        Codeword { bits: Vec::new() }
    }

    /// Builds a codeword from bits given MSB-first.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        Codeword { bits: bits.into_iter().collect() }
    }

    /// Parses a codeword from a string of `'0'`/`'1'` characters; any other
    /// character (spaces are common in the paper's examples) is skipped.
    pub fn parse(s: &str) -> Self {
        Codeword {
            bits: s
                .chars()
                .filter_map(|c| match c {
                    '0' => Some(false),
                    '1' => Some(true),
                    _ => None,
                })
                .collect(),
        }
    }

    /// The standard binary representation `B(n)` of a positive integer: most
    /// significant bit first, no leading zeros.
    ///
    /// # Panics
    /// Panics if `n == 0` (the paper's `B(n)` is defined for `n ≥ 1`).
    pub fn binary(n: u64) -> Self {
        assert!(n > 0, "B(n) is defined for n >= 1");
        let width = 64 - n.leading_zeros();
        let bits = (0..width).rev().map(|k| (n >> k) & 1 == 1).collect();
        Codeword { bits }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the codeword is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bits, MSB-first.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends another codeword (`self ∘ other`).
    pub fn concat(&self, other: &Codeword) -> Codeword {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&other.bits);
        Codeword { bits }
    }

    /// The reversed codeword (`self^R` in the paper's notation).
    pub fn reversed(&self) -> Codeword {
        Codeword { bits: self.bits.iter().rev().copied().collect() }
    }

    /// Whether `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &Codeword) -> bool {
        self.len() <= other.len() && other.bits[..self.len()] == self.bits[..]
    }

    /// Whether `self` is a suffix of `other`.
    pub fn is_suffix_of(&self, other: &Codeword) -> bool {
        self.len() <= other.len() && other.bits[other.len() - self.len()..] == self.bits[..]
    }

    /// Interprets the codeword as an unsigned integer, MSB-first.
    /// The empty codeword decodes to 0.
    pub fn to_u64_msb_first(&self) -> u64 {
        self.bits.iter().fold(0u64, |acc, &b| (acc << 1) | u64::from(b))
    }

    /// Interprets the codeword with its *first* bit as the least significant
    /// bit.  This is exactly the "offset" of the §4.2 scheduler: holiday `i`
    /// matches colour `c` iff `i ≡ offset (mod 2^len)` where `offset` is the
    /// codeword of `c` read in this orientation (see [`crate::schedule`]).
    pub fn to_u64_lsb_first(&self) -> u64 {
        self.bits.iter().rev().fold(0u64, |acc, &b| (acc << 1) | u64::from(b))
    }
}

impl fmt::Display for Codeword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits.is_empty() {
            return write!(f, "λ");
        }
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

/// A cursor over the bits of a codeword (or any bit slice), used for
/// streaming decoding of concatenated codewords.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a [bool],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a codeword.
    pub fn new(code: &'a Codeword) -> Self {
        BitReader { bits: code.bits(), pos: 0 }
    }

    /// Creates a reader over a raw bit slice (MSB-first).
    pub fn from_bits(bits: &'a [bool]) -> Self {
        BitReader { bits, pos: 0 }
    }

    /// Reads one bit, advancing the cursor.
    pub fn read_bit(&mut self) -> Option<bool> {
        let b = self.bits.get(self.pos).copied();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// Reads `k` bits MSB-first as an integer.  Returns `None` (without a
    /// defined cursor position) if fewer than `k` bits remain.
    pub fn read_bits(&mut self, k: usize) -> Option<u64> {
        if self.remaining() < k || k > 64 {
            return None;
        }
        let mut value = 0u64;
        for _ in 0..k {
            value = (value << 1) | u64::from(self.bits[self.pos]);
            self.pos += 1;
        }
        Some(value)
    }

    /// Number of unread bits.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Number of unread bits.  Alias of [`BitReader::remaining`], named to
    /// match [`crate::wire::BitSource`] so WAL-frame scanning code reads the
    /// same against either cursor.
    pub fn remaining_bits(&self) -> usize {
        self.remaining()
    }

    /// Whether all bits have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Advances the cursor to the next byte boundary (the next multiple of
    /// 8 bits), clamped to the end of the stream.  After a corrupt frame,
    /// scanners resync here instead of re-deriving bit offsets by hand.
    pub fn align_to_byte(&mut self) {
        let phase = self.pos % 8;
        if phase != 0 {
            self.pos = (self.pos + 8 - phase).min(self.bits.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn binary_representation_matches_paper_examples() {
        assert_eq!(Codeword::binary(1).to_string(), "1");
        assert_eq!(Codeword::binary(9).to_string(), "1001");
        assert_eq!(Codeword::binary(3).to_string(), "11");
        assert_eq!(Codeword::binary(8).to_string(), "1000");
        assert_eq!(Codeword::binary(255).len(), 8);
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn binary_of_zero_panics() {
        Codeword::binary(0);
    }

    #[test]
    fn empty_codeword_displays_lambda() {
        assert_eq!(Codeword::empty().to_string(), "λ");
        assert!(Codeword::empty().is_empty());
        assert_eq!(Codeword::empty().len(), 0);
    }

    #[test]
    fn parse_skips_separators() {
        let c = Codeword::parse("11 1001 0");
        assert_eq!(c.len(), 7);
        assert_eq!(c.to_string(), "1110010");
        assert_eq!(Codeword::parse(""), Codeword::empty());
    }

    #[test]
    fn concat_and_push() {
        let a = Codeword::parse("10");
        let b = Codeword::parse("01");
        assert_eq!(a.concat(&b).to_string(), "1001");
        assert_eq!(Codeword::empty().concat(&a), a);
        let mut c = Codeword::empty();
        c.push(true);
        c.push(false);
        assert_eq!(c, a);
    }

    #[test]
    fn reversal_and_affix_checks() {
        let c = Codeword::parse("1101");
        assert_eq!(c.reversed().to_string(), "1011");
        assert_eq!(c.reversed().reversed(), c);
        assert!(Codeword::parse("11").is_prefix_of(&c));
        assert!(!Codeword::parse("10").is_prefix_of(&c));
        assert!(Codeword::parse("01").is_suffix_of(&c));
        assert!(!Codeword::parse("11").is_suffix_of(&c));
        assert!(Codeword::empty().is_prefix_of(&c));
        assert!(Codeword::empty().is_suffix_of(&c));
        assert!(!c.is_prefix_of(&Codeword::parse("11")));
    }

    #[test]
    fn numeric_interpretations() {
        let c = Codeword::parse("110");
        assert_eq!(c.to_u64_msb_first(), 6);
        assert_eq!(c.to_u64_lsb_first(), 3);
        assert_eq!(Codeword::empty().to_u64_msb_first(), 0);
        assert_eq!(Codeword::empty().to_u64_lsb_first(), 0);
    }

    #[test]
    fn bit_reader_reads_in_order() {
        let c = Codeword::parse("10110");
        let mut r = BitReader::new(&c);
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(3), Some(0b011));
        assert_eq!(r.position(), 4);
        assert_eq!(r.read_bit(), Some(false));
        assert!(r.is_exhausted());
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn bit_reader_aligns_at_all_eight_phases() {
        // 16 bits = two full bytes; consuming `phase` bits then aligning must
        // land on bit 0 (phase 0) or bit 8 (phases 1..=7), and the phase-8
        // cursor is already aligned.
        let c = Codeword::parse("1010101001010101");
        for phase in 0..=8usize {
            let mut r = BitReader::new(&c);
            for _ in 0..phase {
                r.read_bit();
            }
            r.align_to_byte();
            let expect = if phase == 0 { 0 } else { 8 };
            assert_eq!(r.position(), expect, "phase {phase}");
            assert_eq!(r.remaining_bits(), 16 - expect, "phase {phase}");
        }
        // Alignment never runs past the end of a ragged stream.
        let short = Codeword::parse("10110");
        let mut r = BitReader::new(&short);
        r.read_bits(3);
        r.align_to_byte();
        assert_eq!(r.position(), 5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn bit_reader_rejects_overlong_reads() {
        let c = Codeword::parse("101");
        let mut r = BitReader::new(&c);
        assert_eq!(r.read_bits(4), None);
        assert_eq!(r.position(), 0, "failed read must not consume bits");
        assert_eq!(r.read_bits(3), Some(5));
    }

    proptest! {
        #[test]
        fn binary_roundtrips_via_msb_interpretation(n in 1u64..u64::MAX / 2) {
            let c = Codeword::binary(n);
            prop_assert_eq!(c.to_u64_msb_first(), n);
            prop_assert!(c.bits()[0], "no leading zeros");
        }

        #[test]
        fn reversal_swaps_msb_and_lsb_interpretations(n in 1u64..1_000_000u64) {
            let c = Codeword::binary(n);
            prop_assert_eq!(c.reversed().to_u64_lsb_first(), n);
            prop_assert_eq!(c.to_u64_lsb_first(), c.reversed().to_u64_msb_first());
        }
    }
}
