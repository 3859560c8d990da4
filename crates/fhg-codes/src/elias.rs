//! The Elias universal codes: gamma, delta and omega.
//!
//! The paper's §4.2 scheduler uses the Elias **omega** code because its
//! codeword length `ρ(c)` is within an additive `log* c` of the
//! Cauchy-condensation lower bound of Theorem 4.1.  Gamma and delta are
//! implemented as ablation points (they are also prefix-free, so they also
//! give correct — just longer-period — schedules).

use crate::bits::{BitReader, Codeword};
use crate::PrefixFreeCode;

/// Which Elias code to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EliasKind {
    /// Elias gamma: unary length prefix + binary value; `|γ(n)| = 2⌊log n⌋ + 1`.
    Gamma,
    /// Elias delta: gamma-coded length + binary value without its leading 1.
    Delta,
    /// Elias omega: recursively length-prefixed binary groups + terminating 0.
    /// The code of Theorem 4.2 with `|ω(n)| = ρ(n)`.
    Omega,
}

/// An Elias prefix-free code of a particular [`EliasKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EliasCode {
    kind: EliasKind,
}

impl EliasCode {
    /// The Elias gamma code.
    pub fn gamma() -> Self {
        EliasCode { kind: EliasKind::Gamma }
    }

    /// The Elias delta code.
    pub fn delta() -> Self {
        EliasCode { kind: EliasKind::Delta }
    }

    /// The Elias omega code (the code used in Theorem 4.2).
    pub fn omega() -> Self {
        EliasCode { kind: EliasKind::Omega }
    }

    /// Creates a code of the given kind.
    pub fn new(kind: EliasKind) -> Self {
        EliasCode { kind }
    }

    /// The code's kind.
    pub fn kind(&self) -> EliasKind {
        self.kind
    }

    fn encode_gamma(value: u64) -> Codeword {
        let bin = Codeword::binary(value);
        let mut bits = vec![false; bin.len() - 1];
        bits.extend_from_slice(bin.bits());
        Codeword::from_bits(bits)
    }

    fn decode_gamma(reader: &mut BitReader<'_>) -> Option<u64> {
        let mut zeros = 0usize;
        while !reader.read_bit()? {
            zeros += 1;
        }
        if zeros > 63 {
            return None;
        }
        let rest = reader.read_bits(zeros)?;
        Some((1u64 << zeros) | rest)
    }

    fn encode_delta(value: u64) -> Codeword {
        let bin = Codeword::binary(value);
        let len_code = Self::encode_gamma(bin.len() as u64);
        // Binary value without its leading 1.
        let tail = Codeword::from_bits(bin.bits()[1..].iter().copied());
        len_code.concat(&tail)
    }

    fn decode_delta(reader: &mut BitReader<'_>) -> Option<u64> {
        let len = Self::decode_gamma(reader)?;
        if len == 0 || len > 64 {
            return None;
        }
        let tail = reader.read_bits((len - 1) as usize)?;
        Some((1u64 << (len - 1)) | tail)
    }

    /// The recursive `re(i)` string of the paper's Appendix B, i.e. the omega
    /// code without its terminating zero.
    fn omega_re(value: u64) -> Codeword {
        if value <= 1 {
            return Codeword::empty();
        }
        let bin = Codeword::binary(value);
        Self::omega_re(bin.len() as u64 - 1).concat(&bin)
    }

    fn encode_omega(value: u64) -> Codeword {
        let mut code = Self::omega_re(value);
        code.push(false);
        code
    }

    fn decode_omega(reader: &mut BitReader<'_>) -> Option<u64> {
        let mut n: u64 = 1;
        loop {
            match reader.read_bit()? {
                false => return Some(n),
                true => {
                    // Overflow guard for the length chain: the next group
                    // would be read as `(1 << n) | rest`, so any chain value
                    // n >= 64 — which an adversarial stream can claim with a
                    // handful of bytes (e.g. "11 1111110 …") — must be
                    // rejected here, *before* the shift, or `1u64 << n`
                    // would overflow.  Legitimate codewords for values up to
                    // u64::MAX never push the chain past 64.
                    if n >= 64 {
                        return None;
                    }
                    let rest = reader.read_bits(n as usize)?;
                    n = (1u64 << n) | rest;
                }
            }
        }
    }
}

impl PrefixFreeCode for EliasCode {
    fn encode(&self, value: u64) -> Codeword {
        assert!(value >= 1, "Elias codes are defined for n >= 1, got {value}");
        match self.kind {
            EliasKind::Gamma => Self::encode_gamma(value),
            EliasKind::Delta => Self::encode_delta(value),
            EliasKind::Omega => Self::encode_omega(value),
        }
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64> {
        match self.kind {
            EliasKind::Gamma => Self::decode_gamma(reader),
            EliasKind::Delta => Self::decode_delta(reader),
            EliasKind::Omega => Self::decode_omega(reader),
        }
    }

    fn code_len(&self, value: u64) -> usize {
        assert!(value >= 1, "Elias codes are defined for n >= 1, got {value}");
        let bitlen = |n: u64| (64 - n.leading_zeros()) as usize;
        match self.kind {
            EliasKind::Gamma => 2 * bitlen(value) - 1,
            EliasKind::Delta => {
                let l = bitlen(value);
                (l - 1) + 2 * bitlen(l as u64) - 1
            }
            EliasKind::Omega => {
                let mut len = 1usize; // terminating zero
                let mut n = value;
                while n > 1 {
                    let b = bitlen(n);
                    len += b;
                    n = b as u64 - 1;
                }
                len
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.kind {
            EliasKind::Gamma => "elias-gamma",
            EliasKind::Delta => "elias-delta",
            EliasKind::Omega => "elias-omega",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodeSchedule;
    use proptest::prelude::*;

    /// The paper's Appendix B table: omega codes of 1..=15.
    const PAPER_OMEGA_TABLE: [&str; 15] = [
        "0",
        "10 0",
        "11 0",
        "10 100 0",
        "10 101 0",
        "10 110 0",
        "10 111 0",
        "11 1000 0",
        "11 1001 0",
        "11 1010 0",
        "11 1011 0",
        "11 1100 0",
        "11 1101 0",
        "11 1110 0",
        "11 1111 0",
    ];

    #[test]
    fn omega_matches_paper_table() {
        let omega = EliasCode::omega();
        for (i, expected) in PAPER_OMEGA_TABLE.iter().enumerate() {
            let value = i as u64 + 1;
            assert_eq!(
                omega.encode(value),
                Codeword::parse(expected),
                "omega({value}) mismatch with the paper's Appendix B table"
            );
        }
    }

    #[test]
    fn omega_paper_worked_example_for_nine() {
        // Appendix B: re(9) = λ ∘ 11 ∘ 1001, omega code 11 1001 0.
        let omega = EliasCode::omega();
        assert_eq!(omega.encode(9).to_string(), "1110010");
        assert_eq!(omega.code_len(9), 7);
    }

    #[test]
    fn gamma_known_codewords() {
        let gamma = EliasCode::gamma();
        assert_eq!(gamma.encode(1).to_string(), "1");
        assert_eq!(gamma.encode(2).to_string(), "010");
        assert_eq!(gamma.encode(3).to_string(), "011");
        assert_eq!(gamma.encode(4).to_string(), "00100");
        assert_eq!(gamma.encode(10).to_string(), "0001010");
        assert_eq!(gamma.code_len(10), 7);
    }

    #[test]
    fn delta_known_codewords() {
        let delta = EliasCode::delta();
        assert_eq!(delta.encode(1).to_string(), "1");
        assert_eq!(delta.encode(2).to_string(), "0100");
        assert_eq!(delta.encode(3).to_string(), "0101");
        assert_eq!(delta.encode(8).to_string(), "00100000");
        assert_eq!(delta.encode(9).to_string(), "00100001");
        assert_eq!(delta.code_len(9), 8);
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn encode_zero_panics() {
        EliasCode::omega().encode(0);
    }

    #[test]
    fn decode_concatenated_stream() {
        for code in [EliasCode::gamma(), EliasCode::delta(), EliasCode::omega()] {
            let values = [1u64, 9, 2, 100, 7, 1_000_000, 3];
            let mut stream = Codeword::empty();
            for &v in &values {
                stream = stream.concat(&code.encode(v));
            }
            let mut reader = BitReader::new(&stream);
            for &v in &values {
                assert_eq!(code.decode(&mut reader), Some(v), "{} decode", code.name());
            }
            assert!(reader.is_exhausted());
            assert_eq!(code.decode(&mut reader), None);
        }
    }

    #[test]
    fn truncated_codewords_fail_gracefully() {
        for code in [EliasCode::gamma(), EliasCode::delta(), EliasCode::omega()] {
            let full = code.encode(1_000);
            let truncated = Codeword::from_bits(full.bits()[..full.len() - 1].iter().copied());
            let mut reader = BitReader::new(&truncated);
            assert_eq!(code.decode(&mut reader), None, "{}", code.name());
        }
    }

    #[test]
    fn names_and_kinds() {
        assert_eq!(EliasCode::gamma().name(), "elias-gamma");
        assert_eq!(EliasCode::delta().name(), "elias-delta");
        assert_eq!(EliasCode::omega().name(), "elias-omega");
        assert_eq!(EliasCode::new(EliasKind::Delta).kind(), EliasKind::Delta);
    }

    #[test]
    fn omega_code_growth_is_sublinear_in_gamma() {
        // For large values omega is shorter than gamma: ρ(n) ≈ log n + log log n
        // versus 2 log n + 1.
        let omega = EliasCode::omega();
        let gamma = EliasCode::gamma();
        for &v in &[1u64 << 20, 1 << 30, 1 << 40, 1 << 62] {
            assert!(omega.code_len(v) < gamma.code_len(v));
        }
    }

    fn all_codes() -> Vec<EliasCode> {
        vec![EliasCode::gamma(), EliasCode::delta(), EliasCode::omega()]
    }

    #[test]
    fn adversarial_max_length_claims_are_rejected() {
        // Gamma: 64+ zeros claim a 65-bit value.
        let gamma_claim = Codeword::from_bits(
            std::iter::repeat_n(false, 64).chain(std::iter::repeat_n(true, 70)),
        );
        assert_eq!(EliasCode::gamma().decode(&mut BitReader::new(&gamma_claim)), None);

        // Delta: gamma-coded length of 65 claims a 65-bit binary tail.
        let mut delta_claim = EliasCode::gamma().encode(65);
        for _ in 0..70 {
            delta_claim.push(true);
        }
        assert_eq!(EliasCode::delta().decode(&mut BitReader::new(&delta_claim)), None);

        // Omega: a run of ones drives the length chain past 64 — the next
        // group read would shift-overflow without the explicit n >= 64 cap.
        let mut omega_claim = Codeword::parse("11 1111110");
        for _ in 0..256 {
            omega_claim.push(true);
        }
        omega_claim.push(false);
        assert_eq!(EliasCode::omega().decode(&mut BitReader::new(&omega_claim)), None);
    }

    proptest! {
        #[test]
        fn roundtrip(value in 1u64..u64::MAX / 4) {
            for code in all_codes() {
                let cw = code.encode(value);
                prop_assert_eq!(cw.len(), code.code_len(value), "{} length formula", code.name());
                let mut reader = BitReader::new(&cw);
                prop_assert_eq!(code.decode(&mut reader), Some(value), "{} roundtrip", code.name());
                prop_assert!(reader.is_exhausted());
            }
        }

        #[test]
        fn prefix_free(a in 1u64..5000, b in 1u64..5000) {
            prop_assume!(a != b);
            for code in all_codes() {
                prop_assert!(
                    !code.encode(a).is_prefix_of(&code.encode(b)),
                    "{}({a}) is a prefix of {}({b})", code.name(), code.name()
                );
            }
        }

        #[test]
        fn decoders_are_total_on_garbage_bitstreams(raw in prop::collection::vec(0u8..2, 0..512)) {
            let bits: Vec<bool> = raw.iter().map(|&b| b == 1).collect();
            // Feed arbitrary bits to every decoder until it gives up: each
            // call must return (no panic, hang or shift overflow), yield a
            // positive value, and consume at least one bit — so the scan
            // terminates on any input.
            let stream = Codeword::from_bits(bits.iter().copied());
            for code in all_codes() {
                let mut reader = BitReader::new(&stream);
                let mut last = reader.position();
                while let Some(v) = code.decode(&mut reader) {
                    prop_assert!(v >= 1, "{} decoded 0", code.name());
                    prop_assert!(reader.position() > last, "{} made no progress", code.name());
                    last = reader.position();
                }
            }
        }

        #[test]
        fn strict_prefixes_never_decode(value in 1u64..1_000_000u64, cut_seed in 0usize..10_000) {
            // Prefix-freeness implies no strict prefix of a codeword is itself
            // decodable: if it were, it would be a shorter codeword prefixing
            // a longer one.
            for code in all_codes() {
                let full = code.encode(value);
                let cut = cut_seed % full.len();
                let prefix = Codeword::from_bits(full.bits()[..cut].iter().copied());
                let mut reader = BitReader::new(&prefix);
                prop_assert_eq!(
                    code.decode(&mut reader), None,
                    "{}({}) truncated to {} bits still decoded", code.name(), value, cut
                );
            }
        }

        #[test]
        fn two_codewords_never_match_the_same_holiday(a in 1u64..800, b in 1u64..800, holiday in 0u64..1_000_000u64) {
            // The scheduling-correctness core: distinct colours cannot both be
            // happy at any holiday, because both reversed codewords would be
            // suffixes of the same binary string, contradicting prefix-freeness.
            prop_assume!(a != b);
            for code in all_codes() {
                let name = code.name();
                let sched = CodeSchedule::new(code);
                prop_assert!(
                    !(sched.is_happy(a, holiday) && sched.is_happy(b, holiday)),
                    "{}: colours {a} and {b} collide at holiday {holiday}", name
                );
            }
        }
    }
}
