//! # fhg-codes
//!
//! Prefix-free integer codes and the iterated-logarithm machinery used by the
//! colour-bound scheduler of the Family Holiday Gathering paper (§4).
//!
//! The paper's periodic colour-bound algorithm assigns every colour `c` a
//! prefix-free codeword; a node with colour `c` is happy at holiday `i`
//! exactly when the *reversed* codeword is a suffix of the binary
//! representation of `i`.  Because the code is prefix-free, no two different
//! colours can ever be happy at the same holiday, and the schedule of colour
//! `c` is perfectly periodic with period `2^|code(c)|`.
//!
//! This crate provides:
//!
//! * [`Codeword`] and [`BitReader`] — bit-level representation of codewords
//!   and streaming decoding.
//! * [`unary`], [`elias`] — the unary code and the Elias gamma, delta and
//!   omega universal codes with encoders, decoders and length functions
//!   (`ρ(i)` for omega, as used in Theorem 4.2).
//! * [`iterlog`] — iterated logarithms `log^{(i)}`, `log*` and the paper's
//!   `φ(c) = ∏_{i=0}^{log* c} log^{(i)} c` function (Definition 4.1), plus
//!   the Cauchy-condensation series used in the Theorem 4.1 lower bound.
//! * [`schedule`] — [`Progression`], the one arithmetic progression
//!   `slot + k·modulus` every periodic schedule gives a parent, with the
//!   workspace's one [`gcd`]; and the holiday-number ↔ colour mapping of
//!   the Algorithm Scheme in §4, which turns each codeword into one.
//! * [`wire`] — the packed, endian-stable byte substrate (bit sinks/sources,
//!   FNV-1a checksums, length-prefixed sections) used by the serving tier's
//!   durable snapshot + write-ahead-log format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod elias;
pub mod iterlog;
pub mod schedule;
pub mod unary;
pub mod wire;

pub use bits::{BitReader, Codeword};
pub use elias::{EliasCode, EliasKind};
pub use iterlog::{ceil_log2, iterated_log, log_star, phi, rho_omega};
pub use schedule::{gcd, CodeSchedule, Progression};
pub use unary::UnaryCode;

/// A prefix-free code over the positive integers `1, 2, 3, …`.
///
/// Implementations must guarantee that no codeword is a prefix of another;
/// this property is what makes the §4 scheduler conflict-free, and it is
/// checked by property tests for every implementation in this crate.
pub trait PrefixFreeCode {
    /// Encodes a positive integer into a codeword.
    ///
    /// # Panics
    /// Implementations panic if `value == 0` (the codes are defined on `n ≥ 1`).
    fn encode(&self, value: u64) -> Codeword;

    /// Decodes a single codeword from the reader, returning the value.
    ///
    /// Returns `None` if the reader does not contain a complete codeword.
    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64>;

    /// Length in bits of the codeword for `value`, without materialising it.
    fn code_len(&self, value: u64) -> usize {
        self.encode(value).len()
    }

    /// Human-readable name for experiment tables.
    fn name(&self) -> &'static str;
}
