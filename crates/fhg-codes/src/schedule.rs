//! Arithmetic progressions of holidays, and the holiday-number ↔ colour
//! mapping of the paper's §4 Algorithm Scheme.
//!
//! Every periodic schedule in the paper gives each parent one arithmetic
//! progression: colour `c` owns `offset(c) + k·2^{len(c)}` (§4), and node `p`
//! hosts at `x_p mod 2^{j_p}` (§5).  [`Progression`] is that value, shared by
//! every crate of the workspace.  Thm 4.1's packing argument and Lemma 5.2
//! both rest on one fact: two progressions meet iff their slots agree modulo
//! the gcd of their moduli ([`Progression::meets`]).  Their shared holidays
//! form a progression of their own, solved by the Chinese remainder theorem
//! ([`Progression::meeting`]).
//!
//! Given any prefix-free code, colour `c` is happy at holiday `i` exactly
//! when the reversed codeword of `c` is a suffix of the binary representation
//! of `i`.  Equivalently (and this is how we implement it), colour `c` owns
//! the progression `offset(c) + k · 2^{len(c)}` where `offset(c)` is the
//! codeword of `c` read with its first bit as the least significant bit.
//! Prefix-freeness guarantees the progressions of distinct colours are
//! disjoint, and each colour's schedule is perfectly periodic with period
//! `2^{len(c)}`.

use crate::PrefixFreeCode;

/// The holidays `t ≡ slot (mod modulus)`: the perfectly periodic hosting
/// schedule of one parent or one colour.
///
/// The methods assume `modulus ≥ 1` and `slot < modulus`.  The fields are
/// public, so nothing enforces that; the schedules that store progressions
/// check it where they take one in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Progression {
    /// Residue of the owned holidays.
    pub slot: u64,
    /// Distance between consecutive owned holidays: the period.
    pub modulus: u64,
}

impl Default for Progression {
    /// Every holiday: `0 mod 1`.
    fn default() -> Self {
        Progression { slot: 0, modulus: 1 }
    }
}

impl Progression {
    /// Whether the progression owns holiday `t`.
    pub fn contains(&self, t: u64) -> bool {
        t % self.modulus == self.slot
    }

    /// The least `o` such that holiday `start + o` lies on the progression.
    /// It is a distance, not a holiday, so it cannot overflow.  Exact for
    /// every `u64` modulus.
    #[inline]
    pub fn offset_from(&self, start: u64) -> u64 {
        let m = self.modulus;
        let r = if m.is_power_of_two() { start & (m - 1) } else { start % m };
        if self.slot >= r {
            self.slot - r
        } else {
            self.slot + (m - r)
        }
    }

    /// Whether the two progressions share a holiday:
    /// `s₁ ≡ s₂ (mod gcd(m₁, m₂))`.  Pairs of powers of two (every §4/§5
    /// schedule) and equal moduli take the gcd without a loop.  The
    /// power-of-two test comes first: it is the same for every edge of such
    /// a schedule, while whether two neighbours' moduli are equal is not,
    /// and a mispredicted branch per edge costs more than the test itself
    /// (equal powers of two need no branch: their smaller modulus is the
    /// modulus).
    #[inline]
    pub fn meets(&self, other: &Progression) -> bool {
        let (s1, m1, s2, m2) = (self.slot, self.modulus, other.slot, other.modulus);
        if m1.is_power_of_two() && m2.is_power_of_two() {
            (s1 ^ s2) & (m1.min(m2) - 1) == 0
        } else if m1 == m2 {
            s1 == s2
        } else {
            let g = gcd(m1, m2);
            s1 % g == s2 % g
        }
    }

    /// The shared holidays of the two progressions, by the Chinese
    /// remainder theorem: the offset from `start` of the first one at or
    /// after `start`, and the lcm of the moduli, which separates them.
    /// `None` when the progressions never meet.  Total over every pair of
    /// `u64` moduli: the lcm reaches `(2^64 − 1)(2^64 − 2)`, so both values
    /// are `u128`.
    pub fn meeting(&self, other: &Progression, start: u64) -> Option<(u128, u128)> {
        let (s1, m1, s2, m2) = (self.slot, self.modulus, other.slot, other.modulus);
        debug_assert!(s1 < m1 && s2 < m2, "slots must be residues of their moduli");
        let g = gcd(m1, m2);
        if s1 % g != s2 % g {
            return None;
        }
        // t = s1 + m1·k, where (m1/g)·k ≡ (s2 − s1)/g (mod m2/g).
        let step = m2 / g;
        let rhs = ((i128::from(s2) - i128::from(s1)) / i128::from(g)).rem_euclid(i128::from(step));
        let k = rhs as u128 * u128::from(inverse((m1 / g) % step, step)) % u128::from(step);
        // k < step, so t0 = s1 + m1·k < m1·step = lcm.
        let (t0, lcm) = (u128::from(s1) + u128::from(m1) * k, u128::from(m1) * u128::from(step));
        let r = u128::from(start) % lcm;
        Some((if t0 >= r { t0 - r } else { t0 + (lcm - r) }, lcm))
    }
}

/// The inverse of `a` modulo `m` (`a < m`, `gcd(a, m) = 1`; `0` when
/// `m = 1`), by the extended Euclidean algorithm.  Every Bézout coefficient
/// is bounded by `m`, so `i128` holds them all.
fn inverse(a: u64, m: u64) -> u64 {
    let (mut r0, mut r1) = (i128::from(a), i128::from(m));
    let (mut x0, mut x1) = (1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (x0, x1) = (x1, x0 - q * x1);
    }
    x0.rem_euclid(i128::from(m)) as u64
}

/// The gcd of two positive integers (binary, Stein's algorithm).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    debug_assert!(a > 0 && b > 0, "gcd takes positive integers");
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// A colour → progression mapping induced by a prefix-free code, i.e. the
/// paper's §4 "Algorithm Scheme" specialised to suffix matching of reversed
/// codewords.
#[derive(Debug, Clone)]
pub struct CodeSchedule<C> {
    code: C,
}

impl<C: PrefixFreeCode> CodeSchedule<C> {
    /// Wraps a prefix-free code.
    pub fn new(code: C) -> Self {
        CodeSchedule { code }
    }

    /// The underlying code.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// The progression owned by `color` (colours are positive integers).
    pub fn slot(&self, color: u64) -> Progression {
        let cw = self.code.encode(color);
        let len = cw.len();
        assert!(len < 64, "codeword of colour {color} is too long for a u64 period");
        Progression { slot: cw.to_u64_lsb_first(), modulus: 1u64 << len }
    }

    /// Whether `color` is happy at `holiday` (the `decode(i) = col(p)` test).
    pub fn is_happy(&self, color: u64, holiday: u64) -> bool {
        self.slot(color).contains(holiday)
    }

    /// The colour (if any) that owns `holiday`, searching colours
    /// `1..=max_color`.  The §4 scheme guarantees at most one owner exists.
    pub fn owner_of_holiday(&self, holiday: u64, max_color: u64) -> Option<u64> {
        (1..=max_color).find(|&c| self.is_happy(c, holiday))
    }

    /// Verifies that no two distinct colours in `1..=max_color` ever own the
    /// same holiday.  Returns the first conflicting pair if one exists.
    pub fn find_conflict(&self, max_color: u64) -> Option<(u64, u64)> {
        let slots: Vec<Progression> = (1..=max_color).map(|c| self.slot(c)).collect();
        for i in 0..slots.len() {
            for j in (i + 1)..slots.len() {
                if slots[i].meets(&slots[j]) {
                    return Some((i as u64 + 1, j as u64 + 1));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EliasCode, UnaryCode};
    use proptest::prelude::*;

    fn euclid(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            euclid(b, a % b)
        }
    }

    fn row(slot: u64, modulus: u64) -> Progression {
        Progression { slot, modulus }
    }

    #[test]
    fn membership_and_offsets() {
        let s = row(3, 8);
        assert!(s.contains(3));
        assert!(s.contains(11));
        assert!(!s.contains(4));
        assert_eq!(s.offset_from(0), 3);
        assert_eq!(s.offset_from(3), 0);
        assert_eq!(s.offset_from(4), 7);
        assert_eq!(s.offset_from(11), 0);
        assert_eq!(s.offset_from(12), 7);
        assert_eq!(row(2, 3).offset_from(4), 1);
        assert_eq!(Progression::default().offset_from(17), 0);
    }

    #[test]
    fn meets_matches_enumeration() {
        let a = row(1, 4);
        let b = row(3, 8);
        let c = row(5, 8);
        // 1 mod 4 = {1,5,9,13,...}; 3 mod 8 = {3,11,...} disjoint; 5 mod 8 = {5,13,...} overlaps.
        assert!(!a.meets(&b));
        assert!(a.meets(&c));
        assert!(!b.meets(&c));
        assert!(a.meets(&a));
    }

    #[test]
    fn congruence_matches_the_gcd_and_the_crt() {
        for mu in 1u64..=16 {
            for mv in 1u64..=16 {
                let g = euclid(mu, mv);
                assert_eq!(gcd(mu, mv), g, "gcd({mu}, {mv})");
                for su in 0..mu {
                    for sv in 0..mv {
                        let (a, b) = (row(su, mu), row(sv, mv));
                        let want = su % g == sv % g;
                        assert_eq!(a.meets(&b), want, "{su}/{mu} vs {sv}/{mv}");
                        assert_eq!(a.meeting(&b, 0).is_some(), want);
                    }
                }
            }
        }
    }

    #[test]
    fn meeting_matches_brute_force() {
        for m1 in 1u64..=12 {
            for m2 in 1u64..=12 {
                let lcm = m1 / euclid(m1, m2) * m2;
                for s1 in 0..m1 {
                    for s2 in 0..m2 {
                        let (a, b) = (row(s1, m1), row(s2, m2));
                        let brute: Vec<u64> =
                            (0..2 * lcm).filter(|t| t % m1 == s1 && t % m2 == s2).collect();
                        match a.meeting(&b, 0) {
                            None => assert!(
                                brute.is_empty(),
                                "({s1} mod {m1}, {s2} mod {m2}): CRT says never, brute {brute:?}"
                            ),
                            Some((t0, l)) => {
                                assert_eq!(l, u128::from(lcm));
                                assert!(t0 < l, "first solution must be canonical");
                                let t0 = t0 as u64;
                                assert_eq!(
                                    brute,
                                    vec![t0, t0 + lcm],
                                    "({s1} mod {m1}, {s2} mod {m2})"
                                );
                                for start in [0u64, 1, lcm - 1, lcm, 3 * lcm + 2] {
                                    let first = (start..)
                                        .find(|t| t % m1 == s1 && t % m2 == s2)
                                        .expect("the progression passes every start");
                                    assert_eq!(
                                        a.meeting(&b, start),
                                        Some((u128::from(first - start), l)),
                                        "start {start}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn meeting_is_total_at_the_u64_boundary() {
        let max = u64::MAX;
        let rows = [
            row(0, 1 << 63),
            row((1 << 63) - 1, 1 << 63),
            row(5, max),
            row(max - 1, max),
            row(5, max - 1),
            row(max - 2, max - 1),
            row(2, 3),
            row(7, (1 << 62) + 1),
            row(0, 1),
        ];
        for a in &rows {
            for b in &rows {
                let g = euclid(a.modulus, b.modulus);
                let lcm = u128::from(a.modulus / g) * u128::from(b.modulus);
                assert_eq!(a.meets(b), a.meeting(b, 0).is_some(), "{a:?} vs {b:?}");
                match a.meeting(b, 0) {
                    None => assert_ne!(a.slot % g, b.slot % g, "{a:?} vs {b:?}"),
                    Some((t0, l)) => {
                        assert_eq!(l, lcm, "{a:?} vs {b:?}");
                        assert!(t0 < l);
                        assert_eq!(t0 % u128::from(a.modulus), u128::from(a.slot));
                        assert_eq!(t0 % u128::from(b.modulus), u128::from(b.slot));
                        let (o, _) = a.meeting(b, max).expect("the same progressions meet");
                        assert!(o < l);
                        let t = u128::from(max) + o;
                        assert_eq!(t % u128::from(a.modulus), u128::from(a.slot));
                        assert_eq!(t % u128::from(b.modulus), u128::from(b.slot));
                    }
                }
            }
        }
        assert_eq!(row(0, max).offset_from(max), 0);
        assert_eq!(row(max - 1, max).offset_from(0), max - 1);
        assert_eq!(row(0, 1 << 63).offset_from(max), 1);
    }

    #[test]
    fn omega_schedule_periods_match_rho() {
        let sched = CodeSchedule::new(EliasCode::omega());
        for c in 1..200u64 {
            let slot = sched.slot(c);
            assert_eq!(slot.modulus, 1u64 << crate::rho_omega(c));
        }
    }

    #[test]
    fn omega_schedule_has_no_conflicts() {
        let sched = CodeSchedule::new(EliasCode::omega());
        assert_eq!(sched.find_conflict(300), None);
    }

    #[test]
    fn unary_schedule_has_no_conflicts_but_huge_periods() {
        let sched = CodeSchedule::new(UnaryCode);
        assert_eq!(sched.find_conflict(40), None);
        assert_eq!(sched.slot(10).modulus, 1 << 10);
    }

    #[test]
    fn owner_of_holiday_is_unique_and_consistent() {
        let sched = CodeSchedule::new(EliasCode::omega());
        for holiday in 0..256u64 {
            if let Some(owner) = sched.owner_of_holiday(holiday, 64) {
                assert!(sched.is_happy(owner, holiday));
                // No other colour owns it.
                for c in 1..=64u64 {
                    if c != owner {
                        assert!(!sched.is_happy(c, holiday), "holiday {holiday}: {c} and {owner}");
                    }
                }
            }
        }
    }

    #[test]
    fn is_happy_agrees_with_the_suffix_definition() {
        // The paper's literal test: colour `c` is happy at holiday `t` iff
        // the reversed codeword of `c` is a suffix of the binary
        // representation of `t`, padded with leading zeros.
        for code in [EliasCode::gamma(), EliasCode::delta(), EliasCode::omega()] {
            let sched = CodeSchedule::new(code);
            for color in 1..64u64 {
                let reversed: String = sched
                    .code()
                    .encode(color)
                    .reversed()
                    .bits()
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                for holiday in 0..512u64 {
                    assert_eq!(
                        sched.is_happy(color, holiday),
                        format!("{holiday:064b}").ends_with(&reversed),
                        "{} colour {color} holiday {holiday}",
                        sched.code().name()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_example_color_one_has_period_two() {
        // ω(1) = "0": offset 0, period 2 → happy every other holiday, the
        // best any colour can do under the omega schedule.
        let sched = CodeSchedule::new(EliasCode::omega());
        assert_eq!(sched.slot(1), row(0, 2));
    }

    proptest! {
        #[test]
        fn happiness_is_periodic(color in 1u64..500, k in 0u64..1_000) {
            let sched = CodeSchedule::new(EliasCode::omega());
            let slot = sched.slot(color);
            prop_assert!(sched.is_happy(color, slot.slot + k * slot.modulus));
        }

        #[test]
        fn gamma_and_delta_schedules_also_conflict_free(holiday in 0u64..100_000u64) {
            for code in [EliasCode::gamma(), EliasCode::delta()] {
                let sched = CodeSchedule::new(code);
                let happy: Vec<u64> = (1..=100u64).filter(|&c| sched.is_happy(c, holiday)).collect();
                prop_assert!(happy.len() <= 1, "{:?} happy at {holiday}", happy);
            }
        }

        #[test]
        fn offset_from_reaches_the_first_owned_holiday(
            slot in 0u64..1_000,
            modulus in 1u64..1_000,
            start in 0u64..10_000,
        ) {
            let s = row(slot % modulus, modulus);
            let o = s.offset_from(start);
            prop_assert!(o < s.modulus);
            prop_assert!(s.contains(start + o));
            prop_assert!((start..start + o).all(|t| !s.contains(t)));
        }
    }
}
