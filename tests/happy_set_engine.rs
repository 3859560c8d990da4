//! Cross-crate engine tests: the `fill_happy_set` bitset path and the
//! `happy_set` Vec shim agree bitwise for every scheduler, on every graph
//! family, across seeds — plus round-trip and independence-equivalence
//! coverage for the `HappySet` type through the public umbrella API.

use proptest::prelude::*;

use fhg::core::schedulers::standard_suite;
use fhg::core::HappySet;
use fhg::graph::generators::{erdos_renyi, Family};
use fhg::graph::properties;
use fhg::graph::FixedBitSet;

#[test]
fn happy_set_roundtrips_through_vec() {
    let mut s = HappySet::new(500);
    let members = [0usize, 63, 64, 65, 128, 499];
    for &p in &members {
        s.insert(p);
    }
    let vec = s.to_vec();
    assert_eq!(vec, members.to_vec());
    let back = HappySet::from_members(500, vec.iter().copied());
    assert_eq!(back, s);
    assert_eq!(back.len(), members.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every scheduler of the standard suite produces bitwise-identical
    /// schedules through the Vec API and the buffer API.  Two instances are
    /// built from identical inputs so stateful schedulers advance twin
    /// states.
    #[test]
    fn both_apis_emit_identical_schedules(family in prop::sample::select(Family::ALL.to_vec()),
                                          seed in 0u64..200) {
        let graph = family.generate(36, 4.0, seed);
        let via_vec = standard_suite(&graph, seed ^ 0x5A5A);
        let via_fill = standard_suite(&graph, seed ^ 0x5A5A);
        for (mut a, mut b) in via_vec.into_iter().zip(via_fill) {
            prop_assert_eq!(a.name(), b.name());
            let start = a.first_holiday();
            let mut buf = HappySet::new(b.node_count());
            for t in start..start + 64 {
                let vec_api = a.happy_set(t);
                b.fill_happy_set(t, &mut buf);
                prop_assert_eq!(
                    &vec_api, &buf.to_vec(),
                    "{} diverged at holiday {} on {}", a.name(), t, family.name()
                );
                // And the bitset agrees membership-wise with the Vec.
                for &p in &vec_api {
                    prop_assert!(buf.contains(p));
                }
                prop_assert_eq!(vec_api.len(), buf.len());
            }
        }
    }

    /// The bitset independence check agrees with the slice checker on the
    /// actual happy sets schedulers emit (not just arbitrary subsets).
    #[test]
    fn independence_checkers_agree_on_real_happy_sets(seed in 0u64..100) {
        let graph = erdos_renyi(60, 0.08, seed);
        for mut s in standard_suite(&graph, seed) {
            let start = s.first_holiday();
            let mut buf = HappySet::new(s.node_count());
            for t in start..start + 24 {
                s.fill_happy_set(t, &mut buf);
                let slice = buf.to_vec();
                let reference = properties::is_independent_set(&graph, &slice);
                prop_assert!(reference, "{} emitted a conflicting set", s.name());
                prop_assert_eq!(graph.is_independent(buf.as_bitset()), reference);
            }
        }
    }

    /// Corrupting a valid happy set with a conflicting neighbour flips both
    /// checkers to false.
    #[test]
    fn checkers_reject_injected_conflicts(seed in 0u64..60) {
        let graph = erdos_renyi(50, 0.15, seed);
        let Some(edge) = graph.edges().next() else { return; };
        let mut bits = FixedBitSet::new(50);
        bits.insert(edge.u);
        bits.insert(edge.v);
        prop_assert!(!graph.is_independent(&bits));
        prop_assert!(!properties::is_independent_set(&graph, &[edge.u, edge.v]));
    }
}
