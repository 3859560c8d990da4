//! The "first come first grab" chaotic baseline (§1).
//!
//! Each holiday, parents wake up at independent uniformly random times and
//! grab whichever of their children have not been grabbed yet.  A parent is
//! happy exactly when it wakes up before *all* of its in-laws, which happens
//! with probability `1/(deg(p) + 1)`; the expected wait between happy
//! holidays is therefore `deg(p) + 1`.  This is the fairness landmark the
//! paper's deterministic algorithms are measured against — but it offers no
//! worst-case guarantee, is not periodic, and requires fresh randomness every
//! holiday.
//!
//! Parent `p`'s wake time at holiday `t` is a hash of `(seed, t, p)`: the
//! `p`-th output of a SplitMix64 stream seeded from `(seed, t)`, whose
//! finalizer is the mixer `seed_from_u64` and the LOCAL simulator's node
//! seeding use.  The wake key is the hash's high 32 bits above `p` in the
//! low 32 bits, so keys are distinct and the wake order is strict: the
//! happy set is exactly the set of local minima of the keys, and the global
//! minimum always hosts.  A holiday therefore needs no state carried over
//! from the last one, and [`Scheduler::fill_happy_set`] is a pure function
//! of `t`.  It hashes every parent once into a reused key buffer, then
//! writes the happy set a word at a time ([`HappySet::assign_where`]): each
//! parent compares its key with its in-laws' eight at a time, without
//! branches inside a block, and stops at the first block that holds an
//! earlier riser.

use fhg_graph::{Graph, HappySet, NodeId};

use crate::scheduler::Scheduler;

/// In-laws whose keys a parent compares without branches before it may
/// stop.  A plain early exit branches on every in-law it reads, and one
/// fold over every in-law reads all of them.  On analyze-mix's six
/// stateful graphs (2048 parents, mean degree 4, 10 and 32; a 2-core
/// 2.1 GHz Xeon) blocks of 8 emitted in 25% less time than the early exit
/// and 30% less than the full fold; blocks of 4 and 16 were slower.
const WAKE_BLOCK: usize = 8;

/// The SplitMix64 increment (the golden-ratio constant).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The state of holiday `t`'s SplitMix64 stream under `seed`.
fn holiday_stream(seed: u64, t: u64) -> u64 {
    mix(mix(seed) ^ t.wrapping_mul(GOLDEN))
}

/// Parent `p`'s wake key in the holiday whose stream is `stream`: the
/// high 32 bits of the stream's `p`-th output, above `p`.
fn wake_key(stream: u64, p: NodeId) -> u64 {
    let hash = mix(stream.wrapping_add((p as u64).wrapping_add(1).wrapping_mul(GOLDEN)));
    (hash & !0xFFFF_FFFF) | p as u64
}

/// Whether parent `p` wakes strictly before each of its `in_laws`, folded
/// without branches over blocks of [`WAKE_BLOCK`] in-laws, stopping after
/// the first block that fails.  Strict, so that two in-laws could not both
/// host even on a tied key.
fn wakes_first(keys: &[u64], p: NodeId, in_laws: &[NodeId]) -> bool {
    let key = keys[p];
    in_laws
        .chunks(WAKE_BLOCK)
        .all(|block| block.iter().fold(true, |first, &q| first & (key < keys[q])))
}

/// The random wake-up baseline.
#[derive(Debug, Clone)]
pub struct FirstComeFirstGrab {
    graph: Graph,
    seed: u64,
    /// Reusable key scratch: `keys[p]` is parent `p`'s wake key at the
    /// holiday being filled.
    keys: Vec<u64>,
}

impl FirstComeFirstGrab {
    /// Creates the baseline with a deterministic seed.
    ///
    /// # Panics
    /// Panics if the graph has more than `2³²` parents: a wake key carries
    /// its parent in its low 32 bits.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        let n = graph.node_count();
        assert!(n as u64 <= 1 << 32, "first come first grab keys at most 2^32 parents, got {n}");
        FirstComeFirstGrab { graph: graph.clone(), seed, keys: vec![0; n] }
    }

    /// The empirical happiness probability `1/(deg(p)+1)` the process targets.
    pub fn target_probability(&self, p: NodeId) -> f64 {
        1.0 / (self.graph.degree(p) as f64 + 1.0)
    }
}

impl Scheduler for FirstComeFirstGrab {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        let stream = holiday_stream(self.seed, t);
        for (p, key) in self.keys.iter_mut().enumerate() {
            *key = wake_key(stream, p);
        }
        let (graph, keys) = (&self.graph, &self.keys);
        out.assign_where(keys.len(), |p| wakes_first(keys, p, graph.neighbors(p)));
    }

    fn name(&self) -> &'static str {
        "first-come-first-grab"
    }

    fn is_periodic(&self) -> bool {
        false
    }

    fn period(&self, _p: NodeId) -> Option<u64> {
        None
    }

    fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
        // No worst-case guarantee; only the expectation deg + 1.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_schedule;
    use crate::scheduler::happy_vec;
    use fhg_graph::generators::erdos_renyi;
    use fhg_graph::generators::structured::{complete, cycle, star};

    #[test]
    fn happy_sets_are_always_independent() {
        // The grab set is the set of local minima of a random wake-up order:
        // always independent (two in-laws cannot both wake first), though not
        // necessarily maximal — a parent may lose the race for one child yet
        // block nobody else.
        let g = erdos_renyi(40, 0.15, 3);
        let mut s = FirstComeFirstGrab::new(&g, 9);
        // One checker and one member buffer reused across the sweep
        // (`is_independent_set` would rebuild its scratch per holiday).
        let checker = crate::analysis::GraphChecker::new(&g);
        let mut members = fhg_graph::FixedBitSet::new(g.node_count());
        for t in 0..200 {
            let happy = happy_vec(&mut s, t);
            members.clear();
            happy.iter().for_each(|&p| {
                members.insert(p);
            });
            assert!(
                crate::analysis::HolidayChecker::check(&checker, t, &members),
                "holiday {t}: the grab set must be independent"
            );
            assert!(!happy.is_empty(), "some parent always wakes first overall");
        }
    }

    /// The parents whose key is below every in-law's key, by brute force.
    fn local_minima(g: &Graph, seed: u64, t: u64) -> Vec<NodeId> {
        let stream = holiday_stream(seed, t);
        let key = |p| wake_key(stream, p);
        g.nodes().filter(|&p| g.neighbors(p).iter().all(|&q| key(p) < key(q))).collect()
    }

    #[test]
    fn each_holiday_hosts_exactly_the_local_minima_of_the_wake_keys() {
        // Degrees past one block of in-laws take more than one fold.
        let graphs = [erdos_renyi(120, 0.1, 3), star(40), complete(12), cycle(9)];
        for (i, g) in graphs.iter().enumerate() {
            let seed = 17 + i as u64;
            let mut s = FirstComeFirstGrab::new(g, seed);
            for t in 0..64 {
                let happy = happy_vec(&mut s, t);
                assert_eq!(happy, local_minima(g, seed, t), "graph {i}, holiday {t}");
                // The earliest riser always hosts, so no holiday is empty.
                let stream = holiday_stream(seed, t);
                let earliest = g.nodes().min_by_key(|&p| wake_key(stream, p)).unwrap();
                assert!(happy.contains(&earliest), "graph {i}, holiday {t}: no host");
            }
        }
    }

    #[test]
    fn a_tied_key_lets_neither_in_law_host() {
        // Keys are distinct by construction; the order must stay strict
        // anyway, in the first block of in-laws and past it.
        let in_laws: Vec<NodeId> = (1..12).collect();
        for tied in [1, 10] {
            let mut keys = vec![100u64; 12];
            keys[0] = 50;
            keys[tied] = 50;
            assert!(!wakes_first(&keys, 0, &in_laws), "tie with in-law {tied}");
            assert!(!wakes_first(&keys, tied, &[0]), "tie with in-law {tied}, reversed");
            keys[tied] = 51;
            assert!(wakes_first(&keys, 0, &in_laws), "in-law {tied} wakes later");
        }
    }

    #[test]
    fn a_holiday_is_a_pure_function_of_its_number() {
        let g = erdos_renyi(80, 0.08, 5);
        let mut s = FirstComeFirstGrab::new(&g, 12);
        let first = happy_vec(&mut s, 5);
        happy_vec(&mut s, 3);
        assert_eq!(happy_vec(&mut s, 5), first, "refilling holiday 5 must give the same set");
        let mut fresh = FirstComeFirstGrab::new(&g, 12);
        assert_eq!(happy_vec(&mut fresh, 5), first, "a fresh scheduler agrees");
    }

    #[test]
    fn happiness_frequency_approaches_one_over_degree_plus_one() {
        let g = complete(5); // every node has degree 4, target probability 1/5
        let mut s = FirstComeFirstGrab::new(&g, 1);
        let horizon = 5000u64;
        let analysis = analyze_schedule(&g, &mut s, horizon);
        for node in &analysis.per_node {
            let freq = node.happy_count as f64 / horizon as f64;
            assert!(
                (freq - 0.2).abs() < 0.03,
                "node {} happiness frequency {freq} too far from 1/5",
                node.node
            );
        }
    }

    #[test]
    fn star_center_rarely_hosts_but_leaves_usually_do() {
        let g = star(9);
        let mut s = FirstComeFirstGrab::new(&g, 4);
        let horizon = 4000u64;
        let analysis = analyze_schedule(&g, &mut s, horizon);
        let center = &analysis.per_node[0];
        let center_freq = center.happy_count as f64 / horizon as f64;
        assert!((center_freq - 1.0 / 9.0).abs() < 0.03, "centre frequency {center_freq}");
        let leaf = &analysis.per_node[3];
        let leaf_freq = leaf.happy_count as f64 / horizon as f64;
        assert!((leaf_freq - 0.5).abs() < 0.05, "leaf frequency {leaf_freq}");
    }

    #[test]
    fn deterministic_per_seed_but_not_across_seeds() {
        let g = cycle(12);
        let mut a = FirstComeFirstGrab::new(&g, 7);
        let mut b = FirstComeFirstGrab::new(&g, 7);
        let mut c = FirstComeFirstGrab::new(&g, 8);
        let run_a: Vec<_> = (0..20).map(|t| happy_vec(&mut a, t)).collect();
        let run_b: Vec<_> = (0..20).map(|t| happy_vec(&mut b, t)).collect();
        let run_c: Vec<_> = (0..20).map(|t| happy_vec(&mut c, t)).collect();
        assert_eq!(run_a, run_b);
        assert_ne!(run_a, run_c);
    }

    #[test]
    fn metadata_and_degenerate_graphs() {
        let g = Graph::new(3);
        let mut s = FirstComeFirstGrab::new(&g, 0);
        assert_eq!(happy_vec(&mut s, 0), vec![0, 1, 2], "isolated parents always host");
        assert_eq!(s.name(), "first-come-first-grab");
        assert!(!s.is_periodic());
        assert_eq!(s.period(0), None);
        assert_eq!(s.unhappiness_bound(0), None);
        assert_eq!(s.target_probability(0), 1.0);
        let mut empty = FirstComeFirstGrab::new(&Graph::new(0), 0);
        assert!(happy_vec(&mut empty, 0).is_empty());
    }
}
