//! The distributed degree-bound slot assignment of paper §5.2.
//!
//! The sequential §5.1 algorithm assigns each node `p` of degree `d` an
//! integer `x ∈ [0, 2^j)` with `j = ⌈log₂(d+1)⌉`, processing nodes in
//! decreasing degree order so that a free residue always exists
//! (Lemma 5.1).  The distributed version runs `⌈log₂(Δ+1)⌉ + 1` *phases*,
//! from the largest exponent down to 0; in phase `i` exactly the nodes with
//! `⌈log₂(deg+1)⌉ = i` participate in a restricted-palette distributed
//! colouring where the palette excludes every residue (mod `2^i`) already
//! taken by a neighbour from an earlier phase.  Lemma 5.2 shows no two
//! adjacent nodes can end up hosting the same holiday.

use fhg_coloring::slot_exponent;
use fhg_graph::{Graph, NodeId};

use crate::coloring::list_coloring_among;
use crate::simulator::ExecutionStats;

/// Result of the distributed §5.2 slot assignment.
#[derive(Debug, Clone)]
pub struct SlotAssignmentOutcome {
    /// The integer slot chosen by every node; node `u` hosts every holiday
    /// `t ≡ slots[u] (mod 2^exponents[u])`.
    pub slots: Vec<u64>,
    /// The slot exponent of every node (`⌈log₂(deg+1)⌉`).
    pub exponents: Vec<u32>,
    /// Number of phases executed (`⌈log₂(Δ+1)⌉ + 1`).
    pub phases: u32,
    /// Summed statistics over all phases.
    pub stats: ExecutionStats,
}

impl SlotAssignmentOutcome {
    /// The period of node `u`: `2^{⌈log₂(deg+1)⌉} ≤ 2·deg` (Theorem 5.3).
    pub fn period(&self, u: NodeId) -> u64 {
        1u64 << self.exponents[u]
    }
}

/// Runs the §5.2 distributed degree-bound slot assignment.
///
/// `seed` drives all per-node randomness; the result is deterministic per
/// seed.  Panics only if the internal round budget is exceeded, which the
/// Lemma 5.1 palette-size argument makes astronomically unlikely.
pub fn distributed_slot_assignment(graph: &Graph, seed: u64) -> SlotAssignmentOutcome {
    let n = graph.node_count();
    let exponents: Vec<u32> = graph.nodes().map(|u| slot_exponent(graph.degree(u))).collect();
    let max_exponent = exponents.iter().copied().max().unwrap_or(0);
    let mut slots: Vec<Option<u64>> = vec![None; n];
    let mut stats = ExecutionStats { rounds: 0, messages: 0, completed: true };
    let max_rounds_per_phase = 64 + 40 * (n.max(2) as f64).log2().ceil() as u64;
    // The participants of each phase: `members[i]` holds the nodes of
    // exponent `i`, in node order.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); max_exponent as usize + 1];
    for u in graph.nodes() {
        members[exponents[u] as usize].push(u);
    }
    // One residue scratch, as wide as the first phase's modulus.
    let mut blocked = vec![false; 1 << max_exponent];

    // Phases from the largest exponent (highest degree class) down to 0.
    for (phase_index, i) in (0..=max_exponent).rev().enumerate() {
        let phase = &members[i as usize];
        if phase.is_empty() {
            continue;
        }
        let modulus = 1u64 << i;
        let blocked = &mut blocked[..modulus as usize];
        // Restricted palettes, built for this phase's participants only:
        // residues not blocked by already-assigned neighbours.
        let mut palettes = vec![Vec::new(); n];
        let mut participants = vec![false; n];
        for &u in phase {
            blocked.fill(false);
            for &v in graph.neighbors(u) {
                if let Some(x) = slots[v] {
                    blocked[(x % modulus) as usize] = true;
                }
            }
            palettes[u] = (0..modulus).filter(|&x| !blocked[x as usize]).collect();
            participants[u] = true;
        }
        let phase_seed = seed.wrapping_add(0x9E37_79B9u64.wrapping_mul(phase_index as u64 + 1));
        let outcome =
            list_coloring_among(graph, palettes, participants, phase_seed, max_rounds_per_phase);
        stats.rounds += outcome.stats.rounds;
        stats.messages += outcome.stats.messages;
        stats.completed &= outcome.stats.completed;
        for &u in phase {
            slots[u] = Some(
                outcome.colors[u]
                    .expect("restricted palettes are large enough (Lemma 5.1) to terminate"),
            );
        }
    }

    SlotAssignmentOutcome {
        slots: slots.into_iter().map(|s| s.unwrap_or(0)).collect(),
        exponents,
        phases: max_exponent + 1,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhg_codes::Progression;
    use fhg_graph::generators::structured::{complete, cycle, path, star};
    use fhg_graph::generators::{barabasi_albert, erdos_renyi};
    use proptest::prelude::*;

    /// Node `u`'s hosting progression.
    fn row(out: &SlotAssignmentOutcome, u: NodeId) -> Progression {
        Progression { slot: out.slots[u], modulus: out.period(u) }
    }

    /// Lemma 5.2: no two adjacent nodes ever host on the same holiday.
    fn conflict_free(out: &SlotAssignmentOutcome, graph: &Graph) -> bool {
        graph.edges().all(|e| !row(out, e.u).meets(&row(out, e.v)))
    }

    #[test]
    fn classic_graphs_are_conflict_free_with_2d_periods() {
        for (i, g) in [path(12), cycle(13), star(20), complete(9), erdos_renyi(120, 0.06, 3)]
            .into_iter()
            .enumerate()
        {
            let out = distributed_slot_assignment(&g, i as u64);
            assert!(out.stats.completed, "graph #{i} hit the round budget");
            assert!(conflict_free(&out, &g), "graph #{i} has a hosting conflict");
            for u in g.nodes() {
                let d = g.degree(u);
                assert!(out.period(u) >= (d + 1) as u64 || d == 0);
                assert!(out.period(u) <= (2 * d.max(1)) as u64 || d == 0);
                assert!(out.slots[u] < out.period(u));
            }
        }
    }

    #[test]
    fn every_holiday_has_an_independent_hosting_set() {
        let g = erdos_renyi(60, 0.1, 9);
        let out = distributed_slot_assignment(&g, 5);
        // One member buffer for the whole sweep (`is_independent_set` would
        // rebuild it per holiday).
        let mut hosts = fhg_graph::FixedBitSet::new(g.node_count());
        for t in 0..256u64 {
            hosts.clear();
            g.nodes().filter(|&u| row(&out, u).contains(t)).for_each(|u| {
                hosts.insert(u);
            });
            assert!(g.is_independent(&hosts), "holiday {t}: hosting set not independent");
        }
    }

    #[test]
    fn star_center_gets_the_long_period() {
        let g = star(9); // centre degree 8 → period 16; leaves degree 1 → period 2
        let out = distributed_slot_assignment(&g, 1);
        assert_eq!(out.period(0), 16);
        for leaf in 1..9 {
            assert_eq!(out.period(leaf), 2);
        }
        assert!(conflict_free(&out, &g));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = erdos_renyi(70, 0.08, 2);
        let a = distributed_slot_assignment(&g, 42);
        let b = distributed_slot_assignment(&g, 42);
        assert_eq!(a.slots, b.slots);
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let out = distributed_slot_assignment(&Graph::new(0), 0);
        assert!(out.slots.is_empty());
        let g = Graph::new(4);
        let out = distributed_slot_assignment(&g, 0);
        assert!(out.slots.iter().all(|&s| s == 0));
        assert!(out.exponents.iter().all(|&e| e == 0));
        // Isolated parents host every holiday.
        assert!(row(&out, 2).contains(0) && row(&out, 2).contains(1));
    }

    #[test]
    fn heavy_tailed_graph_gives_hubs_long_periods_and_leaves_short_ones() {
        let g = barabasi_albert(400, 2, 7);
        let out = distributed_slot_assignment(&g, 3);
        assert!(conflict_free(&out, &g));
        let min_degree_node = g.nodes().min_by_key(|&u| g.degree(u)).unwrap();
        let max_degree_node = g.nodes().max_by_key(|&u| g.degree(u)).unwrap();
        assert!(out.period(min_degree_node) <= 4);
        assert!(out.period(max_degree_node) >= g.degree(max_degree_node) as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_graphs_satisfy_theorem_5_3(seed in 0u64..100, p in 0.02f64..0.3) {
            let g = erdos_renyi(40, p, seed);
            let out = distributed_slot_assignment(&g, seed ^ 0x55);
            prop_assert!(out.stats.completed);
            prop_assert!(conflict_free(&out, &g));
            for u in g.nodes() {
                let d = g.degree(u);
                if d > 0 {
                    prop_assert!(out.period(u) <= 2 * d as u64);
                }
            }
        }
    }
}
