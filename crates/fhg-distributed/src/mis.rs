//! Luby's randomised maximal-independent-set (MIS) algorithm.
//!
//! MIS is the other canonical LOCAL-model symmetry-breaking primitive the
//! paper's related-work discussion points to (Barenboim–Elkin monograph).  It
//! is used here (a) as an independently useful substrate, (b) as a contrast
//! to the "first come first grab" process — the grab set consists of the
//! local minima of a random wake-up order, an independent set that Luby's
//! algorithm effectively completes into a *maximal* one — and (c) as a
//! comparison point for happy-set sizes in experiment E10.

use rand::Rng;

use fhg_graph::{properties, Graph, NodeId};

use crate::simulator::{ExecutionStats, NodeContext, Protocol, RoundOutput, Simulator};

/// Result of a distributed MIS execution.
#[derive(Debug, Clone)]
pub struct MisOutcome {
    /// Membership flag per node.
    pub in_mis: Vec<bool>,
    /// Simulation statistics.
    pub stats: ExecutionStats,
}

impl MisOutcome {
    /// The members as a node list.
    pub fn members(&self) -> Vec<NodeId> {
        self.in_mis.iter().enumerate().filter_map(|(u, &m)| m.then_some(u)).collect()
    }

    /// Verifies maximal independence against the graph.
    pub fn is_maximal_independent(&self, graph: &Graph) -> bool {
        properties::is_maximal_independent_set(graph, &self.members())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Undecided,
    InMis,
    Out,
}

/// Per-node state of Luby's algorithm.
#[derive(Debug, Clone)]
pub struct LubyState {
    status: Status,
    /// The random priority drawn this round (if undecided and proposing).
    priority: Option<u64>,
    announced: bool,
    /// Ids of neighbours known to still be undecided.
    active_neighbors: Vec<NodeId>,
}

/// Messages exchanged by Luby's MIS protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LubyMsg {
    /// "My random priority this round is the payload."
    Priority(u64),
    /// "I joined the independent set."
    EnteredMis,
    /// "I am permanently out (a neighbour joined)."
    Dropped,
}

/// Luby's MIS protocol.
pub struct LubyProtocol;

impl Protocol for LubyProtocol {
    type State = LubyState;
    type Message = LubyMsg;

    fn init(&self, ctx: &mut NodeContext<'_>) -> LubyState {
        LubyState {
            status: Status::Undecided,
            priority: None,
            announced: false,
            active_neighbors: ctx.neighbors.to_vec(),
        }
    }

    fn step(
        &self,
        state: &mut LubyState,
        inbox: &[(NodeId, LubyMsg)],
        ctx: &mut NodeContext<'_>,
    ) -> RoundOutput<LubyMsg> {
        // Digest last round's traffic.
        let mut highest_neighbor_priority: Option<(u64, NodeId)> = None;
        for (from, msg) in inbox {
            match msg {
                LubyMsg::Priority(p) => {
                    let candidate = (*p, *from);
                    if highest_neighbor_priority.is_none_or(|best| candidate > best) {
                        highest_neighbor_priority = Some(candidate);
                    }
                }
                LubyMsg::EnteredMis => {
                    if state.status == Status::Undecided {
                        state.status = Status::Out;
                    }
                    state.active_neighbors.retain(|v| v != from);
                }
                LubyMsg::Dropped => {
                    state.active_neighbors.retain(|v| v != from);
                }
            }
        }

        // Resolve our own proposal from last round.
        if state.status == Status::Undecided {
            if let Some(p) = state.priority.take() {
                let wins = match highest_neighbor_priority {
                    None => true,
                    Some((np, nid)) => (p, ctx.node) > (np, nid),
                };
                if wins {
                    state.status = Status::InMis;
                }
            }
        } else {
            state.priority = None;
        }

        match state.status {
            Status::InMis => {
                if !state.announced {
                    state.announced = true;
                    RoundOutput::Broadcast(LubyMsg::EnteredMis)
                } else {
                    RoundOutput::Silent
                }
            }
            Status::Out => {
                if !state.announced {
                    state.announced = true;
                    RoundOutput::Broadcast(LubyMsg::Dropped)
                } else {
                    RoundOutput::Silent
                }
            }
            Status::Undecided => {
                if state.active_neighbors.is_empty() {
                    // Every neighbour is decided and none entered the MIS
                    // (otherwise we would be Out), so we can join.
                    state.status = Status::InMis;
                    state.announced = true;
                    return RoundOutput::Broadcast(LubyMsg::EnteredMis);
                }
                let p: u64 = ctx.rng.gen();
                state.priority = Some(p);
                RoundOutput::Broadcast(LubyMsg::Priority(p))
            }
        }
    }

    fn is_terminated(&self, state: &LubyState) -> bool {
        state.status != Status::Undecided && state.announced
    }
}

/// Runs Luby's MIS algorithm, returning membership and statistics.
pub fn luby_mis(graph: &Graph, seed: u64, max_rounds: u64) -> MisOutcome {
    let protocol = LubyProtocol;
    let sim = Simulator::new(graph, &protocol);
    let (states, stats) = sim.run(seed, max_rounds);
    MisOutcome { in_mis: states.iter().map(|s| s.status == Status::InMis).collect(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhg_graph::generators::structured::{complete, cycle, path, star};
    use fhg_graph::generators::{erdos_renyi, random_tree};
    use proptest::prelude::*;

    fn rounds_budget(n: usize) -> u64 {
        64 + 40 * (n.max(2) as f64).log2().ceil() as u64
    }

    #[test]
    fn mis_on_classic_graphs() {
        for (i, g) in
            [path(10), cycle(11), star(20), complete(8), random_tree(60, 1)].into_iter().enumerate()
        {
            let out = luby_mis(&g, i as u64, rounds_budget(g.node_count()));
            assert!(out.stats.completed, "graph #{i} did not complete");
            assert!(out.is_maximal_independent(&g), "graph #{i} not a maximal independent set");
        }
    }

    #[test]
    fn clique_mis_has_exactly_one_member() {
        let g = complete(15);
        let out = luby_mis(&g, 3, rounds_budget(15));
        assert_eq!(out.members().len(), 1);
    }

    #[test]
    fn star_mis_is_leaves_or_center() {
        let g = star(12);
        let out = luby_mis(&g, 4, rounds_budget(12));
        let members = out.members();
        if members.contains(&0) {
            assert_eq!(members.len(), 1);
        } else {
            assert_eq!(members.len(), 11);
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let out = luby_mis(&Graph::new(0), 0, 10);
        assert!(out.members().is_empty());
        assert!(out.stats.completed);
        let g = Graph::new(6);
        let out = luby_mis(&g, 0, 10);
        assert_eq!(out.members().len(), 6, "all isolated nodes join the MIS");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = erdos_renyi(100, 0.05, 7);
        let a = luby_mis(&g, 11, rounds_budget(100));
        let b = luby_mis(&g, 11, rounds_budget(100));
        assert_eq!(a.in_mis, b.in_mis);
    }

    #[test]
    fn round_complexity_is_small_in_practice() {
        let g = erdos_renyi(1500, 0.01, 2);
        let out = luby_mis(&g, 0, rounds_budget(1500));
        assert!(out.stats.completed);
        assert!(out.stats.rounds <= 80, "Luby took {} rounds on n=1500", out.stats.rounds);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn luby_always_produces_a_maximal_independent_set(seed in 0u64..200, p in 0.01f64..0.25) {
            let g = erdos_renyi(50, p, seed);
            let out = luby_mis(&g, seed ^ 0xABCD, rounds_budget(50));
            prop_assert!(out.stats.completed);
            prop_assert!(out.is_maximal_independent(&g));
        }
    }
}
