//! The synchronous LOCAL-model simulator.
//!
//! A [`Protocol`] describes what one node does in one round; the
//! [`Simulator`] executes the protocol on every node of a conflict graph in
//! lock-step rounds, delivering messages between neighbours, until every node
//! has terminated (or a round limit is hit).  Rounds and delivered messages
//! are counted so the experiments can report the communication costs the
//! paper reasons about ("executing each holiday takes another O(1) rounds",
//! Theorem 3.1).
//!
//! Determinism: every node owns a `ChaCha8` RNG seeded from
//! `(simulation seed, node id)`, so an execution is bit-for-bit reproducible
//! regardless of whether node steps run sequentially or on the rayon thread
//! pool.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use fhg_graph::{Graph, NodeId};

/// Per-node, per-round view of the world: everything a LOCAL-model node is
/// allowed to know.
pub struct NodeContext<'a> {
    /// This node's identifier (nodes know their own ids, as in the LOCAL model).
    pub node: NodeId,
    /// Sorted neighbour ids.
    pub neighbors: &'a [NodeId],
    /// Current round number (0 during `init`).
    pub round: u64,
    /// This node's private randomness source.
    pub rng: &'a mut ChaCha8Rng,
}

impl NodeContext<'_> {
    /// The node's degree.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// What a node wants to transmit at the end of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundOutput<M> {
    /// Send nothing.
    Silent,
    /// Send the same message to every neighbour.
    Broadcast(M),
    /// Send individually addressed messages; targets must be neighbours.
    Unicast(Vec<(NodeId, M)>),
}

/// A distributed algorithm in the synchronous LOCAL model.
pub trait Protocol: Sync {
    /// Per-node state.
    type State: Send;
    /// Message type exchanged between neighbours.
    type Message: Clone + Send + Sync;

    /// Creates the initial state of a node (round 0, before any communication).
    fn init(&self, ctx: &mut NodeContext<'_>) -> Self::State;

    /// Executes one round: consumes the messages received at the start of the
    /// round and returns what to send for delivery at the start of the next.
    fn step(
        &self,
        state: &mut Self::State,
        inbox: &[(NodeId, Self::Message)],
        ctx: &mut NodeContext<'_>,
    ) -> RoundOutput<Self::Message>;

    /// Whether this node has terminated.  A terminated node no longer steps
    /// or sends, but messages addressed to it are still delivered (and
    /// silently dropped).
    fn is_terminated(&self, state: &Self::State) -> bool;
}

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Number of rounds executed (not counting `init`).
    pub rounds: u64,
    /// Total number of point-to-point messages delivered.
    pub messages: u64,
    /// Whether every node terminated before the round limit.
    pub completed: bool,
}

struct NodeSlot<S> {
    state: S,
    rng: ChaCha8Rng,
    inbox: Vec<(NodeId, usize)>, // indices into the round's message pool
}

/// The synchronous round simulator.
pub struct Simulator<'g, P: Protocol> {
    /// A packed copy of the conflict graph.
    graph: Graph,
    protocol: &'g P,
    parallel: bool,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Creates a simulator for `protocol` on `graph`.
    pub fn new(graph: &Graph, protocol: &'g P) -> Self {
        Simulator { graph: graph.clone(), protocol, parallel: false }
    }

    /// Enables rayon-parallel node stepping.  Results are identical to the
    /// sequential execution because all randomness is per-node.
    pub fn parallel(mut self, enabled: bool) -> Self {
        self.parallel = enabled;
        self
    }

    /// Runs the protocol until every node terminates or `max_rounds` rounds
    /// have been executed.  Returns the final per-node states and statistics.
    pub fn run(&self, seed: u64, max_rounds: u64) -> (Vec<P::State>, ExecutionStats) {
        let n = self.graph.node_count();
        let protocol = self.protocol;
        // Initialise nodes.
        let mut slots: Vec<NodeSlot<P::State>> = (0..n)
            .map(|u| {
                let mut rng = node_rng(seed, u);
                let mut ctx = NodeContext {
                    node: u,
                    neighbors: self.graph.neighbors(u),
                    round: 0,
                    rng: &mut rng,
                };
                let state = protocol.init(&mut ctx);
                NodeSlot { state, rng, inbox: Vec::new() }
            })
            .collect();

        let mut stats = ExecutionStats::default();
        // Message pool for the current round: (sender, message) pairs; each
        // node's inbox stores indices into this pool to avoid cloning large
        // messages more than once per recipient.
        let mut pool: Vec<(NodeId, P::Message)> = Vec::new();

        for round in 1..=max_rounds {
            if slots.iter().all(|s| protocol.is_terminated(&s.state)) {
                stats.completed = true;
                break;
            }
            stats.rounds = round;

            // Step every non-terminated node, producing its output.
            let step_one = |u: usize, slot: &mut NodeSlot<P::State>| -> RoundOutput<P::Message> {
                if protocol.is_terminated(&slot.state) {
                    slot.inbox.clear();
                    return RoundOutput::Silent;
                }
                let inbox: Vec<(NodeId, P::Message)> =
                    slot.inbox.iter().map(|&(from, idx)| (from, pool[idx].1.clone())).collect();
                slot.inbox.clear();
                let mut ctx = NodeContext {
                    node: u,
                    neighbors: self.graph.neighbors(u),
                    round,
                    rng: &mut slot.rng,
                };
                protocol.step(&mut slot.state, &inbox, &mut ctx)
            };

            let outputs: Vec<RoundOutput<P::Message>> = if self.parallel {
                slots.par_iter_mut().enumerate().map(|(u, slot)| step_one(u, slot)).collect()
            } else {
                slots.iter_mut().enumerate().map(|(u, slot)| step_one(u, slot)).collect()
            };

            // Deliver messages for the next round.
            pool.clear();
            for (u, output) in outputs.into_iter().enumerate() {
                match output {
                    RoundOutput::Silent => {}
                    RoundOutput::Broadcast(msg) => {
                        let idx = pool.len();
                        pool.push((u, msg));
                        for &v in self.graph.neighbors(u) {
                            slots[v].inbox.push((u, idx));
                            stats.messages += 1;
                        }
                    }
                    RoundOutput::Unicast(targets) => {
                        for (v, msg) in targets {
                            assert!(
                                self.graph.has_edge(u, v),
                                "node {u} attempted to send to non-neighbour {v}"
                            );
                            let idx = pool.len();
                            pool.push((u, msg));
                            slots[v].inbox.push((u, idx));
                            stats.messages += 1;
                        }
                    }
                }
            }
        }
        if !stats.completed {
            stats.completed = slots.iter().all(|s| protocol.is_terminated(&s.state));
        }
        (slots.into_iter().map(|s| s.state).collect(), stats)
    }
}

/// Derives the private RNG of node `u` from the simulation seed.
fn node_rng(seed: u64, u: NodeId) -> ChaCha8Rng {
    // SplitMix-style mixing so nearby (seed, node) pairs decorrelate.
    let mut z = seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhg_graph::generators::erdos_renyi;
    use fhg_graph::generators::structured::{complete, cycle, path, star};
    use rand::Rng;

    /// Every node broadcasts its id once; terminates after it has heard from
    /// all neighbours.  Used to validate message delivery and accounting.
    struct GossipIds;

    #[derive(Debug)]
    struct GossipState {
        heard: Vec<NodeId>,
        sent: bool,
        expected: usize,
    }

    impl Protocol for GossipIds {
        type State = GossipState;
        type Message = NodeId;

        fn init(&self, ctx: &mut NodeContext<'_>) -> GossipState {
            GossipState { heard: Vec::new(), sent: false, expected: ctx.degree() }
        }

        fn step(
            &self,
            state: &mut GossipState,
            inbox: &[(NodeId, NodeId)],
            ctx: &mut NodeContext<'_>,
        ) -> RoundOutput<NodeId> {
            for &(from, id) in inbox {
                assert_eq!(from, id, "gossip carries the sender id");
                state.heard.push(id);
            }
            if !state.sent {
                state.sent = true;
                RoundOutput::Broadcast(ctx.node)
            } else {
                RoundOutput::Silent
            }
        }

        fn is_terminated(&self, state: &GossipState) -> bool {
            state.sent && state.heard.len() >= state.expected
        }
    }

    #[test]
    fn gossip_reaches_all_neighbors_in_two_rounds() {
        for g in [path(6), cycle(7), star(9), complete(5)] {
            let protocol = GossipIds;
            let sim = Simulator::new(&g, &protocol);
            let (states, stats) = sim.run(1, 10);
            assert!(stats.completed);
            assert!(stats.rounds <= 3);
            assert_eq!(stats.messages, 2 * g.edge_count() as u64);
            for (u, s) in states.iter().enumerate() {
                let mut heard = s.heard.clone();
                heard.sort_unstable();
                assert_eq!(heard, g.neighbors(u), "node {u} heard the wrong set");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_executions_agree() {
        let g = erdos_renyi(200, 0.03, 5);
        let protocol = GossipIds;
        let (seq, seq_stats) = Simulator::new(&g, &protocol).run(7, 10);
        let (par, par_stats) = Simulator::new(&g, &protocol).parallel(true).run(7, 10);
        assert_eq!(seq_stats, par_stats);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.heard, b.heard);
        }
    }

    /// A protocol that never terminates, to exercise the round limit.
    struct Forever;

    impl Protocol for Forever {
        type State = u64;
        type Message = ();

        fn init(&self, _ctx: &mut NodeContext<'_>) -> u64 {
            0
        }

        fn step(
            &self,
            state: &mut u64,
            _inbox: &[(NodeId, ())],
            _ctx: &mut NodeContext<'_>,
        ) -> RoundOutput<()> {
            *state += 1;
            RoundOutput::Silent
        }

        fn is_terminated(&self, _state: &u64) -> bool {
            false
        }
    }

    #[test]
    fn round_limit_is_respected() {
        let g = path(4);
        let protocol = Forever;
        let (states, stats) = Simulator::new(&g, &protocol).run(0, 25);
        assert!(!stats.completed);
        assert_eq!(stats.rounds, 25);
        assert!(states.iter().all(|&s| s == 25));
        assert_eq!(stats.messages, 0);
    }

    /// Each node sends a unicast "token" to its smallest neighbour.
    struct SendToSmallest;

    impl Protocol for SendToSmallest {
        type State = (bool, Vec<NodeId>);
        type Message = u8;

        fn init(&self, _ctx: &mut NodeContext<'_>) -> Self::State {
            (false, Vec::new())
        }

        fn step(
            &self,
            state: &mut Self::State,
            inbox: &[(NodeId, u8)],
            ctx: &mut NodeContext<'_>,
        ) -> RoundOutput<u8> {
            state.1.extend(inbox.iter().map(|&(from, _)| from));
            if !state.0 {
                state.0 = true;
                match ctx.neighbors.first() {
                    Some(&v) => RoundOutput::Unicast(vec![(v, 1)]),
                    None => RoundOutput::Silent,
                }
            } else {
                RoundOutput::Silent
            }
        }

        fn is_terminated(&self, state: &Self::State) -> bool {
            state.0
        }
    }

    #[test]
    fn unicast_is_delivered_to_the_addressed_neighbor_only() {
        let g = star(5); // node 0 is the hub; every leaf's smallest neighbour is 0
        let protocol = SendToSmallest;
        let (states, stats) = Simulator::new(&g, &protocol).run(3, 10);
        // Node 0 sends to node 1; each leaf sends to node 0.
        assert_eq!(stats.messages, 5);
        // The second round still runs (nodes terminate after sending, but
        // messages sent in round 1 are delivered at the start of round 2 to
        // already-terminated nodes and dropped) — so the hub may or may not
        // record them.  What must hold: only node 1 could have heard node 0.
        for (u, (_, heard)) in states.iter().enumerate() {
            if u > 1 {
                assert!(heard.is_empty(), "leaf {u} must hear nothing");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn unicast_to_non_neighbor_panics() {
        struct Bad;
        impl Protocol for Bad {
            type State = bool;
            type Message = ();
            fn init(&self, _ctx: &mut NodeContext<'_>) -> bool {
                false
            }
            fn step(
                &self,
                state: &mut bool,
                _inbox: &[(NodeId, ())],
                ctx: &mut NodeContext<'_>,
            ) -> RoundOutput<()> {
                *state = true;
                if ctx.node == 0 {
                    RoundOutput::Unicast(vec![(3, ())])
                } else {
                    RoundOutput::Silent
                }
            }
            fn is_terminated(&self, state: &bool) -> bool {
                *state
            }
        }
        let g = path(4); // 0 and 3 are not adjacent
        let protocol = Bad;
        Simulator::new(&g, &protocol).run(0, 5);
    }

    /// Nodes record random numbers; used to pin down RNG determinism.
    struct RandomRecorder;

    impl Protocol for RandomRecorder {
        type State = Vec<u64>;
        type Message = ();

        fn init(&self, ctx: &mut NodeContext<'_>) -> Vec<u64> {
            vec![ctx.rng.gen()]
        }

        fn step(
            &self,
            state: &mut Vec<u64>,
            _inbox: &[(NodeId, ())],
            ctx: &mut NodeContext<'_>,
        ) -> RoundOutput<()> {
            state.push(ctx.rng.gen());
            RoundOutput::Silent
        }

        fn is_terminated(&self, state: &Vec<u64>) -> bool {
            state.len() > 3
        }
    }

    #[test]
    fn node_randomness_is_deterministic_and_distinct() {
        let g = path(10);
        let protocol = RandomRecorder;
        let (a, _) = Simulator::new(&g, &protocol).run(42, 10);
        let (b, _) = Simulator::new(&g, &protocol).parallel(true).run(42, 10);
        let (c, _) = Simulator::new(&g, &protocol).run(43, 10);
        assert_eq!(a, b, "same seed, same randomness regardless of execution mode");
        assert_ne!(a, c, "different seed should change the randomness");
        // Distinct nodes get distinct streams.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn empty_graph_completes_immediately() {
        let g = Graph::new(0);
        let protocol = GossipIds;
        let (states, stats) = Simulator::new(&g, &protocol).run(0, 5);
        assert!(states.is_empty());
        assert!(stats.completed);
        assert_eq!(stats.rounds, 0);
    }
}
