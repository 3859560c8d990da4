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
//! A round costs its live nodes and the messages they send, not the graph.
//! After `init` the simulator keeps a worklist of the nodes that have not
//! terminated, in node order, and steps only those.  Each of them owns a
//! slice of one flat inbox arena, as long as its degree: a node hears at
//! most one broadcast per neighbour per round.  An arena entry indexes the
//! round's message pool, so a broadcast is stored once however many
//! neighbours hear it.  A unicast that sends one neighbour a second message
//! in the same round spills into an overflow list, which keeps delivery
//! order.  Messages to terminated nodes are counted but not stored, and
//! terminated nodes keep no RNG and no inbox.  A step reads its inbox
//! through one reused buffer, so once the buffers have grown a round
//! allocates nothing.
//!
//! Determinism: every node draws from its own `ChaCha8` RNG, seeded from
//! `(simulation seed, node id)`, and every inbox lists its messages in
//! sender order (a unicast's messages in send order), so an execution is
//! bit-for-bit reproducible per seed.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// The slot of a node that is not live: it keeps no RNG and no inbox.
const DEAD: u32 = u32::MAX;

/// A live node and its private randomness.
struct Live {
    node: NodeId,
    rng: ChaCha8Rng,
}

/// A live node's inbox: the `len` entries delivered this round, in
/// `arena[start..start + cap]`, where `cap` is the node's degree.  Kept
/// apart from [`Live`] so that a delivery touches 12 bytes, not the RNG.
struct Inbox {
    start: u32,
    cap: u32,
    len: u32,
}

/// The synchronous round simulator.
pub struct Simulator<'g, P: Protocol> {
    graph: &'g Graph,
    protocol: &'g P,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Creates a simulator for `protocol` on `graph`.
    pub fn new(graph: &'g Graph, protocol: &'g P) -> Self {
        Simulator { graph, protocol }
    }

    /// Runs the protocol until every node terminates or `max_rounds` rounds
    /// have been executed.  Returns the final per-node states and statistics.
    pub fn run(&self, seed: u64, max_rounds: u64) -> (Vec<P::State>, ExecutionStats) {
        let (graph, protocol) = (self.graph, self.protocol);
        let n = graph.node_count();
        let mut states = Vec::with_capacity(n);
        // A node live after `init` gets a slot, which indexes `lives` and
        // `inboxes`; `slot[u]` turns `DEAD` when `u` terminates.
        let mut slot = vec![DEAD; n];
        let mut lives: Vec<Live> = Vec::new();
        let mut inboxes: Vec<Inbox> = Vec::new();
        let mut arena_len = 0;
        for (u, slot) in slot.iter_mut().enumerate() {
            let mut rng = node_rng(seed, u);
            let neighbors = graph.neighbors(u);
            let mut ctx = NodeContext { node: u, neighbors, round: 0, rng: &mut rng };
            let state = protocol.init(&mut ctx);
            if !protocol.is_terminated(&state) {
                *slot = narrow(lives.len());
                lives.push(Live { node: u, rng });
                let cap = narrow(neighbors.len());
                inboxes.push(Inbox { start: arena_len, cap, len: 0 });
                arena_len = narrow(arena_len as usize + neighbors.len());
            }
            states.push(state);
        }

        let mut stats = ExecutionStats::default();
        // The live slots, in node order.
        let mut work: Vec<u32> = (0..narrow(lives.len())).collect();
        // Inbox entries index `pool`, the round's `(sender, message)` list.
        let mut arena = vec![0u32; arena_len as usize];
        let mut pool: Vec<(NodeId, P::Message)> = Vec::with_capacity(lives.len());
        // `(slot, pool index)` entries past a full inbox, in delivery order
        // until sorted by slot at the end of delivery.
        let mut overflow: Vec<(u32, u32)> = Vec::new();
        let mut outputs: Vec<(NodeId, RoundOutput<P::Message>)> = Vec::with_capacity(lives.len());
        let mut inbox: Vec<(NodeId, P::Message)> = Vec::new();

        for round in 1..=max_rounds {
            if work.is_empty() {
                stats.completed = true;
                break;
            }
            stats.rounds = round;

            // Step every live node in node order and keep the ones that do
            // not terminate.  The overflow list is sorted by slot, so one
            // cursor walks it alongside.
            let (mut kept, mut spilled) = (0, 0);
            for w in 0..work.len() {
                let s = work[w];
                let Live { node: u, rng } = &mut lives[s as usize];
                let u = *u;
                let delivered = &mut inboxes[s as usize];
                let entries = &arena[delivered.start as usize..][..delivered.len as usize];
                delivered.len = 0;
                let spill = overflow[spilled..].iter().take_while(|e| e.0 == s);
                inbox.clear();
                for &i in entries.iter().chain(spill.clone().map(|e| &e.1)) {
                    let (from, msg) = &pool[i as usize];
                    inbox.push((*from, msg.clone()));
                }
                spilled += spill.count();
                let mut ctx = NodeContext { node: u, neighbors: graph.neighbors(u), round, rng };
                let output = protocol.step(&mut states[u], &inbox, &mut ctx);
                if !matches!(output, RoundOutput::Silent) {
                    outputs.push((u, output));
                }
                if protocol.is_terminated(&states[u]) {
                    slot[u] = DEAD;
                } else {
                    work[kept] = s;
                    kept += 1;
                }
            }
            work.truncate(kept);

            // Deliver for the next round, in sender order.
            pool.clear();
            overflow.clear();
            let mut deliver = |v: NodeId, i: u32| {
                let s = slot[v];
                if s == DEAD {
                    return;
                }
                let to = &mut inboxes[s as usize];
                if to.len < to.cap {
                    arena[(to.start + to.len) as usize] = i;
                    to.len += 1;
                } else {
                    overflow.push((s, i));
                }
            };
            for (u, output) in outputs.drain(..) {
                match output {
                    RoundOutput::Silent => {}
                    RoundOutput::Broadcast(msg) => {
                        let i = pooled(&mut pool, u, msg);
                        let neighbors = graph.neighbors(u);
                        stats.messages += neighbors.len() as u64;
                        neighbors.iter().for_each(|&v| deliver(v, i));
                    }
                    RoundOutput::Unicast(targets) => {
                        for (v, msg) in targets {
                            assert!(
                                graph.has_edge(u, v),
                                "node {u} attempted to send to non-neighbour {v}"
                            );
                            stats.messages += 1;
                            deliver(v, pooled(&mut pool, u, msg));
                        }
                    }
                }
            }
            // Stable: each slot's spilled entries keep delivery order.
            overflow.sort_by_key(|e| e.0);
        }
        if !stats.completed {
            stats.completed = work.is_empty();
        }
        (states, stats)
    }
}

/// Adds `u`'s message to the round's pool and returns its index.
fn pooled<M>(pool: &mut Vec<(NodeId, M)>, u: NodeId, msg: M) -> u32 {
    let i = narrow(pool.len());
    pool.push((u, msg));
    i
}

/// Narrows a slot, arena offset or pool index to `u32`, the width the
/// packed graph keeps its own offsets in.
fn narrow(x: usize) -> u32 {
    u32::try_from(x).expect("simulator index exceeds u32::MAX")
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

    /// In round 1 on `star(4)`, the hub unicasts several numbered messages
    /// to leaves 3 and 1, leaves 1 and 2 each unicast two to the hub, and
    /// leaf 3 broadcasts; every node records what it hears in round 2.
    struct RepeatedUnicast;

    impl Protocol for RepeatedUnicast {
        type State = Vec<(NodeId, u32)>;
        type Message = u32;

        fn init(&self, _ctx: &mut NodeContext<'_>) -> Self::State {
            Vec::new()
        }

        fn step(
            &self,
            state: &mut Self::State,
            inbox: &[(NodeId, u32)],
            ctx: &mut NodeContext<'_>,
        ) -> RoundOutput<u32> {
            state.extend_from_slice(inbox);
            match (ctx.round, ctx.node) {
                (1, 0) => RoundOutput::Unicast(vec![(3, 30), (1, 10), (3, 31), (2, 20), (1, 11)]),
                (1, 1) => RoundOutput::Unicast(vec![(0, 1), (0, 2)]),
                (1, 2) => RoundOutput::Unicast(vec![(0, 3), (0, 4)]),
                (1, 3) => RoundOutput::Broadcast(5),
                _ => RoundOutput::Silent,
            }
        }

        fn is_terminated(&self, _state: &Self::State) -> bool {
            false
        }
    }

    #[test]
    fn repeated_unicasts_arrive_in_send_order() {
        // Every inbox is as long as its node's degree, so the hub's fourth
        // and fifth messages and the second messages to leaves 1 and 3
        // spill over.
        let g = star(4);
        let protocol = RepeatedUnicast;
        let (states, stats) = Simulator::new(&g, &protocol).run(0, 2);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.messages, 5 + 2 + 2 + 1, "every unicast counts once");
        assert_eq!(states[0], [(1, 1), (1, 2), (2, 3), (2, 4), (3, 5)]);
        assert_eq!(states[1], [(0, 10), (0, 11)]);
        assert_eq!(states[2], [(0, 20)]);
        assert_eq!(states[3], [(0, 30), (0, 31)]);
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
        let (b, _) = Simulator::new(&g, &protocol).run(42, 10);
        let (c, _) = Simulator::new(&g, &protocol).run(43, 10);
        assert_eq!(a, b, "same seed, same randomness");
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
