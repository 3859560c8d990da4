//! Independence checking: the per-holiday verdict source of the sequential
//! engine.
//!
//! The sequential sweep emits the happy set of every holiday and must
//! decide, for each one, whether it is an independent set of the conflict
//! graph (Definition 2.1).  A residue view needs no set: the progression
//! engine and the serving tier's cycle profiles test one congruence per
//! edge instead (Lemma 5.2).  The sweep's decision is factored behind the
//! [`HolidayChecker`] trait, which serves two granularities:
//!
//! * [`HolidayChecker::check`] — one holiday's set, the shape an
//!   instrumented checker can observe holiday by holiday, and
//! * [`HolidayChecker::check_batch`] — any number of sets at once, by
//!   default one [`check`](HolidayChecker::check) per set in order,
//!   short-circuiting on the first failure.
//!
//! [`GraphChecker`] holds one layout: a packed copy of the [`Graph`], whose
//! rows in node order are a compressed-sparse-row (CSR) layout.  It walks
//! each member's upper neighbours ([`Graph::neighbors_above`]), so every
//! edge is probed once, from its lower endpoint: a conflicting pair is
//! always caught at its smaller member.  It also lends its graph
//! ([`AsRef<Graph>`]), so a cycle profile build accepts it in place of the
//! graph.
//!
//! The holiday number is passed alongside each set so the verdict source
//! can be audited: the verdict must not depend on it, but instrumentation
//! wants to see it.
//!
//! A checker never crosses a thread: the sweep runs on the calling thread.
//! So the trait asks for no `Sync`, and an instrumented checker may keep
//! plain interior state.

use fhg_graph::{FixedBitSet, Graph};

/// A per-holiday independence verdict source.
///
/// The holiday number is passed alongside the set so instrumented checkers
/// can observe *which* holidays a sweep actually verifies.
pub trait HolidayChecker {
    /// Whether the happy set emitted at holiday `t` is an independent set.
    fn check(&self, t: u64, happy: &FixedBitSet) -> bool;

    /// Whether **every** set in the batch is independent: per-set
    /// [`HolidayChecker::check`] in order, short-circuiting on the first
    /// failure.
    fn check_batch(&self, classes: &[(u64, &FixedBitSet)]) -> bool {
        classes.iter().all(|&(t, set)| self.check(t, set))
    }
}

/// The default checker: a packed copy of the graph (CSR), probed once per
/// edge from its lower endpoint.
#[derive(Debug)]
pub struct GraphChecker {
    graph: Graph,
}

impl GraphChecker {
    /// Builds the checker for `graph`: a packed copy of its rows.
    pub fn new(graph: &Graph) -> Self {
        GraphChecker { graph: graph.clone() }
    }

    /// Adjacency memory in bytes: the packed graph's row table and arena.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }
}

impl AsRef<Graph> for GraphChecker {
    /// The packed copy of the graph the checker probes.
    fn as_ref(&self) -> &Graph {
        &self.graph
    }
}

impl HolidayChecker for GraphChecker {
    fn check(&self, _t: u64, happy: &FixedBitSet) -> bool {
        self.graph.is_independent(happy)
    }
}
