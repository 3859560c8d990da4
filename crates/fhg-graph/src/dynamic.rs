//! Dynamic conflict graphs (paper §6).
//!
//! Relationships are not fixed: new couples form (edge insertions) and old
//! ones dissolve (edge deletions).  An [`EdgeEvent`] names one such change
//! and the holiday it takes effect; the §6 scheduler applies it to its own
//! [`Graph`] and recolours only the endpoints.  [`random_churn`] generates
//! the event streams the experiments and tests replay.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Graph, NodeId};

/// The kind of a dynamic edge event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeEventKind {
    /// A new conflict (marriage) appears.
    Insert,
    /// An existing conflict dissolves.
    Delete,
}

/// A single edge event applied to a dynamic graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeEvent {
    /// Insert or delete.
    pub kind: EdgeEventKind,
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// The holiday index at which the event takes effect.
    pub holiday: u64,
}

/// Generates a random churn workload of `count` events against `graph`.
///
/// Each event is an insertion of a uniformly random missing edge with
/// probability `insert_prob`, otherwise a deletion of a uniformly random
/// existing edge (skipped if the graph has no edges).  Events are spaced one
/// holiday apart starting at `start_holiday`.  This is the adversary used by
/// experiment E8.
pub fn random_churn(
    graph: &Graph,
    count: usize,
    insert_prob: f64,
    start_holiday: u64,
    seed: u64,
) -> Vec<EdgeEvent> {
    assert!((0.0..=1.0).contains(&insert_prob), "insert_prob must be in [0,1]");
    let n = graph.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut current = graph.clone();
    let mut events = Vec::with_capacity(count);
    let mut holiday = start_holiday;
    let mut attempts_left = count * 50 + 100;
    while events.len() < count && attempts_left > 0 {
        attempts_left -= 1;
        let insert = rng.gen_bool(insert_prob);
        if insert {
            if n < 2 {
                continue;
            }
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || current.has_edge(u, v) {
                continue;
            }
            current.add_edge(u, v).expect("checked absent");
            events.push(EdgeEvent { kind: EdgeEventKind::Insert, u, v, holiday });
        } else {
            if current.edge_count() == 0 {
                continue;
            }
            let edges: Vec<_> = current.edges().collect();
            let e = edges[rng.gen_range(0..edges.len())];
            current.remove_edge(e.u, e.v).expect("edge listed as present");
            events.push(EdgeEvent { kind: EdgeEventKind::Delete, u: e.u, v: e.v, holiday });
        }
        holiday += 1;
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    #[test]
    fn random_churn_produces_requested_count_and_valid_events() {
        let g = erdos_renyi(50, 0.1, 3);
        let events = random_churn(&g, 100, 0.6, 10, 4);
        assert_eq!(events.len(), 100);
        // All events must be applicable in sequence.
        let mut current = g;
        for e in &events {
            match e.kind {
                EdgeEventKind::Insert => current.add_edge(e.u, e.v).unwrap(),
                EdgeEventKind::Delete => current.remove_edge(e.u, e.v).unwrap(),
            }
        }
        // Holidays are non-decreasing.
        assert!(events.windows(2).all(|w| w[0].holiday <= w[1].holiday));
        assert!(events.iter().all(|e| e.holiday >= 10));
    }

    #[test]
    fn random_churn_pure_insertions_and_pure_deletions() {
        let g = erdos_renyi(20, 0.2, 5);
        let inserts = random_churn(&g, 15, 1.0, 0, 6);
        assert!(inserts.iter().all(|e| e.kind == EdgeEventKind::Insert));
        let deletes = random_churn(&g, 10, 0.0, 0, 6);
        assert!(deletes.iter().all(|e| e.kind == EdgeEventKind::Delete));
    }

    #[test]
    fn random_churn_on_degenerate_graphs_terminates() {
        // Single node: no insertion or deletion is ever possible.
        let g = Graph::new(1);
        let events = random_churn(&g, 5, 0.5, 0, 0);
        assert!(events.is_empty());
        // Complete graph with pure insertions: nothing can be inserted.
        let g = crate::generators::structured::complete(5);
        let events = random_churn(&g, 5, 1.0, 0, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn event_value_semantics_roundtrip() {
        let e = EdgeEvent { kind: EdgeEventKind::Insert, u: 1, v: 2, holiday: 9 };
        let copy = e;
        assert_eq!(e, copy, "EdgeEvent is a plain value type");
        let different = EdgeEvent { kind: EdgeEventKind::Delete, ..e };
        assert_ne!(e, different);
    }
}
