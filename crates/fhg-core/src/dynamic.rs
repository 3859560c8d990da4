//! The dynamic setting (paper §6).
//!
//! Relationships change: new conflict edges appear and old ones dissolve.
//! §6 observes that the colour-bound scheduler of §4 copes gracefully: when
//! an edge `(p, q)` appears and `p` and `q` share a colour, one endpoint
//! simply picks a new colour (its palette grew by one, so a free colour
//! `≤ deg + 1` still exists) and derives its new periodic slot from the
//! prefix-free code — it will host again within `φ(d)·2^{log* d + 1}`
//! holidays of quiescence.  Deletions need no action for correctness, but if
//! a node's colour drifts far above `deg + 1` its hosting rate becomes
//! disproportionate, so it should be recoloured (rebalanced).
//!
//! [`DynamicColorBound`] implements exactly this: a [`Scheduler`] whose
//! conflict graph can be edited between holidays.
//!
//! # The incremental repair plane
//!
//! Between events the schedule is perfectly periodic, so the scheduler
//! maintains a [`ResidueSchedule`] view *incrementally*: every recolouring
//! is one [`ResidueSchedule::set_row`] call, and
//! [`Scheduler::residue_schedule`] exposes the view, which moves dynamic
//! schedules off the sequential analysis path and onto the progression
//! engine like every other periodic scheduler.
//!
//! The same row deltas drive cache repair downstream: [`apply_event`]
//! returns an [`EventRepair`] — the applied event plus at most two
//! [`RowChange`]s (an insert recolours at most one endpoint, a delete
//! rebalances at most both) on the stack, no allocation.  A cached
//! [`CycleProfile`](crate::analysis::CycleProfile) consumes the repair
//! through [`patch`](crate::analysis::CycleProfile::patch): only the
//! recoloured nodes move between the lanes of its progression table, and
//! only the edges at them (plus an inserted edge) are re-tested, instead
//! of rebuilding the whole profile.
//! [`ProfileService::patch`](crate::serving::ProfileService::patch) wires
//! this into the serving tier so a mutating tenant keeps a warm profile
//! across churn.
//!
//! [`apply_event`]: DynamicColorBound::apply_event

use fhg_codes::{log_star, phi, CodeSchedule, EliasCode};
use fhg_coloring::{greedy_coloring, recolor_node, Color, GreedyOrder};
use fhg_graph::{EdgeEvent, EdgeEventKind, Graph, GraphError, HappySet, NodeId};

use crate::scheduler::Scheduler;
use crate::schedulers::residue::{ResidueSchedule, RowChange};

/// The outcome of one [`DynamicColorBound::apply_event`]: the event that was
/// applied plus the hosting-row replacements it caused — at most one for an
/// insert (the clashing endpoint) and at most two for a delete (both
/// endpoints may rebalance).  Fixed-size, `Copy`, allocation-free; this is
/// the unit the incremental repair plane hands to
/// [`CycleProfile::patch`](crate::analysis::CycleProfile::patch) and
/// [`ProfileService::patch`](crate::serving::ProfileService::patch).
#[derive(Debug, Clone, Copy)]
pub struct EventRepair {
    /// The edge event that was applied.
    pub event: EdgeEvent,
    changes: [RowChange; 2],
    len: u8,
}

impl EventRepair {
    fn new(event: EdgeEvent) -> Self {
        EventRepair { event, changes: [RowChange::default(); 2], len: 0 }
    }

    fn push(&mut self, change: RowChange) {
        self.changes[self.len as usize] = change;
        self.len += 1;
    }

    /// The hosting-row replacements the event caused, in application order.
    pub fn row_changes(&self) -> &[RowChange] {
        &self.changes[..self.len as usize]
    }

    /// The recoloured nodes, in application order.
    pub fn recolored(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.row_changes().iter().map(|c| c.node)
    }

    /// Assembles a repair from raw parts (at most two row changes).
    ///
    /// Real repairs come from [`DynamicColorBound::apply_event`]; this
    /// constructor exists so the robustness suites can stage pathological
    /// repairs — e.g. a recolouring that outgrows the profile budgets —
    /// that the maintained schedulers never emit.
    #[doc(hidden)]
    pub fn from_parts(event: EdgeEvent, changes: &[RowChange]) -> Self {
        assert!(changes.len() <= 2, "a repair carries at most two row changes");
        let mut repair = EventRepair::new(event);
        for &change in changes {
            repair.push(change);
        }
        repair
    }
}

/// The §6 dynamic colour-bound scheduler.
#[derive(Debug, Clone)]
pub struct DynamicColorBound {
    graph: Graph,
    colors: Vec<Color>,
    schedule: CodeSchedule<EliasCode>,
    /// The periodic view of the current colouring, maintained row-by-row
    /// across recolourings — never reconstructed.
    view: ResidueSchedule,
    recolor_events: u64,
}

impl DynamicColorBound {
    /// Builds the scheduler from an initial conflict graph, using a greedy
    /// `(deg+1)`-bounded colouring and the Elias omega code.
    pub fn new(graph: &Graph) -> Self {
        let coloring = greedy_coloring(graph, GreedyOrder::Natural);
        let colors = coloring.into_vec();
        let schedule = CodeSchedule::new(EliasCode::omega());
        let view = ResidueSchedule::from_rows(colors.iter().map(|&c| schedule.slot(u64::from(c))));
        DynamicColorBound { graph: graph.clone(), colors, schedule, view, recolor_events: 0 }
    }

    /// The current conflict graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current colour of node `p`.
    pub fn color(&self, p: NodeId) -> Color {
        self.colors[p]
    }

    /// Number of recolouring repairs performed so far.
    pub fn recolor_events(&self) -> u64 {
        self.recolor_events
    }

    /// The current period of node `p` (changes when `p` is recoloured).
    pub fn current_period(&self, p: NodeId) -> u64 {
        self.schedule.slot(u64::from(self.colors[p])).modulus
    }

    /// §6 recovery bound: after quiescence a node of degree `d` hosts within
    /// `φ(d+1)·2^{log*(d+1) + 1}` holidays.
    ///
    /// (The paper states the bound as `φ(d)·2^{log* d + 1}`; since the repair
    /// colouring only guarantees a colour of at most `d + 1`, the
    /// Theorem 4.2 period bound — and hence the recovery bound — is evaluated
    /// at `d + 1`, which is where the guarantee actually holds for every
    /// degree including `d = 1`.)
    pub fn recovery_bound(&self, p: NodeId) -> u64 {
        let c = (self.graph.degree(p) + 1) as f64;
        (phi(c) * 2f64.powi(log_star(c) as i32 + 1)).ceil() as u64
    }

    /// Recolours `p` (smallest colour free among its neighbours), moves its
    /// hosting row in the periodic view, and returns the recorded change.
    fn recolor(&mut self, p: NodeId) -> RowChange {
        let old = self.schedule.slot(u64::from(self.colors[p]));
        let c = recolor_node(&self.graph, &mut self.colors, p);
        self.recolor_events += 1;
        let new = self.schedule.slot(u64::from(c));
        self.view.set_row(p, new);
        RowChange { node: p, old, new }
    }

    /// A new couple forms: insert the conflict edge `(u, v)`.
    ///
    /// If the endpoints share a colour, the endpoint with the larger id is
    /// recoloured locally (smallest colour free among its neighbours) —
    /// the §6 repair.  Returns the row change, if any.  The graph edit is
    /// validated before any state is touched, so an `Err` leaves the
    /// scheduler exactly as it was.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<Option<NodeId>, GraphError> {
        Ok(self.insert_edge_rows(u, v)?.map(|c| c.node))
    }

    fn insert_edge_rows(&mut self, u: NodeId, v: NodeId) -> Result<Option<RowChange>, GraphError> {
        self.graph.add_edge(u, v)?;
        if self.colors[u] == self.colors[v] {
            Ok(Some(self.recolor(u.max(v))))
        } else {
            Ok(None)
        }
    }

    /// A couple separates: delete the conflict edge `(u, v)`.
    ///
    /// Correctness needs no action; to keep hosting rates proportional to the
    /// (now smaller) degrees, both endpoints are rebalanced if their colour
    /// exceeds `deg + 1`.  Returns the nodes that were recoloured.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<Vec<NodeId>, GraphError> {
        let (a, b) = self.delete_edge_rows(u, v)?;
        Ok([a, b].into_iter().flatten().map(|c| c.node).collect())
    }

    #[allow(clippy::type_complexity)]
    fn delete_edge_rows(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<(Option<RowChange>, Option<RowChange>), GraphError> {
        self.graph.remove_edge(u, v)?;
        Ok((self.rebalance_rows(u), self.rebalance_rows(v)))
    }

    /// Recolours `p` if its colour exceeds `deg(p) + 1`; returns whether a
    /// recolouring happened.
    pub fn rebalance(&mut self, p: NodeId) -> bool {
        self.rebalance_rows(p).is_some()
    }

    fn rebalance_rows(&mut self, p: NodeId) -> Option<RowChange> {
        if (self.colors[p] as usize) > self.graph.degree(p) + 1 {
            Some(self.recolor(p))
        } else {
            None
        }
    }

    /// Applies a pre-recorded edge event and returns the [`EventRepair`]
    /// describing exactly which hosting rows moved — the input to the
    /// incremental profile patch.  An `Err` (duplicate edge, missing edge,
    /// out-of-range node) leaves the scheduler state untouched.
    pub fn apply_event(&mut self, event: EdgeEvent) -> Result<EventRepair, GraphError> {
        let mut repair = EventRepair::new(event);
        match event.kind {
            EdgeEventKind::Insert => {
                if let Some(change) = self.insert_edge_rows(event.u, event.v)? {
                    repair.push(change);
                }
            }
            EdgeEventKind::Delete => {
                let (a, b) = self.delete_edge_rows(event.u, event.v)?;
                for change in [a, b].into_iter().flatten() {
                    repair.push(change);
                }
            }
        }
        Ok(repair)
    }

    /// Whether the internal colouring is currently proper (it always should
    /// be; exposed for tests and failure injection).
    pub fn coloring_is_proper(&self) -> bool {
        self.graph.edges().all(|e| self.colors[e.u] != self.colors[e.v])
    }
}

impl Scheduler for DynamicColorBound {
    fn node_count(&self) -> usize {
        self.colors.len()
    }

    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
        self.view.fill(t, out);
    }

    fn name(&self) -> &'static str {
        "dynamic-color-bound"
    }

    fn is_periodic(&self) -> bool {
        // Periodic between edge events; the trait answer refers to the
        // steady state.
        true
    }

    fn period(&self, p: NodeId) -> Option<u64> {
        Some(self.current_period(p))
    }

    fn unhappiness_bound(&self, p: NodeId) -> Option<u64> {
        Some(self.current_period(p))
    }

    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        Some(&self.view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_schedule;
    use crate::scheduler::happy_vec;
    use fhg_graph::dynamic::random_churn;
    use fhg_graph::generators::erdos_renyi;
    use fhg_graph::generators::structured::{cycle, path};
    use proptest::prelude::*;

    #[test]
    fn insertion_without_color_clash_needs_no_repair() {
        let g = path(4); // colours 1,2,1,2 under natural greedy
        let mut s = DynamicColorBound::new(&g);
        assert_eq!(s.insert_edge(0, 3).unwrap(), None, "colours 1 and 2 do not clash");
        assert!(s.coloring_is_proper());
        assert_eq!(s.recolor_events(), 0);
    }

    #[test]
    fn insertion_with_color_clash_repairs_one_endpoint() {
        let g = path(4);
        let mut s = DynamicColorBound::new(&g);
        // Nodes 0 and 2 both have colour 1.
        let repaired = s.insert_edge(0, 2).unwrap();
        assert_eq!(repaired, Some(2));
        assert!(s.coloring_is_proper());
        assert!(u64::from(s.color(2)) <= s.graph().degree(2) as u64 + 1);
        assert_eq!(s.recolor_events(), 1);
    }

    /// The view's hosting set of holiday `t`, ascending.
    fn hosts_at(view: &ResidueSchedule, t: u64) -> Vec<NodeId> {
        let mut buf = HappySet::new(0);
        view.fill(t, &mut buf);
        buf.to_vec()
    }

    /// The incrementally maintained view must agree with the per-colour
    /// schedule at every holiday — the invariant the whole repair plane
    /// stands on.
    fn assert_view_matches_colors(s: &mut DynamicColorBound, span: u64, ctx: &str) {
        let view = s.residue_schedule().expect("dynamic scheduler exposes its view").clone();
        for t in 0..span {
            let expected: Vec<NodeId> = (0..s.node_count())
                .filter(|&p| s.schedule.is_happy(u64::from(s.colors[p]), t))
                .collect();
            assert_eq!(hosts_at(&view, t), expected, "{ctx}: holiday {t}");
        }
        for p in 0..s.node_count() {
            assert_eq!(view.modulus(p), s.current_period(p), "{ctx}: node {p} period");
        }
    }

    #[test]
    fn schedule_stays_valid_under_heavy_churn() {
        let initial = erdos_renyi(40, 0.08, 3);
        let mut s = DynamicColorBound::new(&initial);
        let events = random_churn(&initial, 150, 0.6, 0, 7);
        let mut holiday = 0u64;
        for event in events {
            // Simulate a few holidays between events.
            for _ in 0..3 {
                let happy = happy_vec(&mut s, holiday);
                assert!(
                    fhg_graph::properties::is_independent_set(s.graph(), &happy),
                    "holiday {holiday} produced a conflicting gathering"
                );
                holiday += 1;
            }
            let repair = s.apply_event(event).unwrap();
            assert!(repair.row_changes().len() <= 2);
            assert!(s.coloring_is_proper(), "colouring broken after {event:?}");
        }
        assert_view_matches_colors(&mut s, 128, "after heavy churn");
    }

    #[test]
    fn apply_event_reports_the_rows_that_moved() {
        let g = path(4);
        let mut s = DynamicColorBound::new(&g);
        let before = s.current_period(2);
        let repair = s
            .apply_event(EdgeEvent { kind: EdgeEventKind::Insert, u: 0, v: 2, holiday: 0 })
            .unwrap();
        let changes = repair.row_changes();
        assert_eq!(changes.len(), 1, "one endpoint recoloured");
        assert_eq!(changes[0].node, 2);
        assert_eq!(changes[0].old.modulus, before);
        assert_eq!(changes[0].new.modulus, s.current_period(2));
        assert_eq!(repair.recolored().collect::<Vec<_>>(), vec![2]);
        assert_view_matches_colors(&mut s, 64, "after reported insert");
    }

    #[test]
    fn deletion_rebalances_inflated_colors() {
        // Build a node whose colour is pushed high by insertions and then
        // drops when its edges disappear.
        let g = cycle(6);
        let mut s = DynamicColorBound::new(&g);
        s.insert_edge(0, 2).unwrap();
        s.insert_edge(0, 3).unwrap();
        let inflated = s.color(0).max(s.color(2)).max(s.color(3));
        assert!(inflated >= 3, "some colour must have grown past 2");
        // Remove the extra edges again; rebalancing must pull colours back
        // within deg + 1.
        s.delete_edge(0, 2).unwrap();
        s.delete_edge(0, 3).unwrap();
        for p in 0..6 {
            assert!(
                (s.color(p) as usize) <= s.graph().degree(p) + 1,
                "node {p} colour {} exceeds degree+1 after rebalance",
                s.color(p)
            );
        }
        assert!(s.coloring_is_proper());
        assert_view_matches_colors(&mut s, 64, "after rebalancing deletes");
    }

    #[test]
    fn recovery_bound_matches_the_paper_formula() {
        let g = erdos_renyi(30, 0.2, 1);
        let s = DynamicColorBound::new(&g);
        for p in g.nodes() {
            let c = (g.degree(p) + 1) as f64;
            let expected = (phi(c) * 2f64.powi(log_star(c) as i32 + 1)).ceil() as u64;
            assert_eq!(s.recovery_bound(p), expected);
        }
    }

    #[test]
    fn recovery_bound_always_dominates_the_current_period() {
        // With colours kept at most deg + 1 by the repairs, the Theorem 4.2
        // period 2^rho(colour) never exceeds the §6 recovery bound.
        for seed in 0..10u64 {
            let initial = erdos_renyi(30, 0.1, seed);
            let mut s = DynamicColorBound::new(&initial);
            let events = random_churn(&initial, 40, 0.5, 0, seed ^ 0x77);
            for event in events {
                s.apply_event(event).unwrap();
            }
            for p in s.graph().nodes() {
                assert!(
                    s.current_period(p) <= s.recovery_bound(p),
                    "node {p}: period {} exceeds bound {}",
                    s.current_period(p),
                    s.recovery_bound(p)
                );
            }
        }
    }

    #[test]
    fn recolored_node_hosts_within_its_new_period_after_quiescence() {
        let g = path(6);
        let mut s = DynamicColorBound::new(&g);
        let repaired = s.insert_edge(0, 2).unwrap().expect("colour clash");
        // After quiescence the repaired node must host within its current
        // period (which is at most the §6 recovery bound).
        let period = s.current_period(repaired);
        assert!(period <= s.recovery_bound(repaired));
        let hosted = (0..period).any(|t| happy_vec(&mut s, t).contains(&repaired));
        assert!(hosted, "node {repaired} must host within {period} holidays");
    }

    #[test]
    fn scheduler_interface_reports_current_periods() {
        let g = path(4);
        let mut s = DynamicColorBound::new(&g);
        let before = s.period(2).unwrap();
        s.insert_edge(0, 2).unwrap();
        let after = s.period(2).unwrap();
        assert!(after >= before, "a repair can only lengthen the period");
        assert!(s.is_periodic());
        assert_eq!(s.name(), "dynamic-color-bound");
        let current = s.graph().clone();
        let analysis = analyze_schedule(&current, &mut s, 64);
        assert!(analysis.all_happy_sets_independent);
    }

    #[test]
    fn invalid_events_are_rejected_without_corrupting_state() {
        let g = path(3);
        let mut s = DynamicColorBound::new(&g);
        assert!(s.insert_edge(0, 1).is_err(), "edge already exists");
        assert!(s.delete_edge(0, 2).is_err(), "edge missing");
        assert!(s.insert_edge(0, 9).is_err(), "node out of range");
        assert!(s
            .apply_event(EdgeEvent { kind: EdgeEventKind::Insert, u: 1, v: 1, holiday: 0 })
            .is_err());
        assert!(s.coloring_is_proper());
        assert_eq!(s.recolor_events(), 0);
        assert_view_matches_colors(&mut s, 32, "after rejected events");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn churn_preserves_properness_and_degree_bounded_recovery(seed in 0u64..60) {
            let initial = erdos_renyi(25, 0.1, seed);
            let mut s = DynamicColorBound::new(&initial);
            let events = random_churn(&initial, 60, 0.5, 0, seed ^ 0xA5);
            for event in events {
                s.apply_event(event).unwrap();
                prop_assert!(s.coloring_is_proper());
            }
            // The incrementally maintained view and the per-colour schedule
            // agree after arbitrary churn.
            let view = s.residue_schedule().unwrap().clone();
            for t in 0..64u64 {
                let expected: Vec<NodeId> = (0..s.node_count())
                    .filter(|&p| s.schedule.is_happy(u64::from(s.colors[p]), t))
                    .collect();
                prop_assert_eq!(hosts_at(&view, t), expected, "holiday {}", t);
            }
            // After quiescence every node hosts within its current period.
            for p in s.graph().nodes() {
                let period = s.current_period(p);
                if period <= 1 << 14 {
                    let hosts = (0..period).any(|t| {
                        let c = u64::from(s.color(p));
                        s.schedule.is_happy(c, t)
                    });
                    prop_assert!(hosts);
                }
            }
        }
    }
}
