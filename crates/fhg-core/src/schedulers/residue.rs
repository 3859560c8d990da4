//! Word-packed emission tables and thread-safe views for perfectly periodic
//! schedules.
//!
//! Every perfectly periodic scheduler in the paper assigns node `p` one
//! [`Progression`] `(slot_p, m_p)`, its row, and wakes `p` exactly when
//! `t ≡ slot_p (mod m_p)` — §4.2 via prefix-free codes and §5 via degree
//! exponents use power-of-two moduli `m_p = 2^{j_p}`, while the §1/§4
//! baselines cycle a fixed modulus (`k` colours, `n` nodes).  Evaluating
//! that per node costs an `O(n)` scan with a hardware divide per node,
//! every holiday.  A word-packed table precomputes, for every distinct
//! modulus `m` and every residue `r < m`, the bitmask of nodes hosting at
//! that residue; emitting a holiday then reduces to OR-ing one precomputed
//! row per distinct modulus into the output [`HappySet`] — `O(#moduli ·
//! n/64)` word operations and zero allocations.
//!
//! [`ResidueSchedule`] bundles the rows, the optional table and the
//! schedule's global cycle length into a **pure function of the holiday
//! number** that can be evaluated from any thread through `&self`.  It is
//! the view [`crate::scheduler::Scheduler::residue_schedule`] exposes and
//! the one place a periodic scheduler keeps its rows: the one-shot analysis
//! reads them directly (one formula per node, one
//! [`meets`](Progression::meets) per edge), [`ResidueSchedule::conflict`]
//! checks Lemma 5.2 for every holiday at once (the serving tier's cycle
//! profiles take their verdict from it), and [`ResidueSchedule::fill`]
//! emits the happy set of one holiday for the sequential reference sweep.
//! The rows are stored as two arrays, slots and moduli, and
//! [`ResidueSchedule::row`] assembles one on demand.
//!
//! Memory is `Σ_m m · n/8` bytes over the distinct moduli, which is tiny for
//! the degree distributions the experiments use but can reach `Θ(n·Δ)` on
//! dense graphs, so construction is gated by a 16 MiB budget and
//! [`ResidueSchedule::fill`] keeps a bucket index and a per-node scan as
//! fallbacks.

use fhg_codes::{gcd, Progression};
use fhg_graph::{FixedBitSet, Graph, HappySet, NodeId};

/// One node's row replacement: the unit of work a dynamic repair (§6
/// recolouring) hands to [`ResidueSchedule::apply_row`] and to the
/// incremental profile patch
/// ([`CycleProfile::patch`](crate::analysis::CycleProfile::patch)).  Carries
/// both the old and the new row so downstream caches can retire the old
/// attendance lane and re-test exactly the edges at the recoloured node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowChange {
    /// The node whose hosting row changed.
    pub node: NodeId,
    /// Previous hosting row.
    pub old: Progression,
    /// New hosting row.
    pub new: Progression,
}

/// Precomputed hosting rows: `groups` holds, per distinct modulus `m`, the
/// modulus and one bit row per residue `r < m`.
#[derive(Debug, Clone)]
struct ResidueTable {
    n: usize,
    groups: Vec<(u64, Vec<FixedBitSet>)>,
}

impl ResidueTable {
    /// Construction budget for the precomputed rows (bytes).
    const MAX_BYTES: usize = 16 << 20;

    /// Builds the table for nodes hosting at `t ≡ slots[p] (mod moduli[p])`,
    /// for arbitrary (not necessarily power-of-two) moduli.  Returns `None`
    /// when the rows would exceed [`ResidueTable::MAX_BYTES`].
    ///
    /// # Panics
    /// Panics (in debug builds) if some modulus is zero or some slot is not a
    /// residue of its modulus.
    fn build_moduli(slots: &[u64], moduli: &[u64]) -> Option<Self> {
        debug_assert_eq!(slots.len(), moduli.len());
        let n = slots.len();
        let words = n.div_ceil(64);
        let mut distinct: Vec<u64> = moduli.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let total_rows = distinct.iter().try_fold(0u64, |acc, &m| acc.checked_add(m))?;
        if total_rows.checked_mul(words as u64 * 8).is_none_or(|b| b > Self::MAX_BYTES as u64) {
            return None;
        }
        let mut groups: Vec<(u64, Vec<FixedBitSet>)> = distinct
            .iter()
            .map(|&m| {
                debug_assert!(m >= 1, "modulus must be positive");
                (m, vec![FixedBitSet::new(n); m as usize])
            })
            .collect();
        for (p, (&slot, &m)) in slots.iter().zip(moduli).enumerate() {
            let gi = distinct.binary_search(&m).expect("modulus is in the distinct list");
            debug_assert!(slot < m, "slot must be a residue of its modulus");
            groups[gi].1[slot as usize].insert(p);
        }
        Some(ResidueTable { n, groups })
    }

    /// Writes the hosting set of holiday `t` into `out` by gathering one row
    /// per distinct modulus into a single fused gather+popcount pass over
    /// the output words ([`HappySet::assign_many`] batches the rows and
    /// indexes them in the inner loop): `out` is written exactly once — no
    /// reset memset, no per-row sweep, no cardinality rescan.  Resets `out`
    /// to the table's capacity.
    fn fill(&self, t: u64, out: &mut HappySet) {
        out.assign_many(
            self.n,
            self.groups.iter().map(|(m, rows)| {
                let r = if m.is_power_of_two() { t & (m - 1) } else { t % m };
                &rows[r as usize]
            }),
        );
    }
}

/// A perfectly periodic schedule as a pure function of the holiday number:
/// node `p` hosts exactly when `t ≡ slot(p) (mod modulus(p))`.
///
/// Unlike [`crate::scheduler::Scheduler::fill_happy_set`] (which takes `&mut
/// self`), [`ResidueSchedule::fill`] works through `&self`, so any number of
/// threads can evaluate disjoint stretches of the horizon concurrently.  The
/// schedule repeats with period
/// [`ResidueSchedule::cycle`]: the happy set of holiday `t` depends only on
/// `t mod cycle()`, so one cycle of holidays shows every happy set the
/// schedule ever emits.
#[derive(Debug, Clone)]
pub struct ResidueSchedule {
    slots: Vec<u64>,
    moduli: Vec<u64>,
    /// Distinct moduli (ascending) with their node counts — keeps the
    /// cycle/attendance recomputation after a row edit at `O(#distinct)`
    /// instead of a full `O(n)` refold.
    mods: Vec<(u64, usize)>,
    cycle: u64,
    /// Precomputed `Σ_p cycle / m_p` (saturating) — the per-cycle attendance
    /// volume.  Cached at construction so the engine-selection budget check
    /// costs O(1) per analysis instead of one divide per node.
    attendance: u64,
    /// Word-packed emission rows; `None` when over the memory budget or the
    /// rows would be too sparse to beat the bucket index.
    table: Option<ResidueTable>,
    /// Residue-bucket emission index; `None` only when the total residue
    /// count exceeds [`ResidueSchedule::MAX_INDEX_ROWS`], in which case
    /// [`ResidueSchedule::fill`] falls back to the per-node scan.
    buckets: Option<BucketIndex>,
}

/// CSR-style `(modulus, residue) -> hosting nodes` index: one hardware divide
/// per **distinct** modulus per holiday and `O(|hosts|)` inserts, with
/// `O(n + Σ_m m)` memory — the emission path for assignments whose bitmap
/// rows would be wasteful (e.g. the trivial scheduler's `n` singleton rows).
#[derive(Debug, Clone)]
struct BucketIndex {
    /// Distinct moduli, ascending, paired with the offset of their first row
    /// in `starts` (group `g` owns rows `row_base[g] .. row_base[g] + m_g`).
    groups: Vec<(u64, usize)>,
    /// Prefix starts into `nodes`, one entry per residue row plus a sentinel.
    starts: Vec<usize>,
    /// Hosting nodes, grouped by (modulus, residue), ascending node id within
    /// a bucket.
    nodes: Vec<NodeId>,
}

impl BucketIndex {
    fn build(slots: &[u64], moduli: &[u64]) -> Option<Self> {
        let mut distinct: Vec<u64> = moduli.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let total_rows = distinct.iter().try_fold(0u64, |acc, &m| acc.checked_add(m))?;
        if total_rows > ResidueSchedule::MAX_INDEX_ROWS {
            return None;
        }
        let mut groups = Vec::with_capacity(distinct.len());
        let mut base = 0usize;
        for &m in &distinct {
            groups.push((m, base));
            base += m as usize;
        }
        // Counting sort of the nodes into their (modulus, residue) bucket.
        let mut starts = vec![0usize; base + 1];
        let row_of = |p: usize| {
            let g = distinct.binary_search(&moduli[p]).expect("modulus is distinct");
            groups[g].1 + slots[p] as usize
        };
        for p in 0..slots.len() {
            starts[row_of(p) + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor = starts.clone();
        let mut nodes = vec![0 as NodeId; slots.len()];
        for p in 0..slots.len() {
            let row = row_of(p);
            nodes[cursor[row]] = p;
            cursor[row] += 1;
        }
        Some(BucketIndex { groups, starts, nodes })
    }

    fn fill(&self, t: u64, out: &mut HappySet) {
        for &(m, base) in &self.groups {
            let r = if m.is_power_of_two() { t & (m - 1) } else { t % m };
            let row = base + r as usize;
            for &p in &self.nodes[self.starts[row]..self.starts[row + 1]] {
                out.insert(p);
            }
        }
    }
}

impl ResidueSchedule {
    /// Builds the schedule hosting node `p` at `t ≡ slots[p] (mod moduli[p])`.
    ///
    /// # Panics
    /// Panics if the lengths differ, some modulus is zero, or some slot is
    /// not a residue of its modulus.
    pub fn new(slots: Vec<u64>, moduli: Vec<u64>) -> Self {
        Self::build(slots, moduli, true)
    }

    /// Builds the schedule hosting node `p` on the `p`-th of `rows`.
    ///
    /// # Panics
    /// Same contract as [`ResidueSchedule::new`].
    pub fn from_rows(rows: impl IntoIterator<Item = Progression>) -> Self {
        let (slots, moduli) = rows.into_iter().map(|row| (row.slot, row.modulus)).unzip();
        Self::new(slots, moduli)
    }

    /// Like [`ResidueSchedule::new`], but never builds the word-packed table —
    /// for assignments where the rows are provably wasteful, e.g. the trivial
    /// scheduler's `n` singleton rows (`n²/8` bytes to represent `t mod n`).
    ///
    /// # Panics
    /// Same contract as [`ResidueSchedule::new`].
    pub fn scan_only(slots: Vec<u64>, moduli: Vec<u64>) -> Self {
        Self::build(slots, moduli, false)
    }

    /// Residue-count budget for the [`BucketIndex`] (entries, 8 bytes each).
    /// Far above every schedule the paper produces; only astronomically long
    /// periods (e.g. saturated lcm tests) fall back to the per-node scan.
    const MAX_INDEX_ROWS: u64 = 1 << 22;

    fn build(slots: Vec<u64>, moduli: Vec<u64>, with_table: bool) -> Self {
        assert_eq!(slots.len(), moduli.len(), "one modulus per slot");
        for (p, (&slot, &m)) in slots.iter().zip(&moduli).enumerate() {
            assert!(m >= 1, "node {p}: modulus must be positive");
            assert!(slot < m, "node {p}: slot {slot} is not a residue modulo {m}");
        }
        let cycle = moduli.iter().fold(1u64, |acc, &m| lcm_saturating(acc, m));
        let attendance = moduli.iter().fold(0u64, |acc, &m| acc.saturating_add(cycle / m));
        let mut mods: Vec<(u64, usize)> = Vec::new();
        for &m in &moduli {
            match mods.binary_search_by_key(&m, |e| e.0) {
                Ok(i) => mods[i].1 += 1,
                Err(i) => mods.insert(i, (m, 1)),
            }
        }
        let table = if with_table { ResidueTable::build_moduli(&slots, &moduli) } else { None };
        // The bucket index is the table's fallback; when the table exists it
        // would never be read, so skip its counting sort and memory.
        let buckets = if table.is_none() { BucketIndex::build(&slots, &moduli) } else { None };
        ResidueSchedule { slots, moduli, mods, cycle, attendance, table, buckets }
    }

    /// Builds the schedule for power-of-two periods `2^{exponents[p]}` (the
    /// §4.2 / §5 shape).
    ///
    /// # Panics
    /// Panics on length mismatch, exponents ≥ 64, or out-of-range slots.
    pub fn from_exponents(slots: Vec<u64>, exponents: &[u32]) -> Self {
        assert_eq!(slots.len(), exponents.len(), "one exponent per slot");
        let moduli: Vec<u64> = exponents
            .iter()
            .map(|&j| {
                assert!(j < 64, "exponent {j} would overflow the period");
                1u64 << j
            })
            .collect();
        Self::new(slots, moduli)
    }

    /// Number of nodes in the schedule.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// The hosting row of node `p`.
    #[inline]
    pub fn row(&self, p: NodeId) -> Progression {
        Progression { slot: self.slots[p], modulus: self.moduli[p] }
    }

    /// The hosting residue of node `p`.
    pub fn slot(&self, p: NodeId) -> u64 {
        self.slots[p]
    }

    /// The hosting modulus (period) of node `p`.
    pub fn modulus(&self, p: NodeId) -> u64 {
        self.moduli[p]
    }

    /// The first edge `(u, v)`, `u < v` in graph order, whose endpoints'
    /// rows meet, or `None` when no two neighbours ever host on the same
    /// holiday (Lemma 5.2).  Exact for every holiday, not just a horizon.
    /// Graph nodes past the view have no row and never host.
    pub fn conflict(&self, graph: &Graph) -> Option<(NodeId, NodeId)> {
        let rows = graph.node_count().min(self.node_count());
        (0..rows).find_map(|u| {
            let row = self.row(u);
            // Rows ascend, so the neighbours with view rows come first.
            let mut above = graph.neighbors_above(u).iter().take_while(|&&v| v < rows);
            above.find(|&&v| row.meets(&self.row(v))).map(|&v| (u, v))
        })
    }

    /// The global cycle length: the smallest `C` such that the happy set of
    /// holiday `t` depends only on `t mod C` (the lcm of all moduli,
    /// saturating at `u64::MAX` when it overflows — callers compare it
    /// against the horizon, so saturation just disables caching).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total happy appearances over one full cycle: `Σ_p cycle / m_p`
    /// (saturating), precomputed at construction.  A hub-and-spoke degree
    /// distribution can pack `n · cycle / 2` attendances into one cycle even
    /// when the cycle itself is short.  No engine reads it: the progression
    /// engine and a cycle profile build both cost `O(n + m)`, whatever the
    /// attendance.  The repository benchmark reports it as its
    /// `profile.events` counter.
    pub fn attendance_per_cycle(&self) -> u64 {
        self.attendance
    }

    /// Whether the word-packed table was built (diagnostics only; `fill`
    /// falls back to the bucket index, then to a per-node scan).
    pub fn has_table(&self) -> bool {
        self.table.is_some()
    }

    /// Redirects node `p` to host on `row`, maintaining every cached
    /// aggregate and emission structure in place — the row-maintenance
    /// primitive behind §6 dynamic repair: an edge event recolours at most
    /// two nodes, and each recolouring is one call here instead of a full
    /// view reconstruction.
    ///
    /// Cost: `O(#distinct moduli)` to refold the cycle and attendance
    /// aggregates, plus two bit flips in the word-packed table.  The table
    /// path allocates only when the row's modulus is one the table has never
    /// held (one new row group, budget-checked like construction; on
    /// overflow the table is dropped in favour of the bucket index).  Without a table the bucket index is
    /// rebuilt, which is `O(n)` and allocates — schedules on the incremental
    /// path are expected to live within the table budget.
    ///
    /// # Panics
    /// Panics if the row's modulus is zero or its slot is not a residue of
    /// it (the construction contract).
    pub fn set_row(&mut self, p: NodeId, row: Progression) {
        let Progression { slot, modulus: m } = row;
        assert!(m >= 1, "node {p}: modulus must be positive");
        assert!(slot < m, "node {p}: slot {slot} is not a residue modulo {m}");
        let (old_slot, old_m) = (self.slots[p], self.moduli[p]);
        if old_slot == slot && old_m == m {
            return;
        }
        self.slots[p] = slot;
        self.moduli[p] = m;
        // Distinct-modulus counts, then the O(#distinct) aggregate refold.
        let old_gone = {
            let i = self
                .mods
                .binary_search_by_key(&old_m, |e| e.0)
                .expect("old modulus is in the distinct list");
            self.mods[i].1 -= 1;
            if self.mods[i].1 == 0 {
                self.mods.remove(i);
                true
            } else {
                false
            }
        };
        match self.mods.binary_search_by_key(&m, |e| e.0) {
            Ok(i) => self.mods[i].1 += 1,
            Err(i) => self.mods.insert(i, (m, 1)),
        }
        self.cycle = self.mods.iter().fold(1u64, |acc, &(m, _)| lcm_saturating(acc, m));
        let cycle = self.cycle;
        self.attendance = self
            .mods
            .iter()
            .fold(0u64, |acc, &(m, c)| acc.saturating_add((c as u64).saturating_mul(cycle / m)));
        // Emission structures: flip the two table bits in place, or rebuild
        // the bucket index when the rows were never materialised.
        if let Some(table) = self.table.as_mut() {
            if let Ok(gi) = table.groups.binary_search_by_key(&old_m, |g| g.0) {
                table.groups[gi].1[old_slot as usize].remove(p);
                if old_gone {
                    table.groups.remove(gi);
                }
            }
            match table.groups.binary_search_by_key(&m, |g| g.0) {
                Ok(gi) => {
                    table.groups[gi].1[slot as usize].insert(p);
                }
                Err(gi) => {
                    let n = self.slots.len();
                    let words = n.div_ceil(64) as u64;
                    let rows = table
                        .groups
                        .iter()
                        .try_fold(0u64, |acc, g| acc.checked_add(g.0))
                        .and_then(|acc| acc.checked_add(m));
                    let fits = rows
                        .and_then(|r| r.checked_mul(words * 8))
                        .is_some_and(|b| b <= ResidueTable::MAX_BYTES as u64);
                    if fits {
                        let mut rows = vec![FixedBitSet::new(n); m as usize];
                        rows[slot as usize].insert(p);
                        table.groups.insert(gi, (m, rows));
                    } else {
                        self.table = None;
                        self.buckets = BucketIndex::build(&self.slots, &self.moduli);
                    }
                }
            }
        } else {
            self.buckets = BucketIndex::build(&self.slots, &self.moduli);
        }
    }

    /// Applies one recorded [`RowChange`] through
    /// [`ResidueSchedule::set_row`].
    ///
    /// # Panics
    /// Panics, in every build profile, if the change's old row is not the
    /// node's current row (a stale or out-of-order replay), besides
    /// `set_row`'s own contract.
    pub fn apply_row(&mut self, change: &RowChange) {
        assert!(
            self.row(change.node) == change.old,
            "row change for node {} does not start from its current row",
            change.node
        );
        self.set_row(change.node, change.new);
    }

    /// Writes the hosting set of holiday `t` into `out`, resetting it to
    /// [`ResidueSchedule::node_count`].  Pure in `t`: callable concurrently
    /// from any number of threads.
    ///
    /// Emission strategy, fastest available first: word-packed table rows
    /// (one OR per distinct modulus), the residue [`BucketIndex`]
    /// (`O(#moduli + |hosts|)` inserts), or — only when both budgets are
    /// exceeded — a per-node scan.
    pub fn fill(&self, t: u64, out: &mut HappySet) {
        if let Some(table) = &self.table {
            table.fill(t, out);
            return;
        }
        out.reset(self.slots.len());
        match &self.buckets {
            Some(buckets) => buckets.fill(t, out),
            None => {
                for (p, (&slot, &m)) in self.slots.iter().zip(&self.moduli).enumerate() {
                    let r = if m.is_power_of_two() { t & (m - 1) } else { t % m };
                    if r == slot {
                        out.insert(p);
                    }
                }
            }
        }
    }
}

fn lcm_saturating(a: u64, b: u64) -> u64 {
    debug_assert!(a >= 1 && b >= 1);
    (a / gcd(a, b)).saturating_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn row(slot: u64, modulus: u64) -> Progression {
        Progression { slot, modulus }
    }

    /// The hosting set of holiday `t` through either view's `fill`, as a
    /// sorted `Vec`.
    trait Members {
        fn members(&self, t: u64) -> Vec<NodeId>;
    }

    impl Members for ResidueTable {
        fn members(&self, t: u64) -> Vec<NodeId> {
            let mut buf = HappySet::new(0);
            self.fill(t, &mut buf);
            buf.to_vec()
        }
    }

    impl Members for ResidueSchedule {
        fn members(&self, t: u64) -> Vec<NodeId> {
            let mut buf = HappySet::new(0);
            self.fill(t, &mut buf);
            buf.to_vec()
        }
    }

    /// Reference implementation: the per-node scan the table replaces.
    fn scan(slots: &[u64], exponents: &[u32], t: u64) -> Vec<NodeId> {
        (0..slots.len()).filter(|&p| t % (1u64 << exponents[p]) == slots[p]).collect()
    }

    /// The table for power-of-two periods `2^{exponents[p]}`.
    fn pow2_table(slots: &[u64], exponents: &[u32]) -> Option<ResidueTable> {
        let moduli: Vec<u64> = exponents.iter().map(|&j| 1u64 << j).collect();
        ResidueTable::build_moduli(slots, &moduli)
    }

    #[test]
    fn matches_scan_on_mixed_exponents() {
        let slots = vec![0, 1, 0, 3, 7, 0];
        let exponents = vec![0, 1, 2, 2, 3, 3];
        let table = pow2_table(&slots, &exponents).expect("tiny table");
        assert_eq!(table.n, 6);
        for t in 0..64u64 {
            assert_eq!(table.members(t), scan(&slots, &exponents, t), "holiday {t}");
        }
    }

    #[test]
    fn non_power_of_two_moduli_match_the_scan() {
        let slots = vec![0, 2, 4, 1, 0];
        let moduli = vec![3, 5, 5, 2, 1];
        let table = ResidueTable::build_moduli(&slots, &moduli).expect("tiny table");
        for t in 0..60u64 {
            let expected: Vec<NodeId> =
                (0..slots.len()).filter(|&p| t % moduli[p] == slots[p]).collect();
            assert_eq!(table.members(t), expected, "holiday {t}");
        }
    }

    #[test]
    fn empty_table() {
        let table = ResidueTable::build_moduli(&[], &[]).expect("empty");
        assert!(table.members(9).is_empty());
    }

    #[test]
    fn oversized_tables_are_refused() {
        // One node with a 2^40 period would need 2^40 rows: must refuse
        // rather than allocate.
        assert!(pow2_table(&[5], &[40]).is_none());
    }

    #[test]
    fn fill_reuses_the_buffer() {
        let slots = vec![0, 1];
        let exponents = vec![1, 1];
        let table = pow2_table(&slots, &exponents).unwrap();
        let mut out = HappySet::new(2);
        table.fill(0, &mut out);
        assert_eq!(out.to_vec(), vec![0]);
        table.fill(1, &mut out);
        assert_eq!(out.to_vec(), vec![1], "previous holiday's members must be cleared");
    }

    #[test]
    fn schedule_cycle_is_the_lcm_of_the_moduli() {
        let s = ResidueSchedule::new(vec![0, 1, 2], vec![2, 3, 4]);
        assert_eq!(s.cycle(), 12);
        assert_eq!(s.modulus(1), 3);
        assert_eq!(s.slot(2), 2);
        // The schedule repeats with exactly that cycle.
        for t in 0..48u64 {
            assert_eq!(s.members(t), s.members(t % 12), "holiday {t}");
        }
        let empty = ResidueSchedule::new(vec![], vec![]);
        assert_eq!(empty.cycle(), 1);
        assert!(empty.members(7).is_empty());
    }

    #[test]
    fn schedule_cycle_saturates_instead_of_overflowing() {
        let s = ResidueSchedule::new(vec![0, 0], vec![u64::MAX, u64::MAX - 1]);
        assert_eq!(s.cycle(), u64::MAX);
        assert!(!s.has_table(), "astronomically long periods cannot be tabulated");
        assert_eq!(s.members(0), vec![0, 1]);
        assert_eq!(s.members(1), Vec::<NodeId>::new());
    }

    #[test]
    fn lcm_saturation_at_the_u64_boundary() {
        // Coprime factors whose product overflows: 2^63 and 3 — the lcm
        // must saturate to u64::MAX, not wrap to 2^63·3 mod 2^64.
        let s = ResidueSchedule::new(vec![0, 0], vec![1 << 63, 3]);
        assert_eq!(s.cycle(), u64::MAX);

        // Equal astronomical moduli: gcd equals the modulus, so the lcm is
        // exact — saturation must not fire below the boundary.
        let s = ResidueSchedule::new(vec![0, 0], vec![u64::MAX, u64::MAX]);
        assert_eq!(s.cycle(), u64::MAX, "exact lcm of equal moduli");
        assert_eq!(s.attendance_per_cycle(), 2, "one attendance per node per cycle");

        // Coprime odd moduli just below the boundary (u64::MAX is odd, so
        // gcd(MAX, MAX - 2) divides 2 and must be 1): saturates.
        let s = ResidueSchedule::new(vec![0, 0], vec![u64::MAX, u64::MAX - 2]);
        assert_eq!(s.cycle(), u64::MAX);
        assert!(!s.has_table());
        assert_eq!(s.members(0), vec![0, 1], "emission still works on saturated cycles");

        // Powers of two at the top: lcm(2^63, 2^62) = 2^63, exactly.
        let s = ResidueSchedule::new(vec![0, 0], vec![1 << 63, 1 << 62]);
        assert_eq!(s.cycle(), 1 << 63);
        assert_eq!(s.attendance_per_cycle(), 3, "1 + 2 attendances per cycle");
    }

    #[test]
    fn all_three_emission_paths_agree() {
        let slots: Vec<u64> = (0..40).map(|p| (p as u64 * 7) % 8).collect();
        let exponents: Vec<u32> = (0..40).map(|p| 3 + (p % 2) as u32).collect();
        let with_table = ResidueSchedule::from_exponents(slots.clone(), &exponents);
        assert!(with_table.has_table());
        assert!(with_table.buckets.is_none(), "no fallback index while the table exists");
        let mut bucketed = with_table.clone();
        bucketed.table = None;
        bucketed.buckets = BucketIndex::build(&bucketed.slots, &bucketed.moduli);
        assert!(bucketed.buckets.is_some());
        let mut scanned = bucketed.clone();
        scanned.buckets = None;
        for t in 0..64u64 {
            let expected = with_table.members(t);
            assert_eq!(bucketed.members(t), expected, "bucket index diverged at holiday {t}");
            assert_eq!(scanned.members(t), expected, "per-node scan diverged at holiday {t}");
        }
    }

    #[test]
    fn scan_only_schedules_emit_through_the_bucket_index() {
        // The trivial-scheduler shape: n singleton rows, one per residue of a
        // single modulus n.  Emission must cost one divide + one insert, not
        // an O(n) scan — proved structurally: the bucket index exists and
        // each bucket holds exactly one node.
        let n = 500u64;
        let s = ResidueSchedule::scan_only((0..n).collect(), vec![n; n as usize]);
        assert!(!s.has_table());
        let buckets = s.buckets.as_ref().expect("index within budget");
        assert_eq!(buckets.groups.len(), 1);
        assert!(buckets.starts.windows(2).all(|w| w[1] - w[0] == 1));
        for t in [0u64, 1, 7, 499, 500, 12_345] {
            assert_eq!(s.members(t), vec![(t % n) as NodeId], "holiday {t}");
        }
    }

    #[test]
    fn attendance_per_cycle_counts_every_hosting_slot() {
        let s = ResidueSchedule::new(vec![0, 1, 2], vec![2, 3, 4]);
        // cycle 12: node 0 hosts 6 times, node 1 hosts 4, node 2 hosts 3.
        assert_eq!(s.attendance_per_cycle(), 13);
        let total: usize = (0..12u64).map(|t| s.members(t).len()).sum();
        assert_eq!(total as u64, s.attendance_per_cycle());
        // Hub-and-spoke shape: many fast nodes make the attendance volume
        // n·cycle/2 even though the cycle itself is short.
        let spokes = ResidueSchedule::new(vec![0; 64], vec![2; 64]);
        assert_eq!(spokes.attendance_per_cycle(), 64);
        // Saturated cycles saturate the attendance count too.
        let huge = ResidueSchedule::new(vec![0, 0], vec![u64::MAX, u64::MAX - 1]);
        assert_eq!(huge.attendance_per_cycle(), 2);
    }

    /// Every aggregate and emission answer of a row-edited schedule must be
    /// indistinguishable from a freshly constructed one.
    fn assert_equivalent_to_fresh(edited: &ResidueSchedule, ctx: &str) {
        let fresh = ResidueSchedule::new(edited.slots.clone(), edited.moduli.clone());
        assert_eq!(edited.cycle(), fresh.cycle(), "{ctx}: cycle");
        assert_eq!(
            edited.attendance_per_cycle(),
            fresh.attendance_per_cycle(),
            "{ctx}: attendance"
        );
        assert_eq!(edited.mods, fresh.mods, "{ctx}: distinct-modulus counts");
        let span = 2 * fresh.cycle().min(256);
        for t in 0..span {
            assert_eq!(edited.members(t), fresh.members(t), "{ctx}: holiday {t}");
        }
    }

    #[test]
    fn set_row_tracks_fresh_construction_through_the_table_path() {
        let mut s = ResidueSchedule::new(vec![0, 1, 2, 3], vec![2, 3, 4, 4]);
        assert!(s.has_table());
        // Same-modulus move, cross-modulus move, and a brand-new modulus
        // (inserts a table group), then drain a modulus empty (removes one).
        s.set_row(0, row(1, 2));
        assert_equivalent_to_fresh(&s, "slot move within modulus 2");
        s.set_row(1, row(5, 8));
        assert_equivalent_to_fresh(&s, "move onto new modulus 8");
        s.set_row(2, row(0, 4));
        assert_equivalent_to_fresh(&s, "slot move within modulus 4");
        s.set_row(0, row(2, 6));
        assert_equivalent_to_fresh(&s, "modulus 2 drained empty");
        assert!(s.has_table(), "small schedules stay on the table path");
        // No-op edits change nothing.
        let cycle = s.cycle();
        s.set_row(0, row(2, 6));
        assert_eq!(s.cycle(), cycle);
        assert_equivalent_to_fresh(&s, "no-op edit");
    }

    #[test]
    fn set_row_tracks_fresh_construction_through_the_bucket_path() {
        let n = 64u64;
        let mut s = ResidueSchedule::scan_only((0..n).collect(), vec![n; n as usize]);
        assert!(!s.has_table());
        s.set_row(3, row(0, 4));
        s.set_row(9, row(3, 4));
        assert!(s.buckets.is_some(), "bucket index rebuilt after the edit");
        assert_equivalent_to_fresh(&s, "bucket-path edits");
    }

    #[test]
    fn set_row_drops_the_table_when_a_new_modulus_blows_the_budget() {
        let mut s = ResidueSchedule::new(vec![0, 1], vec![2, 4]);
        assert!(s.has_table());
        // 2^36 rows of one word each would cost 512 GiB: the table must be
        // dropped, not allocated, and emission must keep answering.
        s.set_row(1, row(7, 1 << 36));
        assert!(!s.has_table());
        assert_equivalent_to_fresh(&s, "budget-overflow fallback");
    }

    #[test]
    fn apply_row_replays_a_recorded_change() {
        let mut s = ResidueSchedule::new(vec![0, 1], vec![2, 4]);
        s.apply_row(&RowChange { node: 1, old: row(1, 4), new: row(5, 8) });
        assert_eq!(s.row(1), row(5, 8));
        assert_equivalent_to_fresh(&s, "apply_row");
    }

    #[test]
    fn conflict_is_the_first_edge_whose_rows_meet() {
        // 0 mod 2 meets 2 mod 4 and 0 mod 3; 1 mod 4 meets neither.
        let view = ResidueSchedule::new(vec![0, 2, 1, 0], vec![2, 4, 4, 3]);
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)]).unwrap();
        assert_eq!(view.conflict(&g), Some((0, 1)));
        let g = Graph::from_edges(5, [(0, 2), (1, 2), (2, 3), (0, 3), (3, 4)]).unwrap();
        assert_eq!(view.conflict(&g), Some((0, 3)), "node 4 has no row and never hosts");
        let independent = Graph::from_edges(4, [(0, 2), (1, 2)]).unwrap();
        assert_eq!(view.conflict(&independent), None);
    }

    #[test]
    #[should_panic(expected = "slot 9 is not a residue")]
    fn set_row_rejects_out_of_range_slots() {
        let mut s = ResidueSchedule::new(vec![0], vec![2]);
        s.set_row(0, row(9, 4));
    }

    #[test]
    #[should_panic(expected = "slot 5 is not a residue")]
    fn schedule_rejects_out_of_range_slots() {
        ResidueSchedule::new(vec![5], vec![4]);
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn schedule_rejects_zero_moduli() {
        ResidueSchedule::new(vec![0], vec![0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn equivalent_to_scan_on_random_assignments(
            seed in 0u64..1000,
            t in 0u64..10_000,
        ) {
            // Derive a pseudo-random (slots, exponents) assignment from the
            // seed with plain arithmetic (no dependence on the RNG stack).
            let n = 1 + (seed % 77) as usize;
            let exponents: Vec<u32> = (0..n).map(|p| ((seed >> (p % 13)) % 6) as u32).collect();
            let slots: Vec<u64> =
                (0..n).map(|p| (seed.wrapping_mul(p as u64 + 3) >> 2) % (1 << exponents[p])).collect();
            let table = pow2_table(&slots, &exponents).expect("small");
            prop_assert_eq!(table.members(t), scan(&slots, &exponents, t));

            // The schedule view agrees with the raw table and repeats with
            // its cycle.
            let schedule = ResidueSchedule::from_exponents(slots.clone(), &exponents);
            prop_assert_eq!(schedule.members(t), scan(&slots, &exponents, t));
            prop_assert!(schedule.cycle() <= 32, "exponents < 6 keep the lcm at most 2^5");
            prop_assert_eq!(schedule.members(t), schedule.members(t % schedule.cycle()));
        }
    }
}
