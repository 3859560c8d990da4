//! # fhg — The Family Holiday Gathering Problem
//!
//! An umbrella crate re-exporting the whole Family Holiday Gathering (FHG)
//! workspace: a Rust reproduction of *"The Family Holiday Gathering Problem
//! or Fair and Periodic Scheduling of Independent Sets"* (Amir, Kapah,
//! Kopelowitz, Naor, Porat — SPAA 2016).
//!
//! The problem: given a conflict graph over parents, emit an infinite
//! sequence of independent sets ("which parents host a full family dinner
//! this holiday") such that every parent's longest unhappy streak is bounded
//! by a *local* quantity — its degree or its colour — rather than by global
//! graph parameters, ideally with a perfectly periodic, lightweight and
//! distributed schedule.
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | conflict-graph substrate, generators, properties, dynamic edges, the [`graph::HappySet`] engine buffer |
//! | [`codes`] | prefix-free integer codes (Elias γ/δ/ω), `φ`, iterated logs |
//! | [`coloring`] | sequential colouring algorithms |
//! | [`distributed`] | synchronous LOCAL-model simulator + distributed colouring/MIS |
//! | [`core`] | the schedulers and analysis from the paper (§3, §4, §5, §6) |
//! | [`matching`] | Appendix A algorithms (matching, satisfaction, MIS) |
//! | [`radio`] | cellular-radio TDMA application layer |
//!
//! ## The `HappySet` engine
//!
//! Every scheduler implements `core::Scheduler::fill_happy_set(t, &mut
//! HappySet)`, which writes one holiday's happy parents into a caller-owned
//! word-packed buffer with **zero heap allocations per holiday** after
//! warm-up; perfectly periodic schedulers (§4/§5) emit via precomputed
//! residue bit rows (one word-wise OR per distinct period) and the analysis
//! verifies independence word-wise against adjacency rows.  The original
//! `happy_set(t) -> Vec<NodeId>` remains as a compatibility shim over the
//! buffer path.  Contract: implementations reset the buffer to
//! `node_count()` themselves, and stateful schedulers (§3 phased greedy, the
//! random baseline) must see **consecutive** holidays through either entry
//! point, starting at `first_holiday()`.
//!
//! Perfectly periodic schedulers additionally expose a
//! `core::Scheduler::residue_schedule` view — each parent's `(slot, modulus)`
//! row — which lets `core::analyze_schedule` skip emission entirely: every
//! parent's statistics follow from one formula on its row, and independence
//! from one congruence test per conflict edge, in `O(n + m)` at any horizon
//! and bitwise-identical to the sequential sweep.
//!
//! ## Quickstart
//!
//! ```
//! use fhg::core::prelude::*;
//! use fhg::graph::generators;
//!
//! // A random conflict graph over 200 families.
//! let g = generators::erdos_renyi(200, 0.03, 7);
//!
//! // The periodic degree-bound scheduler of paper §5: every parent of degree
//! // d is happy exactly every 2^ceil(log2(d+1)) <= 2d holidays.
//! let mut scheduler = PeriodicDegreeBound::new(&g);
//! let analysis = analyze_schedule(&g, &mut scheduler, 512);
//! assert!(analysis.all_happy_sets_independent);
//! for p in g.nodes() {
//!     let bound = 2 * g.degree(p).max(1);
//!     assert!((analysis.per_node[p].max_unhappiness as usize) < bound.max(2));
//! }
//! ```

pub use fhg_codes as codes;
pub use fhg_coloring as coloring;
pub use fhg_core as core;
pub use fhg_distributed as distributed;
pub use fhg_graph as graph;
pub use fhg_matching as matching;
pub use fhg_radio as radio;
