//! # fhg-graph
//!
//! Graph substrate for the Family Holiday Gathering (FHG) library.
//!
//! The paper "The Family Holiday Gathering Problem or Fair and Periodic
//! Scheduling of Independent Sets" (Amir, Kapah, Kopelowitz, Naor, Porat)
//! models the world as a *conflict graph* `G = (P, E)`: nodes are parents and
//! an edge connects two parents whose children are in a relationship.  Every
//! scheduler in the companion crates consumes graphs produced by this crate.
//!
//! The crate provides:
//!
//! * [`Graph`] — the undirected simple conflict graph: sorted neighbour
//!   rows in one flat arena, packed (a compressed-sparse-row layout) when
//!   built, edited in place by dynamic edge events, and scanned directly by
//!   the schedulers, the independence checkers and the distributed
//!   simulator.
//! * [`generators`] — synthetic conflict-graph families (Erdős–Rényi,
//!   unit-disk/radio, Barabási–Albert, bipartite "two villages", cliques,
//!   cycles, grids, trees, regular circulants, …) used by the experiments.
//! * [`properties`] — structural measurements (degree statistics, components,
//!   bipartiteness, degeneracy, triangles, independence checks).
//! * [`happy_set`] — the reusable word-packed [`HappySet`] buffer the
//!   scheduler engine fills once per holiday without allocating.
//! * [`kernels`] — the fused word kernels (OR+popcount emission, set-bit
//!   extraction) every hot bit loop runs on: one portable source, whose
//!   emission loops also run compiled for AVX2 + POPCNT where the CPU has
//!   both.
//! * [`dynamic`] — the dynamic-setting substrate of paper §6: edge events
//!   and the random churn streams the §6 experiments replay.
//!
//! ## Quick example
//!
//! ```
//! use fhg_graph::{Graph, generators, properties};
//!
//! let g = generators::erdos_renyi(100, 0.05, 42);
//! assert_eq!(g.node_count(), 100);
//! let comps = properties::connected_components(&g);
//! assert!(comps.component_count() >= 1);
//! ```

// The only `unsafe` code is the two dispatch blocks in `kernels` that call
// the AVX2 + POPCNT compilation of the emission loops after a runtime
// feature check; there are no intrinsics and no raw pointers.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod dynamic;
pub mod error;
pub mod generators;
pub mod graph;
pub mod happy_set;
pub mod io;
pub mod kernels;
pub mod properties;

pub use bitset::FixedBitSet;
pub use dynamic::{EdgeEvent, EdgeEventKind};
pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use happy_set::HappySet;
pub use kernels::KernelMode;

/// Identifier of a node (a "parent" in the paper's terminology).
///
/// Nodes are always numbered `0..n` densely; all graph types in this crate
/// and every algorithm in the workspace rely on that invariant.
pub type NodeId = usize;
