//! # fhg-distributed
//!
//! A synchronous LOCAL-model round simulator and the distributed
//! symmetry-breaking algorithms the paper builds on.
//!
//! The paper assumes the standard LOCAL model of distributed computing
//! (Linial; Peleg): computation proceeds in synchronous rounds, in each round
//! every node may exchange messages with its neighbours and update its state,
//! and complexity is measured in rounds.  The paper uses the BEPS randomised
//! `(Δ+1)`-colouring algorithm as a black box, relying only on two
//! properties: the colour a node of degree `d` receives is at most `d + 1`,
//! and the palette can be restricted per node (needed by §5.2).
//!
//! Since BEPS's sub-logarithmic machinery is irrelevant to every
//! schedule-quality claim, we substitute **Johansson's simple randomised
//! list-colouring** (reference [16] of the paper, the inner loop of BEPS):
//! each still-undecided node proposes a uniformly random colour from its
//! remaining palette, keeps it if no neighbour proposed the same colour this
//! round, and removes finalised neighbour colours from its palette.  It
//! terminates in `O(log n)` rounds w.h.p., satisfies both required
//! properties, and — crucially for this reproduction — runs on the same
//! simulator whose round counts experiment E5 reports.
//!
//! Contents:
//!
//! * [`simulator`] — the synchronous message-passing engine, which steps
//!   only the nodes that have not terminated, with round and message
//!   accounting.
//! * [`coloring`] — distributed list colouring (Johansson / BEPS-style),
//!   `(deg+1)`-colouring, and restricted-palette colouring.
//! * [`mis`] — Luby's randomised maximal-independent-set algorithm, used by
//!   the "first come first grab" baseline analysis and as a building block.
//! * [`degree_bound`] — the §5.2 phased, palette-restricted distributed slot
//!   assignment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod degree_bound;
pub mod mis;
pub mod simulator;

pub use coloring::{johansson_coloring, list_coloring, ColoringOutcome};
pub use degree_bound::{distributed_slot_assignment, SlotAssignmentOutcome};
pub use mis::{luby_mis, MisOutcome};
pub use simulator::{ExecutionStats, NodeContext, Protocol, RoundOutput, Simulator};
