//! # fhg-core
//!
//! The Family Holiday Gathering Problem: schedulers and analysis.
//!
//! Given a conflict graph `G = (P, E)` over parents, a *schedule* is an
//! infinite sequence of gatherings; the happy parents of each gathering form
//! an independent set of `G`.  The objective is to bound, for every parent
//! `p`, the maximum unhappiness interval `mul(p)` — the longest stretch of
//! consecutive holidays in which `p` is never happy — by a *local* quantity
//! (the degree `d_p` or colour `c_p` of `p`), ideally with a perfectly
//! periodic, lightweight schedule.
//!
//! This crate implements every scheduler the paper describes:
//!
//! | scheduler | paper | guarantee |
//! |-----------|-------|-----------|
//! | [`schedulers::TrivialSequential`] | §4 example 1 | `mul(p) = n` (global, bad on purpose) |
//! | [`schedulers::RoundRobinColoring`] | §1 | `mul(p) = k` for a `k`-colouring (global) |
//! | [`schedulers::PhasedGreedy`] | §3, Thm 3.1 | `mul(p) ≤ d_p + 1`, non-periodic, heavyweight |
//! | [`schedulers::PrefixCodeScheduler`] | §4.2, Thm 4.2 | perfectly periodic, period `2^ρ(c_p)` |
//! | [`schedulers::PeriodicDegreeBound`] | §5.1, Thm 5.3 | perfectly periodic, period `2^⌈log(d_p+1)⌉ ≤ 2 d_p` |
//! | [`schedulers::DistributedDegreeBound`] | §5.2 | same bound, computed distributedly |
//! | [`schedulers::FirstComeFirstGrab`] | §1 | expected wait `d_p + 1` (baseline) |
//!
//! plus the [`analysis`] module that measures `mul`, periodicity, fairness
//! and independence over a finite horizon, the [`lower_bound`] module with
//! the Theorem 4.1 Cauchy-condensation machinery, and the [`dynamic`] module
//! for the §6 dynamic setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dynamic;
pub mod failpoint;
pub mod gathering;
pub mod lower_bound;
pub mod scheduler;
pub mod schedulers;
pub mod serving;

pub use analysis::{
    analyze_schedule, analyze_schedule_reference, analyze_schedule_totals, AnalysisEngine,
    AnalysisTotals, CycleProfile, GraphChecker, HolidayChecker, NodeAnalysis, PatchRefused,
    PatchStats, ScheduleAnalysis,
};
pub use gathering::{orientation_from_happy_set, Gathering};
pub use scheduler::Scheduler;
pub use serving::{
    audit_step_size, snapshot_dir, wal_sync, AuditStats, CacheStats, PatchError, PatchOutcome,
    ProfileService, QuarantineReason, Query, QueryError, RecoverError, RecoveryReport,
    RegisterError, SnapshotStats, WalSync, WalWriter, WindowAnalysis, WindowTotals, AUDIT_STEP,
    SNAPSHOT_FILE, WAL_FILE, WAL_SYNC,
};

/// Reads the integer knob `name` from the environment through
/// [`parse_knob`].
pub(crate) fn env_knob<T: std::str::FromStr + std::fmt::Display>(name: &str, default: T) -> T {
    parse_knob(name, std::env::var(name).ok().as_deref(), default)
}

/// Parses the value `raw` of the integer knob `name` (factored out of
/// [`env_knob`] so the fallback policy is testable despite the
/// process-wide caches).  An unset or blank value gives `default`; a
/// malformed one warns once on stderr and gives `default`, so a typo in
/// the environment can never panic a long-lived server.  Surrounding
/// whitespace is trimmed.
pub(crate) fn parse_knob<T: std::str::FromStr + std::fmt::Display>(
    name: &str,
    raw: Option<&str>,
    default: T,
) -> T {
    let Some(raw) = raw.map(str::trim).filter(|raw| !raw.is_empty()) else {
        return default;
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!(
            "warning: {name}={raw:?} is not a {}; using the default {default}",
            std::any::type_name::<T>()
        );
        default
    })
}

/// The zero-allocation per-holiday buffer filled by
/// [`Scheduler::fill_happy_set`] (defined in [`fhg_graph::happy_set`] so the
/// distributed layer can fill it too).
pub use fhg_graph::HappySet;

/// Commonly used items, re-exported for `use fhg_core::prelude::*`.
pub mod prelude {
    pub use crate::analysis::{
        analyze_schedule, analyze_schedule_reference, AnalysisEngine, ScheduleAnalysis,
    };
    pub use crate::scheduler::Scheduler;
    pub use crate::schedulers::{
        DistributedDegreeBound, FirstComeFirstGrab, PeriodicDegreeBound, PhasedGreedy,
        PrefixCodeScheduler, RoundRobinColoring, TrivialSequential,
    };
    pub use fhg_graph::HappySet;
}
