//! The [`Scheduler`] trait: the common interface of every algorithm in the
//! paper.
//!
//! A scheduler is queried holiday by holiday and produces the set of happy
//! parents.  The engine interface is [`Scheduler::fill_happy_set`], which
//! writes into a caller-provided [`HappySet`] buffer and performs **zero heap
//! allocations per holiday** once the buffer has warmed up to the right
//! capacity; [`HappySet::to_vec`] copies a holiday out as a sorted
//! `Vec<NodeId>` where one is wanted.
//!
//! Stateful schedulers (the §3 phased-greedy algorithm and the random
//! baseline) must be queried with consecutive holiday numbers starting from
//! [`Scheduler::first_holiday`]; perfectly periodic schedulers (§4, §5) are
//! pure functions of the holiday number.

use fhg_graph::{HappySet, NodeId};

use crate::gathering::Gathering;
use crate::schedulers::residue::ResidueSchedule;

/// A (possibly stateful) holiday-gathering scheduler.
///
/// A scheduler is `Send` because [`crate::analysis::analyze_schedule`]
/// hands its emission to `rayon::join` while a pool worker verifies and
/// records the previous block of holidays.  The emission itself stays on
/// the calling thread, and the scheduler is never shared, so it needs no
/// `Sync`.
pub trait Scheduler: Send {
    /// Number of parents in the conflict graph this scheduler was built for.
    ///
    /// [`fill_happy_set`](Scheduler::fill_happy_set) resets its output buffer
    /// to exactly this capacity.
    fn node_count(&self) -> usize;

    /// Writes the happy parents of holiday `t` into `out`.
    ///
    /// # Contract
    ///
    /// * Implementations overwrite `out` at capacity `self.node_count()`
    ///   (`HappySet::reset`, `assign_many` or `assign_where`), so the caller
    ///   never has to clear the buffer between holidays and may reuse one
    ///   buffer across different schedulers.  Each reallocates only when the
    ///   capacity changes, so driving one scheduler over a horizon allocates
    ///   nothing after the first call.
    /// * Stateful schedulers (those with
    ///   [`rounds_per_holiday`](Scheduler::rounds_per_holiday) `> 0` or other
    ///   state carried from one holiday to the next) must be called with
    ///   **consecutive** values of `t` starting at
    ///   [`first_holiday`](Scheduler::first_holiday); a holiday cannot be
    ///   replayed.  Perfectly periodic schedulers, and schedulers whose
    ///   happy set is a pure function of `t` such as the seeded first come
    ///   first grab, accept any `t` in any order.
    fn fill_happy_set(&mut self, t: u64, out: &mut HappySet);

    /// The first holiday index this scheduler is defined for (the paper
    /// starts at 1; purely periodic schedulers also accept 0).
    fn first_holiday(&self) -> u64 {
        1
    }

    /// Short machine-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Whether the schedule is perfectly periodic (every node is happy every
    /// fixed number of holidays).
    fn is_periodic(&self) -> bool;

    /// The exact period of node `p`, when the schedule is perfectly periodic.
    fn period(&self, p: NodeId) -> Option<u64>;

    /// The scheduler's *a-priori* upper bound on the maximum unhappiness
    /// interval of node `p`, if it offers one (e.g. `d_p + 1` for the §3
    /// algorithm, `2^ρ(c_p)` for §4, `2^⌈log(d_p+1)⌉` for §5).
    fn unhappiness_bound(&self, p: NodeId) -> Option<u64>;

    /// A thread-safe residue view of this schedule, when the happy set is a
    /// **pure function of the holiday number**: for every `t`,
    /// `view.fill(t, out)` must produce exactly the set
    /// [`fill_happy_set`](Scheduler::fill_happy_set) would, evaluable through
    /// `&self` from any thread.
    ///
    /// Returning `Some` puts the scheduler on the progression engine
    /// ([`crate::analysis::AnalysisEngine::ClosedForm`]) at every horizon:
    /// [`crate::analysis::analyze_schedule`] reads each node's
    /// `(slot, modulus)` row, derives its statistics from one formula per
    /// node and the independence verdict from one congruence test per
    /// edge, without emitting a single happy set, so the horizon and the
    /// [`ResidueSchedule::cycle`] cost nothing.  The view is also what the
    /// serving tier caches ([`crate::serving::ProfileService`]).  Stateful
    /// schedulers must return `None` (the default) and take the sequential,
    /// fully verified path.
    fn residue_schedule(&self) -> Option<&ResidueSchedule> {
        None
    }

    /// The global cycle length of this schedule — the smallest `C` such that
    /// the happy set of holiday `t` depends only on `t mod C` — when the
    /// scheduler exposes a residue view.  Convenience over
    /// [`residue_schedule`](Scheduler::residue_schedule) for engine
    /// selection, experiment tables and horizon sizing.
    fn schedule_cycle(&self) -> Option<u64> {
        self.residue_schedule().map(ResidueSchedule::cycle)
    }

    /// Number of LOCAL-model communication rounds charged to the
    /// initialisation of this scheduler (0 for purely sequential ones).
    fn init_rounds(&self) -> u64 {
        0
    }

    /// Number of LOCAL-model communication rounds charged to *each holiday*
    /// (the §3 algorithm pays O(1) per holiday; periodic schedulers pay 0).
    fn rounds_per_holiday(&self) -> u64 {
        0
    }
}

/// The happy parents of holiday `t` as a sorted `Vec` — the tests' way to
/// assert on one holiday.
#[cfg(test)]
pub(crate) fn happy_vec<S: Scheduler + ?Sized>(s: &mut S, t: u64) -> Vec<NodeId> {
    let mut buf = HappySet::new(s.node_count());
    s.fill_happy_set(t, &mut buf);
    buf.to_vec()
}

/// Convenience blanket helpers available on every scheduler.
pub trait SchedulerExt: Scheduler {
    /// Collects the happy sets of the first `horizon` holidays, starting at
    /// [`Scheduler::first_holiday`], driving the engine through **one**
    /// reused [`HappySet`] buffer.
    fn run(&mut self, horizon: u64) -> Vec<Vec<NodeId>> {
        let start = self.first_holiday();
        let mut buf = HappySet::new(self.node_count());
        (start..start + horizon)
            .map(|t| {
                self.fill_happy_set(t, &mut buf);
                buf.to_vec()
            })
            .collect()
    }

    /// Collects the first `horizon` [`Gathering`]s (the Definition 2.1
    /// orientation view), driving the engine through **one** reused
    /// [`HappySet`] buffer — the only steady-state allocations are the
    /// returned gatherings themselves.
    fn gatherings(&mut self, horizon: u64) -> Vec<Gathering> {
        let start = self.first_holiday();
        let mut buf = HappySet::new(self.node_count());
        (start..start + horizon)
            .map(|t| {
                self.fill_happy_set(t, &mut buf);
                Gathering::from_happy_set(t, &buf)
            })
            .collect()
    }
}

impl<S: Scheduler + ?Sized> SchedulerExt for S {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal scheduler for exercising the trait defaults.
    struct EveryOther {
        n: usize,
    }

    impl Scheduler for EveryOther {
        fn node_count(&self) -> usize {
            self.n
        }
        fn fill_happy_set(&mut self, t: u64, out: &mut HappySet) {
            out.reset(self.n);
            if t.is_multiple_of(2) {
                for p in 0..self.n {
                    out.insert(p);
                }
            }
        }
        fn name(&self) -> &'static str {
            "every-other"
        }
        fn is_periodic(&self) -> bool {
            true
        }
        fn period(&self, _p: NodeId) -> Option<u64> {
            Some(2)
        }
        fn unhappiness_bound(&self, _p: NodeId) -> Option<u64> {
            Some(2)
        }
    }

    #[test]
    fn trait_defaults() {
        let s = EveryOther { n: 3 };
        assert_eq!(s.first_holiday(), 1);
        assert_eq!(s.init_rounds(), 0);
        assert_eq!(s.rounds_per_holiday(), 0);
        assert_eq!(s.node_count(), 3);
        assert!(s.residue_schedule().is_none(), "no residue view unless opted in");
        assert!(s.schedule_cycle().is_none(), "no cycle without a residue view");
    }

    #[test]
    fn fill_resets_the_buffer_and_clears_old_members() {
        let mut s = EveryOther { n: 4 };
        let mut buf = HappySet::new(0); // wrong capacity on purpose
        s.fill_happy_set(2, &mut buf);
        assert_eq!(buf.capacity(), 4, "fill must reset the buffer to node_count");
        assert_eq!(buf.to_vec(), vec![0, 1, 2, 3]);
        s.fill_happy_set(3, &mut buf);
        assert!(buf.is_empty(), "fill must clear previous members");
    }

    #[test]
    fn run_collects_consecutive_holidays() {
        let mut s = EveryOther { n: 2 };
        let sets = s.run(4); // holidays 1, 2, 3, 4
        assert_eq!(sets.len(), 4);
        assert!(sets[0].is_empty());
        assert_eq!(sets[1], vec![0, 1]);
        assert!(sets[2].is_empty());
        assert_eq!(sets[3], vec![0, 1]);
    }

    #[test]
    fn gatherings_mirror_run_with_holiday_indices() {
        let mut a = EveryOther { n: 3 };
        let mut b = EveryOther { n: 3 };
        let gatherings = a.gatherings(4);
        let sets = b.run(4);
        assert_eq!(gatherings.len(), 4);
        for (g, (offset, set)) in gatherings.iter().zip(sets.iter().enumerate()) {
            assert_eq!(g.holiday, 1 + offset as u64, "holiday indices carried through");
            assert_eq!(&g.happy, set, "same members as the Vec API");
        }
    }

    #[test]
    fn trait_objects_work() {
        let mut boxed: Box<dyn Scheduler> = Box::new(EveryOther { n: 1 });
        assert_eq!(boxed.name(), "every-other");
        let mut buf = HappySet::new(1);
        boxed.fill_happy_set(2, &mut buf);
        assert_eq!(buf.to_vec(), vec![0]);
        let sets = boxed.run(2);
        assert_eq!(sets.len(), 2);
    }
}
