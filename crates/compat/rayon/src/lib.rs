//! Offline stand-in for `rayon`, backed by real OS threads.
//!
//! The build environment has no access to crates.io, so this crate implements
//! the subset of the `rayon` API the workspace uses on top of `std::thread`:
//!
//! * [`prelude::IntoParallelRefIterator`] / [`prelude::IntoParallelRefMutIterator`]
//!   giving `par_iter()` / `par_iter_mut()` on slices and `Vec`s, with the
//!   `enumerate` / `map` / `for_each` / `sum` / `collect` combinators the
//!   workspace calls on them;
//! * [`join`] for two-way fork/join, the first closure on the calling thread;
//! * [`ParIterMut::for_each_isolated`] for crash-only batches: per-job
//!   panics are caught and reported as a [`BatchOutcome`] instead of
//!   re-thrown, so one poisoned job cannot take down its siblings or the
//!   caller (the serving tier quarantines exactly the jobs that died);
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] for scoping a region of
//!   code to an explicit thread count (used by the analysis parity tests to
//!   pin 1/2/8 threads without touching the environment);
//! * [`current_num_threads`].
//!
//! # Execution model (work-stealing-lite on a persistent pool)
//!
//! Each parallel call splits its input into contiguous chunks (about four per
//! worker) and publishes them as one *batch* to a *persistent worker pool*
//! (module [`pool`]): worker threads are spawned lazily on first use, kept
//! alive across calls, and repeatedly pull the next chunk from the batch
//! until it is drained — a fast worker simply "steals" the chunks a slow
//! worker never got to claim, and the calling thread always participates, so
//! progress never depends on a worker being free.  Results are tagged with
//! their chunk's base index and reassembled in input order, so every
//! combinator is deterministic: outputs are bit-for-bit identical across
//! thread counts, only timing changes.  A panicking chunk is captured and
//! re-thrown on the calling thread after the batch completes.  [`join`]
//! publishes only its second closure, as a one-job batch, and runs the first
//! on the calling thread meanwhile.
//!
//! Persistence matters for latency: the previous implementation spawned
//! scoped threads per call (~50 µs), which dominated sub-millisecond
//! analyses.  With the pool, the steady-state cost of a parallel call is a
//! handful of mutex operations and one `Arc` allocation.
//!
//! # Thread-count knob
//!
//! The default worker count is resolved once, in order: the `FHG_THREADS`
//! environment variable, then `RAYON_NUM_THREADS`, then
//! [`std::thread::available_parallelism`].  `FHG_THREADS=1` (or an installed
//! one-thread pool) makes every entry point run inline on the calling thread —
//! no threads are spawned, the pool is never touched.
//!
//! When a vendored or registry `rayon` becomes available, swapping the path
//! dependency back restores the real work-stealing scheduler with no source
//! changes.

#![deny(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;
use std::thread;

mod pool;

thread_local! {
    /// Thread count installed by [`ThreadPool::install`] on this thread.
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        for var in ["FHG_THREADS", "RAYON_NUM_THREADS"] {
            if let Ok(value) = std::env::var(var) {
                if let Some(n) = parse_thread_count(var, &value) {
                    return n;
                }
            }
        }
        thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Parses one thread-count override (factored out of [`default_threads`] so
/// the fallback policy is testable despite the process-wide cache).  Empty
/// values are silently ignored; malformed or zero values warn once to
/// stderr and are ignored — an environment typo must degrade to the
/// detected parallelism, never kill or wedge the process.
fn parse_thread_count(var: &str, value: &str) -> Option<usize> {
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!(
                "warning: {var}={value:?} is not a positive thread count; \
                 using detected parallelism"
            );
            None
        }
    }
}

/// The number of worker threads parallel calls on this thread will use: an
/// installed [`ThreadPool`]'s count if one is active, otherwise the process
/// default (`FHG_THREADS` / `RAYON_NUM_THREADS` / available parallelism).
pub fn current_num_threads() -> usize {
    POOL_OVERRIDE.with(Cell::get).unwrap_or_else(default_threads)
}

/// Builder for a [`ThreadPool`] with an explicit thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder using the process-default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (clamped to at least 1).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n.max(1));
        self
    }

    /// Builds the pool.  Never fails in this implementation; the `Result`
    /// mirrors the real rayon signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { threads: self.num_threads.unwrap_or_else(default_threads) })
    }
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced here; kept for
/// API compatibility with the real rayon).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A handle carrying an explicit thread count for a region of code.
///
/// Unlike the real rayon, the handle owns no threads of its own: `install`
/// only records the count in thread-local state, and each parallel call
/// inside the closure borrows that many participants (itself plus workers)
/// from the process-wide persistent pool.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The thread count parallel calls will use inside [`ThreadPool::install`].
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with this pool's thread count as the ambient
    /// [`current_num_threads`] on the calling thread, restoring the previous
    /// count afterwards (also on panic).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_OVERRIDE.with(|o| o.set(self.0));
            }
        }
        let _restore = Restore(POOL_OVERRIDE.with(|o| o.replace(Some(self.threads))));
        op()
    }
}

/// Runs both closures, potentially in parallel, and returns both results.
///
/// `oper_a` runs on the calling thread, as in rayon.  With one ambient
/// thread `oper_b` runs inline after it, unless `oper_a` panicked.
/// Otherwise `oper_b` is offered to one pool worker while the caller runs
/// `oper_a`, and the caller runs `oper_b` itself if no worker has taken it
/// by then; a panic in either closure reaches the caller once both have
/// finished, `oper_a`'s first.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    let (ra, mut results) = pool::run_beside(vec![(0usize, oper_b)], 1, |_, f: B| f(), oper_a);
    let (_, rb) = results.pop().expect("a join batch completes with its one job");
    (ra, rb)
}

/// Chunks each worker pulls on average; finer granularity lets a fast worker
/// steal the chunks a slow one never claimed.
const CHUNKS_PER_THREAD: usize = 4;

fn chunk_len(total: usize, threads: usize) -> usize {
    total.div_ceil(threads.max(1) * CHUNKS_PER_THREAD).max(1)
}

/// The execution core: runs `work` over `(base_index, chunk)` jobs on the
/// calling thread plus up to `threads - 1` persistent pool workers pulling
/// jobs from the batch, and returns the results sorted back into input
/// order.  Single-threaded (or single-job) calls run inline — no pool, no
/// locks.
fn run_chunked<I, R, F>(jobs: Vec<(usize, I)>, threads: usize, work: F) -> Vec<(usize, R)>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|(base, chunk)| (base, work(base, chunk))).collect();
    }
    pool::run_batch(jobs, threads, work)
}

fn shared_jobs<T>(slice: &[T], threads: usize) -> Vec<(usize, &[T])> {
    let len = chunk_len(slice.len(), threads);
    slice.chunks(len).enumerate().map(|(i, c)| (i * len, c)).collect()
}

fn mut_jobs<T>(slice: &mut [T], threads: usize) -> Vec<(usize, &mut [T])> {
    let len = chunk_len(slice.len(), threads);
    slice.chunks_mut(len).enumerate().map(|(i, c)| (i * len, c)).collect()
}

/// Parallel iterator over `&T` items of a slice.
pub struct ParIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Pairs every item with its index, preserving input order.
    pub fn enumerate(self) -> ParIterEnum<'data, T> {
        ParIterEnum { slice: self.slice }
    }

    /// Lazily maps every item; consume with `collect` or `sum`.
    pub fn map<R, F>(self, f: F) -> ParIterMap<'data, T, F>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParIterMap { slice: self.slice, f }
    }

    /// Applies `f` to every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'data T) + Sync,
    {
        let threads = current_num_threads();
        run_chunked(shared_jobs(self.slice, threads), threads, |_base, chunk: &[T]| {
            for item in chunk {
                f(item);
            }
        });
    }

    /// Sums the items (chunk partial sums, then a sum of partials — exact for
    /// the integer sums the workspace uses).
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<&'data T> + std::iter::Sum<S> + Send,
    {
        let threads = current_num_threads();
        run_chunked(shared_jobs(self.slice, threads), threads, |_base, chunk: &[T]| {
            chunk.iter().sum::<S>()
        })
        .into_iter()
        .map(|(_, partial)| partial)
        .sum()
    }
}

/// Indexed parallel iterator over `&T` items.
pub struct ParIterEnum<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParIterEnum<'data, T> {
    /// Lazily maps every `(index, item)` pair; consume with `collect`.
    pub fn map<R, F>(self, f: F) -> ParIterEnumMap<'data, T, F>
    where
        R: Send,
        F: Fn((usize, &'data T)) -> R + Sync,
    {
        ParIterEnumMap { slice: self.slice, f }
    }
}

/// A mapped parallel iterator over `&T` items, ready to consume.
pub struct ParIterMap<'data, T, F> {
    slice: &'data [T],
    f: F,
}

impl<'data, T, R, F> ParIterMap<'data, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    /// Collects the mapped items in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let threads = current_num_threads();
        let f = &self.f;
        run_chunked(shared_jobs(self.slice, threads), threads, |_base, chunk: &[T]| {
            chunk.iter().map(f).collect::<Vec<R>>()
        })
        .into_iter()
        .flat_map(|(_, part)| part)
        .collect::<Vec<R>>()
        .into()
    }

    /// Sums the mapped items.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R> + std::iter::Sum<S> + Send,
    {
        let threads = current_num_threads();
        let f = &self.f;
        run_chunked(shared_jobs(self.slice, threads), threads, |_base, chunk: &[T]| {
            chunk.iter().map(f).sum::<S>()
        })
        .into_iter()
        .map(|(_, partial)| partial)
        .sum()
    }
}

/// A mapped, indexed parallel iterator over `&T` items.
pub struct ParIterEnumMap<'data, T, F> {
    slice: &'data [T],
    f: F,
}

impl<'data, T, R, F> ParIterEnumMap<'data, T, F>
where
    T: Sync,
    R: Send,
    F: Fn((usize, &'data T)) -> R + Sync,
{
    /// Collects the mapped items in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let threads = current_num_threads();
        let f = &self.f;
        run_chunked(shared_jobs(self.slice, threads), threads, |base, chunk: &[T]| {
            chunk.iter().enumerate().map(|(j, item)| f((base + j, item))).collect::<Vec<R>>()
        })
        .into_iter()
        .flat_map(|(_, part)| part)
        .collect::<Vec<R>>()
        .into()
    }
}

/// One job that panicked inside an isolated batch — see
/// [`ParIterMut::for_each_isolated`].
#[derive(Debug)]
pub struct JobPanic {
    /// Index of the input item whose job panicked.
    pub index: usize,
    /// The panic payload, rendered as a string when it was one (`&str` or
    /// `String` payloads; anything else becomes a placeholder).
    pub message: String,
}

/// The result of an isolated batch: which jobs panicked, in input order.
/// Every non-panicking job ran to completion regardless.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// The panicked jobs, sorted by input index.
    pub panics: Vec<JobPanic>,
}

impl BatchOutcome {
    /// Whether every job completed without panicking.
    pub fn is_clean(&self) -> bool {
        self.panics.is_empty()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Parallel iterator over `&mut T` items of a slice.
pub struct ParIterMut<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send> ParIterMut<'data, T> {
    /// Pairs every item with its index, preserving input order.
    pub fn enumerate(self) -> ParIterMutEnum<'data, T> {
        ParIterMutEnum { slice: self.slice }
    }

    /// Applies `f` to every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'data mut T) + Sync,
    {
        let threads = current_num_threads();
        run_chunked(mut_jobs(self.slice, threads), threads, |_base, chunk: &'data mut [T]| {
            for item in chunk {
                f(item);
            }
        });
    }

    /// Applies `f` to every item with **per-job panic isolation**: a panic
    /// in `f` is caught on the executing thread and recorded against the
    /// item's index instead of aborting the batch or re-throwing into the
    /// caller (the [`ParIterMut::for_each`] contract).  Every other item —
    /// including the rest of the panicking item's chunk — still runs, and
    /// the returned [`BatchOutcome`] says exactly which jobs died, so a
    /// crash-only caller can poison precisely the state those jobs owned
    /// while the healthy jobs' results stand.
    ///
    /// `f` only gets `&mut` to one item at a time, so item state observed
    /// after a panic is whatever `f` had written so far — the caller decides
    /// whether that is quarantinable or recoverable.
    pub fn for_each_isolated<F>(self, f: F) -> BatchOutcome
    where
        F: Fn(&mut T) + Sync,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let threads = current_num_threads();
        let panics: std::sync::Mutex<Vec<JobPanic>> = std::sync::Mutex::new(Vec::new());
        run_chunked(mut_jobs(self.slice, threads), threads, |base, chunk: &'data mut [T]| {
            for (j, item) in chunk.iter_mut().enumerate() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(item))) {
                    panics
                        .lock()
                        .expect("isolated panic list poisoned")
                        .push(JobPanic { index: base + j, message: panic_message(&*payload) });
                }
            }
        });
        let mut panics = panics.into_inner().expect("isolated panic list poisoned");
        panics.sort_unstable_by_key(|p| p.index);
        BatchOutcome { panics }
    }
}

/// Indexed parallel iterator over `&mut T` items.
pub struct ParIterMutEnum<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send> ParIterMutEnum<'data, T> {
    /// Lazily maps every `(index, item)` pair; consume with `collect`.
    pub fn map<R, F>(self, f: F) -> ParIterMutEnumMap<'data, T, F>
    where
        R: Send,
        F: Fn((usize, &'data mut T)) -> R + Sync,
    {
        ParIterMutEnumMap { slice: self.slice, f }
    }
}

/// A mapped, indexed parallel iterator over `&mut T` items.
pub struct ParIterMutEnumMap<'data, T, F> {
    slice: &'data mut [T],
    f: F,
}

impl<'data, T, R, F> ParIterMutEnumMap<'data, T, F>
where
    T: Send,
    R: Send,
    F: Fn((usize, &'data mut T)) -> R + Sync,
{
    /// Collects the mapped items in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let threads = current_num_threads();
        let f = &self.f;
        run_chunked(mut_jobs(self.slice, threads), threads, |base, chunk: &'data mut [T]| {
            chunk.iter_mut().enumerate().map(|(j, item)| f((base + j, item))).collect::<Vec<R>>()
        })
        .into_iter()
        .flat_map(|(_, part)| part)
        .collect::<Vec<R>>()
        .into()
    }
}

/// The parallel-iterator entry-point traits: `use rayon::prelude::*;`.
pub mod prelude {
    use super::{ParIter, ParIterMut};

    /// `par_iter()` on shared slices.
    pub trait IntoParallelRefIterator<'data> {
        /// Element type of the underlying collection.
        type Item: Sync + 'data;

        /// A parallel iterator over `&Self::Item`.
        fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = T;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { slice: self }
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = T;

        fn par_iter(&'data self) -> ParIter<'data, T> {
            ParIter { slice: self }
        }
    }

    /// `par_iter_mut()` on exclusive slices.
    pub trait IntoParallelRefMutIterator<'data> {
        /// Element type of the underlying collection.
        type Item: Send + 'data;

        /// A parallel iterator over `&mut Self::Item`.
        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, Self::Item>;
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
        type Item = T;

        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, T> {
            ParIterMut { slice: self }
        }
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
        type Item = T;

        fn par_iter_mut(&'data mut self) -> ParIterMut<'data, T> {
            ParIterMut { slice: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn with_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(op)
    }

    #[test]
    fn par_iter_mut_maps_and_collects_like_std() {
        for threads in [1, 2, 8] {
            let mut v: Vec<i32> = (1..=100).collect();
            let expected: Vec<i32> = v.iter().enumerate().map(|(i, x)| *x * 2 + i as i32).collect();
            let doubled: Vec<i32> = with_threads(threads, || {
                v.par_iter_mut().enumerate().map(|(i, x)| *x * 2 + i as i32).collect()
            });
            assert_eq!(doubled, expected, "threads = {threads}");
        }
    }

    #[test]
    fn thread_count_overrides_fall_back_instead_of_wedging() {
        // A malformed FHG_THREADS / RAYON_NUM_THREADS must degrade to the
        // detected parallelism, never kill the process or pin it to a
        // nonsensical count.
        assert_eq!(parse_thread_count("FHG_THREADS", "4"), Some(4));
        assert_eq!(parse_thread_count("FHG_THREADS", " 2 "), Some(2), "whitespace is trimmed");
        assert_eq!(parse_thread_count("FHG_THREADS", ""), None);
        assert_eq!(parse_thread_count("FHG_THREADS", "0"), None, "zero threads is invalid");
        assert_eq!(parse_thread_count("FHG_THREADS", "-1"), None);
        assert_eq!(parse_thread_count("RAYON_NUM_THREADS", "lots"), None);
        assert_eq!(parse_thread_count("FHG_THREADS", "3.5"), None);
    }

    #[test]
    fn par_iter_mut_for_each_mutates_every_item() {
        let mut v = vec![0u64; 1000];
        with_threads(4, || v.par_iter_mut().for_each(|x| *x += 7));
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn par_iter_sum_and_map_agree_with_sequential() {
        let v: Vec<u64> = (0..997).collect();
        for threads in [1, 3, 8] {
            let sum: u64 = with_threads(threads, || v.par_iter().sum());
            assert_eq!(sum, 997 * 996 / 2);
            let mapped: Vec<u64> = with_threads(threads, || v.par_iter().map(|x| x * 3).collect());
            assert_eq!(mapped, v.iter().map(|x| x * 3).collect::<Vec<_>>());
            let total: u64 = with_threads(threads, || v.par_iter().map(|x| x + 1).sum());
            assert_eq!(total, 997 * 996 / 2 + 997);
        }
    }

    #[test]
    fn par_iter_enumerate_preserves_indices() {
        let v: Vec<u32> = (0..257).map(|i| i * 2).collect();
        let pairs: Vec<(usize, u32)> =
            with_threads(5, || v.par_iter().enumerate().map(|(i, x)| (i, *x)).collect());
        for (i, (idx, val)) in pairs.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, (i as u32) * 2);
        }
    }

    #[test]
    fn for_each_really_runs_on_worker_threads() {
        let v = vec![0u8; 64];
        let seen = Mutex::new(HashSet::new());
        with_threads(8, || {
            v.par_iter().for_each(|_| {
                seen.lock().unwrap().insert(thread::current().id());
                // Give other workers a chance to claim chunks.
                thread::yield_now();
            })
        });
        // With one chunk per item group and 8 workers at least one spawned
        // worker participates (the exact count is scheduling-dependent).
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn one_thread_runs_inline_without_spawning() {
        let v = vec![1u64; 16];
        let main_id = thread::current().id();
        with_threads(1, || {
            v.par_iter().for_each(|_| assert_eq!(thread::current().id(), main_id));
        });
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 4] {
            let (a, b) = with_threads(threads, || join(|| 6 * 7, || "ok"));
            assert_eq!(a, 42);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn join_runs_its_first_closure_on_the_calling_thread() {
        let caller = thread::current().id();
        // `oper_b` waits until `oper_a` has run: were the caller to start on
        // `oper_b`, only a worker could run `oper_a`.
        let (ran_a, a_done) = std::sync::mpsc::channel();
        let (a, ()) = with_threads(2, || {
            join(
                move || {
                    ran_a.send(()).expect("oper_b is listening");
                    thread::current().id()
                },
                move || a_done.recv().expect("oper_a runs"),
            )
        });
        assert_eq!(a, caller, "oper_a must run on the caller");
    }

    #[test]
    fn join_panics_reach_the_caller() {
        use std::sync::atomic::AtomicBool;
        for threads in [1, 2] {
            let b_ran = AtomicBool::new(false);
            let a_panics = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    join(
                        || panic!("oper_a failed"),
                        || {
                            thread::sleep(std::time::Duration::from_millis(5));
                            b_ran.store(true, Ordering::SeqCst);
                        },
                    )
                })
            });
            let payload = a_panics.expect_err("oper_a's panic must reach the caller");
            assert_eq!(panic_message(&*payload), "oper_a failed", "threads = {threads}");
            if threads > 1 {
                assert!(b_ran.load(Ordering::SeqCst), "the panic waits until oper_b is done");
            }
            let b_panics = std::panic::catch_unwind(|| {
                with_threads(threads, || join(|| 1, || -> u32 { panic!("oper_b failed") }))
            });
            let payload = b_panics.expect_err("oper_b's panic must reach the caller");
            assert_eq!(panic_message(&*payload), "oper_b failed", "threads = {threads}");
            // The pool survives both panics.
            assert_eq!(with_threads(threads, || join(|| 2, || 3)), (2, 3));
        }
    }

    #[test]
    fn install_is_scoped_and_restored() {
        let outer = current_num_threads();
        with_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_threads(5, || assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u64> = vec![];
        let collected: Vec<u64> = with_threads(4, || empty.par_iter().map(|x| *x).collect());
        assert!(collected.is_empty());
        let one = [9u64];
        let sum: u64 = with_threads(4, || one.par_iter().sum());
        assert_eq!(sum, 9);
    }

    #[test]
    fn every_chunk_is_processed_exactly_once() {
        let v = vec![1u64; 10_000];
        let counter = AtomicUsize::new(0);
        with_threads(7, || {
            v.par_iter().for_each(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn workers_persist_instead_of_spawning_per_call() {
        // The first call at a given thread count grows the pool to its
        // helper target; repeating the identical call many times must not
        // grow it further (spawn-per-call would not register workers with
        // the pool at all).  Comparing before/after counts — rather than an
        // absolute cap — keeps the assertion valid even if concurrent tests
        // in this process request other thread counts.
        let v: Vec<u64> = (0..4096).collect();
        let sum: u64 = with_threads(8, || v.par_iter().sum());
        assert_eq!(sum, 4096 * 4095 / 2);
        let after_first = super::pool::global().worker_count();
        assert!(after_first >= 7, "an 8-thread call must have grown the pool to 7 helpers");
        for _ in 0..20 {
            let sum: u64 = with_threads(8, || v.par_iter().sum());
            assert_eq!(sum, 4096 * 4095 / 2);
        }
        let after_many = super::pool::global().worker_count();
        assert_eq!(after_first, after_many, "identical repeated calls must reuse the same workers");
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            let v = vec![0u64; 128];
            with_threads(4, || v.par_iter().for_each(|_| panic!("boom")));
        });
        assert!(result.is_err());
    }

    #[test]
    fn isolated_batches_record_panics_instead_of_rethrowing() {
        for threads in [1usize, 2, 8] {
            let mut v: Vec<u64> = (0..100).collect();
            let outcome = with_threads(threads, || {
                v.par_iter_mut().for_each_isolated(|x| {
                    if *x % 10 == 3 {
                        panic!("job {x} poisoned");
                    }
                    *x += 1000;
                })
            });
            assert_eq!(
                outcome.panics.iter().map(|p| p.index).collect::<Vec<_>>(),
                vec![3, 13, 23, 33, 43, 53, 63, 73, 83, 93],
                "threads = {threads}: exactly the poisoned jobs are recorded, in order"
            );
            assert!(outcome.panics[0].message.contains("poisoned"), "payload text survives");
            assert!(!outcome.is_clean());
            for (i, x) in v.iter().enumerate() {
                if i % 10 == 3 {
                    assert_eq!(*x, i as u64, "threads = {threads}: a dead job's item is untouched");
                } else {
                    assert_eq!(*x, i as u64 + 1000, "threads = {threads}: healthy jobs complete");
                }
            }
        }
    }

    #[test]
    fn isolated_batches_with_no_panics_are_clean() {
        let mut v = vec![1u32; 64];
        let outcome = with_threads(4, || v.par_iter_mut().for_each_isolated(|x| *x *= 2));
        assert!(outcome.is_clean());
        assert!(v.iter().all(|&x| x == 2));
    }
}
