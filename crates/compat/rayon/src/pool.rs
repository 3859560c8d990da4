//! The persistent worker pool behind every parallel call.
//!
//! Worker threads are spawned lazily the first time a parallel call wants
//! them and then **kept alive for the life of the pool**, parked on a shared
//! batch queue.  A parallel call packages its chunked input as a [`BatchData`]
//! on the calling thread's stack, publishes up to `threads - 1` references to
//! it, and then *participates*: the caller drains chunks alongside the
//! workers, so the batch completes even if every worker is busy (or the pool
//! has fewer workers than requested).  [`run_beside`] lets the caller run
//! work of its own first (a `join`'s first closure) while the workers start
//! on the batch, and drain what they left afterwards.  This replaces the
//! previous `std::thread::scope` spawn-per-call model, whose ~50 µs of
//! spawn/join overhead dominated sub-millisecond analyses.
//!
//! # Soundness
//!
//! Batches borrow the caller's stack (the chunk inputs and the work closure
//! are not `'static`), so handing them to persistent threads requires erasing
//! lifetimes behind raw pointers — the same fundamental trick real rayon and
//! crossbeam use.  The protocol that keeps it sound:
//!
//! 1. A worker may dereference the erased pointers only between
//!    *registering* with the batch (`active += 1` under the batch lock, and
//!    only while the batch is not `closed`) and *de-registering*
//!    (`active -= 1`).
//! 2. The caller, after draining the job queue itself, marks the batch
//!    `closed` and **blocks until `active == 0`** before returning — so the
//!    borrowed data outlives every worker access.
//! 3. A queued batch reference picked up after `closed` is a no-op: the
//!    worker observes `closed` under the same lock and never touches the
//!    erased pointers.  The reference itself is an `Arc`, so the control
//!    block stays valid no matter how late the pickup happens.
//!
//! Chunk panics are caught on the executing thread, recorded in the batch,
//! and re-thrown on the calling thread once the batch has fully completed;
//! workers survive panicking batches.  Allocation behaviour is deterministic
//! per call (one `Arc`, the pre-sized job/result vectors, no per-chunk or
//! per-send allocations), which `tests/zero_alloc.rs` relies on.
#![allow(unsafe_code)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};

/// Pending batch references the queue can hold before reallocating; bounded
/// in practice by the largest thread count ever requested per call.
const QUEUE_CAPACITY: usize = 64;

/// The typed half of a batch, living on the calling thread's stack for the
/// duration of [`run_beside`].
struct BatchData<I, R, F> {
    /// Remaining chunk jobs; drained LIFO (results are re-sorted by base).
    jobs: Mutex<Vec<(usize, I)>>,
    /// Completed `(base, result)` pairs, pre-sized to the job count.
    results: Mutex<Vec<(usize, R)>>,
    /// The caller's work closure; outlives the batch by protocol rule 2.
    work: *const F,
    /// First captured chunk panic, re-thrown by the caller.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

/// State guarding the lifetime-erased half of a batch.
struct BatchState {
    /// Set by the caller once the queue is drained; workers observing it
    /// must not touch the erased pointers.
    closed: bool,
    /// Number of workers currently registered with the batch.
    active: usize,
}

/// The lifetime-erased batch handle shared with pool workers.
pub(crate) struct BatchShared {
    /// Erased `*const BatchData<I, R, F>`.
    data: *const (),
    /// Monomorphised drain entry point matching `data`'s erased type.
    drain: unsafe fn(*const ()),
    state: Mutex<BatchState>,
    /// Signalled whenever `active` drops to zero.
    done: Condvar,
}

// SAFETY: the raw pointers are only dereferenced under the registration
// protocol in the module docs (worker registered, batch open, caller blocked
// until active == 0), which makes every access to the pointed-to data happen
// strictly before `run_beside` returns and the data is dropped.  All other
// fields are ordinary sync primitives.
unsafe impl Send for BatchShared {}
unsafe impl Sync for BatchShared {}

impl BatchShared {
    /// Executes the batch on a pool worker: register, drain, de-register.
    fn run_on_worker(&self) {
        {
            let mut state = self.state.lock().expect("batch state poisoned");
            if state.closed {
                return;
            }
            state.active += 1;
        }
        // Chunk panics are caught inside `drain`; the outer guard only keeps
        // the de-registration balanced if `drain` itself ever panicked.
        // SAFETY: registered above with the batch open — protocol rule 1.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (self.drain)(self.data) }));
        let mut state = self.state.lock().expect("batch state poisoned");
        state.active -= 1;
        if state.active == 0 {
            self.done.notify_all();
        }
        drop(state);
        drop(outcome);
    }
}

/// Runs jobs until the queue is empty or a chunk has panicked.  Called by
/// the batch owner directly and by workers through [`drain_erased`].
fn drain<I, R, F: Fn(usize, I) -> R>(data: &BatchData<I, R, F>) {
    loop {
        if data.panicked.lock().expect("panic slot poisoned").is_some() {
            return;
        }
        let job = data.jobs.lock().expect("job queue poisoned").pop();
        let Some((base, input)) = job else { return };
        // SAFETY: `work` points at the closure owned by the `run_beside`
        // frame, which cannot return while this thread is registered.
        let work = unsafe { &*data.work };
        match catch_unwind(AssertUnwindSafe(|| work(base, input))) {
            Ok(result) => data.results.lock().expect("results poisoned").push((base, result)),
            Err(payload) => {
                // Keep the *first* captured panic: a near-simultaneous panic
                // on another participant must not overwrite the root cause.
                let mut slot = data.panicked.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
                return;
            }
        }
    }
}

/// The erased drain entry stored in [`BatchShared`]; monomorphised per
/// `run_beside` call site.
///
/// # Safety
/// `ptr` must be the erased `BatchData<I, R, F>` the matching [`run_beside`]
/// frame owns, and the caller must be registered with the (open) batch.
unsafe fn drain_erased<I, R, F: Fn(usize, I) -> R>(ptr: *const ()) {
    // SAFETY: per the function contract, `ptr` outlives this call.
    let data = unsafe { &*ptr.cast::<BatchData<I, R, F>>() };
    drain(data);
}

/// Runs `jobs` on up to `threads` participants (the caller plus pool
/// workers) and returns the results sorted back into input order.  The
/// caller always participates, so the call completes on any pool state.
pub(crate) fn run_batch<I, R, F>(jobs: Vec<(usize, I)>, threads: usize, work: F) -> Vec<(usize, R)>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    // One helper per extra thread, never more than the jobs the caller could
    // leave over for them.
    let helpers = (threads - 1).min(jobs.len().saturating_sub(1));
    run_beside(jobs, helpers, work, || ()).1
}

/// Publishes `jobs` to up to `helpers` pool workers and runs `own` on the
/// calling thread meanwhile.  The caller then drains the jobs no worker has
/// taken, waits until the batch is quiet, and returns `own`'s result with
/// the jobs' results sorted back into input order.  A panic in `own` is held
/// until the batch is quiet, because the batch borrows this frame, and is
/// then re-thrown ahead of any job's panic.
pub(crate) fn run_beside<I, R, F, T>(
    jobs: Vec<(usize, I)>,
    helpers: usize,
    work: F,
    own: impl FnOnce() -> T,
) -> (T, Vec<(usize, R)>)
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let job_count = jobs.len();
    let data = BatchData {
        jobs: Mutex::new(jobs),
        results: Mutex::new(Vec::with_capacity(job_count)),
        work: &work,
        panicked: Mutex::new(None),
    };
    let shared = Arc::new(BatchShared {
        data: (&data as *const BatchData<I, R, F>).cast(),
        drain: drain_erased::<I, R, F>,
        state: Mutex::new(BatchState { closed: false, active: 0 }),
        done: Condvar::new(),
    });
    global().submit(&shared, helpers.min(job_count));

    let own = catch_unwind(AssertUnwindSafe(own));
    drain(&data);

    {
        let mut state = shared.state.lock().expect("batch state poisoned");
        state.closed = true;
        while state.active > 0 {
            state = shared.done.wait(state).expect("batch state poisoned");
        }
    }
    // All workers de-registered and the queue is closed: the batch is quiet,
    // so the borrowed `data`/`work` are no longer referenced anywhere.
    let own = own.unwrap_or_else(|payload| resume_unwind(payload));
    if let Some(payload) = data.panicked.lock().expect("panic slot poisoned").take() {
        resume_unwind(payload);
    }
    let mut results = std::mem::take(&mut *data.results.lock().expect("results poisoned"));
    results.sort_unstable_by_key(|&(base, _)| base);
    (own, results)
}

/// Queue shared between submitters and parked workers.
struct Queue {
    batches: VecDeque<Arc<BatchShared>>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// A set of persistent worker threads parked on a shared batch queue.
///
/// Workers are spawned lazily up to the largest helper count ever requested
/// and live until the pool is dropped, which closes the queue and joins
/// every worker — the drop path a process-global pool never runs but local
/// pools (and the drain test) do.
pub(crate) struct PersistentPool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl PersistentPool {
    pub(crate) fn new() -> Self {
        PersistentPool {
            inner: Arc::new(Inner {
                queue: Mutex::new(Queue {
                    batches: VecDeque::with_capacity(QUEUE_CAPACITY),
                    shutdown: false,
                }),
                available: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Number of live worker threads (diagnostics and tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.lock().expect("worker list poisoned").len()
    }

    /// Publishes `copies` references to `batch` and wakes parked workers,
    /// growing the pool so at least `copies` workers exist.
    pub(crate) fn submit(&self, batch: &Arc<BatchShared>, copies: usize) {
        if copies == 0 {
            return;
        }
        self.ensure_workers(copies);
        {
            let mut queue = self.inner.queue.lock().expect("pool queue poisoned");
            for _ in 0..copies {
                queue.batches.push_back(Arc::clone(batch));
            }
        }
        self.inner.available.notify_all();
    }

    fn ensure_workers(&self, target: usize) {
        let mut workers = self.workers.lock().expect("worker list poisoned");
        while workers.len() < target {
            let inner = Arc::clone(&self.inner);
            let handle = thread::Builder::new()
                .name(format!("fhg-rayon-worker-{}", workers.len()))
                .spawn(move || worker_loop(&inner))
                .expect("failed to spawn pool worker");
            workers.push(handle);
        }
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
            // Pending references are only ever *extra* helpers; the batches
            // they point at complete through their callers regardless.
            queue.batches.clear();
        }
        self.inner.available.notify_all();
        for handle in self.workers.lock().expect("worker list poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut queue = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(batch) = queue.batches.pop_front() {
                    break batch;
                }
                queue = inner.available.wait(queue).expect("pool queue poisoned");
            }
        };
        batch.run_on_worker();
    }
}

/// The process-global pool every parallel call shares.  Never dropped;
/// worker threads end with the process.
pub(crate) fn global() -> &'static PersistentPool {
    static POOL: OnceLock<PersistentPool> = OnceLock::new();
    POOL.get_or_init(PersistentPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_a_pool_drains_and_joins_its_workers() {
        let pool = PersistentPool::new();
        pool.ensure_workers(3);
        assert_eq!(pool.worker_count(), 3);
        drop(pool); // must not hang: queue closes, workers exit, joins succeed
    }

    #[test]
    fn pool_grows_to_the_largest_request_and_no_further() {
        let pool = PersistentPool::new();
        pool.ensure_workers(2);
        pool.ensure_workers(1);
        assert_eq!(pool.worker_count(), 2, "requests never shrink the pool");
        pool.ensure_workers(5);
        assert_eq!(pool.worker_count(), 5);
        pool.ensure_workers(5);
        assert_eq!(pool.worker_count(), 5, "no spawn-per-call growth");
    }
}
