//! The unified, cost-aware, work-stealing task scheduler behind both of
//! the engine's parallelism layers.
//!
//! Before this module existed the workspace had **two disjoint thread
//! pools**: `pool::WorkerPool` handed whole sweep points to channel-fed
//! threads in input order, and `channels::par_drain` spun up its own
//! scoped threads for every multi-channel drain. A long tail point ran on
//! one worker while the rest of the pool idled, and a drain inside a
//! running point *added* threads beyond the configured worker count. Both
//! layers are now thin front-ends over one [`Scheduler`]:
//!
//! * **One thread budget.** A scheduler built for `threads` workers spawns
//!   exactly `threads - 1` OS threads, once, and *never spawns again* — a
//!   multi-channel drain nested inside a sweep point executes as stealable
//!   tasks on the same threads instead of spawning scoped helpers.
//!   [`SchedStats::spawned`] exposes the count so tests can pin the
//!   budget.
//! * **Work-stealing deques.** Every worker owns a deque: it pushes and
//!   pops its own bottom, and idle workers steal from a random victim's
//!   top (falling back to a shared injector queue for tasks submitted by
//!   non-worker threads). A worker that finishes its sweep points steals
//!   the *channel-drain segments* of a still-running point — the idle pool
//!   lends its threads to the tail.
//! * **Cost-seeded dispatch.** Ordered batches optionally carry per-job
//!   cost estimates (see [`cost`]); dispatch starts the estimated-longest
//!   jobs first so the tail shrinks, while result collection, the
//!   lowest-index failure contract, and cancel semantics stay byte-for-
//!   byte those of the sequential executor (see the `batch` internals; the
//!   public contract is documented on [`crate::pool::WorkerPool`]).
//!
//! # Deadlock freedom
//!
//! Nested waits are *helping* waits: a thread that blocks on a scope's
//! completion first drains its **own** deque, so the tasks it pushed for
//! that scope run even if every other worker is busy. A pushed task is
//! therefore always executed — by a thief if one is idle, by the pusher
//! otherwise — and every scope strictly nests, so no cycle of waits can
//! form.

mod batch;
pub mod cost;

pub use batch::Cancel;

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// An erased task shipped across threads. The `'static` bound is a lie
/// told through [`std::mem::transmute`]; every scope that pushes borrowed
/// tasks waits on a latch that guarantees the borrowed state outlives
/// them.
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Which scheduler (by `Inner` address) and deque this thread serves,
    /// if it is a scheduler worker. Decides where a pushed task lands:
    /// workers push to their own deque (stealable bottom), everyone else
    /// to the shared injector.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

/// Locks a mutex, ignoring poison: every guarded value in this module
/// stays consistent across a panic (plain stores), and panic payloads are
/// propagated explicitly instead of through poison.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Erases the borrow lifetime of a scoped task so it can cross deques.
///
/// # Safety
///
/// The caller must not let the borrowed frame return or unwind past the
/// task's completion — every call site pairs the push with a latch that
/// is awaited (with helping) before the frame ends.
#[allow(unsafe_code)] // The workspace's single sanctioned unsafe pattern (see lib.rs).
unsafe fn erase_task_lifetime<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    unsafe {
        std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Box<dyn FnOnce() + Send + 'static>>(
            task,
        )
    }
}

/// Counts outstanding pool-side tasks of one scope; the owner blocks on it
/// (helping from its own deque) before touching the scope's state again.
struct Latch {
    left: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self { left: Mutex::new(n), done: Condvar::new() }
    }

    fn arrive(&self) {
        let mut left = lock_unpoisoned(&self.left);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *lock_unpoisoned(&self.left) == 0
    }
}

/// Decrements the latch even if the guarded scope unwinds.
struct ArriveOnDrop<'a>(&'a Latch);

impl Drop for ArriveOnDrop<'_> {
    fn drop(&mut self) {
        self.0.arrive();
    }
}

/// Wake coordination for idle workers. `generation` is bumped on every
/// submitted task; a worker records the generation *before* hunting for
/// work and only sleeps if it is unchanged after an empty hunt, so a
/// submit can never slip between the hunt and the sleep unnoticed.
struct Sleep {
    generation: u64,
    shutdown: bool,
}

/// Cumulative scheduler counters, snapshotted by [`Scheduler::stats`].
///
/// The counters are monotone and advisory (Relaxed atomics): they exist so
/// tests and operators can *observe* scheduling behavior — that drains
/// really ran as stealable segments, that stealing happened, that the
/// thread budget held — not to feed back into scheduling decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Ordered batches executed on the parallel path.
    pub batches: u64,
    /// Batch jobs executed (sweep points, shard launches, …), on the
    /// parallel and the inline path alike, so the count does not depend
    /// on the thread count.
    pub jobs: u64,
    /// Multi-channel drain segments executed as scheduler tasks — the
    /// intra-point parallelism counter: non-zero iff a drain ran through
    /// the scheduler instead of sequentially on its caller.
    pub drain_chunks: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Tasks taken from the shared injector queue.
    pub injector_pops: u64,
    /// OS threads this scheduler has spawned — always `threads - 1`, the
    /// global budget minus the participating caller. Nested drains must
    /// never move this.
    pub spawned: usize,
    /// High-water mark of workers concurrently executing tasks; bounded by
    /// [`SchedStats::spawned`] by construction.
    pub max_live: usize,
}

/// Shared scheduler state: deques, injector, sleep coordination, stats.
struct Inner {
    /// Concurrent worker target (spawned workers + the calling thread).
    threads: usize,
    /// One deque per spawned worker; owners push/pop the back, thieves
    /// steal the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Overflow queue for tasks submitted by non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    sleep: Mutex<Sleep>,
    wake: Condvar,
    batches: AtomicU64,
    jobs: AtomicU64,
    drain_chunks: AtomicU64,
    steals: AtomicU64,
    injector_pops: AtomicU64,
    spawned: AtomicUsize,
    live: AtomicUsize,
    max_live: AtomicUsize,
}

impl Inner {
    /// True when the current thread is one of this scheduler's workers,
    /// returning its deque index.
    fn worker_index(self: &Arc<Self>) -> Option<usize> {
        match WORKER.get() {
            Some((addr, idx)) if addr == Arc::as_ptr(self) as usize => Some(idx),
            _ => None,
        }
    }

    /// Queues one task: onto the current worker's own deque when called
    /// from a worker of this scheduler (stealable by idle peers), onto the
    /// shared injector otherwise — then wakes sleepers.
    fn push(self: &Arc<Self>, task: Task) {
        match self.worker_index() {
            Some(idx) => match self.deques.get(idx) {
                Some(dq) => lock_unpoisoned(dq).push_back(task),
                None => lock_unpoisoned(&self.injector).push_back(task),
            },
            None => lock_unpoisoned(&self.injector).push_back(task),
        }
        let mut sleep = lock_unpoisoned(&self.sleep);
        sleep.generation += 1;
        drop(sleep);
        self.wake.notify_all();
    }

    /// One hunt for work, in steal order: own deque bottom, then a random
    /// victim's top (scanning all victims from a random start), then the
    /// injector front.
    fn find_task(&self, me: usize, rng: &mut u64) -> Option<Task> {
        if let Some(dq) = self.deques.get(me) {
            if let Some(t) = lock_unpoisoned(dq).pop_back() {
                return Some(t);
            }
        }
        let n = self.deques.len();
        if n > 1 {
            let start = (xorshift(rng) % n as u64) as usize;
            for k in 0..n {
                let v = (start + k) % n;
                if v == me {
                    continue;
                }
                if let Some(dq) = self.deques.get(v) {
                    if let Some(t) = lock_unpoisoned(dq).pop_front() {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        gradpim_obs::instant("sched.steal", "sched");
                        return Some(t);
                    }
                }
            }
        }
        let t = lock_unpoisoned(&self.injector).pop_front();
        if t.is_some() {
            self.injector_pops.fetch_add(1, Ordering::Relaxed);
            gradpim_obs::instant("sched.injector_pop", "sched");
        }
        t
    }

    /// Executes one task on a worker thread, tracking the live high-water
    /// mark (the budget observable) and containing stray panics — scope
    /// tasks catch their own, but a worker must survive regardless.
    fn run_task(&self, task: Task) {
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_live.fetch_max(live, Ordering::Relaxed);
        debug_assert!(
            live <= self.spawned.load(Ordering::Relaxed),
            "more live workers than spawned threads"
        );
        let _ = panic::catch_unwind(AssertUnwindSafe(task));
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Blocks until `latch` reaches zero, first draining the calling
    /// worker's own deque — the helping wait that makes nested scopes
    /// deadlock-free (see the module docs). Non-worker callers wait on the
    /// latch directly; their tasks sit in the injector where the spawned
    /// workers drain them.
    fn wait_latch(self: &Arc<Self>, latch: &Latch) {
        if let Some(me) = self.worker_index() {
            loop {
                if latch.is_done() {
                    return;
                }
                let task = self.deques.get(me).and_then(|dq| lock_unpoisoned(dq).pop_back());
                match task {
                    // Usually the innermost scope's own task (LIFO); if a
                    // thief already stole those, this may be an *enclosing*
                    // scope's task — also safe to run here, since every
                    // enclosing frame is still live below us on the stack.
                    Some(task) => task(),
                    None => break,
                }
            }
        }
        let mut left = lock_unpoisoned(&latch.left);
        while *left > 0 {
            left = latch.done.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One step of a xorshift64* sequence — victim selection only, never
/// simulation state, so scheduler randomness cannot touch results.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Worker main loop: hunt (own deque → steal → injector), run, sleep when
/// the generation shows nothing new arrived during an empty hunt.
fn worker_main(inner: &Arc<Inner>, index: usize) {
    WORKER.set(Some((Arc::as_ptr(inner) as usize, index)));
    let mut rng = (index as u64 + 1) ^ 0x9E37_79B9_7F4A_7C15;
    loop {
        let generation = lock_unpoisoned(&inner.sleep).generation;
        if let Some(task) = inner.find_task(index, &mut rng) {
            inner.run_task(task);
            continue;
        }
        let sleep = lock_unpoisoned(&inner.sleep);
        if sleep.shutdown {
            return;
        }
        if sleep.generation == generation {
            let woke = inner.wake.wait(sleep).unwrap_or_else(PoisonError::into_inner);
            drop(woke);
        }
    }
}

/// A cheap, clonable capability to execute tasks on a [`Scheduler`] —
/// what [`crate::Engine`] hands to the drain hook so phase executors deep
/// inside a sweep point can route their multi-channel drains onto the
/// same thread budget that runs the sweep.
#[derive(Clone)]
pub struct SchedHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SchedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedHandle").field("threads", &self.inner.threads).finish()
    }
}

impl SchedHandle {
    /// The scheduler's concurrent worker target (spawned + caller).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Applies `f` to every item, fanned across the scheduler as stealable
    /// chunk tasks (contiguous chunks, results in item order). The caller
    /// runs the first chunk itself and help-waits for the rest, so the
    /// call completes even when every worker is busy; idle workers steal
    /// the remaining chunks — this is how an idle pool lends threads to a
    /// running point's multi-channel drain. With one thread or one item
    /// everything runs inline on the caller.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-indexed panicking chunk.
    pub fn for_each_mut<T, R>(&self, items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let workers = self.inner.threads.min(items.len()).max(1);
        if workers <= 1 {
            return items.iter_mut().map(f).collect();
        }
        let chunk = items.len().div_ceil(workers);
        let chunks: Vec<&mut [T]> = items.chunks_mut(chunk).collect();
        let n = chunks.len();
        self.inner.drain_chunks.fetch_add(n as u64, Ordering::Relaxed);
        let slots: Vec<Mutex<Option<Vec<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Lowest-indexed chunk panic, re-raised on the caller after every
        // chunk has finished (the borrows below must not outlive them).
        let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        let run_chunk = |i: usize, part: &mut [T]| {
            let _span = gradpim_obs::span_lazy(|| format!("sched.drain_chunk[{i}]"), "sched");
            match panic::catch_unwind(AssertUnwindSafe(|| part.iter_mut().map(&f).collect())) {
                Ok(results) => {
                    if let Some(slot) = slots.get(i) {
                        *lock_unpoisoned(slot) = Some(results);
                    }
                }
                Err(payload) => {
                    let mut first = lock_unpoisoned(&panicked);
                    if first.as_ref().is_none_or(|(p, _)| i < *p) {
                        *first = Some((i, payload));
                    }
                }
            }
        };
        let latch = Latch::new(n - 1);
        let mut rest = chunks.into_iter().enumerate();
        #[allow(clippy::expect_used)]
        // gradpim-lint: allow(panic-discipline): chunks is non-empty (workers >= 2
        // implies items.len() >= 2), so the first chunk always exists.
        let (_, first) = rest.next().expect("at least one chunk");
        for (i, part) in rest {
            let latch = &latch;
            let run_chunk = &run_chunk;
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let _arrive = ArriveOnDrop(latch);
                run_chunk(i, part);
            });
            // SAFETY: the task borrows `run_chunk`, `latch`, `slots`,
            // `panicked`, and the chunked `items`. `wait_latch` below does
            // not return until every pushed task has finished (ArriveOnDrop
            // fires even on unwind), so the borrows never dangle.
            #[allow(unsafe_code)] // Opt-in under the crate's deny; SAFETY above.
            let task = unsafe { erase_task_lifetime(task) };
            self.inner.push(task);
        }
        run_chunk(0, first);
        self.inner.wait_latch(&latch);
        if let Some((_, payload)) = lock_unpoisoned(&panicked).take() {
            panic::resume_unwind(payload);
        }
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match lock_unpoisoned(&slot).take() {
                Some(results) => out.extend(results),
                // gradpim-lint: allow(panic-discipline): every chunk either filled
                // its slot or recorded a panic that was re-raised above.
                None => unreachable!("empty chunk slot without a recorded panic"),
            }
        }
        out
    }

    /// Fans `jobs` across the scheduler with input-ordered results and the
    /// sequential failure contract; `costs` (estimated cycles, see
    /// [`cost`]) seed longest-first dispatch when given. Semantics are
    /// documented on [`crate::pool::WorkerPool::run_ordered`].
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job.
    ///
    /// # Panics
    ///
    /// Re-raises the original payload of the lowest-indexed panicking job.
    pub fn run_ordered_with<T, R, E, F>(
        &self,
        jobs: &[T],
        costs: Option<&[u64]>,
        f: F,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T, &Cancel<'_>) -> Result<R, E> + Sync,
    {
        batch::run_batch(&self.inner, jobs, costs, f)
    }

    /// A point-in-time copy of the scheduler counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            batches: self.inner.batches.load(Ordering::Relaxed),
            jobs: self.inner.jobs.load(Ordering::Relaxed),
            drain_chunks: self.inner.drain_chunks.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            injector_pops: self.inner.injector_pops.load(Ordering::Relaxed),
            spawned: self.inner.spawned.load(Ordering::Relaxed),
            max_live: self.inner.max_live.load(Ordering::Relaxed),
        }
    }
}

/// The work-stealing scheduler: owns the thread budget (`threads - 1` OS
/// threads spawned at construction, joined on drop — nothing else in the
/// workspace creates simulation threads) and executes every kind of engine
/// task: whole sweep points, shard launches, and the channel segments of a
/// multi-channel drain.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.inner.threads)
            .field("spawned", &self.workers.len())
            .finish()
    }
}

impl Scheduler {
    /// A scheduler sized for `threads` concurrent workers (clamped to at
    /// least 1). `threads - 1` OS threads are spawned now — the calling
    /// thread is the remaining worker of every batch and drain — and this
    /// is the *only* spawn site: the count never grows, no matter how
    /// deeply drains nest inside points.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            threads,
            deques: (0..threads.saturating_sub(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(Sleep { generation: 0, shutdown: false }),
            wake: Condvar::new(),
            batches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            drain_chunks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            spawned: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            max_live: AtomicUsize::new(0),
        });
        #[allow(clippy::expect_used)] // Fatal setup failure; justified below.
        let workers = (0..threads.saturating_sub(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                inner.spawned.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("gradpim-sched-{i}"))
                    .spawn(move || worker_main(&inner, i))
                    // gradpim-lint: allow(panic-discipline): scheduler construction
                    // runs before any batch exists; a failed OS thread spawn is fatal
                    // setup, not a mid-batch panic to propagate.
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// The concurrent worker target (spawned workers + the caller) — the
    /// global thread budget.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// A clonable execution handle (see [`SchedHandle`]).
    pub fn handle(&self) -> SchedHandle {
        SchedHandle { inner: Arc::clone(&self.inner) }
    }

    /// See [`SchedHandle::run_ordered_with`]; this is the unweighted,
    /// no-cancel convenience.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job.
    pub fn run_ordered<T, R, E, F>(&self, jobs: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.handle().run_ordered_with(jobs, None, |i, job, _| f(i, job))
    }

    /// See [`SchedHandle::run_ordered_with`].
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job.
    pub fn run_ordered_with<T, R, E, F>(
        &self,
        jobs: &[T],
        costs: Option<&[u64]>,
        f: F,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T, &Cancel<'_>) -> Result<R, E> + Sync,
    {
        self.handle().run_ordered_with(jobs, costs, f)
    }

    /// See [`SchedHandle::for_each_mut`].
    pub fn for_each_mut<T, R>(&self, items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        self.handle().for_each_mut(items, f)
    }

    /// A point-in-time copy of the scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.handle().stats()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut sleep = lock_unpoisoned(&self.inner.sleep);
            sleep.shutdown = true;
        }
        self.inner.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn spawn_count_is_the_budget_minus_the_caller() {
        for threads in [1usize, 2, 5] {
            let sched = Scheduler::new(threads);
            assert_eq!(sched.stats().spawned, threads - 1, "threads={threads}");
            assert_eq!(sched.threads(), threads);
        }
        assert_eq!(Scheduler::new(0).threads(), 1, "clamped to sequential");
    }

    #[test]
    fn for_each_mut_preserves_item_order() {
        let sched = Scheduler::new(4);
        let mut items: Vec<u64> = (0..23).collect();
        let out = sched.for_each_mut(&mut items, |x| {
            *x += 1;
            *x * 10
        });
        assert_eq!(out, (1..24).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(items, (1..24).collect::<Vec<_>>());
        assert!(sched.stats().drain_chunks > 0);
    }

    #[test]
    fn for_each_mut_single_item_runs_inline() {
        let sched = Scheduler::new(8);
        let mut items = [7u64];
        assert_eq!(sched.for_each_mut(&mut items, |x| *x * 2), vec![14]);
        assert_eq!(sched.stats().drain_chunks, 0, "inline path must not count chunks");
    }

    #[test]
    fn for_each_mut_propagates_the_lowest_chunk_panic() {
        let sched = Scheduler::new(4);
        let mut items: Vec<u64> = (0..16).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            sched.for_each_mut(&mut items, |x| {
                if *x % 5 == 0 {
                    panic!("chunk panic at {x}");
                }
                *x
            })
        }))
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "chunk panic at 0");
        // The scheduler survives: workers caught the stray panics.
        let mut again: Vec<u64> = (0..16).collect();
        assert_eq!(sched.for_each_mut(&mut again, |x| *x).len(), 16);
    }

    #[test]
    fn nested_for_each_mut_inside_a_batch_completes_within_budget() {
        // The fusion case: every batch job runs a nested multi-chunk
        // for_each_mut. The budget must hold (no new threads) and the
        // helping wait must prevent deadlock even when jobs outnumber
        // workers.
        let sched = Scheduler::new(3);
        let jobs: Vec<u64> = (0..8).collect();
        let out = sched
            .run_ordered(&jobs, |_, &j| {
                let mut parts: Vec<u64> = (0..6).map(|k| j * 10 + k).collect();
                let sums = sched.handle().for_each_mut(&mut parts, |x| *x + 1);
                Ok::<_, ()>(sums.iter().sum::<u64>())
            })
            .unwrap();
        let expect: Vec<u64> = (0..8).map(|j| (0..6).map(|k| j * 10 + k + 1).sum()).collect();
        assert_eq!(out, expect);
        let stats = sched.stats();
        assert_eq!(stats.spawned, 2, "nested drains must not spawn threads");
        assert!(stats.max_live <= 2, "live workers {} exceed spawned", stats.max_live);
        assert!(stats.drain_chunks > 0);
    }

    #[test]
    fn cost_seeding_keeps_results_in_input_order() {
        // Dispatch reorders (heaviest first — pinned deterministically by
        // the batch::dispatch_order tests); collection must not.
        let sched = Scheduler::new(4);
        let jobs: Vec<usize> = (0..24).collect();
        let costs: Vec<u64> = jobs.iter().map(|&j| 1 + (23 - j as u64) % 7 * 100).collect();
        let out = sched
            .run_ordered_with(&jobs, Some(&costs), |i, &j, _| {
                assert_eq!(i, j);
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok::<_, ()>(j * 3)
            })
            .unwrap();
        assert_eq!(out, jobs.iter().map(|&j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn cost_seeding_preserves_the_lowest_index_error_contract() {
        // Errors at 4 and 19 with costs that dispatch 19 first: the
        // returned error must still be the input-order-first one (4).
        let sched = Scheduler::new(4);
        let jobs: Vec<usize> = (0..24).collect();
        let mut costs = vec![1u64; 24];
        costs[19] = 1000;
        let err = sched
            .run_ordered_with(&jobs, Some(&costs), |_, &j, _| {
                if j == 4 || j == 19 {
                    Err(format!("job {j} failed"))
                } else {
                    Ok(j)
                }
            })
            .unwrap_err();
        assert_eq!(err, "job 4 failed");
    }

    #[test]
    fn equal_costs_keep_input_dispatch_order() {
        let sched = Scheduler::new(1); // inline: strict input order
        let seen = Mutex::new(Vec::new());
        let jobs: Vec<usize> = (0..5).collect();
        let costs = [7u64; 5];
        sched
            .run_ordered_with(&jobs, Some(&costs), |i, _, _| {
                lock_unpoisoned(&seen).push(i);
                Ok::<_, ()>(())
            })
            .unwrap();
        assert_eq!(*lock_unpoisoned(&seen), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stats_count_batches_jobs_and_steals_consistently() {
        let sched = Scheduler::new(4);
        let jobs: Vec<u64> = (0..64).collect();
        for _ in 0..4 {
            let out = sched
                .run_ordered(&jobs, |_, &j| {
                    std::hint::black_box((0..500u64).sum::<u64>());
                    Ok::<_, ()>(j)
                })
                .unwrap();
            assert_eq!(out.len(), 64);
        }
        let stats = sched.stats();
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.jobs, 4 * 64);
        assert!(stats.max_live <= stats.spawned);
    }

    #[test]
    fn external_submissions_drain_through_the_injector() {
        // A non-worker caller's helper tasks land in the injector; the
        // spawned workers must pick them up.
        let sched = Scheduler::new(3);
        let jobs: Vec<u64> = (0..32).collect();
        let hits = AtomicU32::new(0);
        sched
            .run_ordered(&jobs, |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(100));
                Ok::<_, ()>(())
            })
            .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        assert!(sched.stats().injector_pops > 0, "helpers never left the injector");
    }
}
