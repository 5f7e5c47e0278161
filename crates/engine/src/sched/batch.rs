//! Ordered-batch execution on the scheduler — the one and only copy of
//! the ordered-collection / error-watermark logic.
//!
//! Historically this logic lived in `pool::WorkerPool::run_ordered_with`
//! and was re-exposed through the free `pool::run_ordered`; both are now
//! thin front-ends over [`run_batch`]. The observable contract is pinned
//! by the pool's original test suite and documented on
//! [`crate::pool::WorkerPool`]:
//!
//! * results come back in **input order**;
//! * the failure (error *or* panic) of the **lowest-indexed** failing job
//!   wins, exactly as a sequential left-to-right executor would resolve
//!   it, and a panic payload is re-raised intact via
//!   [`std::panic::resume_unwind`];
//! * not-yet-started jobs above the failure watermark are skipped
//!   best-effort ([`Cancel`]);
//! * with one thread or fewer than two jobs everything runs inline on the
//!   caller, sequentially and fail-fast.
//!
//! The one scheduling freedom the contract leaves open is **dispatch
//! order**, and that is where the cost model plugs in: when per-job cost
//! estimates are provided, jobs are *started* longest-first so a heavy
//! tail point is never left to begin last — while collection stays in
//! input order, so results are byte-identical either way.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use super::{erase_task_lifetime, lock_unpoisoned, ArriveOnDrop, Inner, Latch};

/// Cooperative-cancellation view handed to each running job (see the
/// [`crate::pool`] module docs for the exact guarantee).
#[derive(Debug)]
pub struct Cancel<'a> {
    index: usize,
    failed: &'a AtomicUsize,
}

impl Cancel<'_> {
    /// True once a lower-indexed job has failed, i.e. this job's result
    /// can no longer be observed: the overall call will return that
    /// failure, so a long job may bail out with any value.
    pub fn should_cancel(&self) -> bool {
        self.index > self.failed.load(Ordering::Relaxed)
    }
}

impl Cancel<'static> {
    /// A handle that never reports cancellation — for driving a
    /// cancel-aware job (e.g. a [`crate::dist::ShardExec`] worker launch)
    /// outside a batch, where no failure watermark exists.
    pub fn never() -> Self {
        static NEVER_FAILED: AtomicUsize = AtomicUsize::new(usize::MAX);
        Cancel { index: 0, failed: &NEVER_FAILED }
    }
}

/// The order in which batch jobs are *started*: input order when no costs
/// are given, otherwise descending estimated cost with input order as the
/// tie-break (stable sort). A cost slice shorter than the batch treats the
/// missing entries as zero. Dispatch order never affects results — only
/// how early the heavy tail begins.
pub(crate) fn dispatch_order(len: usize, costs: Option<&[u64]>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    if let Some(costs) = costs {
        order.sort_by_key(|&i| std::cmp::Reverse(costs.get(i).copied().unwrap_or(0)));
    }
    order
}

/// Fans `jobs` across the scheduler and collects results in input order
/// with the sequential failure contract (module docs above). `costs`
/// seed longest-first dispatch; the inline path (one thread or fewer than
/// two jobs) always runs in input order, fail-fast.
pub(crate) fn run_batch<T, R, E, F>(
    inner: &Arc<Inner>,
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
    if inner.threads <= 1 || jobs.len() <= 1 {
        // Inline: fail-fast, so the watermark can never drop below a
        // running job's index and cancellation never triggers. `jobs`
        // counts each job that runs, as on the threaded path; the lazy
        // collect stops at the first error, so later jobs are not counted.
        let never_failed = AtomicUsize::new(usize::MAX);
        return jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                inner.jobs.fetch_add(1, Ordering::Relaxed);
                f(i, job, &Cancel { index: i, failed: &never_failed })
            })
            .collect();
    }
    inner.batches.fetch_add(1, Ordering::Relaxed);
    let _span = gradpim_obs::span_lazy(|| format!("sched.batch[{}]", jobs.len()), "sched");

    let order = dispatch_order(jobs.len(), costs);
    // Shared batch state, borrowed by every participant. The latch is
    // awaited before this frame returns (or unwinds), which is what makes
    // the lifetime-erased task handoff below sound.
    let cursor = AtomicUsize::new(0);
    // Lowest failing (error or panic) index observed so far; only ever
    // decreases. Jobs above it are skipped best-effort (their outcome
    // could never be the returned failure), and every slot below the
    // final watermark is guaranteed to hold an Ok.
    let failed = AtomicUsize::new(usize::MAX);
    // Lowest-indexed panic payload, kept for resume_unwind.
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<Result<R, E>>>> = jobs.iter().map(|_| Mutex::new(None)).collect();

    let work = || {
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = order.get(k) else { break };
            let Some(job) = jobs.get(i) else { break };
            if i > failed.load(Ordering::Relaxed) {
                continue;
            }
            inner.jobs.fetch_add(1, Ordering::Relaxed);
            let cancel = Cancel { index: i, failed: &failed };
            // Catch panics per job: the payload must reach the caller
            // intact (a poisoned-slot panic would mask it), and the
            // worker must stay alive for the rest of the batch.
            match panic::catch_unwind(AssertUnwindSafe(|| f(i, job, &cancel))) {
                Ok(res) => {
                    if res.is_err() {
                        failed.fetch_min(i, Ordering::Relaxed);
                    }
                    // gradpim-lint: allow(panic-discipline): i comes from the dispatch
                    // order, bounded by jobs.len() == slots.len().
                    *lock_unpoisoned(&slots[i]) = Some(res);
                }
                Err(payload) => {
                    failed.fetch_min(i, Ordering::Relaxed);
                    let mut first = lock_unpoisoned(&panicked);
                    if first.as_ref().is_none_or(|(p, _)| i < *p) {
                        *first = Some((i, payload));
                    }
                }
            }
        }
    };

    let helpers = inner.threads.min(jobs.len()) - 1;
    let latch = Latch::new(helpers);
    for _ in 0..helpers {
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
            let _arrive = ArriveOnDrop(&latch);
            work();
        });
        // SAFETY: the task borrows `work`, `latch`, and through them the
        // batch state and `jobs`/`f` in this frame. `wait_latch` below
        // does not return until every pushed task has finished
        // (ArriveOnDrop fires even on unwind, and `work` itself catches
        // job panics), so the borrows never dangle. The scheduler's
        // workers outlive this call because `inner` is borrowed.
        #[allow(unsafe_code)] // Opt-in under the crate's deny; SAFETY above.
        let task = unsafe { erase_task_lifetime(task) };
        inner.push(task);
    }
    work();
    inner.wait_latch(&latch);

    // All participants are done; the batch state is exclusively ours
    // again. Failure resolution is a sequential in-order scan, so the
    // lowest-indexed failure wins whether it was an Err or a panic.
    let first_panic = panicked.into_inner().unwrap_or_else(PoisonError::into_inner);
    let panic_index = first_panic.as_ref().map(|(p, _)| *p);
    let mut first_panic = first_panic;
    let mut out = Vec::with_capacity(jobs.len());
    for (i, slot) in slots.into_iter().enumerate() {
        if panic_index == Some(i) {
            #[allow(clippy::expect_used)] // Invariant documented below.
            // gradpim-lint: allow(panic-discipline): panic_index == Some(i) implies
            // the record was stored; this re-raises that panic, it cannot add one.
            let (_, payload) = first_panic.take().expect("panic payload present");
            panic::resume_unwind(payload);
        }
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // A skipped job: only possible past the lowest failing index,
            // whose own slot (or panic record) is reached first.
            // gradpim-lint: allow(panic-discipline): documented invariant above —
            // an empty slot before the first failure cannot occur.
            None => unreachable!("empty result slot before the first failure"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_order_without_costs_is_identity() {
        assert_eq!(dispatch_order(5, None), vec![0, 1, 2, 3, 4]);
        assert_eq!(dispatch_order(0, None), Vec::<usize>::new());
    }

    #[test]
    fn dispatch_order_starts_the_heaviest_first() {
        let costs = [1u64, 1, 1, 1, 1, 1000];
        assert_eq!(dispatch_order(6, Some(&costs)), vec![5, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn dispatch_order_breaks_cost_ties_by_input_order() {
        let costs = [7u64, 9, 7, 9, 7];
        assert_eq!(dispatch_order(5, Some(&costs)), vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn dispatch_order_treats_missing_costs_as_zero() {
        let costs = [5u64, 9];
        assert_eq!(dispatch_order(4, Some(&costs)), vec![1, 0, 2, 3]);
    }
}
