//! The parallel execution engine: threaded multi-channel DRAM stepping, a
//! work-distributing sweep scheduler, and the plumbing behind the
//! `gradpim-cli` experiment runner.
//!
//! GradPIM's evaluation is embarrassingly parallel at two levels, and this
//! crate exploits both without changing a single simulated bit. Both
//! levels execute on **one** [`sched::Scheduler`] — a std-only
//! work-stealing deque scheduler that owns the process-wide thread budget:
//!
//! * **Within one simulation** — DRAM channels share no state and, on the
//!   event-driven core, only need to agree on a final cycle. The
//!   [`channels`] module drains each channel's `Controller` as a
//!   stealable scheduler task ([`channels::par_drain_on`]), bit-identical
//!   to the sequential [`gradpim_dram::MemorySystem::drain`].
//! * **Across simulations** — sweep and experiment points (Fig. 12a–d,
//!   13, 14) are independent. The [`pool`] module fans them over the
//!   scheduler with deterministic, input-ordered result collection and
//!   input-order-first error propagation;
//!   [`serialize::ExperimentSpec::run`] drives every sweep family through
//!   it, seeding dispatch with the [`sched::cost`] model so the heaviest
//!   points start first.
//! * **Across processes** — the [`dist`] module splits one
//!   [`serialize::ExperimentSpec`] into per-shard sub-specs, launches
//!   worker processes (`gradpim-cli shard-worker`), retries crashed
//!   shards, and merges the row sets back into figure order — still
//!   bit-identical to the sequential run, and one transport swap away
//!   from cross-host distribution.
//!
//! Because both levels share the deques, an idle pool lends its threads to
//! a running point: [`Engine::run`] installs a drain hook (see
//! [`gradpim_sim::phase::with_drain_exec`]) so the phase executors'
//! inner multi-channel drains execute as stealable segments on the same
//! budget — multi-channel design points win *inside* a sweep, and the
//! process never holds more live simulation threads than the budget.
//!
//! [`Engine`] carries the one knob — the worker count — resolved from
//! `GRADPIM_THREADS` (falling back to the machine's available
//! parallelism) **exactly once**, at construction: the resolved count
//! becomes the scheduler budget and is never re-read downstream.
//! `GRADPIM_THREADS=1` runs everything inline on the calling thread,
//! preserving the classic sequential behavior exactly.
//!
//! # Example
//!
//! ```
//! use gradpim_engine::serialize::{Experiment, ExperimentSpec};
//! use gradpim_engine::Engine;
//! use gradpim_sim::sweeps::{BatchSize, SweepFamily};
//! use gradpim_workloads::models;
//!
//! let nets = [models::mlp()];
//! let quick = Some((1500, 20_000)); // doc-sized traffic caps
//! let spec = ExperimentSpec::new(Experiment::Fig12b, quick, Some(vec![nets[0].name.clone()]));
//! let report = spec.run(&Engine::new(2))?;
//! // Same rows, same order, as the sequential reference.
//! assert_eq!(report, BatchSize::report(&nets, quick)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny`, not the workspace-standard `forbid`: the scheduler's
// lifetime-erased task handoff (sched/mod.rs) is the workspace's single
// sanctioned unsafe pattern, opted in per-site with `#[allow(unsafe_code)]`
// and a SAFETY comment.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Tests assert invariants; unwrap/expect is their natural idiom. The
// manifest's unwrap_used/expect_used warns target shipping code only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod channels;
pub mod dist;
pub mod env;
mod json;
pub mod pool;
pub mod report;
pub mod sched;
pub mod serialize;
pub mod sweeps;
pub mod trace;

use std::sync::Arc;

use gradpim_dram::{MemError, MemorySystem};
use gradpim_sim::phase::{with_drain_exec, with_phase_memo, DrainExec, PhaseMemo};

use cache::CacheBackend;
use pool::WorkerPool;
use sched::SchedStats;

/// The parallel execution engine: a persistent [`WorkerPool`] — i.e. one
/// [`sched::Scheduler`], spawned once, reused by every sweep, joined on
/// drop — shared by the channel-threaded stepping and the sweep
/// scheduler. An optional result cache ([`Engine::with_cache`]) memoizes
/// phase executions inside every job and row groups in
/// [`serialize::ExperimentSpec::run`] — bit-identical results, less
/// re-simulation.
#[derive(Debug)]
pub struct Engine {
    pool: WorkerPool,
    cache: Option<Arc<dyn CacheBackend>>,
}

impl Engine {
    /// An engine with exactly `threads` workers (clamped to at least 1).
    /// The scheduler threads are spawned now and reused by every
    /// subsequent [`Engine::run`] call; nothing below ever spawns more.
    pub fn new(threads: usize) -> Self {
        Self { pool: WorkerPool::new(threads), cache: None }
    }

    /// A single-threaded engine: every job runs inline on the calling
    /// thread, in order — the classic sequential behavior. No scheduler
    /// threads are spawned.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Resolves the worker count from the environment: `GRADPIM_THREADS`
    /// if set to an integer (`0` clamps to 1, i.e. sequential), otherwise
    /// the machine's available parallelism. A set-but-malformed value
    /// falls back to available parallelism — and an unqueryable machine
    /// parallelism falls back to 1 — each with a diagnostic on stderr, so
    /// a typo never *silently* changes the worker count. The diagnostic
    /// is emitted at most once per process: benchmark loops that build an
    /// engine per iteration no longer spam stderr mid-measurement.
    ///
    /// The variable is read **here and only here**: the resolved count
    /// seeds the scheduler budget, and every downstream layer (sweep
    /// batches, channel drains, shard fan-out) inherits that budget
    /// instead of re-reading the environment.
    pub fn from_env() -> Self {
        let var = crate::env::threads_var();
        let auto = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).ok();
        let (threads, warning) = resolve_threads(var.as_deref(), auto);
        if let Some(warning) = warning {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            // gradpim-lint: allow(print-macro): once-per-process operator warning about
            // a malformed GRADPIM_THREADS, on stderr — never the report pipe. There is
            // no caller to return it to: from_env() is the ambient constructor.
            WARN_ONCE.call_once(|| eprintln!("gradpim-engine: {warning}"));
        }
        Self::new(threads)
    }

    /// [`Engine::from_env`] with the warning routed through `log` instead
    /// of a once-per-process stderr write — the CLI passes its own
    /// `gradpim-cli:` logger so a misconfigured environment produces an
    /// attributed diagnostic on every affected invocation instead of
    /// silently degrading after the first.
    pub fn from_env_with(log: &mut dyn FnMut(&str)) -> Self {
        let var = crate::env::threads_var();
        let auto = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).ok();
        let (threads, warning) = resolve_threads(var.as_deref(), auto);
        if let Some(warning) = warning {
            log(&warning);
        }
        Self::new(threads)
    }

    /// Attaches a result cache: every job run by this engine gets a
    /// [`gradpim_sim::phase::PhaseMemo`] over `store` installed (phase
    /// results served from / stored to the cache, bit-identically), and
    /// [`serialize::ExperimentSpec::run`] additionally consults `store`
    /// at row-group granularity. `GRADPIM_REFERENCE=1` bypasses the memo
    /// exactly as it bypasses the drain hook.
    #[must_use]
    pub fn with_cache(mut self, store: Arc<dyn CacheBackend>) -> Self {
        self.cache = Some(store);
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&Arc<dyn CacheBackend>> {
        self.cache.as_ref()
    }

    /// The phase memo jobs run under, when a cache is attached.
    fn phase_memo(&self) -> Option<Arc<dyn PhaseMemo>> {
        self.cache
            .as_ref()
            .map(|c| Arc::new(cache::CacheMemo::new(c.clone())) as Arc<dyn PhaseMemo>)
    }

    /// The worker count — the global thread budget.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// A snapshot of the scheduler's counters: batches/jobs executed,
    /// drain segments run as stealable tasks ([`SchedStats::drain_chunks`]
    /// — the intra-point parallelism observable), steals, and the
    /// spawned/live thread high-water marks that pin the budget.
    pub fn sched_stats(&self) -> SchedStats {
        self.pool.scheduler().stats()
    }

    /// The drain executor this engine hands to jobs: multi-channel drains
    /// as stealable tasks on the engine's own scheduler.
    fn drain_exec(&self) -> DrainExec {
        let sched = self.pool.scheduler().handle();
        std::sync::Arc::new(move |mem: &mut MemorySystem, max_cycles: u64| {
            channels::par_drain_on(&sched, mem, max_cycles)
        })
    }

    /// Fans `jobs` over the persistent scheduler (see
    /// [`WorkerPool::run_ordered`]): results come back in input order, and
    /// the lowest-indexed failing job's error wins — both independent of
    /// scheduling. While a job runs, the engine's drain hook is installed
    /// (see [`gradpim_sim::phase::with_drain_exec`]), so any phase
    /// executor inside the job drains multi-channel memory systems as
    /// stealable tasks on this same scheduler — bit-identical results,
    /// shared thread budget.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job.
    pub fn run<T, R, E, F>(&self, jobs: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let exec = self.drain_exec();
        let memo = self.phase_memo();
        self.pool.run_ordered(jobs, move |i, job| in_job_env(&exec, &memo, || f(i, job)))
    }

    /// [`Engine::run`] with per-job cost estimates (see [`sched::cost`])
    /// that seed longest-first dispatch, so a heavy tail point starts
    /// first instead of last. Results, ordering, and failure semantics
    /// are byte-identical to [`Engine::run`] — only the wall-clock
    /// changes.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job.
    pub fn run_weighted<T, R, E, F>(&self, jobs: &[T], costs: &[u64], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let exec = self.drain_exec();
        let memo = self.phase_memo();
        self.pool.scheduler().run_ordered_with(jobs, Some(costs), move |i, job, _| {
            in_job_env(&exec, &memo, || f(i, job))
        })
    }

    /// [`Engine::run`] with a [`pool::Cancel`] handle passed to each job,
    /// so long jobs can re-check the failure watermark mid-flight and bail
    /// out of doomed tail work early (see [`pool`] for the exact
    /// guarantee).
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job.
    pub fn run_with_cancel<T, R, E, F>(&self, jobs: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T, &pool::Cancel<'_>) -> Result<R, E> + Sync,
    {
        let exec = self.drain_exec();
        let memo = self.phase_memo();
        self.pool.run_ordered_with(jobs, move |i, job, cancel| {
            in_job_env(&exec, &memo, || f(i, job, cancel))
        })
    }

    /// Drains `mem` with its channels fanned across the engine's
    /// scheduler (see [`channels::par_drain_on`]), bit-identical to
    /// [`MemorySystem::drain`].
    ///
    /// # Errors
    ///
    /// [`MemError::DrainTimeout`] if work remains after `max_cycles`.
    pub fn drain(&self, mem: &mut MemorySystem, max_cycles: u64) -> Result<u64, MemError> {
        channels::par_drain_on(&self.pool.scheduler().handle(), mem, max_cycles)
    }

    /// Runs `mem` to exactly `cycle` with its channels fanned across the
    /// engine's scheduler (see [`channels::par_run_until_on`]).
    pub fn run_until(&self, mem: &mut MemorySystem, cycle: u64) {
        channels::par_run_until_on(&self.pool.scheduler().handle(), mem, cycle)
    }
}

/// One job's ambient environment: the engine's drain hook, plus — when a
/// cache is attached — the phase memo. Both are thread-local
/// installations scoped exactly to the job body.
fn in_job_env<R>(exec: &DrainExec, memo: &Option<Arc<dyn PhaseMemo>>, f: impl FnOnce() -> R) -> R {
    with_drain_exec(exec.clone(), || match memo {
        Some(m) => with_phase_memo(m.clone(), f),
        None => f(),
    })
}

/// `GRADPIM_THREADS` resolution, factored pure so every fallback is unit-
/// testable: integers are taken verbatim, with `0` clamped to 1
/// (sequential) exactly like [`Engine::new`]; a set-but-malformed value
/// falls back to `auto` (the machine's available parallelism) with a
/// warning; an unknown `auto` falls back to 1 worker — also with a
/// warning, since silently losing all parallelism is worth a diagnostic.
fn resolve_threads(var: Option<&str>, auto: Option<usize>) -> (usize, Option<String>) {
    if let Some(v) = var {
        if let Ok(n) = v.parse::<usize>() {
            return (n.max(1), None);
        }
        let (fallback, _) = resolve_threads(None, auto);
        return (
            fallback,
            Some(format!(
                "ignoring malformed GRADPIM_THREADS={v:?} (want an integer); \
                 using {fallback} worker thread(s)"
            )),
        );
    }
    match auto {
        Some(n) => (n.max(1), None),
        None => (1, Some("available parallelism unknown; using 1 worker thread".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_sim::sweeps::{BatchSize, SweepFamily};

    #[test]
    fn threads_parsing() {
        assert_eq!(resolve_threads(Some("4"), Some(8)), (4, None));
        assert_eq!(resolve_threads(Some("1"), Some(8)), (1, None));
        // 0 means sequential, matching Engine::new's clamp.
        assert_eq!(resolve_threads(Some("0"), Some(8)), (1, None));
        assert_eq!(resolve_threads(None, Some(6)), (6, None));
    }

    #[test]
    fn malformed_threads_fall_back_with_a_warning() {
        for bad in ["lots", "-3", "4.5", ""] {
            let (n, warning) = resolve_threads(Some(bad), Some(8));
            assert_eq!(n, 8, "GRADPIM_THREADS={bad:?}");
            let warning = warning.expect("malformed value must warn");
            assert!(warning.contains("GRADPIM_THREADS"), "{warning}");
            assert!(warning.contains("8 worker"), "{warning}");
        }
    }

    #[test]
    fn unknown_parallelism_falls_back_to_one_with_a_warning() {
        // Regression: this fallback used to be silent (and the malformed-
        // value warning fired on every call, spamming criterion runs).
        let (n, warning) = resolve_threads(None, None);
        assert_eq!(n, 1);
        assert!(warning.expect("fallback must warn").contains("available parallelism"));
        let (n, warning) = resolve_threads(Some("junk"), None);
        assert_eq!(n, 1);
        assert!(warning.expect("fallback must warn").contains("1 worker"));
    }

    #[test]
    fn engine_clamps_to_one() {
        assert_eq!(Engine::new(0).threads(), 1);
        assert_eq!(Engine::sequential().threads(), 1);
        assert_eq!(Engine::new(7).threads(), 7);
    }

    #[test]
    fn oversubscribed_engine_stays_within_its_budget() {
        // More threads than points × channels: the scheduler must still
        // spawn exactly threads - 1 workers, never more, and the batch
        // must complete with sequential-identical results.
        let engine = Engine::new(16);
        let jobs: Vec<u64> = (0..4).collect();
        let out = engine.run(&jobs, |_, &j| Ok::<_, ()>(j * 2)).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6]);
        let stats = engine.sched_stats();
        assert_eq!(stats.spawned, 15, "budget is threads - 1, resolved exactly once");
        assert!(stats.max_live <= stats.spawned);
    }

    #[test]
    fn from_env_with_routes_warnings_to_the_caller() {
        let mut logged = Vec::new();
        let engine = Engine::from_env_with(&mut |m: &str| logged.push(m.to_string()));
        assert!(engine.threads() >= 1);
        // Same resolution as the ambient constructor, warning or not.
        assert_eq!(engine.threads(), Engine::from_env().threads());
        // Warnings (if the test environment is misconfigured) reach the
        // caller's sink — never a hidden once-gated stderr write.
        for warning in &logged {
            assert!(
                warning.contains("GRADPIM_THREADS") || warning.contains("parallelism"),
                "{warning}"
            );
        }
    }

    #[test]
    fn cached_engine_runs_are_bit_identical_and_fill_the_store() {
        if gradpim_sim::env::reference_mode() {
            return; // reference mode bypasses the memo by design
        }
        let nets = [gradpim_workloads::models::mlp()];
        let quick = Some((1500, 20_000));
        let specs = BatchSize::specs(&nets, quick);
        let sweep = |engine: &Engine| engine.run(&specs, |_, s| BatchSize::run_spec(s)).unwrap();
        let cold = sweep(&Engine::sequential());
        let store: Arc<dyn CacheBackend> = Arc::new(cache::MemCache::new());
        let engine = Engine::sequential().with_cache(store.clone());
        assert!(engine.cache().is_some());
        let warm = sweep(&engine);
        assert_eq!(warm, cold);
        let filled = store.stats();
        assert!(filled.entries > 0, "phase results must land in the store");
        // A second run is served from the memo: identical bytes, no new
        // entries.
        let warm2 = sweep(&engine);
        assert_eq!(warm2, cold);
        assert_eq!(store.stats(), filled);
    }

    #[test]
    fn run_weighted_matches_run() {
        let engine = Engine::new(3);
        let jobs: Vec<u64> = (0..9).collect();
        let costs: Vec<u64> = jobs.iter().map(|&j| (j % 4) * 100 + 1).collect();
        let plain = engine.run(&jobs, |_, &j| Ok::<_, ()>(j + 7)).unwrap();
        let weighted = engine.run_weighted(&jobs, &costs, |_, &j| Ok::<_, ()>(j + 7)).unwrap();
        assert_eq!(plain, weighted);
    }
}
