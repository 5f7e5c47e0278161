//! The GradPIM benchmark: three workloads timed end to end and, in a
//! separate traced run, per layer. See README.md for the workloads, the
//! metric table and what stays unmeasured.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig09-cold --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. Scratch caches and the Chrome trace go
//! under `.bench_work/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod counting;
mod measure;
mod suite;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gradpim_engine::serialize::{Experiment, ExperimentSpec, SpecError};
use gradpim_engine::{dist, report, trace, Engine};
use gradpim_obs::SpanRec;
use gradpim_sim::report::{Report, Value};

use counting::{ClassCounts, CountingCache, KeyClass};
use measure::Fig09Row;
use suite::{Unit, Workload};

const USAGE: &str =
    "usage: perfbench --workload <fig09-cold|suite-cold-cache|suite-warm> --seed <n> \
     --seconds <s> --trace <0|1>";

/// The phase-executor kinds, as named in `phase.<kind>` spans.
const KINDS: [&str; 4] = ["stream", "pim-kernel", "baseline-update", "aos-pb"];

/// Set-up samples per run of a cold workload, where set-up takes well
/// under a millisecond and a median of many samples steadies it.
const SETUP_SAMPLES: usize = 101;
/// Store fills per `suite-warm` run; each is one set-up sample.
const WARM_FILLS: usize = 3;
/// Traced passes whose spans go into the Chrome-trace file.
const TRACE_FILE_PASSES: usize = 4;
/// Least seconds between two runs of the host-speed reference: one before
/// every call of the cold workloads, and one in about 10 passes of
/// `suite-warm`.
const REFERENCE_EVERY: f64 = 0.1;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let specs = args.workload.specs(args.seed);
    print_header(args, nproc, &specs);
    let work = WorkDir::create(Path::new(".bench_work"))?;
    let units = args.workload.units(&specs);
    let mut bench =
        Bench { workload: args.workload, specs, units, nproc, work, checks: Checks::default() };
    let metrics =
        if args.trace { bench.per_layer(args.seconds)? } else { bench.end_to_end(args.seconds)? };
    bench.print_digests();
    let checks = &bench.checks;
    for note in &checks.notes {
        println!("# FAILED {note}");
    }
    println!(
        "# fail_ratio = {} ({} failed of {} attempted)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for (name, (value, unit)) in &metrics {
        println!("#   {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(())
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), (value, unit));
}

/// Prints the run header: workload, seed, machine, toolchain, source.
fn print_header(args: &Args, nproc: usize, specs: &[ExperimentSpec]) {
    let command = |prog: &str, argv: &[&str]| -> String {
        std::process::Command::new(prog)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# machine nproc={nproc} threads={} rustc=\"{}\"",
        args.workload.threads(nproc),
        command("rustc", &["-V"])
    );
    // Without a `.git` here, git would search the parent directories,
    // outside the checkout.
    let commit = if Path::new(".git").exists() {
        command("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    println!("# source commit={commit} crates_digest={:016x}", source_digest(Path::new("crates")));
    for spec in specs {
        let nets = spec.nets.as_ref().map_or("default".into(), |n| n.join(","));
        println!("# spec {} quick={:?} nets={nets}", spec.experiment, spec.quick);
    }
}

/// FNV-1a over every file path and body under `root`, in path order: the
/// source identity when the checkout is not a git repository.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    measure::fnv1a64(&bytes)
}

/// This run's scratch directory under `.bench_work/`, removed on drop.
#[derive(Debug)]
struct WorkDir {
    base: PathBuf,
    run: PathBuf,
    next: usize,
}

impl WorkDir {
    fn create(base: &Path) -> Result<Self, String> {
        let run = base.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&run)
            .map_err(|e| format!("cannot create {}: {e}", run.display()))?;
        Ok(Self { base: base.to_path_buf(), run, next: 0 })
    }

    /// Deletes every store made so far. Called between measurements, so
    /// deletions never overlap one.
    fn reset(&self) {
        let _ = std::fs::remove_dir_all(&self.run);
        let _ = std::fs::create_dir_all(&self.run);
    }

    /// A path for a new, not yet existing cache directory.
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.run.join(format!("cache-{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.run);
    }
}

/// Output checks feeding `correct`, `attempted` and `failed`.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Rendered reports of the reference pass, one per spec.
    reference: Option<Vec<String>>,
    /// The reference pass's Fig. 9 report, for `paper_err_pct`.
    fig09: Option<Report>,
}

impl Checks {
    /// Checks one pass: every spec ran, its report has the spec's schema
    /// and row count, and its JSON is byte-identical to the reference
    /// pass (the first pass checked becomes the reference).
    fn pass(&mut self, label: &str, specs: &[ExperimentSpec], out: &Outputs) {
        let reference = self.reference.get_or_insert_with(|| {
            out.docs.iter().map(|d| d.clone().unwrap_or_default()).collect()
        });
        for (i, spec) in specs.iter().enumerate() {
            self.attempted += 1;
            let problem = match &out.reports[i] {
                Err(e) => Some(format!("run failed: {e}")),
                Ok(report) => {
                    let rows: usize = spec.layout().map_or(0, |l| l.iter().sum());
                    if report.schema != spec.schema() {
                        Some("schema differs from spec.schema()".into())
                    } else if report.rows.len() != rows {
                        Some(format!("{} rows, layout says {rows}", report.rows.len()))
                    } else if out.docs[i].as_ref() != Some(&reference[i]) {
                        Some("report differs from the reference pass".into())
                    } else {
                        if spec.experiment == Experiment::Fig09 && self.fig09.is_none() {
                            self.fig09 = Some(report.clone());
                        }
                        None
                    }
                }
            };
            if let Some(problem) = problem {
                self.failed += 1;
                self.notes.push(format!("{label} {}: {problem}", spec.experiment));
            }
        }
    }

    /// Mean |relative error| of the Fig. 9 gmeans against the paper.
    fn paper_err_pct(&self) -> f64 {
        let Some(report) = &self.fig09 else { return 0.0 };
        let col = |name: &str| report.schema.columns.iter().position(|c| c.name == name);
        let (Some(net), Some(design), Some(update), Some(total)) =
            (col("network"), col("design"), col("update_ns"), col("total_ns"))
        else {
            return 0.0;
        };
        let num = |v: &Value| match v {
            Value::Float(x) => *x,
            _ => f64::NAN,
        };
        let rows: Vec<Fig09Row> = report
            .rows
            .iter()
            .map(|r| Fig09Row {
                network: r.values[net].to_string(),
                design: r.values[design].to_string(),
                update_ns: num(&r.values[update]),
                total_ns: num(&r.values[total]),
            })
            .collect();
        measure::paper_err_pct(&measure::fig09_gmeans(&rows))
    }
}

/// One engine with its optional instrumented store. Dropping it joins
/// the engine's workers; [`WorkDir::reset`] deletes the store.
struct Rig {
    engine: Engine,
    cache: Option<Arc<CountingCache>>,
}

impl Rig {
    fn group_and_phase(&self) -> [ClassCounts; 2] {
        self.cache.as_ref().map_or([ClassCounts::default(); 2], |c| {
            [c.counts(KeyClass::Group), c.counts(KeyClass::Phase)]
        })
    }
}

/// What a pass produced: one report and its rendering per spec.
struct Outputs {
    reports: Vec<Result<Report, String>>,
    docs: Vec<Option<String>>,
}

/// What one call produced: its report and the report's rendering.
type CallOutput = (Result<Report, SpecError>, Option<String>);

impl Outputs {
    /// Gathers the calls' outputs into one report per spec, merging a
    /// sharded spec's reports back into figure order with
    /// [`dist::merge_shard_reports`] and rendering the merged report.
    fn assemble(specs: &[ExperimentSpec], units: &[Unit], calls: Vec<CallOutput>) -> Self {
        let mut mine: Vec<Vec<CallOutput>> = specs.iter().map(|_| Vec::new()).collect();
        let mut sharded = vec![false; specs.len()];
        for (unit, call) in units.iter().zip(calls) {
            mine[unit.parent].push(call);
            sharded[unit.parent] |= unit.spec.shard.is_some();
        }
        let mut out = Outputs { reports: Vec::new(), docs: Vec::new() };
        for ((spec, mut calls), sharded) in specs.iter().zip(mine).zip(sharded) {
            if !sharded {
                let (report, doc) = calls.pop().expect("an unsharded spec is one call");
                out.reports.push(report.map_err(|e| e.to_string()));
                out.docs.push(doc);
                continue;
            }
            let merged = calls
                .into_iter()
                .map(|(report, _)| report.map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
                .and_then(|shards| {
                    let layout = spec.layout().map_err(|e| e.to_string())?;
                    dist::merge_shard_reports(&layout, &shards).map_err(|e| e.to_string())
                });
            out.docs.push(merged.as_ref().ok().map(report::to_json));
            out.reports.push(merged);
        }
        out
    }
}

/// Timed runs of the host-speed reference ([`measure::reference_kernel`]),
/// made between the calls of the timed passes.
///
/// The host is shared: over minutes its speed for this process drifts by
/// as much as half, and all of a run's calls slow together. Call times
/// are therefore reported divided by the reference's median run in the
/// same process, which moves with the host but not with the program.
struct HostSpeed {
    table: Vec<u64>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl HostSpeed {
    fn new() -> Self {
        // Non-zero, so every page of the table is written and resident.
        Self { table: vec![1; measure::REFERENCE_TABLE], samples: Vec::new(), last: None }
    }

    /// Times one run of the reference, unless one ran less than
    /// [`REFERENCE_EVERY`] seconds ago.
    fn sample(&mut self) {
        if self.last.is_some_and(|t| t.elapsed().as_secs_f64() < REFERENCE_EVERY) {
            return;
        }
        let start = Instant::now();
        std::hint::black_box(measure::reference_kernel(&mut self.table));
        self.samples.push(start.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
    }
}

/// One timed pass over the workload's calls.
struct Pass {
    /// Wall seconds of the calls, without the reference runs between them.
    wall_s: f64,
    /// Wall seconds of each call (its run and rendering), in call order.
    call_wall: Vec<f64>,
    /// CPU seconds of each call, all threads, in call order.
    call_cpu: Vec<f64>,
    out: Outputs,
}

/// Runs and renders every call on `engine`, in order, as one caller
/// waiting for each report. With `speed`, the reference may run before a
/// call, outside its timing.
fn run_pass(
    engine: &Engine,
    specs: &[ExperimentSpec],
    units: &[Unit],
    mut speed: Option<&mut HostSpeed>,
) -> Pass {
    let mut call_wall = Vec::with_capacity(units.len());
    let mut call_cpu = Vec::with_capacity(units.len());
    let mut calls = Vec::with_capacity(units.len());
    for Unit { spec, .. } in units {
        if let Some(speed) = speed.as_deref_mut() {
            speed.sample();
        }
        let cpu0 = measure::cpu_seconds();
        let call_start = Instant::now();
        let result = {
            let _span =
                gradpim_obs::span_lazy(|| format!("bench.spec_run.{}", spec.experiment), "bench");
            spec.run(engine)
        };
        let doc = result.as_ref().ok().map(|r| {
            let _span =
                gradpim_obs::span_lazy(|| format!("bench.render.{}", spec.experiment), "bench");
            report::to_json(r)
        });
        call_wall.push(call_start.elapsed().as_secs_f64());
        call_cpu.push(measure::cpu_seconds() - cpu0);
        calls.push((result, doc));
    }
    let wall_s = call_wall.iter().sum();
    Pass { wall_s, call_wall, call_cpu, out: Outputs::assemble(specs, units, calls) }
}

struct Bench {
    workload: Workload,
    specs: Vec<ExperimentSpec>,
    /// The calls one pass makes; see [`Workload::units`].
    units: Vec<Unit>,
    nproc: usize,
    work: WorkDir,
    checks: Checks,
}

impl Bench {
    /// Builds an engine (and for the suites a fresh store; for
    /// `suite-warm` fills it), returning it with the set-up time.
    fn setup(&mut self) -> Result<(Rig, f64), String> {
        let start = Instant::now();
        let mut engine = Engine::new(self.workload.threads(self.nproc));
        for spec in &self.specs {
            spec.resolve_networks().map_err(|e| e.to_string())?;
        }
        let mut cache = None;
        if self.workload.cached() {
            let store = Arc::new(CountingCache::open(&self.work.fresh())?);
            engine = engine.with_cache(store.clone());
            cache = Some(store);
        }
        let fill = (self.workload == Workload::SuiteWarm)
            .then(|| self.specs.iter().map(|s| s.run(&engine)).collect::<Vec<_>>());
        let setup_s = start.elapsed().as_secs_f64();
        if let Some(reports) = fill {
            let docs = reports.iter().map(|r| r.as_ref().ok().map(report::to_json)).collect();
            let reports = reports.into_iter().map(|r| r.map_err(|e| e.to_string())).collect();
            self.checks.pass("fill", &self.specs, &Outputs { reports, docs });
        }
        Ok((Rig { engine, cache }, setup_s))
    }

    /// One pass (for `suite-warm`, one fill) with metrics on for the
    /// cycle count, which also warms the process up; then the set-up
    /// samples; then timed passes with tracing and metrics off, as many
    /// as fit in `seconds` from the start, and at least one. Pass times
    /// are the sum of each call's fastest run across the passes
    /// ([`measure::fastest_pass`]).
    fn end_to_end(&mut self, seconds: f64) -> Result<Metrics, String> {
        let (mut setups, mut walls) = (Vec::new(), Vec::new());
        let (mut call_walls, mut call_cpus) = (Vec::new(), Vec::new());
        let start = Instant::now();
        // The reference's table stays resident from here to the end, so
        // its share of the peak resident set is the growth its allocation causes.
        let rss = measure::status_mb("VmRSS");
        let mut speed = HostSpeed::new();
        let table_mb = measure::status_mb("VmRSS") - rss;
        let cycles = self.count_cycles()?;
        let mut warm = None;
        if self.workload == Workload::SuiteWarm {
            for _ in 0..WARM_FILLS {
                drop(warm.take());
                self.work.reset();
                let (rig, setup_s) = self.setup()?;
                setups.push(setup_s);
                warm = Some(rig);
            }
        } else {
            for _ in 0..SETUP_SAMPLES {
                setups.push(self.setup()?.1);
                self.work.reset();
            }
        }
        while walls.is_empty() || start.elapsed().as_secs_f64() + measure::median(&walls) < seconds
        {
            let pass = match &warm {
                Some(rig) => run_pass(&rig.engine, &self.specs, &self.units, Some(&mut speed)),
                None => {
                    let engine = &self.setup()?.0.engine;
                    let pass = run_pass(engine, &self.specs, &self.units, Some(&mut speed));
                    self.work.reset();
                    pass
                }
            };
            self.checks.pass("pass", &self.specs, &pass.out);
            walls.push(pass.wall_s);
            call_walls.push(pass.call_wall);
            call_cpus.push(pass.call_cpu);
        }
        drop(warm);
        eprintln!("perfbench: measured {:.1} s", start.elapsed().as_secs_f64());

        for (u, unit) in self.units.iter().enumerate() {
            let times: Vec<f64> = call_walls.iter().map(|p: &Vec<f64>| p[u]).collect();
            let shard = unit.spec.shard.map_or(String::new(), |s| format!(" shard {s}"));
            println!(
                "# call {u} {}{shard}: fastest {:.6} s, median {:.6} s",
                unit.spec.experiment,
                measure::at_rank(&times, 1),
                measure::median(&times)
            );
        }
        let (run_s, cpu_s) =
            (measure::fastest_pass(&call_walls), measure::fastest_pass(&call_cpus));
        let reference = measure::median(&speed.samples);
        println!(
            "# passes n={} of {} calls, setups n={}; pass wall median {} s; fastest-call sums: \
             wall {run_s} s, cpu {cpu_s} s",
            walls.len(),
            self.units.len(),
            setups.len(),
            measure::median(&walls)
        );
        println!(
            "# reference n={}: median {reference} s, fastest {} s; its table ({table_mb} MiB \
             resident) is left out of peak_rss_mb",
            speed.samples.len(),
            measure::at_rank(&speed.samples, 1)
        );
        let run_ref = run_s / reference;
        let rows: usize =
            self.specs.iter().map(|s| s.layout().map_or(0, |l| l.iter().sum::<usize>())).sum();
        let mut m = Metrics::new();
        put(&mut m, "setup_s", measure::median(&setups), "s");
        put(&mut m, "run_ref", run_ref, "ref");
        put(&mut m, "cpu_ref", cpu_s / reference, "ref");
        put(
            &mut m,
            "sim_kcycles_per_ref",
            cycles.values().sum::<f64>() / 1e3 / run_ref,
            "kcycles/ref",
        );
        put(&mut m, "rows_per_ref", rows as f64 / run_ref, "rows/ref");
        put(&mut m, "peak_rss_mb", measure::status_mb("VmHWM") - table_mb, "MiB");
        put(&mut m, "paper_err_pct", self.checks.paper_err_pct(), "%");
        Ok(m)
    }

    /// Simulated DRAM cycles per phase kind, from the `phase.<kind>.sim_cycles`
    /// histograms of one metrics-on pass on a fresh set-up (for
    /// `suite-warm`, of the fill the warm passes are served from). The
    /// histograms also count phase results served from the phase memo, so
    /// the total is the same for every seed and thread interleaving. The
    /// pass runs each spec whole, so the sharded passes of `fig09-cold`
    /// are checked against the unsharded report.
    fn count_cycles(&mut self) -> Result<BTreeMap<&'static str, f64>, String> {
        gradpim_obs::reset();
        gradpim_obs::set_metrics(true);
        let whole: Vec<Unit> = self
            .specs
            .iter()
            .enumerate()
            .map(|(parent, s)| Unit { parent, spec: s.clone() })
            .collect();
        let counted = self.setup().map(|(rig, _)| {
            if self.workload != Workload::SuiteWarm {
                let pass = run_pass(&rig.engine, &self.specs, &whole, None);
                self.checks.pass("metrics-on", &self.specs, &pass.out);
            }
        });
        gradpim_obs::set_metrics(false);
        self.work.reset();
        counted?;
        let registry = gradpim_obs::registry();
        gradpim_obs::reset();
        Ok(KINDS
            .iter()
            .map(|k| {
                let sum =
                    registry.hists.get(&format!("phase.{k}.sim_cycles")).map_or(0.0, |h| h.sum);
                (*k, sum)
            })
            .collect())
    }

    /// Alternating untraced and traced passes, as many pairs as fit in
    /// `seconds` from the start and at least one; the traced ones give
    /// the per-layer numbers (per pass) and the Chrome-trace file.
    fn per_layer(&mut self, seconds: f64) -> Result<Metrics, String> {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let mut layers = Layers::default();
        let mut kept: Vec<SpanRec> = Vec::new();
        let start = Instant::now();
        let warm = if self.workload == Workload::SuiteWarm { Some(self.setup()?.0) } else { None };
        let next = |u: &[f64], t: &[f64]| measure::median(u) + measure::median(t);
        while traced.is_empty()
            || start.elapsed().as_secs_f64() + next(&untraced, &traced) < seconds
        {
            for tracing in [false, true] {
                let fresh = if warm.is_none() { Some(self.setup()?.0) } else { None };
                let rig = warm.as_ref().or(fresh.as_ref()).expect("a rig is set up");
                let cache0 = rig.group_and_phase();
                let sched0 = rig.engine.sched_stats();
                gradpim_obs::set_tracing(tracing);
                gradpim_obs::set_metrics(tracing);
                let pass = run_pass(&rig.engine, &self.specs, &self.units, None);
                gradpim_obs::set_tracing(false);
                gradpim_obs::set_metrics(false);
                let label = if tracing { "traced" } else { "untraced" };
                self.checks.pass(label, &self.specs, &pass.out);
                if tracing {
                    let spans = gradpim_obs::drain_spans();
                    let registry = gradpim_obs::registry();
                    gradpim_obs::reset();
                    let sched = rig.engine.sched_stats();
                    let cache1 = rig.group_and_phase();
                    layers.add(&spans, &registry, [0, 1].map(|i| cache1[i].since(&cache0[i])));
                    layers.jobs += sched.jobs - sched0.jobs;
                    layers.steals += sched.steals - sched0.steals;
                    if traced.len() < TRACE_FILE_PASSES {
                        kept.extend(spans);
                    }
                    traced.push(pass.wall_s);
                } else {
                    untraced.push(pass.wall_s);
                }
                if let Some(rig) = fresh {
                    drop(rig);
                    self.work.reset();
                }
            }
        }
        drop(warm);
        let path = self.work.base.join(format!("trace-{}.json", self.workload.name()));
        std::fs::write(&path, trace::export(&kept))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "# trace {} ({} spans of the first {} traced passes); passes untraced={} traced={}",
            path.display(),
            kept.len(),
            traced.len().min(TRACE_FILE_PASSES),
            untraced.len(),
            traced.len()
        );
        println!(
            "# layer accounting: (engine.self_s + sum of phase.<kind>.host_s + cache time) \
             / engine.spec_run_s = {:.4}",
            layers.accounted_share()
        );
        let overhead = measure::median(&traced) / measure::median(&untraced) - 1.0;
        let mut m = layers.metrics(traced.len() as f64, overhead);
        let (tail, tail_ok) = measure::tail_rank(untraced.len(), 0.9);
        println!(
            "# pass_ms_p90 is rank {tail} of {} untraced passes ({})",
            untraced.len(),
            if tail_ok { "ten or more samples beyond" } else { "too few samples: the median" }
        );
        put(&mut m, "pass_ms_p50", measure::median(&untraced) * 1e3, "ms");
        put(&mut m, "pass_ms_p90", measure::at_rank(&untraced, tail) * 1e3, "ms");
        Ok(m)
    }

    /// Prints one digest per spec of the reference reports, so a change
    /// in simulated statistics shows even when every check passes.
    fn print_digests(&self) {
        let Some(reference) = &self.checks.reference else { return };
        for (spec, doc) in self.specs.iter().zip(reference) {
            println!(
                "# digest {} fnv1a64={:016x} bytes={}",
                spec.experiment,
                measure::fnv1a64(doc.as_bytes()),
                doc.len()
            );
        }
    }
}

/// Per-layer sums over the traced passes.
#[derive(Debug, Default)]
struct Layers {
    phase_us: BTreeMap<&'static str, u64>,
    phase_calls: BTreeMap<&'static str, u64>,
    sim_cycles: BTreeMap<&'static str, f64>,
    spec_run_us: u64,
    self_us: u64,
    covered_cache_us: u64,
    render_us: u64,
    cache: [ClassCounts; 2],
    jobs: u64,
    steals: u64,
}

impl Layers {
    /// Adds one traced pass: its spans, its metrics registry and the
    /// store's group and phase counts over the pass.
    fn add(
        &mut self,
        spans: &[SpanRec],
        registry: &gradpim_obs::Registry,
        cache: [ClassCounts; 2],
    ) {
        let interval = |s: &SpanRec| (s.ts_us, s.ts_us + s.dur_us);
        for kind in KINDS {
            let name = format!("phase.{kind}");
            let mine = spans.iter().filter(|s| s.name == name);
            *self.phase_us.entry(kind).or_default() += mine.clone().map(|s| s.dur_us).sum::<u64>();
            *self.phase_calls.entry(kind).or_default() += mine.count() as u64;
            let hist = registry.hists.get(&format!("phase.{kind}.sim_cycles"));
            *self.sim_cycles.entry(kind).or_default() += hist.map_or(0.0, |h| h.sum);
        }
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.name.starts_with("phase.") || s.name.starts_with("bench.cache."))
            .map(interval)
            .collect();
        let cache_spans: Vec<(u64, u64)> =
            spans.iter().filter(|s| s.name.starts_with("bench.cache.")).map(interval).collect();
        for run in spans.iter().filter(|s| s.name.starts_with("bench.spec_run.")) {
            let (start, end) = interval(run);
            self.spec_run_us += run.dur_us;
            self.self_us += measure::self_time(start, end, &children);
            self.covered_cache_us += measure::covered(start, end, &cache_spans);
        }
        self.render_us += spans
            .iter()
            .filter(|s| s.name.starts_with("bench.render."))
            .map(|s| s.dur_us)
            .sum::<u64>();
        for (acc, c) in self.cache.iter_mut().zip(cache) {
            *acc = acc.plus(&c);
        }
    }

    /// The per-layer metrics, each per traced pass.
    fn metrics(&self, passes: f64, overhead: f64) -> Metrics {
        let mut m = Metrics::new();
        let secs = |us: u64| us as f64 / 1e6 / passes;
        for kind in KINDS {
            let host_s = secs(self.phase_us[kind]);
            let cycles = self.sim_cycles[kind] / passes;
            put(&mut m, format!("phase.{kind}.host_s"), host_s, "s");
            put(
                &mut m,
                format!("phase.{kind}.calls"),
                self.phase_calls[kind] as f64 / passes,
                "count",
            );
            put(&mut m, format!("dram.{kind}.sim_cycles"), cycles, "count");
            let rate = if host_s > 0.0 { cycles / host_s / 1e6 } else { 0.0 };
            put(&mut m, format!("dram.{kind}.mcycles_per_s"), rate, "Mcycles/s");
        }
        let spec_run_s = secs(self.spec_run_us);
        let self_s = secs(self.self_us);
        put(&mut m, "engine.spec_run_s", spec_run_s, "s");
        put(&mut m, "engine.self_s", self_s, "s");
        put(
            &mut m,
            "engine.self_frac",
            if spec_run_s > 0.0 { self_s / spec_run_s } else { 0.0 },
            "ratio",
        );
        put(&mut m, "report.render_ms", secs(self.render_us) * 1e3, "ms");
        let [group, phase] = self.cache;
        let all = group.plus(&phase);
        put(&mut m, "cache.group.gets", group.gets as f64 / passes, "count");
        put(&mut m, "cache.group.hit_ratio", group.hit_ratio(), "ratio");
        put(&mut m, "cache.phase.gets", phase.gets as f64 / passes, "count");
        put(&mut m, "cache.phase.hit_ratio", phase.hit_ratio(), "ratio");
        put(&mut m, "cache.get_ms", all.get_ns as f64 / 1e6 / passes, "ms");
        put(&mut m, "cache.put_ms", all.put_ns as f64 / 1e6 / passes, "ms");
        put(&mut m, "cache.puts", all.puts as f64 / passes, "count");
        put(&mut m, "cache.put_bytes", all.put_bytes as f64 / passes, "bytes");
        put(&mut m, "sched.jobs", self.jobs as f64 / passes, "count");
        put(&mut m, "sched.steals", self.steals as f64 / passes, "count");
        put(&mut m, "obs.trace_overhead_frac", overhead, "ratio");
        m
    }

    /// Engine self time plus every phase span plus the cache time inside
    /// spec runs, as a share of spec-run time. It is 1 when one thread
    /// runs everything; parallel phases push it above 1.
    fn accounted_share(&self) -> f64 {
        let phases: u64 = self.phase_us.values().sum();
        let accounted = self.self_us + phases + self.covered_cache_us;
        if self.spec_run_us == 0 {
            0.0
        } else {
            accounted as f64 / self.spec_run_us as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    fn span(name: &'static str, ts_us: u64, dur_us: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            cat: "bench".into(),
            ph: gradpim_obs::Ph::Complete,
            ts_us,
            dur_us,
            pid: 1,
            tid: 1,
        }
    }

    #[test]
    fn layers_split_a_spec_run_into_self_phase_and_cache_time() {
        let spans = [
            span("bench.spec_run.fig09", 0, 100),
            span("phase.stream", 10, 30),
            span("phase.pim-kernel", 50, 20),
            span("bench.cache.get", 45, 2),
            span("bench.render.fig09", 100, 5),
            span("sched.batch[1]", 5, 90),
        ];
        let mut registry = gradpim_obs::Registry::default();
        let hist = gradpim_obs::Hist { count: 1, min: 3000.0, max: 3000.0, sum: 3000.0 };
        registry.hists.insert("phase.stream.sim_cycles".into(), hist);
        let group = ClassCounts { gets: 4, hits: 3, ..ClassCounts::default() };
        let mut layers = Layers::default();
        for _ in 0..2 {
            layers.add(&spans, &registry, [group, ClassCounts::default()]);
        }
        let m = layers.metrics(2.0, 0.01);
        let get = |name: &str| m[name].0;
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(get("phase.stream.host_s"), 30e-6));
        assert_eq!(get("phase.stream.calls"), 1.0);
        assert_eq!(get("phase.aos-pb.calls"), 0.0);
        assert_eq!(get("dram.stream.sim_cycles"), 3000.0);
        assert!(close(get("dram.stream.mcycles_per_s"), 100.0));
        assert_eq!(get("dram.aos-pb.mcycles_per_s"), 0.0);
        assert!(close(get("engine.spec_run_s"), 100e-6));
        // 100 µs minus 30 + 20 of phases and 2 of cache: sched spans are
        // engine time.
        assert!(close(get("engine.self_s"), 48e-6));
        assert!(close(get("engine.self_frac"), 0.48));
        assert!(close(get("report.render_ms"), 0.005));
        assert_eq!(get("cache.group.gets"), 4.0);
        assert_eq!(get("cache.group.hit_ratio"), 0.75);
        assert_eq!(get("obs.trace_overhead_frac"), 0.01);
        // Self time plus phases plus cache account for the spec run.
        assert!(close(layers.accounted_share(), 1.0));
    }

    #[test]
    fn parses_the_command_line() {
        let a =
            args(&["--workload", "suite-warm", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::SuiteWarm, 7, 10.0, true));
        assert!(args(&["--workload", "suite-warm", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(
            args(&["--workload", "x", "--seed", "7", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(args(&[
            "--workload",
            "fig09-cold",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--trace"]).is_err());
    }
}
