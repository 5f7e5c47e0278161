//! Criterion group for the parallel execution engine: sweep-scheduler
//! scaling (the `GRADPIM_THREADS=1` vs `=4` comparison the CI smoke keys
//! on), the threaded multi-channel drain, and the persistent pool's
//! spawn-amortization win on many small batches.
//!
//! On a multi-core host the `threads4` timings should come in well under
//! the `threads1` ones; the results themselves are bit-identical (asserted
//! here on every iteration).

use criterion::{criterion_group, criterion_main, Criterion};
use gradpim_dram::{AddressMapping, DramConfig, MemError, MemorySystem};
use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_engine::Engine;
use gradpim_workloads::models;

fn bench_sweep_scheduler(c: &mut Criterion) {
    // A 6-point Fig. 12b sweep (two networks × three batch sizes) with
    // small traffic caps: enough work per point to dominate scheduling
    // overhead, small enough to iterate.
    let nets = vec![models::mlp().name, models::resnet18().name];
    let spec = ExperimentSpec::new(Experiment::Fig12b, Some((1500, 20_000)), Some(nets));
    let expect = spec.run(&Engine::sequential()).unwrap();
    let mut g = c.benchmark_group("engine_sweep");
    g.sample_size(10);
    for threads in [1usize, 4] {
        let engine = Engine::new(threads);
        g.bench_function(format!("fig12b_6pts_threads{threads}"), |b| {
            b.iter(|| {
                let report = spec.run(&engine).unwrap();
                assert_eq!(report, expect, "threaded sweep diverged");
                report.rows.len()
            })
        });
    }
    g.finish();
}

fn bench_channel_drain(c: &mut Criterion) {
    // A 4-channel streaming drain: the within-simulation level of the
    // engine. Each iteration rebuilds and fully drains the system.
    let mut cfg = DramConfig::ddr4_2133();
    cfg.channels = 4;
    let load = |cfg: &DramConfig| {
        let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        for i in 0..8192u64 {
            loop {
                match mem.enqueue_read(i * 64) {
                    Ok(_) => break,
                    Err(MemError::QueueFull) => mem.tick_until_event(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        mem
    };
    let expect = {
        let mut mem = load(&cfg);
        mem.drain(100_000_000).unwrap();
        mem.stats()
    };
    let mut g = c.benchmark_group("engine_drain");
    g.sample_size(10);
    for threads in [1usize, 4] {
        let engine = Engine::new(threads);
        g.bench_function(format!("4ch_8k_bursts_threads{threads}"), |b| {
            b.iter(|| {
                let mut mem = load(&cfg);
                engine.drain(&mut mem, 100_000_000).unwrap();
                let stats = mem.stats();
                assert_eq!(stats, expect, "threaded drain diverged");
                stats.cycles
            })
        });
    }
    g.finish();
}

fn bench_pool_spawn_amortization(c: &mut Criterion) {
    // The reason the pool is persistent: a run of many *small* sweeps used
    // to pay a full thread spawn/join per `run_ordered` call. One engine
    // reused across 100 tiny batches vs a fresh engine per batch.
    let jobs: Vec<u64> = (0..16).collect();
    let step = |engine: &Engine, round: u64| {
        let out = engine.run(&jobs, |_, &j| Ok::<_, ()>(j.wrapping_mul(round + 1))).unwrap();
        out.iter().copied().sum::<u64>()
    };
    let mut g = c.benchmark_group("engine_pool");
    g.sample_size(10);
    g.bench_function("100_small_batches_persistent", |b| {
        let engine = Engine::new(4);
        b.iter(|| (0..100u64).map(|r| step(&engine, r)).sum::<u64>())
    });
    g.bench_function("100_small_batches_fresh_pools", |b| {
        b.iter(|| (0..100u64).map(|r| step(&Engine::new(4), r)).sum::<u64>())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sweep_scheduler,
    bench_channel_drain,
    bench_pool_spawn_amortization
);
criterion_main!(benches);
