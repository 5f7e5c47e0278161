//! Parallel sweeps through the execution engine.
//!
//! Runs the Fig. 12b minibatch sweep twice — once on a single-threaded
//! engine, once on a pool sized by `GRADPIM_THREADS` (default: available
//! parallelism) — checks the reports are bit-identical, and shows the
//! threaded multi-channel drain agreeing with the sequential one on a
//! 4-channel memory system.
//!
//! ```sh
//! GRADPIM_THREADS=4 cargo run --release --example parallel_sweeps
//! ```

use std::time::Instant;

use gradpim::dram::{AddressMapping, DramConfig, MemError, MemorySystem};
use gradpim::engine::serialize::{Experiment, ExperimentSpec};
use gradpim::engine::{report, Engine};
use gradpim::workloads::models;

fn main() {
    // --- Level 1: independent sweep points across a worker pool. ---------
    let nets = vec![models::mlp().name, models::resnet18().name];
    let spec = ExperimentSpec::new(Experiment::Fig12b, Some((4 * 1024, 32 * 1024)), Some(nets));

    let t0 = Instant::now();
    let seq = spec.run(&Engine::sequential()).expect("sequential sweep");
    let t_seq = t0.elapsed();

    let engine = Engine::from_env();
    let t0 = Instant::now();
    let par = spec.run(&engine).expect("parallel sweep");
    let t_par = t0.elapsed();

    assert_eq!(seq, par, "parallel sweep must be bit-identical to sequential");
    println!("Fig. 12b sweep, {} points:", par.rows.len());
    print!("{}", report::to_table(&par));
    println!(
        "\nsequential: {:>7.2}s   {} threads: {:>7.2}s   ({:.2}x, bit-identical points)",
        t_seq.as_secs_f64(),
        engine.threads(),
        t_par.as_secs_f64(),
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
    );

    // --- Level 2: channels of one simulation on worker threads. ----------
    let mut cfg = DramConfig::ddr4_2133();
    cfg.channels = 4;
    let mut seq_mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
    let mut par_mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
    for mem in [&mut seq_mem, &mut par_mem] {
        for i in 0..4096u64 {
            loop {
                match mem.enqueue_read(i * 64) {
                    Ok(_) => break,
                    Err(MemError::QueueFull) => mem.tick_until_event(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }
    let c_seq = seq_mem.drain(10_000_000).expect("sequential drain");
    let c_par = engine.drain(&mut par_mem, 10_000_000).expect("threaded drain");
    assert_eq!(c_seq, c_par);
    assert_eq!(seq_mem.stats(), par_mem.stats(), "threaded drain must be bit-identical");
    println!(
        "\n4-channel drain: {} cycles on both paths, stats bit-identical \
         ({} worker threads for the threaded run)",
        c_par,
        engine.threads().min(4),
    );
}
