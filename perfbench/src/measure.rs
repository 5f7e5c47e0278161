//! The benchmark's own derivations: order statistics, the fastest-pass
//! estimate, the host-speed reference kernel, the tail-percentile rule,
//! span self time and Fig. 9 fidelity against the paper; and the process
//! CPU clock and memory reader. Everything but the two readers is a
//! pure function of its inputs so the unit tests can pin it.

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The time of a pass made of the fastest run of each of its calls:
/// `passes[p][u]` is call `u`'s time in pass `p`, and the result is the
/// sum over `u` of its minimum over `p`. Noise on a shared host only ever
/// adds time, so the fastest of several runs of the same call is the
/// steadiest estimate of its cost. Calls missing from a short pass are
/// skipped; 0 for no passes.
pub fn fastest_pass(passes: &[Vec<f64>]) -> f64 {
    let calls = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..calls)
        .map(|u| passes.iter().filter_map(|p| p.get(u).copied()).fold(f64::INFINITY, f64::min))
        .sum()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Entries in the reference kernel's table: 256 KiB, inside a core's L2
/// cache.
pub const REFERENCE_TABLE: usize = 32 * 1024;

/// The host-speed reference: a fixed run of integer arithmetic,
/// data-dependent branches and loads over `table`, the kind of work a
/// cycle-level simulator does. Its time says how fast the host runs this
/// process at the moment, and no change to the workspace can alter it.
/// `table.len()` must be a power of two. Returns a checksum, so the work
/// cannot be optimized away.
pub fn reference_kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for i in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        if x & 1 == 0 {
            table[j] = table[j].wrapping_add(i);
        } else {
            acc = acc.wrapping_add(table[j] ^ x);
        }
    }
    acc
}

/// The 1-based nearest rank of percentile `q` among `n` samples: the
/// smallest rank with at least a `q` share of the samples at or below it.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The sample at 1-based `rank` in ascending order; 0 for an empty slice.
pub fn at_rank(samples: &[f64], rank: usize) -> f64 {
    let s = sorted(samples);
    s.get(rank.clamp(1, s.len().max(1)) - 1).copied().unwrap_or(0.0)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The rank to report as the tail of `n` samples: `target`'s nearest rank
/// when at least [`TAIL_BEYOND`] samples lie beyond it, otherwise the
/// highest rank that still has that many beyond it, and never below the
/// median. The flag says whether the rule was met; it cannot be with
/// fewer than `2 * TAIL_BEYOND` samples, and the median is reported.
pub fn tail_rank(n: usize, target: f64) -> (usize, bool) {
    let median = nearest_rank(n, 0.5);
    let rank = nearest_rank(n, target).min(n.saturating_sub(TAIL_BEYOND));
    if n > 0 && rank >= median {
        (rank, true)
    } else {
        (median, false)
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `children`, each clipped to that interval.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part its
/// child spans cover. Overlapping children (parallel workers) count once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// Geometric mean; 0 for an empty slice.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The five Fig. 9 headline gmeans, as transcribed in
/// `crates/bench/benches/fig09_performance.rs`: (design, which, paper).
pub const PAPER_FIG09: [(&str, Speedup, f64); 5] = [
    ("GradPIM-DR", Speedup::Overall, 1.38),
    ("TensorDIMM", Speedup::Overall, 1.36),
    ("GradPIM-BD", Speedup::Overall, 1.94),
    ("GradPIM-BD", Speedup::Update, 8.23),
    ("GradPIM-DR", Speedup::Update, 2.25),
];

/// Which Fig. 9 speedup a paper value refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Speedup {
    /// Whole training step.
    Overall,
    /// Weight-update phase only.
    Update,
}

/// One Fig. 9 report row reduced to what the fidelity check reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09Row {
    /// Network name.
    pub network: String,
    /// Design label (`Baseline`, `GradPIM-DR`, ...).
    pub design: String,
    /// Update-phase time, ns.
    pub update_ns: f64,
    /// Whole-step time, ns.
    pub total_ns: f64,
}

/// The five gmeans of [`PAPER_FIG09`] over the networks in `rows`, each
/// network's speedups taken against its own `Baseline` row. Networks are
/// visited in name order, so the result does not depend on row order.
pub fn fig09_gmeans(rows: &[Fig09Row]) -> Vec<f64> {
    let mut nets: Vec<&str> = rows.iter().map(|r| r.network.as_str()).collect();
    nets.sort_unstable();
    nets.dedup();
    let find =
        |net: &str, design: &str| rows.iter().find(|r| r.network == net && r.design == design);
    PAPER_FIG09
        .iter()
        .map(|&(design, which, _)| {
            let speedups: Vec<f64> = nets
                .iter()
                .filter_map(|net| {
                    let (base, row) = (find(net, "Baseline")?, find(net, design)?);
                    Some(match which {
                        Speedup::Overall => base.total_ns / row.total_ns,
                        Speedup::Update => base.update_ns / row.update_ns.max(1.0),
                    })
                })
                .collect();
            gmean(&speedups)
        })
        .collect()
}

/// Mean |relative error| of `gmeans` against the paper values, in percent.
pub fn paper_err_pct(gmeans: &[f64]) -> f64 {
    let errs: f64 =
        gmeans.iter().zip(PAPER_FIG09).map(|(g, (_, _, paper))| (g / paper - 1.0).abs()).sum();
    100.0 * errs / PAPER_FIG09.len() as f64
}

/// Memory field `field` (`VmHWM`, the peak resident set, or `VmRSS`, the
/// current one) in MiB from the text of `/proc/self/status`.
pub fn parse_status_mb(status: &str, field: &str) -> Option<f64> {
    let line =
        status.lines().find(|l| l.strip_prefix(field).is_some_and(|rest| rest.starts_with(':')))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's CPU seconds so far, all threads live and joined, from
/// `CLOCK_PROCESS_CPUTIME_ID`. It has nanosecond resolution, so a call of
/// a millisecond can be timed; the `/proc/self/stat` times tick at 10 ms.
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux), and the clock id is a valid constant, so the call writes
    // only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Memory field `field` of this process's `/proc/self/status`, in MiB.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_mb(&s, field))
        .unwrap_or(0.0)
}

/// 64-bit FNV-1a, for report digests.
pub fn fnv1a64(data: &[u8]) -> u64 {
    data.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(at_rank(&xs, nearest_rank(100, 0.9)), 90.0);
        assert_eq!(at_rank(&xs, nearest_rank(100, 0.5)), 50.0);
        assert_eq!(at_rank(&[7.0], nearest_rank(1, 0.9)), 7.0);
        assert_eq!(at_rank(&[], 1), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 is rank 90 with ten beyond.
        assert_eq!(tail_rank(100, 0.9), (90, true));
        assert_eq!(tail_rank(1000, 0.9), (900, true));
        // 99 samples: p90's rank 90 leaves nine beyond; report rank 89.
        assert_eq!(tail_rank(99, 0.9), (89, true));
        // 40 samples: rank 30 (p75), exactly ten beyond.
        assert_eq!(tail_rank(40, 0.9), (30, true));
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail_rank(20, 0.9), (10, true));
        // Too few samples for the rule: the median, flagged.
        assert_eq!(tail_rank(19, 0.9), (10, false));
        assert_eq!(tail_rank(4, 0.9), (2, false));
        assert_eq!(tail_rank(0, 0.9), (1, false));
        for n in 20..500 {
            let (rank, ok) = tail_rank(n, 0.9);
            assert!(ok && n - rank >= TAIL_BEYOND && rank <= nearest_rank(n, 0.9));
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two workers) count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        // Nested and disjoint-outside children.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30), (200, 300)]), 20);
        assert_eq!(covered(0, 100, &[(0, 100), (0, 100)]), 100);
    }

    fn row(net: &str, design: &str, update_ns: f64, total_ns: f64) -> Fig09Row {
        Fig09Row { network: net.into(), design: design.into(), update_ns, total_ns }
    }

    #[test]
    fn gmeans_and_paper_error() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
        // Two networks whose speedups are exactly the paper's values:
        // zero error, independent of row order.
        let mut rows = Vec::new();
        for net in ["B", "A"] {
            rows.push(row(net, "Baseline", 100.0, 1000.0));
            rows.push(row(net, "GradPIM-DR", 100.0 / 2.25, 1000.0 / 1.38));
            rows.push(row(net, "TensorDIMM", 50.0, 1000.0 / 1.36));
            rows.push(row(net, "GradPIM-BD", 100.0 / 8.23, 1000.0 / 1.94));
        }
        let g = fig09_gmeans(&rows);
        for (got, (_, _, paper)) in g.iter().zip(PAPER_FIG09) {
            assert!((got - paper).abs() < 1e-12, "{got} vs {paper}");
        }
        assert!(paper_err_pct(&g) < 1e-9);
        rows.reverse();
        assert_eq!(fig09_gmeans(&rows), g);
        // Every gmean 10% high: 10% error.
        let high: Vec<f64> = PAPER_FIG09.iter().map(|p| p.2 * 1.1).collect();
        assert!((paper_err_pct(&high) - 10.0).abs() < 1e-9);
        // The update speedup guards a zero update time like the bench.
        let rows = [row("A", "Baseline", 10.0, 10.0), row("A", "GradPIM-BD", 0.0, 10.0)];
        assert!((fig09_gmeans(&rows)[3] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fastest_pass_sums_each_calls_minimum() {
        let passes = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0], vec![9.0, 9.0, 4.0]];
        assert_eq!(fastest_pass(&passes), 2.0 + 1.0 + 4.0);
        assert_eq!(fastest_pass(&passes[..1]), 9.0);
        assert_eq!(fastest_pass(&[]), 0.0);
    }

    #[test]
    fn reference_kernel_is_deterministic() {
        let run = || reference_kernel(&mut vec![0; REFERENCE_TABLE]);
        let first = run();
        assert_ne!(first, 0);
        assert_eq!(run(), first);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - start < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(start > 0.0 && x > 0);
    }

    #[test]
    fn proc_parsers() {
        let status = "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(2.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(1.0 / 1024.0));
        assert_eq!(parse_status_mb(status, "Vm"), None);
        assert_eq!(parse_status_mb("Name: x\n", "VmHWM"), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
