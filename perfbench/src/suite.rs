//! The three workloads and the seeded inputs they run.

use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_sim::sweeps::QuickCaps;

/// `gradpim-cli --quick` traffic caps (bursts, params).
pub const QUICK: QuickCaps = Some((4 * 1024, 32 * 1024));

/// Caps `suite-warm` fills its store with. A warm pass never simulates,
/// and the row count does not depend on the caps, so smaller caps only
/// make set-up cheaper.
pub const FILL: QuickCaps = Some((128, 1024));

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 on one thread, no cache: the cycle core in isolation.
    Fig09Cold,
    /// All six experiments on `nproc` threads over a fresh disk cache.
    SuiteColdCache,
    /// All six experiments served from a disk cache that set-up filled.
    SuiteWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::Fig09Cold, Workload::SuiteColdCache, Workload::SuiteWarm];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig09Cold => "fig09-cold",
            Workload::SuiteColdCache => "suite-cold-cache",
            Workload::SuiteWarm => "suite-warm",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Engine worker count: one for the isolated cycle core, `nproc`
    /// for the suites.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::Fig09Cold => 1,
            Workload::SuiteColdCache | Workload::SuiteWarm => nproc,
        }
    }

    /// Whether the engine runs over a disk cache.
    pub fn cached(self) -> bool {
        self != Workload::Fig09Cold
    }

    /// The specs one pass runs, in order. The seed permutes network order
    /// within each spec and experiment order within the suites; the
    /// simulated work is the same for every seed.
    pub fn specs(self, seed: u64) -> Vec<ExperimentSpec> {
        let mut rng = SplitMix64(seed);
        let (experiments, caps): (Vec<Experiment>, QuickCaps) = match self {
            Workload::Fig09Cold => (vec![Experiment::Fig09], QUICK),
            Workload::SuiteColdCache => (Experiment::ALL.to_vec(), QUICK),
            Workload::SuiteWarm => (Experiment::ALL.to_vec(), FILL),
        };
        let mut experiments = experiments;
        rng.shuffle(&mut experiments);
        experiments
            .into_iter()
            .map(|e| {
                let spec = ExperimentSpec::new(e, caps, None);
                // Experiments whose paper default is one network (fig12a,
                // fig14) keep it; the others get every network, permuted.
                let mut nets: Vec<String> = spec
                    .resolve_networks()
                    .expect("paper-default networks resolve")
                    .into_iter()
                    .map(|n| n.name)
                    .collect();
                if nets.len() == 1 {
                    return spec;
                }
                rng.shuffle(&mut nets);
                ExperimentSpec::new(e, caps, Some(nets))
            })
            .collect()
    }
}

/// One timed call of a pass: a spec, or one shard of it, with the index
/// of the spec it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Index into the workload's specs.
    pub parent: usize,
    /// What the call runs.
    pub spec: ExperimentSpec,
}

impl Workload {
    /// The timed calls of one pass over `specs`. `fig09-cold` runs its
    /// spec one row group (one network, about a second) per call, so a
    /// run's fastest time of each call is taken at a grain finer than its
    /// 5-second pass; on one thread the shards do exactly the unsharded
    /// work, in the same order. The suites run each spec whole, which
    /// keeps their two-thread scheduling within a spec.
    pub fn units(self, specs: &[ExperimentSpec]) -> Vec<Unit> {
        let mut units = Vec::new();
        for (parent, spec) in specs.iter().enumerate() {
            let groups = spec.layout().map_or(1, |l| l.len());
            if self == Workload::Fig09Cold && groups > 1 {
                units
                    .extend(spec.shard_specs(groups).into_iter().map(|spec| Unit { parent, spec }));
            } else {
                units.push(Unit { parent, spec: spec.clone() });
            }
        }
        units
    }
}

/// SplitMix64: a small, well-mixed deterministic generator for the
/// seeded permutations.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_nets(spec: &ExperimentSpec) -> Vec<String> {
        let mut nets: Vec<String> =
            spec.resolve_networks().expect("resolves").into_iter().map(|n| n.name).collect();
        nets.sort();
        nets
    }

    #[test]
    fn seeds_permute_order_but_not_work() {
        for w in Workload::ALL {
            let base = w.specs(0);
            assert_eq!(w.specs(0), base, "same seed, same inputs");
            let mut differs = false;
            for seed in 1..8 {
                let specs = w.specs(seed);
                differs |= specs != base;
                let mut a: Vec<_> =
                    base.iter().map(|s| (s.experiment.name(), sorted_nets(s))).collect();
                let mut b: Vec<_> =
                    specs.iter().map(|s| (s.experiment.name(), sorted_nets(s))).collect();
                a.sort();
                b.sort();
                assert_eq!(a, b, "{}: seed {seed} changes the work", w.name());
                let rows = |v: &[ExperimentSpec]| -> usize {
                    v.iter().map(|s| s.layout().expect("layout").iter().sum::<usize>()).sum()
                };
                assert_eq!(rows(&specs), rows(&base));
            }
            assert!(differs, "{}: seeds never change the order", w.name());
        }
    }

    #[test]
    fn suites_have_257_rows_and_fig09_has_30() {
        let rows = |w: Workload| -> usize {
            w.specs(3).iter().map(|s| s.layout().expect("layout").iter().sum::<usize>()).sum()
        };
        assert_eq!(rows(Workload::Fig09Cold), 30);
        assert_eq!(rows(Workload::SuiteColdCache), 257);
        assert_eq!(rows(Workload::SuiteWarm), 257);
    }

    #[test]
    fn fig09_cold_runs_one_network_per_call_and_suites_one_spec() {
        let specs = Workload::Fig09Cold.specs(5);
        let units = Workload::Fig09Cold.units(&specs);
        let groups = specs[0].layout().expect("layout").len();
        assert!(groups > 1);
        assert_eq!(units.len(), groups);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.parent, 0);
            assert_eq!(u.spec.shard.map(|s| (s.index, s.count)), Some((i, groups)));
        }
        let specs = Workload::SuiteColdCache.specs(5);
        let units = Workload::SuiteColdCache.units(&specs);
        let whole: Vec<_> = units.iter().map(|u| (u.parent, u.spec.clone())).collect();
        assert_eq!(whole, specs.into_iter().enumerate().collect::<Vec<_>>());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
