//! The engine-side sweep families: the Fig. 9 design-space study
//! ([`DesignSpace`]) and the Fig. 14 node-scaling study ([`Scaling`]).
//!
//! The sensitivity sweeps' families live in `gradpim_sim::sweeps`; these
//! two sit here because their row types fold several simulations into
//! one row. Every family runs through one path:
//! [`ExperimentSpec::run`](crate::serialize::ExperimentSpec::run)
//! enumerates its row groups, serves cached groups, fans the rest across
//! the [`Engine`](crate::Engine)'s scheduler (heaviest first, seeded by
//! [`crate::sched::cost::sweep_point_cycles`]) and reassembles the rows in
//! figure order. [`SweepFamily::report`] is the sequential reference that
//! path must match byte for byte — sweep points share no state, so
//! dispatch order is unobservable in the results.

use gradpim_sim::distributed::{scaling_specs, DistReport, DistSpec};
use gradpim_sim::report::{Kind, Schema, SweepRow, ToRow};
use gradpim_sim::sweeps::{QuickCaps, SweepFamily};
use gradpim_sim::{Design, PhaseError, SystemConfig, TrainingReport, TrainingSim};
use gradpim_workloads::Network;

/// One row of the Fig. 9 design-space table: a network simulated on one
/// design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The simulated design.
    pub design: Design,
    /// Full per-block training report.
    pub report: TrainingReport,
}

/// One row of a Fig. 14-style node-scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Network under training.
    pub network: String,
    /// Data-parallel node count.
    pub nodes: usize,
    /// Baseline distributed step.
    pub baseline: DistReport,
    /// GradPIM-BD distributed step.
    pub gradpim: DistReport,
}

impl ScalingRow {
    /// Whole-step speedup of GradPIM-BD over the baseline at this node
    /// count.
    pub fn speedup(&self) -> f64 {
        self.baseline.total_ns() / self.gradpim.total_ns()
    }
}

impl ToRow for ScalingRow {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("nodes", Kind::Int),
            ("base_fwdbwd_ns", Kind::Float),
            ("base_comm_ns", Kind::Float),
            ("base_update_ns", Kind::Float),
            ("pim_fwdbwd_ns", Kind::Float),
            ("pim_comm_ns", Kind::Float),
            ("pim_update_ns", Kind::Float),
            ("speedup", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.nodes.into(),
            self.baseline.fwdbwd_ns.into(),
            self.baseline.comm_ns.into(),
            self.baseline.update_ns.into(),
            self.gradpim.fwdbwd_ns.into(),
            self.gradpim.comm_ns.into(),
            self.gradpim.update_ns.into(),
            self.speedup().into(),
        ])
    }
}

/// The Fig. 9 design-space study as a [`SweepFamily`]: one row group per
/// network, containing that network on every design of [`Design::ALL`]
/// (network-major). The group is the unit of sharding *and* caching
/// because each row's speedup column references the same group's
/// `Baseline` row.
#[derive(Debug, Clone, Copy)]
pub struct DesignSpace;

impl SweepFamily for DesignSpace {
    type Spec = (SystemConfig, Network);
    type Out = DesignPoint;

    const NAME: &'static str = "design-space";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<Self::Spec>> {
        nets.iter()
            .map(|net| {
                Design::ALL
                    .iter()
                    .map(|&d| {
                        let mut cfg = SystemConfig::new(d);
                        cfg.apply_quick(quick);
                        (cfg, net.clone())
                    })
                    .collect()
            })
            .collect()
    }

    /// `DesignPoint` carries a whole `TrainingReport`, so Fig. 9's tabular
    /// schema lives here rather than on a [`ToRow`] impl.
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("design", Kind::Str),
            ("fwdbwd_ns", Kind::Float),
            ("update_ns", Kind::Float),
            ("total_ns", Kind::Float),
            ("speedup", Kind::Float),
        ])
    }

    fn run_spec(spec: &Self::Spec) -> Result<Self::Out, PhaseError> {
        let (cfg, net) = spec;
        Ok(DesignPoint { design: cfg.design, report: TrainingSim::new(cfg.clone()).run(net)? })
    }

    fn workload((cfg, net): &Self::Spec) -> (u64, usize, usize) {
        (net.total_params() as u64, cfg.batch.unwrap_or(net.default_batch), cfg.base_dram.channels)
    }

    /// One row per (network, design) point with the phase times and — when
    /// the point's network has a [`Design::Baseline`] row earlier in the
    /// group, as [`Design::ALL`] always puts first — the speedup over that
    /// baseline (`NaN` otherwise).
    fn group_rows(_group: &[Self::Spec], outs: Vec<Self::Out>) -> Vec<SweepRow> {
        let mut baseline: Option<(&str, f64)> = None;
        let mut rows = Vec::with_capacity(outs.len());
        for p in &outs {
            if p.design == Design::Baseline {
                baseline = Some((&p.report.network, p.report.total_time_ns()));
            }
            let speedup = match baseline {
                Some((net, base_ns)) if net == p.report.network => {
                    base_ns / p.report.total_time_ns()
                }
                _ => f64::NAN,
            };
            rows.push(SweepRow::new([
                p.report.network.as_str().into(),
                p.design.to_string().into(),
                p.report.fwdbwd_ns().into(),
                p.report.update_ns().into(),
                p.report.total_time_ns().into(),
                speedup.into(),
            ]));
        }
        rows
    }
}

/// The Fig. 14 node-scaling study as a [`SweepFamily`]: one row group per
/// (network, node count) pair — a consecutive (baseline, GradPIM-BD)
/// [`DistSpec`] pair folding into a single [`ScalingRow`]. Node counts are
/// the experiment's fixed [`crate::serialize::FIG14_NODES`].
#[derive(Debug, Clone, Copy)]
pub struct Scaling;

impl SweepFamily for Scaling {
    type Spec = DistSpec;
    type Out = DistReport;

    const NAME: &'static str = "scaling";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<Self::Spec>> {
        nets.iter()
            .flat_map(|net| {
                crate::serialize::FIG14_NODES
                    .iter()
                    .map(move |&nodes| scaling_specs(net, &[nodes], quick))
            })
            .collect()
    }

    fn schema() -> Schema {
        ScalingRow::schema()
    }

    fn run_spec(spec: &Self::Spec) -> Result<Self::Out, PhaseError> {
        spec.run()
    }

    fn workload(spec: &Self::Spec) -> (u64, usize, usize) {
        spec.workload()
    }

    fn rows_per_group(group: &[Self::Spec]) -> usize {
        group.len() / 2
    }

    fn group_rows(group: &[Self::Spec], outs: Vec<Self::Out>) -> Vec<SweepRow> {
        group
            .chunks_exact(2)
            .zip(outs.chunks_exact(2))
            .map(|(pair, reports)| {
                ScalingRow {
                    network: pair[0].net.name.clone(),
                    nodes: pair[0].dist.nodes,
                    baseline: reports[0],
                    gradpim: reports[1],
                }
                .row()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{Experiment, ExperimentSpec, FIG14_NODES};
    use crate::Engine;
    use gradpim_sim::report::Value;
    use gradpim_sim::sweeps::BatchSize;
    use gradpim_workloads::models;

    const QUICK: QuickCaps = Some((1500, 20_000));

    fn float(v: &Value) -> f64 {
        match v {
            Value::Float(x) => *x,
            other => panic!("expected a float cell, got {other:?}"),
        }
    }

    fn mlp_spec(experiment: Experiment) -> ExperimentSpec {
        ExperimentSpec::new(experiment, QUICK, Some(vec![models::mlp().name]))
    }

    #[test]
    fn parallel_batch_sweep_is_bit_identical_to_sequential() {
        let seq = BatchSize::report(&[models::mlp()], QUICK).unwrap();
        let par = mlp_spec(Experiment::Fig12b).run(&Engine::new(3)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn design_space_orders_network_major() {
        let rep = mlp_spec(Experiment::Fig09).run(&Engine::new(2)).unwrap();
        assert_eq!(rep.rows.len(), Design::ALL.len());
        let designs: Vec<String> = rep.rows.iter().map(|r| r.values[1].to_string()).collect();
        let expect: Vec<String> = Design::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(designs, expect);
        let total = |i: usize| float(&rep.rows[i].values[4]);
        let pim = Design::ALL.iter().position(|&d| d == Design::GradPimBuffered).unwrap();
        assert!(total(0) > total(pim));
    }

    #[test]
    fn design_space_family_matches_the_report_path() {
        let nets = [models::mlp()];
        let seq = DesignSpace::report(&nets, QUICK).unwrap();
        assert_eq!(mlp_spec(Experiment::Fig09).run(&Engine::sequential()).unwrap(), seq);
        let layout: Vec<usize> = DesignSpace::groups(&nets, QUICK)
            .iter()
            .map(|g| DesignSpace::rows_per_group(g))
            .collect();
        assert_eq!(layout, vec![Design::ALL.len()]);
    }

    #[test]
    fn scaling_family_matches_distributed_scaling() {
        let net = models::mlp();
        let direct: Vec<SweepRow> = scaling_specs(&net, &FIG14_NODES, QUICK)
            .chunks_exact(2)
            .map(|pair| {
                ScalingRow {
                    network: net.name.clone(),
                    nodes: pair[0].dist.nodes,
                    baseline: pair[0].run().unwrap(),
                    gradpim: pair[1].run().unwrap(),
                }
                .row()
            })
            .collect();
        let nets = [net];
        assert_eq!(Scaling::report(&nets, QUICK).unwrap().rows, direct);
        let layout: Vec<usize> =
            Scaling::groups(&nets, QUICK).iter().map(|g| Scaling::rows_per_group(g)).collect();
        assert_eq!(layout, vec![1; FIG14_NODES.len()]);
    }

    #[test]
    fn distributed_scaling_rows_pair_up() {
        let rep = mlp_spec(Experiment::Fig14).run(&Engine::new(2)).unwrap();
        let nodes: Vec<String> = rep.rows.iter().map(|r| r.values[1].to_string()).collect();
        let expect: Vec<String> = FIG14_NODES.iter().map(ToString::to_string).collect();
        assert_eq!(nodes, expect);
        for r in &rep.rows[1..] {
            let speedup = float(&r.values[8]);
            assert!(speedup > 1.0, "nodes={} speedup {speedup}", r.values[1]);
        }
    }
}
