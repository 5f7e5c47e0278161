//! Parameter sweeps for the sensitivity studies (Fig. 12a–d, Fig. 13).
//!
//! Every sweep is split into two layers so the execution strategy is
//! pluggable:
//!
//! * a **spec builder** (`*_specs`) enumerates the sweep's independent
//!   simulation points in figure order, and
//! * each spec's [`run`](OpsBwSpec::run) method simulates exactly one point.
//!
//! Each family implements the [`SweepFamily`] trait ([`OpsBandwidth`],
//! [`BatchSize`], [`Precision`], [`LayerScatter`] here; the design-space
//! and distributed-scaling families live in `gradpim-engine`). That trait
//! is the one dispatch surface: [`SweepFamily::report`] is the sequential
//! reference, and `gradpim-engine`'s `ExperimentSpec::run` fans the same
//! row groups across a worker pool, a result cache and shard workers —
//! sweep points share no state, so any schedule produces bit-identical
//! rows.

use gradpim_dram::DramConfig;
use gradpim_npu::NpuConfig;
use gradpim_optim::PrecisionMix;
use gradpim_workloads::{Layer, Network};

use crate::config::{Design, SystemConfig};
use crate::phase::PhaseError;
use crate::report::{Kind, Report, Schema, SweepRow, ToRow};
use crate::train::TrainingSim;

/// Traffic-scaling caps shared by every sweep: `Some((bursts, params))`
/// overrides `max_sim_bursts` / `max_sim_params` on each simulated system.
pub type QuickCaps = Option<(u64, usize)>;

/// One sweep family behind a single generic surface.
///
/// A family enumerates its independent simulation jobs as **row groups**
/// — the smallest runs of report rows that are computed together (one
/// sweep point for the sensitivity sweeps; one network for the Fig. 9
/// design space, whose speedups reference the group's own baseline row;
/// one `(network, nodes)` spec pair for the Fig. 14 scaling study). The
/// group is the unit of sharding *and* of result caching: two different
/// sweeps that share a group share its rows.
///
/// Implementations must be deterministic end to end: `groups` enumerates
/// in figure order, `run_spec` is a pure function of the spec, and
/// `group_rows` derives rows from the group's own outputs only — this is
/// what makes a content-addressed cache over `{:?}`-rendered groups sound.
pub trait SweepFamily {
    /// One independent simulation job. `Debug` must render every field
    /// that influences the simulated result (derived `Debug` on the spec
    /// structs does): the rendering is the family's cache-key material.
    type Spec: Clone + Send + Sync + std::fmt::Debug;
    /// The raw result of simulating one spec, before row conversion.
    type Out: Send;

    /// Stable family name — a cache-key component, so renaming it
    /// invalidates every stored group of the family.
    const NAME: &'static str;

    /// Enumerates the family's row groups in figure order.
    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<Self::Spec>>;

    /// The report schema every group's rows follow.
    fn schema() -> Schema;

    /// Simulates one spec.
    ///
    /// # Errors
    ///
    /// Propagates any [`PhaseError`] from the simulation.
    fn run_spec(spec: &Self::Spec) -> Result<Self::Out, PhaseError>;

    /// The spec's [`Workload`] shape (cost-model input only — never
    /// influences simulated results).
    fn workload(spec: &Self::Spec) -> Workload;

    /// How many report rows one group contributes. Defaults to one row
    /// per spec; families that fold several specs into a row override it.
    fn rows_per_group(group: &[Self::Spec]) -> usize {
        group.len()
    }

    /// Converts one group's outputs (in spec order) into its report rows.
    fn group_rows(group: &[Self::Spec], outs: Vec<Self::Out>) -> Vec<SweepRow>;

    /// All specs of every group, flattened in figure order.
    fn specs(nets: &[Network], quick: QuickCaps) -> Vec<Self::Spec> {
        Self::groups(nets, quick).into_iter().flatten().collect()
    }

    /// Runs the whole family sequentially into a [`Report`] (the classic
    /// single-threaded entry point; `gradpim-engine` provides the pooled
    /// and cached executors over the same group surface).
    ///
    /// # Errors
    ///
    /// Propagates the first [`PhaseError`] in figure order.
    fn report(nets: &[Network], quick: QuickCaps) -> Result<Report, PhaseError> {
        let mut rep = Report::new(Self::schema());
        for group in Self::groups(nets, quick) {
            let outs: Vec<Self::Out> =
                group.iter().map(Self::run_spec).collect::<Result<_, _>>()?;
            for row in Self::group_rows(&group, outs) {
                rep.push(row);
            }
        }
        Ok(rep)
    }
}

/// A (baseline, PIM) system pair for one sweep point.
fn design_pair(quick: QuickCaps) -> (SystemConfig, SystemConfig) {
    let mut base = SystemConfig::new(Design::Baseline);
    let mut pim = SystemConfig::new(Design::GradPimBuffered);
    base.apply_quick(quick);
    pim.apply_quick(quick);
    (base, pim)
}

/// One point of the Fig. 12a ops/bandwidth sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsBwPoint {
    /// Network name (the paper sweeps AlphaGoZero).
    pub network: String,
    /// Memory preset name (DDR4-2133 / DDR4-3200 / HBM2).
    pub memory: String,
    /// MAC-array dimension.
    pub mac_dim: usize,
    /// Ops per byte of memory bandwidth (x-axis, log scale).
    pub ops_per_byte: f64,
    /// GradPIM-BD speedup over baseline, in percent (y-axis; 100 = parity).
    pub speedup_pct: f64,
}

impl ToRow for OpsBwPoint {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("memory", Kind::Str),
            ("mac_dim", Kind::Int),
            ("ops_per_byte", Kind::Float),
            ("speedup_pct", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.memory.as_str().into(),
            self.mac_dim.into(),
            self.ops_per_byte.into(),
            self.speedup_pct.into(),
        ])
    }
}

/// One independent simulation job of the Fig. 12a sweep.
#[derive(Debug, Clone)]
pub struct OpsBwSpec {
    base: SystemConfig,
    pim: SystemConfig,
    net: Network,
}

/// The coarse workload shape of one sweep point: `(params, batch,
/// channels)` — trainable parameters simulated, activation sets streamed
/// per step, and DRAM channels available to drain in parallel. Execution
/// engines feed this to a cost model to start the heaviest points first;
/// it never influences simulated results.
pub type Workload = (u64, usize, usize);

impl OpsBwSpec {
    /// This point's [`Workload`] shape (cost-model input only).
    pub fn workload(&self) -> Workload {
        (
            self.net.total_params() as u64,
            self.base.batch.unwrap_or(self.net.default_batch),
            self.base.base_dram.channels.max(self.pim.base_dram.channels),
        )
    }

    /// Simulates this point (a baseline and a GradPIM-BD training step).
    ///
    /// # Errors
    ///
    /// Propagates any [`PhaseError`] from either simulation.
    pub fn run(&self) -> Result<OpsBwPoint, PhaseError> {
        let tb = TrainingSim::new(self.base.clone()).run(&self.net)?;
        let tp = TrainingSim::new(self.pim.clone()).run(&self.net)?;
        Ok(OpsBwPoint {
            network: self.net.name.clone(),
            memory: self.base.base_dram.name.clone(),
            mac_dim: self.base.npu.mac_dim,
            ops_per_byte: self.base.npu.ops_per_byte(self.base.base_dram.peak_external_bw()),
            speedup_pct: tb.total_time_ns() / tp.total_time_ns() * 100.0,
        })
    }
}

/// Enumerates the Fig. 12a sweep points in figure order: MAC-array sizes
/// over memory presets (the paper uses AlphaGoZero).
pub fn ops_bandwidth_specs(net: &Network, quick: QuickCaps) -> Vec<OpsBwSpec> {
    let mut out = Vec::new();
    for dram in [DramConfig::ddr4_2133(), DramConfig::ddr4_3200(), DramConfig::hbm2_like()] {
        for mac_dim in [64usize, 128, 256, 512] {
            let (mut base, mut pim) = design_pair(quick);
            for c in [&mut base, &mut pim] {
                c.base_dram = dram.clone();
                c.npu = NpuConfig::with_mac_dim(mac_dim);
            }
            out.push(OpsBwSpec { base, pim, net: net.clone() });
        }
    }
    out
}

/// One row of the Fig. 12b minibatch sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPoint {
    /// Network name.
    pub network: String,
    /// Minibatch size.
    pub batch: usize,
    /// Speedup over baseline, percent.
    pub speedup_pct: f64,
}

impl ToRow for BatchPoint {
    fn schema() -> Schema {
        Schema::new([("network", Kind::Str), ("batch", Kind::Int), ("speedup_pct", Kind::Float)])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([self.network.as_str().into(), self.batch.into(), self.speedup_pct.into()])
    }
}

/// One independent simulation job of the Fig. 12b sweep.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    base: SystemConfig,
    pim: SystemConfig,
    net: Network,
}

impl BatchSpec {
    /// This point's [`Workload`] shape (cost-model input only).
    pub fn workload(&self) -> Workload {
        (
            self.net.total_params() as u64,
            self.base.batch.unwrap_or(self.net.default_batch),
            self.base.base_dram.channels.max(self.pim.base_dram.channels),
        )
    }

    /// Simulates this point.
    ///
    /// # Errors
    ///
    /// Propagates any [`PhaseError`] from either simulation.
    pub fn run(&self) -> Result<BatchPoint, PhaseError> {
        let tb = TrainingSim::new(self.base.clone()).run(&self.net)?;
        let tp = TrainingSim::new(self.pim.clone()).run(&self.net)?;
        Ok(BatchPoint {
            network: self.net.name.clone(),
            batch: self.base.batch.expect("batch sweep sets an explicit batch"),
            speedup_pct: tb.total_time_ns() / tp.total_time_ns() * 100.0,
        })
    }
}

/// Enumerates the Fig. 12b sweep points (batch 16/32/64 per network).
pub fn batch_specs(nets: &[Network], quick: QuickCaps) -> Vec<BatchSpec> {
    let mut out = Vec::new();
    for net in nets {
        for batch in [16usize, 32, 64] {
            let (mut base, mut pim) = design_pair(quick);
            for c in [&mut base, &mut pim] {
                c.batch = Some(batch);
            }
            out.push(BatchSpec { base, pim, net: net.clone() });
        }
    }
    out
}

/// One row of the Fig. 12c/d precision sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionPoint {
    /// Network name.
    pub network: String,
    /// Precision mix.
    pub mix: PrecisionMix,
    /// Speedup over the same-precision baseline, percent.
    pub speedup_pct: f64,
    /// Memory energy relative to the same-precision baseline, percent.
    pub energy_pct: f64,
}

impl ToRow for PrecisionPoint {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("mix", Kind::Str),
            ("speedup_pct", Kind::Float),
            ("energy_pct", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.mix.to_string().into(),
            self.speedup_pct.into(),
            self.energy_pct.into(),
        ])
    }
}

/// One independent simulation job of the Fig. 12c/d sweep.
#[derive(Debug, Clone)]
pub struct PrecisionSpec {
    base: SystemConfig,
    pim: SystemConfig,
    net: Network,
}

impl PrecisionSpec {
    /// This point's [`Workload`] shape (cost-model input only).
    pub fn workload(&self) -> Workload {
        (
            self.net.total_params() as u64,
            self.base.batch.unwrap_or(self.net.default_batch),
            self.base.base_dram.channels.max(self.pim.base_dram.channels),
        )
    }

    /// Simulates this point.
    ///
    /// # Errors
    ///
    /// Propagates any [`PhaseError`] from either simulation.
    pub fn run(&self) -> Result<PrecisionPoint, PhaseError> {
        let tb = TrainingSim::new(self.base.clone()).run(&self.net)?;
        let tp = TrainingSim::new(self.pim.clone()).run(&self.net)?;
        Ok(PrecisionPoint {
            network: self.net.name.clone(),
            mix: self.base.mix,
            speedup_pct: tb.total_time_ns() / tp.total_time_ns() * 100.0,
            energy_pct: tp.energy().total_pj() / tb.energy().total_pj() * 100.0,
        })
    }
}

/// Enumerates the Fig. 12c/d sweep points (every precision mix per network).
pub fn precision_specs(nets: &[Network], quick: QuickCaps) -> Vec<PrecisionSpec> {
    let mut out = Vec::new();
    for net in nets {
        for mix in PrecisionMix::ALL {
            let (mut base, mut pim) = design_pair(quick);
            for c in [&mut base, &mut pim] {
                c.mix = mix;
            }
            out.push(PrecisionSpec { base, pim, net: net.clone() });
        }
    }
    out
}

/// One point of the Fig. 13 layer-characterization scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPoint {
    /// Network name.
    pub network: String,
    /// Layer name.
    pub layer: String,
    /// Weight/activation ratio (x-axis, log scale).
    pub ratio: f64,
    /// Per-layer speedup over baseline, percent.
    pub speedup_pct: f64,
}

impl ToRow for LayerPoint {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("layer", Kind::Str),
            ("ratio", Kind::Float),
            ("speedup_pct", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.layer.as_str().into(),
            self.ratio.into(),
            self.speedup_pct.into(),
        ])
    }
}

/// One independent simulation job of the Fig. 13 scatter (a single-layer
/// "network").
#[derive(Debug, Clone)]
pub struct LayerSpec {
    base: SystemConfig,
    pim: SystemConfig,
    network: String,
    layer: String,
    ratio: f64,
    single: Network,
}

impl LayerSpec {
    /// This point's [`Workload`] shape (cost-model input only).
    pub fn workload(&self) -> Workload {
        (
            self.single.total_params() as u64,
            self.base.batch.unwrap_or(self.single.default_batch),
            self.base.base_dram.channels.max(self.pim.base_dram.channels),
        )
    }

    /// Simulates this point.
    ///
    /// # Errors
    ///
    /// Propagates any [`PhaseError`] from either simulation.
    pub fn run(&self) -> Result<LayerPoint, PhaseError> {
        let tb = TrainingSim::new(self.base.clone()).run(&self.single)?;
        let tp = TrainingSim::new(self.pim.clone()).run(&self.single)?;
        Ok(LayerPoint {
            network: self.network.clone(),
            layer: self.layer.clone(),
            ratio: self.ratio,
            speedup_pct: tb.total_time_ns() / tp.total_time_ns() * 100.0,
        })
    }
}

/// Enumerates the Fig. 13 scatter points (every parameterized layer of
/// every network, simulated as its own single-layer network).
pub fn layer_specs(nets: &[Network], quick: QuickCaps) -> Vec<LayerSpec> {
    let mut out = Vec::new();
    for net in nets {
        for layer in &net.layers {
            if !layer.has_params() {
                continue;
            }
            let single = Network {
                name: format!("{}:{}", net.name, layer.name),
                layers: vec![Layer::clone(layer)],
                default_batch: net.default_batch,
            };
            let (base, pim) = design_pair(quick);
            out.push(LayerSpec {
                base,
                pim,
                network: net.name.clone(),
                layer: layer.name.clone(),
                ratio: layer.weight_activation_ratio(),
                single,
            });
        }
    }
    out
}

/// [`SweepFamily`] for the Fig. 12a ops/bandwidth sweep. Each group is a
/// single sweep point; a multi-network input chains each network's
/// memory-major enumeration.
#[derive(Debug, Clone, Copy)]
pub struct OpsBandwidth;

impl SweepFamily for OpsBandwidth {
    type Spec = OpsBwSpec;
    type Out = OpsBwPoint;

    const NAME: &'static str = "ops-bandwidth";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<OpsBwSpec>> {
        nets.iter()
            .flat_map(|net| ops_bandwidth_specs(net, quick).into_iter().map(|s| vec![s]))
            .collect()
    }

    fn schema() -> Schema {
        OpsBwPoint::schema()
    }

    fn run_spec(spec: &OpsBwSpec) -> Result<OpsBwPoint, PhaseError> {
        spec.run()
    }

    fn workload(spec: &OpsBwSpec) -> Workload {
        spec.workload()
    }

    fn group_rows(_group: &[OpsBwSpec], outs: Vec<OpsBwPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

/// [`SweepFamily`] for the Fig. 12b minibatch sweep (one point per group).
#[derive(Debug, Clone, Copy)]
pub struct BatchSize;

impl SweepFamily for BatchSize {
    type Spec = BatchSpec;
    type Out = BatchPoint;

    const NAME: &'static str = "batch";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<BatchSpec>> {
        batch_specs(nets, quick).into_iter().map(|s| vec![s]).collect()
    }

    fn schema() -> Schema {
        BatchPoint::schema()
    }

    fn run_spec(spec: &BatchSpec) -> Result<BatchPoint, PhaseError> {
        spec.run()
    }

    fn workload(spec: &BatchSpec) -> Workload {
        spec.workload()
    }

    fn group_rows(_group: &[BatchSpec], outs: Vec<BatchPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

/// [`SweepFamily`] for the Fig. 12c/d precision sweep (one point per
/// group).
#[derive(Debug, Clone, Copy)]
pub struct Precision;

impl SweepFamily for Precision {
    type Spec = PrecisionSpec;
    type Out = PrecisionPoint;

    const NAME: &'static str = "precision";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<PrecisionSpec>> {
        precision_specs(nets, quick).into_iter().map(|s| vec![s]).collect()
    }

    fn schema() -> Schema {
        PrecisionPoint::schema()
    }

    fn run_spec(spec: &PrecisionSpec) -> Result<PrecisionPoint, PhaseError> {
        spec.run()
    }

    fn workload(spec: &PrecisionSpec) -> Workload {
        spec.workload()
    }

    fn group_rows(_group: &[PrecisionSpec], outs: Vec<PrecisionPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

/// [`SweepFamily`] for the Fig. 13 layer-characterization scatter (one
/// single-layer point per group).
#[derive(Debug, Clone, Copy)]
pub struct LayerScatter;

impl SweepFamily for LayerScatter {
    type Spec = LayerSpec;
    type Out = LayerPoint;

    const NAME: &'static str = "layer-scatter";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<LayerSpec>> {
        layer_specs(nets, quick).into_iter().map(|s| vec![s]).collect()
    }

    fn schema() -> Schema {
        LayerPoint::schema()
    }

    fn run_spec(spec: &LayerSpec) -> Result<LayerPoint, PhaseError> {
        spec.run()
    }

    fn workload(spec: &LayerSpec) -> Workload {
        spec.workload()
    }

    fn group_rows(_group: &[LayerSpec], outs: Vec<LayerPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_workloads::models;

    const QUICK: QuickCaps = Some((1500, 20_000));

    #[test]
    fn batch_sweep_smaller_batches_gain_more() {
        // Fig. 12b: "smaller batch size leads to higher speedup".
        let nets = [models::resnet18()];
        let pts: Vec<BatchPoint> =
            batch_specs(&nets, QUICK).iter().map(BatchSpec::run).collect::<Result<_, _>>().unwrap();
        let s16 = pts.iter().find(|p| p.batch == 16).unwrap().speedup_pct;
        let s64 = pts.iter().find(|p| p.batch == 64).unwrap().speedup_pct;
        assert!(s16 > s64, "batch16 {s16} vs batch64 {s64}");
    }

    #[test]
    fn precision_sweep_all_mixes_gain() {
        // Fig. 12c: 8/16, 16/32, 32/32 still provide meaningful speedups.
        let nets = [models::mlp()];
        let pts: Vec<PrecisionPoint> = precision_specs(&nets, QUICK)
            .iter()
            .map(PrecisionSpec::run)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.speedup_pct > 110.0, "{} gains only {}", p.mix, p.speedup_pct);
            assert!(p.energy_pct < 100.0, "{} energy {}", p.mix, p.energy_pct);
        }
        // The default 8/32 gains the most (largest update share).
        let s832 = pts.iter().find(|p| p.mix == PrecisionMix::MIXED_8_32).unwrap();
        let sfull = pts.iter().find(|p| p.mix == PrecisionMix::FULL_32).unwrap();
        assert!(s832.speedup_pct > sfull.speedup_pct);
    }

    #[test]
    fn layer_scatter_correlates_ratio_with_speedup() {
        // Fig. 13: "a clear correlation between the weight/activation ratio
        // and the speedup".
        let nets = [models::resnet18()];
        let pts: Vec<LayerPoint> =
            layer_specs(&nets, QUICK).iter().map(LayerSpec::run).collect::<Result<_, _>>().unwrap();
        let lo: Vec<&LayerPoint> = pts.iter().filter(|p| p.ratio < 1.0).collect();
        let hi: Vec<&LayerPoint> = pts.iter().filter(|p| p.ratio > 10.0).collect();
        assert!(!lo.is_empty() && !hi.is_empty());
        let avg = |v: &[&LayerPoint]| v.iter().map(|p| p.speedup_pct).sum::<f64>() / v.len() as f64;
        assert!(avg(&hi) > avg(&lo) + 20.0, "hi {} lo {}", avg(&hi), avg(&lo));
    }

    #[test]
    fn reports_are_tabular_views_of_points() {
        use crate::report::Value;
        let nets = [models::mlp()];
        let pts: Vec<BatchPoint> =
            batch_specs(&nets, QUICK).iter().map(BatchSpec::run).collect::<Result<_, _>>().unwrap();
        let rep = BatchSize::report(&nets, QUICK).unwrap();
        assert_eq!(rep.rows.len(), pts.len());
        let names: Vec<&str> = rep.schema.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["network", "batch", "speedup_pct"]);
        // Cells are the point fields verbatim — bit-identical f64s included.
        assert_eq!(rep.rows[0].values[0], Value::Str(pts[0].network.clone()));
        assert_eq!(rep.rows[0].values[1], Value::Int(pts[0].batch as i64));
        assert_eq!(rep.rows[0].values[2], Value::Float(pts[0].speedup_pct));
    }

    #[test]
    fn specs_enumerate_in_figure_order() {
        let net = models::mlp();
        let specs = ops_bandwidth_specs(&net, QUICK);
        // 3 memory presets × 4 MAC dims, memory-major.
        assert_eq!(specs.len(), 12);
        assert_eq!(specs[0].base.base_dram.name, specs[3].base.base_dram.name);
        assert_ne!(specs[0].base.base_dram.name, specs[4].base.base_dram.name);
        let nets = [models::mlp(), models::resnet18()];
        assert_eq!(batch_specs(&nets, QUICK).len(), 6);
        assert_eq!(precision_specs(&nets, QUICK).len(), 8);
        // Quick caps propagate to both systems of every pair.
        for s in batch_specs(&nets, QUICK) {
            assert_eq!(s.base.max_sim_bursts, 1500);
            assert_eq!(s.pim.max_sim_params, 20_000);
        }
    }

    #[test]
    fn family_surface_matches_the_free_functions() {
        // The trait and the free spec builders must agree on enumeration,
        // schema, and (byte-identical) simulated rows.
        let nets = [models::mlp()];
        assert_eq!(BatchSize::specs(&nets, QUICK).len(), batch_specs(&nets, QUICK).len());
        assert_eq!(OpsBandwidth::groups(&nets, QUICK).len(), 12, "one group per sweep point");
        assert_eq!(BatchSize::schema(), BatchPoint::schema());
        let via_trait = BatchSize::report(&nets, QUICK).unwrap();
        let points: Vec<BatchPoint> =
            batch_specs(&nets, QUICK).iter().map(BatchSpec::run).collect::<Result<_, _>>().unwrap();
        let via_points = Report::from_points(&points);
        assert_eq!(via_trait, via_points);
        // Groups carry exactly the rows the report shows, in figure order.
        let groups = LayerScatter::groups(&nets, QUICK);
        let rows: usize = groups.iter().map(|g| LayerScatter::rows_per_group(g)).sum();
        assert_eq!(rows, LayerScatter::report(&nets, QUICK).unwrap().rows.len());
    }

    #[test]
    fn workloads_reflect_spec_shape() {
        let nets = [models::mlp()];
        let specs = batch_specs(&nets, QUICK);
        let (params, batch, channels) = specs[0].workload();
        assert_eq!(params, models::mlp().total_params() as u64);
        assert_eq!(batch, 16, "batch sweep's first point sets batch 16");
        assert!(channels >= 1);
        // Layer points report the single layer's parameters, not the net's.
        let layers = layer_specs(&[models::resnet18()], QUICK);
        let total: u64 = layers.iter().map(|s| s.workload().0).sum();
        assert_eq!(total, models::resnet18().total_params() as u64);
    }
}
