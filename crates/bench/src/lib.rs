//! # lbm-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§VI). The `report` binary prints the paper-style rows;
//! repeated, interleaved timing of named workloads lives in `perfbench/`.
//!
//! All cases report two performance numbers (DESIGN.md §2/§7):
//! - **measured MLUPS** — wall-clock of the real CPU-parallel execution;
//! - **modeled MLUPS** — the A100 device model applied to the honest
//!   launch/traffic/sync counters the executor records.
//!
//! The *shape* of the paper's results (who wins, by how much, trends with
//! size) lives in both; absolute GPU magnitudes live in the modeled column.

#![warn(missing_docs)]

use std::time::Duration;

use lbm_core::Variant;
use lbm_gpu::{DeviceModel, Executor, KernelStats};
use lbm_problems::cavity::{Cavity, CavityConfig};
use lbm_problems::sphere::{SphereConfig, SphereFlow};

/// Outcome of one benchmark case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Case label.
    pub label: String,
    /// Coarse steps timed.
    pub steps: u64,
    /// Wall-clock for the timed steps.
    pub wall: Duration,
    /// Lattice updates per coarse step (`Σ V_L·2^L`).
    pub work_per_step: u64,
    /// Measured MLUPS (CPU wall-clock).
    pub measured_mlups: f64,
    /// Modeled device MLUPS (A100 cost model on recorded counters).
    pub modeled_mlups: f64,
    /// Aggregate kernel statistics for the timed steps.
    pub stats: KernelStats,
    /// Synchronization points recorded.
    pub syncs: u64,
    /// Active voxels per level, finest first (Table I "Distribution").
    pub distribution: Vec<usize>,
}

impl CaseResult {
    /// Kernel launches per coarse step.
    pub fn launches_per_step(&self) -> f64 {
        self.stats.launches as f64 / self.steps.max(1) as f64
    }

    /// Bytes moved per coarse step (modeled traffic).
    pub fn bytes_per_step(&self) -> f64 {
        (self.stats.bytes_read + self.stats.bytes_written + self.stats.atomic_bytes) as f64
            / self.steps.max(1) as f64
    }
}

/// Runs `warmup` untimed coarse steps, then times `steps` more and returns
/// their measured and modeled record.
pub fn time_engine<T, V, C>(
    label: String,
    eng: &mut lbm_core::Engine<T, V, C>,
    warmup: usize,
    steps: usize,
) -> CaseResult
where
    T: lbm_lattice::Real,
    V: lbm_lattice::VelocitySet,
    C: lbm_lattice::Collision<T, V>,
{
    eng.run(warmup);
    eng.exec.profiler().reset();
    let wall = eng.run_timed(steps);
    let stats = eng.exec.profiler().total();
    let mut distribution: Vec<usize> = eng.grid.levels.iter().map(|l| l.real_cells).collect();
    distribution.reverse();
    CaseResult {
        label,
        steps: steps as u64,
        wall,
        work_per_step: eng.work_per_coarse_step(),
        measured_mlups: eng.mlups_measured(steps as u64, wall),
        modeled_mlups: eng.mlups_modeled(steps as u64),
        stats,
        syncs: eng.exec.profiler().syncs(),
        distribution,
    }
}

/// Runs the flow-over-sphere workload (Table I / Fig. 9) for one size and
/// variant. Uses the paper's KBC/D3Q27 configuration. The program, and so
/// the modeled Table I / Fig. 9 shapes, is the same at every host pool
/// width (`LBM_THREADS`): the Accumulate scatter adds in place at every
/// width and launches no extra kernel (DESIGN.md §10).
pub fn sphere_case(size: [usize; 3], variant: Variant, warmup: usize, steps: usize) -> CaseResult {
    let flow = SphereFlow::new(SphereConfig::for_size(size));
    let mut eng = flow.engine(variant, Executor::new(DeviceModel::a100_40gb()));
    time_engine(
        format!(
            "sphere {}x{}x{} {}",
            size[0],
            size[1],
            size[2],
            variant.name()
        ),
        &mut eng,
        warmup,
        steps,
    )
}

/// Runs the quasi-2D lid-driven cavity for one variant (used by the §VI-A
/// comparisons). Returns the case result.
pub fn cavity_case(
    n: usize,
    levels: u32,
    variant: Variant,
    exec: Executor,
    warmup: usize,
    steps: usize,
) -> CaseResult {
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: if levels == 1 { 0 } else { 4 },
        quasi_2d: true,
        depth: 8,
        ..CavityConfig::default()
    });
    let mut eng = cavity.engine(variant, exec);
    time_engine(
        format!("cavity n={n} L={levels} {}", variant.name()),
        &mut eng,
        warmup,
        steps,
    )
}

/// Formats a Table-I style row.
pub fn table1_row(size: [usize; 3], base: &CaseResult, ours: &CaseResult) -> String {
    let dist: Vec<String> = ours
        .distribution
        .iter()
        .map(|v| format!("{:.3}", *v as f64 / 1e6))
        .collect();
    format!(
        "{:>4}x{:<4}x{:<4} | {:>22} | base {:>8.1} ours {:>8.1} speedup {:>5.2} | modeled: base {:>8.1} ours {:>8.1} speedup {:>5.2}",
        size[0],
        size[1],
        size[2],
        dist.join(", "),
        base.measured_mlups,
        ours.measured_mlups,
        ours.measured_mlups / base.measured_mlups,
        base.modeled_mlups,
        ours.modeled_mlups,
        ours.modeled_mlups / base.modeled_mlups,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_case_runs_and_fills_fields() {
        let r = sphere_case([36, 24, 36], Variant::FusedAll, 1, 2);
        assert_eq!(r.steps, 2);
        assert!(r.measured_mlups > 0.0);
        assert!(r.modeled_mlups > 0.0);
        assert!(r.work_per_step > 0);
        assert_eq!(r.distribution.len(), 3);
        assert!(r.launches_per_step() > 0.0);
        assert!(r.bytes_per_step() > 0.0);
    }

    #[test]
    fn fused_variant_launches_fewer_kernels() {
        let base = sphere_case([36, 24, 36], Variant::ModifiedBaseline, 0, 2);
        let ours = sphere_case([36, 24, 36], Variant::FusedAll, 0, 2);
        assert!(
            ours.launches_per_step() < base.launches_per_step() / 2.0,
            "fusion must cut launches ~3x: {} vs {}",
            ours.launches_per_step(),
            base.launches_per_step()
        );
        assert!(ours.syncs < base.syncs);
        assert!(
            ours.bytes_per_step() < base.bytes_per_step(),
            "fusion must cut traffic"
        );
    }

    #[test]
    fn cavity_case_runs() {
        let r = cavity_case(
            32,
            2,
            Variant::FusedAll,
            Executor::new(DeviceModel::a100_40gb()),
            1,
            2,
        );
        assert!(r.measured_mlups > 0.0);
    }
}
