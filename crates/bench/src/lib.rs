//! # lbm-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§VI). The `report` binary prints the paper-style rows; the
//! Criterion benches under `benches/` time the same cases statistically.
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

use lbm_core::{ExecMode, InteriorPath, Variant};
use lbm_gpu::{DeviceModel, Executor, KernelSpan, KernelStats};
use lbm_sparse::Layout;
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

fn time_engine<T, V, C>(
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
/// variant. Uses the paper's KBC/D3Q27 configuration. The Accumulate path
/// is pinned to the paper's atomic scatter so the modeled Table I / Fig. 9
/// shapes don't shift with the host pool width (`LBM_THREADS`) — the
/// staged split is a host-determinism device, not part of the modeled
/// GPU algorithm (DESIGN.md §10).
pub fn sphere_case(size: [usize; 3], variant: Variant, warmup: usize, steps: usize) -> CaseResult {
    let flow = SphereFlow::new(SphereConfig::for_size(size));
    let mut eng = flow.engine_with(variant, Executor::new(DeviceModel::a100_40gb()), |b| {
        b.staged_accumulate(false)
    });
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

/// Runs the interior-path streaming comparison workload: a full-3D cavity
/// with 8³ blocks, where the bulk of the blocks are `FULLY_INTERIOR` and
/// eligible for the direction-major offset-table fast path. `levels = 1`
/// gives the interior-dominated case the speedup target is defined on;
/// `levels > 1` adds the refinement interface for the neutrality check.
pub fn streaming_case(
    n: usize,
    levels: u32,
    path: InteriorPath,
    warmup: usize,
    steps: usize,
) -> CaseResult {
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: if levels == 1 { 0 } else { 4 },
        quasi_2d: false,
        block_size: 8,
        ..CavityConfig::default()
    });
    let mut eng = cavity.engine_with(
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        |b| b.interior_path(path),
    );
    time_engine(
        format!("cavity n={n} L={levels} path={}", path.name()),
        &mut eng,
        warmup,
        steps,
    )
}

/// Measured MLUPS of the **streaming kernel in isolation** for every
/// [`InteriorPath`], on a walled uniform box with 8³ blocks. At `n = 96`
/// the box is 12³ blocks of which the inner 10³ (≈58 %) are
/// `FULLY_INTERIOR`; the remaining shell keeps the general `resolve_link`
/// path, so the ratio is the honest whole-kernel speedup (interior fast
/// path diluted by the boundary shell per Amdahl), undiluted only by the
/// path-independent collision/interface kernels.
///
/// The two paths are measured **interleaved**, `rounds` timed rounds
/// each after one untimed warmup round, and the best round per path is
/// kept — this machine's wall-clock drifts ±40 % between runs, and
/// best-of-interleaved-rounds is the only comparison that survives it.
/// Streams `src → dst` `iters` times per round without swapping; the
/// input state is irrelevant to the cost. Returns `(path, MLUPS)` pairs.
pub fn stream_kernel_compare(n: usize, rounds: usize, iters: usize) -> Vec<(InteriorPath, f64)> {
    use lbm_core::kernels::{self, StreamInputs, StreamOptions};
    use lbm_core::{AllWalls, GridSpec, MultiGrid};
    use lbm_sparse::Box3;
    let paths = [InteriorPath::DirMajor, InteriorPath::General];
    let spec = GridSpec::uniform(Box3::from_dims(n, n, n)).with_block_size(8);
    let mut grid = MultiGrid::<f64, lbm_lattice::D3Q19>::build(spec, &AllWalls, 1.6);
    grid.init_equilibrium(|_, _| 1.0, |_, _| [0.02, 0.01, 0.0]);
    let exec = Executor::new(DeviceModel::a100_40gb());
    let level = &mut grid.levels[0];
    let real = level.real_cells as u64;
    let (src, dst) = level.f.pair_mut();
    let opts = StreamOptions {
        explosion: false,
        coalesce: false,
    };
    let mut best = [0.0f64; 2];
    for round in 0..rounds + 1 {
        for (pi, &path) in paths.iter().enumerate() {
            let inp = StreamInputs {
                grid: &level.grid,
                flags: &level.flags,
                block_flags: &level.block_flags,
                links: &level.links,
                src,
                acc: &level.acc,
                coarse_src: None,
                runs: &level.runs,
                interior_path: path,
            };
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                kernels::stream::<f64, lbm_lattice::D3Q19>(&exec, "S0", inp, dst, opts, None, real);
            }
            let mlups = (real * iters as u64) as f64 / t0.elapsed().as_micros().max(1) as f64;
            if round > 0 && mlups > best[pi] {
                best[pi] = mlups;
            }
        }
    }
    paths.iter().copied().zip(best).collect()
}

/// FNV-1a digest of every population of every level, folded in canonical
/// `(level, block, component, cell)` order through the accessor API. The
/// traversal order is layout-blind, so two runs that computed the same
/// physics produce the same digest no matter how the values are placed in
/// memory — this is the bit-identity gate of the layout sweep.
pub fn grid_digest<T, V>(grid: &lbm_core::MultiGrid<T, V>) -> String
where
    T: lbm_lattice::Real,
    V: lbm_lattice::VelocitySet,
{
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for level in &grid.levels {
        let f = level.f.src();
        for (r, _) in level.grid.iter_active() {
            for i in 0..V::Q {
                for b in f.get(r.block, i, r.cell).to_f64().to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    format!("{h:016x}")
}

/// Runs a two-level lid-driven box under one population [`Layout`] and
/// returns the timing record plus the [`grid_digest`] of the final state.
///
/// The workload is a shrunken cavity (near-wall refinement band, moving
/// lid, BGK) but generic over the velocity set so the sweep can pit
/// D3Q19 against D3Q27: the layout trade-off depends directly on `q`
/// (CellAoS strides by `q`; tiles pack `q·w` values). The digest must be
/// identical across layouts for fixed `(n, B, V)` — the report and the CI
/// smoke both gate on that.
pub fn layout_case<V: lbm_lattice::VelocitySet>(
    n: usize,
    block_size: usize,
    layout: Layout,
    warmup: usize,
    steps: usize,
) -> (CaseResult, String) {
    use lbm_core::{presets, Boundary, Engine, GridSpec, MultiGrid};
    use lbm_lattice::Bgk;
    use lbm_sparse::Box3;
    let domain = Box3::from_dims(n, n, n);
    let refine = presets::near_walls(domain, 2, 4, [true, true, true]);
    let spec = GridSpec::new(2, domain, refine).with_block_size(block_size);
    let top_fine = n as i32;
    let bc = move |level: u32, src: lbm_sparse::Coord, _dir: usize| {
        if src.y >= top_fine >> (1 - level) {
            Boundary::MovingWall {
                velocity: [0.05, 0.0, 0.0],
            }
        } else {
            Boundary::BounceBack
        }
    };
    let omega = 1.7;
    let grid = MultiGrid::<f64, V>::build(spec, &bc, omega);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(omega))
        .variant(Variant::FusedAll)
        .layout(layout)
        .build(Executor::new(DeviceModel::a100_40gb()));
    eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
    let case = time_engine(
        format!("lid n={n} B={block_size} {} {}", V::NAME, layout.label()),
        &mut eng,
        warmup,
        steps,
    );
    (case, grid_digest(&eng.grid))
}

/// One thread count's record of the determinism thread sweep
/// (`report -- thread-sweep`).
#[derive(Clone, Debug)]
pub struct ThreadSweepResult {
    /// Kernel-pool width the engine ran with.
    pub threads: usize,
    /// Timing record of the timed steps.
    pub case: CaseResult,
    /// [`grid_digest`] of the final state — must be bit-identical across
    /// every thread count (the determinism pin of DESIGN.md §10).
    pub digest: String,
    /// Blocks executed by each pool thread over the timed steps
    /// (work-balance observability; empty at one thread).
    pub per_thread_blocks: Vec<u64>,
    /// Whether the engine ran the staged deterministic Accumulate path
    /// (default: iff `threads > 1`).
    pub staged: bool,
}

/// Runs the refined cavity on a kernel pool of `threads` threads and
/// digests the final state. The engine picks the staged Accumulate path
/// automatically for `threads > 1`; because the staged merge replays the
/// serial scatter order exactly, the digest must not depend on `threads`.
pub fn thread_sweep_case(
    n: usize,
    levels: u32,
    threads: usize,
    warmup: usize,
    steps: usize,
) -> ThreadSweepResult {
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: if levels == 1 { 0 } else { 4 },
        quasi_2d: true,
        depth: 8,
        ..CavityConfig::default()
    });
    let mut eng = cavity.engine_with(
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        |b| b.threads(threads),
    );
    let case = time_engine(
        format!("cavity n={n} L={levels} threads={threads}"),
        &mut eng,
        warmup,
        steps,
    );
    ThreadSweepResult {
        threads,
        digest: grid_digest(&eng.grid),
        per_thread_blocks: eng.exec.profiler().thread_blocks(),
        staged: eng.staged_accumulate(),
        case,
    }
}

/// One restart-equivalence case of `report -- checkpoint`.
#[derive(Clone, Debug)]
pub struct CheckpointCaseResult {
    /// Case label (layouts, execution mode, pool width).
    pub label: String,
    /// Snapshot size on disk, bytes.
    pub snapshot_bytes: usize,
    /// Wall seconds to serialize the grid and write the snapshot file.
    pub save_s: f64,
    /// Wall seconds to read the file back, validate it and restore.
    pub load_s: f64,
    /// [`grid_digest`] of the uninterrupted run's final state.
    pub uninterrupted_digest: String,
    /// [`grid_digest`] after interrupt → save → fresh engine → restore →
    /// finish. Must equal `uninterrupted_digest` bit-exactly.
    pub resume_digest: String,
}

impl CheckpointCaseResult {
    /// Whether the resumed run reproduced the uninterrupted run bit-exactly.
    pub fn digests_match(&self) -> bool {
        self.uninterrupted_digest == self.resume_digest
    }

    /// Save throughput in MiB/s (serialization + file write).
    pub fn save_mib_s(&self) -> f64 {
        self.snapshot_bytes as f64 / (1024.0 * 1024.0) / self.save_s.max(1e-12)
    }

    /// Load throughput in MiB/s (file read + validation + restore).
    pub fn load_mib_s(&self) -> f64 {
        self.snapshot_bytes as f64 / (1024.0 * 1024.0) / self.load_s.max(1e-12)
    }
}

/// Runs the refined-cavity restart-equivalence experiment: one engine runs
/// `total_steps` uninterrupted; a second identical engine is interrupted at
/// `interrupt_at` steps, snapshotted to a real temp file, and a **fresh**
/// engine (built with `restore_layout`, possibly different from the layout
/// the snapshot was written under — the format is canonical, DESIGN.md §11)
/// restores from disk and finishes the remaining steps. Both final states
/// are digested; crash-safe restart means the digests are bit-identical.
#[allow(clippy::too_many_arguments)] // a full experiment spec, not an API surface
pub fn checkpoint_case(
    n: usize,
    levels: u32,
    save_layout: Layout,
    restore_layout: Layout,
    mode: ExecMode,
    threads: usize,
    interrupt_at: usize,
    total_steps: usize,
) -> CheckpointCaseResult {
    assert!(interrupt_at > 0 && interrupt_at < total_steps);
    let mk = |layout: Layout| {
        let cavity = Cavity::new(CavityConfig {
            n_finest: n,
            levels,
            wall_band: if levels == 1 { 0 } else { 4 },
            quasi_2d: true,
            depth: 8,
            ..CavityConfig::default()
        });
        cavity.engine_with(
            Variant::FusedAll,
            Executor::new(DeviceModel::a100_40gb()),
            |b| b.layout(layout).exec_mode(mode).threads(threads),
        )
    };
    let label = format!(
        "{}->{} {:?} threads={}",
        save_layout.label(),
        restore_layout.label(),
        mode,
        threads
    );

    // The reference: same initial state, never interrupted.
    let mut reference = mk(restore_layout);
    reference.run(total_steps);
    let uninterrupted_digest = grid_digest(&reference.grid);

    // The "crashed" run: stops at interrupt_at and snapshots to disk.
    let path = std::env::temp_dir().join(format!(
        "lbm_ckpt_{}_{}.bin",
        std::process::id(),
        label.replace(['-', '>', ' ', '='], "_")
    ));
    let mut interrupted = mk(save_layout);
    interrupted.run(interrupt_at);
    let t0 = std::time::Instant::now();
    let blob = interrupted.checkpoint();
    std::fs::write(&path, &blob).expect("snapshot write");
    let save_s = t0.elapsed().as_secs_f64();
    let snapshot_bytes = blob.len();
    drop(interrupted); // the process is "gone"

    // The restarted run: a fresh engine restores from disk and finishes.
    let mut resumed = mk(restore_layout);
    let t0 = std::time::Instant::now();
    let bytes = std::fs::read(&path).expect("snapshot read");
    resumed.restore(&bytes).expect("snapshot restore");
    let load_s = t0.elapsed().as_secs_f64();
    assert_eq!(resumed.coarse_steps(), interrupt_at as u64);
    resumed.run(total_steps - interrupt_at);
    let resume_digest = grid_digest(&resumed.grid);
    let _ = std::fs::remove_file(&path);

    CheckpointCaseResult {
        label,
        snapshot_bytes,
        save_s,
        load_s,
        uninterrupted_digest,
        resume_digest,
    }
}

/// Observability record of one traced run: what the scheduler planned and
/// what the executor actually dispatched.
#[derive(Clone, Debug)]
pub struct GraphRunInfo {
    /// Execution mode the engine ran in.
    pub mode: ExecMode,
    /// Executor waves recorded over the timed steps.
    pub waves: u64,
    /// Per-kernel spans of one traced coarse step (recorded separately
    /// after the timing run, so the timed numbers stay tracing-free).
    pub spans: Vec<KernelSpan>,
    /// Per-wave text summary of the traced step.
    pub wave_summary: String,
    /// chrome://tracing JSON of the traced step.
    pub chrome_trace: String,
    /// Kernels per coarse step in the schedule.
    pub schedule_kernels: usize,
    /// Synchronization barriers per coarse step in the schedule.
    pub schedule_syncs: usize,
    /// Waves per coarse step in the task graph.
    pub schedule_waves: usize,
}

/// Runs the cavity workload in the given [`ExecMode`] with span tracing on
/// and returns both the usual timing record and the scheduling
/// observability record. This is the `report -- graph` workhorse: the same
/// engine provides the planned schedule (via the unified step program) and
/// the measured dispatch, so the two can be cross-checked.
pub fn graph_case(
    n: usize,
    levels: u32,
    variant: Variant,
    mode: ExecMode,
    warmup: usize,
    steps: usize,
) -> (CaseResult, GraphRunInfo) {
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: if levels == 1 { 0 } else { 4 },
        quasi_2d: true,
        depth: 8,
        ..CavityConfig::default()
    });
    let mut eng = cavity.engine_with(
        variant,
        Executor::new(DeviceModel::a100_40gb()),
        |b| b.exec_mode(mode),
    );
    let (graph, schedule) = eng.step_task_graph();
    let case = time_engine(
        format!("cavity n={n} L={levels} {} {mode:?}", variant.name()),
        &mut eng,
        warmup,
        steps,
    );
    let timed_waves = eng.exec.profiler().waves();
    // Trace one extra step in isolation: spans from recurring waves of
    // different steps would otherwise share wave ids and smear the
    // per-wave makespans over the whole run.
    eng.exec.profiler().reset();
    eng.exec.profiler().set_tracing(true);
    eng.step();
    eng.exec.profiler().set_tracing(false);
    let prof = eng.exec.profiler();
    let info = GraphRunInfo {
        mode,
        waves: timed_waves,
        spans: prof.spans(),
        wave_summary: prof.wave_summary(),
        chrome_trace: prof.chrome_trace_json(),
        schedule_kernels: schedule.kernel_count(),
        schedule_syncs: schedule.sync_count(),
        schedule_waves: graph.wave_count(),
    };
    (case, info)
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
