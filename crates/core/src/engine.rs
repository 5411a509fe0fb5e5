//! The nonuniform time stepper (paper Algorithm 1, restructured §IV) and
//! its fusion variants, executed on the virtual GPU.
//!
//! One [`Engine::step`] advances the coarsest level by one time step; a
//! level at depth `L` advances `2^L` times (acoustic scaling, paper §III).
//! The launch sequence comes from [`crate::program::step_ops`], which runs
//! the finer level's two substeps *before* the coarse level's streaming so
//! that:
//!
//! - Explosion reads the coarse post-collision state of the enclosing step
//!   (zeroth-order time interpolation, as in the volume-based scheme);
//! - the ghost accumulators are fully charged (2 substeps × 2³ children =
//!   16 contributions) before coarse Coalescence divides them;
//! - accumulators are reset right after being consumed (paper §IV-A).
//!
//! The program executes in one of two modes ([`ExecMode`]):
//!
//! - **Eager** — launches in program order with a synchronization point
//!   between consecutive kernels (the classical serial submission);
//! - **Graph** — the dependency graph of the declared field accesses is
//!   scheduled into waves ([`lbm_runtime::Schedule`]); barriers exist only
//!   between waves — the paper's §V-C minimal-synchronization execution.
//!   The cost model charges one launch overhead per wave (the modeled
//!   launch overlap); the host runs a wave's kernels in program order.
//!   Both modes run the *same* kernels on the same buffers and produce
//!   bit-identical fields (enforced by tests across all variants).
//!
//! In both modes each kernel runs block-parallel on the executor's one
//! pool; there is no other host threading.
//!
//! The population buffers use the post-collision convention, which is what
//! lets Fig. 4f's single fused kernel exist: one gather (streaming +
//! Explosion + Coalescence), collision in registers, one store, plus the
//! atomic Accumulate scatter.

use std::time::{Duration, Instant};

use lbm_gpu::{with_span_context, Executor};
use lbm_lattice::{omega_at_level, Collision, Real, VelocitySet};
use lbm_runtime::{Schedule, TaskGraph};

use crate::checkpoint::{
    self, CheckpointError, HealthAction, HealthCause, HealthEvent, HealthGuard, HealthPolicy,
    RecoveryPoint,
};
use crate::graphs;
use crate::kernels::{self, StreamInputs, StreamOptions};
use crate::links::LinkKind;
use crate::multigrid::MultiGrid;
use crate::program::{self, LevelTopo, OpKind, StepOp};
use crate::variant::Variant;

/// Kernel-name families for profiler breakdowns, one name per level up to
/// [`MAX_LEVELS`](crate::spec::MAX_LEVELS).
mod names {
    use crate::spec::MAX_LEVELS;

    pub const S: [&str; MAX_LEVELS] = ["S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7"];
    pub const SEO: [&str; MAX_LEVELS] = [
        "SEO0", "SEO1", "SEO2", "SEO3", "SEO4", "SEO5", "SEO6", "SEO7",
    ];
    pub const E: [&str; MAX_LEVELS] = ["E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7"];
    pub const O: [&str; MAX_LEVELS] = ["O0", "O1", "O2", "O3", "O4", "O5", "O6", "O7"];
    pub const C: [&str; MAX_LEVELS] = ["C0", "C1", "C2", "C3", "C4", "C5", "C6", "C7"];
    pub const A: [&str; MAX_LEVELS] = ["A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"];
    pub const CASE: [&str; MAX_LEVELS] = [
        "CASE0", "CASE1", "CASE2", "CASE3", "CASE4", "CASE5", "CASE6", "CASE7",
    ];
    pub const M: [&str; MAX_LEVELS] = ["M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7"];
    pub const R: [&str; MAX_LEVELS] = ["R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7"];
}

/// How [`Engine::step`] executes the step program.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Program order, one synchronization point between consecutive
    /// kernels.
    #[default]
    Eager,
    /// Wave-scheduled from the dependency graph: barriers only between
    /// waves (minimal synchronization, paper §V-C), launch overhead charged
    /// once per wave; each wave's kernels run in program order.
    Graph,
}

/// The multi-resolution LBM engine: grid stack + collision operators +
/// execution variant on a virtual GPU executor.
///
/// Build one with [`Engine::builder`]:
///
/// ```
/// # use lbm_core::{AllWalls, Engine, GridSpec, MultiGrid, Variant};
/// # use lbm_gpu::{DeviceModel, Executor};
/// # use lbm_lattice::{Bgk, D3Q19};
/// # use lbm_sparse::Box3;
/// # let omega0 = 1.6;
/// # let spec = GridSpec::uniform(Box3::from_dims(8, 8, 8));
/// # let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, omega0);
/// # let exec = Executor::with_threads(DeviceModel::a100_40gb(), 1);
/// let mut eng = Engine::builder(grid)
///     .collision(Bgk::new(omega0))
///     .variant(Variant::FusedAll)
///     .build(exec);
/// eng.run(2);
/// assert_eq!(eng.coarse_steps(), 2);
/// ```
pub struct Engine<T: Real, V: VelocitySet, C> {
    /// The level stack.
    pub grid: MultiGrid<T, V>,
    /// The virtual GPU.
    pub exec: Executor,
    /// The execution variant (fusion configuration).
    pub variant: Variant,
    ops: Vec<C>,
    coarse_steps: u64,
    explosion_cells: Vec<u64>,
    coalesce_cells: Vec<u64>,
    exec_mode: ExecMode,
    /// Whether the Accumulate scatter runs through the deterministic
    /// staging-slab + ordered-merge path (DESIGN.md §10). Defaults to
    /// `exec.thread_count() > 1` — the serial atomic scatter is only
    /// order-deterministic on one thread.
    staged: bool,
    /// Cached wave schedule, keyed by the variant it was built for. The
    /// wave partition is invariant under buffer parity, so one schedule
    /// serves every step.
    plan: Option<(Variant, Schedule)>,
    /// Periodic health checks ([`EngineBuilder::health`]); `None` = off.
    health: Option<HealthGuard>,
    /// The rollback policy's recovery point: raw copies of the state at
    /// the last healthy check (`None` before the first one).
    recovery: Option<RecoveryPoint<T>>,
    /// Every health incident recorded so far.
    health_events: Vec<HealthEvent>,
    /// Rollbacks performed so far (bounded by the policy's budget).
    rollbacks: u32,
    /// Set when a policy decided the engine must stop; [`Engine::run`]
    /// breaks out, [`Engine::step`] becomes a no-op.
    halted: bool,
}

/// Fluent builder for [`Engine`] (start with [`Engine::builder`]). The
/// setters may be called in any order; [`EngineBuilder::collision`]
/// supplies the collision operator, and only a builder holding one can
/// [`EngineBuilder::build`].
#[must_use = "finish the builder with .collision(op).build(exec)"]
pub struct EngineBuilder<T: Real, V: VelocitySet, C = ()> {
    grid: MultiGrid<T, V>,
    op: C,
    variant: Variant,
    exec_mode: ExecMode,
    staged: Option<bool>,
    health: Option<HealthGuard>,
}

impl<T: Real, V: VelocitySet> Engine<T, V, ()> {
    /// Starts building an engine over `grid`. Defaults: the paper's most
    /// optimized variant ([`Variant::FusedAll`]) and eager execution.
    pub fn builder(grid: MultiGrid<T, V>) -> EngineBuilder<T, V> {
        EngineBuilder {
            grid,
            op: (),
            variant: Variant::FusedAll,
            exec_mode: ExecMode::Eager,
            staged: None,
            health: None,
        }
    }
}

impl<T: Real, V: VelocitySet, C> EngineBuilder<T, V, C> {
    /// Sets the execution variant (fusion configuration).
    pub fn variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Sets the execution mode (eager or wave-scheduled graph execution).
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Overrides the Accumulate path: `true` forces the deterministic
    /// staging-slab + ordered-merge split, `false` forces the serial atomic
    /// scatter. Default: staged iff the executor runs more than one thread.
    pub fn staged_accumulate(mut self, on: bool) -> Self {
        self.staged = Some(on);
        self
    }

    /// Installs periodic health checks: every `guard.check_every()` coarse
    /// steps the engine scans for non-finite populations and excessive flow
    /// speeds and applies the guard's [`HealthPolicy`].
    pub fn health(mut self, guard: HealthGuard) -> Self {
        self.health = Some(guard);
        self
    }

    /// Chooses the collision model, keeping every other setting. Each level
    /// gets an instance rebuilt with its own ω (paper Eq. 9 — the grid
    /// carries per-level rates from `omega0`).
    pub fn collision<D: Collision<T, V>>(self, op: D) -> EngineBuilder<T, V, D> {
        EngineBuilder {
            grid: self.grid,
            op,
            variant: self.variant,
            exec_mode: self.exec_mode,
            staged: self.staged,
            health: self.health,
        }
    }
}

impl<T: Real, V: VelocitySet, C: Collision<T, V>> EngineBuilder<T, V, C> {
    /// Assembles the engine on the given executor (its pool width is the
    /// engine's kernel thread count).
    pub fn build(self, exec: Executor) -> Engine<T, V, C> {
        let grid = self.grid;
        let staged = self.staged.unwrap_or(exec.thread_count() > 1);
        let ops = grid
            .levels
            .iter()
            .map(|lv| self.op.with_omega(T::from_f64(lv.omega)))
            .collect();
        let count_links = |pred: &dyn Fn(&LinkKind<T>) -> bool| -> Vec<u64> {
            grid.levels
                .iter()
                .map(|lv| {
                    lv.links
                        .iter()
                        .flat_map(|b| &b.cells)
                        .filter(|c| c.links.iter().any(|l| pred(&l.kind)))
                        .count() as u64
                })
                .collect()
        };
        let explosion_cells = count_links(&|k| matches!(k, LinkKind::Explosion { .. }));
        let coalesce_cells = count_links(&|k| matches!(k, LinkKind::Coalesce { .. }));
        Engine {
            grid,
            exec,
            variant: self.variant,
            ops,
            coarse_steps: 0,
            explosion_cells,
            coalesce_cells,
            exec_mode: self.exec_mode,
            staged,
            plan: None,
            health: self.health,
            recovery: None,
            health_events: Vec::new(),
            rollbacks: 0,
            halted: false,
        }
    }
}

impl<T: Real, V: VelocitySet, C: Collision<T, V>> Engine<T, V, C> {
    /// Whether the deterministic staged Accumulate path is active.
    pub fn staged_accumulate(&self) -> bool {
        self.staged
    }

    /// The executor's kernel-execution thread count.
    pub fn thread_count(&self) -> usize {
        self.exec.thread_count()
    }

    /// The current execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Coarsest-level steps taken so far.
    pub fn coarse_steps(&self) -> u64 {
        self.coarse_steps
    }

    /// Lattice-updates per coarsest step: `Σ_L V_L · 2^L` (paper §VI MLUPS
    /// numerator; ghost cells excluded).
    pub fn work_per_coarse_step(&self) -> u64 {
        self.grid
            .levels
            .iter()
            .enumerate()
            .map(|(l, lv)| (lv.real_cells as u64) << l)
            .sum()
    }

    /// The interface topology of each level, as the step-program generator
    /// sees it (derived from the assembled link tables).
    pub fn topology(&self) -> Vec<LevelTopo> {
        let levels = &self.grid.levels;
        (0..levels.len())
            .map(|l| LevelTopo {
                ghosts: levels[l].ghost_cells > 0,
                coarse_ghosts: l > 0 && levels[l - 1].ghost_cells > 0,
                explodes: self.explosion_cells[l] > 0,
                coalesces: self.coalesce_cells[l] > 0,
            })
            .collect()
    }

    /// The launch program of the *next* coarse step (current buffer
    /// parities), in program order.
    pub fn step_program(&self) -> Vec<StepOp> {
        let halves: Vec<u8> = self
            .grid
            .levels
            .iter()
            .map(|lv| lv.f.parity() as u8)
            .collect();
        program::step_ops(&self.topology(), self.variant, &halves, self.staged)
    }

    /// The dependency graph and wave schedule of the next coarse step —
    /// the graph [`ExecMode::Graph`] actually executes (Fig. 2 counts come
    /// from here).
    pub fn step_task_graph(&self) -> (TaskGraph, Schedule) {
        let topo = self.topology();
        let halves: Vec<u8> = self
            .grid
            .levels
            .iter()
            .map(|lv| lv.f.parity() as u8)
            .collect();
        let g = graphs::step_graph_for(&topo, self.variant, &halves, self.staged);
        let s = Schedule::from_graph(&g);
        (g, s)
    }

    /// Advances the coarsest level by one time step (finer levels advance
    /// `2^L` substeps).
    pub fn step(&mut self) {
        if self.halted {
            return;
        }
        let ops = self.step_program();
        match self.exec_mode {
            ExecMode::Eager => {
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        self.exec.sync();
                    }
                    self.run_op(op);
                }
            }
            ExecMode::Graph => {
                // The cached schedule is taken out for the loop so `run_op`
                // can borrow the engine mutably (rebuilt only when the
                // variant changed). Each wave's nodes run in ascending node
                // order on this thread, every kernel block-parallel on the
                // executor's pool.
                let schedule = match self.plan.take() {
                    Some((v, s)) if v == self.variant => s,
                    _ => self.step_task_graph().1,
                };
                for (w, wave) in schedule.waves.iter().enumerate() {
                    if w > 0 {
                        self.exec.sync();
                    }
                    self.exec.begin_wave();
                    for &ni in wave {
                        with_span_context(w as u32, || self.run_op(&ops[ni]));
                    }
                }
                self.plan = Some((self.variant, schedule));
            }
        }

        // The program addresses halves explicitly, so only the *net* parity
        // change is applied: level 0 swapped once, deeper levels 2^L times
        // (even — no net change).
        self.grid.levels[0].f.swap();
        self.coarse_steps += 1;

        if let Some(guard) = self.health {
            if self.coarse_steps.is_multiple_of(guard.check_every()) {
                self.health_check(guard);
            }
        }
    }

    /// Runs one due health check and applies the guard's policy.
    fn health_check(&mut self, guard: HealthGuard) {
        let probe = self.grid.probe();
        let cause = if !probe.finite {
            Some(HealthCause::NonFinite)
        } else {
            let speed = probe.max_speed();
            (speed > guard.speed_bound()).then_some(HealthCause::SpeedExceeded(speed))
        };
        let Some(cause) = cause else {
            // Healthy. Under the rollback policy this state is the new
            // recovery point.
            if matches!(
                guard.configured_policy(),
                HealthPolicy::RollbackToLastCheckpoint(_)
            ) {
                match &mut self.recovery {
                    Some(point) => point.refresh(&self.grid, self.coarse_steps),
                    None => {
                        self.recovery = Some(RecoveryPoint::capture(&self.grid, self.coarse_steps))
                    }
                }
            }
            return;
        };
        let step = self.coarse_steps;
        let action = match (guard.configured_policy(), &self.recovery) {
            (HealthPolicy::Abort, _) => {
                self.halted = true;
                HealthAction::Aborted
            }
            (HealthPolicy::Report, _) => HealthAction::Reported,
            (HealthPolicy::RollbackToLastCheckpoint(budget), Some(point))
                if self.rollbacks < budget =>
            {
                self.coarse_steps = point.apply(&mut self.grid);
                self.rollbacks += 1;
                HealthAction::RolledBack {
                    to_step: self.coarse_steps,
                }
            }
            (HealthPolicy::RollbackToLastCheckpoint(_), _) => {
                self.halted = true;
                HealthAction::Halted
            }
        };
        self.health_events.push(HealthEvent {
            step,
            cause,
            action,
        });
    }

    /// Runs `n` coarsest steps, stopping early if a health policy halts the
    /// engine (see [`Engine::halted`]).
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            if self.halted {
                break;
            }
            self.step();
        }
    }

    /// True once a health policy has halted the engine. A halted engine
    /// stays restorable: [`Engine::restore`] (typically after
    /// [`Engine::set_omega0`]) clears the halt and resumes stepping.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Every health incident recorded so far, oldest first.
    pub fn health_events(&self) -> &[HealthEvent] {
        &self.health_events
    }

    /// Serializes the engine's full simulation state — all levels, both
    /// double-buffer halves, flags, accumulators, parity and the step
    /// count — into a self-contained checksummed blob (see
    /// [`crate::checkpoint`] for the format).
    pub fn checkpoint(&self) -> Vec<u8> {
        checkpoint::save(&self.grid, self.coarse_steps)
    }

    /// Restores a snapshot produced by [`Engine::checkpoint`], resetting the
    /// step count to the snapshot's and clearing any health halt. On `Err`
    /// the engine is untouched. The cached wave schedule survives: the wave
    /// partition is parity-invariant.
    pub fn restore(&mut self, snapshot: &[u8]) -> Result<(), CheckpointError> {
        let steps = checkpoint::restore(&mut self.grid, snapshot)?;
        self.coarse_steps = steps;
        self.halted = false;
        Ok(())
    }

    /// Re-derives every level's relaxation rate from a new `omega0` (paper
    /// Eq. 9) and rebuilds the per-level collision operators to match — the
    /// standard post-rollback adjustment: restore the last good state, drop
    /// `omega0` toward stability, resume.
    pub fn set_omega0(&mut self, omega0: f64) {
        for (l, level) in self.grid.levels.iter_mut().enumerate() {
            level.omega = omega_at_level(omega0, l as u32);
        }
        self.ops = self
            .grid
            .levels
            .iter()
            .zip(&self.ops)
            .map(|(lv, op)| op.with_omega(T::from_f64(lv.omega)))
            .collect();
    }

    /// Runs `n` coarsest steps and returns the wall-clock duration.
    pub fn run_timed(&mut self, n: usize) -> Duration {
        let t0 = Instant::now();
        self.run(n);
        t0.elapsed()
    }

    /// Measured MLUPS for `n` steps taking `wall` time.
    pub fn mlups_measured(&self, n: u64, wall: Duration) -> f64 {
        (self.work_per_coarse_step() * n) as f64 / wall.as_micros().max(1) as f64
    }

    /// Modeled-device MLUPS over everything profiled since the last
    /// profiler reset (assumes the profiler only saw `steps` steps of this
    /// engine).
    pub fn mlups_modeled(&self, steps: u64) -> f64 {
        let us = self.exec.profiler().modeled_us(self.exec.device());
        (self.work_per_coarse_step() * steps) as f64 / us.max(1e-9)
    }
}

impl<T: Real, V: VelocitySet, C: Collision<T, V>> Engine<T, V, C> {
    /// Executes one launch record of the step program. The op's level is
    /// borrowed mutably and the coarser one shared (`split_at_mut`), and the
    /// level's halves split into the op's source and destination
    /// ([`lbm_sparse::DoubleBuffer::pair_mut`]), so the borrow checker
    /// proves every write disjoint from every read.
    fn run_op(&mut self, op: &StepOp) {
        let exec = &self.exec;
        let l = op.level;
        let (coarser, rest) = self.grid.levels.split_at_mut(l);
        let lv = &mut rest[0];
        let coarse = coarser.last();
        let (src, dst) = lv.f.pair_mut(op.src_half as usize);
        let (real, ghost) = (lv.real_cells as u64, lv.ghost_cells as u64);
        let accum = coarse.filter(|c| c.ghost_cells > 0).map(|c| {
            let sink = match (self.staged, &lv.stage) {
                // Deterministic parallel path: plain stores into the
                // level's private slab; the AccMerge op folds it later.
                (true, Some(st)) => kernels::AccSink::Staged {
                    slab: &st.slab,
                    dense: st.owners.dense(),
                },
                // Serial reference path: atomic scatter straight into the
                // coarse accumulators.
                _ => kernels::AccSink::Atomic(&c.acc),
            };
            kernels::AccTables {
                sink,
                targets: &lv.acc_target,
                dirs: &lv.acc_dirs,
            }
        });
        let inputs = StreamInputs {
            grid: &lv.grid,
            flags: &lv.flags,
            all_real: &lv.all_real,
            links: &lv.links,
            src,
            acc: &lv.acc,
            coarse_src: coarse.map(|c| c.f.half(op.coarse_half as usize)),
            offsets: &lv.offsets,
        };

        match op.kind {
            OpKind::AccGather => {
                let c = coarse.expect("AccGather needs a coarser level");
                kernels::accumulate_gather::<T, V>(
                    exec,
                    names::A[l],
                    &c.grid,
                    &c.gather,
                    &c.acc,
                    src,
                    c.ghost_cells as u64,
                );
            }
            OpKind::Stream {
                explosion,
                coalesce,
                accumulate,
            } => {
                let name = if explosion || coalesce {
                    names::SEO[l]
                } else {
                    names::S[l]
                };
                kernels::stream::<T, V>(
                    exec,
                    name,
                    inputs,
                    dst,
                    StreamOptions {
                        explosion,
                        coalesce,
                    },
                    if accumulate { accum } else { None },
                    real,
                );
            }
            OpKind::Explosion => {
                let cells = self.explosion_cells[l];
                kernels::explosion::<T, V>(exec, names::E[l], inputs, dst, cells);
            }
            OpKind::Coalesce => {
                let cells = self.coalesce_cells[l];
                kernels::coalesce::<T, V>(exec, names::O[l], inputs, dst, cells);
            }
            OpKind::Collide => {
                kernels::collide(
                    exec,
                    names::C[l],
                    &lv.grid,
                    &lv.flags,
                    &self.ops[l],
                    dst,
                    real,
                );
            }
            OpKind::Fused { accumulate } => {
                kernels::fused_stream_collide(
                    exec,
                    names::CASE[l],
                    inputs,
                    &self.ops[l],
                    dst,
                    if accumulate { accum } else { None },
                    real,
                );
            }
            OpKind::AccMerge => {
                // Skip when the level has no accumulating cells (then the
                // scatter deposited nothing and there is no slab).
                if let (Some(c), Some(st)) = (coarse, &lv.stage) {
                    kernels::accumulate_merge(exec, names::M[l], st, &c.acc);
                }
            }
            OpKind::Reset => {
                kernels::reset_accumulators(
                    exec,
                    names::R[l],
                    &lv.grid,
                    &lv.gather,
                    &lv.acc,
                    ghost,
                    V::Q,
                );
            }
        }
    }
}
