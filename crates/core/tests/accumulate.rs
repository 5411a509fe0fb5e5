//! Regression pins for the in-place Accumulate (DESIGN.md §10): every pool
//! width runs the one program, which launches no merge kernel, declares
//! the paper's atomic update of the coarse accumulators, and lands on the
//! same bits.

use lbm_core::program::OpKind;
use lbm_core::{AllWalls, Engine, ExecMode, GridSpec, MultiGrid};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, VelocitySet, D3Q19};
use lbm_sparse::Box3;

type Eng = Engine<f64, D3Q19, Bgk<f64>>;

/// Two-level nested box with a seeded, spatially varying state, on a pool
/// of `threads` threads.
fn engine(threads: usize, mode: ExecMode) -> Eng {
    let spec = GridSpec::new(2, Box3::from_dims(24, 24, 24), |l, p| {
        l == 0 && (3..9).contains(&p.x) && (3..9).contains(&p.y) && (3..9).contains(&p.z)
    });
    let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.6);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(1.6))
        .exec_mode(mode)
        .build(Executor::with_threads(DeviceModel::a100_40gb(), threads));
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let k = (l as i32 + 3 * p.x + 5 * p.y + 7 * p.z) as f64;
            [
                0.02 * (k * 0.37).sin(),
                0.015 * (k * 0.61).cos(),
                0.01 * (k * 0.23).sin(),
            ]
        },
    );
    eng
}

fn digest(eng: &Eng) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for level in &eng.grid.levels {
        let f = level.f.src();
        for (r, _) in level.grid.iter_active() {
            for i in 0..D3Q19::Q {
                for b in f.get(r.block, i, r.cell).to_bits().to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

#[test]
fn no_merge_op_at_any_width() {
    let program = engine(1, ExecMode::Eager).step_program();
    for mode in [ExecMode::Eager, ExecMode::Graph] {
        for threads in [1usize, 2, 4] {
            let mut eng = engine(threads, mode);
            let what = format!("{mode:?}, {threads} threads");
            assert_eq!(eng.step_program(), program, "{what}: the program");
            // The fused scatter declares the coarse accumulators as an
            // atomic update, as on the GPU.
            let (graph, _) = eng.step_task_graph();
            let scatters = graph.nodes().iter().filter(|n| !n.atomics.is_empty());
            assert_eq!(scatters.count(), 2, "{what}: one per fine substep");
            eng.run(2);
            let per = eng.exec.profiler().per_kernel();
            assert!(
                per.iter().all(|(name, _)| !name.starts_with('M')),
                "{what}: a merge kernel launched"
            );
            assert!(per.iter().any(|(name, _)| *name == "CASE1"), "{what}");
        }
    }
    let accumulating = program
        .iter()
        .filter(|o| o.kind == OpKind::Fused { accumulate: true });
    assert_eq!(accumulating.count(), 2);
}

#[test]
fn every_width_and_mode_produces_identical_bits() {
    let mut reference = engine(1, ExecMode::Eager);
    reference.run(4);
    for mode in [ExecMode::Eager, ExecMode::Graph] {
        for threads in [1usize, 2, 4] {
            let mut eng = engine(threads, mode);
            eng.run(4);
            assert_eq!(
                digest(&eng),
                digest(&reference),
                "{mode:?}, {threads} threads"
            );
        }
    }
}
