//! Regression pins for the two Accumulate paths: the serial atomic scatter
//! (the pinned reference) and the deterministic staging-slab + ordered
//! merge (the parallel path, DESIGN.md §10). Both must stay wired — the
//! serial path is what the staged path is bit-pinned against, so neither
//! may silently rot.

use lbm_core::program::OpKind;
use lbm_core::{AllWalls, Engine, ExecMode, GridSpec, MultiGrid};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, VelocitySet, D3Q19};
use lbm_sparse::Box3;

type Eng = Engine<f64, D3Q19, Bgk<f64>>;

/// Two-level nested box with a seeded, spatially varying state.
fn engine(cfg: impl FnOnce(BuilderOf) -> BuilderOf) -> Eng {
    let spec = GridSpec::new(2, Box3::from_dims(24, 24, 24), |l, p| {
        l == 0 && (3..9).contains(&p.x) && (3..9).contains(&p.y) && (3..9).contains(&p.z)
    });
    let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.6);
    let b = Engine::builder(grid).collision(Bgk::new(1.6));
    let mut eng = cfg(b).build(Executor::with_threads(DeviceModel::a100_40gb(), 1));
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let k = (l as i32 + 3 * p.x + 5 * p.y + 7 * p.z) as f64;
            [0.02 * (k * 0.37).sin(), 0.015 * (k * 0.61).cos(), 0.01 * (k * 0.23).sin()]
        },
    );
    eng
}

type BuilderOf = lbm_core::EngineBuilder<f64, D3Q19, Bgk<f64>>;

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
fn serial_default_keeps_the_atomic_path_wired() {
    let eng = engine(|b| b);
    assert!(!eng.staged_accumulate(), "1 thread must default to serial");
    // The serial program has no merge ops: the scatter is the atomic sink.
    assert!(
        !eng.step_program().iter().any(|o| o.kind == OpKind::AccMerge),
        "serial program must not contain AccMerge"
    );
    // The fused scatter declares the accumulators as an atomic access.
    let (graph, _) = eng.step_task_graph();
    assert!(
        graph.nodes().iter().any(|n| !n.atomics.is_empty()),
        "serial graph must declare atomic accesses"
    );
}

#[test]
fn staged_engine_launches_merge_kernels() {
    let mut eng = engine(|b| b.staged_accumulate(true));
    assert!(eng.staged_accumulate());
    // The staged program splits every accumulate into scatter + merge, and
    // no kernel declares atomics anymore.
    let merges = eng
        .step_program()
        .iter()
        .filter(|o| o.kind == OpKind::AccMerge)
        .count();
    assert!(merges > 0, "staged program must contain AccMerge ops");
    let (graph, _) = eng.step_task_graph();
    assert!(
        graph.nodes().iter().all(|n| n.atomics.is_empty()),
        "staged graph must not declare atomic accesses"
    );
    // The merge kernels actually launch (profiler sees the M family).
    eng.run(1);
    let per = eng.exec.profiler().per_kernel();
    let m = per.iter().find(|(name, _)| *name == "M1");
    let (_, stats) = m.expect("staged run must launch M1");
    assert!(stats.launches > 0);
    assert!(stats.bytes_read > 0, "merge reads slab + accumulators");
}

#[test]
fn both_paths_produce_identical_bits() {
    let mut serial = engine(|b| b);
    let mut staged = engine(|b| b.staged_accumulate(true));
    serial.run(4);
    staged.run(4);
    assert_eq!(
        digest(&serial),
        digest(&staged),
        "staged merge must replay the serial scatter order bit-exactly"
    );
    // The serial engine never launched a merge kernel.
    assert!(
        !serial.exec.profiler().per_kernel().iter().any(|(n, _)| n.starts_with('M')),
        "serial run must not launch merge kernels"
    );
}

#[test]
fn staged_graph_mode_matches_staged_eager() {
    let mut eager = engine(|b| b.staged_accumulate(true));
    let mut graph = engine(|b| b.staged_accumulate(true).exec_mode(ExecMode::Graph));
    eager.run(3);
    graph.run(3);
    assert_eq!(digest(&eager), digest(&graph));
}
