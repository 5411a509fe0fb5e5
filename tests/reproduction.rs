//! The paper's headline claims as executable assertions (shape, not
//! absolute numbers — see DESIGN.md §2 and EXPERIMENTS.md).

mod common;

use lbm_refinement::core::{
    alg1_graph, memory_report, step_graph, AllWalls, GridSpec, MultiGrid, Variant,
};
use lbm_refinement::gpu::{max_uniform_cube, DeviceModel, Executor, MemoryPlan};
use lbm_refinement::lattice::{VelocitySet, D3Q19, D3Q27};
use lbm_refinement::problems::airplane::{AirplaneConfig, AirplaneFlow};
use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};
use lbm_refinement::problems::tunnel_boundary;
use lbm_refinement::sparse::Box3;

/// Fig. 2: "our aggressive kernel fusion (around three times fewer
/// kernels)".
#[test]
fn fusion_cuts_kernels_about_three_times() {
    for levels in 2..=4u32 {
        let baseline = step_graph(levels, Variant::ModifiedBaseline).kernel_count() as f64;
        let ours = step_graph(levels, Variant::FusedAll).kernel_count() as f64;
        let ratio = baseline / ours;
        assert!(
            (2.2..3.5).contains(&ratio),
            "levels {levels}: kernel ratio {ratio}"
        );
        // The original distributed Algorithm 1 also exceeds ours.
        assert!(alg1_graph(levels).kernel_count() as f64 / ours > 1.5);
    }
}

/// Fig. 2: fusion also reduces synchronization points.
///
/// Sync counts are the *wave-scheduled* minimum barriers (the graphs and
/// the graph-mode executor share the `Schedule::from_graph` wave
/// partition). The minimal-sync schedule already overlaps the unfused
/// baseline's per-level Accumulate/Stream kernels into shared waves, so
/// fusion's remaining sync margin is strict but not the ≥2x that a
/// serial-launch count would show; the ~3x kernel and traffic cuts above
/// carry the headline.
#[test]
fn fusion_cuts_synchronization() {
    for levels in 2..=4u32 {
        let b = step_graph(levels, Variant::ModifiedBaseline).sync_count();
        let o = step_graph(levels, Variant::FusedAll).sync_count();
        assert!(o < b, "levels {levels}: syncs {o} vs {b}");
    }
}

/// §IV-A: the coarse-side ghost layer uses 1/3 of the baseline's memory.
#[test]
fn ghost_memory_is_one_third_of_baseline() {
    let flow = SphereFlow::new(SphereConfig::for_size([36, 24, 36]));
    let grid = MultiGrid::<f64, D3Q27>::build(
        flow.spec(),
        &tunnel_boundary(flow.config.size, flow.config.levels, flow.config.u_inlet),
        flow.omega0,
    );
    let rep = memory_report::report(&grid);
    assert!((rep.ghost_ratio() - 1.0 / 3.0).abs() < 1e-12);
    assert!(rep.ghost_bytes > 0);
}

/// §IV-A in the engine itself: the ghost bytes `memory_report` counts are
/// the accumulator bytes the levels allocate, `q` slots per ghost cell
/// found by its flags, and the finest level, which has no ghosts,
/// allocates none.
fn assert_allocates_the_ghost_layer<V: VelocitySet>(grid: &MultiGrid<f64, V>, what: &str) {
    let allocated: usize = grid.levels.iter().map(|lv| lv.acc.heap_bytes()).sum();
    let ghosts: usize = grid.levels.iter().map(|lv| lv.iter_ghost().count()).sum();
    assert_eq!(memory_report::report(grid).ghost_bytes, allocated, "{what}");
    assert_eq!(allocated, ghosts * V::Q * 8, "{what}");
    assert!(ghosts > 0, "{what}: no interface");
    let finest = grid.levels.last().unwrap();
    assert!(finest.acc.is_empty() && finest.ghost_cells == 0, "{what}: finest level");
}

#[test]
fn engines_allocate_exactly_the_ghost_layer_they_count() {
    let flow = SphereFlow::new(SphereConfig::scaled_small());
    let sphere = MultiGrid::<f64, D3Q27>::build(
        flow.spec(),
        &tunnel_boundary(flow.config.size, flow.config.levels, flow.config.u_inlet),
        flow.omega0,
    );
    assert_allocates_the_ghost_layer(&sphere, "scaled sphere");

    let spec = GridSpec::new(2, Box3::from_dims(64, 64, 64), |l, p| {
        l == 0 && (8..24).contains(&p.x) && (8..24).contains(&p.y) && (8..24).contains(&p.z)
    });
    let boxed = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.6);
    assert_allocates_the_ghost_layer(&boxed, "64³ 2-level box");

    let cavity = common::refined_cavity(48);
    let grid = MultiGrid::<f64, D3Q19>::build(cavity.spec(), &cavity.boundary(), cavity.omega0);
    assert_allocates_the_ghost_layer(&grid, "refined cavity n=48");
}

/// Only the modified baseline launches the coarse-initiated gather
/// Accumulate (Fig. 4b), so only its engine keeps the gather lists
/// `MultiGrid::build` makes; every other engine drops them at assembly.
#[test]
fn only_the_gather_accumulate_engine_keeps_the_gather_lists() {
    let flow = SphereFlow::new(SphereConfig::scaled_small());
    let entries = |grid: &MultiGrid<f64, D3Q27>| -> Vec<usize> {
        grid.levels.iter().map(|lv| lv.gather.all().len()).collect()
    };
    let built = MultiGrid::<f64, D3Q27>::build(
        flow.spec(),
        &tunnel_boundary(flow.config.size, flow.config.levels, flow.config.u_inlet),
        flow.omega0,
    );
    assert!(entries(&built).iter().sum::<usize>() > 0);
    let engine = |variant| flow.engine(variant, Executor::with_threads(DeviceModel::a100_40gb(), 1));
    let baseline = engine(Variant::ModifiedBaseline);
    assert_eq!(entries(&baseline.grid), entries(&built), "modified baseline");
    let fused = engine(Variant::FusedAll);
    assert_eq!(entries(&fused.grid), vec![0; built.levels.len()], "fused");
}

/// Table I shape: the fused variant wins on the modeled device, and its
/// margin shrinks as the domain grows (interface work amortizes, §VI-B).
#[test]
fn table1_speedup_shape() {
    let mut speedups = Vec::new();
    for size in [[36usize, 24, 36], [68, 48, 68]] {
        let base = lbm_bench_shim::sphere_modeled_mlups(size, Variant::ModifiedBaseline);
        let ours = lbm_bench_shim::sphere_modeled_mlups(size, Variant::FusedAll);
        let s = ours / base;
        assert!(s > 1.5, "size {size:?}: modeled speedup {s}");
        speedups.push(s);
    }
    assert!(
        speedups[1] < speedups[0],
        "speedup must decrease with size: {speedups:?}"
    );
}

/// Fig. 9 shape: each added fusion improves the modeled device time.
#[test]
fn fig9_modeled_mlups_is_monotone() {
    let size = [36usize, 24, 36];
    let mut prev = 0.0;
    for variant in Variant::FIG9 {
        let m = lbm_bench_shim::sphere_modeled_mlups(size, variant);
        assert!(
            m > prev * 0.98, // tiny slack for counter noise
            "{}: modeled {m} did not improve on {prev}",
            variant.name()
        );
        prev = m;
    }
}

/// §VI-B / Fig. 1: at paper scale the uniform finest grid cannot fit in
/// 40 GB (pure arithmetic) while the refinement bands shrink the footprint
/// by an order of magnitude (checked on the scaled geometry, which has the
/// same band-to-domain proportions).
#[test]
fn airplane_capacity_claim() {
    let device = DeviceModel::a100_40gb();

    // Paper-size uniform domain: arithmetic only.
    let full = AirplaneConfig::paper_scale();
    let uniform_cells = (full.size[0] * full.size[1] * full.size[2]) as u64;
    let mut uniform = MemoryPlan::new();
    uniform.push_populations("uniform", uniform_cells, 27, 8, 1);
    assert!(!uniform.fits(&device), "paper-size uniform grid must exceed 40 GB");

    // Paper's stated AA-method bound ≈ 794³.
    let side = max_uniform_cube(&device, 19, 4, 1);
    assert!((780..=835).contains(&side), "AA bound {side}");

    // Scaled geometry: refined layout is far below the uniform one.
    let flow = AirplaneFlow::new(AirplaneConfig::scaled_small());
    let counts = flow.census();
    let refined = AirplaneFlow::memory_plan(&counts);
    let uniform_scaled = flow.uniform_plan();
    let ratio = refined.total_bytes() as f64 / uniform_scaled.total_bytes() as f64;
    assert!(
        ratio < 0.45,
        "refined/uniform memory ratio {ratio} not a big-enough win"
    );
}

/// Helper: modeled MLUPS for a sphere case with minimal steps.
mod lbm_bench_shim {
    use lbm_refinement::core::Variant;
    use lbm_refinement::gpu::{DeviceModel, Executor};
    use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};

    pub fn sphere_modeled_mlups(size: [usize; 3], variant: Variant) -> f64 {
        let flow = SphereFlow::new(SphereConfig::for_size(size));
        let mut eng = flow.engine(variant, Executor::new(DeviceModel::a100_40gb()));
        eng.run(1);
        eng.exec.profiler().reset();
        eng.run(3);
        eng.mlups_modeled(3)
    }
}
