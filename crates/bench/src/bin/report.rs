//! Regenerates every table and figure of the paper's evaluation (§VI).
//!
//! ```text
//! cargo run --release -p lbm-bench --bin report -- <experiment> [flags]
//! ```
//!
//! Experiments: `fig2`, `ghost`, `fig7`, `compare`, `uniform`, `table1`,
//! `fig9`, `fig1`, `structure`, or `all`. Sizes default to host-runnable
//! scales (DESIGN.md §2); `--paper-scale` where supported evaluates the
//! paper's full-size domains through the memory model.

use std::time::Instant;

use lbm_bench::{cavity_case, sphere_case, table1_row, time_engine};
use lbm_compare::PalabosLike;
use lbm_core::{alg1_graph, memory_report, step_graph, AllWalls, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::{max_uniform_cube, DeviceModel, Executor};
use lbm_lattice::{Bgk, D3Q19};
use lbm_problems::airplane::{AirplaneConfig, AirplaneFlow};
use lbm_problems::cavity::{Cavity, CavityConfig};
use lbm_problems::diagnostics;
use lbm_problems::sphere::{SphereConfig, SphereFlow};
use lbm_sparse::{Box3, Coord, SpaceFillingCurve};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    // Measured times depend on which instance of the collide sites ran.
    println!("collide lane ISA: {}", lbm_core::kernels::lane_isa());

    match what {
        "fig2" => fig2(),
        "ghost" => ghost(),
        "fig7" => fig7(),
        "compare" => compare(),
        "uniform" => uniform(),
        "table1" => table1(),
        "fig9" => fig9(),
        "fig1" => fig1(paper_scale),
        "structure" => structure(),
        "all" => {
            fig2();
            ghost();
            fig7();
            compare();
            uniform();
            table1();
            fig9();
            fig1(false);
            structure();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("choose from: fig2 ghost fig7 compare uniform table1 fig9 fig1 structure all");
            std::process::exit(2);
        }
    }
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Fig. 2: dependency-graph complexity, baseline vs ours.
fn fig2() {
    banner("Fig. 2 — kernels & synchronization per coarse step");
    println!(
        "{:>7} | {:>28} | {:>28} | {:>28} | ratio",
        "levels", "Algorithm 1 (original)", "modified baseline (4b)", "ours (4f)"
    );
    for levels in 2..=4u32 {
        let a = alg1_graph(levels);
        let b = step_graph(levels, Variant::ModifiedBaseline);
        let o = step_graph(levels, Variant::FusedAll);
        println!(
            "{:>7} | {:>16} k, {:>4} syncs | {:>16} k, {:>4} syncs | {:>16} k, {:>4} syncs | {:.2}x",
            levels,
            a.kernel_count(),
            a.sync_count(),
            b.kernel_count(),
            b.sync_count(),
            o.kernel_count(),
            o.sync_count(),
            b.kernel_count() as f64 / o.kernel_count() as f64
        );
    }
    let dir = std::env::temp_dir().join("lbm_report");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fig2_baseline.dot"), step_graph(3, Variant::ModifiedBaseline).to_dot("baseline")).unwrap();
    std::fs::write(dir.join("fig2_ours.dot"), step_graph(3, Variant::FusedAll).to_dot("ours")).unwrap();
    std::fs::write(dir.join("fig2_alg1.dot"), alg1_graph(3).to_dot("alg1")).unwrap();
    println!("DOT graphs written to {}", dir.display());
    println!("paper: \"around three times fewer kernels\" for the fused variant.");
}

/// §IV-A / Fig. 4: ghost-layer memory, ours vs baseline.
fn ghost() {
    banner("Ghost-layer memory (paper §IV-A: ours = 1/3 of baseline)");
    let flow = SphereFlow::new(SphereConfig::scaled_small());
    let grid = MultiGrid::<f64, lbm_lattice::D3Q27>::build(
        flow.spec(),
        &lbm_problems::tunnel_boundary(flow.config.size, flow.config.levels, flow.config.u_inlet),
        flow.omega0,
    );
    let rep = memory_report::report(&grid);
    for (l, (real, ghost)) in rep.cells.iter().enumerate() {
        println!("level {l}: {real:>9} real cells, {ghost:>7} ghost cells");
    }
    println!(
        "ghost memory ours:     {:>10.1} KiB",
        rep.ghost_bytes as f64 / 1024.0
    );
    println!(
        "ghost memory baseline: {:>10.1} KiB (4 fine layers)",
        rep.baseline_ghost_bytes as f64 / 1024.0
    );
    println!("ratio: {:.3} (paper: 1/3)", rep.ghost_ratio());
}

/// Fig. 7: Ghia validation (fast configuration; see the
/// `lid_driven_cavity` example for the full run).
fn fig7() {
    banner("Fig. 7 — lid-driven cavity vs Ghia et al. (1982), Re = 100");
    for (levels, n) in [(1u32, 64usize), (3, 64)] {
        let cavity = Cavity::new(CavityConfig {
            n_finest: n,
            levels,
            wall_band: 4,
            quasi_2d: true,
            depth: 4,
            ..CavityConfig::default()
        });
        let mut eng =
            cavity.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        let transit = cavity.transit_coarse_steps();
        let out = diagnostics::run_to_steady(&mut eng, transit, 2e-6, 120 * transit);
        assert!(!out.diverged, "fig7 cavity diverged at step {}", out.steps);
        let (u_err, v_err) = cavity.validate(&eng);
        println!(
            "N={n} levels={levels}: {} in {} coarse steps; \
             u rms={:.4} max={:.4}; v rms={:.4} max={:.4}",
            if out.converged { "converged" } else { "hit step cap" },
            out.steps,
            u_err.rms, u_err.max, v_err.rms, v_err.max
        );
    }
    println!("(multi-level error is set by the coarse core resolution; the");
    println!(" paper's 240-cell cavity keeps a 60-cell core — see EXPERIMENTS.md)");
}

/// §VI-A: Palabos-like and waLBerla-like comparison on the cavity.
fn compare() {
    banner("§VI-A — comparison against conventional implementations");
    let n = 48usize;
    let levels = 3u32;
    let steps = 20usize;

    // Ours (4f on the virtual GPU).
    let ours = cavity_case(
        n,
        levels,
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        2,
        steps,
    );

    // waLBerla-like: 2³ blocks, no fusion.
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: 4,
        quasi_2d: true,
        depth: 8,
        block_size: 2,
        ..CavityConfig::default()
    });
    let mut wal = cavity.engine(
        Variant::ModifiedBaseline,
        Executor::new(DeviceModel::a100_40gb()),
    );
    wal.run(2);
    wal.exec.profiler().reset();
    let wal_wall = wal.run_timed(steps);
    let wal_mlups = wal.mlups_measured(steps as u64, wal_wall);
    let wal_modeled = wal.mlups_modeled(steps as u64);

    // Palabos-like: dense serial multi-pass CPU code.
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: 4,
        quasi_2d: true,
        depth: 8,
        ..CavityConfig::default()
    });
    let mut pal = PalabosLike::<D3Q19>::new(cavity.spec(), cavity.boundary(), cavity.omega0);
    pal.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
    pal.run(2);
    let t0 = Instant::now();
    pal.run(steps);
    let pal_wall = t0.elapsed();
    let pal_mlups =
        (pal.work_per_coarse_step() * steps as u64) as f64 / pal_wall.as_micros().max(1) as f64;

    let per_iter = |wall: std::time::Duration| wall.as_secs_f64() / steps as f64;
    println!("{:<28} {:>12} {:>12} {:>14}", "implementation", "s/iteration", "MLUPS", "modeled MLUPS");
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>14.1}",
        "ours (4f)", per_iter(ours.wall), ours.measured_mlups, ours.modeled_mlups
    );
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>14.1}",
        "waLBerla-like (2^3, unfused)",
        per_iter(wal_wall),
        wal_mlups,
        wal_modeled
    );
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>14}",
        "Palabos-like (dense serial)", per_iter(pal_wall), pal_mlups, "n/a (CPU)"
    );
    println!(
        "speedup vs Palabos-like: {:.1}x measured on this host",
        ours.measured_mlups / pal_mlups
    );
    println!(
        "modeled-GPU ours vs measured-CPU Palabos-like: {:.0}x — the paper's \
         \"more than two orders of magnitude\" CPU-to-GPU claim",
        ours.modeled_mlups / pal_mlups
    );
    println!(
        "speedup vs waLBerla-like: {:.1}x measured, {:.1}x modeled (paper: ~100x)",
        ours.measured_mlups / wal_mlups,
        ours.modeled_mlups / wal_modeled
    );
}

/// §VI-A: refined vs uniform time-to-solution on the cavity.
fn uniform() {
    banner("§VI-A — grid refinement vs uniform grid, same physical time");
    let n = 48usize;
    let phys_fine_steps = 96usize; // fixed physical horizon in finest steps
    // Uniform: every step is a finest step.
    let uni = cavity_case(
        n,
        1,
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        2,
        phys_fine_steps,
    );
    // Refined: a coarse step covers 2^(L-1) finest steps.
    let levels = 3u32;
    let refined_steps = phys_fine_steps >> (levels - 1);
    let refined = cavity_case(
        n,
        levels,
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        1,
        refined_steps,
    );
    println!(
        "uniform:  {:>8.3} s wall, {:>10.2e} updates ({} fine steps)",
        uni.wall.as_secs_f64(),
        (uni.work_per_step * uni.steps) as f64,
        phys_fine_steps
    );
    println!(
        "refined:  {:>8.3} s wall, {:>10.2e} updates ({} coarse steps)",
        refined.wall.as_secs_f64(),
        (refined.work_per_step * refined.steps) as f64,
        refined_steps
    );
    println!(
        "time-to-solution ratio uniform/refined: {:.2}x (paper: 1.18x for their cavity)",
        uni.wall.as_secs_f64() / refined.wall.as_secs_f64()
    );
}

/// Table I: flow over sphere, baseline vs ours, three sizes.
fn table1() {
    banner("Table I — flow over sphere (scaled 1/8; KBC, D3Q27, 3 levels)");
    println!("columns: size | distribution x1e6 (finest first) | MLUPS");
    for size in SphereConfig::table1_sizes(8) {
        let base = sphere_case(size, Variant::ModifiedBaseline, 1, 6);
        let ours = sphere_case(size, Variant::FusedAll, 1, 6);
        println!("{}", table1_row(size, &base, &ours));
    }
    println!("paper speedups (272/544/816 sizes): 2.20 / 1.40 / 1.30 —");
    println!("speedup decreases with size as interface work amortizes (§VI-B).");
}

/// Fig. 9: fusion-configuration ablation.
fn fig9() {
    banner("Fig. 9 — impact of fusion configurations (flow over sphere)");
    let size = SphereConfig::table1_sizes(8)[0];
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10}",
        "configuration", "MLUPS", "modeled MLUPS", "launches/it", "syncs/it"
    );
    for variant in Variant::ALL {
        let r = sphere_case(size, variant, 1, 6);
        println!(
            "{:<22} {:>10.2} {:>14.1} {:>12.1} {:>10.1}",
            variant.name(),
            r.measured_mlups,
            r.modeled_mlups,
            r.launches_per_step(),
            r.syncs as f64 / r.steps as f64
        );
    }
}

/// §V data-structure ablation: space-filling-curve block ordering ×
/// memory block size (2³ is the waLBerla-like granularity) on a 64³ box
/// refined to 2 levels inside a sphere, BGK D3Q19, fused variant 4f.
fn structure() {
    banner("§V — block ordering × block size (sphere-refined 64³ box, 4f)");
    println!(
        "{:<8} {:>3} {:>10} {:>14}",
        "curve", "B", "MLUPS", "modeled MLUPS"
    );
    for curve in SpaceFillingCurve::ALL {
        for block in [2usize, 4, 8, 16] {
            let spec = GridSpec::new(2, Box3::from_dims(64, 64, 64), |l, p| {
                l == 0 && (p - Coord::new(16, 16, 16)).norm2() < 121.0
            })
            .with_curve(curve)
            .with_block_size(block);
            let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.6);
            let mut eng = Engine::builder(grid)
                .collision(Bgk::new(1.6))
                .variant(Variant::FusedAll)
                .build(Executor::new(DeviceModel::a100_40gb()));
            eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.02, 0.0, 0.0]);
            let r = time_engine(format!("{} B={block}", curve.name()), &mut eng, 1, 4);
            println!(
                "{:<8} {:>3} {:>10.2} {:>14.1}",
                curve.name(),
                block,
                r.measured_mlups,
                r.modeled_mlups
            );
        }
    }
}

/// Fig. 1 / §VI-B: airplane-tunnel capacity claim.
fn fig1(paper_scale: bool) {
    banner("Fig. 1 / §VI-B — airplane wind-tunnel memory capacity");
    let device = DeviceModel::a100_40gb();
    let cfg = if paper_scale {
        AirplaneConfig::paper_scale()
    } else {
        AirplaneConfig::scaled_small()
    };
    println!(
        "domain {}×{}×{} finest, {} levels{}",
        cfg.size[0],
        cfg.size[1],
        cfg.size[2],
        cfg.levels,
        if paper_scale { " (paper scale)" } else { " (scaled; pass --paper-scale for 1596×840×840)" }
    );
    let flow = AirplaneFlow::new(cfg);
    let t0 = Instant::now();
    let (refined, uniform, refined_fits, uniform_fits) = flow.capacity_claim(&device);
    println!("octree census took {:.1} s", t0.elapsed().as_secs_f64());
    println!("\nrefined layout:\n{refined}");
    println!("uniform finest (AA single buffer):\n{uniform}");
    println!("refined fits 40 GB: {refined_fits}; uniform fits 40 GB: {uniform_fits}");
    println!(
        "largest uniform cube (AA, f32): {}³ — paper: ≈794³",
        max_uniform_cube(&device, 19, 4, 1)
    );
}
