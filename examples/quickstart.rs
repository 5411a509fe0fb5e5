//! Quickstart: build a two-level refined grid, run the paper's most
//! optimized variant (Fig. 4f) for a few hundred coarse steps, and print
//! performance and physics summaries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lbm_refinement::core::{
    kernels, memory_report, AllWalls, Engine, GridSpec, MultiGrid, Variant,
};
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Bgk, D3Q19};
use lbm_refinement::problems::diagnostics;
use lbm_refinement::sparse::{Box3, Coord};

fn main() {
    // A 64³ finest-level box whose central region is refined 2×: the
    // smallest complete demonstration of the multi-resolution engine.
    let spec = GridSpec::new(2, Box3::from_dims(64, 64, 64), |level, p| {
        level == 0 && (8..24).contains(&p.x) && (8..24).contains(&p.y) && (8..24).contains(&p.z)
    });
    let omega0 = 1.6;
    let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, omega0);

    println!("== grid ==");
    for (l, level) in grid.levels.iter().enumerate() {
        println!(
            "level {l}: {:>8} real cells, {:>6} ghost cells, omega = {:.4}",
            level.real_cells, level.ghost_cells, level.omega
        );
    }
    let mem = memory_report::report(&grid);
    println!(
        "population memory: {:.1} MiB; ghost accumulators: {:.1} KiB (baseline would need {:.1} KiB)",
        mem.population_bytes as f64 / (1 << 20) as f64,
        mem.ghost_bytes as f64 / 1024.0,
        mem.baseline_ghost_bytes as f64 / 1024.0,
    );

    let mut engine = Engine::builder(grid)
        .collision(Bgk::new(omega0))
        .variant(Variant::FusedAll)
        .build(Executor::new(DeviceModel::a100_40gb()));

    // A gentle vortex-like initial condition crossing the interface.
    engine.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let s = if l == 0 { 2.0 } else { 1.0 };
            let x = (p.x as f64 + 0.5) * s - 32.0;
            let y = (p.y as f64 + 0.5) * s - 32.0;
            let r2 = x * x + y * y;
            let w = 0.05 * (-r2 / 200.0).exp();
            [-w * y / 16.0, w * x / 16.0, 0.0]
        },
    );

    let mass0 = engine.grid.total_mass();
    let ke0 = diagnostics::kinetic_energy(&engine.grid);
    let steps = 200;
    let wall = engine.run_timed(steps);

    println!("\n== run ==");
    println!("coarse steps:        {steps}");
    println!("wall time:           {:.3} s", wall.as_secs_f64());
    println!(
        "measured MLUPS:      {:.1}",
        engine.mlups_measured(steps as u64, wall)
    );
    println!("collide lane ISA:    {}", kernels::lane_isa());
    println!(
        "modeled A100 MLUPS:  {:.1}",
        engine.mlups_modeled(steps as u64)
    );
    let total = engine.exec.profiler().total();
    println!(
        "kernels launched:    {} ({} syncs, {:.2} GiB modeled traffic)",
        total.launches,
        engine.exec.profiler().syncs(),
        (total.bytes_read + total.bytes_written) as f64 / (1u64 << 30) as f64
    );

    println!("\n== physics ==");
    let mass1 = engine.grid.total_mass();
    println!(
        "mass drift:          {:+.3e} (relative)",
        (mass1 - mass0) / mass0
    );
    println!(
        "kinetic energy:      {:.3e} -> {:.3e} (viscous decay)",
        ke0,
        diagnostics::kinetic_energy(&engine.grid)
    );
    let (rho, u) = engine.grid.probe_finest(Coord::new(32, 32, 32)).unwrap();
    println!(
        "center cell:         rho = {rho:.6}, u = [{:+.5}, {:+.5}, {:+.5}]",
        u[0], u[1], u[2]
    );
    println!(
        "max speed:           {:.4} (lattice units; < 0.577 = stable)",
        engine.grid.max_speed()
    );
}
