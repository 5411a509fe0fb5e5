//! The paper's headline experiment (Fig. 1, §VI-B): an airplane in a
//! 1596×840×840 wind tunnel that only fits on a single 40 GB GPU thanks to
//! grid refinement.
//!
//! ```text
//! cargo run --release --example wind_tunnel_airplane [-- --paper-scale]
//! ```
//!
//! By default runs a scaled-down tunnel end-to-end and evaluates the
//! *scaled* memory story; `--paper-scale` additionally runs the full-size
//! octree census (no allocation; takes a while) to reproduce the exact
//! §VI-B capacity numbers.

use lbm_refinement::core::Variant;
use lbm_refinement::gpu::{max_uniform_cube, DeviceModel, Executor};
use lbm_refinement::problems::airplane::{AirplaneConfig, AirplaneFlow};
use lbm_refinement::problems::diagnostics;
use lbm_refinement::sparse::Coord;

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper-scale");
    let device = DeviceModel::a100_40gb();

    // ---- capacity story (memory model; §VI-B) ----------------------
    let cfg = if paper_scale {
        AirplaneConfig::paper_scale()
    } else {
        AirplaneConfig::scaled_small()
    };
    println!(
        "domain {}×{}×{} at finest level, {} levels",
        cfg.size[0], cfg.size[1], cfg.size[2], cfg.levels
    );
    let flow = AirplaneFlow::new(cfg);
    println!("running octree census (no allocation)...");
    let t0 = std::time::Instant::now();
    let (refined, uniform, refined_fits, uniform_fits) = flow.capacity_claim(&device);
    println!("census took {:.1} s", t0.elapsed().as_secs_f64());

    println!("\n== refined layout ==\n{refined}");
    println!("== uniform finest layout (AA single buffer) ==\n{uniform}");
    println!(
        "refined fits 40 GB: {refined_fits};  uniform fits 40 GB: {uniform_fits}"
    );
    println!(
        "largest uniform cube on this device (AA, f32): {}³ (paper: ≈794³)",
        max_uniform_cube(&device, 19, 4, 1)
    );

    if paper_scale {
        println!("\n(--paper-scale evaluates memory only; use the default scaled run for flow)");
        return;
    }

    // ---- scaled flow run -------------------------------------------
    let mut eng = flow.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
    println!("\nlevels:");
    for (l, level) in eng.grid.levels.iter().enumerate() {
        println!(
            "  level {l}: {:>9} real cells, {:>7} ghost cells",
            level.real_cells, level.ghost_cells
        );
    }
    let steps = 60;
    let t0 = std::time::Instant::now();
    eng.run(steps);
    let wall = t0.elapsed();
    assert!(eng.grid.is_finite(), "run diverged");
    println!(
        "\n{steps} coarse steps in {:.1} s — measured {:.1} MLUPS, modeled A100 {:.1} MLUPS",
        wall.as_secs_f64(),
        eng.mlups_measured(steps as u64, wall),
        eng.mlups_modeled(steps as u64)
    );
    // A probe next to the wing shows the body deflecting the flow.
    let (rho, u) = eng
        .grid
        .probe_finest(Coord::new(90, 60, 52))
        .expect("probe above fuselage");
    println!(
        "above fuselage: rho = {rho:.5}, u = [{:+.5}, {:+.5}, {:+.5}]",
        u[0], u[1], u[2]
    );
    println!(
        "kinetic energy {:.4e}, max |u| = {:.4}",
        diagnostics::kinetic_energy(&eng.grid),
        eng.grid.max_speed()
    );
}
