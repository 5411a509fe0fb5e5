//! Flow over a sphere in a virtual wind tunnel with three refinement
//! levels — the paper's Fig. 8 / Table I workload (KBC collision, D3Q27),
//! at a host-runnable scale.
//!
//! ```text
//! cargo run --release --example flow_over_sphere [-- STEPS [RE]]
//! ```

use lbm_refinement::core::Variant;
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::problems::diagnostics;
use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};
use lbm_refinement::sparse::Coord;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(300);
    let re: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(4000.0);

    let mut config = SphereConfig::scaled_small();
    config.re = re;
    let flow = SphereFlow::new(config);
    println!(
        "wind tunnel {}×{}×{} (finest), sphere R = {}, Re = {}, KBC/D3Q27, omega0 = {:.5}",
        flow.config.size[0],
        flow.config.size[1],
        flow.config.size[2],
        flow.config.radius,
        flow.config.re,
        flow.omega0
    );

    let mut eng = flow.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
    let dist = SphereFlow::distribution(&eng.grid);
    println!(
        "active voxels per level (finest first): {:?}  — Table I 'Distribution' analogue",
        dist
    );

    // Probes: upstream, above the sphere, and in the wake.
    let c = flow.sphere.center;
    let probes = [
        ("upstream", Coord::new(4, c[1] as i32, c[2] as i32)),
        (
            "above",
            Coord::new(c[0] as i32, (c[1] + flow.config.radius + 3.0) as i32, c[2] as i32),
        ),
        (
            "wake",
            Coord::new((c[0] + 2.5 * flow.config.radius) as i32, c[1] as i32, c[2] as i32),
        ),
    ];

    println!("\n  step    KE          max|u|   {:>9} {:>9} {:>9}", "upstream", "above", "wake");
    let snapshots = 6usize.min(steps);
    let chunk = steps / snapshots.max(1);
    let t0 = std::time::Instant::now();
    for s in 0..snapshots {
        eng.run(chunk);
        let ke = diagnostics::kinetic_energy(&eng.grid);
        let ms = eng.grid.max_speed();
        let mut row = format!("  {:>5}  {ke:.4e}  {ms:.4} ", (s + 1) * chunk);
        for (_, p) in &probes {
            let ux = eng.grid.probe_finest(*p).map(|(_, u)| u[0]).unwrap_or(f64::NAN);
            row.push_str(&format!("  {ux:+.5}"));
        }
        println!("{row}");
        assert!(eng.grid.is_finite(), "run diverged");
    }
    let wall = t0.elapsed();
    let done = chunk * snapshots;
    println!(
        "\n{} coarse steps in {:.1} s — measured {:.1} MLUPS, modeled A100 {:.1} MLUPS",
        done,
        wall.as_secs_f64(),
        eng.mlups_measured(done as u64, wall),
        eng.mlups_modeled(done as u64),
    );
    println!("kernel breakdown (launches / modeled µs):");
    for (name, stats) in eng.exec.profiler().per_kernel() {
        println!(
            "  {name:>6}: {:>7} launches, {:>12.0} modeled µs, {:>10.0} measured µs",
            stats.launches,
            stats.modeled_us(eng.exec.device()),
            stats.wall_us
        );
    }
}
