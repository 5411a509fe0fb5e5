//! Interface conservation properties of the refinement coupling.
//!
//! The crossing-population Accumulate (see `kernels.rs`) makes flat
//! fine–coarse interfaces *exactly* mass-conservative; refinement-region
//! edges and corners carry the volumetric fan-out approximation (bounded,
//! documented in DESIGN.md). These tests pin both statements down.

use lbm_core::{AllWalls, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, D3Q19};
use lbm_sparse::{Box3, Coord};

type Mg = MultiGrid<f64, D3Q19>;
type Eng = Engine<f64, D3Q19, Bgk<f64>>;

fn slab() -> Eng {
    let spec = GridSpec::new(2, Box3::from_dims(32, 32, 16), |l, p| {
        l == 0 && (4..12).contains(&p.y)
    })
    .with_periodic([true, false, true]);
    let grid = Mg::build(spec, &AllWalls, 1.7);
    Engine::builder(grid)
        .collision(Bgk::new(1.7))
        .variant(Variant::FusedAll)
        .build(Executor::new(DeviceModel::a100_40gb()))
}

fn drift_after(eng: &mut Eng, steps: usize) -> f64 {
    let m0 = eng.grid.total_mass();
    eng.run(steps);
    (eng.grid.total_mass() - m0) / m0
}

#[test]
fn tangential_uniform_flow_is_exact() {
    let mut eng = slab();
    eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.02, 0.0, 0.0]);
    let d = drift_after(&mut eng, 10);
    assert!(d.abs() < 1e-13, "tangential drift {d:e}");
}

#[test]
fn perpendicular_uniform_flow_is_exact() {
    // Flow into the walls evolves near-wall gradients that sweep through
    // the interface: conservation must still hold to round-off because the
    // interfaces are flat.
    let mut eng = slab();
    eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0, 0.02, 0.0]);
    let d = drift_after(&mut eng, 10);
    assert!(d.abs() < 1e-13, "perpendicular drift {d:e}");
}

#[test]
fn density_gradient_across_interface_is_exact() {
    let mut eng = slab();
    eng.grid.init_equilibrium(
        |l, p| {
            let scale = if l == 0 { 2.0 } else { 1.0 };
            1.0 + 0.01 * ((p.y as f64 + 0.5) * scale / 32.0)
        },
        |_, _| [0.0; 3],
    );
    let d = drift_after(&mut eng, 10);
    assert!(d.abs() < 1e-12, "density-gradient drift {d:e}");
}

#[test]
fn per_step_drift_is_roundoff_for_flat_interfaces() {
    let mut eng = slab();
    eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0, 0.02, 0.0]);
    for s in 0..6 {
        let m0 = eng.grid.total_mass();
        eng.step();
        let d = ((eng.grid.total_mass() - m0) / m0).abs();
        assert!(d < 1e-13, "step {s}: drift {d:e}");
    }
}

#[test]
fn cubic_region_corner_error_is_bounded() {
    // A cubic refinement region: edges and corners of the region are the
    // only places the coupling approximates. Bound ≈ 5e-8 relative per
    // coarse step on this adversarial small box. It holds for the fused
    // engine on the default 4³ blocks and for the waLBerla-like
    // configuration of the §VI-A comparison: 2³ blocks, no fusion.
    for (block_size, variant) in [(4, Variant::FusedAll), (2, Variant::ModifiedBaseline)] {
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| {
            l == 0 && (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z)
        })
        .with_block_size(block_size);
        let grid = Mg::build(spec, &AllWalls, 1.7);
        assert_eq!(grid.levels[0].grid.block_size(), block_size);
        let mut eng = Engine::builder(grid)
            .collision(Bgk::new(1.7))
            .variant(variant)
            .build(Executor::new(DeviceModel::a100_40gb()));
        eng.grid.init_equilibrium(
            |_, _| 1.0,
            |l, p| {
                let scale = if l == 0 { 2.0 } else { 1.0 };
                let x = p.x as f64 * scale;
                let y = p.y as f64 * scale;
                let r2 = (x - 16.0).powi(2) + (y - 16.0).powi(2);
                [0.04 * (-r2 / 40.0).exp(), -0.02 * (-r2 / 40.0).exp(), 0.0]
            },
        );
        let d = drift_after(&mut eng, 40).abs();
        let what = format!("{}³ blocks, {}", block_size, variant.name());
        assert!(d < 1e-5, "{what}: cube 40-step drift {d:e}");
        assert!(d > 0.0, "{what}: drift is measured, not zeroed out");
    }
}

#[test]
fn momentum_conserved_in_fully_periodic_refined_box() {
    // Fully periodic slab: total momentum has no walls to leak into and
    // must be conserved across the interface machinery.
    let spec = GridSpec::new(2, Box3::from_dims(32, 32, 16), |l, p| {
        l == 0 && (4..12).contains(&p.y)
    })
    .with_periodic([true, true, true]);
    let grid = Mg::build(spec, &AllWalls, 1.6);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(1.6))
        .variant(Variant::FusedAll)
        .build(Executor::new(DeviceModel::a100_40gb()));
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let scale = if l == 0 { 2.0 } else { 1.0 };
            let y = p.y as f64 * scale;
            [0.02 * (std::f64::consts::TAU * y / 32.0).sin() + 0.01, 0.005, 0.0]
        },
    );
    let m0 = eng.grid.total_momentum();
    let mass0 = eng.grid.total_mass();
    eng.run(20);
    let m1 = eng.grid.total_momentum();
    let mass1 = eng.grid.total_mass();
    assert!(((mass1 - mass0) / mass0).abs() < 1e-13);
    for a in 0..3 {
        let scale = mass0.abs();
        assert!(
            ((m1[a] - m0[a]) / scale).abs() < 1e-13,
            "momentum[{a}] drifted {} -> {}",
            m0[a],
            m1[a]
        );
    }
}

#[test]
fn refinement_abutting_a_periodic_face_is_exact() {
    // A refined slab against a periodic face has coarse neighbours across
    // the wrap: its ghost layer must reach them there too, or they bounce
    // off a wall that does not exist and the fine populations leaving
    // across the wrap are never deposited. Uniform flow through every
    // slab must then stay uniform and conserve mass, wherever it sits.
    let run = |lo: i32| {
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), move |l, p| {
            l == 0 && (lo..lo + 4).contains(&p.x)
        })
        .with_periodic([true; 3]);
        let grid = Mg::build(spec, &AllWalls, 1.7);
        let ghosts = grid.levels[0].ghost_cells;
        let mut eng = Engine::builder(grid)
            .collision(Bgk::new(1.7))
            .variant(Variant::FusedAll)
            .build(Executor::new(DeviceModel::a100_40gb()));
        eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.02, 0.0, 0.0]);
        let drift = drift_after(&mut eng, 10);
        let (_, u) = eng.grid.probe_finest(Coord::new(5, 16, 16)).unwrap();
        (ghosts, drift, u[0])
    };
    // The interior slab first: its ghost layer is the reference.
    let slabs = [6, 0, 12];
    let runs = slabs.map(run);
    for (lo, (ghosts, drift, u)) in slabs.into_iter().zip(runs) {
        assert_eq!(ghosts, runs[0].0, "slab at coarse x = {lo}: ghost layer");
        assert!(drift.abs() < 1e-13, "slab at coarse x = {lo}: drift {drift:e}");
        assert!((u - 0.02).abs() < 1e-12, "slab at coarse x = {lo}: u = {u}");
    }
}
