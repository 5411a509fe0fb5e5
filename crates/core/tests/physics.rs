//! Physics validation of the multi-resolution engine: equilibrium
//! preservation, conservation, variant equivalence, and analytic flows
//! (shear-wave decay) across refinement interfaces.

use lbm_core::{AllWalls, Boundary, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, D3Q19};
use lbm_sparse::{Box3, Coord};

type Mg = MultiGrid<f64, D3Q19>;
type Eng = Engine<f64, D3Q19, Bgk<f64>>;

fn two_level_box_spec() -> GridSpec {
    // 32³ finest domain, central 16³ refined.
    GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| {
        l == 0 && (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z)
    })
}

fn engine(spec: GridSpec, omega0: f64, variant: Variant) -> Eng {
    let grid = Mg::build(spec, &AllWalls, omega0);
    Engine::builder(grid)
        .collision(Bgk::new(omega0))
        .variant(variant)
        .build(Executor::new(DeviceModel::a100_40gb()))
}

#[test]
fn uniform_equilibrium_is_a_fixed_point() {
    let mut eng = engine(two_level_box_spec(), 1.5, Variant::FusedAll);
    eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
    let mass0 = eng.grid.total_mass();
    eng.run(5);
    let mass1 = eng.grid.total_mass();
    assert!(
        ((mass1 - mass0) / mass0).abs() < 1e-13,
        "mass drifted: {mass0} -> {mass1}"
    );
    // Every probed cell must still be at rest with ρ = 1.
    for &c in &[
        Coord::new(1, 1, 1),
        Coord::new(16, 16, 16),
        Coord::new(8, 16, 16),
        Coord::new(30, 30, 30),
    ] {
        let (rho, u) = eng.grid.probe_finest(c).unwrap();
        assert!((rho - 1.0).abs() < 1e-12, "rho at {c:?} = {rho}");
        for (a, ua) in u.iter().enumerate() {
            assert!(ua.abs() < 1e-12, "u[{a}] at {c:?} = {ua}");
        }
    }
}

#[test]
fn mass_conserved_in_closed_box_with_refinement() {
    let mut eng = engine(two_level_box_spec(), 1.7, Variant::FusedAll);
    // A smooth localized momentum bump crossing the interface.
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
    let mass0 = eng.grid.total_mass();
    eng.run(40);
    let mass1 = eng.grid.total_mass();
    let drift = ((mass1 - mass0) / mass0).abs();
    // A cubic refinement region is the adversarial case: its edges and
    // corners carry the volumetric fan-out approximation (flat faces are
    // exactly conservative — see the slab test below). The bound here is
    // the documented corner error, ~1e-7 relative per coarse step.
    assert!(drift < 1e-5, "relative mass drift {drift} over 40 coarse steps");
}

#[test]
fn mass_conserved_to_roundoff_for_slab_interface() {
    // A refined slab spanning the periodic x/z extent has only flat
    // fine–coarse interfaces (no region edges/corners): the crossing-
    // population accounting must then conserve mass to round-off.
    let spec = GridSpec::new(2, Box3::from_dims(32, 32, 16), |l, p| {
        l == 0 && (4..12).contains(&p.y)
    })
    .with_periodic([true, false, true]);
    let grid = Mg::build(spec, &AllWalls, 1.7);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(1.7))
        .variant(Variant::FusedAll)
        .build(Executor::new(DeviceModel::a100_40gb()));
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let scale = if l == 0 { 2.0 } else { 1.0 };
            let y = p.y as f64 * scale;
            [0.03 * (std::f64::consts::TAU * y / 32.0).sin(), 0.02, 0.0]
        },
    );
    let mass0 = eng.grid.total_mass();
    eng.run(40);
    let drift = ((eng.grid.total_mass() - mass0) / mass0).abs();
    assert!(
        drift < 1e-12,
        "flat-interface mass drift {drift} should be round-off only"
    );
}

#[test]
fn all_variants_produce_identical_physics() {
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for variant in Variant::ALL {
        let mut eng = engine(two_level_box_spec(), 1.6, variant);
        eng.grid.init_equilibrium(
            |_, _| 1.0,
            |l, p| {
                let scale = if l == 0 { 2.0 } else { 1.0 };
                let x = p.x as f64 * scale;
                [
                    0.03 * (x / 32.0 * std::f64::consts::TAU).sin(),
                    0.01,
                    -0.015,
                ]
            },
        );
        eng.run(4);
        let fields: Vec<Vec<f64>> = eng
            .grid
            .levels
            .iter()
            .map(|lv| lv.f.src().as_slice().to_vec())
            .collect();
        match &reference {
            None => reference = Some(fields),
            Some(r) => {
                for (l, (a, b)) in r.iter().zip(&fields).enumerate() {
                    assert_eq!(a.len(), b.len());
                    let max_diff = a
                        .iter()
                        .zip(b)
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0f64, f64::max);
                    assert!(
                        max_diff < 1e-9,
                        "{}: level {l} deviates from baseline by {max_diff}",
                        variant.name()
                    );
                }
            }
        }
    }
}

/// Viscous decay of a periodic shear wave `u_x(y) = A sin(2πy/N)`:
/// kinetic energy decays as `exp(-2νk²t)`. Validates the effective
/// viscosity of the engine, uniform grid.
#[test]
fn shear_wave_decay_matches_viscosity_uniform() {
    let n = 32usize;
    let spec = GridSpec::uniform(Box3::from_dims(n, n, 4)).with_periodic([true, true, true]);
    let omega = 1.2;
    let mut eng = engine(spec, omega, Variant::FusedAll);
    let k = std::f64::consts::TAU / n as f64;
    let amp = 0.01;
    eng.grid
        .init_equilibrium(|_, _| 1.0, |_, p| [amp * (k * p.y as f64).sin(), 0.0, 0.0]);

    let amplitude = |eng: &Eng| -> f64 {
        // Project u_x onto sin(k y) along a column.
        let mut s = 0.0;
        for y in 0..n {
            let (_, u) = eng.grid.probe_finest(Coord::new(5, y as i32, 1)).unwrap();
            s += u[0] * (k * y as f64).sin();
        }
        2.0 * s / n as f64
    };

    let a0 = amplitude(&eng);
    let steps = 200usize;
    eng.run(steps);
    let a1 = amplitude(&eng);
    let nu = (1.0 / 3.0) * (1.0 / omega - 0.5);
    let expect = a0 * (-nu * k * k * steps as f64).exp();
    let rel = ((a1 - expect) / expect).abs();
    assert!(
        rel < 0.02,
        "uniform decay: measured {a1}, expected {expect} (rel err {rel})"
    );
}

/// The same shear wave through a refined band: the interface must neither
/// damp nor amplify the wave beyond the analytic viscosity.
#[test]
fn shear_wave_decay_matches_viscosity_refined() {
    let n = 32usize; // finest-units domain
    // Refine the central band y ∈ [8, 24) (finest units): coarse cells
    // y ∈ [4, 12) at level 0.
    let spec = GridSpec::new(2, Box3::from_dims(n, n, 8), |l, p| {
        l == 0 && (4..12).contains(&p.y)
    })
    .with_periodic([true, true, true]);
    // omega0 at the coarse level; finest level is the reference resolution.
    let omega0 = 1.2;
    let mut eng = engine(spec, omega0, Variant::FusedAll);
    let k = std::f64::consts::TAU / n as f64;
    let amp = 0.01;
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        |l, p| {
            let scale = if l == 0 { 2.0 } else { 1.0 };
            let y = (p.y as f64 + 0.5) * scale - 0.5;
            [amp * (k * y).sin(), 0.0, 0.0]
        },
    );

    let amplitude = |eng: &Eng| -> f64 {
        let mut s = 0.0;
        for y in 0..n {
            let (_, u) = eng.grid.probe_finest(Coord::new(5, y as i32, 3)).unwrap();
            s += u[0] * (k * (y as f64)).sin();
        }
        2.0 * s / n as f64
    };

    let a0 = amplitude(&eng);
    let steps = 100usize; // coarse steps; Δt_coarse = 2 fine steps
    eng.run(steps);
    let a1 = amplitude(&eng);
    // Physical viscosity in finest-lattice units: ν_fine = cs²(1/ω₁ − ½)
    // where ω₁ is the finest level's rate; time in fine steps = 2·steps.
    let omega1 = lbm_lattice::omega_at_level(omega0, 1);
    let nu_fine = (1.0 / 3.0) * (1.0 / omega1 - 0.5);
    let expect = a0 * (-nu_fine * k * k * (2 * steps) as f64).exp();
    let rel = ((a1 - expect) / expect).abs();
    assert!(
        rel < 0.05,
        "refined decay: measured {a1}, expected {expect} (rel err {rel})"
    );
}

/// Couette flow with a moving top lid and a refined band at the bottom
/// wall: the steady profile must be linear across the interface.
#[test]
fn couette_profile_is_linear_across_interface() {
    let nx = 8usize;
    let ny = 32usize;
    let u_wall = 0.05;
    // Refine the bottom quarter (finest y ∈ [0, 8)).
    let spec = GridSpec::new(2, Box3::from_dims(nx, ny, 8), |l, p| l == 0 && p.y < 4)
        .with_periodic([true, false, true]);
    let bc = move |level: u32, src: Coord, _dir: usize| {
        let hi = (ny as i32) >> (1 - level as i32).max(0); // domain top at this level
        if src.y >= hi {
            Boundary::MovingWall {
                velocity: [u_wall, 0.0, 0.0],
            }
        } else {
            Boundary::BounceBack
        }
    };
    let omega0 = 1.3;
    let grid = Mg::build(spec, &bc, omega0);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(omega0))
        .variant(Variant::FusedAll)
        .build(Executor::new(DeviceModel::a100_40gb()));
    eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
    eng.run(4000);

    // Sample u_x(y) along a column at finest resolution.
    let mut profile = Vec::new();
    for y in 0..ny {
        let (_, u) = eng.grid.probe_finest(Coord::new(3, y as i32, 3)).unwrap();
        profile.push(u[0]);
    }
    // Fit u = a·y + b by least squares and check the residual is tiny.
    let n = profile.len() as f64;
    let sy: f64 = (0..ny).map(|y| y as f64).sum();
    let syy: f64 = (0..ny).map(|y| (y as f64) * (y as f64)).sum();
    let su: f64 = profile.iter().sum();
    let syu: f64 = profile.iter().enumerate().map(|(y, u)| y as f64 * u).sum();
    let slope = (n * syu - sy * su) / (n * syy - sy * sy);
    let intercept = (su - slope * sy) / n;
    let max_resid = profile
        .iter()
        .enumerate()
        .map(|(y, u)| (u - (slope * y as f64 + intercept)).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_resid < 0.02 * u_wall,
        "Couette profile nonlinear: max residual {max_resid} (u_wall {u_wall}); profile {profile:?}"
    );
    assert!(slope > 0.0, "flow must follow the lid");
    // End values: ≈ 0 at the bottom wall, ≈ u_wall at the lid (halfway BB
    // offsets of half a cell are absorbed in the fit tolerance).
    assert!(profile[0].abs() < 0.1 * u_wall);
    assert!((profile[ny - 1] - u_wall).abs() < 0.15 * u_wall);
}
