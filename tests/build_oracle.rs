//! The build oracle (`crates/core/tests/oracle/mod.rs`) on the problem
//! geometries: the scaled sphere (three levels, solids, inlet and outlet),
//! the golden-digest cavity, and 3-level cavities, quasi-2D periodic and
//! full 3D (the benchmark's). Every table `MultiGrid::build` makes must
//! equal what the classifier derives from coordinates alone.

mod common;
#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;

use lbm_refinement::core::MultiGrid;
use lbm_refinement::lattice::{D3Q19, D3Q27};
use lbm_refinement::problems::cavity::{Cavity, CavityConfig};
use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};
use lbm_refinement::problems::tunnel_boundary;

#[test]
fn scaled_sphere_builds_as_the_oracle_classifies() {
    let flow = SphereFlow::new(SphereConfig::scaled_small());
    let c = &flow.config;
    let bc = tunnel_boundary(c.size, c.levels, c.u_inlet);
    let grid = MultiGrid::<f64, D3Q27>::build(flow.spec(), &bc, flow.omega0);
    oracle::check(&grid, &bc).unwrap();
}

#[test]
fn cavities_build_as_the_oracle_classifies() {
    let three_levels = |quasi_2d| {
        Cavity::new(CavityConfig {
            n_finest: 48,
            levels: 3,
            quasi_2d,
            ..CavityConfig::default()
        })
    };
    let cavities = [
        ("refined_cavity(48)", common::refined_cavity(48)),
        ("quasi-2D 3-level", three_levels(true)),
        ("3D 3-level", three_levels(false)),
    ];
    for (name, cavity) in cavities {
        let bc = cavity.boundary();
        let grid = MultiGrid::<f64, D3Q19>::build(cavity.spec(), &bc, cavity.omega0);
        oracle::check(&grid, &bc).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
