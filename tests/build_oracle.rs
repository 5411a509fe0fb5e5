//! The build oracle (`crates/core/tests/oracle/mod.rs`) on the problem
//! geometries: the scaled sphere (three levels, solids, inlet and outlet),
//! the golden-digest cavity, and 3-level cavities, quasi-2D periodic and
//! full 3D (the benchmark's). Every table `MultiGrid::build` makes must
//! equal what the classifier derives from coordinates alone, and the
//! octree `census` must count the cells the build allocates.

mod common;
#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;

use lbm_refinement::core::{census, AllWalls, GridSpec, MultiGrid};
use lbm_refinement::lattice::{D3Q19, D3Q27};
use lbm_refinement::problems::cavity::{Cavity, CavityConfig};
use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};
use lbm_refinement::problems::tunnel_boundary;
use lbm_refinement::sparse::Box3;

fn three_level_cavity(quasi_2d: bool) -> Cavity {
    Cavity::new(CavityConfig {
        n_finest: 48,
        levels: 3,
        quasi_2d,
        ..CavityConfig::default()
    })
}

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
    let cavities = [
        ("refined_cavity(48)", common::refined_cavity(48)),
        ("quasi-2D 3-level", three_level_cavity(true)),
        ("3D 3-level", three_level_cavity(false)),
    ];
    for (name, cavity) in cavities {
        let bc = cavity.boundary();
        let grid = MultiGrid::<f64, D3Q19>::build(cavity.spec(), &bc, cavity.omega0);
        oracle::check(&grid, &bc).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// `census` walks the octree without building anything; per level, its
/// owned and ghost counts must be the built level's real and ghost cells.
#[test]
fn census_counts_the_cells_the_build_allocates() {
    let sphere = SphereFlow::new(SphereConfig::scaled_small());
    let specs: [(&str, &dyn Fn() -> GridSpec); 5] = [
        ("box", &|| {
            GridSpec::new(2, Box3::from_dims(64, 64, 64), |l, p| {
                l == 0 && (8..24).contains(&p.x) && (8..24).contains(&p.y) && (8..24).contains(&p.z)
            })
        }),
        ("3D 3-level cavity", &|| three_level_cavity(false).spec()),
        ("quasi-2D 3-level cavity", &|| {
            three_level_cavity(true).spec()
        }),
        ("scaled sphere", &|| sphere.spec()),
        ("slab at a periodic face", &|| {
            GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| l == 0 && p.x < 4)
                .with_periodic([true; 3])
        }),
    ];
    for (name, spec) in specs {
        let counts = census(&spec());
        let grid = MultiGrid::<f64, D3Q19>::build(spec(), &AllWalls, 1.5);
        assert_eq!(counts.len(), grid.num_levels(), "{name}");
        for (l, (c, lv)) in counts.iter().zip(&grid.levels).enumerate() {
            let built = (lv.real_cells as u64, lv.ghost_cells as u64);
            assert_eq!(
                (c.owned, c.ghost),
                built,
                "{name}, level {l}: census vs build"
            );
        }
    }
}
