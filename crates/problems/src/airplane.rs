//! Flow over an airplane in the paper's headline wind tunnel
//! (Fig. 1, §VI-B): a 1596×840×840 finest-level domain that only fits on a
//! single 40 GB device thanks to grid refinement.
//!
//! The aircraft CAD model is proprietary; per DESIGN.md we substitute a
//! procedural airplane (fuselage capsule, ellipsoidal wings, tail fin and
//! stabilizers). Only the refinement pattern around a complex body matters
//! for the paper's capacity and performance claims.

use lbm_core::{census, Engine, GridSpec, LevelCensus, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor, MemoryPlan};
use lbm_lattice::{relaxation_for_reynolds_multilevel, Kbc, D3Q27};
use lbm_sparse::{Box3, SpaceFillingCurve};

use crate::geometry::{band_refinement, solid_at_finest, Capsule, RoundedBox, Union};
use crate::windtunnel::tunnel_boundary;

/// Procedural airplane centered in a tunnel of the given finest-level
/// size; all proportions scale with the fuselage length
/// (≈ 38% of the tunnel length, echoing Fig. 1).
pub fn airplane_sdf(size: [usize; 3]) -> Union {
    let (sx, sy, sz) = (size[0] as f64, size[1] as f64, size[2] as f64);
    let len = 0.38 * sx;
    let cx = 0.45 * sx;
    let cy = 0.5 * sy;
    let cz = 0.5 * sz;
    let r_fus = len / 14.0;
    Union {
        shapes: vec![
            // Fuselage.
            Box::new(Capsule {
                a: [cx - len / 2.0, cy, cz],
                b: [cx + len / 2.0, cy, cz],
                radius: r_fus,
            }),
            // Main wings: a thin rounded plate spanning both sides
            // (exact SDF — see geometry.rs on why ellipsoids must not
            // drive refinement bands).
            Box::new(RoundedBox {
                center: [cx - 0.05 * len, cy, cz],
                half: [len / 7.0, r_fus / 4.0, len * 0.5],
                round: r_fus / 6.0,
            }),
            // Horizontal stabilizers at the tail.
            Box::new(RoundedBox {
                center: [cx + 0.42 * len, cy, cz],
                half: [len / 14.0, r_fus / 5.0, len * 0.2],
                round: r_fus / 6.0,
            }),
            // Vertical fin.
            Box::new(RoundedBox {
                center: [cx + 0.44 * len, cy + len / 11.0, cz],
                half: [len / 14.0, len / 10.0, r_fus / 5.0],
                round: r_fus / 6.0,
            }),
        ],
    }
}

/// Airplane wind-tunnel parameters.
#[derive(Clone, Debug)]
pub struct AirplaneConfig {
    /// Finest-level tunnel extent (paper: 1596×840×840; the default here
    /// keeps the paper's aspect ratio while aligning to `2^(levels−1)`).
    pub size: [usize; 3],
    /// Levels of refinement (4 gives the paper-scale memory story).
    pub levels: u32,
    /// Reynolds number on the fuselage length.
    pub re: f64,
    /// Inlet speed, lattice units.
    pub u_inlet: f64,
    /// Distance bands (finest units) per transition.
    pub bands: Vec<f64>,
    /// Memory block edge.
    pub block_size: usize,
    /// Block ordering.
    pub curve: SpaceFillingCurve,
}

impl AirplaneConfig {
    /// The paper-scale configuration (evaluated through the memory model
    /// only — do not build this grid on a laptop).
    pub fn paper_scale() -> Self {
        Self {
            size: [1600, 840, 840],
            levels: 4,
            re: 1_000_000.0,
            u_inlet: 0.05,
            bands: vec![220.0, 100.0, 40.0],
            block_size: 4,
            curve: SpaceFillingCurve::Morton,
        }
    }

    /// A host-runnable scaled configuration (×1/8).
    pub fn scaled_small() -> Self {
        Self {
            size: [200, 104, 104],
            levels: 4,
            re: 2000.0,
            u_inlet: 0.05,
            bands: vec![40.0, 18.0, 7.0],
            block_size: 4,
            curve: SpaceFillingCurve::Morton,
        }
    }
}

/// The assembled airplane problem.
pub struct AirplaneFlow {
    /// Parameters.
    pub config: AirplaneConfig,
    /// Coarsest-level relaxation rate.
    pub omega0: f64,
}

/// The paper's turbulent engine: KBC on D3Q27.
pub type AirplaneEngine = Engine<f64, D3Q27, Kbc<f64>>;

impl AirplaneFlow {
    /// Sizes relaxation rates from `Re` on the fuselage length.
    pub fn new(config: AirplaneConfig) -> Self {
        let chord = 0.38 * config.size[0] as f64;
        let (_, _, omega0) = relaxation_for_reynolds_multilevel(
            config.re,
            chord,
            config.u_inlet,
            1.0 / 3.0,
            config.levels,
        );
        Self { config, omega0 }
    }

    /// The grid spec (distance bands around the airplane, interior carved).
    pub fn spec(&self) -> GridSpec {
        let c = &self.config;
        let refine = band_refinement(airplane_sdf(c.size), c.levels, c.bands.clone());
        let solid = solid_at_finest(airplane_sdf(c.size), c.levels);
        GridSpec::new(
            c.levels,
            Box3::from_dims(c.size[0], c.size[1], c.size[2]),
            refine,
        )
        .with_solid(solid)
        .with_block_size(c.block_size)
        .with_curve(c.curve)
    }

    /// Counts cells per level without building the grid (octree census) — the
    /// basis of the Fig.-1 capacity claim for the full-size domain.
    pub fn census(&self) -> Vec<LevelCensus> {
        census(&self.spec())
    }

    /// Memory plan of the refined layout from a census, for the D3Q27
    /// double-precision storage the paper's turbulent runs use.
    pub fn memory_plan(counts: &[LevelCensus]) -> MemoryPlan {
        let cells: Vec<(u64, u64)> = counts.iter().map(|c| (c.owned, c.ghost)).collect();
        lbm_core::plan_hypothetical(&cells, 27, 8)
    }

    /// Memory plan of the *uniform* alternative at finest resolution with
    /// single-buffer (AA-method) storage — the comparison of §VI-B.
    pub fn uniform_plan(&self) -> MemoryPlan {
        let cells =
            self.config.size[0] as u64 * self.config.size[1] as u64 * self.config.size[2] as u64;
        let mut p = MemoryPlan::new();
        p.push_populations("uniform finest grid (AA single buffer)", cells, 27, 8, 1);
        p
    }

    /// Builds the runnable engine (scaled configs only).
    pub fn engine(&self, variant: Variant, exec: Executor) -> AirplaneEngine {
        let bc = tunnel_boundary(self.config.size, self.config.levels, self.config.u_inlet);
        let grid = MultiGrid::<f64, D3Q27>::build(self.spec(), &bc, self.omega0);
        let mut eng = Engine::builder(grid)
            .collision(Kbc::new(self.omega0))
            .variant(variant)
            .build(exec);
        let u = self.config.u_inlet;
        eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [u, 0.0, 0.0]);
        eng
    }

    /// The §VI-B claim, evaluated: refined layout fits the device while the
    /// uniform finest grid does not. Returns `(refined_plan, uniform_plan)`.
    pub fn capacity_claim(&self, device: &DeviceModel) -> (MemoryPlan, MemoryPlan, bool, bool) {
        let counts = self.census();
        let refined = Self::memory_plan(&counts);
        let uniform = self.uniform_plan();
        let refined_fits = refined.fits(device);
        let uniform_fits = uniform.fits(device);
        (refined, uniform, refined_fits, uniform_fits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Sdf;
    use lbm_sparse::Coord;

    #[test]
    fn sdf_has_plane_like_structure() {
        let sdf = airplane_sdf([200, 104, 104]);
        // Fuselage center is inside.
        assert!(sdf.distance([90.0, 52.0, 52.0]) < 0.0);
        // Wing tips are inside near mid-fuselage, outboard in z.
        assert!(sdf.distance([86.0, 52.0, 90.0]) < 0.0);
        // Far corner is outside.
        assert!(sdf.distance([5.0, 5.0, 5.0]) > 0.0);
    }

    #[test]
    fn scaled_census_and_memory() {
        let flow = AirplaneFlow::new(AirplaneConfig::scaled_small());
        let counts = flow.census();
        assert_eq!(counts.len(), 4);
        // Every level participates.
        for (l, c) in counts.iter().enumerate() {
            assert!(c.owned > 0, "level {l} empty");
        }
        // Finest level dominates the refined cells near the body.
        assert!(counts[3].owned > counts[2].owned / 8);
        let plan = AirplaneFlow::memory_plan(&counts);
        assert!(plan.total_bytes() > 0);
    }

    #[test]
    fn scaled_engine_runs() {
        let mut cfg = AirplaneConfig::scaled_small();
        cfg.re = 500.0; // gentler for a 2-step smoke test
        let flow = AirplaneFlow::new(cfg);
        let mut eng = flow.engine(
            Variant::FusedAll,
            Executor::new(DeviceModel::a100_40gb()),
        );
        eng.run(2);
        // Inside the fuselage: carved.
        assert!(eng.grid.probe_finest(Coord::new(90, 52, 52)).is_none());
        // In the free stream: flowing.
        let (_, u) = eng.grid.probe_finest(Coord::new(10, 20, 20)).unwrap();
        assert!(u[0] > 0.0);
    }
}
