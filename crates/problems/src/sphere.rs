//! Flow over a sphere in a virtual wind tunnel (paper §VI-B, Fig. 8,
//! Table I): KBC collision on D3Q27, three levels of refinement around the
//! sphere, `Re = u_inlet·R/ν = 4000` in the paper's runs.

use lbm_core::{Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::Executor;
use lbm_lattice::{relaxation_for_reynolds_multilevel, Bgk, Kbc, D3Q19, D3Q27};
use lbm_sparse::{Box3, SpaceFillingCurve};

use crate::geometry::{band_refinement, solid_at_finest, Sphere};
use crate::windtunnel::tunnel_boundary;

/// Sphere wind-tunnel parameters.
#[derive(Clone, Debug)]
pub struct SphereConfig {
    /// Tunnel extent at the finest level (paper Table I: up to
    /// 816×576×816; scaled down for host runs).
    pub size: [usize; 3],
    /// Refinement levels (paper: 3).
    pub levels: u32,
    /// Sphere radius in finest cells.
    pub radius: f64,
    /// Reynolds number on the radius (paper Fig. 8: 4000).
    pub re: f64,
    /// Inlet speed, lattice units.
    pub u_inlet: f64,
    /// Distance bands (finest units) for the level transitions; must be
    /// strictly decreasing, one entry per transition.
    pub bands: Vec<f64>,
    /// Memory block edge.
    pub block_size: usize,
    /// Block ordering.
    pub curve: SpaceFillingCurve,
}

impl SphereConfig {
    /// A host-runnable scaled version of the paper's smallest Table-I row
    /// (272×192×272 scaled by 1/4).
    pub fn scaled_small() -> Self {
        Self::for_size([68, 48, 68])
    }

    /// The three Table-I sizes scaled by `1/scale` (paper: 272×192×272,
    /// 544×384×544, 816×576×816).
    pub fn table1_sizes(scale: usize) -> [[usize; 3]; 3] {
        let s = |v: usize| (v / scale / 4) * 4; // 2^(levels−1) = 4 alignment
        [
            [s(272), s(192), s(272)],
            [s(544), s(384), s(544)],
            [s(816), s(576), s(816)],
        ]
    }

    /// Scales the geometry proportionally to a Table-I size.
    ///
    /// Band widths scale with the radius but keep the minimum shell
    /// thickness that the ΔL ≤ 1 octree constraint requires: a transition
    /// shell must stay thicker than the coarse-cell diagonal at that level
    /// (≈ 1.8·cell·√3), or diagonal neighbors could jump two levels.
    pub fn for_size(size: [usize; 3]) -> Self {
        let radius = size[1] as f64 / 8.0;
        let band1 = (1.5 * radius).max(8.0);
        let band0 = band1 + (1.5 * radius).max(14.0);
        Self {
            size,
            levels: 3,
            radius,
            re: 4000.0,
            u_inlet: 0.05,
            bands: vec![band0, band1],
            block_size: 4,
            curve: SpaceFillingCurve::Morton,
        }
    }
}

/// The assembled sphere problem.
pub struct SphereFlow {
    /// Parameters.
    pub config: SphereConfig,
    /// Coarsest-level relaxation rate.
    pub omega0: f64,
    /// The obstacle.
    pub sphere: Sphere,
}

/// Engine type of the paper's turbulent runs: KBC on D3Q27.
pub type SphereEngine = Engine<f64, D3Q27, Kbc<f64>>;

/// BGK/D3Q19 variant for cheap smoke tests and low-Re runs.
pub type SphereEngineBgk = Engine<f64, D3Q19, Bgk<f64>>;

impl SphereFlow {
    /// Sizes relaxation rates from `Re = u·R/ν`.
    pub fn new(config: SphereConfig) -> Self {
        let (_, _, omega0) = relaxation_for_reynolds_multilevel(
            config.re,
            config.radius,
            config.u_inlet,
            1.0 / 3.0,
            config.levels,
        );
        let sphere = Sphere {
            center: [
                config.size[0] as f64 / 3.0,
                config.size[1] as f64 / 2.0,
                config.size[2] as f64 / 2.0,
            ],
            radius: config.radius,
        };
        Self {
            config,
            omega0,
            sphere,
        }
    }

    /// The grid spec: distance-band refinement around the sphere, sphere
    /// interior carved at the finest level.
    pub fn spec(&self) -> GridSpec {
        let c = &self.config;
        let refine = band_refinement(self.sphere, c.levels, c.bands.clone());
        let solid = solid_at_finest(self.sphere, c.levels);
        GridSpec::new(
            c.levels,
            Box3::from_dims(c.size[0], c.size[1], c.size[2]),
            refine,
        )
        .with_solid(solid)
        .with_block_size(c.block_size)
        .with_curve(c.curve)
    }

    /// Builds the paper's KBC/D3Q27 engine, initialized to the inlet flow.
    pub fn engine(&self, variant: Variant, exec: Executor) -> SphereEngine {
        self.engine_with(variant, exec, |b| b)
    }

    /// Like [`SphereFlow::engine`] but lets the caller adjust the builder
    /// (execution mode, health guard, …) before assembly.
    pub fn engine_with(
        &self,
        variant: Variant,
        exec: Executor,
        configure: impl FnOnce(
            lbm_core::EngineBuilder<f64, D3Q27, Kbc<f64>>,
        ) -> lbm_core::EngineBuilder<f64, D3Q27, Kbc<f64>>,
    ) -> SphereEngine {
        let bc = tunnel_boundary(self.config.size, self.config.levels, self.config.u_inlet);
        let grid = MultiGrid::<f64, D3Q27>::build(self.spec(), &bc, self.omega0);
        let builder = Engine::builder(grid)
            .collision(Kbc::new(self.omega0))
            .variant(variant);
        let mut eng = configure(builder).build(exec);
        let u = self.config.u_inlet;
        eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [u, 0.0, 0.0]);
        eng
    }

    /// BGK/D3Q19 engine for smoke tests (override `re` to something
    /// laminar first).
    pub fn engine_bgk(&self, variant: Variant, exec: Executor) -> SphereEngineBgk {
        let bc = tunnel_boundary(self.config.size, self.config.levels, self.config.u_inlet);
        let grid = MultiGrid::<f64, D3Q19>::build(self.spec(), &bc, self.omega0);
        let mut eng = Engine::builder(grid)
            .collision(Bgk::new(self.omega0))
            .variant(variant)
            .build(exec);
        let u = self.config.u_inlet;
        eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [u, 0.0, 0.0]);
        eng
    }

    /// Active-voxel distribution per level, finest first — the
    /// "Distribution" column of Table I.
    pub fn distribution<V: lbm_lattice::VelocitySet>(
        grid: &MultiGrid<f64, V>,
    ) -> Vec<usize> {
        let mut v: Vec<usize> = grid.levels.iter().map(|l| l.real_cells).collect();
        v.reverse();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_gpu::DeviceModel;
    use lbm_sparse::Coord;

    fn low_re() -> SphereFlow {
        let mut c = SphereConfig::scaled_small();
        c.re = 100.0; // laminar for the BGK smoke test
        SphereFlow::new(c)
    }

    #[test]
    fn grid_has_three_levels_with_sphere_carved() {
        let flow = low_re();
        let eng = flow.engine_bgk(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        assert_eq!(eng.grid.num_levels(), 3);
        for l in 0..3 {
            assert!(eng.grid.levels[l].real_cells > 0, "level {l} empty");
        }
        // Sphere center is solid: no cell there at any level.
        let c = Coord::new(
            flow.sphere.center[0] as i32,
            flow.sphere.center[1] as i32,
            flow.sphere.center[2] as i32,
        );
        assert!(eng.grid.probe_finest(c).is_none(), "sphere interior must be carved");
        // Most voxels live on the finest level (paper Table I).
        let dist = SphereFlow::distribution(&eng.grid);
        assert!(dist[0] > dist[1], "finest {} vs mid {}", dist[0], dist[1]);
    }

    #[test]
    fn flow_develops_around_sphere() {
        let flow = low_re();
        let mut eng = flow.engine_bgk(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        eng.run(30);
        // Upstream of the sphere the flow still advances.
        let (_, u) = eng.grid.probe_finest(Coord::new(4, 24, 34)).unwrap();
        assert!(u[0] > 0.0);
        // Flow stays finite everywhere probed.
        for x in (0..68).step_by(8) {
            if let Some((rho, v)) = eng.grid.probe_finest(Coord::new(x, 24, 34)) {
                assert!(rho.is_finite() && v[0].is_finite());
            }
        }
    }

    #[test]
    fn kbc_engine_constructs() {
        let flow = SphereFlow::new(SphereConfig::scaled_small());
        let mut eng = flow.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        eng.run(2);
        let m = eng.grid.total_mass();
        assert!(m.is_finite() && m > 0.0);
    }

    #[test]
    fn table1_sizes_scale() {
        let sizes = SphereConfig::table1_sizes(4);
        assert_eq!(sizes[0], [68, 48, 68]);
        assert_eq!(sizes[2], [204, 144, 204]);
        for s in sizes {
            for d in s {
                assert_eq!(d % 4, 0, "2^(levels−1) alignment for 3 levels");
            }
        }
    }
}
