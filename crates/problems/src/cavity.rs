//! The lid-driven cavity (paper §VI-A): flow in a cubic box driven by the
//! tangential motion of the top lid, with near-wall grid refinement and
//! validation against Ghia et al. (paper Figs. 6–7).

use lbm_core::{Boundary, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::Executor;
use lbm_lattice::{relaxation_for_reynolds_multilevel, Bgk, D3Q19};
use lbm_sparse::{Box3, Coord, SpaceFillingCurve};

use crate::ghia::{self, ProfileError};

/// Cavity problem parameters.
#[derive(Clone, Debug)]
pub struct CavityConfig {
    /// Cells per cavity side at the finest level (paper: 240).
    pub n_finest: usize,
    /// Number of refinement levels (paper: 3).
    pub levels: u32,
    /// Refinement band width near the walls, in level-local cells.
    pub wall_band: i32,
    /// Reynolds number `Re = u_lid·N/ν` (paper Fig. 6: 100).
    pub re: f64,
    /// Lid speed in lattice units of the finest level.
    pub u_lid: f64,
    /// Memory block edge.
    pub block_size: usize,
    /// Block-ordering curve.
    pub curve: SpaceFillingCurve,
    /// Quasi-2D mode: shallow periodic z — matches the 2D Ghia reference
    /// closely and runs much faster than the full cube.
    pub quasi_2d: bool,
    /// z-depth (finest cells) in quasi-2D mode.
    pub depth: usize,
}

impl Default for CavityConfig {
    fn default() -> Self {
        Self {
            n_finest: 96,
            levels: 3,
            wall_band: 4,
            re: 100.0,
            u_lid: 0.1,
            block_size: 4,
            curve: SpaceFillingCurve::Morton,
            quasi_2d: false,
            depth: 8,
        }
    }
}

/// The assembled cavity problem.
pub struct Cavity {
    /// Parameters.
    pub config: CavityConfig,
    /// Coarsest-level relaxation rate (Eq. 9 anchor).
    pub omega0: f64,
    /// Finest-level relaxation rate.
    pub omega_finest: f64,
}

/// Engine type used by the cavity (paper: BGK with D3Q19 for laminar flow).
pub type CavityEngine = Engine<f64, D3Q19, Bgk<f64>>;

impl Cavity {
    /// Sizes the relaxation rates for the requested Reynolds number.
    pub fn new(config: CavityConfig) -> Self {
        let (_, omega_finest, omega0) = relaxation_for_reynolds_multilevel(
            config.re,
            config.n_finest as f64,
            config.u_lid,
            1.0 / 3.0,
            config.levels,
        );
        Self {
            config,
            omega0,
            omega_finest,
        }
    }

    /// Finest-level domain box.
    pub fn domain(&self) -> Box3 {
        let n = self.config.n_finest;
        let d = if self.config.quasi_2d { self.config.depth } else { n };
        Box3::from_dims(n, n, d)
    }

    /// The grid spec: near-wall refinement on x and y (plus z for the full
    /// cube), exactly the paper's Fig.-6 pattern.
    pub fn spec(&self) -> GridSpec {
        let c = &self.config;
        let axes = if c.quasi_2d {
            [true, true, false]
        } else {
            [true, true, true]
        };
        let refine =
            lbm_core::presets::near_walls(self.domain(), c.levels, c.wall_band, axes);
        let mut spec = GridSpec::new(c.levels, self.domain(), refine)
            .with_block_size(c.block_size)
            .with_curve(c.curve);
        if c.quasi_2d {
            spec = spec.with_periodic([false, false, true]);
        }
        spec
    }

    /// Boundary closure: moving lid at the top `y` face, halfway
    /// bounce-back elsewhere (paper §VI-A).
    pub fn boundary(&self) -> impl Fn(u32, Coord, usize) -> Boundary + Sync {
        let n = self.config.n_finest as i32;
        let levels = self.config.levels;
        let u_lid = self.config.u_lid;
        move |level: u32, src: Coord, _dir: usize| {
            let top = n >> (levels - 1 - level);
            if src.y >= top {
                Boundary::MovingWall {
                    velocity: [u_lid, 0.0, 0.0],
                }
            } else {
                Boundary::BounceBack
            }
        }
    }

    /// Builds the BGK/D3Q19 engine (paper's laminar setup) at rest.
    pub fn engine(&self, variant: Variant, exec: Executor) -> CavityEngine {
        self.engine_with(variant, exec, |b| b)
    }

    /// Like [`Cavity::engine`] but lets the caller adjust the builder
    /// (execution mode, health guard, …) before assembly.
    pub fn engine_with(
        &self,
        variant: Variant,
        exec: Executor,
        configure: impl FnOnce(
            lbm_core::EngineBuilder<f64, D3Q19, Bgk<f64>>,
        ) -> lbm_core::EngineBuilder<f64, D3Q19, Bgk<f64>>,
    ) -> CavityEngine {
        let bc = self.boundary();
        let grid = MultiGrid::<f64, D3Q19>::build(self.spec(), &bc, self.omega0);
        let builder = Engine::builder(grid)
            .collision(Bgk::new(self.omega0))
            .variant(variant);
        let mut eng = configure(builder).build(exec);
        eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
        eng
    }

    /// Extracts the normalized centerline profiles of Fig. 7:
    /// `u/u_lid` along the vertical centerline and `v/u_lid` along the
    /// horizontal centerline (z midplane).
    #[allow(clippy::type_complexity)]
    pub fn profiles(&self, eng: &CavityEngine) -> (Vec<(f64, f64)>, Vec<(f64, f64)>) {
        let n = self.config.n_finest as i32;
        let zc = if self.config.quasi_2d {
            self.config.depth as i32 / 2
        } else {
            n / 2
        };
        let u_lid = self.config.u_lid;
        // Average the two central columns to sample the exact centerline.
        let sample = |probe: &dyn Fn(i32, i32) -> Option<(f64, [f64; 3])>, t: i32, comp: usize| {
            let a = probe(n / 2 - 1, t);
            let b = probe(n / 2, t);
            match (a, b) {
                (Some((_, ua)), Some((_, ub))) => (ua[comp] + ub[comp]) / (2.0 * u_lid),
                (Some((_, ua)), None) => ua[comp] / u_lid,
                (None, Some((_, ub))) => ub[comp] / u_lid,
                (None, None) => 0.0,
            }
        };
        let mut u_prof = Vec::with_capacity(self.config.n_finest);
        for y in 0..n {
            let v = sample(&|c, y2| eng.grid.probe_finest(Coord::new(c, y2, zc)), y, 0);
            u_prof.push(((y as f64 + 0.5) / n as f64, v));
        }
        let mut v_prof = Vec::with_capacity(self.config.n_finest);
        for x in 0..n {
            let v = sample(&|c, x2| eng.grid.probe_finest(Coord::new(x2, c, zc)), x, 1);
            v_prof.push(((x as f64 + 0.5) / n as f64, v));
        }
        (u_prof, v_prof)
    }

    /// Compares the current state against the Ghia Re=100 tables (Fig. 7).
    pub fn validate(&self, eng: &CavityEngine) -> (ProfileError, ProfileError) {
        assert!(
            (self.config.re - 100.0).abs() < 1e-9,
            "reference data is for Re = 100"
        );
        let (u_prof, v_prof) = self.profiles(eng);
        (
            ghia::compare(&u_prof, &ghia::U_CENTERLINE_RE100),
            ghia::compare(&v_prof, &ghia::V_CENTERLINE_RE100),
        )
    }

    /// Characteristic time (lid transit) in coarse steps.
    pub fn transit_coarse_steps(&self) -> usize {
        let fine_steps = self.config.n_finest as f64 / self.config.u_lid;
        (fine_steps / (1 << (self.config.levels - 1)) as f64).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_gpu::DeviceModel;

    fn small() -> Cavity {
        Cavity::new(CavityConfig {
            n_finest: 32,
            levels: 2,
            wall_band: 2,
            u_lid: 0.1,
            quasi_2d: true,
            depth: 4,
            ..CavityConfig::default()
        })
    }

    #[test]
    fn construction_and_counts() {
        let cav = small();
        let eng = cav.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        assert_eq!(eng.grid.num_levels(), 2);
        // Both levels populated: fine near walls, coarse in the middle.
        assert!(eng.grid.levels[0].real_cells > 0);
        assert!(eng.grid.levels[1].real_cells > 0);
        // The finest level tiles the wall bands of x/y only.
        let n = 32 * 32 * 4;
        let covered: usize = eng.grid.levels[1].real_cells
            + 8 * eng.grid.levels[0].real_cells;
        assert_eq!(covered, n, "levels must partition the domain");
    }

    #[test]
    fn omega_sizing_matches_reynolds() {
        let cav = small();
        // ν_fine = u·N/Re; ω_fine consistent.
        let nu = 0.1 * 32.0 / 100.0;
        let omega = 1.0 / (3.0 * nu + 0.5);
        assert!((cav.omega_finest - omega).abs() < 1e-12);
        assert!(cav.omega0 > 0.0 && cav.omega0 < 2.0);
    }

    #[test]
    fn lid_drives_flow() {
        let cav = small();
        let mut eng = cav.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        eng.run(220);
        // Near the lid the fluid must move in +x.
        let (_, u) = eng
            .grid
            .probe_finest(Coord::new(16, 30, 2))
            .expect("probe under the lid");
        assert!(u[0] > 0.005, "u under lid = {}", u[0]);
        // Flow recirculates: somewhere near the bottom u is negative.
        let (_, ub) = eng.grid.probe_finest(Coord::new(16, 2, 2)).unwrap();
        assert!(ub[0] <= 0.0, "bottom return flow u = {}", ub[0]);
    }

    #[test]
    fn transit_estimate() {
        let cav = small();
        // 32 / 0.1 = 320 fine steps = 160 coarse steps.
        assert_eq!(cav.transit_coarse_steps(), 160);
    }
}
