//! Taylor–Green vortex: the standard analytic accuracy benchmark.
//!
//! A 2D (z-invariant) Taylor–Green field in a fully periodic box decays as
//! `u(t) = u(0)·exp(−2νk²t)` exactly in the incompressible limit; running
//! it uniform vs. refined quantifies the accuracy cost of the interface
//! (beyond-paper validation; the paper validates against Ghia only).

use lbm_core::{AllWalls, Engine, GridSpec, MultiGrid, Variant};
use lbm_gpu::Executor;
use lbm_lattice::{Bgk, D3Q19};
use lbm_sparse::{Box3, Coord, SpaceFillingCurve};

/// Taylor–Green parameters.
#[derive(Clone, Debug)]
pub struct TgvConfig {
    /// Box side (finest units; periodic).
    pub n: usize,
    /// z-depth (finest units).
    pub depth: usize,
    /// Levels: 1 = uniform reference; 2 adds a refined central band.
    pub levels: u32,
    /// Initial velocity amplitude (lattice units).
    pub u0: f64,
    /// Finest-level relaxation rate.
    pub omega_finest: f64,
    /// Memory block edge.
    pub block_size: usize,
}

impl Default for TgvConfig {
    fn default() -> Self {
        Self {
            n: 64,
            depth: 4,
            levels: 1,
            u0: 0.02,
            omega_finest: 1.4,
            block_size: 4,
        }
    }
}

/// The assembled Taylor–Green problem.
pub struct Tgv {
    /// Parameters.
    pub config: TgvConfig,
    /// Coarsest-level rate consistent with `omega_finest`.
    pub omega0: f64,
}

/// BGK engine used by the benchmark.
pub type TgvEngine = Engine<f64, D3Q19, Bgk<f64>>;

impl Tgv {
    /// Builds the problem; `omega_finest` anchors the viscosity at the
    /// finest level.
    pub fn new(config: TgvConfig) -> Self {
        let omega0 = lbm_lattice::omega0_from_level(config.omega_finest, config.levels - 1);
        Self { config, omega0 }
    }

    /// Grid spec: uniform, or with the central y-band refined (levels = 2).
    pub fn spec(&self) -> GridSpec {
        let c = &self.config;
        let n = c.n;
        let quarter = (n / 4) as i32;
        GridSpec::new(
            c.levels,
            Box3::from_dims(n, n, c.depth),
            move |l, p| l == 0 && p.y >= quarter / 2 && p.y < quarter / 2 + quarter,
        )
        .with_block_size(c.block_size)
        .with_curve(SpaceFillingCurve::Morton)
        .with_periodic([true, true, true])
    }

    /// Builds the engine initialized with the Taylor–Green field.
    pub fn engine(&self, variant: Variant, exec: Executor) -> TgvEngine {
        let grid = MultiGrid::<f64, D3Q19>::build(self.spec(), &AllWalls, self.omega0);
        let mut eng = Engine::builder(grid)
            .collision(Bgk::new(self.omega0))
            .variant(variant)
            .build(exec);
        let n = self.config.n as f64;
        let u0 = self.config.u0;
        let levels = self.config.levels;
        let k = std::f64::consts::TAU / n;
        eng.grid.init_equilibrium(
            |_, _| 1.0,
            move |l, p| {
                let s = (1 << (levels - 1 - l)) as f64;
                let x = (p.x as f64 + 0.5) * s - 0.5;
                let y = (p.y as f64 + 0.5) * s - 0.5;
                [
                    u0 * (k * x).sin() * (k * y).cos(),
                    -u0 * (k * x).cos() * (k * y).sin(),
                    0.0,
                ]
            },
        );
        eng
    }

    /// Kinetic energy summed over real cells (finest-volume weighted).
    pub fn kinetic_energy(eng: &TgvEngine) -> f64 {
        crate::diagnostics::kinetic_energy(&eng.grid)
    }

    /// Analytic kinetic-energy ratio after `fine_steps` finest-level steps.
    pub fn analytic_ke_ratio(&self, fine_steps: u64) -> f64 {
        let nu = (1.0 / 3.0) * (1.0 / self.config.omega_finest - 0.5);
        let k = std::f64::consts::TAU / self.config.n as f64;
        (-4.0 * nu * k * k * fine_steps as f64).exp()
    }

    /// Probes the velocity at a finest coordinate.
    pub fn velocity(eng: &TgvEngine, c: Coord) -> [f64; 3] {
        eng.grid.probe_finest(c).map(|(_, u)| u).unwrap_or([0.0; 3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_gpu::DeviceModel;

    #[test]
    fn uniform_decay_matches_analytic() {
        let tgv = Tgv::new(TgvConfig {
            n: 32,
            ..TgvConfig::default()
        });
        let mut eng = tgv.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        let e0 = Tgv::kinetic_energy(&eng);
        let steps = 100;
        eng.run(steps);
        let e1 = Tgv::kinetic_energy(&eng);
        let expect = tgv.analytic_ke_ratio(steps as u64);
        let rel = ((e1 / e0) - expect).abs() / expect;
        assert!(rel < 0.02, "KE ratio {} vs analytic {expect} (rel {rel})", e1 / e0);
    }

    #[test]
    fn refined_decay_close_to_analytic() {
        let tgv = Tgv::new(TgvConfig {
            n: 32,
            levels: 2,
            ..TgvConfig::default()
        });
        let mut eng = tgv.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        let e0 = Tgv::kinetic_energy(&eng);
        let coarse_steps = 50; // = 100 finest steps
        eng.run(coarse_steps);
        let e1 = Tgv::kinetic_energy(&eng);
        let expect = tgv.analytic_ke_ratio(2 * coarse_steps as u64);
        let rel = ((e1 / e0) - expect).abs() / expect;
        // The volume-based coupling holds the coarse Explosion source
        // constant over the two fine substeps (zeroth-order in time, as in
        // the paper's Algorithm 1); on a vortex sheared across the
        // interface this adds measurable first-order dissipation. The bound
        // documents that accuracy envelope; the uniform run above holds 2%.
        assert!(
            rel < 0.20,
            "refined KE ratio {} vs analytic {expect} (rel {rel})",
            e1 / e0
        );
    }

    #[test]
    fn zeroth_order_hold_conserves_mass_exactly() {
        // Both fine substeps pull the same held coarse value, so their sum
        // telescopes to exactly what the coarse slot surrendered: the
        // refined vortex conserves mass to round-off.
        let tgv = Tgv::new(TgvConfig {
            n: 32,
            levels: 2,
            ..TgvConfig::default()
        });
        let mut eng = tgv.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        let m0 = eng.grid.total_mass();
        eng.run(20);
        let drift = ((eng.grid.total_mass() - m0) / m0).abs();
        assert!(drift < 1e-12, "zeroth-order hold must stay exact: {drift:e}");
    }
}
