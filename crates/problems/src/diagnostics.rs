//! Flow diagnostics and output helpers shared by the problems and the
//! benchmark harness.

use std::fs::File;
use std::io::{BufWriter, Result as IoResult, Write};
use std::path::Path;

use lbm_core::MultiGrid;
use lbm_lattice::{Real, VelocitySet, MAX_Q};

/// Total kinetic energy `Σ ½ρ‖u‖²·V_cell` over real cells, in finest-cell
/// volume units.
pub fn kinetic_energy<T: Real, V: VelocitySet>(grid: &MultiGrid<T, V>) -> f64 {
    let mut total = 0.0;
    for (l, level) in grid.levels.iter().enumerate() {
        let vol = (grid.spec.scale_to_finest(l as u32) as f64).powi(3);
        let f = level.f.src();
        for (r, _) in level.iter_real() {
            let mut pops = [T::ZERO; MAX_Q];
            #[allow(clippy::needless_range_loop)] // pops is MAX_Q-sized, reads V::Q
            for i in 0..V::Q {
                pops[i] = f.get(r.block, i, r.cell);
            }
            let (rho, u) = lbm_lattice::density_velocity::<T, V>(&pops[..]);
            let usq = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).to_f64();
            total += 0.5 * rho.to_f64() * usq * vol;
        }
    }
    total
}

/// What [`run_to_steady`] observed when it stopped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SteadyOutcome {
    /// Coarse steps taken by the driver.
    pub steps: usize,
    /// The relative kinetic-energy change per chunk dropped below `tol`.
    pub converged: bool,
    /// The kinetic energy went non-finite — the run blew up; `steps` is
    /// where that was detected. Mutually exclusive with `converged`.
    pub diverged: bool,
}

/// Steady-state driver: runs in chunks of `check_every` coarse steps until
/// the relative kinetic-energy change per chunk drops below `tol`, the
/// energy goes non-finite (divergence), or `max_steps` is reached.
///
/// # Panics
/// If `check_every == 0` — a zero chunk would make no progress and loop
/// forever.
pub fn run_to_steady<T, V, C>(
    eng: &mut lbm_core::Engine<T, V, C>,
    check_every: usize,
    tol: f64,
    max_steps: usize,
) -> SteadyOutcome
where
    T: Real,
    V: VelocitySet,
    C: lbm_lattice::Collision<T, V>,
{
    assert!(
        check_every > 0,
        "run_to_steady needs a positive check_every (0 would loop forever)"
    );
    let mut prev = kinetic_energy(&eng.grid);
    let mut steps = 0;
    while steps < max_steps {
        eng.run(check_every);
        steps += check_every;
        let ke = kinetic_energy(&eng.grid);
        if !ke.is_finite() {
            return SteadyOutcome {
                steps,
                converged: false,
                diverged: true,
            };
        }
        let denom = ke.abs().max(1e-300);
        if ((ke - prev) / denom).abs() < tol {
            return SteadyOutcome {
                steps,
                converged: true,
                diverged: false,
            };
        }
        prev = ke;
    }
    SteadyOutcome {
        steps,
        converged: false,
        diverged: false,
    }
}

/// Writes `(x, value)` rows as CSV.
pub fn write_profile_csv(path: impl AsRef<Path>, header: &str, rows: &[(f64, f64)]) -> IoResult<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{header}")?;
    for (x, v) in rows {
        writeln!(w, "{x},{v}")?;
    }
    w.flush()
}

/// Writes a generic table: one header line, rows of comma-joined values.
pub fn write_table_csv(
    path: impl AsRef<Path>,
    header: &str,
    rows: &[Vec<f64>],
) -> IoResult<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{header}")?;
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        writeln!(w, "{}", line.join(","))?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm_core::{AllWalls, GridSpec, MultiGrid};
    use lbm_lattice::D3Q19;
    use lbm_sparse::Box3;

    fn grid_with(u: [f64; 3]) -> MultiGrid<f64, D3Q19> {
        let spec = GridSpec::uniform(Box3::from_dims(8, 8, 8));
        let mut g = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.0);
        g.init_equilibrium(|_, _| 1.0, move |_, _| u);
        g
    }

    #[test]
    fn kinetic_energy_of_uniform_flow() {
        let g = grid_with([0.1, 0.0, 0.0]);
        let expect = 0.5 * 1.0 * 0.01 * 512.0;
        assert!((kinetic_energy(&g) - expect).abs() < 1e-10);
    }

    fn still_engine() -> lbm_core::Engine<f64, D3Q19, lbm_lattice::Bgk<f64>> {
        use lbm_gpu::{DeviceModel, Executor};
        let spec = GridSpec::uniform(Box3::from_dims(8, 8, 8));
        let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.0);
        let mut eng = lbm_core::Engine::builder(grid)
            .collision(lbm_lattice::Bgk::new(1.0))
            .build(Executor::with_threads(DeviceModel::a100_40gb(), 1));
        eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
        eng
    }

    #[test]
    fn run_to_steady_converges_on_quiescent_flow() {
        // Zero flow in a closed box: kinetic energy stays 0, so the very
        // first chunk satisfies any positive tolerance.
        let mut eng = still_engine();
        let out = run_to_steady(&mut eng, 3, 1e-9, 30);
        assert_eq!(out.steps, 3);
        assert!(out.converged);
        assert!(!out.diverged);
        assert_eq!(eng.coarse_steps(), 3);
        assert!(eng.grid.is_finite());
    }

    #[test]
    fn run_to_steady_respects_max_steps() {
        // tol = 0 is unsatisfiable (the criterion is a strict `<`), so the
        // driver must stop exactly at the cap — without converging.
        let mut eng = still_engine();
        let out = run_to_steady(&mut eng, 2, 0.0, 6);
        assert_eq!(out.steps, 6);
        assert!(!out.converged);
        assert!(!out.diverged);
        assert_eq!(eng.coarse_steps(), 6);
    }

    #[test]
    #[should_panic(expected = "positive check_every")]
    fn run_to_steady_rejects_zero_chunk() {
        // Regression: check_every == 0 used to spin forever (steps never
        // advanced past 0 yet each iteration ran 0 engine steps).
        let mut eng = still_engine();
        let _ = run_to_steady(&mut eng, 0, 1e-9, 30);
    }

    #[test]
    fn run_to_steady_reports_divergence_instead_of_hanging() {
        // Regression: a NaN kinetic energy made the convergence test
        // silently false forever (NaN comparisons), so a diverged run spun
        // until max_steps. Now it is detected and reported at the first
        // checkpoint after the blow-up.
        let mut eng = still_engine();
        eng.grid.levels[0].f.src_mut().set(0, 2, 3, f64::NAN);
        let out = run_to_steady(&mut eng, 2, 1e-9, 1_000_000);
        assert!(out.diverged);
        assert!(!out.converged);
        assert_eq!(out.steps, 2, "divergence must surface at the first check");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("lbm_diag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("profile.csv");
        write_profile_csv(&p, "y,u", &[(0.0, 1.0), (0.5, 2.0)]).unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.starts_with("y,u\n0,1\n0.5,2"));
        let t = dir.join("table.csv");
        write_table_csv(&t, "a,b,c", &[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(std::fs::read_to_string(&t).unwrap().contains("1,2,3"));
    }
}
