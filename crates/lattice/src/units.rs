//! Conversion between physical units and LBM (lattice) units.
//!
//! The paper works entirely in lattice units (`Δx = Δt = 1`, `cs² = 1/3`);
//! this module holds the bookkeeping needed to set up a physically
//! meaningful simulation (choose a Reynolds number and a stable lattice
//! velocity, derive ω) and to convert results back.

use crate::scaling::omega_at_level;

/// Maps a physical problem onto lattice units for a multi-level grid.
///
/// The converter is anchored at the **finest** level: `dx` is the physical
/// size of a finest-level cell and `dt` the physical duration of a
/// finest-level step. Coarser levels follow from the factor-2 scaling.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct UnitConverter {
    /// Physical length of one finest-level lattice spacing \[m\].
    pub dx: f64,
    /// Physical duration of one finest-level time step \[s\].
    pub dt: f64,
    /// Physical mass-density scale \[kg/m³\] mapped to lattice ρ = 1.
    pub rho0: f64,
}

impl UnitConverter {
    /// Builds a converter by prescribing, at the finest level, the lattice
    /// velocity `u_lat` that a physical velocity `u_phys` should map to.
    ///
    /// `u_lat` must stay well below the lattice speed of sound
    /// (`cs ≈ 0.577`) for the weakly compressible approximation; values
    /// around 0.01–0.1 are customary.
    pub fn from_velocity(dx: f64, u_phys: f64, u_lat: f64, rho0: f64) -> Self {
        assert!(dx > 0.0 && u_phys > 0.0 && rho0 > 0.0);
        assert!(
            u_lat > 0.0 && u_lat < 0.4,
            "lattice velocity {u_lat} too large for weak compressibility"
        );
        let dt = u_lat * dx / u_phys;
        Self { dx, dt, rho0 }
    }

    /// Physical → lattice velocity.
    pub fn velocity_to_lattice(&self, u: f64) -> f64 {
        u * self.dt / self.dx
    }

    /// Lattice → physical velocity.
    pub fn velocity_to_physical(&self, u: f64) -> f64 {
        u * self.dx / self.dt
    }

    /// Physical → lattice kinematic viscosity (at the finest level).
    pub fn viscosity_to_lattice(&self, nu: f64) -> f64 {
        nu * self.dt / (self.dx * self.dx)
    }

    /// Lattice → physical kinematic viscosity (at the finest level).
    pub fn viscosity_to_physical(&self, nu: f64) -> f64 {
        nu * self.dx * self.dx / self.dt
    }
}

/// Solves the standard sizing problem: given a target Reynolds number
/// `Re = U·L/ν`, a characteristic length of `l_lat` finest-level cells and a
/// characteristic lattice velocity `u_lat`, returns the lattice viscosity at
/// the finest level and the corresponding relaxation rate ω there.
pub fn relaxation_for_reynolds(re: f64, l_lat: f64, u_lat: f64, cs2: f64) -> (f64, f64) {
    assert!(re > 0.0 && l_lat > 0.0 && u_lat > 0.0);
    let nu_lat = u_lat * l_lat / re;
    let omega = 1.0 / (nu_lat / cs2 + 0.5);
    // ω → 2 means ν → 0: numerically valid but hopelessly under-resolved;
    // keep a small stability margin below the linear limit.
    assert!(
        omega > 0.0 && omega < 1.9999,
        "Re={re} with L={l_lat}, U={u_lat} needs omega={omega}; refine the grid or lower u_lat"
    );
    (nu_lat, omega)
}

/// Same as [`relaxation_for_reynolds`] but when the characteristic length is
/// resolved at the **finest** level of an `n_levels`-deep grid while ω must
/// be reported at the **coarsest** level (paper Eq. 9 convention).
///
/// Returns `(nu_lat_finest, omega_finest, omega0)`.
pub fn relaxation_for_reynolds_multilevel(
    re: f64,
    l_lat_finest: f64,
    u_lat: f64,
    cs2: f64,
    n_levels: u32,
) -> (f64, f64, f64) {
    let (nu, omega_finest) = relaxation_for_reynolds(re, l_lat_finest, u_lat, cs2);
    let omega0 = crate::scaling::omega0_from_level(omega_finest, n_levels - 1);
    (nu, omega_finest, omega0)
}

/// Reynolds number from lattice quantities at a given level.
pub fn reynolds(u_lat: f64, l_lat: f64, omega: f64, cs2: f64, level: u32) -> f64 {
    // Bring ω back to level-local viscosity.
    let omega_l = omega_at_level(omega, level);
    let nu = cs2 * (1.0 / omega_l - 0.5);
    u_lat * l_lat / nu
}

#[cfg(test)]
mod tests {
    use super::*;

    const CS2: f64 = 1.0 / 3.0;

    #[test]
    fn velocity_roundtrip() {
        let c = UnitConverter::from_velocity(0.01, 2.0, 0.05, 1.2);
        let u = c.velocity_to_lattice(2.0);
        assert!((u - 0.05).abs() < 1e-15);
        assert!((c.velocity_to_physical(u) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn viscosity_roundtrip() {
        let c = UnitConverter::from_velocity(0.02, 1.0, 0.1, 1.0);
        let nu_lat = c.viscosity_to_lattice(1.5e-5);
        assert!((c.viscosity_to_physical(nu_lat) - 1.5e-5).abs() < 1e-18);
    }

    #[test]
    fn reynolds_setup_is_consistent() {
        let (nu, omega) = relaxation_for_reynolds(100.0, 96.0, 0.1, CS2);
        assert!((0.1 * 96.0 / nu - 100.0).abs() < 1e-10);
        let back = CS2 * (1.0 / omega - 0.5);
        assert!((back - nu).abs() < 1e-14);
    }

    #[test]
    fn multilevel_setup_respects_eq9() {
        let (_, omega_f, omega0) =
            relaxation_for_reynolds_multilevel(4000.0, 128.0, 0.05, CS2, 3);
        let rebuilt = omega_at_level(omega0, 2);
        assert!((rebuilt - omega_f).abs() < 1e-12);
    }

    #[test]
    fn reynolds_readback() {
        let (_, _, omega0) = relaxation_for_reynolds_multilevel(250.0, 64.0, 0.08, CS2, 2);
        let re = reynolds(0.08, 64.0, omega0, CS2, 1);
        assert!((re - 250.0).abs() < 1e-9, "got {re}");
    }

    #[test]
    #[should_panic(expected = "refine the grid")]
    fn detects_unreachable_reynolds() {
        // Tiny grid + huge Re ⇒ ν too small ⇒ ω ≥ 2.
        let _ = relaxation_for_reynolds(1e9, 8.0, 0.01, CS2);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn rejects_supersonic_mapping() {
        let _ = UnitConverter::from_velocity(0.01, 1.0, 0.9, 1.0);
    }
}
