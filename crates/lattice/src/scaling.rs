//! Acoustic scaling of relaxation rates across refinement levels
//! (paper §II-A, Eq. 9), and the Reynolds-number sizing of a multi-level
//! grid built on it.
//!
//! With a refinement ratio of 2, `Δx_{L+1} = Δx_L/2` and — because the
//! lattice speed of sound must stay constant across levels —
//! `Δt_{L+1} = Δt_L/2`. Keeping the physical kinematic viscosity constant
//! then fixes the per-level relaxation rate:
//!
//! ```text
//! ω_L = 2 ω_0 / (2^{L+1} + (1 − 2^L) ω_0)
//! ```

/// Relaxation rate at refinement level `level` given the rate `omega0` at
/// the coarsest level (paper Eq. 9). `level = 0` returns `omega0`.
///
/// # Panics
/// Panics if `omega0` is outside the stable range `(0, 2)` or if the scaled
/// rate would leave it (which cannot happen for valid inputs: ω decreases
/// monotonically with level).
pub fn omega_at_level(omega0: f64, level: u32) -> f64 {
    assert!(
        omega0 > 0.0 && omega0 < 2.0,
        "omega0 {omega0} outside stable range (0, 2)"
    );
    let p = 2f64.powi(level as i32);
    let omega = 2.0 * omega0 / (2.0 * p + (1.0 - p) * omega0);
    debug_assert!(omega > 0.0 && omega < 2.0);
    omega
}

/// Lattice viscosity `ν_L = cs²(1/ω_L − 1/2)` measured in the *local* units
/// of level `L` (where `Δx_L = Δt_L = 1`).
///
/// Acoustic scaling implies `ν_L = 2^L ν_0`: the finer the level, the larger
/// its local lattice viscosity.
pub fn lattice_viscosity_at_level(omega0: f64, level: u32, cs2: f64) -> f64 {
    cs2 * (1.0 / omega_at_level(omega0, level) - 0.5)
}

/// Inverse of [`omega_at_level`]: given the rate required at level `level`
/// (e.g. chosen for resolution on the finest grid), the coarsest-level rate.
pub fn omega0_from_level(omega_l: f64, level: u32) -> f64 {
    assert!(
        omega_l > 0.0 && omega_l < 2.0,
        "omega_l {omega_l} outside stable range (0, 2)"
    );
    // Invert ω_L = 2ω0 / (2p + (1−p)ω0) with p = 2^L:
    //   ω_L (2p + (1−p) ω0) = 2 ω0
    //   2p ω_L = ω0 (2 − (1−p) ω_L)
    let p = 2f64.powi(level as i32);
    let omega0 = 2.0 * p * omega_l / (2.0 - (1.0 - p) * omega_l);
    assert!(
        omega0 > 0.0 && omega0 < 2.0,
        "requested fine-level omega {omega_l} needs unstable omega0 {omega0}"
    );
    omega0
}

/// Number of time steps level `L` performs per coarsest-level step:
/// `N_L = 2^L` (paper §III: the finest grid performs `2^{Lmax−1}` steps).
pub fn substeps_at_level(level: u32) -> u64 {
    1u64 << level
}

/// Relaxation *time* ratio `τ_L/Δt_L = 1/ω_L`, the quantity the paper's
/// in-text recurrence `τ_L/Δt_L = 2^L (τ_0/Δt_0) + (1 − 2^L)/2` describes.
pub fn tau_over_dt_at_level(omega0: f64, level: u32) -> f64 {
    1.0 / omega_at_level(omega0, level)
}

/// Solves the standard sizing problem on an `n_levels`-deep grid: given a
/// target Reynolds number `Re = U·L/ν`, a characteristic length of
/// `l_lat_finest` finest-level cells and a characteristic lattice velocity
/// `u_lat`, the lattice viscosity and relaxation rate at the finest level,
/// and the rate `ω0` at the coarsest level (paper Eq. 9 convention).
///
/// Returns `(nu_lat_finest, omega_finest, omega0)`.
///
/// # Panics
/// Panics if the finest-level rate leaves `(0, 1.9999)`: ω → 2 means
/// ν → 0, numerically valid but hopelessly under-resolved.
pub fn relaxation_for_reynolds_multilevel(
    re: f64,
    l_lat_finest: f64,
    u_lat: f64,
    cs2: f64,
    n_levels: u32,
) -> (f64, f64, f64) {
    assert!(re > 0.0 && l_lat_finest > 0.0 && u_lat > 0.0);
    let nu = u_lat * l_lat_finest / re;
    let omega_finest = 1.0 / (nu / cs2 + 0.5);
    assert!(
        omega_finest > 0.0 && omega_finest < 1.9999,
        "Re={re} with L={l_lat_finest}, U={u_lat} needs omega={omega_finest}; refine the grid or lower u_lat"
    );
    let omega0 = omega0_from_level(omega_finest, n_levels - 1);
    (nu, omega_finest, omega0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CS2: f64 = 1.0 / 3.0;

    #[test]
    fn level_zero_is_identity() {
        for &w in &[0.1, 0.5, 1.0, 1.5, 1.99] {
            assert!((omega_at_level(w, 0) - w).abs() < 1e-15);
        }
    }

    #[test]
    fn matches_paper_recurrence() {
        // The paper states τ_L/Δt_L = 2^L (τ_0/Δt_0) + (1 − 2^L)/2.
        for &w0 in &[0.3, 0.9, 1.7] {
            for level in 0..6u32 {
                let p = 2f64.powi(level as i32);
                let expect = p / w0 + 0.5 * (1.0 - p);
                let got = tau_over_dt_at_level(w0, level);
                assert!((got - expect).abs() < 1e-12, "w0={w0} L={level}");
            }
        }
    }

    #[test]
    fn viscosity_doubles_per_level() {
        // ν_L in level-local lattice units must equal 2^L ν_0 (constant
        // physical viscosity under acoustic scaling).
        let w0 = 1.91;
        let nu0 = lattice_viscosity_at_level(w0, 0, CS2);
        for level in 1..8u32 {
            let nu = lattice_viscosity_at_level(w0, level, CS2);
            let expect = nu0 * 2f64.powi(level as i32);
            assert!(
                (nu - expect).abs() < 1e-12 * expect.max(1.0),
                "L={level}: {nu} vs {expect}"
            );
        }
    }

    #[test]
    fn omega_decreases_with_level() {
        let w0 = 1.8;
        let mut prev = omega_at_level(w0, 0);
        for level in 1..10u32 {
            let w = omega_at_level(w0, level);
            assert!(w < prev, "omega must decrease with refinement level");
            assert!(w > 0.0 && w < 2.0);
            prev = w;
        }
    }

    #[test]
    fn substep_counts() {
        assert_eq!(substeps_at_level(0), 1);
        assert_eq!(substeps_at_level(1), 2);
        assert_eq!(substeps_at_level(3), 8);
    }

    #[test]
    fn reynolds_setup_is_consistent() {
        let (nu, omega, omega0) = relaxation_for_reynolds_multilevel(100.0, 96.0, 0.1, CS2, 1);
        assert!((0.1 * 96.0 / nu - 100.0).abs() < 1e-10);
        let back = CS2 * (1.0 / omega - 0.5);
        assert!((back - nu).abs() < 1e-14);
        assert_eq!(omega0, omega);
    }

    #[test]
    fn multilevel_setup_respects_eq9() {
        let (_, omega_f, omega0) =
            relaxation_for_reynolds_multilevel(4000.0, 128.0, 0.05, CS2, 3);
        let rebuilt = omega_at_level(omega0, 2);
        assert!((rebuilt - omega_f).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "refine the grid")]
    fn detects_unreachable_reynolds() {
        // Tiny grid + huge Re ⇒ ν too small ⇒ ω ≥ 2.
        let _ = relaxation_for_reynolds_multilevel(1e9, 8.0, 0.01, CS2, 1);
    }

    #[test]
    #[should_panic(expected = "outside stable range")]
    fn rejects_bad_omega0() {
        let _ = omega_at_level(2.0, 1);
    }

    proptest! {
        /// Round trip: choose ω at the finest level, derive ω0, re-derive ω_L.
        #[test]
        fn omega_roundtrip(omega_l in 0.01f64..1.99, level in 0u32..8) {
            let omega0 = omega0_from_level(omega_l, level);
            let back = omega_at_level(omega0, level);
            prop_assert!((back - omega_l).abs() < 1e-10);
        }

        /// ω_L always stays inside the stable range for stable ω0.
        #[test]
        fn omega_stays_stable(omega0 in 0.01f64..1.99, level in 0u32..12) {
            let w = omega_at_level(omega0, level);
            prop_assert!(w > 0.0 && w < 2.0);
        }

        /// The viscosity-doubling law holds for arbitrary stable ω0.
        #[test]
        fn viscosity_law(omega0 in 0.01f64..1.99, level in 0u32..10) {
            let nu0 = lattice_viscosity_at_level(omega0, 0, CS2);
            let nul = lattice_viscosity_at_level(omega0, level, CS2);
            let expect = nu0 * 2f64.powi(level as i32);
            prop_assert!((nul - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        }
    }
}
