//! Single-relaxation-time Bhatnagar–Gross–Krook collision (paper Eq. 3).

use super::Collision;
use crate::equilibrium::equilibrium_lanes;
use crate::moments::density_velocity_lanes;
use crate::real::Real;
use crate::velocity_set::{VelocitySet, MAX_Q};

/// BGK operator: `f* = f − ω (f − f^eq)` with `ω = Δt/τ`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Bgk<T> {
    omega: T,
}

impl<T: Real> Bgk<T> {
    /// Creates the operator from the relaxation rate `ω ∈ (0, 2)`.
    ///
    /// # Panics
    /// Panics if `ω` is outside the linearly stable range `(0, 2)`.
    pub fn new(omega: T) -> Self {
        let w = omega.to_f64();
        assert!(w > 0.0 && w < 2.0, "BGK omega {w} outside stable range (0, 2)");
        Self { omega }
    }

    /// Creates the operator from the lattice kinematic viscosity
    /// `ν = cs²(1/ω − 1/2)` of the target level.
    pub fn from_viscosity<V: VelocitySet>(nu: T) -> Self {
        let nu = nu.to_f64();
        assert!(nu > 0.0, "viscosity must be positive, got {nu}");
        let omega = 1.0 / (nu / V::CS2 + 0.5);
        Self::new(T::from_f64(omega))
    }
}

impl<T: Real, V: VelocitySet> Collision<T, V> for Bgk<T> {
    #[inline(always)]
    fn collide_lanes<const N: usize>(&self, f: &mut [[T; N]; MAX_Q]) {
        let (rho, u) = density_velocity_lanes::<T, V, N>(f);
        let mut feq = [[T::ZERO; N]; MAX_Q];
        equilibrium_lanes::<T, V, N>(&rho, &u, &mut feq);
        let om = self.omega;
        for_each_dir!(V, |I| {
            for l in 0..N {
                f[I][l] -= om * (f[I][l] - feq[I][l]);
            }
        });
    }

    #[inline(always)]
    fn omega(&self) -> T {
        self.omega
    }

    fn with_omega(&self, omega: T) -> Self {
        Self::new(omega)
    }

    fn name(&self) -> &'static str {
        "BGK"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::density_velocity;
    use crate::velocity_set::{D3Q19, D3Q27};

    #[test]
    fn conserves_mass_and_momentum() {
        let op = Bgk::new(1.3_f64);
        let mut f = [0.0; MAX_Q];
        for (i, fi) in f.iter_mut().enumerate().take(D3Q19::Q) {
            *fi = D3Q19::W[i] * (1.0 + 0.1 * ((i * 7 % 5) as f64 - 2.0));
        }
        let (rho0, u0) = density_velocity::<f64, D3Q19>(&f[..]);
        Collision::<f64, D3Q19>::collide(&op, &mut f);
        let (rho1, u1) = density_velocity::<f64, D3Q19>(&f[..]);
        assert!((rho0 - rho1).abs() < 1e-14);
        for a in 0..3 {
            assert!((u0[a] - u1[a]).abs() < 1e-14);
        }
    }

    #[test]
    fn equilibrium_is_fixed_point() {
        let op = Bgk::new(0.8_f64);
        let mut f = [0.0; MAX_Q];
        crate::equilibrium::equilibrium::<f64, D3Q27>(1.0, [0.03, 0.02, -0.04], &mut f);
        let before = f;
        Collision::<f64, D3Q27>::collide(&op, &mut f);
        for (a, b) in f.iter().zip(&before).take(D3Q27::Q) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn omega_one_jumps_to_equilibrium() {
        let op = Bgk::new(1.0_f64);
        let mut f = [0.0; MAX_Q];
        for (i, fi) in f.iter_mut().enumerate().take(D3Q19::Q) {
            *fi = D3Q19::W[i] + 0.01 * ((i % 3) as f64 - 1.0) * D3Q19::W[i];
        }
        let (rho, u) = density_velocity::<f64, D3Q19>(&f[..]);
        Collision::<f64, D3Q19>::collide(&op, &mut f);
        let mut feq = [0.0; MAX_Q];
        crate::equilibrium::equilibrium::<f64, D3Q19>(rho, u, &mut feq);
        for (a, b) in f.iter().zip(&feq).take(D3Q19::Q) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn viscosity_roundtrip() {
        let nu = 0.02_f64;
        let op = Bgk::from_viscosity::<D3Q19>(nu);
        let om = Collision::<f64, D3Q19>::omega(&op);
        let back = D3Q19::CS2 * (1.0 / om - 0.5);
        assert!((back - nu).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "outside stable range")]
    fn rejects_unstable_omega() {
        let _ = Bgk::new(2.5_f64);
    }
}
