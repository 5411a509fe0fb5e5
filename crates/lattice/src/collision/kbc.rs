//! Entropic multi-relaxation KBC collision (Karlin–Bösch–Chikatamarla,
//! paper ref. [18]).
//!
//! The distribution is split as `f = f^eq + Δs + Δh`, where `Δs` is the
//! shear (traceless second-moment) part of the non-equilibrium and `Δh` is
//! the remaining higher-order part. The shear part relaxes with the
//! viscosity-setting rate `2β = ω`, while the higher-order part relaxes with
//! `γβ`, where the stabilizer
//!
//! ```text
//! γ = 1/β − (2 − 1/β) · ⟨Δs|Δh⟩ / ⟨Δh|Δh⟩,   ⟨x|y⟩ = Σ_i x_i y_i / f_i^eq
//! ```
//!
//! is chosen per cell by maximizing the discrete entropy. When
//! `⟨Δh|Δh⟩ → 0` the operator degenerates gracefully to BGK (`γ = 2`).
//!
//! The paper uses this model with D3Q27 only ("compatible only with D3Q27
//! lattice", §VI), and so does the type system: [`Kbc`] implements
//! [`Collision`] for [`D3Q27`] alone.

use super::Collision;
use crate::equilibrium::equilibrium_lanes;
use crate::lanes::signed_sum;
use crate::moments::{density_velocity_lanes, second_moment_lanes};
use crate::real::Real;
use crate::velocity_set::{VelocitySet, D3Q27, MAX_Q};

/// KBC entropic multi-relaxation operator.
///
/// A collision operator on [`D3Q27`] only; any other lattice is rejected
/// at compile time:
///
/// ```compile_fail
/// use lbm_lattice::{Collision, Kbc, D3Q19, MAX_Q};
/// let mut f = [0.0_f64; MAX_Q];
/// Collision::<f64, D3Q19>::collide(&Kbc::new(1.0_f64), &mut f);
/// ```
///
/// ```
/// use lbm_lattice::{Collision, Kbc, D3Q27, MAX_Q};
/// let mut f = [0.0_f64; MAX_Q];
/// lbm_lattice::equilibrium::<f64, D3Q27>(1.0, [0.01, 0.0, 0.0], &mut f);
/// Collision::<f64, D3Q27>::collide(&Kbc::new(1.0_f64), &mut f);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Kbc<T> {
    omega: T,
}

impl<T: Real> Kbc<T> {
    /// Creates the operator from the relaxation rate `ω = 2β ∈ (0, 2)`.
    ///
    /// # Panics
    /// Panics if `ω` is outside `(0, 2)`.
    pub fn new(omega: T) -> Self {
        let w = omega.to_f64();
        assert!(w > 0.0 && w < 2.0, "KBC omega {w} outside stable range (0, 2)");
        Self { omega }
    }

    /// Creates the operator from the lattice kinematic viscosity of the
    /// target level, `ν = cs²(1/ω − 1/2)`.
    pub fn from_viscosity(nu: T) -> Self {
        let nu = nu.to_f64();
        assert!(nu > 0.0, "viscosity must be positive, got {nu}");
        Self::new(T::from_f64(1.0 / (nu / D3Q27::CS2 + 0.5)))
    }
}

impl<T: Real> Collision<T, D3Q27> for Kbc<T> {
    #[inline(always)]
    fn collide_lanes<const N: usize>(&self, f: &mut [[T; N]; MAX_Q]) {
        type V = D3Q27;
        let (rho, u) = density_velocity_lanes::<T, V, N>(f);
        let mut feq = [[T::ZERO; N]; MAX_Q];
        equilibrium_lanes::<T, V, N>(&rho, &u, &mut feq);

        // Non-equilibrium part; it becomes Δh = f − f^eq − Δs below.
        let mut dh = [[T::ZERO; N]; MAX_Q];
        for_each_dir!(V, |I| {
            for l in 0..N {
                dh[I][l] = f[I][l] - feq[I][l];
            }
        });

        // Traceless non-equilibrium stress Π̄ (shear tensor); the trace is a
        // higher-order (energy) mode and stays in Δh.
        let pi = second_moment_lanes::<T, V, N>(&dh);
        let third = T::from_f64(1.0 / 3.0);
        let mut diag = [[T::ZERO; N]; 3]; // xx, yy, zz
        for l in 0..N {
            let tr = (pi[0][l] + pi[1][l] + pi[2][l]) * third;
            for a in 0..3 {
                diag[a][l] = pi[a][l] - tr;
            }
        }
        let off = [pi[3], pi[4], pi[5]]; // xy, xz, yz

        // Δs_i = w_i/(2cs⁴) Σ_ab c_ia c_ib Π̄_ab (cs²δ term drops: Π̄
        // traceless). Every c_ia c_ib is ±1 or 0, so each sum is adds and
        // subtracts of the nonzero terms (`signed_sum`); the rest direction
        // (index 0) has none, so Δs_0 = 0 and its Δs terms are skipped. The
        // same pass accumulates the entropic inner products ⟨Δs|Δh⟩ and
        // ⟨Δh|Δh⟩.
        let half_inv_cs4 = T::from_f64(0.5 / (V::CS2 * V::CS2));
        let two = T::from_f64(2.0);
        let mut ds = [[T::ZERO; N]; MAX_Q];
        let mut sh = [T::ZERO; N];
        let mut hh = [T::ZERO; N];
        for_each_dir!(V, |I| {
            let [cx, cy, cz] = V::C[I];
            let sq = signed_sum([cx * cx, cy * cy, cz * cz], &diag);
            let cross = signed_sum([cx * cy, cx * cz, cy * cz], &off);
            let w = T::from_f64(V::W[I]);
            for l in 0..N {
                ds[I][l] = w * half_inv_cs4 * (sq[l] + two * cross[l]);
                dh[I][l] -= ds[I][l];
                let inv_feq = T::ONE / feq[I][l];
                if I != 0 {
                    sh[l] += ds[I][l] * dh[I][l] * inv_feq;
                }
                hh[l] += dh[I][l] * dh[I][l] * inv_feq;
            }
        });

        let beta = self.omega * T::from_f64(0.5);
        let inv_beta = T::ONE / beta;
        // Guard: for vanishing higher-order non-equilibrium fall back to
        // γ = 2, which makes KBC identical to BGK. A per-lane select.
        let mut gamma = [T::ZERO; N];
        for l in 0..N {
            gamma[l] = if hh[l].to_f64().abs() < 1e-30 {
                two
            } else {
                inv_beta - (two - inv_beta) * (sh[l] / hh[l])
            };
        }

        for_each_dir!(V, |I| {
            for l in 0..N {
                let relax = if I == 0 {
                    gamma[l] * dh[I][l]
                } else {
                    two * ds[I][l] + gamma[l] * dh[I][l]
                };
                f[I][l] -= beta * relax;
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
        "KBC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collision::Bgk;
    use crate::equilibrium::equilibrium;
    use crate::moments::density_velocity;

    fn perturbed() -> [f64; MAX_Q] {
        let mut f = [0.0; MAX_Q];
        for (i, fi) in f.iter_mut().enumerate().take(D3Q27::Q) {
            *fi = D3Q27::W[i] * (1.0 + 0.05 * ((i * 13 % 7) as f64 - 3.0));
        }
        f
    }

    #[test]
    fn conserves_mass_and_momentum() {
        let op = Kbc::new(1.7_f64);
        let mut f = perturbed();
        let (rho0, u0) = density_velocity::<f64, D3Q27>(&f[..]);
        Collision::<f64, D3Q27>::collide(&op, &mut f);
        let (rho1, u1) = density_velocity::<f64, D3Q27>(&f[..]);
        assert!((rho0 - rho1).abs() < 1e-13);
        for a in 0..3 {
            assert!((u0[a] - u1[a]).abs() < 1e-13, "momentum[{a}] drifted");
        }
    }

    #[test]
    fn equilibrium_is_fixed_point() {
        let op = Kbc::new(1.2_f64);
        let mut f = [0.0; MAX_Q];
        equilibrium::<f64, D3Q27>(1.0, [0.02, -0.05, 0.01], &mut f);
        let before = f;
        Collision::<f64, D3Q27>::collide(&op, &mut f);
        for i in 0..D3Q27::Q {
            assert!((f[i] - before[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn pure_shear_matches_bgk() {
        // When the non-equilibrium is purely in the traceless second moment,
        // Δh = 0 and KBC must coincide with BGK regardless of γ.
        let omega = 1.4_f64;
        let kbc = Kbc::new(omega);
        let bgk = Bgk::new(omega);

        let rho = 1.0;
        let u = [0.0; 3];
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, D3Q27>(rho, u, &mut feq);
        // Construct Δs directly from an arbitrary traceless symmetric tensor.
        let (pxx, pyy, pxy, pxz, pyz) = (0.002, -0.0015, 0.0008, -0.0004, 0.0011);
        let pzz = -(pxx + pyy);
        let mut f_kbc = [0.0; MAX_Q];
        for i in 0..D3Q27::Q {
            let c = D3Q27::C[i];
            let (cx, cy, cz) = (c[0] as f64, c[1] as f64, c[2] as f64);
            let quad = cx * cx * pxx + cy * cy * pyy + cz * cz * pzz
                + 2.0 * (cx * cy * pxy + cx * cz * pxz + cy * cz * pyz);
            f_kbc[i] = feq[i] + D3Q27::W[i] * quad / (2.0 * D3Q27::CS2 * D3Q27::CS2);
        }
        let mut f_bgk = f_kbc;
        Collision::<f64, D3Q27>::collide(&kbc, &mut f_kbc);
        Collision::<f64, D3Q27>::collide(&bgk, &mut f_bgk);
        for i in 0..D3Q27::Q {
            assert!(
                (f_kbc[i] - f_bgk[i]).abs() < 1e-12,
                "direction {i}: kbc {} vs bgk {}",
                f_kbc[i],
                f_bgk[i]
            );
        }
    }

    #[test]
    fn stabilizer_reduces_higher_order_growth() {
        // Drive a strongly non-equilibrium state through both operators at a
        // near-inviscid rate; KBC's entropic estimate must keep populations
        // finite where it applies a different higher-order damping.
        let omega = 1.99_f64;
        let kbc = Kbc::new(omega);
        let mut f = perturbed();
        for _ in 0..100 {
            Collision::<f64, D3Q27>::collide(&kbc, &mut f);
            // Without streaming this should converge toward equilibrium.
        }
        for (i, &fi) in f.iter().enumerate().take(D3Q27::Q) {
            assert!(fi.is_finite());
            assert!(fi > 0.0, "population {i} went non-positive: {fi}");
        }
    }
}
