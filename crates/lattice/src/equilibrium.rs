//! Second-order Maxwell–Boltzmann equilibrium (paper Eq. 5).

use crate::lanes::signed_sum;
use crate::real::Real;
use crate::velocity_set::{VelocitySet, MAX_Q};

/// Computes the full equilibrium vector
/// `f_i^eq = w_i ρ [1 + (e_i·u)/cs² + (e_i·u)²/(2cs⁴) − u²/(2cs²)]`
/// into `out[..V::Q]`.
///
/// `out` is a `MAX_Q`-sized register buffer; entries past `V::Q` are left
/// untouched so callers can reuse one buffer across lattices. This is the
/// one-lane instance of [`equilibrium_lanes`].
#[inline(always)]
pub fn equilibrium<T: Real, V: VelocitySet>(rho: T, u: [T; 3], out: &mut [T; MAX_Q]) {
    let mut lanes = [[T::ZERO; 1]; MAX_Q];
    equilibrium_lanes::<T, V, 1>(&[rho], &[[u[0]], [u[1]], [u[2]]], &mut lanes);
    for i in 0..V::Q {
        out[i] = lanes[i][0];
    }
}

/// [`equilibrium`] of `N` cells at once: lane `l` of `rho`, `u[a]` and
/// `out[i]` belongs to cell `l`. The direction loop is unrolled, so
/// `e_i·u` is a signed sum of velocity components (as in [`ci_dot_u`]).
#[inline(always)]
pub fn equilibrium_lanes<T: Real, V: VelocitySet, const N: usize>(
    rho: &[T; N],
    u: &[[T; N]; 3],
    out: &mut [[T; N]; MAX_Q],
) {
    let inv_cs2 = T::from_f64(1.0 / V::CS2);
    let half_inv_cs4 = T::from_f64(0.5 / (V::CS2 * V::CS2));
    let half_inv_cs2 = T::from_f64(0.5 / V::CS2);
    let mut common = [T::ZERO; N];
    for l in 0..N {
        let usq = u[0][l] * u[0][l] + u[1][l] * u[1][l] + u[2][l] * u[2][l];
        common[l] = T::ONE - half_inv_cs2 * usq;
    }
    for_each_dir!(V, |I| {
        let w = T::from_f64(V::W[I]);
        let cu = signed_sum(V::C[I], u);
        for l in 0..N {
            out[I][l] = w * rho[l] * (common[l] + inv_cs2 * cu[l] + half_inv_cs4 * cu[l] * cu[l]);
        }
    });
}

/// Single-direction equilibrium; used by boundary conditions that only need
/// a few directions (e.g. the moving-wall momentum correction).
#[inline(always)]
pub fn equilibrium_dir<T: Real, V: VelocitySet>(i: usize, rho: T, u: [T; 3]) -> T {
    let inv_cs2 = T::from_f64(1.0 / V::CS2);
    let half_inv_cs4 = T::from_f64(0.5 / (V::CS2 * V::CS2));
    let half_inv_cs2 = T::from_f64(0.5 / V::CS2);
    let usq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
    let cu = ci_dot_u::<T, V>(i, u);
    T::from_f64(V::W[i]) * rho * (T::ONE - half_inv_cs2 * usq + inv_cs2 * cu + half_inv_cs4 * cu * cu)
}

/// Dot product `e_i · u` with the integer lattice direction, as a signed
/// sum of velocity components.
#[inline(always)]
pub fn ci_dot_u<T: Real, V: VelocitySet>(i: usize, u: [T; 3]) -> T {
    signed_sum(V::C[i], &[[u[0]], [u[1]], [u[2]]])[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::{density, momentum};
    use crate::velocity_set::{D2Q9, D3Q19, D3Q27};

    fn conserves_moments<V: VelocitySet>() {
        let rho = 1.07_f64;
        let u = [0.05, -0.03, if V::D == 3 { 0.02 } else { 0.0 }];
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, V>(rho, u, &mut feq);
        // Zeroth moment: density.
        let r = density::<f64, V>(&feq);
        assert!((r - rho).abs() < 1e-13, "{}: rho {r}", V::NAME);
        // First moment: momentum ρu.
        let m = momentum::<f64, V>(&feq);
        for a in 0..3 {
            assert!(
                (m[a] - rho * u[a]).abs() < 1e-13,
                "{}: momentum[{a}] = {}, expected {}",
                V::NAME,
                m[a],
                rho * u[a]
            );
        }
        // Second moment: Π_ab^eq = ρ(cs²δ_ab + u_a u_b).
        for a in 0..3 {
            for b in 0..3 {
                let pi: f64 = (0..V::Q)
                    .map(|i| feq[i] * (V::C[i][a] * V::C[i][b]) as f64)
                    .sum();
                let del = if a == b { V::CS2 } else { 0.0 };
                // z-moments vanish for 2D sets.
                let expect = if V::D == 2 && (a == 2 || b == 2) {
                    0.0
                } else {
                    rho * (del + u[a] * u[b])
                };
                assert!(
                    (pi - expect).abs() < 1e-13,
                    "{}: Pi[{a}{b}] = {pi}, expected {expect}",
                    V::NAME
                );
            }
        }
    }

    #[test]
    fn equilibrium_moments_d2q9() {
        conserves_moments::<D2Q9>();
    }
    #[test]
    fn equilibrium_moments_d3q19() {
        conserves_moments::<D3Q19>();
    }
    #[test]
    fn equilibrium_moments_d3q27() {
        conserves_moments::<D3Q27>();
    }

    #[test]
    fn rest_state_equals_weights() {
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, D3Q19>(1.0, [0.0; 3], &mut feq);
        for i in 0..D3Q19::Q {
            assert!((feq[i] - D3Q19::W[i]).abs() < 1e-16);
        }
    }

    #[test]
    fn dir_equilibrium_matches_full() {
        let rho = 0.93;
        let u = [0.04, 0.01, -0.06];
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, D3Q27>(rho, u, &mut feq);
        for i in 0..D3Q27::Q {
            assert!((equilibrium_dir::<f64, D3Q27>(i, rho, u) - feq[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn f32_matches_f64_loosely() {
        let mut a = [0.0f64; MAX_Q];
        let mut b = [0.0f32; MAX_Q];
        equilibrium::<f64, D3Q19>(1.0, [0.08, -0.02, 0.03], &mut a);
        equilibrium::<f32, D3Q19>(1.0, [0.08, -0.02, 0.03], &mut b);
        for i in 0..D3Q19::Q {
            assert!((a[i] - b[i] as f64).abs() < 1e-6);
        }
    }
}
