//! Macroscopic moments of the distribution functions (paper Eqs. 6–7).

use crate::lanes::{add_signed, one_lane};
use crate::real::Real;
use crate::velocity_set::{VelocitySet, MAX_Q};

/// Density `ρ = Σ_i f_i` (Eq. 6).
#[inline(always)]
pub fn density<T: Real, V: VelocitySet>(f: &[T]) -> T {
    let mut rho = T::ZERO;
    #[allow(clippy::needless_range_loop)] // f.len() may exceed V::Q
    for i in 0..V::Q {
        rho += f[i];
    }
    rho
}

/// Momentum `ρu = Σ_i e_i f_i` (numerator of Eq. 7).
///
/// Uses multiplications by ±1/0 rather than branches: after unrolling the
/// constants fold and the loop vectorizes.
#[inline(always)]
pub fn momentum<T: Real, V: VelocitySet>(f: &[T]) -> [T; 3] {
    let mut m = [T::ZERO; 3];
    #[allow(clippy::needless_range_loop)] // indexes parallel constant tables
    for i in 0..V::Q {
        let c = V::C[i];
        m[0] += T::from_f64(c[0] as f64) * f[i];
        m[1] += T::from_f64(c[1] as f64) * f[i];
        m[2] += T::from_f64(c[2] as f64) * f[i];
    }
    m
}

/// Density and velocity in one pass: `u = (Σ e_i f_i)/ρ` (Eqs. 6–7).
/// The one-lane instance of [`density_velocity_lanes`].
#[inline(always)]
pub fn density_velocity<T: Real, V: VelocitySet>(f: &[T]) -> (T, [T; 3]) {
    let (rho, u) = density_velocity_lanes::<T, V, 1>(&one_lane::<T, V>(f));
    (rho[0], u.map(|[v]| v))
}

/// [`density_velocity`] of `N` cells at once: lane `l` of `f[i]` is
/// population `i` of cell `l`. The direction loop is unrolled and the
/// momentum adds or subtracts `f_i` per nonzero component of `e_i` (the
/// zero terms only ever added `±0` to a sum that starts at `+0`).
#[inline(always)]
pub fn density_velocity_lanes<T: Real, V: VelocitySet, const N: usize>(
    f: &[[T; N]; MAX_Q],
) -> ([T; N], [[T; N]; 3]) {
    let mut rho = [T::ZERO; N];
    let mut m = [[T::ZERO; N]; 3];
    for_each_dir!(V, |I| {
        let [cx, cy, cz] = V::C[I];
        add_signed(&mut rho, 1, &f[I]);
        add_signed(&mut m[0], cx, &f[I]);
        add_signed(&mut m[1], cy, &f[I]);
        add_signed(&mut m[2], cz, &f[I]);
    });
    let mut u = [[T::ZERO; N]; 3];
    for l in 0..N {
        let inv = T::ONE / rho[l];
        for a in 0..3 {
            u[a][l] = m[a][l] * inv;
        }
    }
    (rho, u)
}

/// Full second-moment tensor `Π_ab = Σ_i e_ia e_ib f_i`, returned in
/// symmetric packing `[xx, yy, zz, xy, xz, yz]`.
///
/// Applied to `f − f^eq` this yields the non-equilibrium stress used by the
/// KBC collision operator and by strain-rate diagnostics. The one-lane
/// instance of [`second_moment_lanes`].
#[inline(always)]
pub fn second_moment<T: Real, V: VelocitySet>(f: &[T]) -> [T; 6] {
    second_moment_lanes::<T, V, 1>(&one_lane::<T, V>(f)).map(|[v]| v)
}

/// [`second_moment`] of `N` cells at once. Each `e_ia e_ib ∈ {−1, 0, 1}`,
/// so every component adds, subtracts or skips `f_i`.
#[inline(always)]
pub fn second_moment_lanes<T: Real, V: VelocitySet, const N: usize>(
    f: &[[T; N]; MAX_Q],
) -> [[T; N]; 6] {
    let mut pi = [[T::ZERO; N]; 6];
    for_each_dir!(V, |I| {
        let [cx, cy, cz] = V::C[I];
        add_signed(&mut pi[0], cx * cx, &f[I]);
        add_signed(&mut pi[1], cy * cy, &f[I]);
        add_signed(&mut pi[2], cz * cz, &f[I]);
        add_signed(&mut pi[3], cx * cy, &f[I]);
        add_signed(&mut pi[4], cx * cz, &f[I]);
        add_signed(&mut pi[5], cy * cz, &f[I]);
    });
    pi
}

/// Velocity magnitude `‖u‖`.
#[inline(always)]
pub fn speed<T: Real>(u: [T; 3]) -> T {
    (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::equilibrium;
    use crate::velocity_set::{D3Q19, D3Q27, MAX_Q};

    #[test]
    fn moments_of_equilibrium() {
        let rho = 1.23;
        let u = [0.02, 0.05, -0.01];
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, D3Q27>(rho, u, &mut feq);
        let (r, v) = density_velocity::<f64, D3Q27>(&feq);
        assert!((r - rho).abs() < 1e-13);
        for a in 0..3 {
            assert!((v[a] - u[a]).abs() < 1e-14);
        }
    }

    #[test]
    fn second_moment_of_equilibrium() {
        let rho = 0.97;
        let u = [0.06, -0.04, 0.02];
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, D3Q19>(rho, u, &mut feq);
        let pi = second_moment::<f64, D3Q19>(&feq);
        let cs2 = D3Q19::CS2;
        let expect = [
            rho * (cs2 + u[0] * u[0]),
            rho * (cs2 + u[1] * u[1]),
            rho * (cs2 + u[2] * u[2]),
            rho * u[0] * u[1],
            rho * u[0] * u[2],
            rho * u[1] * u[2],
        ];
        for k in 0..6 {
            assert!(
                (pi[k] - expect[k]).abs() < 1e-13,
                "Pi[{k}] = {}, expected {}",
                pi[k],
                expect[k]
            );
        }
    }

    #[test]
    fn second_moment_matches_naive() {
        // Compare the branchy packed implementation against the obvious
        // triple product on an arbitrary (non-equilibrium) vector.
        let f: Vec<f64> = (0..D3Q27::Q).map(|i| 0.01 + 0.003 * i as f64).collect();
        let pi = second_moment::<f64, D3Q27>(&f);
        let pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)];
        for (k, (a, b)) in pairs.iter().enumerate() {
            let naive: f64 = (0..D3Q27::Q)
                .map(|i| f[i] * (D3Q27::C[i][*a] * D3Q27::C[i][*b]) as f64)
                .sum();
            assert!((pi[k] - naive).abs() < 1e-14);
        }
    }

    #[test]
    fn speed_is_euclidean_norm() {
        assert!((speed([3.0_f64, 4.0, 12.0]) - 13.0).abs() < 1e-15);
    }
}
