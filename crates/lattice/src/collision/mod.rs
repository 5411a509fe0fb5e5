//! Collision operators `C` (paper Eq. 1).
//!
//! Two operators match the paper's experiments — [`Bgk`] (single
//! relaxation time, lid-driven cavity / laminar cases) and [`Kbc`]
//! (entropic multi-relaxation of Karlin–Bösch–Chikatamarla, turbulent
//! wind-tunnel cases; defined on the full D3Q27 lattice only).
//!
//! Each operator has one arithmetic body, [`Collision::collide_lanes`],
//! generic over a lane count `N`: it relaxes `N` independent cells at once,
//! the host analogue of a GPU warp relaxing adjacent cells of a block in
//! lockstep. [`Collision::collide`] is its one-lane instance.

mod bgk;
mod kbc;

pub use bgk::Bgk;
pub use kbc::Kbc;

use crate::lanes::one_lane;
use crate::real::Real;
use crate::velocity_set::{VelocitySet, MAX_Q};

/// A local collision operator: maps pre-collision populations to
/// post-collision populations in place.
///
/// Implementations are `Copy` value types parameterized by the relaxation
/// rate so each refinement level can carry its own instance (ω varies per
/// level, paper Eq. 9).
pub trait Collision<T: Real, V: VelocitySet>: Copy + Send + Sync + 'static {
    /// Applies the operator to `N` cells at once, in place: lane `l` of
    /// `f[i]` is population `i` of cell `l`, for `i < V::Q`.
    ///
    /// Lanes are independent, and each lane performs exactly the
    /// floating-point operations of a one-lane call in the same order, so
    /// the result does not depend on `N` or on the other lanes' contents.
    fn collide_lanes<const N: usize>(&self, f: &mut [[T; N]; MAX_Q]);

    /// Applies the operator to one cell's `f[..V::Q]` in place (the
    /// one-lane instance of [`Collision::collide_lanes`]).
    #[inline(always)]
    fn collide(&self, f: &mut [T; MAX_Q]) {
        let mut lanes = one_lane::<T, V>(f);
        self.collide_lanes(&mut lanes);
        for i in 0..V::Q {
            f[i] = lanes[i][0];
        }
    }

    /// Relaxation rate ω = Δt/τ this instance was built with.
    fn omega(&self) -> T;

    /// Rebuilds the operator with a different relaxation rate (used when
    /// instantiating per-level operators from the level-0 rate).
    fn with_omega(&self, omega: T) -> Self;

    /// Operator name for reports ("BGK", "KBC").
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::equilibrium;
    use crate::velocity_set::{D3Q19, D3Q27};

    /// Eight cells in lane layout: random near-equilibrium states (density
    /// and velocity drawn per cell, every population perturbed by up to
    /// ±5 %), except lane 3, which sits at exact equilibrium — there the
    /// KBC higher-order norm vanishes and the `γ = 2` branch is taken next
    /// to lanes that take the entropic one.
    fn lanes<V: VelocitySet>(seed: u64) -> [[f64; 8]; MAX_Q] {
        let mut state = seed;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5 // [−0.5, 0.5)
        };
        let mut f = [[0.0; 8]; MAX_Q];
        for l in 0..8 {
            let rho = 1.0 + 0.1 * next();
            let uz = 0.1 * next();
            let u = [0.1 * next(), 0.1 * next(), uz];
            let mut feq = [0.0; MAX_Q];
            equilibrium::<f64, V>(rho, u, &mut feq);
            for (fi, feq) in f.iter_mut().zip(feq).take(V::Q) {
                let jitter = if l == 3 { 0.0 } else { 0.1 * next() };
                fi[l] = feq * (1.0 + jitter);
            }
        }
        f
    }

    /// `collide_lanes::<8>` equals eight independent `collide` calls bit
    /// for bit.
    fn lanes_match_scalar<V: VelocitySet, C: Collision<f64, V>>(op: C) {
        for seed in [0x9E37_79B9_7F4A_7C15u64, 7, 1 << 40] {
            let mut f = lanes::<V>(seed);
            let before = f;
            op.collide_lanes(&mut f);
            for l in 0..8 {
                let mut one = [0.0; MAX_Q];
                for i in 0..V::Q {
                    one[i] = before[i][l];
                }
                op.collide(&mut one);
                for i in 0..V::Q {
                    assert_eq!(
                        f[i][l].to_bits(),
                        one[i].to_bits(),
                        "{} {}: lane {l} direction {i}: {} vs {}",
                        op.name(),
                        V::NAME,
                        f[i][l],
                        one[i]
                    );
                }
            }
        }
    }

    #[test]
    fn bgk_lanes_match_scalar() {
        lanes_match_scalar::<D3Q19, _>(Bgk::new(1.7));
        lanes_match_scalar::<D3Q27, _>(Bgk::new(0.9));
    }

    #[test]
    fn kbc_lanes_match_scalar() {
        lanes_match_scalar::<D3Q27, _>(Kbc::new(1.9));
        lanes_match_scalar::<D3Q27, _>(Kbc::new(1.1));
    }
}
