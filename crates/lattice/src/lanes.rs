//! Lane helpers shared by the `_lanes` bodies of the moments, the
//! equilibrium and the collision operators. A lane array `[T; N]` holds one
//! value per cell of an `N`-cell group (DESIGN.md §4, "Lane-parallel
//! collision").

use crate::real::Real;
use crate::velocity_set::{VelocitySet, MAX_Q};

/// Expands `$body` once per lattice direction of `$v`, with `$i` bound to
/// the direction index as a `const usize`: the direction loop of the
/// `_lanes` bodies, unrolled at compile time. Indices `0..MAX_Q` are
/// written out and each copy sits behind an `if $i < $v::Q` guard that
/// folds away, so `V::C[$i]` and `V::W[$i]` are constants in every copy and
/// branches on them cost nothing at run time. LLVM does not fully unroll a
/// 27-trip loop with a body this size on its own.
macro_rules! for_each_dir {
    ($v:ty, |$i:ident| $body:block) => {
        for_each_dir!(@expand $v, $i, $body,
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26)
    };
    (@expand $v:ty, $i:ident, $body:block, $($n:literal)*) => {
        $({
            const $i: usize = $n;
            if $i < <$v as $crate::velocity_set::VelocitySet>::Q $body
        })*
    };
}

// `for_each_dir!` writes out exactly `MAX_Q` indices.
const _: () = assert!(MAX_Q == 27);

/// `acc += c·x` lane-wise for a lattice coefficient `c ∈ {−1, 0, 1}`: an
/// add, a subtract, or nothing. Inside `for_each_dir!` the coefficient is a
/// constant and the branch folds away.
#[inline(always)]
pub(crate) fn add_signed<T: Real, const N: usize>(acc: &mut [T; N], c: i32, x: &[T; N]) {
    if c == 1 {
        for l in 0..N {
            acc[l] += x[l];
        }
    } else if c == -1 {
        for l in 0..N {
            acc[l] -= x[l];
        }
    }
}

/// `Σ_a c_a v_a` lane-wise for coefficients `c_a ∈ {−1, 0, 1}`, with the
/// zero terms dropped. The sum starts from `−0`, the exact identity of IEEE
/// addition, so the first term costs nothing once the coefficients are
/// constants. Against the multiply-by-coefficient form
/// `c_0 v_0 + c_1 v_1 + c_2 v_2` the result differs at most in the sign of
/// an exact zero.
#[inline(always)]
pub(crate) fn signed_sum<T: Real, const N: usize>(c: [i32; 3], v: &[[T; N]; 3]) -> [T; N] {
    let mut s = [-T::ZERO; N];
    add_signed(&mut s, c[0], &v[0]);
    add_signed(&mut s, c[1], &v[1]);
    add_signed(&mut s, c[2], &v[2]);
    s
}

/// Copies one cell's `f[..V::Q]` into a one-lane buffer, the input of the
/// one-lane instances.
#[inline(always)]
pub(crate) fn one_lane<T: Real, V: VelocitySet>(f: &[T]) -> [[T; 1]; MAX_Q] {
    let mut lanes = [[T::ZERO; 1]; MAX_Q];
    for (lane, &v) in lanes.iter_mut().zip(&f[..V::Q]) {
        *lane = [v];
    }
    lanes
}
