//! Discrete velocity sets (`DdQq` lattices).
//!
//! The paper uses D3Q19 (laminar/BGK experiments) and D3Q27 (turbulent/KBC
//! experiments, since KBC requires the full 27-direction lattice).
//!
//! The ordering convention used everywhere in this workspace is:
//! rest direction first, then face neighbors, then edge neighbors, then
//! (for D3Q27) corner neighbors; opposite directions are adjacent pairs so
//! `OPP` is trivially `i ^ 1` shifted — but we store it explicitly to keep
//! kernels branch-free and the convention changeable.

/// Maximum number of discrete directions over all supported lattices.
///
/// Kernels allocate register buffers of this size (`[T; MAX_Q]`) and use the
/// first `V::Q` entries, which lets them stay generic without const-generic
/// arithmetic.
pub const MAX_Q: usize = 27;

/// A `DdQq` discrete velocity set.
///
/// All tables are `'static` so that generic kernels compile down to
/// fully-unrolled straight-line code for each concrete lattice.
pub trait VelocitySet: Copy + Clone + Default + Send + Sync + 'static {
    /// Number of discrete directions `q`.
    const Q: usize;
    /// Lattice directions `e_i` (unit cell offsets).
    const C: &'static [[i32; 3]];
    /// Lattice weights `w_i`, summing to 1.
    const W: &'static [f64];
    /// Index of the opposite direction: `C[OPP[i]] == -C[i]`.
    const OPP: &'static [usize];
    /// Squared lattice speed of sound, `c_s² = 1/3` in lattice units.
    const CS2: f64 = 1.0 / 3.0;
    /// Human-readable lattice name (e.g. `"D3Q19"`).
    const NAME: &'static str;

    /// Runtime lookup of the direction index for a given offset.
    ///
    /// Linear scan over at most 27 entries; only used during grid setup,
    /// never inside compute kernels.
    fn index_of(c: [i32; 3]) -> Option<usize> {
        Self::C.iter().position(|&ci| ci == c)
    }
}

/// The D3Q19 lattice (3D, 19 directions): rest + 6 faces + 12 edges.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct D3Q19;

/// The D3Q27 lattice (3D, 27 directions): D3Q19 directions + 8 corners.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct D3Q27;

impl VelocitySet for D3Q19 {
    const Q: usize = 19;
    const C: &'static [[i32; 3]] = &[
        [0, 0, 0],
        // faces
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        // edges
        [1, 1, 0],
        [-1, -1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [1, 0, 1],
        [-1, 0, -1],
        [1, 0, -1],
        [-1, 0, 1],
        [0, 1, 1],
        [0, -1, -1],
        [0, 1, -1],
        [0, -1, 1],
    ];
    #[rustfmt::skip]
    const W: &'static [f64] = &[
        1.0 / 3.0,
        1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0,
        1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
        1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
        1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
    ];
    const OPP: &'static [usize] = &[
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
    ];
    const NAME: &'static str = "D3Q19";
}

impl VelocitySet for D3Q27 {
    const Q: usize = 27;
    const C: &'static [[i32; 3]] = &[
        [0, 0, 0],
        // faces
        [1, 0, 0],
        [-1, 0, 0],
        [0, 1, 0],
        [0, -1, 0],
        [0, 0, 1],
        [0, 0, -1],
        // edges
        [1, 1, 0],
        [-1, -1, 0],
        [1, -1, 0],
        [-1, 1, 0],
        [1, 0, 1],
        [-1, 0, -1],
        [1, 0, -1],
        [-1, 0, 1],
        [0, 1, 1],
        [0, -1, -1],
        [0, 1, -1],
        [0, -1, 1],
        // corners
        [1, 1, 1],
        [-1, -1, -1],
        [1, 1, -1],
        [-1, -1, 1],
        [1, -1, 1],
        [-1, 1, -1],
        [-1, 1, 1],
        [1, -1, -1],
    ];
    #[rustfmt::skip]
    const W: &'static [f64] = &[
        8.0 / 27.0,
        2.0 / 27.0, 2.0 / 27.0, 2.0 / 27.0, 2.0 / 27.0, 2.0 / 27.0, 2.0 / 27.0,
        1.0 / 54.0, 1.0 / 54.0, 1.0 / 54.0, 1.0 / 54.0,
        1.0 / 54.0, 1.0 / 54.0, 1.0 / 54.0, 1.0 / 54.0,
        1.0 / 54.0, 1.0 / 54.0, 1.0 / 54.0, 1.0 / 54.0,
        1.0 / 216.0, 1.0 / 216.0, 1.0 / 216.0, 1.0 / 216.0,
        1.0 / 216.0, 1.0 / 216.0, 1.0 / 216.0, 1.0 / 216.0,
    ];
    const OPP: &'static [usize] = &[
        0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17, 20, 19, 22, 21, 24, 23,
        26, 25,
    ];
    const NAME: &'static str = "D3Q27";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_basic<V: VelocitySet>() {
        assert_eq!(V::C.len(), V::Q);
        assert_eq!(V::W.len(), V::Q);
        assert_eq!(V::OPP.len(), V::Q);
        assert_eq!(V::C[0], [0, 0, 0], "rest direction must come first");
        // Directions are unique.
        for i in 0..V::Q {
            for j in (i + 1)..V::Q {
                assert_ne!(V::C[i], V::C[j], "duplicate direction {i}/{j}");
            }
        }
        // Opposites are consistent and involutive.
        for i in 0..V::Q {
            let o = V::OPP[i];
            assert_eq!(V::OPP[o], i);
            for a in 0..3 {
                assert_eq!(V::C[o][a], -V::C[i][a], "OPP[{i}] not the negation");
            }
        }
    }

    /// Moment conditions required for the Chapman–Enskog expansion to recover
    /// Navier–Stokes: Σw = 1, first/third moments vanish, second moment is
    /// cs²δ, fourth moment is isotropic cs⁴(δδ+δδ+δδ).
    fn check_moments<V: VelocitySet>() {
        let q = V::Q;
        let cs2 = V::CS2;
        let sum_w: f64 = V::W.iter().sum();
        assert!((sum_w - 1.0).abs() < 1e-14, "Σw = {sum_w}");
        for a in 0..3 {
            let m1: f64 = (0..q).map(|i| V::W[i] * V::C[i][a] as f64).sum();
            assert!(m1.abs() < 1e-14, "first moment [{a}] = {m1}");
            for b in 0..3 {
                let m2: f64 = (0..q)
                    .map(|i| V::W[i] * (V::C[i][a] * V::C[i][b]) as f64)
                    .sum();
                let expect = if a == b { cs2 } else { 0.0 };
                assert!((m2 - expect).abs() < 1e-14, "second moment [{a}{b}] = {m2}");
                for c in 0..3 {
                    let m3: f64 = (0..q)
                        .map(|i| V::W[i] * (V::C[i][a] * V::C[i][b] * V::C[i][c]) as f64)
                        .sum();
                    assert!(m3.abs() < 1e-14, "third moment [{a}{b}{c}] = {m3}");
                    for d in 0..3 {
                        let m4: f64 = (0..q)
                            .map(|i| {
                                V::W[i]
                                    * (V::C[i][a] * V::C[i][b] * V::C[i][c] * V::C[i][d]) as f64
                            })
                            .sum();
                        let del = |x: usize, y: usize| if x == y { 1.0 } else { 0.0 };
                        let expect = cs2 * cs2
                            * (del(a, b) * del(c, d) + del(a, c) * del(b, d)
                                + del(a, d) * del(b, c));
                        assert!(
                            (m4 - expect).abs() < 1e-14,
                            "fourth moment [{a}{b}{c}{d}] = {m4}, expected {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn d3q19_basic() {
        check_basic::<D3Q19>();
    }
    #[test]
    fn d3q27_basic() {
        check_basic::<D3Q27>();
    }

    #[test]
    fn d3q19_moments() {
        check_moments::<D3Q19>();
    }
    #[test]
    fn d3q27_moments() {
        check_moments::<D3Q27>();
    }

    #[test]
    fn index_lookup() {
        assert_eq!(D3Q19::index_of([0, 0, 0]), Some(0));
        assert_eq!(D3Q19::index_of([1, 1, 0]), Some(7));
        assert_eq!(D3Q19::index_of([1, 1, 1]), None);
        assert_eq!(D3Q27::index_of([1, 1, 1]), Some(19));
    }

    #[test]
    fn names() {
        assert_eq!(D3Q19::NAME, "D3Q19");
        assert_eq!(D3Q27::NAME, "D3Q27");
    }
}
