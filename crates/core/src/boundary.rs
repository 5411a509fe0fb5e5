//! Boundary conditions (paper §VI: halfway bounce-back walls, moving-wall
//! bounce-back for the lid and the inlet, lattice-weight outflow, plus
//! periodic wrapping for the analytic validation flows).

use lbm_sparse::Coord;

/// What a streaming direction whose pull source is missing should do.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Boundary {
    /// Halfway bounce-back (no-slip wall, Ladd / paper ref. \[27\]):
    /// `f_i(x, t+Δt) = f*_ī(x, t)`.
    BounceBack,
    /// Moving-wall bounce-back with prescribed wall velocity (lattice
    /// units): `f_i = f*_ī + 2 w_i ρ₀ (e_i·u_w)/c_s²`. Also used for the
    /// velocity inlet (paper §VI-B).
    MovingWall {
        /// Wall velocity in lattice units of the level the BC applies to.
        velocity: [f64; 3],
    },
    /// Outflow: missing populations take their lattice weights,
    /// `f_i = w_i` (paper §VI-B).
    Outflow,
    /// Periodic wrap along the domain box.
    Periodic,
}

/// Assigns a boundary condition to a missing streaming source.
///
/// Called during grid construction for every real cell whose pull source
/// `src = x − e_i` at the same level is neither an active same-level cell
/// nor resolvable through the level interface. `src` is given in the
/// querying level's own coordinates, together with the level index and the
/// pull direction index `i` (into the velocity set).
pub trait BoundarySpec: Sync {
    /// The boundary treatment for this missing source.
    fn classify(&self, level: u32, src: Coord, dir: usize) -> Boundary;
}

impl<F> BoundarySpec for F
where
    F: Fn(u32, Coord, usize) -> Boundary + Sync,
{
    fn classify(&self, level: u32, src: Coord, dir: usize) -> Boundary {
        self(level, src, dir)
    }
}

/// The simplest spec: every missing source is a resting no-slip wall.
#[derive(Copy, Clone, Debug, Default)]
pub struct AllWalls;

impl BoundarySpec for AllWalls {
    fn classify(&self, _level: u32, _src: Coord, _dir: usize) -> Boundary {
        Boundary::BounceBack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_spec() {
        let spec = |_l: u32, src: Coord, _d: usize| {
            if src.y < 0 {
                Boundary::MovingWall {
                    velocity: [0.1, 0.0, 0.0],
                }
            } else {
                Boundary::BounceBack
            }
        };
        assert_eq!(
            spec.classify(0, Coord::new(0, -1, 0), 3),
            Boundary::MovingWall {
                velocity: [0.1, 0.0, 0.0]
            }
        );
        assert_eq!(spec.classify(0, Coord::new(0, 5, 0), 3), Boundary::BounceBack);
    }

    #[test]
    fn all_walls() {
        assert_eq!(
            AllWalls.classify(2, Coord::new(-1, 0, 0), 1),
            Boundary::BounceBack
        );
    }
}
