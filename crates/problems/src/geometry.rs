//! Signed-distance geometry used to carve obstacles and to drive
//! distance-band refinement (paper §VI-B: "three levels of refinement
//! around the sphere").
//!
//! All distances are measured in **finest-level** lattice units; cell
//! centers at level `l` sit at `(p + ½)·2^(L−1−l)` in finest units.

use lbm_sparse::Coord;

/// A signed distance field: negative inside the solid.
pub trait Sdf: Send + Sync {
    /// Signed distance from a point (finest-level units).
    fn distance(&self, p: [f64; 3]) -> f64;

    /// Axis-aligned bounding box (finest units), used to skip far cells.
    fn bounds(&self) -> ([f64; 3], [f64; 3]);
}

/// A sphere.
#[derive(Copy, Clone, Debug)]
pub struct Sphere {
    /// Center (finest units).
    pub center: [f64; 3],
    /// Radius (finest units).
    pub radius: f64,
}

impl Sdf for Sphere {
    fn distance(&self, p: [f64; 3]) -> f64 {
        let d: f64 = (0..3).map(|a| (p[a] - self.center[a]).powi(2)).sum();
        d.sqrt() - self.radius
    }

    fn bounds(&self) -> ([f64; 3], [f64; 3]) {
        (
            [
                self.center[0] - self.radius,
                self.center[1] - self.radius,
                self.center[2] - self.radius,
            ],
            [
                self.center[0] + self.radius,
                self.center[1] + self.radius,
                self.center[2] + self.radius,
            ],
        )
    }
}

/// A capsule (cylinder with hemispherical caps) along an arbitrary segment.
#[derive(Copy, Clone, Debug)]
pub struct Capsule {
    /// Segment start (finest units).
    pub a: [f64; 3],
    /// Segment end (finest units).
    pub b: [f64; 3],
    /// Radius (finest units).
    pub radius: f64,
}

impl Sdf for Capsule {
    fn distance(&self, p: [f64; 3]) -> f64 {
        let ab: Vec<f64> = (0..3).map(|i| self.b[i] - self.a[i]).collect();
        let ap: Vec<f64> = (0..3).map(|i| p[i] - self.a[i]).collect();
        let denom: f64 = ab.iter().map(|v| v * v).sum();
        let t = if denom > 0.0 {
            (ap.iter().zip(&ab).map(|(x, y)| x * y).sum::<f64>() / denom).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let d: f64 = (0..3)
            .map(|i| (p[i] - (self.a[i] + t * ab[i])).powi(2))
            .sum();
        d.sqrt() - self.radius
    }

    fn bounds(&self) -> ([f64; 3], [f64; 3]) {
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for i in 0..3 {
            lo[i] = self.a[i].min(self.b[i]) - self.radius;
            hi[i] = self.a[i].max(self.b[i]) + self.radius;
        }
        (lo, hi)
    }
}

/// An axis-aligned rounded box: exact Euclidean SDF (Lipschitz-1), the
/// safe primitive for thin plates like wings, whose refinement bands need
/// a distance that does not underestimate at high aspect ratios.
#[derive(Copy, Clone, Debug)]
pub struct RoundedBox {
    /// Center (finest units).
    pub center: [f64; 3],
    /// Half-extents of the core box (finest units).
    pub half: [f64; 3],
    /// Rounding radius added outside the core box.
    pub round: f64,
}

impl Sdf for RoundedBox {
    fn distance(&self, p: [f64; 3]) -> f64 {
        let q = [
            (p[0] - self.center[0]).abs() - self.half[0],
            (p[1] - self.center[1]).abs() - self.half[1],
            (p[2] - self.center[2]).abs() - self.half[2],
        ];
        let outside: f64 = q
            .iter()
            .map(|v| v.max(0.0).powi(2))
            .sum::<f64>()
            .sqrt();
        let inside = q[0].max(q[1]).max(q[2]).min(0.0);
        outside + inside - self.round
    }

    fn bounds(&self) -> ([f64; 3], [f64; 3]) {
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for i in 0..3 {
            lo[i] = self.center[i] - self.half[i] - self.round;
            hi[i] = self.center[i] + self.half[i] + self.round;
        }
        (lo, hi)
    }
}

/// Union of several SDFs (minimum distance).
pub struct Union {
    /// Member shapes.
    pub shapes: Vec<Box<dyn Sdf>>,
}

impl Sdf for Union {
    fn distance(&self, p: [f64; 3]) -> f64 {
        self.shapes
            .iter()
            .map(|s| s.distance(p))
            .fold(f64::INFINITY, f64::min)
    }

    fn bounds(&self) -> ([f64; 3], [f64; 3]) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for s in &self.shapes {
            let (l, h) = s.bounds();
            for i in 0..3 {
                lo[i] = lo[i].min(l[i]);
                hi[i] = hi[i].max(h[i]);
            }
        }
        (lo, hi)
    }
}

/// Center of a level-`l` cell in finest-level units, given the number of
/// levels in the stack.
#[inline]
pub fn cell_center(levels: u32, level: u32, p: Coord) -> [f64; 3] {
    let s = (1u32 << (levels - 1 - level)) as f64;
    [
        (p.x as f64 + 0.5) * s,
        (p.y as f64 + 0.5) * s,
        (p.z as f64 + 0.5) * s,
    ]
}

/// Builds a distance-band refinement predicate: a level-`l` cell refines
/// into level `l+1` when its center is within `bands[l]` (finest units) of
/// the surface. `bands` must be strictly decreasing; the outermost band is
/// `bands[0]`.
pub fn band_refinement(
    sdf: impl Sdf + 'static,
    levels: u32,
    bands: Vec<f64>,
) -> impl Fn(u32, Coord) -> bool + Send + Sync {
    assert_eq!(bands.len() as u32, levels - 1, "one band per transition");
    assert!(
        bands.windows(2).all(|w| w[0] > w[1]),
        "bands must be strictly decreasing: {bands:?}"
    );
    move |level, p| {
        let c = cell_center(levels, level, p);
        sdf.distance(c).abs() < bands[level as usize]
            || sdf.distance(c) < 0.0 // interiors stay at the finest level
    }
}

/// Builds a solid predicate carving the SDF interior at the finest level.
pub fn solid_at_finest(
    sdf: impl Sdf + 'static,
    levels: u32,
) -> impl Fn(u32, Coord) -> bool + Send + Sync {
    move |level, p| {
        level == levels - 1 && sdf.distance(cell_center(levels, level, p)) < 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_distance() {
        let s = Sphere {
            center: [10.0, 10.0, 10.0],
            radius: 4.0,
        };
        assert!((s.distance([10.0, 10.0, 10.0]) + 4.0).abs() < 1e-12);
        assert!((s.distance([16.0, 10.0, 10.0]) - 2.0).abs() < 1e-12);
        let (lo, hi) = s.bounds();
        assert_eq!(lo, [6.0, 6.0, 6.0]);
        assert_eq!(hi, [14.0, 14.0, 14.0]);
    }

    #[test]
    fn capsule_distance() {
        let c = Capsule {
            a: [0.0, 0.0, 0.0],
            b: [10.0, 0.0, 0.0],
            radius: 2.0,
        };
        assert!((c.distance([5.0, 3.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((c.distance([-3.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(c.distance([5.0, 0.0, 0.0]) < 0.0);
    }

    #[test]
    fn rounded_box_exact() {
        let b = RoundedBox {
            center: [0.0; 3],
            half: [4.0, 1.0, 10.0],
            round: 0.5,
        };
        assert!((b.distance([10.0, 0.0, 0.0]) - 5.5).abs() < 1e-12);
        assert!((b.distance([0.0, 5.0, 0.0]) - 3.5).abs() < 1e-12);
        assert!(b.distance([0.0, 0.0, 0.0]) < 0.0);
        // Lipschitz check along the flat axis.
        let d1 = b.distance([3.0, 2.0, 8.0]);
        let d2 = b.distance([3.0, 3.0, 8.0]);
        assert!((d2 - d1).abs() <= 1.0 + 1e-12);
        let (lo, hi) = b.bounds();
        assert_eq!(lo[2], -10.5);
        assert_eq!(hi[0], 4.5);
    }

    #[test]
    fn union_takes_minimum() {
        let u = Union {
            shapes: vec![
                Box::new(Sphere {
                    center: [0.0; 3],
                    radius: 1.0,
                }),
                Box::new(Sphere {
                    center: [10.0, 0.0, 0.0],
                    radius: 2.0,
                }),
            ],
        };
        assert!((u.distance([5.0, 0.0, 0.0]) - 3.0).abs() < 1e-12);
        let (lo, hi) = u.bounds();
        assert_eq!(lo[0], -1.0);
        assert_eq!(hi[0], 12.0);
    }

    #[test]
    fn cell_centers_scale_per_level() {
        // 3 levels: level 2 is finest.
        assert_eq!(cell_center(3, 2, Coord::new(3, 0, 0))[0], 3.5);
        assert_eq!(cell_center(3, 1, Coord::new(3, 0, 0))[0], 7.0);
        assert_eq!(cell_center(3, 0, Coord::new(3, 0, 0))[0], 14.0);
    }

    #[test]
    fn band_predicate_nests() {
        let refine = band_refinement(
            Sphere {
                center: [32.0; 3],
                radius: 8.0,
            },
            3,
            vec![16.0, 8.0],
        );
        // Near the surface: both transitions active at appropriate levels.
        // Level-0 cell centered near the sphere surface:
        assert!(refine(0, Coord::new(8, 8, 8))); // center (34,34,34), |d|≈ -4.5 → interior → refined
        // Far away cell does not refine.
        assert!(!refine(0, Coord::new(0, 0, 0)));
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn rejects_nonmonotone_bands() {
        let _ = band_refinement(
            Sphere {
                center: [0.0; 3],
                radius: 1.0,
            },
            3,
            vec![4.0, 6.0],
        );
    }
}
