//! Integer coordinates and extents for voxel grids.

use std::ops::{Add, Index, Mul, Neg, Sub};

/// A signed 3D lattice coordinate (cell or block position).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// x component.
    pub x: i32,
    /// y component.
    pub y: i32,
    /// z component.
    pub z: i32,
}

impl Coord {
    /// Constructs a coordinate.
    #[inline(always)]
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        Self { x, y, z }
    }

    /// The origin `(0,0,0)`.
    pub const ZERO: Self = Self::new(0, 0, 0);

    /// Constructs from a `[i32; 3]` array (lattice direction tables).
    #[inline(always)]
    pub const fn from_array(a: [i32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }

    /// Returns the components as an array.
    #[inline(always)]
    pub const fn to_array(self) -> [i32; 3] {
        [self.x, self.y, self.z]
    }

    /// Component-wise Euclidean division (rounding toward −∞), used to map
    /// cell coordinates to block coordinates for any cell sign.
    #[inline(always)]
    pub fn div_euclid(self, d: i32) -> Self {
        Self::new(
            self.x.div_euclid(d),
            self.y.div_euclid(d),
            self.z.div_euclid(d),
        )
    }

    /// Component-wise Euclidean remainder (always in `[0, d)`), the
    /// intra-block local coordinate.
    #[inline(always)]
    pub fn rem_euclid(self, d: i32) -> Self {
        Self::new(
            self.x.rem_euclid(d),
            self.y.rem_euclid(d),
            self.z.rem_euclid(d),
        )
    }

    /// Component-wise multiplication by a scalar.
    #[inline(always)]
    pub fn scale(self, s: i32) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }

    /// Squared Euclidean norm (as f64 to avoid overflow for large domains).
    #[inline(always)]
    pub fn norm2(self) -> f64 {
        let (x, y, z) = (self.x as f64, self.y as f64, self.z as f64);
        x * x + y * y + z * z
    }
}

impl Add for Coord {
    type Output = Coord;
    #[inline(always)]
    fn add(self, o: Coord) -> Coord {
        Coord::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Coord {
    type Output = Coord;
    #[inline(always)]
    fn sub(self, o: Coord) -> Coord {
        Coord::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Neg for Coord {
    type Output = Coord;
    #[inline(always)]
    fn neg(self) -> Coord {
        Coord::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<i32> for Coord {
    type Output = Coord;
    #[inline(always)]
    fn mul(self, s: i32) -> Coord {
        self.scale(s)
    }
}

impl Index<usize> for Coord {
    type Output = i32;
    #[inline(always)]
    fn index(&self, i: usize) -> &i32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Coord index {i} out of range"),
        }
    }
}

/// An axis-aligned box of cells `[lo, hi)` (half-open on all axes).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Box3 {
    /// Inclusive lower corner.
    pub lo: Coord,
    /// Exclusive upper corner.
    pub hi: Coord,
}

impl Box3 {
    /// Creates a box; `hi` must dominate `lo` on every axis.
    pub fn new(lo: Coord, hi: Coord) -> Self {
        assert!(
            lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z,
            "degenerate box {lo:?}..{hi:?}"
        );
        Self { lo, hi }
    }

    /// Box spanning `[0, nx) × [0, ny) × [0, nz)`.
    pub fn from_dims(nx: usize, ny: usize, nz: usize) -> Self {
        Self::new(Coord::ZERO, Coord::new(nx as i32, ny as i32, nz as i32))
    }

    /// Extent along each axis.
    pub fn extent(&self) -> [usize; 3] {
        [
            (self.hi.x - self.lo.x) as usize,
            (self.hi.y - self.lo.y) as usize,
            (self.hi.z - self.lo.z) as usize,
        ]
    }

    /// Number of cells contained.
    pub fn volume(&self) -> usize {
        let e = self.extent();
        e[0] * e[1] * e[2]
    }

    /// Whether `c` lies inside the half-open box.
    #[inline(always)]
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= self.lo.x
            && c.x < self.hi.x
            && c.y >= self.lo.y
            && c.y < self.hi.y
            && c.z >= self.lo.z
            && c.z < self.hi.z
    }

    /// Iterates all contained coordinates in x-fastest order.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let (lo, hi) = (self.lo, self.hi);
        (lo.z..hi.z).flat_map(move |z| {
            (lo.y..hi.y).flat_map(move |y| (lo.x..hi.x).map(move |x| Coord::new(x, y, z)))
        })
    }

    /// Intersection with another box, or `None` if disjoint.
    pub fn intersect(&self, o: &Box3) -> Option<Box3> {
        let lo = Coord::new(
            self.lo.x.max(o.lo.x),
            self.lo.y.max(o.lo.y),
            self.lo.z.max(o.lo.z),
        );
        let hi = Coord::new(
            self.hi.x.min(o.hi.x),
            self.hi.y.min(o.hi.y),
            self.hi.z.min(o.hi.z),
        );
        if lo.x < hi.x && lo.y < hi.y && lo.z < hi.z {
            Some(Box3::new(lo, hi))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_arithmetic() {
        let a = Coord::new(1, -2, 3);
        let b = Coord::new(4, 5, -6);
        assert_eq!(a + b, Coord::new(5, 3, -3));
        assert_eq!(a - b, Coord::new(-3, -7, 9));
        assert_eq!(-a, Coord::new(-1, 2, -3));
        assert_eq!(a * 2, Coord::new(2, -4, 6));
        assert_eq!(a[0], 1);
        assert_eq!(a[1], -2);
        assert_eq!(a[2], 3);
    }

    #[test]
    fn euclid_division_handles_negatives() {
        let c = Coord::new(-1, -4, 5);
        assert_eq!(c.div_euclid(4), Coord::new(-1, -1, 1));
        assert_eq!(c.rem_euclid(4), Coord::new(3, 0, 1));
        // Invariant: div * d + rem == original.
        let (d, r) = (c.div_euclid(4), c.rem_euclid(4));
        assert_eq!(d.scale(4) + r, c);
    }

    #[test]
    fn box_basics() {
        let b = Box3::from_dims(4, 3, 2);
        assert_eq!(b.volume(), 24);
        assert_eq!(b.extent(), [4, 3, 2]);
        assert!(b.contains(Coord::new(0, 0, 0)));
        assert!(b.contains(Coord::new(3, 2, 1)));
        assert!(!b.contains(Coord::new(4, 0, 0)));
        assert!(!b.contains(Coord::new(-1, 0, 0)));
        assert_eq!(b.iter().count(), 24);
    }

    #[test]
    fn box_iter_order_is_x_fastest() {
        let b = Box3::from_dims(2, 2, 1);
        let v: Vec<_> = b.iter().collect();
        assert_eq!(
            v,
            vec![
                Coord::new(0, 0, 0),
                Coord::new(1, 0, 0),
                Coord::new(0, 1, 0),
                Coord::new(1, 1, 0)
            ]
        );
    }

    #[test]
    fn intersection() {
        let a = Box3::from_dims(4, 4, 4);
        let b = Box3::new(Coord::new(2, 2, 2), Coord::new(6, 6, 6));
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Box3::new(Coord::new(2, 2, 2), Coord::new(4, 4, 4)));
        let far = Box3::new(Coord::new(10, 10, 10), Coord::new(12, 12, 12));
        assert!(a.intersect(&far).is_none());
    }

    #[test]
    #[should_panic(expected = "degenerate box")]
    fn rejects_degenerate() {
        let _ = Box3::new(Coord::new(1, 0, 0), Coord::new(0, 1, 1));
    }
}
