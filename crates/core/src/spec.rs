//! Multi-resolution grid specification with octree ownership semantics
//! (paper §III: "a strongly balanced octree grid where the transition in
//! resolution from one level to another is strictly 1").
//!
//! The user describes the grid by a *refinement predicate*: for a cell at
//! level `l` (in level-`l` coordinates), `refine(l, p)` says whether that
//! cell is subdivided into the next level. A cell at level `l` is **owned**
//! (a leaf; real storage) iff all its ancestors are refined and it is not
//! refined itself. This octree formulation makes ownership tile-consistent
//! by construction — no sampling ambiguity.

use lbm_sparse::{Box3, Coord, SpaceFillingCurve};

/// Refinement predicate: `(level, level-local cell coordinate) → subdivide?`.
pub type RefineFn = dyn Fn(u32, Coord) -> bool + Send + Sync;

/// Solid predicate: `(level, level-local cell coordinate) → is obstacle?`.
pub type SolidFn = dyn Fn(u32, Coord) -> bool + Send + Sync;

/// The most levels a [`GridSpec`] may have. The engine's per-level kernel
/// name tables have exactly this many entries.
pub const MAX_LEVELS: usize = 8;

/// Specification of a multi-resolution grid.
pub struct GridSpec {
    /// Number of levels `L_max` (level 0 = coarsest).
    pub levels: u32,
    /// Memory block edge length `B` (paper §V-B decouples it from the
    /// octree branching factor 2).
    pub block_size: usize,
    /// Space-filling curve for block ordering.
    pub curve: SpaceFillingCurve,
    /// Simulation domain in **finest-level** coordinates; every extent must
    /// be divisible by `2^(levels−1)`.
    pub finest_domain: Box3,
    /// Axes with periodic wrapping at the domain faces.
    pub periodic: [bool; 3],
    refine: Box<RefineFn>,
    solid: Box<SolidFn>,
}

impl GridSpec {
    /// Builds a spec; see field docs for the contracts.
    pub fn new(
        levels: u32,
        finest_domain: Box3,
        refine: impl Fn(u32, Coord) -> bool + Send + Sync + 'static,
    ) -> Self {
        let s = Self {
            levels,
            block_size: 4,
            curve: SpaceFillingCurve::Morton,
            finest_domain,
            periodic: [false; 3],
            refine: Box::new(refine),
            solid: Box::new(|_, _| false),
        };
        s.validate();
        s
    }

    /// Single-level (uniform) grid over `finest_domain`.
    pub fn uniform(domain: Box3) -> Self {
        Self::new(1, domain, |_, _| false)
    }

    /// Sets the solid-obstacle predicate (cells carved out of the grid;
    /// their surfaces become halfway bounce-back walls via the boundary
    /// spec).
    pub fn with_solid(mut self, solid: impl Fn(u32, Coord) -> bool + Send + Sync + 'static) -> Self {
        self.solid = Box::new(solid);
        self
    }

    /// Overrides the memory block size.
    pub fn with_block_size(mut self, b: usize) -> Self {
        self.block_size = b;
        self.validate();
        self
    }

    /// Overrides the block-ordering curve.
    pub fn with_curve(mut self, curve: SpaceFillingCurve) -> Self {
        self.curve = curve;
        self
    }

    /// Sets periodic axes.
    pub fn with_periodic(mut self, periodic: [bool; 3]) -> Self {
        self.periodic = periodic;
        self
    }

    fn validate(&self) {
        assert!(self.levels >= 1, "need at least one level");
        assert!(
            self.levels as usize <= MAX_LEVELS,
            "more than {MAX_LEVELS} levels is surely a mistake"
        );
        let f = 1i32 << (self.levels - 1);
        let e = self.finest_domain.extent();
        for (a, &ext) in e.iter().enumerate() {
            assert!(
                ext as i32 % f == 0,
                "finest domain extent {ext} on axis {a} not divisible by 2^(levels-1) = {f}"
            );
        }
        for c in [self.finest_domain.lo, self.finest_domain.hi] {
            for a in 0..3 {
                assert!(
                    c[a] % f == 0,
                    "finest domain corner {c:?} not aligned to 2^(levels-1) = {f}"
                );
            }
        }
    }

    /// Coarsening factor from level `l` to the finest level.
    #[inline]
    pub fn scale_to_finest(&self, level: u32) -> i32 {
        1 << (self.levels - 1 - level)
    }

    /// Domain box in level-`l` coordinates (exact division by alignment).
    pub fn domain_at(&self, level: u32) -> Box3 {
        let f = self.scale_to_finest(level);
        Box3::new(self.finest_domain.lo.div_euclid(f), self.finest_domain.hi.div_euclid(f))
    }

    /// Whether the level-`l` cell `p` is subdivided into level `l+1`.
    /// Always false on the finest level.
    #[inline]
    pub fn is_refined(&self, level: u32, p: Coord) -> bool {
        level + 1 < self.levels && (self.refine)(level, p)
    }

    /// Whether the level-`l` cell `p` is a solid obstacle.
    #[inline]
    pub fn is_solid(&self, level: u32, p: Coord) -> bool {
        (self.solid)(level, p)
    }

    /// Whether all ancestors of the level-`l` cell `p` are refined — i.e.
    /// the octree actually descends to `p`.
    pub fn ancestors_refined(&self, level: u32, p: Coord) -> bool {
        for k in 0..level {
            let ancestor = Coord::new(
                p.x >> (level - k),
                p.y >> (level - k),
                p.z >> (level - k),
            );
            if !self.is_refined(k, ancestor) {
                return false;
            }
        }
        true
    }

    /// Whether the level-`l` cell `p` is an **owned leaf**: inside the
    /// domain, reached by refinement, not subdivided further, not solid.
    pub fn owned(&self, level: u32, p: Coord) -> bool {
        self.domain_at(level).contains(p)
            && self.ancestors_refined(level, p)
            && !self.is_refined(level, p)
            && !self.is_solid(level, p)
    }

    /// Whether the level-`l` cell `p` is **covered by finer levels**
    /// (subdivided): the candidate region for the coarse-side ghost layer.
    pub fn covered_by_finer(&self, level: u32, p: Coord) -> bool {
        self.domain_at(level).contains(p)
            && self.ancestors_refined(level, p)
            && self.is_refined(level, p)
    }

    /// Wraps a level-`l` coordinate along periodic axes into the domain.
    pub fn wrap(&self, level: u32, mut p: Coord) -> Coord {
        let d = self.domain_at(level);
        let e = d.extent();
        for a in 0..3 {
            if self.periodic[a] {
                let ext = e[a] as i32;
                let lo = d.lo[a];
                let v = (p[a] - lo).rem_euclid(ext) + lo;
                match a {
                    0 => p.x = v,
                    1 => p.y = v,
                    _ => p.z = v,
                }
            }
        }
        p
    }
}

/// Per-level cell counts from [`census`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelCensus {
    /// Owned (real) cells.
    pub owned: u64,
    /// Coarse-side ghost cells (covered, adjacent to an owned cell).
    pub ghost: u64,
}

/// Counts owned and ghost cells per level **without building the grid**,
/// by recursing the octree only into refined cells. This is how the paper's
/// full-size domains (e.g. the 1596×840×840 airplane tunnel, §VI-B) are
/// evaluated against the 40 GB device budget on any host.
pub fn census(spec: &GridSpec) -> Vec<LevelCensus> {
    let mut out = vec![LevelCensus::default(); spec.levels as usize];
    fn visit(spec: &GridSpec, out: &mut [LevelCensus], level: u32, p: Coord) {
        // Reached ⇒ ancestors are refined and p is inside the domain.
        let refined = spec.is_refined(level, p);
        let solid = spec.is_solid(level, p);
        if !refined {
            if !solid {
                out[level as usize].owned += 1;
            }
            return;
        }
        // Covered cell: ghost iff adjacent to an owned same-level cell.
        'ghost: for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    if (dx, dy, dz) != (0, 0, 0)
                        && spec.owned(level, p + Coord::new(dx, dy, dz))
                    {
                        out[level as usize].ghost += 1;
                        break 'ghost;
                    }
                }
            }
        }
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    visit(spec, out, level + 1, p.scale(2) + Coord::new(dx, dy, dz));
                }
            }
        }
    }
    for p in spec.domain_at(0).iter() {
        visit(spec, &mut out, 0, p);
    }
    out
}

/// Convenience refinement predicates for common setups.
pub mod presets {
    use super::*;

    /// Refine everywhere inside a (level-local) box at each level: produces
    /// concentric nested refinement. `boxes[l]` is the region of level `l`
    /// that is subdivided into level `l+1`, in level-`l` coordinates.
    pub fn nested_boxes(boxes: Vec<Box3>) -> impl Fn(u32, Coord) -> bool + Send + Sync {
        move |level, p| {
            (level as usize) < boxes.len() && boxes[level as usize].contains(p)
        }
    }

    /// Refine within `width_l` cells (level-local) of the domain walls on
    /// the given axes — the lid-driven-cavity pattern (paper §VI-A:
    /// "successively refine the voxels ... as they get closer to the
    /// boundaries").
    pub fn near_walls(
        finest_domain: Box3,
        levels: u32,
        width: i32,
        axes: [bool; 3],
    ) -> impl Fn(u32, Coord) -> bool + Send + Sync {
        move |level, p| {
            let f = 1 << (levels - 1 - level);
            let lo = finest_domain.lo.div_euclid(f);
            let hi = finest_domain.hi.div_euclid(f);
            let mut near = false;
            for a in 0..3 {
                if axes[a] {
                    near |= p[a] < lo[a] + width || p[a] >= hi[a] - width;
                }
            }
            near
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> GridSpec {
        // 16³ finest domain; refine the central 4³ coarse cells (→ central
        // 8³ finest region at level 1).
        GridSpec::new(2, Box3::from_dims(16, 16, 16), |level, p| {
            level == 0 && (2..6).contains(&p.x) && (2..6).contains(&p.y) && (2..6).contains(&p.z)
        })
    }

    #[test]
    fn domains_scale() {
        let s = two_level();
        assert_eq!(s.domain_at(0), Box3::from_dims(8, 8, 8));
        assert_eq!(s.domain_at(1), Box3::from_dims(16, 16, 16));
        assert_eq!(s.scale_to_finest(0), 2);
        assert_eq!(s.scale_to_finest(1), 1);
    }

    #[test]
    fn ownership_partition() {
        let s = two_level();
        // Every finest cell is owned by exactly one level.
        for c in s.finest_domain.iter() {
            let owned0 = s.owned(0, c.div_euclid(2));
            let owned1 = s.owned(1, c);
            assert!(
                owned0 ^ owned1,
                "finest cell {c:?}: owned0={owned0} owned1={owned1}"
            );
        }
    }

    #[test]
    fn coverage_matches_refinement() {
        let s = two_level();
        assert!(s.covered_by_finer(0, Coord::new(3, 3, 3)));
        assert!(!s.covered_by_finer(0, Coord::new(0, 0, 0)));
        assert!(s.owned(1, Coord::new(6, 6, 6)));
        assert!(!s.owned(1, Coord::new(0, 0, 0)), "outside refined region");
    }

    #[test]
    fn finest_level_never_refines() {
        let s = GridSpec::new(2, Box3::from_dims(8, 8, 8), |_, _| true);
        assert!(!s.is_refined(1, Coord::ZERO));
        // With refine-everywhere, level 1 owns everything.
        assert!(s.owned(1, Coord::ZERO));
        assert!(!s.owned(0, Coord::ZERO));
    }

    #[test]
    fn solid_carving() {
        let s = GridSpec::new(1, Box3::from_dims(4, 4, 4), |_, _| false)
            .with_solid(|_, p| p == Coord::new(1, 1, 1));
        assert!(!s.owned(0, Coord::new(1, 1, 1)));
        assert!(s.owned(0, Coord::new(0, 1, 1)));
    }

    #[test]
    fn periodic_wrap() {
        let s = GridSpec::uniform(Box3::from_dims(8, 8, 8)).with_periodic([true, false, true]);
        assert_eq!(s.wrap(0, Coord::new(-1, -1, 8)), Coord::new(7, -1, 0));
        assert_eq!(s.wrap(0, Coord::new(3, 3, 3)), Coord::new(3, 3, 3));
    }

    #[test]
    fn near_wall_preset() {
        let dom = Box3::from_dims(16, 16, 16);
        let refine = presets::near_walls(dom, 2, 2, [true, true, false]);
        // Coarse domain is 8³; cells within 2 of x/y walls refine.
        assert!(refine(0, Coord::new(0, 4, 4)));
        assert!(refine(0, Coord::new(4, 7, 4)));
        assert!(!refine(0, Coord::new(4, 4, 0)), "z axis disabled");
        assert!(!refine(0, Coord::new(4, 4, 4)));
    }

    #[test]
    fn nested_box_preset() {
        let refine = presets::nested_boxes(vec![Box3::from_dims(4, 4, 4)]);
        assert!(refine(0, Coord::new(1, 1, 1)));
        assert!(!refine(0, Coord::new(5, 1, 1)));
        assert!(!refine(1, Coord::new(1, 1, 1)), "only one nested box");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_misaligned_domain() {
        let _ = GridSpec::new(3, Box3::from_dims(10, 8, 8), |_, _| false);
    }

    #[test]
    fn census_matches_direct_enumeration() {
        let s = two_level();
        let c = census(&s);
        assert_eq!(c.len(), 2);
        // two_level(): 16³ finest domain ⇒ 8³ coarse cells, central 4³
        // refined (⇒ central 8³ fine cells).
        assert_eq!(c[0].owned, (8 * 8 * 8 - 4 * 4 * 4) as u64);
        assert_eq!(c[1].owned, (8 * 8 * 8) as u64);
        assert_eq!(c[0].ghost, (4 * 4 * 4 - 2 * 2 * 2) as u64);
        assert_eq!(c[1].ghost, 0);
    }

    #[test]
    fn census_uniform() {
        let s = GridSpec::uniform(Box3::from_dims(8, 8, 8));
        let c = census(&s);
        assert_eq!(c[0].owned, 512);
        assert_eq!(c[0].ghost, 0);
    }

    #[test]
    fn census_respects_solids() {
        let s = GridSpec::new(1, Box3::from_dims(4, 4, 4), |_, _| false)
            .with_solid(|_, p| p.x == 0);
        let c = census(&s);
        assert_eq!(c[0].owned, 4 * 4 * 3);
    }
}
