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

use lbm_sparse::{BitMask, Box3, Coord, GridBuilder, SpaceFillingCurve, SparseGrid};

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

    /// Domain box in level-`l` coordinates (exact division by alignment,
    /// as a shift: the build asks for it once per classified pull).
    pub fn domain_at(&self, level: u32) -> Box3 {
        let k = self.levels - 1 - level;
        let coarsen = |c: Coord| Coord::new(c.x >> k, c.y >> k, c.z >> k);
        Box3::new(coarsen(self.finest_domain.lo), coarsen(self.finest_domain.hi))
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
        // One predicate call settles a refined cell before the ancestor
        // walk runs.
        self.domain_at(level).contains(p)
            && !self.is_refined(level, p)
            && self.ancestors_refined(level, p)
            && !self.is_solid(level, p)
    }

    /// Whether the level-`l` cell `p` is **covered by finer levels**
    /// (subdivided): the candidate region for the coarse-side ghost layer.
    pub fn covered_by_finer(&self, level: u32, p: Coord) -> bool {
        self.domain_at(level).contains(p)
            && self.ancestors_refined(level, p)
            && self.is_refined(level, p)
    }

    /// Walks the octree level by level, coarsest first, and hands each
    /// level's [`LevelCells`] to `each`. The refine and solid predicates run
    /// once per reached cell; everything after that reads the level's
    /// tables. Only the refined table outlives its level, to give the next
    /// level its parents.
    pub(crate) fn walk(&self, mut each: impl FnMut(&LevelCells<'_>)) {
        let mut parents = None;
        for level in 0..self.levels {
            let cells = LevelCells::classify(self, level, parents.take());
            each(&cells);
            parents = cells.tables.map(|(_, refined)| refined);
        }
    }

    /// Wraps a level-`l` coordinate along periodic axes into the domain.
    pub fn wrap(&self, level: u32, mut p: Coord) -> Coord {
        if self.periodic == [false; 3] {
            return p;
        }
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

/// A cell's 2³ children, offset from twice its coordinate, in octant order
/// `k = x + 2y + 4z`.
const OCTANTS: [Coord; 8] = [
    Coord::new(0, 0, 0),
    Coord::new(1, 0, 0),
    Coord::new(0, 1, 0),
    Coord::new(1, 1, 0),
    Coord::new(0, 0, 1),
    Coord::new(1, 0, 1),
    Coord::new(0, 1, 1),
    Coord::new(1, 1, 1),
];

/// One bit per cell of a level's domain box and of a one-cell halo around
/// it, x fastest. A cell's 26 neighbours always lie in the table, so a
/// neighbour scan needs no bounds test.
struct Table {
    lo: Coord,
    ext: [usize; 3],
    bits: BitMask,
}

impl Table {
    fn new(dom: Box3) -> Self {
        let one = Coord::new(1, 1, 1);
        let padded = Box3::new(dom.lo - one, dom.hi + one);
        Self {
            lo: padded.lo,
            ext: padded.extent(),
            bits: BitMask::new(padded.volume()),
        }
    }

    /// Bit index of `p`, which must lie in the box or its halo.
    #[inline]
    fn index(&self, p: Coord) -> usize {
        let o = p - self.lo;
        o.x as usize + self.ext[0] * (o.y as usize + self.ext[1] * o.z as usize)
    }

    fn set(&mut self, p: Coord) {
        let i = self.index(p);
        self.bits.set(i, true);
    }

    #[inline]
    fn get(&self, p: Coord) -> bool {
        self.bits.get(self.index(p))
    }

    /// The cells whose bit is set, in x-fastest order.
    fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let [ex, ey, _] = self.ext;
        self.bits.iter_set().map(move |i| {
            let (x, y, z) = (i % ex, i / ex % ey, i / (ex * ey));
            self.lo + Coord::new(x as i32, y as i32, z as i32)
        })
    }

    /// Copies the cells at each periodic face into the halo beyond the
    /// opposite face, one axis after the other, so that edges and corners
    /// wrap too. The halo across a wall stays clear.
    fn wrap_halo(&mut self, periodic: [bool; 3]) {
        let ext = self.ext;
        let strides = [1, ext[0], ext[0] * ext[1]];
        for a in (0..3).filter(|&a| periodic[a]) {
            let (s, n) = (strides[a], ext[a] - 2);
            let (u, v) = ((a + 1) % 3, (a + 2) % 3);
            for j in 0..ext[u] * ext[v] {
                // The low halo cell at the `j`-th pair of other coordinates;
                // the domain spans `1..=n` along `a`.
                let base = j % ext[u] * strides[u] + j / ext[u] * strides[v];
                self.bits.set(base, self.bits.get(base + n * s));
                self.bits.set(base + (n + 1) * s, self.bits.get(base + s));
            }
        }
    }
}

/// How the octree walk sees a cell it reached.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Reach {
    /// An owned leaf: a real cell.
    Owned,
    /// A covered cell next to an owned one: a coarse ghost (paper §IV-A).
    Ghost,
    /// Solid, or covered with no owned neighbour: no storage.
    Hidden,
}

/// The cells the octree reaches at one level, each classified once
/// (DESIGN.md §4, "Grid build"). Level 0 reaches its whole domain, level
/// `l + 1` the 2³ children of level `l`'s refined cells. A reached cell's
/// ancestors are refined, so it is covered iff refined and owned iff
/// neither refined nor solid. Below the finest level the verdicts go into
/// two tables over the level's domain box and a one-cell halo, one bit per
/// cell each: owned and refined. A refined cell is a ghost iff one of its
/// 26 neighbours, wrapped across periodic faces, is set in the owned table;
/// the owned table's halo holds the wrapped cells. The finest
/// level refines nothing, so it keeps no table: a reached cell there is
/// owned iff it is not solid.
pub(crate) struct LevelCells<'a> {
    spec: &'a GridSpec,
    level: u32,
    dom: Box3,
    /// The previous level's refined cells; `None` on level 0.
    parents: Option<Table>,
    /// The owned and refined tables; `None` on the finest level.
    tables: Option<(Table, Table)>,
}

impl<'a> LevelCells<'a> {
    fn classify(spec: &'a GridSpec, level: u32, parents: Option<Table>) -> Self {
        let dom = spec.domain_at(level);
        let mut cells = Self {
            spec,
            level,
            dom,
            parents,
            tables: None,
        };
        if level + 1 < spec.levels {
            let (mut owned, mut refined) = (Table::new(dom), Table::new(dom));
            cells.for_each_reached(|p| {
                if spec.is_refined(level, p) {
                    refined.set(p);
                } else if !spec.is_solid(level, p) {
                    owned.set(p);
                }
            });
            owned.wrap_halo(spec.periodic);
            cells.tables = Some((owned, refined));
        }
        cells
    }

    /// Calls `f` for every reached cell: level 0's domain in x-fastest
    /// order, else the parents' children, octant by octant.
    fn for_each_reached(&self, mut f: impl FnMut(Coord)) {
        match &self.parents {
            None => self.dom.iter().for_each(f),
            Some(parents) => {
                for parent in parents.iter() {
                    OCTANTS.iter().for_each(|&o| f(parent.scale(2) + o));
                }
            }
        }
    }

    /// Whether the reached cell `p` is covered by finer levels.
    #[inline]
    pub(crate) fn covered(&self, p: Coord) -> bool {
        self.tables
            .as_ref()
            .is_some_and(|(_, refined)| refined.get(p))
    }

    /// The verdict on the reached cell `p`.
    fn reach(&self, p: Coord) -> Reach {
        let Some((owned, refined)) = &self.tables else {
            return if self.spec.is_solid(self.level, p) {
                Reach::Hidden
            } else {
                Reach::Owned
            };
        };
        if owned.get(p) {
            Reach::Owned
        } else if refined.get(p) && Self::touches_owned(owned, p) {
            Reach::Ghost
        } else {
            Reach::Hidden
        }
    }

    /// Whether one of the 26 neighbours of `p`, wrapped across periodic
    /// faces by the owned table's halo, is set in `owned`: nine rows of
    /// three bits. `p` is refined, so its own bit is clear.
    fn touches_owned(owned: &Table, p: Coord) -> bool {
        let [ex, ey, _] = owned.ext;
        let first = owned.index(p - Coord::new(1, 1, 1));
        (0..9).any(|r| {
            let row = first + ex * (r % 3 + ey * (r / 3));
            (row..row + 3).any(|j| owned.bits.get(j))
        })
    }

    /// The level's block-sparse grid: every owned and every ghost cell
    /// active.
    pub(crate) fn grid(&self) -> SparseGrid {
        let mut gb = GridBuilder::new(self.spec.block_size);
        self.for_each_reached(|p| {
            if self.reach(p) != Reach::Hidden {
                gb.activate(p);
            }
        });
        gb.build(self.spec.curve)
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
/// descending the octree only into refined cells, level by level, with the
/// tables of the grid build: one bit per cell of a non-finest level's
/// domain box and its halo, owned and refined (DESIGN.md §4, "Grid build"). This is how
/// the paper's full-size domains (e.g. the 1596×840×840 airplane tunnel,
/// §VI-B) are evaluated against the 40 GB device budget on any host.
pub fn census(spec: &GridSpec) -> Vec<LevelCensus> {
    let mut out = Vec::with_capacity(spec.levels as usize);
    spec.walk(|cells| {
        let mut count = LevelCensus::default();
        cells.for_each_reached(|p| match cells.reach(p) {
            Reach::Owned => count.owned += 1,
            Reach::Ghost => count.ghost += 1,
            Reach::Hidden => {}
        });
        out.push(count);
    });
    out
}

/// Convenience refinement predicates for common setups.
pub mod presets {
    use super::*;

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
