//! Precomputed exception links, flattened into per-kind index lists.
//!
//! Streaming is a pull: `f_i(x, t+Δt) = f*_i(x − e_i, t)`. Where the
//! source is an active same-level cell, the streaming gather's copy-run
//! replay reads it. Every other case — domain boundaries, the
//! coarse-to-fine **Explosion** (paper Eq. 10), the fine-to-coarse
//! **Coalescence** read (paper Eq. 11), periodic wrapping — is resolved at
//! grid-construction time into an explicit link, and each link is stored
//! once, as a flat index pair, in the list of its kind ([`LinkTable`]).
//! The kernels walk those lists: no kernel branches on a link's kind,
//! consults geometry, or looks a link up by cell — the precomputed-index
//! philosophy of the paper's data structure (§V-B).
//!
//! The fine→coarse **Accumulate** deposits go through the same kind of
//! list ([`Deposit`]): one `(source slot, accumulator slot)` pair per
//! crossing population. A level's accumulators hold `q` slots per ghost
//! cell only, ghosts numbered in `(block, cell)` order: ghost `g`'s
//! direction `i` is slot `g·q + i` (DESIGN.md §10).

use lbm_lattice::Real;
use lbm_sparse::CellRef;

/// How one exceptional `(cell, direction)` pull resolves: the build-time
/// description `MultiGrid::build` flattens into a [`LinkTable`], and what
/// [`LinkTable::links_of`] decodes an entry back into.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum LinkKind<T> {
    /// Halfway bounce-back: read own opposite post-collision population.
    BounceBack {
        /// Opposite direction index `ī`.
        opp: u8,
    },
    /// Moving-wall bounce-back: bounce-back plus the precomputed momentum
    /// term `2 w_i ρ₀ (e_i·u_w)/c_s²`.
    MovingWall {
        /// Opposite direction index `ī`.
        opp: u8,
        /// Precomputed additive term.
        term: T,
    },
    /// Outflow: the population takes its lattice weight `w_i`.
    Outflow {
        /// Precomputed `w_i`.
        weight: T,
    },
    /// Periodic wrap: pull from the same-level cell on the far side.
    Periodic {
        /// Wrapped same-level source cell.
        src: CellRef,
    },
    /// Explosion (coarse→fine, Eq. 10): pull the parent coarse cell's
    /// post-collision population homogeneously.
    Explosion {
        /// Source cell in the **next-coarser** level's grid.
        src: CellRef,
    },
    /// Coalescence (fine→coarse, Eq. 11): pull the ghost accumulator,
    /// divided by the accumulated contribution count.
    Coalesce {
        /// Number of the ghost cell, in the **same** level's `(block, cell)`
        /// ghost order, whose accumulator holds the fine contributions.
        ghost: u32,
        /// Precomputed `1 / contributions`: the number of fine populations
        /// that cross the interface along this direction over one coarse
        /// step (crossing children × 2 substeps; 8 on flat faces).
        inv_count: T,
    },
}

/// `out[dst] = src[src]`: a bounce-back or periodic copy from the level's
/// own source half, or an Explosion read from the coarser level's.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Pull {
    /// Slot in the destination block's `q·B³` chunk: `dir·B³ + cell`.
    pub dst: u32,
    /// Flat index into the source field.
    pub src: usize,
}

/// `out[dst] = src[src] + term`: a moving-wall bounce-back.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WallPull<T> {
    /// Slot in the destination block's chunk.
    pub dst: u32,
    /// Flat index into the level's source half.
    pub src: usize,
    /// Precomputed momentum term.
    pub term: T,
}

/// `out[dst] = value`: an outflow population.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Fixed<T> {
    /// Slot in the destination block's chunk.
    pub dst: u32,
    /// The lattice weight `w_i`.
    pub value: T,
}

/// `out[dst] = acc[src] · scale`: a Coalescence read.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScaledPull<T> {
    /// Slot in the destination block's chunk.
    pub dst: u32,
    /// Slot of the level's own ghost accumulators: `ghost·q + dir`.
    pub src: usize,
    /// `1 / contributions`.
    pub scale: T,
}

/// `acc[dst] += src[src]`: one crossing population of a fine block,
/// deposited into its parent ghost cell's accumulator.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Deposit {
    /// Slot in the fine block's `q·B³` source chunk: `dir·B³ + cell`.
    pub src: u32,
    /// Slot of the next-coarser level's ghost accumulators:
    /// `ghost·q + dir`.
    pub dst: usize,
}

/// Entries grouped by block: block `b`'s entries are
/// `items[starts[b]..starts[b + 1]]`.
#[derive(Clone, Debug)]
pub struct PerBlock<E> {
    starts: Vec<u32>,
    items: Vec<E>,
}

impl<E> Default for PerBlock<E> {
    fn default() -> Self {
        Self {
            starts: vec![0],
            items: Vec::new(),
        }
    }
}

impl<E> PerBlock<E> {
    /// The list whose block `b` holds `items[starts[b]..starts[b + 1]]`
    /// (`starts` ends at `items.len()`).
    pub(crate) fn from_parts(starts: Vec<u32>, items: Vec<E>) -> Self {
        debug_assert_eq!(starts.last().map(|&s| s as usize), Some(items.len()));
        Self { starts, items }
    }

    /// Appends an entry to block `b`. Blocks must arrive in ascending
    /// order.
    pub(crate) fn push(&mut self, b: u32, e: E) {
        self.seal(b as usize);
        self.items.push(e);
    }

    /// Closes every block below `n`; call with the block count once every
    /// entry is in.
    pub(crate) fn seal(&mut self, n: usize) {
        debug_assert!(self.starts.len() <= n + 1, "blocks out of order");
        let end = u32::try_from(self.items.len()).expect("more than u32::MAX entries in one list");
        self.starts.resize(n + 1, end);
    }

    /// The entries of block `b`.
    #[inline(always)]
    pub fn of(&self, b: u32) -> &[E] {
        let b = b as usize;
        &self.items[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    /// Every entry, block by block.
    pub fn all(&self) -> &[E] {
        &self.items
    }

    /// Number of blocks sealed so far.
    pub fn blocks(&self) -> usize {
        self.starts.len() - 1
    }
}

/// Flat index of `(block, comp, cell)` in a level's `q`-component field of
/// `cpb`-cell blocks: the block-SoA layout of the populations
/// ([`lbm_sparse::Field::index`]).
#[inline(always)]
pub(crate) fn flat_index(block: u32, comp: usize, cell: u32, q: usize, cpb: usize) -> usize {
    (block as usize * q + comp) * cpb + cell as usize
}

/// The offset of `(comp, cell)` within one block's `q·B³` chunk.
///
/// # Panics
/// If the offset does not fit a `u32` (a chunk of more than 2³² slots; the
/// largest block a grid accepts, `B = 64` at `q = 27`, has about 2²³).
pub(crate) fn block_offset(comp: usize, cell: u32, cpb: usize) -> u32 {
    u32::try_from(comp * cpb + cell as usize).expect("block chunk exceeds u32 slots")
}

/// Every exception link of one level, one flat list per kind. The
/// streaming gather walks whole lists; a kernel that does not resolve a
/// kind skips its list.
#[derive(Clone, Debug)]
pub struct LinkTable<T> {
    q: usize,
    cpb: usize,
    /// Bounce-back and periodic copies from the level's source half.
    pub copies: PerBlock<Pull>,
    /// Moving-wall bounce-backs.
    pub walls: PerBlock<WallPull<T>>,
    /// Outflow constants.
    pub outflow: PerBlock<Fixed<T>>,
    /// Explosion reads from the next-coarser level's source half.
    pub explosion: PerBlock<Pull>,
    /// Coalescence reads of the level's own ghost accumulators.
    pub coalesce: PerBlock<ScaledPull<T>>,
    /// Real cells with at least one Explosion link.
    pub explosion_cells: u64,
    /// Real cells with at least one Coalescence link.
    pub coalesce_cells: u64,
}

impl<T: Real> LinkTable<T> {
    /// An empty table for a level of `q`-direction cells in blocks of `cpb`
    /// cells (the coarser level has the same block size).
    pub(crate) fn new(q: usize, cpb: usize) -> Self {
        Self {
            q,
            cpb,
            copies: PerBlock::default(),
            walls: PerBlock::default(),
            outflow: PerBlock::default(),
            explosion: PerBlock::default(),
            coalesce: PerBlock::default(),
            explosion_cells: 0,
            coalesce_cells: 0,
        }
    }

    /// Flattens the links `(dir, kind)` of cell `r` into the kind lists.
    /// Cells must arrive in ascending `(block, cell)` order.
    pub(crate) fn push_cell(&mut self, r: CellRef, links: &[(u8, LinkKind<T>)]) {
        let (q, cpb, b) = (self.q, self.cpb, r.block);
        let (mut explodes, mut coalesces) = (false, false);
        for &(dir, kind) in links {
            let i = dir as usize;
            let dst = block_offset(i, r.cell, cpb);
            let at = |s: CellRef, comp: usize| flat_index(s.block, comp, s.cell, q, cpb);
            match kind {
                LinkKind::BounceBack { opp } => {
                    let src = at(r, opp as usize);
                    self.copies.push(b, Pull { dst, src });
                }
                LinkKind::Periodic { src } => {
                    let src = at(src, i);
                    self.copies.push(b, Pull { dst, src });
                }
                LinkKind::MovingWall { opp, term } => {
                    let src = at(r, opp as usize);
                    self.walls.push(b, WallPull { dst, src, term });
                }
                LinkKind::Outflow { weight } => {
                    self.outflow.push(b, Fixed { dst, value: weight });
                }
                LinkKind::Explosion { src } => {
                    explodes = true;
                    self.explosion.push(
                        b,
                        Pull {
                            dst,
                            src: at(src, i),
                        },
                    );
                }
                LinkKind::Coalesce { ghost, inv_count } => {
                    coalesces = true;
                    let src = ghost as usize * q + i;
                    let scale = inv_count;
                    self.coalesce.push(b, ScaledPull { dst, src, scale });
                }
            }
        }
        self.explosion_cells += explodes as u64;
        self.coalesce_cells += coalesces as u64;
    }

    /// Closes the lists once every cell of the level's `n_blocks` blocks is
    /// in.
    pub(crate) fn seal(&mut self, n_blocks: usize) {
        self.copies.seal(n_blocks);
        self.walls.seal(n_blocks);
        self.outflow.seal(n_blocks);
        self.explosion.seal(n_blocks);
        self.coalesce.seal(n_blocks);
    }

    /// Total number of links of every kind.
    pub fn len(&self) -> usize {
        self.copies.all().len()
            + self.walls.all().len()
            + self.outflow.all().len()
            + self.explosion.all().len()
            + self.coalesce.all().len()
    }

    /// True when the level has no link at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The links of block `b` decoded back into `(cell, dir, kind)`, kind
    /// list by kind list (diagnostics and tests; the kernels never decode).
    /// A same-level copy that reads another component of its own cell is a
    /// bounce-back: a periodic copy reads the streaming direction itself.
    pub fn links_of(&self, b: u32) -> impl Iterator<Item = (u32, u8, LinkKind<T>)> + '_ {
        let cpb = self.cpb;
        let stride = self.q * cpb;
        let split = move |dst: u32| ((dst as usize % cpb) as u32, (dst as usize / cpb) as u8);
        let cell_of = move |src: usize| {
            let (block, rem) = (src / stride, src % stride);
            let r = CellRef {
                block: block as u32,
                cell: (rem % cpb) as u32,
            };
            (r, (rem / cpb) as u8)
        };
        let copies = self.copies.of(b).iter().map(move |p| {
            let ((cell, dir), (s, comp)) = (split(p.dst), cell_of(p.src));
            let kind = if comp != dir {
                LinkKind::BounceBack { opp: comp }
            } else {
                LinkKind::Periodic { src: s }
            };
            (cell, dir, kind)
        });
        let walls = self.walls.of(b).iter().map(move |w| {
            let ((cell, dir), (_, opp)) = (split(w.dst), cell_of(w.src));
            (cell, dir, LinkKind::MovingWall { opp, term: w.term })
        });
        let outflow = self.outflow.of(b).iter().map(move |f| {
            let (cell, dir) = split(f.dst);
            (cell, dir, LinkKind::Outflow { weight: f.value })
        });
        let explosion = self.explosion.of(b).iter().map(move |p| {
            let (cell, dir) = split(p.dst);
            (
                cell,
                dir,
                LinkKind::Explosion {
                    src: cell_of(p.src).0,
                },
            )
        });
        let q = self.q;
        let coalesce = self.coalesce.of(b).iter().map(move |s| {
            let (cell, dir) = split(s.dst);
            let kind = LinkKind::Coalesce {
                ghost: (s.src / q) as u32,
                inv_count: s.scale,
            };
            (cell, dir, kind)
        });
        copies
            .chain(walls)
            .chain(outflow)
            .chain(explosion)
            .chain(coalesce)
    }
}

/// Encodes a [`CellRef`] into a single `u64` for compact side tables.
#[inline(always)]
pub fn encode_ref(r: CellRef) -> u64 {
    ((r.block as u64) << 32) | r.cell as u64
}

/// Inverse of [`encode_ref`].
#[inline(always)]
pub fn decode_ref(v: u64) -> CellRef {
    CellRef {
        block: (v >> 32) as u32,
        cell: v as u32,
    }
}

/// Sentinel for "no target" in encoded-ref tables.
pub const NO_TARGET: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    const Q: usize = 19;
    const CPB: usize = 64;

    fn r(block: u32, cell: u32) -> CellRef {
        CellRef { block, cell }
    }

    #[test]
    fn every_kind_round_trips_through_its_list() {
        let mut t = LinkTable::<f64>::new(Q, CPB);
        let links = [
            (1, LinkKind::BounceBack { opp: 2 }),
            (3, LinkKind::MovingWall { opp: 4, term: 0.25 }),
            (5, LinkKind::Outflow { weight: 1.0 / 36.0 }),
            (7, LinkKind::Periodic { src: r(3, 9) }),
            (8, LinkKind::Explosion { src: r(4, 63) }),
            (
                9,
                LinkKind::Coalesce {
                    ghost: 11,
                    inv_count: 0.125,
                },
            ),
        ];
        t.push_cell(r(1, 5), &links);
        t.push_cell(r(1, 6), &[(2, LinkKind::BounceBack { opp: 1 })]);
        t.seal(3);
        assert_eq!(t.len(), 7);
        assert!(t.links_of(0).next().is_none() && t.links_of(2).next().is_none());
        let mut got: Vec<_> = t.links_of(1).collect();
        got.sort_by_key(|&(cell, dir, _)| (cell, dir));
        let mut want: Vec<_> = links.iter().map(|&(d, k)| (5, d, k)).collect();
        want.push((6, 2, LinkKind::BounceBack { opp: 1 }));
        assert_eq!(got, want);
        assert_eq!((t.explosion_cells, t.coalesce_cells), (1, 1));
        // The copy entry of the bounce-back reads the opposite component of
        // its own cell, in the shared block-SoA layout.
        assert_eq!(
            t.copies.of(1)[0],
            Pull {
                dst: (CPB + 5) as u32,
                src: (Q + 2) * CPB + 5,
            }
        );
        // The Coalescence entry reads ghost 11's slot of direction 9.
        assert_eq!(t.coalesce.of(1)[0].src, 11 * Q + 9);
    }

    #[test]
    fn per_block_lists_seal_empty_blocks() {
        let mut p = PerBlock::default();
        p.push(1, 'a');
        p.push(1, 'b');
        p.push(3, 'c');
        p.seal(5);
        assert_eq!(p.blocks(), 5);
        let lens: Vec<usize> = (0..5).map(|b| p.of(b).len()).collect();
        assert_eq!(lens, vec![0, 2, 0, 1, 0]);
        assert_eq!(p.of(3), &['c']);
    }

    #[test]
    fn ref_encoding_roundtrip() {
        let r = r(0xDEAD_BEEF, 0x1234_5678);
        assert_eq!(decode_ref(encode_ref(r)), r);
        assert_ne!(encode_ref(r), NO_TARGET);
    }

    #[test]
    fn flat_index_matches_the_field_layout() {
        let spec = lbm_sparse::Box3::from_dims(8, 8, 8);
        let mut gb = lbm_sparse::GridBuilder::new(4);
        gb.activate_box(spec);
        let grid = gb.build(lbm_sparse::SpaceFillingCurve::Sweep);
        let f = lbm_sparse::Field::<f64>::new(&grid, Q, 0.0);
        for (b, comp, cell) in [(0, 0, 0), (1, 18, 63), (7, 4, 17)] {
            assert_eq!(flat_index(b, comp, cell, Q, CPB), f.index(b, comp, cell));
        }
    }
}
