//! Block-sparse voxel grid (paper §V-A).
//!
//! The domain is partitioned into cubic blocks of `B³` cells (`B` a runtime
//! power of two). Blocks exist only where the builder activated cells; each
//! block stores an active-cell bitmask and the indices of its (up to 26)
//! neighbor blocks so stencil kernels never touch a hash map. Blocks are
//! ordered in memory along a space-filling curve.
//!
//! Deviation from the paper: the paper fixes `B` at compile time; we keep it
//! a runtime power of two (bit shifts, no divisions) so one binary can sweep
//! block sizes in the ablation benches. The addressing cost is identical.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::bitmask::BitMask;
use crate::coords::{Box3, Coord};
use crate::sfc::SpaceFillingCurve;

/// Multiply-rotate hashing (the FxHash scheme) for the block-coordinate
/// maps: the grid build probes them once per cell and per block neighbour,
/// and SipHash's flooding resistance buys nothing on coordinates. Blocks
/// are ordered by their curve key, so nothing depends on the hash order.
#[derive(Copy, Clone, Debug, Default)]
struct CoordHasher(u64);

impl Hasher for CoordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b as u32));
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ v as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The multiply leaves its entropy in the high bits; the rotation
    /// brings it down to the bucket bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by block coordinate.
type BlockMap<T> = HashMap<Coord, T, BuildHasherDefault<CoordHasher>>;

/// Index of a block within a [`SparseGrid`].
pub type BlockIdx = u32;

/// Sentinel for "no neighbor block allocated".
pub const INVALID_BLOCK: BlockIdx = BlockIdx::MAX;

/// Number of 3×3×3 neighbor slots (including self at the center).
pub const NEIGHBOR_SLOTS: usize = 27;

/// Maps a block-offset direction (components in `{-1,0,1}`) to its slot in
/// the per-block neighbor table.
#[inline(always)]
pub fn dir_slot(d: Coord) -> usize {
    debug_assert!(d.x.abs() <= 1 && d.y.abs() <= 1 && d.z.abs() <= 1);
    ((d.x + 1) + 3 * (d.y + 1) + 9 * (d.z + 1)) as usize
}

/// One `B³` block of the sparse grid.
#[derive(Clone, Debug)]
pub struct Block {
    /// Cell coordinate of the block's `(0,0,0)` corner (multiple of `B`).
    pub origin: Coord,
    /// Active-cell bitmask (length `B³`).
    pub active: BitMask,
    /// Neighbor block indices for each of the 27 offsets ([`dir_slot`]);
    /// the center slot holds the block's own index.
    pub neighbors: [BlockIdx; NEIGHBOR_SLOTS],
}

/// Reference to one cell: block index + intra-block linear index.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellRef {
    /// Owning block.
    pub block: BlockIdx,
    /// Linear index within the block: `lx + B·(ly + B·lz)`.
    pub cell: u32,
}

/// The block-sparse grid: topology only (field data lives in
/// [`crate::field::Field`], indexed by block/cell).
#[derive(Clone, Debug)]
pub struct SparseGrid {
    block_size: usize,
    block_shift: u32,
    block_mask: i32,
    blocks: Vec<Block>,
    lookup: BlockMap<BlockIdx>,
    active_cells: usize,
}

impl SparseGrid {
    /// Cells per block edge (`B`).
    #[inline(always)]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Cells per block (`B³`).
    #[inline(always)]
    pub fn cells_per_block(&self) -> usize {
        self.block_size * self.block_size * self.block_size
    }

    /// Number of allocated blocks.
    #[inline(always)]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of active cells over all blocks.
    #[inline(always)]
    pub fn active_cells(&self) -> usize {
        self.active_cells
    }

    /// Block table.
    #[inline(always)]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Block by index.
    #[inline(always)]
    pub fn block(&self, b: BlockIdx) -> &Block {
        &self.blocks[b as usize]
    }

    /// Splits a cell coordinate into (block coordinate, local coordinate).
    #[inline(always)]
    pub fn split(&self, c: Coord) -> (Coord, Coord) {
        let bc = Coord::new(
            c.x >> self.block_shift,
            c.y >> self.block_shift,
            c.z >> self.block_shift,
        );
        let lc = Coord::new(
            c.x & self.block_mask,
            c.y & self.block_mask,
            c.z & self.block_mask,
        );
        (bc, lc)
    }

    /// Linear intra-block index of a local coordinate.
    #[inline(always)]
    pub fn linear(&self, lc: Coord) -> u32 {
        debug_assert!(lc.x >= 0 && (lc.x as usize) < self.block_size);
        (lc.x as u32)
            + (self.block_size as u32) * (lc.y as u32)
            + (self.block_size as u32 * self.block_size as u32) * (lc.z as u32)
    }

    /// Local coordinate of a linear intra-block index (shifts and masks:
    /// `B` is a power of two).
    #[inline(always)]
    pub fn delinear(&self, cell: u32) -> Coord {
        let (s, m, c) = (self.block_shift, self.block_mask, cell as i32);
        Coord::new(c & m, (c >> s) & m, c >> (2 * s))
    }

    /// Resolves a global cell coordinate to a [`CellRef`] if that cell is
    /// active. Hash lookup — setup/diagnostic use, not for kernels.
    pub fn cell_ref(&self, c: Coord) -> Option<CellRef> {
        self.slot_ref(c)
            .filter(|r| self.blocks[r.block as usize].active.get(r.cell as usize))
    }

    /// Like [`SparseGrid::cell_ref`] but ignores the active bit: the slot
    /// of `c` if its block is allocated.
    pub fn slot_ref(&self, c: Coord) -> Option<CellRef> {
        let (bc, lc) = self.split(c);
        let &block = self.lookup.get(&bc)?;
        Some(CellRef {
            block,
            cell: self.linear(lc),
        })
    }

    /// Global coordinate of a cell reference.
    #[inline(always)]
    pub fn coord_of(&self, r: CellRef) -> Coord {
        self.blocks[r.block as usize].origin + self.delinear(r.cell)
    }

    /// Stencil neighbor access: the cell at `coord_of(r) + d` where every
    /// component of `d` is in `{-1, 0, 1}`.
    ///
    /// Intra-block neighbors resolve with pure bit arithmetic; inter-block
    /// neighbors go through the precomputed 27-slot neighbor table
    /// (paper §V-A). Returns `None` if the target block is absent or the
    /// target cell inactive.
    #[inline(always)]
    pub fn neighbor(&self, r: CellRef, d: Coord) -> Option<CellRef> {
        // Per-axis block offset in {-1,0,1} and wrapped local coordinate.
        let (bo, wrapped) = self.split(self.delinear(r.cell) + d);
        let cell = self.linear(wrapped);
        let nb = if bo == Coord::ZERO {
            r.block
        } else {
            let nb = self.blocks[r.block as usize].neighbors[dir_slot(bo)];
            if nb == INVALID_BLOCK {
                return None;
            }
            nb
        };
        if self.blocks[nb as usize].active.get(cell as usize) {
            Some(CellRef { block: nb, cell })
        } else {
            None
        }
    }

    /// Iterates `(CellRef, Coord)` over all active cells, block-major.
    pub fn iter_active(&self) -> impl Iterator<Item = (CellRef, Coord)> + '_ {
        self.blocks.iter().enumerate().flat_map(move |(bi, blk)| {
            blk.active.iter_set().map(move |cell| {
                let r = CellRef {
                    block: bi as BlockIdx,
                    cell: cell as u32,
                };
                (r, blk.origin + self.delinear(cell as u32))
            })
        })
    }

    /// Topology metadata bytes (blocks, bitmasks, neighbor tables, lookup):
    /// the non-field part of the data structure's memory footprint.
    pub fn metadata_bytes(&self) -> usize {
        let per_block = std::mem::size_of::<Block>()
            + self.blocks.first().map_or(0, |b| b.active.heap_bytes());
        self.blocks.len() * per_block
            + self.lookup.len() * (std::mem::size_of::<Coord>() + std::mem::size_of::<BlockIdx>())
    }
}

/// Incremental builder for a [`SparseGrid`].
pub struct GridBuilder {
    block_size: usize,
    cells: BlockMap<BitMask>, // block coord -> active mask
}

impl GridBuilder {
    /// Starts a builder with `B = block_size` (power of two, ≥ 2).
    pub fn new(block_size: usize) -> Self {
        assert!(
            block_size.is_power_of_two() && (2..=64).contains(&block_size),
            "block size must be a power of two in [2, 64], got {block_size}"
        );
        Self {
            block_size,
            cells: BlockMap::default(),
        }
    }

    /// Activates a single cell.
    pub fn activate(&mut self, c: Coord) -> &mut Self {
        let n = self.block_size;
        let (s, m) = (n.trailing_zeros(), n as i32 - 1);
        let bc = Coord::new(c.x >> s, c.y >> s, c.z >> s);
        let lc = Coord::new(c.x & m, c.y & m, c.z & m);
        let mask = self
            .cells
            .entry(bc)
            .or_insert_with(|| BitMask::new(n * n * n));
        mask.set(
            lc.x as usize + n * (lc.y as usize + n * lc.z as usize),
            true,
        );
        self
    }

    /// Activates every cell of `bx`.
    pub fn activate_box(&mut self, bx: Box3) -> &mut Self {
        for c in bx.iter() {
            self.activate(c);
        }
        self
    }

    /// Finalizes into a [`SparseGrid`], ordering blocks along `curve`.
    ///
    /// Blocks whose mask became all-clear (activate-then-deactivate) are
    /// dropped.
    pub fn build(self, curve: SpaceFillingCurve) -> SparseGrid {
        let block_size = self.block_size;
        let mut entries: Vec<(Coord, BitMask)> = self
            .cells
            .into_iter()
            .filter(|(_, m)| !m.none())
            .collect();

        // Normalize block coords to non-negative for SFC keys.
        let min = entries.iter().fold(Coord::ZERO, |acc, (c, _)| {
            Coord::new(acc.x.min(c.x), acc.y.min(c.y), acc.z.min(c.z))
        });
        let max = entries.iter().fold(Coord::ZERO, |acc, (c, _)| {
            Coord::new(acc.x.max(c.x), acc.y.max(c.y), acc.z.max(c.z))
        });
        let span = (max - min).to_array().into_iter().max().unwrap_or(0).max(1) as u32;
        let bits = (32 - span.leading_zeros()).clamp(1, 21);
        entries.sort_by_key(|(c, _)| curve.key(*c - min, bits));

        let lookup: BlockMap<BlockIdx> = entries
            .iter()
            .enumerate()
            .map(|(i, (c, _))| (*c, i as BlockIdx))
            .collect();

        let active_cells = entries.iter().map(|(_, m)| m.count()).sum();
        let blocks: Vec<Block> = entries
            .into_iter()
            .enumerate()
            .map(|(i, (bc, active))| {
                let mut neighbors = [INVALID_BLOCK; NEIGHBOR_SLOTS];
                for dz in -1..=1 {
                    for dy in -1..=1 {
                        for dx in -1..=1 {
                            let d = Coord::new(dx, dy, dz);
                            let slot = dir_slot(d);
                            if d == Coord::ZERO {
                                neighbors[slot] = i as BlockIdx;
                            } else if let Some(&nb) = lookup.get(&(bc + d)) {
                                neighbors[slot] = nb;
                            }
                        }
                    }
                }
                Block {
                    origin: bc.scale(block_size as i32),
                    active,
                    neighbors,
                }
            })
            .collect();

        SparseGrid {
            block_size,
            block_shift: block_size.trailing_zeros(),
            block_mask: block_size as i32 - 1,
            blocks,
            lookup,
            active_cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_grid(n: usize, b: usize) -> SparseGrid {
        let mut gb = GridBuilder::new(b);
        gb.activate_box(Box3::from_dims(n, n, n));
        gb.build(SpaceFillingCurve::Morton)
    }

    #[test]
    fn dense_counts() {
        let g = dense_grid(8, 4);
        assert_eq!(g.active_cells(), 512);
        assert_eq!(g.num_blocks(), 8);
        assert_eq!(g.cells_per_block(), 64);
    }

    #[test]
    fn cell_ref_roundtrip() {
        let g = dense_grid(8, 4);
        for (r, c) in g.iter_active() {
            assert_eq!(g.coord_of(r), c);
            assert_eq!(g.cell_ref(c), Some(r));
        }
    }

    #[test]
    fn inactive_and_missing_cells() {
        let hole = Coord::new(1, 1, 1);
        let mut gb = GridBuilder::new(4);
        for c in Box3::from_dims(4, 4, 4).iter().filter(|&c| c != hole) {
            gb.activate(c);
        }
        let g = gb.build(SpaceFillingCurve::Sweep);
        assert_eq!(g.active_cells(), 63);
        assert!(g.cell_ref(Coord::new(9, 0, 0)).is_none(), "no block there");
        // cell_ref() and neighbor() respect the mask; slot_ref() does not.
        assert!(g.cell_ref(hole).is_none());
        assert!(g.slot_ref(hole).is_some());
        let r = g.cell_ref(Coord::new(0, 1, 1)).unwrap();
        assert!(g.neighbor(r, Coord::new(1, 0, 0)).is_none());
    }

    #[test]
    fn neighbors_across_blocks() {
        let g = dense_grid(8, 4);
        // Every interior cell must see all 26 neighbors.
        for (r, c) in g.iter_active() {
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let d = Coord::new(dx, dy, dz);
                        let n = g.neighbor(r, d);
                        let target = c + d;
                        if Box3::from_dims(8, 8, 8).contains(target) {
                            let n = n.unwrap_or_else(|| panic!("missing neighbor {c:?}+{d:?}"));
                            assert_eq!(g.coord_of(n), target);
                        } else {
                            assert!(n.is_none(), "phantom neighbor at {target:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn negative_coordinates_supported() {
        let mut gb = GridBuilder::new(4);
        gb.activate_box(Box3::new(Coord::new(-4, -4, -4), Coord::new(4, 4, 4)));
        let g = gb.build(SpaceFillingCurve::Hilbert);
        assert_eq!(g.active_cells(), 512);
        let r = g.cell_ref(Coord::new(-1, -1, -1)).unwrap();
        let n = g.neighbor(r, Coord::new(1, 1, 1)).unwrap();
        assert_eq!(g.coord_of(n), Coord::new(0, 0, 0));
        let n = g.neighbor(r, Coord::new(-1, 0, 0)).unwrap();
        assert_eq!(g.coord_of(n), Coord::new(-2, -1, -1));
    }

    #[test]
    fn sparse_shell() {
        // Activate a spherical shell only; block count must be far below
        // the dense bound and neighbor queries must stay consistent.
        let n = 16i32;
        let mut gb = GridBuilder::new(4);
        for c in Box3::from_dims(16, 16, 16).iter() {
            if (36.0..64.0).contains(&(c - Coord::new(8, 8, 8)).norm2()) {
                gb.activate(c);
            }
        }
        let g = gb.build(SpaceFillingCurve::Morton);
        assert!(g.num_blocks() < (n * n * n / 64) as usize);
        for (r, c) in g.iter_active() {
            let n = g.neighbor(r, Coord::new(1, 0, 0));
            if let Some(nr) = n {
                assert_eq!(g.coord_of(nr), c + Coord::new(1, 0, 0));
            }
        }
    }

    #[test]
    fn block_ordering_follows_curve() {
        // With Sweep ordering on a dense grid, block origins must ascend in
        // x-fastest order.
        let mut gb = GridBuilder::new(4);
        gb.activate_box(Box3::from_dims(16, 8, 8));
        let g = gb.build(SpaceFillingCurve::Sweep);
        let origins: Vec<Coord> = g.blocks().iter().map(|b| b.origin).collect();
        let mut sorted = origins.clone();
        sorted.sort_by_key(|c| (c.z, c.y, c.x));
        assert_eq!(origins, sorted);
    }

    #[test]
    fn metadata_accounting_positive() {
        let g = dense_grid(8, 4);
        assert!(g.metadata_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block() {
        let _ = GridBuilder::new(3);
    }
}
