//! One resolution level of the multi-resolution grid: a block-sparse grid
//! plus populations, ghost accumulators, flags and precomputed link tables
//! (paper §V-B: "we implement our grid refinement data structure by stacking
//! `L_max` block sparse data structures", extended with the indices needed
//! to reach interface cells at other resolutions).

use std::sync::Arc;

use lbm_gpu::AtomicF64Field;
use lbm_lattice::Real;
use lbm_sparse::{CellRef, Coord, DoubleBuffer, Field, SparseGrid, StreamOffsets};

use crate::flags::CellFlags;
use crate::links::{Deposit, LinkTable, PerBlock};

/// One ghost cell's fine children, for the gather-style Accumulate of the
/// modified baseline (paper §VI-B: "the Accumulate communication is
/// initiated from the coarse level").
#[derive(Copy, Clone, Debug)]
pub struct GatherEntry {
    /// The ghost's first accumulator slot, `ghost·q` (its direction `i`
    /// is slot `slot + i`).
    pub slot: usize,
    /// The 2³ children in the next-finer grid, encoded with
    /// [`crate::links::encode_ref`].
    pub children: [u64; 8],
    /// Per-child bitmask of crossing directions: bit `i` set means the
    /// child's `e_i` population leaves the fine region (and must be
    /// accumulated for Coalescence along `i`).
    pub masks: [u32; 8],
}

/// One level of the multi-resolution stack.
pub struct Level<T> {
    /// Block-sparse topology (real + ghost cells).
    pub grid: SparseGrid,
    /// Per-cell [`CellFlags`] bits.
    pub flags: Field<u8>,
    /// Per block: every cell slot is active and real. Such a block has no
    /// ghost or inactive slot to keep, so the streaming gather replays
    /// straight into the destination and the collide stores whole lane
    /// groups (DESIGN.md §4).
    pub all_real: Vec<bool>,
    /// Exception links, one flat list per kind (DESIGN.md §4).
    pub links: LinkTable<T>,
    /// Per-block Accumulate deposits into the next-coarser level's ghost
    /// accumulators, one per crossing population, in ascending cell then
    /// direction order. Every accumulator slot has exactly one depositing
    /// block (`MultiGrid::build` asserts it; DESIGN.md §10).
    pub deposits: PerBlock<Deposit>,
    /// Per-block gather entries (this level being the coarse side), one
    /// per ghost in ghost-number order.
    pub gather: PerBlock<GatherEntry>,
    /// Precomputed streaming offset tables for this level's block size and
    /// velocity set (process-wide shared per `(B, velocity set)` pair).
    pub offsets: Arc<StreamOffsets>,
    /// Double-buffered populations, **post-collision convention**: `src()`
    /// holds post-collision values of the level's current time.
    pub f: DoubleBuffer<T>,
    /// Ghost accumulators: `q` slots per ghost cell and nothing else, ghost
    /// `g`'s direction `i` at slot `g·q + i`, ghosts numbered in
    /// `(block, cell)` order. Empty on a level without ghosts, the finest
    /// one included (DESIGN.md §10).
    pub acc: AtomicF64Field,
    /// Block `b`'s ghosts are numbers `ghost_starts[b]..ghost_starts[b + 1]`
    /// (length `num_blocks + 1`), so its accumulator slots are the one
    /// contiguous range `q·ghost_starts[b]..q·ghost_starts[b + 1]`.
    pub ghost_starts: Vec<u32>,
    /// Relaxation rate ω_L of this level (paper Eq. 9).
    pub omega: f64,
    /// Number of real (evolving) cells — the `V_L` of the MLUPS formula
    /// (ghost cells excluded, paper §VI).
    pub real_cells: usize,
    /// Number of ghost accumulator cells.
    pub ghost_cells: usize,
}

impl<T: Real> Level<T> {
    /// Cell flags of one cell.
    #[inline(always)]
    pub fn cell_flags(&self, r: CellRef) -> CellFlags {
        CellFlags(self.flags.get(r.block, 0, r.cell))
    }

    /// Iterates `(CellRef, Coord)` over real cells only.
    pub fn iter_real(&self) -> impl Iterator<Item = (CellRef, Coord)> + '_ {
        self.grid
            .iter_active()
            .filter(|(r, _)| self.cell_flags(*r).is_real())
    }

    /// Iterates `(CellRef, Coord)` over ghost cells only.
    pub fn iter_ghost(&self) -> impl Iterator<Item = (CellRef, Coord)> + '_ {
        self.grid
            .iter_active()
            .filter(|(r, _)| self.cell_flags(*r).is_ghost())
    }

    /// Heap bytes of the population buffers.
    pub fn population_bytes(&self) -> usize {
        self.f.heap_bytes()
    }

    /// Heap bytes of the ghost accumulators the level allocates (ghost
    /// cells × components × 8 bytes — the quantity compared against the
    /// baseline's fine ghost layers in the paper's "1/3" claim).
    pub fn ghost_bytes_required(&self) -> usize {
        self.acc.heap_bytes()
    }
}
