//! One resolution level of the multi-resolution grid: a block-sparse grid
//! plus populations, ghost accumulators, flags and precomputed link tables
//! (paper §V-B: "we implement our grid refinement data structure by stacking
//! `L_max` block sparse data structures", extended with the indices needed
//! to reach interface cells at other resolutions).

use std::sync::Arc;

use lbm_gpu::AtomicF64Field;
use lbm_lattice::Real;
use lbm_sparse::{
    CellRef, Coord, DoubleBuffer, Field, OwnerMap, SparseGrid, StreamOffsets,
};

use crate::flags::CellFlags;
use crate::links::BlockLinks;

/// One ghost cell's fine children, for the gather-style Accumulate of the
/// modified baseline (paper §VI-B: "the Accumulate communication is
/// initiated from the coarse level").
#[derive(Copy, Clone, Debug)]
pub struct GatherEntry {
    /// Ghost cell (intra-block index) in the coarse block this entry
    /// belongs to.
    pub ghost_cell: u32,
    /// The 2³ children in the next-finer grid, encoded with
    /// [`crate::links::encode_ref`].
    pub children: [u64; 8],
    /// Per-child bitmask of crossing directions: bit `i` set means the
    /// child's `e_i` population leaves the fine region (and must be
    /// accumulated for Coalescence along `i`).
    pub masks: [u32; 8],
}

/// One coarse block's slice of the staged Accumulate merge plan: the range
/// of [`MergeSlotPlan`]s whose accumulator slots live in `coarse_block`.
/// One merge-kernel launch item owns exactly one coarse block, so parallel
/// merge items never share a destination slot.
#[derive(Copy, Clone, Debug)]
pub struct MergeBlockPlan {
    /// Destination block in the coarse level's accumulator field.
    pub coarse_block: u32,
    /// `[start, end)` range into [`AccStage::slots`].
    pub slots: (u32, u32),
}

/// One coarse accumulator slot `(dir, cell)` and the contribution list the
/// merge folds into it, **in the exact order the serial atomic scatter
/// would have added them** (fine block ascending, cell ascending, direction
/// bit ascending) — this ordering is what makes the staged path bit-identical
/// to the serial reference.
#[derive(Copy, Clone, Debug)]
pub struct MergeSlotPlan {
    /// Population direction (accumulator component).
    pub dir: u8,
    /// Intra-block cell index in the coarse block.
    pub cell: u32,
    /// `[start, start + len)` range into [`AccStage::contrib`].
    pub start: u32,
    /// Number of contributions folding into this slot.
    pub len: u32,
}

/// Precomputed staging plan for the deterministic parallel Accumulate
/// (fine level side): fine blocks deposit their crossing populations into a
/// private slab slot (disjoint plain stores, any thread order), then the
/// merge kernel folds the slab into the coarse accumulators one coarse
/// block per launch item, walking [`AccStage::slots`] in fixed SFC order.
/// See DESIGN.md §10.
pub struct AccStage {
    /// Dense renumbering of the fine blocks that accumulate (ascending
    /// block = SFC order).
    pub owners: OwnerMap,
    /// Private staging slab: one block of `q · B³` slots per accumulating
    /// fine block, indexed by the dense rank from [`AccStage::owners`].
    /// Plain stores only — never atomic adds.
    pub slab: AtomicF64Field,
    /// Per-coarse-block merge ranges, coarse block ascending.
    pub blocks: Vec<MergeBlockPlan>,
    /// Destination-slot plans, grouped under [`AccStage::blocks`].
    pub slots: Vec<MergeSlotPlan>,
    /// Flat slab element indices of every contribution, in serial scatter
    /// order per slot.
    pub contrib: Vec<u32>,
}

impl AccStage {
    /// Total number of staged contributions (equals the serial path's
    /// atomic add count).
    pub fn contrib_count(&self) -> usize {
        self.contrib.len()
    }

    /// Heap bytes of the staging slab (memory-model accounting).
    pub fn heap_bytes(&self) -> usize {
        self.slab.heap_bytes()
    }
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
    /// Per-block exception link tables.
    pub links: Vec<BlockLinks<T>>,
    /// Per-block Accumulate targets: for each cell slot, the encoded
    /// [`CellRef`] of its parent ghost cell in the next-coarser grid, or
    /// [`crate::links::NO_TARGET`]. `None` for blocks with no accumulating
    /// cells.
    pub acc_target: Vec<Option<Box<[u64]>>>,
    /// Per-block Accumulate direction masks, parallel to
    /// [`Level::acc_target`]: bit `i` set means the cell's `e_i`
    /// population crosses the interface and is accumulated.
    pub acc_dirs: Vec<Option<Box<[u32]>>>,
    /// Per-block gather entries (this level being the coarse side).
    pub gather: Vec<Vec<GatherEntry>>,
    /// Precomputed streaming offset tables for this level's block size and
    /// velocity set (process-wide shared per `(B, velocity set)` pair).
    pub offsets: Arc<StreamOffsets>,
    /// Double-buffered populations, **post-collision convention**: `src()`
    /// holds post-collision values of the level's current time.
    pub f: DoubleBuffer<T>,
    /// Ghost accumulators (one slot per cell slot; only ghost cells used).
    pub acc: AtomicF64Field,
    /// Staged-Accumulate plan for this level's fine→coarse scatter, present
    /// when any of this level's cells accumulate (i.e. the level is a fine
    /// side of a refinement interface).
    pub stage: Option<AccStage>,
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

    /// Heap bytes of the ghost accumulators actually required (ghost cells
    /// × components × 8 bytes — the quantity compared against the baseline's
    /// fine ghost layers in the paper's "1/3" claim).
    pub fn ghost_bytes_required(&self) -> usize {
        self.ghost_cells * self.acc.q() * 8
    }

    /// Sum of link-table entries over all blocks (diagnostics).
    pub fn link_count(&self) -> usize {
        self.links.iter().map(|b| b.link_count()).sum()
    }

    /// Number of accumulating (interface fine) cells.
    pub fn accumulator_cells(&self) -> usize {
        self.grid
            .iter_active()
            .filter(|(r, _)| self.cell_flags(*r).accumulates())
            .count()
    }
}
