//! The GPU kernels of the grid-refinement algorithm (paper §III–IV), in
//! both the separate (baseline) and fused (optimized) forms.
//!
//! All kernels are *pull*-based gathers over the **post-collision** buffer
//! convention: `src()` holds post-collision populations at the level's
//! current time; streaming writes post-streaming values into `dst`, and
//! collision transforms `dst` in place (or fuses with the gather). The only
//! scatter is the optimized Accumulate, which uses atomic adds into the
//! coarse ghost layer exactly as the paper prescribes (§IV-A).
//!
//! Every block streams through one gather, `stream_block`, built from
//! precomputed tables only (paper §V-B): it replays the level's
//! [`StreamOffsets`] copy-run plan, overwrites the block's linked
//! `(cell, direction)` pairs from its [`BlockLinks`] list, scatters
//! Accumulate by the per-cell direction masks, and keeps the bits of ghost
//! and inactive slots. A fully-interior block is the case with no links,
//! no masks and no slots to keep. No kernel branches on a cell's position
//! or looks its links up by cell.
//!
//! Kernel launches go through the virtual GPU [`Executor`]; each declares
//! its honest per-cell traffic so the device model can price it.

use lbm_gpu::{AtomicF64Field, Executor, LaunchCost};
use lbm_lattice::{Collision, Real, VelocitySet, MAX_Q};
use lbm_sparse::{Block, Field, SparseGrid, StreamOffsets, INVALID_BLOCK};

use crate::flags::CellFlags;
use crate::links::{decode_ref, BlockLinks, LinkKind, NO_TARGET};

/// Value-size in bytes of the population scalar.
fn value_bytes<T>() -> u64 {
    std::mem::size_of::<T>() as u64
}

/// Read-only views of one level needed by the streaming-family kernels.
#[derive(Copy, Clone)]
pub struct StreamInputs<'a, T> {
    /// Level topology.
    pub grid: &'a SparseGrid,
    /// Per-cell flags.
    pub flags: &'a Field<u8>,
    /// Per block: every slot is active and real ([`crate::Level::all_real`]).
    pub all_real: &'a [bool],
    /// Per-block link tables.
    pub links: &'a [BlockLinks<T>],
    /// Own-level post-collision populations (gather source).
    pub src: &'a Field<T>,
    /// Own-level ghost accumulators (Coalescence source).
    pub acc: &'a AtomicF64Field,
    /// Next-coarser level's post-collision populations (Explosion source);
    /// `None` on level 0.
    pub coarse_src: Option<&'a Field<T>>,
    /// Precomputed per-direction gather plans for this level's block size
    /// (shared per `(block_size, velocity set)` pair).
    pub offsets: &'a StreamOffsets,
}

/// Where the Accumulate scatter deposits a cell's crossing populations.
///
/// The two arms are the two halves of the determinism strategy (DESIGN.md
/// §10): the serial reference path adds straight into the coarse ghost
/// accumulators; the parallel path stores into a private per-fine-block
/// staging slab whose contents [`accumulate_merge`] later folds into the
/// same accumulators in a fixed order, making the float sum independent of
/// which pool thread ran which block.
#[derive(Copy, Clone)]
pub enum AccSink<'a> {
    /// CUDA-style `atomicAdd` directly into the coarse ghost accumulators.
    /// Deterministic only under single-thread execution (program-order
    /// arrival); this is the serial reference the staged path is pinned
    /// against.
    Atomic(&'a AtomicF64Field),
    /// Plain stores into the fine level's staging slab, addressed by the
    /// block's dense rank (`dense`, from
    /// [`crate::level::AccStage::owners`]). No atomics: every `(block,
    /// dir, cell)` slab slot has exactly one writer.
    Staged {
        /// The fine level's private staging slab.
        slab: &'a AtomicF64Field,
        /// Fine block → dense slab rank ([`lbm_sparse::NO_OWNER`] where
        /// the block does not accumulate).
        dense: &'a [u32],
    },
}

/// Accumulate tables of a (fine) level: the scatter destination plus the
/// per-cell parent targets and crossing-direction masks computed at grid
/// construction.
#[derive(Copy, Clone)]
pub struct AccTables<'a> {
    /// Scatter destination (serial atomic or staged slab).
    pub sink: AccSink<'a>,
    /// Per-block, per-cell encoded parent [`lbm_sparse::CellRef`]s.
    pub targets: &'a [Option<Box<[u64]>>],
    /// Per-block, per-cell crossing-direction bitmasks.
    pub dirs: &'a [Option<Box<[u32]>>],
}

impl AccTables<'_> {
    /// Deposits the crossing populations of one block's accumulating cells
    /// (read from `src`, the pre-streaming post-collision buffer) toward
    /// their parent ghosts — directly ([`AccSink::Atomic`]) or via the
    /// staging slab ([`AccSink::Staged`]). A cell accumulates iff its
    /// direction mask is non-zero; cells go in ascending order, the order
    /// the staged merge plan replays.
    ///
    /// Timing matters: the populations that cross the interface during a
    /// fine substep are the post-collision values *being streamed*, i.e.
    /// the substep's source buffer — accumulating the freshly collided
    /// output instead would lag the coarse Coalescence by one substep and
    /// break exact interface conservation.
    #[inline(always)]
    pub fn scatter_block<T: Real>(&self, src: &Field<T>, block: u32) {
        let (Some(tt), Some(dd)) = (
            self.targets[block as usize].as_deref(),
            self.dirs[block as usize].as_deref(),
        ) else {
            return;
        };
        for (cell, (&target, &dirs)) in tt.iter().zip(dd).enumerate() {
            let (cell, mut mask) = (cell as u32, dirs);
            if mask == 0 {
                continue;
            }
            debug_assert_ne!(target, NO_TARGET);
            match self.sink {
                AccSink::Atomic(acc) => {
                    let parent = decode_ref(target);
                    while mask != 0 {
                        let i = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        acc.add(parent.block, i, parent.cell, src.get(block, i, cell).to_f64());
                    }
                }
                AccSink::Staged { slab, dense } => {
                    let sb = dense[block as usize];
                    debug_assert_ne!(
                        sb,
                        lbm_sparse::NO_OWNER,
                        "staged scatter from unmapped block"
                    );
                    while mask != 0 {
                        let i = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        slab.store(sb, i, cell, src.get(block, i, cell).to_f64());
                    }
                }
            }
        }
    }
}

/// Which link families the streaming kernel resolves inline. The families
/// it does *not* handle are left for the separate Explosion / Coalescence
/// kernels of the unfused variants (Fig. 4b/4c), which overwrite those
/// `(cell, direction)` pairs before anything reads them.
#[derive(Copy, Clone, Debug)]
pub struct StreamOptions {
    /// Resolve Explosion links inline (fused SE, Fig. 4d).
    pub explosion: bool,
    /// Resolve Coalescence links inline (fused SO, Fig. 4e).
    pub coalesce: bool,
}

/// Replays the copy-run plan of every direction into `out`, the block's
/// `q·B³` chunk of the destination field, at component base `i·B³`. A run
/// whose source block is missing is skipped: grid construction asserts
/// that every cell it covers is non-real or linked in that direction
/// (`MultiGrid::build`), so [`stream_block`] overwrites or restores it.
/// Every other cell reads exactly `src[x − e_i][i]` (the plan is the closed
/// form of the per-cell pull), through straight `copy_from_slice` runs
/// with no per-cell branching; the rest direction is a single `B³` memcpy.
#[inline(always)]
fn replay_runs<T: Real>(
    offsets: &StreamOffsets,
    src: &Field<T>,
    neighbors: &[lbm_sparse::BlockIdx],
    q: usize,
    out: &mut [T],
) {
    let (src_all, stride, cpb) = (src.as_slice(), src.block_stride(), src.cells_per_block());
    for i in 0..q {
        let comp = i * cpb;
        for e in &offsets.dir(i).runs {
            // The center slot holds the block itself.
            let nb = neighbors[e.slot as usize];
            if nb == INVALID_BLOCK {
                continue;
            }
            let (mut dst, mut src) = (
                comp + e.dst_base as usize,
                nb as usize * stride + comp + e.src_base as usize,
            );
            let (len, stride) = (e.len as usize, e.stride as usize);
            if len == 1 {
                // One-cell spill columns (e.g. the x-face of the block):
                // a strided scalar loop beats per-element memcpy calls.
                for _ in 0..e.count {
                    out[dst] = src_all[src];
                    dst += stride;
                    src += stride;
                }
            } else {
                for _ in 0..e.count {
                    out[dst..dst + len].copy_from_slice(&src_all[src..src + len]);
                    dst += stride;
                    src += stride;
                }
            }
        }
    }
}

/// True for a slot that holds a real cell: active and flagged real.
#[inline(always)]
fn is_real(blk: &Block, flags: &[u8], cell: usize) -> bool {
    blk.active.get(cell) && CellFlags(flags[cell]).is_real()
}

/// Overwrites the linked `(cell, direction)` pairs of block `b` whose link
/// kind `handled` accepts, walking the block's link list.
#[inline(always)]
fn patch_links<T: Real>(
    inp: &StreamInputs<'_, T>,
    b: u32,
    out: &mut [T],
    handled: impl Fn(&LinkKind<T>) -> bool,
) {
    let cpb = inp.grid.cells_per_block();
    for set in &inp.links[b as usize].cells {
        for l in &set.links {
            if handled(&l.kind) {
                out[l.dir as usize * cpb + set.cell as usize] =
                    resolve_link(&l.kind, inp, b, set.cell, l.dir as usize);
            }
        }
    }
}

/// The streaming gather of one block into `out`, the same for every block:
/// deposit Accumulate (`accumulate`), replay the copy-run plan
/// ([`replay_runs`]), and patch the linked pairs `opts` resolves. A block
/// with ghost or inactive slots replays into a tile and stores only its
/// real cells, so those slots keep their prior bits. Pairs whose links
/// `opts` excludes hold unspecified values until the separate Explosion or
/// Coalescence kernel fills them.
#[inline(always)]
fn stream_block<T: Real, V: VelocitySet>(
    inp: &StreamInputs<'_, T>,
    b: u32,
    out: &mut [T],
    opts: StreamOptions,
    accumulate: Option<AccTables<'_>>,
) {
    let cpb = inp.grid.cells_per_block();
    if let Some(t) = accumulate {
        t.scatter_block(inp.src, b);
    }
    let blk = inp.grid.block(b);
    if inp.all_real[b as usize] {
        replay_runs(inp.offsets, inp.src, &blk.neighbors, V::Q, out);
    } else {
        let mut tile = vec![T::ZERO; V::Q * cpb];
        replay_runs(inp.offsets, inp.src, &blk.neighbors, V::Q, &mut tile);
        let flags = inp.flags.component(b, 0);
        let real: Vec<usize> = (0..cpb).filter(|&c| is_real(blk, flags, c)).collect();
        for (col, from) in out.chunks_exact_mut(cpb).zip(tile.chunks_exact(cpb)) {
            for &c in &real {
                col[c] = from[c];
            }
        }
    }
    patch_links(inp, b, out, |k| match k {
        LinkKind::Explosion { .. } => opts.explosion,
        LinkKind::Coalesce { .. } => opts.coalesce,
        _ => true, // boundaries always resolve in S
    });
}

/// The value link `kind` gives direction `dir` of `cell` in `block`.
#[inline(always)]
fn resolve_link<T: Real>(
    kind: &LinkKind<T>,
    inp: &StreamInputs<'_, T>,
    block: u32,
    cell: u32,
    dir: usize,
) -> T {
    let src = inp.src;
    match *kind {
        LinkKind::BounceBack { opp } => src.get(block, opp as usize, cell),
        LinkKind::MovingWall { opp, term } => src.get(block, opp as usize, cell) + term,
        LinkKind::Outflow { weight } => weight,
        LinkKind::Periodic { src: s } => src.get(s.block, dir, s.cell),
        LinkKind::Explosion { src: s } => inp
            .coarse_src
            .expect("explosion link on level 0")
            .get(s.block, dir, s.cell),
        LinkKind::Coalesce { src: s, inv_count } => {
            T::from_f64(inp.acc.load(s.block, dir, s.cell)) * inv_count
        }
    }
}

/// Streaming kernel (paper "S"): `dst[x][i] = src[x − e_i][i]` with link
/// resolution per [`StreamOptions`], through `stream_block`. Ghost and
/// inactive slots keep their contents.
pub fn stream<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    dst: &mut Field<T>,
    opts: StreamOptions,
    accumulate: Option<AccTables<'_>>,
    real_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    // Traffic: q loads (neighbors) + q stores per real cell.
    let cost = LaunchCost::cells(real_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .build();
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        stream_block::<T, V>(&inp, b, out, opts, accumulate);
    });
}

/// Separate Explosion kernel (paper "E", baseline variants): fills the
/// directions skipped by [`stream`] with `opts.explosion == false`.
pub fn explosion<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    dst: &mut Field<T>,
    interface_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    assert!(
        inp.coarse_src.is_some(),
        "explosion kernel launched on level 0"
    );
    // Traffic: touching only interface links, but the launch still scans
    // block metadata — the paper's point about unfused kernels.
    let cost = LaunchCost::cells(interface_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .build();
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        patch_links(&inp, b, out, |k| matches!(k, LinkKind::Explosion { .. }));
    });
}

/// Separate Coalescence kernel (paper "O", baseline variants): fills the
/// directions skipped by [`stream`] with `opts.coalesce == false` from the
/// ghost accumulators.
pub fn coalesce<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    dst: &mut Field<T>,
    interface_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    let cost = LaunchCost::cells(interface_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .build();
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        patch_links(&inp, b, out, |k| matches!(k, LinkKind::Coalesce { .. }));
    });
}

/// Collision kernel (paper "C"): in-place BGK/KBC on the post-streaming
/// buffer, real cells only, eight cells at a time (`LANES`).
pub fn collide<T: Real, V: VelocitySet, C: Collision<T, V>>(
    exec: &Executor,
    name: &'static str,
    grid: &SparseGrid,
    flags: &Field<u8>,
    op: &C,
    dst: &mut Field<T>,
    real_cells: u64,
) {
    let q = V::Q;
    let cpb = grid.cells_per_block();
    let stride = dst.block_stride();
    // Traffic: q loads + q stores per real cell.
    let cost = LaunchCost::cells(real_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .build();
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        collide_block::<T, V, C>(op, out, cpb, Some((grid.block(b), flags.component(b, 0))));
    });
}

/// Cells one collide site relaxes at once through
/// [`Collision::collide_lanes`]: `LANES` adjacent cells of a block, whose
/// populations sit contiguously in each block-SoA column (the host analogue
/// of a warp relaxing adjacent cells in lockstep). Every block holds `B³`
/// cells with `B ≥ 2` a power of two, a multiple of 8, so blocks split into
/// whole groups and need no tail loop.
const LANES: usize = 8;

/// Collides the real cells of one block in place, `LANES` cells at a time.
/// With `cells = None` every slot is real ([`crate::Level::all_real`]) and each
/// group is stored whole. Otherwise `cells` holds the block's active mask
/// and cell flags: groups without a real cell are skipped, and a group's
/// store writes only its real cells, so ghost and inactive slots keep
/// their contents.
#[inline(always)]
fn collide_block<T: Real, V: VelocitySet, C: Collision<T, V>>(
    op: &C,
    out: &mut [T],
    cpb: usize,
    cells: Option<(&Block, &[u8])>,
) {
    debug_assert_eq!(cpb % LANES, 0, "partial lane group");
    for base in (0..cpb).step_by(LANES) {
        let mut real = [true; LANES];
        if let Some((blk, flags)) = cells {
            for (l, r) in real.iter_mut().enumerate() {
                *r = is_real(blk, flags, base + l);
            }
            if !real.contains(&true) {
                continue;
            }
        }
        let mut f = [[T::ZERO; LANES]; MAX_Q];
        for i in 0..V::Q {
            f[i].copy_from_slice(&out[i * cpb + base..][..LANES]);
        }
        op.collide_lanes(&mut f);
        let whole = !real.contains(&false);
        for i in 0..V::Q {
            let col = &mut out[i * cpb + base..][..LANES];
            if whole {
                col.copy_from_slice(&f[i]);
            } else {
                for l in 0..LANES {
                    if real[l] {
                        col[l] = f[i][l];
                    }
                }
            }
        }
    }
}

/// Staged-Accumulate merge (label "M", the second half of the
/// deterministic parallel Accumulate; DESIGN.md §10): folds the fine
/// level's staging slab into the coarse ghost accumulators. One launch item
/// owns one coarse block, so parallel items never share a destination; per
/// slot the contributions are added in the plan's fixed serial order, so
/// the resulting float sums are bit-identical to the serial atomic scatter
/// for every thread count.
///
/// Reads **only** slots the staged scatter wrote this substep (the plan's
/// predicate equals the scatter's), so no slab reset is needed between
/// substeps — each deposit overwrites the previous one in place.
pub fn accumulate_merge(
    exec: &Executor,
    name: &'static str,
    stage: &crate::level::AccStage,
    acc: &AtomicF64Field,
) {
    let slots = stage.slots.len() as u64;
    let contribs = stage.contrib.len() as u64;
    // Traffic: per destination slot, one accumulator load + store, plus one
    // slab load per contribution. No lattice cells processed (the scatter
    // already counted them) and no atomics — that is the point.
    let cost = LaunchCost {
        cells: 0,
        bytes_read: (slots + contribs) * 8,
        bytes_written: slots * 8,
        ..LaunchCost::default()
    };
    exec.launch(name, stage.blocks.len(), cost, |b| {
        let bp = &stage.blocks[b as usize];
        for s in &stage.slots[bp.slots.0 as usize..bp.slots.1 as usize] {
            let mut v = acc.load(bp.coarse_block, s.dir as usize, s.cell);
            for &ci in &stage.contrib[s.start as usize..(s.start + s.len) as usize] {
                v += stage.slab.load_flat(ci as usize);
            }
            acc.store(bp.coarse_block, s.dir as usize, s.cell, v);
        }
    });
}

/// Gather Accumulate (paper "A" of the *modified baseline*, Fig. 4b /
/// §VI-B: "the Accumulate communication is initiated from the coarse
/// level"): each coarse ghost cell reads its 2³ fine children and adds them
/// into its accumulator — no atomics needed.
pub fn accumulate_gather<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    coarse_grid: &SparseGrid,
    gather: &[Vec<crate::level::GatherEntry>],
    own_acc: &AtomicF64Field,
    fine_src: &Field<T>,
    ghost_cells: u64,
) {
    let q = V::Q;
    // 8 child loads per ghost per component + 1 store.
    let cost = LaunchCost::cells(ghost_cells)
        .loads(8 * q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(coarse_grid.cells_per_block())
        .build();
    exec.launch(name, coarse_grid.num_blocks(), cost, |b| {
        for e in &gather[b as usize] {
            for i in 0..q {
                let mut sum = 0.0;
                let mut any = false;
                for (k, &enc) in e.children.iter().enumerate() {
                    if (e.masks[k] >> i) & 1 == 1 {
                        let child = decode_ref(enc);
                        sum += fine_src.get(child.block, i, child.cell).to_f64();
                        any = true;
                    }
                }
                if any {
                    let cur = own_acc.load(b, i, e.ghost_cell);
                    own_acc.store(b, i, e.ghost_cell, cur + sum);
                }
            }
        }
    });
}

/// The fully fused kernel of Fig. 4f ("CASE"): streaming gather (with
/// Explosion and Coalescence inline), collision, and Accumulate, in one
/// launch. Each block is gathered into `dst` by `stream_block` and then
/// collided there in `LANES`-cell groups while it is still in cache.
pub fn fused_stream_collide<T: Real, V: VelocitySet, C: Collision<T, V>>(
    exec: &Executor,
    name: &'static str,
    inp: StreamInputs<'_, T>,
    op: &C,
    dst: &mut Field<T>,
    accumulate: Option<AccTables<'_>>,
    real_cells: u64,
) {
    let q = V::Q;
    let cpb = inp.grid.cells_per_block();
    let stride = dst.block_stride();
    let cost = LaunchCost::cells(real_cells)
        .loads(q as u64)
        .stores(q as u64)
        .value_bytes(value_bytes::<T>())
        .thread_block(cpb)
        .build();
    // Every link family resolves inline.
    let all = StreamOptions {
        explosion: true,
        coalesce: true,
    };
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        stream_block::<T, V>(&inp, b, out, all, accumulate);
        // Blocks with ghost or inactive slots store only their real cells.
        let cells = (!inp.all_real[b as usize])
            .then(|| (inp.grid.block(b), inp.flags.component(b, 0)));
        collide_block::<T, V, C>(op, out, cpb, cells);
    });
}

/// Resets the ghost accumulators of a level after Coalescence consumed them
/// (paper §IV-A: "when the coarse cell performs its Coalescence step, it
/// will reset the ghost layer allowing subsequent Accumulate steps to be
/// done correctly"). Only ghost slots (via the gather lists) are touched.
pub fn reset_accumulators(
    exec: &Executor,
    name: &'static str,
    coarse_grid: &SparseGrid,
    gather: &[Vec<crate::level::GatherEntry>],
    acc: &AtomicF64Field,
    ghost_cells: u64,
    q: usize,
) {
    let cost = LaunchCost::cells(ghost_cells)
        .stores(q as u64)
        .thread_block(coarse_grid.cells_per_block())
        .build();
    exec.launch(name, coarse_grid.num_blocks(), cost, |b| {
        for e in &gather[b as usize] {
            for i in 0..q {
                acc.store(b, i, e.ghost_cell, 0.0);
            }
        }
    });
}
