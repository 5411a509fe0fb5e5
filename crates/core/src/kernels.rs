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
//! Kernel launches go through the virtual GPU [`Executor`]; each declares
//! its honest per-cell traffic so the device model can price it.

use lbm_gpu::{AtomicF64Field, Executor, LaunchCost};
use lbm_lattice::{Collision, Real, VelocitySet, MAX_Q};
use lbm_sparse::{Field, SparseGrid, StreamOffsets, CENTER_SLOT};

use crate::flags::{BlockFlags, CellFlags};
use crate::links::{decode_ref, BlockLinks, LinkKind, NO_TARGET};

/// Value-size in bytes of the population scalar.
fn value_bytes<T>() -> u64 {
    std::mem::size_of::<T>() as u64
}

/// Which implementation eligible (fully-interior, stencil-complete) blocks
/// use in the streaming-family kernels. Frontier/interface blocks always
/// take the general per-cell path regardless of this setting.
///
/// Both paths are bit-identical by construction (they read the same source
/// addresses); the equivalence proptest in
/// `crates/core/tests/fastpath_equivalence.rs` pins that down. [`General`]
/// forces the link-resolving path everywhere: it is the reference the fast
/// path is tested and benchmarked against.
///
/// [`General`]: InteriorPath::General
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum InteriorPath {
    /// Direction-major traversal over precomputed [`StreamOffsets`] copy
    /// runs: branch-free contiguous-run copies (the optimized path).
    #[default]
    DirMajor,
    /// No fast path: every block runs the general link-resolving loop.
    General,
}

/// Read-only views of one level needed by the streaming-family kernels.
#[derive(Copy, Clone)]
pub struct StreamInputs<'a, T> {
    /// Level topology.
    pub grid: &'a SparseGrid,
    /// Per-cell flags.
    pub flags: &'a Field<u8>,
    /// Per-block summaries.
    pub block_flags: &'a [crate::flags::BlockFlags],
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
    /// Fast-path selection for eligible interior blocks.
    pub interior_path: InteriorPath,
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
    /// Deposits the crossing populations of one cell (read from `src`, the
    /// pre-streaming post-collision buffer) toward its parent ghost —
    /// directly ([`AccSink::Atomic`]) or via the staging slab
    /// ([`AccSink::Staged`]).
    ///
    /// Timing matters: the populations that cross the interface during a
    /// fine substep are the post-collision values *being streamed*, i.e.
    /// the substep's source buffer — accumulating the freshly collided
    /// output instead would lag the coarse Coalescence by one substep and
    /// break exact interface conservation.
    #[inline(always)]
    pub fn scatter_from<T: Real>(&self, src: &Field<T>, block: u32, cell: u32) {
        let (Some(tt), Some(dd)) = (
            self.targets[block as usize].as_deref(),
            self.dirs[block as usize].as_deref(),
        ) else {
            return;
        };
        let mut mask = dd[cell as usize];
        if mask == 0 {
            return;
        }
        debug_assert_ne!(tt[cell as usize], NO_TARGET);
        match self.sink {
            AccSink::Atomic(acc) => {
                let parent = decode_ref(tt[cell as usize]);
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    acc.add(parent.block, i, parent.cell, src.get(block, i, cell).to_f64());
                }
            }
            AccSink::Staged { slab, dense } => {
                let sb = dense[block as usize];
                debug_assert_ne!(sb, lbm_sparse::NO_OWNER, "staged scatter from unmapped block");
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    slab.store(sb, i, cell, src.get(block, i, cell).to_f64());
                }
            }
        }
    }
}

/// Which link families the streaming kernel resolves inline. The families
/// it does *not* handle are left for the separate Explosion / Coalescence
/// kernels of the unfused variants (Fig. 4b/4c).
#[derive(Copy, Clone, Debug)]
pub struct StreamOptions {
    /// Resolve Explosion links inline (fused SE, Fig. 4d).
    pub explosion: bool,
    /// Resolve Coalescence links inline (fused SO, Fig. 4e).
    pub coalesce: bool,
}

/// Per-block gather context: resolves same-level pull sources with pure
/// integer adds and compares (no divisions, no `Coord` arithmetic),
/// reading through the raw per-block slice (`comp·B³ + cell` within a
/// block). This is the hot path of every streaming-family kernel.
struct BlockGather<'a, T> {
    src_all: &'a [T],
    block_base: usize,
    stride: usize,
    cpb: usize,
    bsz: i32,
    neighbors: &'a [lbm_sparse::BlockIdx; lbm_sparse::grid::NEIGHBOR_SLOTS],
}

impl<'a, T: Real> BlockGather<'a, T> {
    #[inline(always)]
    fn new(grid: &'a SparseGrid, src: &'a Field<T>, b: u32) -> Self {
        let stride = src.block_stride();
        Self {
            src_all: src.as_slice(),
            block_base: b as usize * stride,
            stride,
            cpb: src.cells_per_block(),
            bsz: grid.block_size() as i32,
            neighbors: &grid.block(b).neighbors,
        }
    }

    /// Pulls direction `i` for the cell at local coords `(lx, ly, lz)`:
    /// reads `src[x − e_i][i]`, following the precomputed neighbor-block
    /// table when the source leaves the block. The grid construction
    /// guarantees the source block exists for every non-linked direction.
    #[inline(always)]
    fn pull(&self, lx: i32, ly: i32, lz: i32, i: usize, c: [i32; 3]) -> T {
        let b = self.bsz;
        let sx = lx - c[0];
        let sy = ly - c[1];
        let sz = lz - c[2];
        let (ox, wx) = if sx < 0 {
            (-1, sx + b)
        } else if sx >= b {
            (1, sx - b)
        } else {
            (0, sx)
        };
        let (oy, wy) = if sy < 0 {
            (-1, sy + b)
        } else if sy >= b {
            (1, sy - b)
        } else {
            (0, sy)
        };
        let (oz, wz) = if sz < 0 {
            (-1, sz + b)
        } else if sz >= b {
            (1, sz - b)
        } else {
            (0, sz)
        };
        let scell = (wx + b * (wy + b * wz)) as usize;
        let base = if ox == 0 && oy == 0 && oz == 0 {
            self.block_base
        } else {
            let slot = ((ox + 1) + 3 * (oy + 1) + 9 * (oz + 1)) as usize;
            let nb = self.neighbors[slot];
            debug_assert_ne!(nb, lbm_sparse::INVALID_BLOCK, "gather into missing block");
            nb as usize * self.stride
        };
        self.src_all[base + i * self.cpb + scell]
    }

    /// Direction-major interior gather: for every direction `i`, executes
    /// the precomputed cell-space [`CopyRun`](lbm_sparse::CopyRun) plan into
    /// `out`, offset by the component base `i·B³`. Reads exactly the
    /// addresses the per-cell [`BlockGather::pull`] would read (the tables
    /// are the closed form of its branch chains), so the result is
    /// bit-identical — but the inner loop is a straight `copy_from_slice`
    /// with no per-cell branching; the rest direction is a single `B³`
    /// memcpy. Callers must only use this on blocks whose needed neighbor
    /// slots all exist ([`BlockFlags::STENCIL_COMPLETE`]).
    #[inline(always)]
    fn gather_dir_major(&self, offsets: &StreamOffsets, q: usize, out: &mut [T]) {
        for i in 0..q {
            let comp = i * self.cpb;
            for e in &offsets.dir(i).runs {
                let src_block = if e.slot == CENTER_SLOT {
                    self.block_base
                } else {
                    let nb = self.neighbors[e.slot as usize];
                    debug_assert_ne!(
                        nb,
                        lbm_sparse::INVALID_BLOCK,
                        "dir-major gather into missing block"
                    );
                    nb as usize * self.stride
                };
                let (mut dst, mut src) = (
                    comp + e.dst_base as usize,
                    src_block + comp + e.src_base as usize,
                );
                let (len, stride) = (e.len as usize, e.stride as usize);
                if len == 1 {
                    // One-cell spill columns (e.g. the x-face of the block):
                    // a strided scalar loop beats per-element memcpy calls.
                    for _ in 0..e.count {
                        out[dst] = self.src_all[src];
                        dst += stride;
                        src += stride;
                    }
                } else {
                    for _ in 0..e.count {
                        out[dst..dst + len].copy_from_slice(&self.src_all[src..src + len]);
                        dst += stride;
                        src += stride;
                    }
                }
            }
        }
    }
}

/// Direction components `e_i` copied into a stack array once per kernel
/// block, so the per-cell loops index a local instead of re-loading through
/// the `V::C` static on every cell.
#[inline(always)]
fn dir_table<V: VelocitySet>() -> [[i32; 3]; MAX_Q] {
    let mut c = [[0i32; 3]; MAX_Q];
    c[..V::Q].copy_from_slice(&V::C[..V::Q]);
    c
}

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
/// resolution per [`StreamOptions`]. Ghost cells are skipped. Directions
/// whose links are excluded by the options are left untouched in `dst` (the
/// separate kernel fills them).
#[allow(clippy::too_many_arguments)]
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
        if interior_fast_path(inp.block_flags[b as usize], inp.interior_path) {
            BlockGather::new(inp.grid, inp.src, b).gather_dir_major(inp.offsets, q, out);
        } else {
            gather_block::<T, V>(&inp, b, out, opts, accumulate);
        }
    });
}

/// The general, link-resolving gather of one block into `out`: for every
/// real cell it deposits the cell's crossing populations (`accumulate`),
/// copies the rest population, and pulls or resolves every other
/// direction. Directions whose links `opts` excludes are left untouched,
/// and so are the slots of ghost and inactive cells.
#[inline(always)]
fn gather_block<T: Real, V: VelocitySet>(
    inp: &StreamInputs<'_, T>,
    b: u32,
    out: &mut [T],
    opts: StreamOptions,
    accumulate: Option<AccTables<'_>>,
) {
    let q = V::Q;
    let grid = inp.grid;
    let cpb = grid.cells_per_block();
    let g = BlockGather::new(grid, inp.src, b);
    let bsz = grid.block_size() as i32;
    let cdir = dir_table::<V>();
    let blk = grid.block(b);
    let links = &inp.links[b as usize];
    let flags = inp.flags.component(b, 0);
    let tables = accumulate.filter(|t| t.targets[b as usize].is_some());
    let mut cell = 0usize;
    for lz in 0..bsz {
        for ly in 0..bsz {
            for lx in 0..bsz {
                let cf = CellFlags(flags[cell]);
                if !blk.active.get(cell) || !cf.is_real() {
                    cell += 1;
                    continue;
                }
                if let Some(t) = &tables {
                    if cf.accumulates() {
                        t.scatter_from(inp.src, b, cell as u32);
                    }
                }
                out[cell] = g.src_all[g.block_base + cell]; // rest
                match links.of(cell as u32) {
                    None => {
                        for i in 1..q {
                            out[i * cpb + cell] = g.pull(lx, ly, lz, i, cdir[i]);
                        }
                    }
                    Some(set) => {
                        let mut li = 0usize;
                        for i in 1..q {
                            let linked = li < set.links.len() && set.links[li].dir as usize == i;
                            if linked {
                                let kind = &set.links[li].kind;
                                li += 1;
                                let handled = match kind {
                                    LinkKind::Explosion { .. } => opts.explosion,
                                    LinkKind::Coalesce { .. } => opts.coalesce,
                                    _ => true, // boundaries always resolve in S
                                };
                                if handled {
                                    out[i * cpb + cell] =
                                        resolve_link(kind, inp, b, cell as u32, i);
                                }
                            } else {
                                out[i * cpb + cell] = g.pull(lx, ly, lz, i, cdir[i]);
                            }
                        }
                    }
                }
                cell += 1;
            }
        }
    }
}

/// True when `block` may skip the general link-resolving loop under the
/// selected path: it must be fully interior *and* have every neighbor slot
/// the offset tables read (the two flags are set together by the builder;
/// requiring both keeps the invariant explicit at the use site).
#[inline(always)]
fn interior_fast_path(bf: BlockFlags, path: InteriorPath) -> bool {
    path != InteriorPath::General
        && bf.has(BlockFlags::FULLY_INTERIOR)
        && bf.has(BlockFlags::STENCIL_COMPLETE)
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
    // Unlike stream/fused_stream_collide there is no `V::C` table to hoist
    // here: the kernel walks precomputed link sets and never consults
    // direction components.
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        let links = &inp.links[b as usize];
        for set in &links.cells {
            for l in &set.links {
                if matches!(l.kind, LinkKind::Explosion { .. }) {
                    out[l.dir as usize * cpb + set.cell as usize] =
                        resolve_link(&l.kind, &inp, b, set.cell, l.dir as usize);
                }
            }
        }
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
        let links = &inp.links[b as usize];
        for set in &links.cells {
            for l in &set.links {
                if let LinkKind::Coalesce { src, inv_count } = l.kind {
                    out[l.dir as usize * cpb + set.cell as usize] =
                        T::from_f64(inp.acc.load(src.block, l.dir as usize, src.cell)) * inv_count;
                }
            }
        }
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
/// With `cells = None` every cell is real (a fully-interior block) and each
/// group is stored whole. Otherwise `cells` holds the block's active mask
/// and cell flags: groups without a real cell are skipped, and a group's
/// store writes only its real cells, so ghost and inactive slots keep
/// their contents.
#[inline(always)]
fn collide_block<T: Real, V: VelocitySet, C: Collision<T, V>>(
    op: &C,
    out: &mut [T],
    cpb: usize,
    cells: Option<(&lbm_sparse::Block, &[u8])>,
) {
    debug_assert_eq!(cpb % LANES, 0, "partial lane group");
    for base in (0..cpb).step_by(LANES) {
        let mut real = [true; LANES];
        if let Some((blk, flags)) = cells {
            for (l, r) in real.iter_mut().enumerate() {
                *r = blk.active.get(base + l) && CellFlags(flags[base + l]).is_real();
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
/// launch. Each block is gathered into `dst` and then collided there in
/// `LANES`-cell groups while it is still in cache.
#[allow(clippy::too_many_arguments)]
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
        if interior_fast_path(inp.block_flags[b as usize], inp.interior_path) {
            // Fully-interior blocks hold only real cells with no links and
            // no accumulating cells (their `acc_target` entry is `None`),
            // so the fused kernel reduces to gather + in-place collide.
            BlockGather::new(inp.grid, inp.src, b).gather_dir_major(inp.offsets, q, out);
            collide_block::<T, V, C>(op, out, cpb, None);
        } else {
            // Frontier blocks: gather every real cell into `out` first,
            // then collide them in lane groups, storing only real cells.
            gather_block::<T, V>(&inp, b, out, all, accumulate);
            let cells = (inp.grid.block(b), inp.flags.component(b, 0));
            collide_block::<T, V, C>(op, out, cpb, Some(cells));
        }
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
