//! The GPU kernels of the grid-refinement algorithm (paper §III–IV), in
//! both the separate (baseline) and fused (optimized) forms.
//!
//! All kernels are *pull*-based gathers over the **post-collision** buffer
//! convention: `src()` holds post-collision populations at the level's
//! current time; streaming writes post-streaming values into `dst`, and
//! collision transforms `dst` in place (or fuses with the gather). The only
//! scatter is the optimized Accumulate into the coarse ghost layer (paper
//! §IV-A). The GPU needs `atomicAdd` there because a ghost cell's 2³
//! children run as different threads; here a launch item runs a whole
//! block on one thread and every ghost's children share one fine block, so
//! each accumulator slot has one writer per launch and the deposit is a
//! plain load, add and store (DESIGN.md §10).
//!
//! Every block streams through one gather, `stream_block`, built from
//! precomputed tables only (paper §V-B): it replays the level's
//! [`StreamOffsets`] copy-run plan, overwrites the block's linked
//! `(cell, direction)` pairs from the per-kind index lists of its
//! [`LinkTable`], deposits Accumulate through its [`Deposit`] list, and
//! keeps the bits of ghost and inactive slots. A fully-interior block is
//! the case with empty lists and no slots to keep. No kernel branches on a
//! cell's position or a link's kind, or looks a link up by cell.
//!
//! Kernel launches go through the virtual GPU [`Executor`]; each declares
//! its honest per-cell traffic so the device model can price it.

use lbm_gpu::{AtomicF64Field, Executor, LaunchCost};
use lbm_lattice::{Collision, Real, VelocitySet, MAX_Q};
use lbm_sparse::{Field, SparseGrid, StreamOffsets, INVALID_BLOCK};

use crate::flags::CellFlags;
use crate::links::{decode_ref, Deposit, LinkTable, PerBlock};

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
    /// The level's exception links.
    pub links: &'a LinkTable<T>,
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

/// Accumulate tables of a (fine) level: the next-coarser level's ghost
/// accumulators and the fine level's deposit lists.
#[derive(Copy, Clone)]
pub struct AccTables<'a> {
    /// The next-coarser level's ghost accumulators.
    pub acc: &'a AtomicF64Field,
    /// The fine level's deposits ([`crate::Level::deposits`]).
    pub deposits: &'a PerBlock<Deposit>,
}

impl AccTables<'_> {
    /// Deposits the crossing populations of one block (read from `src`,
    /// the pre-streaming post-collision buffer) into their parent ghosts'
    /// accumulators, in place: a relaxed load, an add and a store per
    /// deposit. `MultiGrid::build` asserts that every accumulator slot has
    /// one depositing block, and a launch item runs a whole block, so no
    /// other thread touches the slot during the launch. The deposits go in
    /// ascending cell, then direction order, the addition chain of a serial
    /// scatter over the blocks in order, so the sums have the same bits at
    /// every pool width.
    ///
    /// Timing matters: the populations that cross the interface during a
    /// fine substep are the post-collision values *being streamed*, i.e.
    /// the substep's source buffer — accumulating the freshly collided
    /// output instead would lag the coarse Coalescence by one substep and
    /// break exact interface conservation.
    #[inline(always)]
    pub fn scatter_block<T: Real>(&self, src: &Field<T>, block: u32) {
        let from = src.block(block);
        for d in self.deposits.of(block) {
            let v = self.acc.load(d.dst) + from[d.src as usize].to_f64();
            self.acc.store(d.dst, v);
        }
    }
}

/// Which interface link lists the streaming kernel resolves inline. The
/// lists it skips are left for the separate Explosion / Coalescence kernels
/// of the unfused variants (Fig. 4b/4c), which overwrite those
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

/// True for a slot that holds a real cell. An inactive slot's flag byte
/// is 0 ([`crate::MultiGrid::build`] writes flags only for active cells),
/// so the flags alone decide.
#[inline(always)]
fn is_real(flags: &[u8], cell: usize) -> bool {
    CellFlags(flags[cell]).is_real()
}

/// Which of the `LANES` cells from `base` on are real.
#[inline(always)]
fn lane_mask(flags: &[u8], base: usize) -> [bool; LANES] {
    std::array::from_fn(|l| is_real(flags, base + l))
}

/// Stores one lane group's column `from` into `col`: whole when every lane
/// is real, else only the real lanes.
#[inline(always)]
fn store_lanes<T: Copy>(col: &mut [T], from: &[T], real: &[bool; LANES]) {
    if !real.contains(&false) {
        col.copy_from_slice(from);
    } else {
        for l in 0..LANES {
            if real[l] {
                col[l] = from[l];
            }
        }
    }
}

/// Overwrites the Explosion-linked pairs of block `b` from the coarser
/// level's source half.
#[inline(always)]
fn explode_block<T: Real>(inp: &StreamInputs<'_, T>, b: u32, out: &mut [T]) {
    let list = inp.links.explosion.of(b);
    if list.is_empty() {
        return;
    }
    let coarse = inp.coarse_src.expect("explosion link on level 0").as_slice();
    for p in list {
        out[p.dst as usize] = coarse[p.src];
    }
}

/// Overwrites the Coalescence-linked pairs of block `b` from the level's
/// ghost accumulators.
#[inline(always)]
fn coalesce_block<T: Real>(inp: &StreamInputs<'_, T>, b: u32, out: &mut [T]) {
    for s in inp.links.coalesce.of(b) {
        out[s.dst as usize] = T::from_f64(inp.acc.load(s.src)) * s.scale;
    }
}

/// Overwrites the linked `(cell, direction)` pairs of block `b`: the
/// boundary lists always, the interface lists `opts` selects.
#[inline(always)]
fn patch_links<T: Real>(inp: &StreamInputs<'_, T>, b: u32, out: &mut [T], opts: StreamOptions) {
    let (links, src) = (inp.links, inp.src.as_slice());
    for p in links.copies.of(b) {
        out[p.dst as usize] = src[p.src];
    }
    for w in links.walls.of(b) {
        out[w.dst as usize] = src[w.src] + w.term;
    }
    for f in links.outflow.of(b) {
        out[f.dst as usize] = f.value;
    }
    if opts.explosion {
        explode_block(inp, b, out);
    }
    if opts.coalesce {
        coalesce_block(inp, b, out);
    }
}

thread_local! {
    /// This thread's replay tile, kept from block to block so frontier
    /// blocks allocate nothing once it has grown to `q·B³` values.
    static TILE: std::cell::Cell<Option<Box<dyn std::any::Any>>> =
        const { std::cell::Cell::new(None) };
}

/// Takes this thread's replay tile, a `Vec<T>` grown to at least `len`
/// values. The tile only moves in and out of its slot: the caller computes
/// outside any closure, so a `#[target_feature]` caller keeps its
/// instruction set, and hands the tile back with `TILE.set`.
#[inline(always)]
fn take_tile<T: Real>(len: usize) -> Box<dyn std::any::Any> {
    let mut slot = TILE
        .take()
        .filter(|t| t.is::<Vec<T>>())
        .unwrap_or_else(|| Box::new(Vec::<T>::new()));
    if let Some(tile) = slot.downcast_mut::<Vec<T>>() {
        if tile.len() < len {
            tile.resize(len, T::ZERO);
        }
    }
    slot
}

/// The streaming gather of one block into `out`, the same for every block:
/// deposit Accumulate (`accumulate`), replay the copy-run plan
/// ([`replay_runs`]), and patch the linked pairs `opts` resolves. A block
/// with ghost or inactive slots replays into this thread's tile and stores
/// only its real cells, a lane group at a time, so those slots keep their
/// prior bits. Tile slots the replay skips hold stale values, but they
/// only reach non-real cells, which are not stored, or linked pairs, which
/// the patch (or the separate Explosion or Coalescence kernel, for pairs
/// `opts` excludes) overwrites.
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
        let mut slot = take_tile::<T>(V::Q * cpb);
        let tile: &mut Vec<T> = slot.downcast_mut().expect("a tile of T");
        replay_runs(inp.offsets, inp.src, &blk.neighbors, V::Q, tile);
        let flags = inp.flags.component(b, 0);
        for base in (0..cpb).step_by(LANES) {
            let real = lane_mask(flags, base);
            if !real.contains(&true) {
                continue;
            }
            for i in 0..V::Q {
                let at = i * cpb + base;
                store_lanes(&mut out[at..][..LANES], &tile[at..][..LANES], &real);
            }
        }
        TILE.set(Some(slot));
    }
    patch_links(inp, b, out, opts);
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
        explode_block(&inp, b, out);
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
        coalesce_block(&inp, b, out);
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
    #[cfg(target_arch = "x86_64")]
    let wide = std::arch::is_x86_feature_detected!("avx512f");
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        let cells = Some(flags.component(b, 0));
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` is `is_x86_feature_detected!("avx512f")`, so
            // this host executes AVX-512F instructions.
            unsafe { collide_block_wide::<T, V, C>(op, out, cpb, cells) };
            return;
        }
        collide_block::<T, V, C>(op, out, cpb, cells);
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
/// group is stored whole. Otherwise `cells` holds the block's cell flags:
/// groups without a real cell are skipped, and a group's
/// store writes only its real cells, so ghost and inactive slots keep
/// their contents.
#[inline(always)]
fn collide_block<T: Real, V: VelocitySet, C: Collision<T, V>>(
    op: &C,
    out: &mut [T],
    cpb: usize,
    cells: Option<&[u8]>,
) {
    debug_assert_eq!(cpb % LANES, 0, "partial lane group");
    for base in (0..cpb).step_by(LANES) {
        let real = cells.map_or([true; LANES], |flags| lane_mask(flags, base));
        if !real.contains(&true) {
            continue;
        }
        let mut f = [[T::ZERO; LANES]; MAX_Q];
        for i in 0..V::Q {
            f[i].copy_from_slice(&out[i * cpb + base..][..LANES]);
        }
        op.collide_lanes(&mut f);
        for i in 0..V::Q {
            store_lanes(&mut out[i * cpb + base..][..LANES], &f[i], &real);
        }
    }
}

/// [`collide_block`] compiled for AVX-512F: eight `f64` lanes fill one
/// `zmm` register. The arithmetic is the portable instance's, so the bits
/// are too (DESIGN.md §4, "Lane-parallel collision").
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn collide_block_wide<T: Real, V: VelocitySet, C: Collision<T, V>>(
    op: &C,
    out: &mut [T],
    cpb: usize,
    cells: Option<&[u8]>,
) {
    collide_block::<T, V, C>(op, out, cpb, cells);
}

/// The instance of the collide sites ([`collide`], [`fused_stream_collide`])
/// this host runs: `"avx512f"` when the CPU has AVX-512F, else
/// `"baseline"`, the portable build of the same lane body. Both give the
/// same bits; only the speed differs.
pub fn lane_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return "avx512f";
    }
    "baseline"
}

/// Gather Accumulate (paper "A" of the *modified baseline*, Fig. 4b /
/// §VI-B: "the Accumulate communication is initiated from the coarse
/// level"): each coarse ghost cell reads its 2³ fine children and adds them
/// into its accumulator — no atomics needed.
pub fn accumulate_gather<T: Real, V: VelocitySet>(
    exec: &Executor,
    name: &'static str,
    coarse_grid: &SparseGrid,
    gather: &PerBlock<crate::level::GatherEntry>,
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
        for e in gather.of(b) {
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
                    own_acc.store(e.slot + i, own_acc.load(e.slot + i) + sum);
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
    #[cfg(target_arch = "x86_64")]
    let wide = std::arch::is_x86_feature_detected!("avx512f");
    exec.launch_mut(name, dst.as_mut_slice(), stride, cost, |b, out| {
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` is `is_x86_feature_detected!("avx512f")`, so
            // this host executes AVX-512F instructions.
            unsafe { fused_block_wide::<T, V, C>(&inp, op, b, out, accumulate) };
            return;
        }
        fused_block::<T, V, C>(&inp, op, b, out, accumulate);
    });
}

/// The per-block body of [`fused_stream_collide`]: `stream_block` with
/// every link family inline, then [`collide_block`]. Blocks with ghost or
/// inactive slots store only their real cells.
#[inline(always)]
fn fused_block<T: Real, V: VelocitySet, C: Collision<T, V>>(
    inp: &StreamInputs<'_, T>,
    op: &C,
    b: u32,
    out: &mut [T],
    accumulate: Option<AccTables<'_>>,
) {
    let all = StreamOptions {
        explosion: true,
        coalesce: true,
    };
    stream_block::<T, V>(inp, b, out, all, accumulate);
    let cells = (!inp.all_real[b as usize]).then(|| inp.flags.component(b, 0));
    collide_block::<T, V, C>(op, out, inp.grid.cells_per_block(), cells);
}

/// [`fused_block`] compiled for AVX-512F: eight `f64` lanes fill one `zmm`
/// register. The arithmetic is the portable instance's, so the bits are
/// too (DESIGN.md §4, "Lane-parallel collision").
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fused_block_wide<T: Real, V: VelocitySet, C: Collision<T, V>>(
    inp: &StreamInputs<'_, T>,
    op: &C,
    b: u32,
    out: &mut [T],
    accumulate: Option<AccTables<'_>>,
) {
    fused_block::<T, V, C>(inp, op, b, out, accumulate);
}

/// Resets the ghost accumulators of a level after Coalescence consumed them
/// (paper §IV-A: "when the coarse cell performs its Coalescence step, it
/// will reset the ghost layer allowing subsequent Accumulate steps to be
/// done correctly"). Block `b` zeroes its ghosts' one contiguous slot
/// range, `q·ghost_starts[b]..q·ghost_starts[b + 1]`
/// ([`crate::Level::ghost_starts`]).
pub fn reset_accumulators(
    exec: &Executor,
    name: &'static str,
    coarse_grid: &SparseGrid,
    ghost_starts: &[u32],
    acc: &AtomicF64Field,
    ghost_cells: u64,
    q: usize,
) {
    let cost = LaunchCost::cells(ghost_cells)
        .stores(q as u64)
        .thread_block(coarse_grid.cells_per_block())
        .build();
    exec.launch(name, coarse_grid.num_blocks(), cost, |b| {
        let (start, end) = (ghost_starts[b as usize], ghost_starts[b as usize + 1]);
        acc.zero(start as usize * q..end as usize * q);
    });
}

#[cfg(test)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code, unused_imports))]
mod tests {
    //! The AVX-512F instances of the collide sites against the portable
    //! ones, block by block, bit for bit. Together with the golden digests
    //! this pins both instances without a knob that forces one.

    use super::*;
    use crate::{AllWalls, GridSpec, MultiGrid};
    use lbm_lattice::{equilibrium, Bgk, Kbc, D3Q19, D3Q27};
    use lbm_sparse::Box3;

    /// A deterministic stream of jitters in `[0, 1)`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 40) as f64 / (1u64 << 24) as f64
        }

        fn below(&mut self, n: i32) -> i32 {
            (self.next() * n as f64) as i32
        }
    }

    /// The uniform flow every slot starts from.
    const U0: [f64; 3] = [0.02, -0.01, 0.01];

    /// A 2-level grid drawn the way `tests/stream_oracle.rs` draws its
    /// cases: a coarse level of 5 blocks of size `b` per axis and a refined
    /// box of at least `3b/2` coarse cells, so both levels hold all-real
    /// and frontier blocks. Every slot of both halves is jittered, except
    /// the active cells of three adjacent x-planes per level, which keep
    /// the exact equilibrium of the uniform flow: an interior real cell of
    /// the middle plane collides, and gathers, exactly that equilibrium
    /// (the KBC `γ = 2` branch) in the same lane group as jittered cells.
    fn random_grid<V: VelocitySet>(rng: &mut Lcg, b: i32, omega0: f64) -> MultiGrid<f64, V> {
        let lo = [2 + rng.below(3), 2 + rng.below(3), 2 + rng.below(3)];
        let hi = lo.map(|c| (c + 3 * b / 2 + rng.below(4)).min(3 * b - 1));
        let d = 10 * b as usize;
        let spec = GridSpec::new(2, Box3::from_dims(d, d, d), move |l, p| {
            l == 0
                && (lo[0]..hi[0]).contains(&p.x)
                && (lo[1]..hi[1]).contains(&p.y)
                && (lo[2]..hi[2]).contains(&p.z)
        })
        .with_block_size(b as usize);
        let mut grid = MultiGrid::<f64, V>::build(spec, &AllWalls, omega0);
        grid.init_equilibrium(|_, _| 1.0, |_, _| U0);
        let mut feq = [0.0; MAX_Q];
        equilibrium::<f64, V>(1.0, U0, &mut feq);
        for lv in &mut grid.levels {
            let xs = lv.grid.iter_active().map(|(_, p)| p.x);
            let (min, max) = xs.fold((i32::MAX, i32::MIN), |(a, z), x| (a.min(x), z.max(x)));
            let mid = (min + max) / 2;
            let plain: Vec<_> = lv
                .grid
                .iter_active()
                .filter(|(_, p)| (p.x - mid).abs() <= 1)
                .map(|(r, _)| r)
                .collect();
            for h in 0..2 {
                let f = lv.f.half_mut(h);
                for v in f.as_mut_slice() {
                    let j = rng.next();
                    *v = if *v == 0.0 {
                        0.1 + j
                    } else {
                        *v * (1.0 + 0.1 * (j - 0.5))
                    };
                }
                for r in &plain {
                    for (i, &w) in feq.iter().enumerate().take(V::Q) {
                        f.set(r.block, i, r.cell, w);
                    }
                }
            }
        }
        grid
    }

    /// True when some lane group of some block mixes real and non-real
    /// cells, so the partial store of [`collide_block`] runs.
    fn has_mixed_group<V: VelocitySet>(grid: &MultiGrid<f64, V>) -> bool {
        grid.levels.iter().any(|lv| {
            (0..lv.grid.num_blocks() as u32).any(|b| {
                let flags = lv.flags.component(b, 0);
                (0..lv.grid.cells_per_block()).step_by(LANES).any(|base| {
                    let real = (base..base + LANES).filter(|&c| is_real(flags, c));
                    (1..LANES).contains(&real.count())
                })
            })
        })
    }

    /// Runs both instances of both block fns on every block of both levels
    /// of four random grids (block sizes 4 and 8) and compares every slot.
    #[cfg(target_arch = "x86_64")]
    fn instances_agree<V: VelocitySet, C: Collision<f64, V>>(op: fn(f64) -> C) {
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
        for case in 0..4 {
            let b = if case % 2 == 0 { 4 } else { 8 };
            let omega0 = 0.6 + 1.2 * rng.next();
            let grid = random_grid::<V>(&mut rng, b, omega0);
            assert!(has_mixed_group(&grid), "case {case}: no mixed lane group");
            for (l, lv) in grid.levels.iter().enumerate() {
                assert!(lv.all_real.contains(&true) && lv.all_real.contains(&false));
                let coll = op(lv.omega);
                let cpb = lv.grid.cells_per_block();
                let stride = lv.f.half(0).block_stride();
                let inp = StreamInputs {
                    grid: &lv.grid,
                    flags: &lv.flags,
                    all_real: &lv.all_real,
                    links: &lv.links,
                    src: lv.f.half(0),
                    acc: &lv.acc,
                    coarse_src: l.checked_sub(1).map(|c| grid.levels[c].f.half(0)),
                    offsets: &lv.offsets,
                };
                // Deposit into a spare accumulator field of the coarse level's size;
                // the bits of the deposits are pinned by the stream oracle.
                let spare = AtomicF64Field::zeroed(grid.levels[0].acc.len());
                let acc = (l > 0).then_some(AccTables {
                    acc: &spare,
                    deposits: &lv.deposits,
                });
                for b in 0..lv.grid.num_blocks() as u32 {
                    let chunk = |h: usize| {
                        lv.f.half(h).as_slice()[b as usize * stride..][..stride].to_vec()
                    };
                    let cells = Some(lv.flags.component(b, 0));
                    let (mut portable, mut wide) = (chunk(0), chunk(0));
                    collide_block::<f64, V, C>(&coll, &mut portable, cpb, cells);
                    // SAFETY: the caller checked
                    // `is_x86_feature_detected!("avx512f")`.
                    unsafe { collide_block_wide::<f64, V, C>(&coll, &mut wide, cpb, cells) };
                    assert_same(
                        &portable,
                        &wide,
                        &format!("collide, case {case} level {l} block {b}"),
                    );

                    let (mut portable, mut wide) = (chunk(1), chunk(1));
                    fused_block::<f64, V, C>(&inp, &coll, b, &mut portable, acc);
                    // SAFETY: as above.
                    unsafe { fused_block_wide::<f64, V, C>(&inp, &coll, b, &mut wide, acc) };
                    assert_same(
                        &portable,
                        &wide,
                        &format!("fused, case {case} level {l} block {b}"),
                    );
                }
            }
        }
    }

    fn assert_same(portable: &[f64], wide: &[f64], what: &str) {
        for (k, (p, w)) in portable.iter().zip(wide).enumerate() {
            assert_eq!(p.to_bits(), w.to_bits(), "{what}: slot {k}: {p:e} vs {w:e}");
        }
    }

    const SKIPPED: &str = "skipped: this host has no AVX-512F, only the portable instance runs";

    #[test]
    fn wide_instances_match_the_portable_ones_d3q19_bgk() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return instances_agree::<D3Q19, _>(Bgk::new);
        }
        println!("{SKIPPED}");
    }

    #[test]
    fn wide_instances_match_the_portable_ones_d3q27_kbc() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return instances_agree::<D3Q27, _>(Kbc::new);
        }
        println!("{SKIPPED}");
    }
}
