//! Construction of the multi-resolution grid stack (paper §V-B).
//!
//! `MultiGrid::build` turns a [`GridSpec`] (octree ownership) plus a
//! [`BoundarySpec`] into the stack of [`Level`]s with every cross-level and
//! boundary interaction resolved into precomputed links:
//!
//! - **real** cells per level = owned octree leaves;
//! - **ghost** cells per level = the single coarse layer inside the
//!   next-finer region adjacent to real cells (paper §IV-A);
//! - the ghost numbering: every level's ghosts in `(block, cell)` order,
//!   `q` accumulator slots each (DESIGN.md §10);
//! - per-block Accumulate deposit lists (fine population → parent ghost
//!   accumulator slot);
//! - per-ghost gather lists (the modified baseline's coarse-initiated
//!   Accumulate, paper §VI-B);
//! - exception links for Explosion, Coalescence, bounce-back, moving walls,
//!   outflow and periodic wrapping.
//!
//! Construction validates the paper's structural invariants: level jumps of
//! at most one at every interface, and a refinement shell thick enough that
//! every ghost cell has all 2³ children real.

use std::marker::PhantomData;

use lbm_gpu::{AtomicF64Field, Executor};
use lbm_lattice::{equilibrium, moments, omega_at_level, Real, VelocitySet, MAX_Q};
use lbm_sparse::{
    CellRef, Coord, DoubleBuffer, Field, SparseGrid, StreamOffsets, INVALID_BLOCK,
};

use crate::boundary::{Boundary, BoundarySpec};
use crate::flags::CellFlags;
use crate::level::{GatherEntry, Level};
use crate::links::{block_offset, encode_ref, Deposit, LinkKind, LinkTable, PerBlock, NO_TARGET};
use crate::spec::GridSpec;

/// "Not a ghost" in the build's per-slot ghost numbering.
const NO_GHOST: u32 = u32::MAX;

/// The multi-resolution grid: a stack of levels, finest last.
pub struct MultiGrid<T, V> {
    /// Levels, index 0 = coarsest.
    pub levels: Vec<Level<T>>,
    /// The building spec (retained for domains, periodicity, scales).
    pub spec: GridSpec,
    _lattice: PhantomData<V>,
}

/// What one probe pass reads off the populations: the quantities the
/// health guard checks and the conservation reports track. A record covers
/// one block or, folded in `(level, block)` order, a whole grid
/// ([`MultiGrid::probe`]; DESIGN.md §11).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Probe {
    /// Every population value in both double-buffer halves is finite.
    pub finite: bool,
    /// Maximum `|u|²` over the real cells, lattice units.
    pub max_speed_sq: f64,
    /// `Σ ρ·V_cell` over the real cells, finest-cell volume units.
    pub mass: f64,
}

impl Default for Probe {
    /// The fold's identity: an empty grid is finite, at rest and massless.
    fn default() -> Self {
        Self {
            finite: true,
            max_speed_sq: 0.0,
            mass: 0.0,
        }
    }
}

impl Probe {
    /// Folds the record of the next block (in `(level, block)` order) into
    /// this one.
    fn fold(self, next: Probe) -> Probe {
        Probe {
            finite: self.finite && next.finite,
            max_speed_sq: self.max_speed_sq.max(next.max_speed_sq),
            mass: self.mass + next.mass,
        }
    }

    /// Maximum flow speed `|u|`.
    pub fn max_speed(&self) -> f64 {
        self.max_speed_sq.sqrt()
    }
}

impl<T: Real, V: VelocitySet> MultiGrid<T, V> {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Builds the stack. `omega0` is the relaxation rate at level 0; each
    /// level receives its acoustically scaled rate (paper Eq. 9).
    ///
    /// # Panics
    /// Panics on structurally invalid specs: interfaces with level jumps
    /// greater than one, refinement shells thinner than one coarse cell, or
    /// periodic images that do not resolve.
    pub fn build(spec: GridSpec, bc: &dyn BoundarySpec, omega0: f64) -> Self {
        let nl = spec.levels;

        // ---- Pass 1: grids, flags and the ghost numbering --------------
        // The octree walk classifies every reached cell once, into tables
        // the grid, the flags and the ghost numbering read (DESIGN.md §4).
        let mut grids: Vec<SparseGrid> = Vec::with_capacity(nl as usize);
        let mut flags: Vec<Field<u8>> = Vec::with_capacity(nl as usize);
        // Per level and cell slot: the ghost's number, or `NO_GHOST`.
        let mut ghost_of: Vec<Vec<u32>> = Vec::with_capacity(nl as usize);
        let mut ghost_starts: Vec<Vec<u32>> = Vec::with_capacity(nl as usize);
        spec.walk(|cells| {
            let grid = cells.grid();
            let cpb = grid.cells_per_block();
            let mut fl = Field::<u8>::new(&grid, 1, 0);
            let mut numbers = vec![NO_GHOST; grid.num_blocks() * cpb];
            let mut starts = vec![0u32];
            for (b, blk) in grid.blocks().iter().enumerate() {
                let mut ghosts = *starts.last().unwrap();
                for cell in blk.active.iter_set() {
                    // An active cell is owned or a covered ghost.
                    let bit = if !cells.covered(blk.origin + grid.delinear(cell as u32)) {
                        CellFlags::REAL
                    } else {
                        numbers[b * cpb + cell] = ghosts;
                        ghosts += 1;
                        CellFlags::GHOST
                    };
                    fl.set(b as u32, 0, cell as u32, bit);
                }
                starts.push(ghosts);
            }
            grids.push(grid);
            flags.push(fl);
            ghost_of.push(numbers);
            ghost_starts.push(starts);
        });

        // ---- Pass 2, finest level first: links, deposits, gather -------
        // The child-mask table: per level and ghost number, the ghost's 2³
        // children in octant order and the directions each sends across
        // the interface. Level l + 1's pass fills level l's rows; level l
        // reads them for its Coalescence counts and keeps them as its 4b
        // gather list.
        let mut tables: Vec<Vec<GatherEntry>> = ghost_starts
            .iter()
            .map(|s| {
                let row = |g| GatherEntry {
                    slot: g * V::Q,
                    children: [NO_TARGET; 8],
                    masks: [0; 8],
                };
                (0..*s.last().unwrap() as usize).map(row).collect()
            })
            .collect();
        let mut levels: Vec<Level<T>> = Vec::with_capacity(nl as usize);
        let mut tile = Vec::new();
        for l in (0..nl).rev() {
            let (grid, mut fl) = (grids.pop().unwrap(), flags.pop().unwrap());
            let (numbers, starts) = (ghost_of.pop().unwrap(), ghost_starts.pop().unwrap());
            let gather = PerBlock::from_parts(starts.clone(), tables.pop().unwrap());
            // The next-coarser level: grid, flags, ghost numbering, rows.
            let coarse = grids.last().zip(flags.last()).zip(ghost_of.last());
            let mut parent_rows = tables.last_mut();
            let dom = spec.domain_at(l);
            let cpb = grid.cells_per_block();
            let number = |r: CellRef| numbers[r.block as usize * cpb + r.cell as usize];
            let orphan = |e: &GatherEntry| e.children.contains(&NO_TARGET);
            if let Some(g) = gather.all().iter().position(orphan) {
                let is_ghost = |(r, _): &(CellRef, Coord)| number(*r) != NO_GHOST;
                let (_, gc) = grid.iter_active().filter(is_ghost).nth(g).unwrap();
                panic!(
                    "invalid grid: ghost cell {gc:?} at level {l} has a fine child that is not a \
                     real cell — refinement shell thinner than one coarse cell, or level jump > 1"
                );
            }
            // `1 / contributions` for a Coalescence read of ghost `g` along
            // `i`: contributions = crossing children × 2 substeps.
            let inv_count = |g: u32, i: usize| {
                let masks = gather.all()[g as usize].masks;
                let count: u32 = masks.iter().map(|m| (m >> i) & 1).sum();
                assert!(
                    count > 0,
                    "invalid grid: coalescence at level {l} ghost {g} dir {i} has no crossing \
                     fine populations"
                );
                T::from_f64(1.0 / (2.0 * count as f64))
            };
            // The streaming offset tables are shared process-wide per
            // (block size, velocity set) pair.
            let offsets = StreamOffsets::cached(grid.block_size() as u32, V::C);
            let mut links = LinkTable::<T>::new(V::Q, cpb);
            let mut deposits = PerBlock::<Deposit>::default();
            // One cell's links, reused from cell to cell.
            let mut cell_links: Vec<(u8, LinkKind<T>)> = Vec::with_capacity(V::Q);
            let mut all_real = Vec::with_capacity(grid.num_blocks());
            let mut real_cells = 0usize;
            tile.resize(V::Q * cpb, 0u8);
            for (b, blk) in grid.blocks().iter().enumerate() {
                let b = b as u32;
                Self::replay_flags(&offsets, &fl, &blk.neighbors, &mut tile);
                // Every block size is even, so the parents of the block's
                // cells share one coarse block.
                let parent_block = coarse.and_then(|((cg, _), _)| {
                    cg.slot_ref(blk.origin.div_euclid(2)).map(|r| r.block)
                });
                let mut block_real = 0;
                for cell in blk.active.iter_set() {
                    if !CellFlags(fl.block(b)[cell]).is_real() {
                        continue;
                    }
                    block_real += 1;
                    let r = CellRef {
                        block: b,
                        cell: cell as u32,
                    };
                    let x = blk.origin + grid.delinear(r.cell);
                    cell_links.clear();
                    for i in 1..V::Q {
                        let source = CellFlags(tile[i * cpb + cell]);
                        if source.is_real() {
                            continue; // the copy-run replay reads it
                        }
                        let d = Coord::from_array(V::C[i]).scale(-1); // pull source offset
                        if source.is_ghost() {
                            // Ghost source ⇒ Coalescence read (paper Eq. 11).
                            let ghost = number(grid.neighbor(r, d).expect("replayed source"));
                            let inv_count = inv_count(ghost, i);
                            cell_links.push((i as u8, LinkKind::Coalesce { ghost, inv_count }));
                            continue;
                        }
                        // Missing same-level source.
                        let s = x + d;
                        let s_w = spec.wrap(l, s);
                        if dom.contains(s_w) {
                            if s_w != s {
                                // Periodic image; if it is inactive, fall
                                // through to explosion/BC below using the
                                // wrapped coordinate.
                                if let Some(sr) = grid.cell_ref(s_w) {
                                    let ghost = number(sr);
                                    let kind = if ghost == NO_GHOST {
                                        LinkKind::Periodic { src: sr }
                                    } else {
                                        let inv_count = inv_count(ghost, i);
                                        LinkKind::Coalesce { ghost, inv_count }
                                    };
                                    cell_links.push((i as u8, kind));
                                    continue;
                                }
                            }
                            // In-domain but inactive: coarser region or solid.
                            if let Some(((coarse, cflags), _)) = coarse {
                                let pp = s_w.div_euclid(2);
                                if let Some(pr) = coarse.cell_ref(pp) {
                                    if CellFlags(cflags.get(pr.block, 0, pr.cell)).is_real() {
                                        // Explosion (paper Eq. 10).
                                        cell_links.push((i as u8, LinkKind::Explosion { src: pr }));
                                        continue;
                                    }
                                } else if !spec.is_solid(l, s_w) && !spec.is_solid(l - 1, pp) {
                                    assert!(
                                        !(l > 1 && spec.owned(l - 2, pp.div_euclid(2))),
                                        "invalid grid: level jump > 1 at level {l} cell {s_w:?} \
                                         (paper §II-A requires ΔL = 1)"
                                    );
                                }
                            }
                        }
                        // Solid surface, outside the domain or
                        // unresolvable: boundary condition.
                        cell_links.push((i as u8, Self::boundary_link(bc, l, s_w, i)));
                    }

                    // Accumulate deposits: into the parent ghost cell in the
                    // coarser grid, restricted to the directions that
                    // actually cross the interface (exact volumetric flux;
                    // see kernels.rs docs), in ascending direction order.
                    // The mask and the child go into the parent's row.
                    let mut accumulates = false;
                    if let (Some(pb), Some(((cg, cflags), cnumbers)), Some(rows)) =
                        (parent_block, coarse, parent_rows.as_deref_mut())
                    {
                        let (_, local) = cg.split(x.div_euclid(2));
                        let ghost = cnumbers[pb as usize * cpb + cg.linear(local) as usize];
                        if ghost != NO_GHOST {
                            let own = (&grid, &fl);
                            let mask =
                                Self::crossing_mask(&spec, own, (cg, cflags), l, x, &tile, cell);
                            let row = &mut rows[ghost as usize];
                            let k = (x.x & 1 | (x.y & 1) << 1 | (x.z & 1) << 2) as usize;
                            row.children[k] = encode_ref(r);
                            row.masks[k] = mask;
                            accumulates = mask != 0;
                            let mut m = mask;
                            while m != 0 {
                                let i = m.trailing_zeros() as usize;
                                m &= m - 1;
                                let deposit = Deposit {
                                    src: block_offset(i, r.cell, cpb),
                                    dst: ghost as usize * V::Q + i,
                                };
                                deposits.push(b, deposit);
                            }
                        }
                    }

                    let mut extra = 0u8;
                    if !cell_links.is_empty() {
                        extra |= CellFlags::EXCEPTIONAL;
                    }
                    if accumulates {
                        extra |= CellFlags::ACCUMULATES;
                    }
                    // The replay and every lookup read only the real and
                    // ghost bits, so the new bits go in at once.
                    fl.set(b, 0, r.cell, fl.get(b, 0, r.cell) | extra);
                    links.push_cell(r, &cell_links);
                }
                all_real.push(block_real == cpb);
                real_cells += block_real;
            }
            links.seal(grid.num_blocks());
            deposits.seal(grid.num_blocks());
            if let Some(coarse_starts) = ghost_starts.last() {
                Self::assert_single_writer(&deposits, *coarse_starts.last().unwrap() as usize);
            }
            #[cfg(debug_assertions)]
            for b in 0..grid.num_blocks() as u32 {
                Self::assert_skipped_runs_linked(&grid, &fl, &links, &offsets, b, l);
            }

            let f = DoubleBuffer::<T>::new(&grid, V::Q, T::ZERO);
            let ghost_cells = *starts.last().unwrap() as usize;
            let acc = AtomicF64Field::zeroed(ghost_cells * V::Q);
            levels.push(Level {
                grid,
                flags: fl,
                all_real,
                links,
                deposits,
                gather,
                offsets,
                f,
                acc,
                ghost_starts: starts,
                omega: omega_at_level(omega0, l),
                real_cells,
                ghost_cells,
            });
        }
        levels.reverse();

        Self {
            levels,
            spec,
            _lattice: PhantomData,
        }
    }

    /// Replays the level's flags through block `neighbors`' copy-run plan
    /// (DESIGN.md §4): `tile[i·B³ + cell]` becomes the flags of the cell's
    /// pull source along `i`, and 0, "missing", where the run's source
    /// block does not exist — the runs the streaming gather skips.
    fn replay_flags(
        offsets: &StreamOffsets,
        fl: &Field<u8>,
        neighbors: &[lbm_sparse::BlockIdx],
        tile: &mut [u8],
    ) {
        let cpb = fl.cells_per_block();
        for i in 0..V::Q {
            for e in &offsets.dir(i).runs {
                let nb = neighbors[e.slot as usize];
                for k in 0..e.count {
                    let (len, step) = (e.len as usize, (k * e.stride) as usize);
                    let out = &mut tile[i * cpb + e.dst_base as usize + step..][..len];
                    if nb == INVALID_BLOCK {
                        out.fill(0);
                    } else {
                        out.copy_from_slice(&fl.block(nb)[e.src_base as usize + step..][..len]);
                    }
                }
            }
        }
    }

    /// Asserts the invariant that makes the in-place Accumulate race-free
    /// at every pool width (DESIGN.md §10): every coarse ghost the fine
    /// level's `deposits` reach is reached from one fine block only. A
    /// launch item runs a whole block on one thread, so each accumulator
    /// slot then has exactly one writer per launch. It holds because every
    /// block size is even: a coarse cell's 2³ children share a fine block.
    fn assert_single_writer(deposits: &PerBlock<Deposit>, coarse_ghosts: usize) {
        let mut owner = vec![u32::MAX; coarse_ghosts];
        for b in 0..deposits.blocks() as u32 {
            for d in deposits.of(b) {
                let ghost = d.dst / V::Q;
                let first = &mut owner[ghost];
                if *first == u32::MAX {
                    *first = b;
                }
                assert!(
                    *first == b,
                    "invalid grid: coarse ghost {ghost} is deposited into by fine blocks {} \
                     and {b}",
                    *first
                );
            }
        }
    }

    /// Asserts the invariant that lets the streaming gather skip the
    /// copy runs whose source block is missing (DESIGN.md §4): every cell
    /// such a run covers is non-real or linked in the run's direction, so
    /// the link patch overwrites it or the gather restores it. The build
    /// classifies exactly the pairs `replay_flags` marks
    /// missing, so it holds by construction; debug builds check it.
    #[cfg(debug_assertions)]
    fn assert_skipped_runs_linked(
        grid: &SparseGrid,
        fl: &Field<u8>,
        links: &LinkTable<T>,
        offsets: &StreamOffsets,
        b: u32,
        l: u32,
    ) {
        let blk = grid.block(b);
        if !blk.neighbors.contains(&INVALID_BLOCK) {
            return;
        }
        // Per-cell bitmask of the directions the block's links cover.
        let mut linked = vec![0u32; grid.cells_per_block()];
        for (cell, dir, _) in links.links_of(b) {
            linked[cell as usize] |= 1 << dir;
        }
        for i in 0..V::Q {
            for e in &offsets.dir(i).runs {
                if blk.neighbors[e.slot as usize] != INVALID_BLOCK {
                    continue;
                }
                for k in 0..e.count {
                    for x in 0..e.len {
                        let cell = e.dst_base + k * e.stride + x;
                        let real = CellFlags(fl.get(b, 0, cell)).is_real();
                        assert!(
                            !real || linked[cell as usize] & (1 << i) != 0,
                            "invalid grid: level {l} block {b} cell {cell} pulls direction \
                             {i} from a missing neighbor block without a link"
                        );
                    }
                }
            }
        }
    }

    /// Bitmask of directions along which the real level-`l` cell `x`
    /// (`l ≥ 1`, in slot `cell` of its block) sends populations *out of*
    /// its level's grid into the next-coarser region (the populations
    /// Accumulate must capture). A direction crosses iff the target (after
    /// periodic wrap) is inside the domain, is not a real cell at level
    /// `l`, and its parent at level `l − 1` is real — targets behind walls
    /// or solids bounce back instead of crossing. The target along `i` is
    /// the pull source along `ī`, so the block's replayed `tile` settles
    /// every real target without a lookup.
    fn crossing_mask(
        spec: &GridSpec,
        (own, own_flags): (&SparseGrid, &Field<u8>),
        (coarse, coarse_flags): (&SparseGrid, &Field<u8>),
        l: u32,
        x: Coord,
        tile: &[u8],
        cell: usize,
    ) -> u32 {
        let dom = spec.domain_at(l);
        let cpb = own.cells_per_block();
        let real_at = |grid: &SparseGrid, fl: &Field<u8>, p: Coord| {
            grid.cell_ref(p)
                .is_some_and(|r| CellFlags(fl.get(r.block, 0, r.cell)).is_real())
        };
        let mut mask = 0u32;
        for i in 1..V::Q {
            if CellFlags(tile[V::OPP[i] * cpb + cell]).is_real() {
                continue;
            }
            let t = x + Coord::from_array(V::C[i]);
            let t_w = spec.wrap(l, t);
            if !dom.contains(t_w) || (t_w != t && real_at(own, own_flags, t_w)) {
                continue;
            }
            if real_at(coarse, coarse_flags, t_w.div_euclid(2)) {
                mask |= 1 << i;
            }
        }
        mask
    }

    fn boundary_link(bc: &dyn BoundarySpec, l: u32, s: Coord, i: usize) -> LinkKind<T> {
        match bc.classify(l, s, i) {
            Boundary::BounceBack => LinkKind::BounceBack {
                opp: V::OPP[i] as u8,
            },
            Boundary::MovingWall { velocity } => {
                let ci = V::C[i];
                let cu: f64 = (0..3).map(|a| ci[a] as f64 * velocity[a]).sum();
                LinkKind::MovingWall {
                    opp: V::OPP[i] as u8,
                    term: T::from_f64(2.0 * V::W[i] * cu / V::CS2),
                }
            }
            Boundary::Outflow => LinkKind::Outflow {
                weight: T::from_f64(V::W[i]),
            },
            Boundary::Periodic => {
                panic!(
                    "boundary spec returned Periodic for level {l} source {s:?} dir {i}, but \
                     axis is not periodic in the GridSpec — set GridSpec::with_periodic instead"
                )
            }
        }
    }

    /// Sets both double-buffer halves of every real cell to the local
    /// equilibrium given by `rho(level, coord)` and `u(level, coord)`
    /// (lattice units of that level), and zeroes the ghost accumulators.
    /// Ghost and inactive slots keep their values. The walk goes block by
    /// block over each block's active real cells: the equilibrium is
    /// written into half 0's block slice, then copied into half 1's.
    pub fn init_equilibrium(
        &mut self,
        rho: impl Fn(u32, Coord) -> f64,
        u: impl Fn(u32, Coord) -> [f64; 3],
    ) {
        for (l, level) in self.levels.iter_mut().enumerate() {
            let Level {
                grid,
                flags,
                f,
                acc,
                ..
            } = level;
            let cpb = grid.cells_per_block();
            let stride = f.half(0).block_stride();
            for (b, blk) in grid.blocks().iter().enumerate() {
                let flags = flags.block(b as u32);
                let real_cells = || {
                    blk.active
                        .iter_set()
                        .filter(|&cell| CellFlags(flags[cell]).is_real())
                };
                let out = &mut f.half_mut(0).as_mut_slice()[b * stride..][..stride];
                for cell in real_cells() {
                    let c = blk.origin + grid.delinear(cell as u32);
                    let rv = T::from_f64(rho(l as u32, c));
                    let uv = u(l as u32, c).map(T::from_f64);
                    let mut feq = [T::ZERO; MAX_Q];
                    equilibrium::<T, V>(rv, uv, &mut feq);
                    for (i, &v) in feq[..V::Q].iter().enumerate() {
                        out[i * cpb + cell] = v;
                    }
                }
                // Half 1 follows block by block, not after all of half 0,
                // so the two halves' pages are first touched interleaved:
                // writing all of half 0 first measured 1–5 % slower
                // one-thread stepping on `box2_bgk` (EXPERIMENTS.md, "Guard
                // passes on the pool").
                let (h0, h1) = f.pair_mut(0);
                let src = h0.block(b as u32);
                let out = &mut h1.as_mut_slice()[b * stride..][..stride];
                for cell in real_cells() {
                    for i in 0..V::Q {
                        out[i * cpb + cell] = src[i * cpb + cell];
                    }
                }
            }
            acc.zero(0..acc.len());
        }
    }

    /// Density and velocity of one real cell (from the post-collision
    /// buffer; moments are collision-invariant).
    pub fn density_velocity(&self, level: usize, r: lbm_sparse::CellRef) -> (T, [T; 3]) {
        let f = self.levels[level].f.src();
        let mut pops = [T::ZERO; MAX_Q];
        #[allow(clippy::needless_range_loop)] // parallel table indexing
        for i in 0..V::Q {
            pops[i] = f.get(r.block, i, r.cell);
        }
        moments::density_velocity::<T, V>(&pops[..])
    }

    /// Probes density/velocity at a finest-level coordinate by locating the
    /// owning level (finest first).
    pub fn probe_finest(&self, cf: Coord) -> Option<(f64, [f64; 3])> {
        for l in (0..self.levels.len()).rev() {
            let scale = self.spec.scale_to_finest(l as u32);
            let p = cf.div_euclid(scale);
            if let Some(r) = self.levels[l].grid.cell_ref(p) {
                if self.levels[l].cell_flags(r).is_real() {
                    let (rho, u) = self.density_velocity(l, r);
                    return Some((rho.to_f64(), [u[0].to_f64(), u[1].to_f64(), u[2].to_f64()]));
                }
            }
        }
        None
    }

    /// The probe record of one block of one level: the non-finite flag
    /// over every slot of both double-buffer halves, and the maximum
    /// `|u|²` and the mass over the block's real cells, read from the
    /// source half `LANES` cells at a time through
    /// [`moments::density_velocity_lanes`]. The one definition of every
    /// quantity a [`Probe`] carries; [`MultiGrid::probe`] folds these
    /// records in `(level, block)` order.
    fn probe_block(&self, level: usize, block: u32) -> Probe {
        const LANES: usize = 8;
        let lv = &self.levels[level];
        let cpb = lv.grid.cells_per_block();
        debug_assert_eq!(cpb % LANES, 0, "partial lane group");
        // `&` rather than `&&`: no early exit, so the scan vectorizes.
        let finite = (0..2).all(|h| {
            lv.f.half(h)
                .block(block)
                .iter()
                .fold(true, |ok, v| ok & v.is_finite())
        });
        let src = lv.f.src().block(block);
        let flags = lv.flags.block(block);
        let (mut max_speed_sq, mut mass) = (0.0f64, 0.0f64);
        for base in (0..cpb).step_by(LANES) {
            let real: [bool; LANES] =
                std::array::from_fn(|l| CellFlags(flags[base + l]).is_real());
            if !real.contains(&true) {
                continue;
            }
            let mut f = [[T::ZERO; LANES]; MAX_Q];
            for (i, col) in f.iter_mut().take(V::Q).enumerate() {
                col.copy_from_slice(&src[i * cpb + base..][..LANES]);
            }
            let (rho, u) = moments::density_velocity_lanes::<T, V, LANES>(&f);
            for l in (0..LANES).filter(|&l| real[l]) {
                let [ux, uy, uz] = [u[0][l].to_f64(), u[1][l].to_f64(), u[2][l].to_f64()];
                max_speed_sq = max_speed_sq.max(ux * ux + uy * uy + uz * uz);
                mass += rho[l].to_f64();
            }
        }
        // The cell volume is a power of two, so the scaling is exact.
        let vol = (self.spec.scale_to_finest(level as u32) as f64).powi(3);
        Probe {
            finite,
            max_speed_sq,
            mass: mass * vol,
        }
    }

    /// The whole grid's [`Probe`]: the record of every block of every
    /// level, folded in `(level, block)` order on the calling thread.
    /// [`crate::Engine::probe`] folds the same records computed on a pool.
    pub fn probe(&self) -> Probe {
        let blocks = |(l, lv): (usize, &Level<T>)| {
            (0..lv.grid.num_blocks() as u32).map(move |b| (l, b))
        };
        self.levels
            .iter()
            .enumerate()
            .flat_map(blocks)
            .map(|(l, b)| self.probe_block(l, b))
            .fold(Probe::default(), Probe::fold)
    }

    /// [`MultiGrid::probe`] computed on `exec`'s pool, bit for bit: one
    /// record per `(level, block)` into `records`, folded serially in
    /// `(level, block)` order. `records` is sized on the first call and
    /// reused after that. The pass is not a kernel launch, so the profiler
    /// records nothing ([`Executor::run_blocks_mut`]).
    pub(crate) fn probe_on(&self, exec: &Executor, records: &mut Vec<Probe>) -> Probe {
        let total = self.levels.iter().map(|lv| lv.grid.num_blocks()).sum();
        records.resize(total, Probe::default());
        exec.run_blocks_mut(records, 1, |i, record| {
            let mut b = i as usize;
            for (l, lv) in self.levels.iter().enumerate() {
                if b < lv.grid.num_blocks() {
                    record[0] = self.probe_block(l, b as u32);
                    return;
                }
                b -= lv.grid.num_blocks();
            }
        });
        records.iter().copied().fold(Probe::default(), Probe::fold)
    }

    /// Total mass `Σ ρ·V_cell` in finest-cell volume units
    /// ([`MultiGrid::probe`]'s mass).
    pub fn total_mass(&self) -> f64 {
        self.probe().mass
    }

    /// True iff every population value in **both** halves of every level's
    /// double buffer is finite ([`MultiGrid::probe`]'s flag). Scanning both
    /// halves matters: a NaN parked in the idle (`dst`) half — e.g. after a
    /// restore, or written by the last substep before a parity swap — would
    /// otherwise escape detection and resurface on the next swap.
    pub fn is_finite(&self) -> bool {
        self.probe().finite
    }

    /// Maximum flow speed `|u|` over the real cells of every level, in
    /// lattice units (comparable across levels under acoustic scaling;
    /// [`MultiGrid::probe`]'s speed). Health guards compare this against
    /// the lattice sound speed: a resolved flow must stay well below `1/√3`.
    pub fn max_speed(&self) -> f64 {
        self.probe().max_speed()
    }

    /// Total momentum `Σ ρu·V_cell` in finest-cell volume units.
    pub fn total_momentum(&self) -> [f64; 3] {
        let mut total = [0.0; 3];
        for (l, level) in self.levels.iter().enumerate() {
            let vol = (self.spec.scale_to_finest(l as u32) as f64).powi(3);
            let f = level.f.src();
            for (r, _) in level.iter_real() {
                for i in 0..V::Q {
                    let v = f.get(r.block, i, r.cell).to_f64();
                    #[allow(clippy::needless_range_loop)] // indexes a fixed [f64; 3]
                    for a in 0..3 {
                        total[a] += v * V::C[i][a] as f64 * vol;
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::AllWalls;
    use crate::links::LinkKind;
    use lbm_lattice::D3Q19;
    use lbm_sparse::Box3;

    type MG = MultiGrid<f64, D3Q19>;

    fn two_level_spec() -> GridSpec {
        // 32³ finest; central 8³ coarse cells refined → central 16³ fine.
        GridSpec::new(2, Box3::from_dims(32, 32, 32), |l, p| {
            l == 0 && (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z)
        })
    }

    #[test]
    fn builds_two_levels_with_expected_counts() {
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        assert_eq!(mg.num_levels(), 2);
        let l0 = &mg.levels[0];
        let l1 = &mg.levels[1];
        // Coarse: 16³ domain minus refined 8³ region = real cells.
        assert_eq!(l0.real_cells, 16 * 16 * 16 - 8 * 8 * 8);
        // Fine: the full 16³ refined region is real.
        assert_eq!(l1.real_cells, 16 * 16 * 16);
        // Ghost layer: outermost coarse layer of the refined 8³ region.
        assert_eq!(l0.ghost_cells, 8 * 8 * 8 - 6 * 6 * 6);
        assert_eq!(l1.ghost_cells, 0);
        // Accumulating cells are exactly the fine cells with at least one
        // population crossing the interface: the outermost fine layer.
        let accumulating = |lv: &Level<f64>| {
            lv.grid.iter_active().filter(|(r, _)| lv.cell_flags(*r).accumulates()).count()
        };
        assert_eq!(accumulating(l1), 16 * 16 * 16 - 14 * 14 * 14);
        // Omegas follow Eq. 9.
        assert!((l0.omega - 1.5).abs() < 1e-15);
        assert!((l1.omega - omega_at_level(1.5, 1)).abs() < 1e-15);
    }

    #[test]
    fn interface_links_present() {
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let l0 = &mg.levels[0];
        let l1 = &mg.levels[1];
        assert!(
            !l1.links.explosion.all().is_empty(),
            "fine boundary cells must explode from coarse"
        );
        assert!(l1.links.coalesce.all().is_empty(), "fine level has no ghost neighbors");
        assert!(
            l1.links.copies.all().is_empty(),
            "fine region is interior, no walls touch it"
        );
        assert!(l0.links.explosion.all().is_empty(), "coarsest level cannot explode");
        assert!(
            !l0.links.coalesce.all().is_empty(),
            "coarse interface cells must coalesce"
        );
        let bb0 = (0..l0.grid.num_blocks() as u32)
            .flat_map(|b| l0.links.links_of(b))
            .filter(|(_, _, k)| matches!(k, LinkKind::BounceBack { .. }))
            .count();
        assert!(bb0 > 0, "domain walls must bounce back");
        assert_eq!(l0.links.explosion_cells, 0);
        assert!(l0.links.coalesce_cells > 0 && l1.links.explosion_cells > 0);
    }

    #[test]
    fn explosion_is_homogeneous_per_parent() {
        // All fine cells pulling a given direction across the interface from
        // the same parent must reference the same coarse cell (Eq. 10).
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let l1 = &mg.levels[1];
        let mut seen = 0;
        for b in 0..l1.grid.num_blocks() as u32 {
            for (cell, dir, kind) in l1.links.links_of(b) {
                if let LinkKind::Explosion { src } = kind {
                    let x = l1.grid.coord_of(lbm_sparse::CellRef { block: b, cell });
                    let d = Coord::from_array(D3Q19::C[dir as usize]).scale(-1);
                    let expect = (x + d).div_euclid(2);
                    assert_eq!(mg.levels[0].grid.coord_of(src), expect);
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, l1.links.explosion.all().len());
    }

    #[test]
    fn ghost_gather_children_cover_octants() {
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let l0 = &mg.levels[0];
        let mut entries = 0usize;
        // Ghost `g` in `(block, cell)` order owns slots `g·q..(g + 1)·q`.
        for (g, ((r, gc), e)) in l0.iter_ghost().zip(l0.gather.all()).enumerate() {
            entries += 1;
            assert_eq!(e.slot, g * D3Q19::Q);
            assert!(l0.gather.of(r.block).iter().any(|o| o.slot == e.slot));
            for (k, &enc) in e.children.iter().enumerate() {
                let cr = crate::links::decode_ref(enc);
                let cc = mg.levels[1].grid.coord_of(cr);
                assert_eq!(cc.div_euclid(2), gc, "child {k} not under ghost {gc:?}");
            }
        }
        assert_eq!(entries, l0.ghost_cells);
        assert_eq!(l0.acc.len(), l0.ghost_cells * D3Q19::Q);
    }

    #[test]
    fn ghosts_are_numbered_block_by_block_and_only_ghosts_get_slots() {
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let (l0, l1) = (&mg.levels[0], &mg.levels[1]);
        assert_eq!(l0.ghost_starts.len(), l0.grid.num_blocks() + 1);
        for b in 0..l0.grid.num_blocks() {
            let ghosts = l0.iter_ghost().filter(|(r, _)| r.block as usize == b).count();
            assert_eq!((l0.ghost_starts[b + 1] - l0.ghost_starts[b]) as usize, ghosts);
        }
        assert_eq!(l0.ghost_starts.last().copied(), Some(l0.ghost_cells as u32));
        // The finest level has no ghosts and allocates no accumulator.
        assert_eq!(l1.ghost_cells, 0);
        assert!(l1.acc.is_empty() && l1.ghost_starts.iter().all(|&s| s == 0));
    }

    #[test]
    fn uniform_grid_has_no_interface_machinery() {
        let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
        let mg = MG::build(spec, &AllWalls, 1.2);
        let l0 = &mg.levels[0];
        assert_eq!(l0.real_cells, 16 * 16 * 16);
        assert_eq!(l0.ghost_cells, 0);
        let accumulating = l0.grid.iter_active().filter(|(r, _)| l0.cell_flags(*r).accumulates());
        assert_eq!(accumulating.count(), 0);
        // Every slot is real; of the 4³ blocks of 4³ cells, only the inner
        // 2×2×2 have no wall links.
        assert!(l0.all_real.iter().all(|&r| r));
        let linkless = (0..l0.grid.num_blocks() as u32)
            .filter(|&b| l0.links.links_of(b).next().is_none())
            .count();
        assert_eq!(linkless, 8);
        assert!(l0.deposits.all().is_empty());
    }

    #[test]
    fn periodic_links_wrap() {
        let spec = GridSpec::uniform(Box3::from_dims(8, 8, 8)).with_periodic([true, true, true]);
        let mg = MG::build(spec, &AllWalls, 1.0);
        let l0 = &mg.levels[0];
        let mut periodic = 0usize;
        for b in 0..l0.grid.num_blocks() as u32 {
            for (_, _, kind) in l0.links.links_of(b) {
                match kind {
                    LinkKind::Periodic { .. } => periodic += 1,
                    other => panic!("fully periodic box should only wrap, got {other:?}"),
                }
            }
        }
        assert!(periodic > 0);
        assert_eq!(periodic, l0.links.len());
    }

    #[test]
    fn init_and_moments() {
        let mut mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        mg.init_equilibrium(|_, _| 1.0, |_, _| [0.02, 0.0, -0.01]);
        let total_cells_vol = 32.0 * 32.0 * 32.0; // finest units, full box
        let mass = mg.total_mass();
        assert!(
            (mass - total_cells_vol).abs() < 1e-6,
            "mass {mass} vs volume {total_cells_vol}"
        );
        let mom = mg.total_momentum();
        assert!((mom[0] - 0.02 * total_cells_vol).abs() < 1e-6);
        assert!((mom[2] + 0.01 * total_cells_vol).abs() < 1e-6);
        let (rho, u) = mg.probe_finest(Coord::new(16, 16, 16)).unwrap();
        assert!((rho - 1.0).abs() < 1e-12);
        assert!((u[0] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn every_deposit_targets_the_parent_ghost_in_cell_then_direction_order() {
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let (l0, l1) = (&mg.levels[0], &mg.levels[1]);
        let (q, cpb) = (D3Q19::Q, l1.grid.cells_per_block());
        let number: std::collections::HashMap<_, _> =
            l0.iter_ghost().enumerate().map(|(g, (r, _))| (r, g)).collect();
        let mut count = 0;
        for b in 0..l1.grid.num_blocks() as u32 {
            let list = l1.deposits.of(b);
            let key = |d: &Deposit| (d.src as usize % cpb, d.src as usize / cpb);
            assert!(list.windows(2).all(|w| key(&w[0]) < key(&w[1])));
            for d in list {
                let (cell, dir) = key(d);
                let x = l1.grid.coord_of(lbm_sparse::CellRef {
                    block: b,
                    cell: cell as u32,
                });
                let parent = l0.grid.cell_ref(x.div_euclid(2)).unwrap();
                assert!(l0.cell_flags(parent).is_ghost());
                assert_eq!(d.dst, number[&parent] * q + dir);
                count += 1;
            }
        }
        // Σ over the ghosts' children of their crossing directions.
        let crossing: u32 = l0
            .gather
            .all()
            .iter()
            .flat_map(|e| e.masks)
            .map(u32::count_ones)
            .sum();
        assert_eq!(count, crossing as usize);
    }

    #[test]
    #[should_panic(expected = "deposited into by fine blocks 0 and 2")]
    fn single_writer_guard_rejects_a_slot_shared_by_two_blocks() {
        let q = D3Q19::Q;
        let mut deposits = PerBlock::default();
        deposits.push(0, Deposit {
            src: 0,
            dst: 9 * q + 3,
        });
        deposits.push(2, Deposit {
            src: 5,
            dst: 9 * q + 3,
        });
        deposits.seal(3);
        MG::assert_single_writer(&deposits, 12);
    }

    #[test]
    fn single_writer_guard_accepts_one_block_per_slot() {
        let q = D3Q19::Q;
        let mut deposits = PerBlock::default();
        for (b, dir) in [(0, 1), (0, 2), (2, 1)] {
            let ghost = if b == 0 { 9 } else { 10 };
            deposits.push(b, Deposit {
                src: 0,
                dst: ghost * q + dir,
            });
        }
        deposits.seal(3);
        MG::assert_single_writer(&deposits, 12);
    }

    #[test]
    #[should_panic(expected = "invalid grid")]
    fn rejects_level_jump_two() {
        // 3 levels: refine a region at level 0, and refine at level 1 a
        // region flush against the level-1 boundary so a level-2 cell
        // touches level 0 directly.
        let spec = GridSpec::new(3, Box3::from_dims(64, 64, 64), |l, p| match l {
            0 => (4..12).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z),
            1 => (8..16).contains(&p.x) && (8..16).contains(&p.y) && (8..16).contains(&p.z),
            _ => false,
        });
        let _ = MG::build(spec, &AllWalls, 1.5);
    }

    fn uniform_with(u: [f64; 3]) -> MG {
        let mut g = MG::build(GridSpec::uniform(Box3::from_dims(8, 8, 8)), &AllWalls, 1.0);
        g.init_equilibrium(|_, _| 1.0, move |_, _| u);
        g
    }

    #[test]
    fn max_speed_reports_magnitude() {
        let g = uniform_with([0.03, 0.04, 0.0]);
        assert!((g.max_speed() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn probe_matches_a_per_cell_reference() {
        // Max speed is a max, so the lane pass reproduces the per-cell
        // scalar moments bit for bit; the mass is a sum in a different
        // association and must agree to round-off.
        let mut g = MG::build(two_level_spec(), &AllWalls, 1.5);
        g.init_equilibrium(
            |l, c| 1.0 + 0.01 * l as f64 + 1e-3 * c.z as f64,
            |l, c| [0.01 * l as f64, 1e-3 * c.x as f64, -2e-3 * c.y as f64],
        );
        let (mut max_sq, mut mass) = (0.0f64, 0.0f64);
        for (l, level) in g.levels.iter().enumerate() {
            let vol = (g.spec.scale_to_finest(l as u32) as f64).powi(3);
            for (r, _) in level.iter_real() {
                let (rho, u) = g.density_velocity(l, r);
                max_sq = max_sq.max(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
                mass += rho * vol;
            }
        }
        let p = g.probe();
        assert!(p.finite);
        assert_eq!(p.max_speed_sq.to_bits(), max_sq.to_bits());
        assert!(((p.mass - mass) / mass).abs() < 1e-12, "{} vs {mass}", p.mass);
        assert_eq!(g.max_speed(), max_sq.sqrt());
        assert_eq!(g.total_mass(), p.mass);
    }

    #[test]
    fn finiteness_detects_injected_nan() {
        let mut g = uniform_with([0.0; 3]);
        assert!(g.is_finite());
        // Poison a single population slot; the detector must trip on it.
        g.levels[0].f.src_mut().set(0, 3, 7, f64::NAN);
        assert!(!g.is_finite());
        g.levels[0].f.src_mut().set(0, 3, 7, 1.0);
        assert!(g.is_finite());
        g.levels[0].f.src_mut().set(0, 0, 0, f64::INFINITY);
        assert!(!g.is_finite());
    }

    #[test]
    fn finiteness_detects_nan_in_dst_half_only() {
        // Regression: the detector used to scan only the src() half, so a
        // NaN parked in the destination half (stale after a restore, or
        // written by the last substep before a swap) escaped detection
        // until the next swap made it live again.
        let mut g = uniform_with([0.0; 3]);
        g.levels[0].f.dst_mut().set(0, 5, 11, f64::NAN);
        assert!(!g.is_finite(), "NaN in the dst half must be detected");
        // And it is still caught after the swap brings it live.
        g.levels[0].f.swap();
        assert!(!g.is_finite());
    }
}
