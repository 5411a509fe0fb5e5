//! Construction of the multi-resolution grid stack (paper §V-B).
//!
//! `MultiGrid::build` turns a [`GridSpec`] (octree ownership) plus a
//! [`BoundarySpec`] into the stack of [`Level`]s with every cross-level and
//! boundary interaction resolved into precomputed links:
//!
//! - **real** cells per level = owned octree leaves;
//! - **ghost** cells per level = the single coarse layer inside the
//!   next-finer region adjacent to real cells (paper §IV-A);
//! - per-cell Accumulate targets (fine cell → parent ghost);
//! - per-ghost gather lists (the modified baseline's coarse-initiated
//!   Accumulate, paper §VI-B);
//! - exception links for Explosion, Coalescence, bounce-back, moving walls,
//!   outflow and periodic wrapping.
//!
//! Construction validates the paper's structural invariants: level jumps of
//! at most one at every interface, and a refinement shell thick enough that
//! every ghost cell has all 2³ children real.

use std::marker::PhantomData;

use lbm_gpu::AtomicF64Field;
use lbm_lattice::{equilibrium, moments, omega_at_level, Real, VelocitySet, MAX_Q};
use lbm_sparse::{
    Coord, DoubleBuffer, Field, GridBuilder, Layout, OwnerMap, SparseGrid, StreamOffsets,
};

use crate::boundary::{Boundary, BoundarySpec};
use crate::flags::{BlockFlags, CellFlags};
use crate::level::{AccStage, GatherEntry, Level, MergeBlockPlan, MergeSlotPlan};
use crate::links::{decode_ref, encode_ref, BlockLinks, Link, LinkKind, NO_TARGET};
use crate::spec::GridSpec;

/// The multi-resolution grid: a stack of levels, finest last.
pub struct MultiGrid<T, V> {
    /// Levels, index 0 = coarsest.
    pub levels: Vec<Level<T>>,
    /// The building spec (retained for domains, periodicity, scales).
    pub spec: GridSpec,
    _lattice: PhantomData<V>,
}

impl<T: Real, V: VelocitySet> MultiGrid<T, V> {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total real cells over all levels.
    pub fn total_real_cells(&self) -> usize {
        self.levels.iter().map(|l| l.real_cells).sum()
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

        // ---- Pass 1: grids + flags ------------------------------------
        let mut grids: Vec<SparseGrid> = Vec::with_capacity(nl as usize);
        let mut flags: Vec<Field<u8>> = Vec::with_capacity(nl as usize);
        for l in 0..nl {
            let dom = spec.domain_at(l);
            let mut gb = GridBuilder::new(spec.block_size);
            for p in dom.iter() {
                let active = spec.owned(l, p)
                    || (l + 1 < nl
                        && spec.covered_by_finer(l, p)
                        && Self::touches_owned(&spec, l, p));
                if active {
                    gb.activate(p);
                }
            }
            let grid = gb.build(spec.curve);
            let mut fl = Field::<u8>::new(&grid, 1, 0);
            for (r, c) in grid.iter_active() {
                let bit = if spec.owned(l, c) {
                    CellFlags::REAL
                } else {
                    CellFlags::GHOST
                };
                fl.set(r.block, 0, r.cell, bit);
            }
            grids.push(grid);
            flags.push(fl);
        }

        // ---- Pass 2: per-level link tables, accumulate targets, gather --
        let mut levels: Vec<Level<T>> = Vec::with_capacity(nl as usize);
        for l in 0..nl {
            let grid = &grids[l as usize];
            let fl = &flags[l as usize];
            let dom = spec.domain_at(l);
            let cpb = grid.cells_per_block();
            let mut links: Vec<BlockLinks<T>> = (0..grid.num_blocks())
                .map(|_| BlockLinks::new(cpb))
                .collect();
            let mut acc_target: Vec<Option<Box<[u64]>>> = vec![None; grid.num_blocks()];
            let mut acc_dirs: Vec<Option<Box<[u32]>>> = vec![None; grid.num_blocks()];
            // Flag bits discovered in this pass, applied after the loop
            // (flags of other levels are read concurrently).
            let mut flag_updates: Vec<(u32, u32, u8)> = Vec::new();

            let cell_list: Vec<_> = grid.iter_active().collect();
            for (r, x) in cell_list {
                let cf = CellFlags(fl.get(r.block, 0, r.cell));
                if !cf.is_real() {
                    continue;
                }
                let mut cell_links: Vec<Link<T>> = Vec::new();
                for i in 1..V::Q {
                    let d = Coord::from_array(V::C[i]).scale(-1); // pull source offset
                    if let Some(nref) = grid.neighbor(r, d) {
                        let nflags = CellFlags(fl.get(nref.block, 0, nref.cell));
                        if nflags.is_real() {
                            continue; // fast-path same-level gather
                        }
                        // Ghost neighbor ⇒ Coalescence read (paper Eq. 11).
                        let g = grid.coord_of(nref);
                        cell_links.push(Link {
                            dir: i as u8,
                            kind: LinkKind::Coalesce {
                                src: nref,
                                inv_count: Self::coalesce_inv_count(&spec, &grids, &flags, l, g, i),
                            },
                        });
                        continue;
                    }
                    // Missing same-level source.
                    let s = x + d;
                    let s_w = spec.wrap(l, s);
                    if dom.contains(s_w) {
                        if s_w != s {
                            // Periodic image.
                            match grid.cell_ref(s_w) {
                                Some(sr) => {
                                    let sflags = CellFlags(fl.get(sr.block, 0, sr.cell));
                                    let kind = if sflags.is_real() {
                                        LinkKind::Periodic { src: sr }
                                    } else {
                                        LinkKind::Coalesce {
                                            src: sr,
                                            inv_count: Self::coalesce_inv_count(
                                                &spec, &grids, &flags, l, s_w, i,
                                            ),
                                        }
                                    };
                                    cell_links.push(Link { dir: i as u8, kind });
                                    continue;
                                }
                                None => {
                                    // Fall through to explosion/BC below
                                    // using the wrapped coordinate.
                                }
                            }
                        }
                        // In-domain but inactive: coarser region or solid.
                        if l > 0 {
                            let pp = s_w.div_euclid(2);
                            let coarse = &grids[(l - 1) as usize];
                            if let Some(pr) = coarse.cell_ref(pp) {
                                let pflags =
                                    CellFlags(flags[(l - 1) as usize].get(pr.block, 0, pr.cell));
                                if pflags.is_real() {
                                    // Explosion (paper Eq. 10).
                                    cell_links.push(Link {
                                        dir: i as u8,
                                        kind: LinkKind::Explosion { src: pr },
                                    });
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
                        // Solid surface (or unresolvable): boundary.
                        cell_links.push(Link {
                            dir: i as u8,
                            kind: Self::boundary_link(&spec, bc, l, s_w, i),
                        });
                    } else {
                        // Outside the domain: boundary condition.
                        cell_links.push(Link {
                            dir: i as u8,
                            kind: Self::boundary_link(&spec, bc, l, s_w, i),
                        });
                    }
                }

                // Accumulate target: parent ghost cell in the coarser grid,
                // restricted to the directions that actually cross the
                // interface (exact volumetric flux; see kernels.rs docs).
                let mut accumulates = false;
                if l > 0 {
                    let pp = x.div_euclid(2);
                    let coarse = &grids[(l - 1) as usize];
                    if let Some(pr) = coarse.cell_ref(pp) {
                        let pflags = CellFlags(flags[(l - 1) as usize].get(pr.block, 0, pr.cell));
                        if pflags.is_ghost() {
                            let mask = Self::crossing_mask_at(&spec, &grids, &flags, l, x);
                            if mask != 0 {
                                accumulates = true;
                                let tgt = acc_target[r.block as usize].get_or_insert_with(|| {
                                    vec![NO_TARGET; cpb].into_boxed_slice()
                                });
                                tgt[r.cell as usize] = encode_ref(pr);
                                let dm = acc_dirs[r.block as usize]
                                    .get_or_insert_with(|| vec![0u32; cpb].into_boxed_slice());
                                dm[r.cell as usize] = mask;
                            }
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
                if extra != 0 {
                    flag_updates.push((r.block, r.cell, extra));
                }
                links[r.block as usize].insert(r.cell, cell_links);
            }
            {
                let fl = &mut flags[l as usize];
                for (b, c, extra) in flag_updates {
                    let bits = fl.get(b, 0, c) | extra;
                    fl.set(b, 0, c, bits);
                }
            }
            let fl = &flags[l as usize];

            // Gather lists: this level's ghosts pull from children at l+1.
            let mut gather: Vec<Vec<GatherEntry>> = vec![Vec::new(); grid.num_blocks()];
            if l + 1 < nl {
                let fine = &grids[(l + 1) as usize];
                let fine_flags = &flags[(l + 1) as usize];
                for (r, g) in grid.iter_active() {
                    if !CellFlags(fl.get(r.block, 0, r.cell)).is_ghost() {
                        continue;
                    }
                    let mut children = [NO_TARGET; 8];
                    let mut masks = [0u32; 8];
                    let mut k = 0;
                    for dz in 0..2 {
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let cc = g.scale(2) + Coord::new(dx, dy, dz);
                                let cr = fine.cell_ref(cc).unwrap_or_else(|| {
                                    panic!(
                                        "invalid grid: ghost cell {g:?} at level {l} has missing \
                                         fine child {cc:?} — refinement shell thinner than one \
                                         coarse cell"
                                    )
                                });
                                assert!(
                                    CellFlags(fine_flags.get(cr.block, 0, cr.cell)).is_real(),
                                    "invalid grid: ghost child {cc:?} at level {} is not a real \
                                     cell (level jump > 1?)",
                                    l + 1
                                );
                                children[k] = encode_ref(cr);
                                masks[k] = Self::crossing_mask_at(&spec, &grids, &flags, l + 1, cc);
                                k += 1;
                            }
                        }
                    }
                    gather[r.block as usize].push(GatherEntry {
                        ghost_cell: r.cell,
                        children,
                        masks,
                    });
                }
            }

            // Block summaries. The streaming offset tables are shared
            // process-wide per (block size, velocity set) pair; here they
            // also supply the slot set for stencil-completeness tagging.
            let offsets = StreamOffsets::cached(grid.block_size() as u32, V::C);
            let runs =
                StreamOffsets::lowered_cached(grid.block_size() as u32, V::C, Layout::default());
            let mut block_flags = Vec::with_capacity(grid.num_blocks());
            let mut real_cells = 0usize;
            let mut ghost_cells = 0usize;
            for (bi, blk) in grid.blocks().iter().enumerate() {
                let mut bf = 0u8;
                let mut interior = blk.active.all();
                for cell in blk.active.iter_set() {
                    let cf = CellFlags(fl.get(bi as u32, 0, cell as u32));
                    if cf.is_real() {
                        bf |= BlockFlags::HAS_REAL;
                        real_cells += 1;
                    }
                    if cf.is_ghost() {
                        bf |= BlockFlags::HAS_GHOST;
                        ghost_cells += 1;
                        interior = false;
                    }
                    if cf.accumulates() {
                        bf |= BlockFlags::HAS_ACCUMULATORS;
                    }
                    if cf.is_exceptional() || cf.accumulates() {
                        interior = false;
                    }
                }
                if offsets.stencil_complete(&blk.neighbors) {
                    bf |= BlockFlags::STENCIL_COMPLETE;
                }
                if interior {
                    bf |= BlockFlags::FULLY_INTERIOR;
                    // An interior block pulls from all 26 neighbors with no
                    // links to redirect a missing one — the grid
                    // construction must have allocated them.
                    assert!(
                        bf & BlockFlags::STENCIL_COMPLETE != 0,
                        "fully-interior block {bi} at level {l} has a missing stencil neighbor"
                    );
                }
                block_flags.push(BlockFlags(bf));
            }

            let f = DoubleBuffer::<T>::new(grid, V::Q, T::ZERO);
            let acc = AtomicF64Field::new(grid.num_blocks(), V::Q, cpb);
            let stage = Self::acc_stage_plan(grid, fl, &acc_target, &acc_dirs, cpb);
            levels.push(Level {
                grid: grids[l as usize].clone(),
                flags: flags[l as usize].clone(),
                block_flags,
                links,
                acc_target,
                acc_dirs,
                gather,
                offsets,
                runs,
                f,
                acc,
                stage,
                omega: omega_at_level(omega0, l),
                real_cells,
                ghost_cells,
            });
        }

        Self {
            levels,
            spec,
            _lattice: PhantomData,
        }
    }

    /// Builds the staged-Accumulate plan for one fine level (see
    /// [`Level::stage`] and DESIGN.md §10): selects the accumulating blocks,
    /// sizes their private staging slab, and lays out the per-coarse-block
    /// merge with each slot's contributions in the exact order the serial
    /// atomic scatter adds them — fine block ascending, cell ascending,
    /// direction bit ascending — so the staged fold is bit-identical to the
    /// serial reference for every thread count. The cell predicate below
    /// replicates the scatter kernel's exactly (active ∧ real ∧ accumulates
    /// ∧ nonzero direction mask): a slot the scatter never writes must not
    /// be read by the merge, or stale slab contents would leak in.
    fn acc_stage_plan(
        grid: &SparseGrid,
        fl: &Field<u8>,
        acc_target: &[Option<Box<[u64]>>],
        acc_dirs: &[Option<Box<[u32]>>],
        cpb: usize,
    ) -> Option<AccStage> {
        let owners = OwnerMap::build(grid.num_blocks(), |b| acc_target[b].is_some());
        if owners.is_empty() {
            return None;
        }
        let slab = AtomicF64Field::new(owners.len(), V::Q, cpb);
        // (coarse block, dir, coarse cell) → contribution slab addresses,
        // appended in serial scatter order.
        let mut by_slot: std::collections::BTreeMap<(u32, u8, u32), Vec<u32>> =
            std::collections::BTreeMap::new();
        for &b in owners.owners() {
            let tgt = acc_target[b as usize].as_deref().unwrap();
            let dirs = acc_dirs[b as usize].as_deref().unwrap();
            let dense = owners.dense_of(b).unwrap();
            let blk = &grid.blocks()[b as usize];
            for cell in 0..cpb as u32 {
                if !blk.active.get(cell as usize) {
                    continue;
                }
                let cf = CellFlags(fl.get(b, 0, cell));
                if !cf.is_real() || !cf.accumulates() {
                    continue;
                }
                let mut mask = dirs[cell as usize];
                if mask == 0 || tgt[cell as usize] == NO_TARGET {
                    continue;
                }
                let parent = decode_ref(tgt[cell as usize]);
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    by_slot
                        .entry((parent.block, i as u8, parent.cell))
                        .or_default()
                        .push(slab.flat_index(dense, i, cell) as u32);
                }
            }
        }
        let mut blocks: Vec<MergeBlockPlan> = Vec::new();
        let mut slots: Vec<MergeSlotPlan> = Vec::new();
        let mut contrib: Vec<u32> = Vec::new();
        for ((cb, dir, cell), list) in by_slot {
            let start = contrib.len() as u32;
            contrib.extend_from_slice(&list);
            let si = slots.len() as u32;
            match blocks.last_mut() {
                Some(bp) if bp.coarse_block == cb => bp.slots.1 = si + 1,
                _ => blocks.push(MergeBlockPlan {
                    coarse_block: cb,
                    slots: (si, si + 1),
                }),
            }
            slots.push(MergeSlotPlan {
                dir,
                cell,
                start,
                len: list.len() as u32,
            });
        }
        Some(AccStage {
            owners,
            slab,
            blocks,
            slots,
            contrib,
        })
    }

    /// The intra-block memory layout of the population buffers (uniform
    /// across levels).
    pub fn layout(&self) -> Layout {
        self.levels
            .first()
            .map_or(Layout::default(), |l| l.f.layout())
    }

    /// Converts every level's population buffers to `layout` (values are
    /// preserved) and refreshes the lowered streaming plans to match. Flags
    /// and accumulators are unaffected: flags are single-component fields
    /// (every layout coincides at `q = 1`) and the accumulators keep their
    /// own fixed indexing behind accessors.
    pub fn set_layout(&mut self, layout: Layout) {
        for level in &mut self.levels {
            level.f.convert_layout(layout);
            level.runs =
                StreamOffsets::lowered_cached(level.grid.block_size() as u32, V::C, layout);
        }
    }

    /// Bitmask of directions along which the level-`lf` cell `cc` sends
    /// populations *out of* its level's grid into the next-coarser region
    /// (the populations Accumulate must capture). A direction crosses iff
    /// the target (after periodic wrap) is inside the domain, is not a real
    /// cell at level `lf`, and its parent at level `lf − 1` is real —
    /// targets behind walls or solids bounce back instead of crossing.
    fn crossing_mask_at(
        spec: &GridSpec,
        grids: &[SparseGrid],
        flags: &[Field<u8>],
        lf: u32,
        cc: Coord,
    ) -> u32 {
        debug_assert!(lf >= 1);
        let dom = spec.domain_at(lf);
        let own = &grids[lf as usize];
        let own_flags = &flags[lf as usize];
        let coarse = &grids[(lf - 1) as usize];
        let coarse_flags = &flags[(lf - 1) as usize];
        let mut mask = 0u32;
        for i in 1..V::Q {
            let t = cc + Coord::from_array(V::C[i]);
            let t_w = spec.wrap(lf, t);
            if !dom.contains(t_w) {
                continue;
            }
            if let Some(r) = own.cell_ref(t_w) {
                if CellFlags(own_flags.get(r.block, 0, r.cell)).is_real() {
                    continue;
                }
            }
            let pp = t_w.div_euclid(2);
            if let Some(pr) = coarse.cell_ref(pp) {
                if CellFlags(coarse_flags.get(pr.block, 0, pr.cell)).is_real() {
                    mask |= 1 << i;
                }
            }
        }
        mask
    }

    /// `1 / contributions` for a Coalescence link at level `l`, ghost cell
    /// `g`, direction `i`: contributions = crossing children × 2 substeps.
    fn coalesce_inv_count(
        spec: &GridSpec,
        grids: &[SparseGrid],
        flags: &[Field<u8>],
        l: u32,
        g: Coord,
        i: usize,
    ) -> T {
        let mut count = 0u32;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    let cc = g.scale(2) + Coord::new(dx, dy, dz);
                    let m = Self::crossing_mask_at(spec, grids, flags, l + 1, cc);
                    count += (m >> i) & 1;
                }
            }
        }
        assert!(
            count > 0,
            "invalid grid: coalescence at level {l} ghost {g:?} dir {i} has no crossing \
             fine populations"
        );
        T::from_f64(1.0 / (2.0 * count as f64))
    }

    fn touches_owned(spec: &GridSpec, l: u32, p: Coord) -> bool {
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    if (dx, dy, dz) != (0, 0, 0) && spec.owned(l, p + Coord::new(dx, dy, dz)) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn boundary_link(
        _spec: &GridSpec,
        bc: &dyn BoundarySpec,
        l: u32,
        s: Coord,
        i: usize,
    ) -> LinkKind<T> {
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

    /// Sets every real cell to the local equilibrium given by `rho(level,
    /// coord)` and `u(level, coord)` (lattice units of that level). Resets
    /// accumulators. The destination buffers are zeroed.
    pub fn init_equilibrium(
        &mut self,
        rho: impl Fn(u32, Coord) -> f64,
        u: impl Fn(u32, Coord) -> [f64; 3],
    ) {
        for (l, level) in self.levels.iter_mut().enumerate() {
            let cells: Vec<_> = level.grid.iter_active().collect();
            for (r, c) in cells {
                if !level.cell_flags(r).is_real() {
                    continue;
                }
                let rv = T::from_f64(rho(l as u32, c));
                let uv = u(l as u32, c);
                let uvt = [
                    T::from_f64(uv[0]),
                    T::from_f64(uv[1]),
                    T::from_f64(uv[2]),
                ];
                let mut feq = [T::ZERO; MAX_Q];
                equilibrium::<T, V>(rv, uvt, &mut feq);
                #[allow(clippy::needless_range_loop)] // parallel table indexing
                for i in 0..V::Q {
                    // Fill both buffer halves so schemes reading the
                    // previous state (temporal interpolation) see a
                    // consistent t = 0.
                    level.f.src_mut().set(r.block, i, r.cell, feq[i]);
                    level.f.dst_mut().set(r.block, i, r.cell, feq[i]);
                }
            }
            level.acc.reset();
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

    /// Total mass `Σ ρ·V_cell` in finest-cell volume units.
    pub fn total_mass(&self) -> f64 {
        let mut total = 0.0;
        for (l, level) in self.levels.iter().enumerate() {
            let vol = (self.spec.scale_to_finest(l as u32) as f64).powi(3);
            let f = level.f.src();
            for (r, _) in level.iter_real() {
                let mut rho = 0.0;
                for i in 0..V::Q {
                    rho += f.get(r.block, i, r.cell).to_f64();
                }
                total += rho * vol;
            }
        }
        total
    }

    /// True iff every population value in **both** halves of every level's
    /// double buffer is finite. Scanning both halves matters: a NaN parked
    /// in the idle (`dst`) half — e.g. after a restore, or written by the
    /// last substep before a parity swap — would otherwise escape detection
    /// and resurface on the next swap.
    pub fn is_finite(&self) -> bool {
        self.levels.iter().all(|lv| {
            (0..2).all(|h| lv.f.half(h).as_slice().iter().all(|v| v.is_finite()))
        })
    }

    /// Maximum flow speed `|u|` over the real cells of every level, in
    /// lattice units (comparable across levels under acoustic scaling).
    /// Health guards compare this against the lattice sound speed: a
    /// resolved flow must stay well below `1/√3`.
    pub fn max_speed(&self) -> f64 {
        let mut max = 0.0f64;
        for (l, level) in self.levels.iter().enumerate() {
            for (r, _) in level.iter_real() {
                let (_, u) = self.density_velocity(l, r);
                let s2 = u[0].to_f64() * u[0].to_f64()
                    + u[1].to_f64() * u[1].to_f64()
                    + u[2].to_f64() * u[2].to_f64();
                max = max.max(s2);
            }
        }
        max.sqrt()
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
        assert_eq!(l1.accumulator_cells(), 16 * 16 * 16 - 14 * 14 * 14);
        // Omegas follow Eq. 9.
        assert!((l0.omega - 1.5).abs() < 1e-15);
        assert!((l1.omega - omega_at_level(1.5, 1)).abs() < 1e-15);
    }

    #[test]
    fn interface_links_present() {
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let l0 = &mg.levels[0];
        let l1 = &mg.levels[1];
        let mut explosion = 0usize;
        let mut coalesce = 0usize;
        let mut bb = 0usize;
        for (bi, bl) in l1.links.iter().enumerate() {
            let _ = bi;
            for c in &bl.cells {
                for lk in &c.links {
                    match lk.kind {
                        LinkKind::Explosion { .. } => explosion += 1,
                        LinkKind::Coalesce { .. } => coalesce += 1,
                        LinkKind::BounceBack { .. } => bb += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(explosion > 0, "fine boundary cells must explode from coarse");
        assert_eq!(coalesce, 0, "fine level has no ghost neighbors");
        assert_eq!(bb, 0, "fine region is interior, no walls touch it");
        let mut coalesce0 = 0usize;
        let mut bb0 = 0usize;
        for bl in &l0.links {
            for c in &bl.cells {
                for lk in &c.links {
                    match lk.kind {
                        LinkKind::Coalesce { .. } => coalesce0 += 1,
                        LinkKind::BounceBack { .. } => bb0 += 1,
                        LinkKind::Explosion { .. } => {
                            panic!("coarsest level cannot explode")
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(coalesce0 > 0, "coarse interface cells must coalesce");
        assert!(bb0 > 0, "domain walls must bounce back");
    }

    #[test]
    fn explosion_is_homogeneous_per_parent() {
        // All fine cells pulling a given direction across the interface from
        // the same parent must reference the same coarse cell (Eq. 10).
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let l1 = &mg.levels[1];
        for (r, x) in l1.iter_real() {
            if let Some(set) = l1.links[r.block as usize].of(r.cell) {
                for lk in &set.links {
                    if let LinkKind::Explosion { src } = lk.kind {
                        let d = Coord::from_array(D3Q19::C[lk.dir as usize]).scale(-1);
                        let expect = (x + d).div_euclid(2);
                        assert_eq!(mg.levels[0].grid.coord_of(src), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn ghost_gather_children_cover_octants() {
        let mg = MG::build(two_level_spec(), &AllWalls, 1.5);
        let l0 = &mg.levels[0];
        let mut entries = 0usize;
        for (bi, g) in l0.gather.iter().enumerate() {
            for e in g {
                entries += 1;
                let gc = l0.grid.block(bi as u32).origin + l0.grid.delinear(e.ghost_cell);
                for (k, &enc) in e.children.iter().enumerate() {
                    let cr = crate::links::decode_ref(enc);
                    let cc = mg.levels[1].grid.coord_of(cr);
                    assert_eq!(cc.div_euclid(2), gc, "child {k} not under ghost {gc:?}");
                }
            }
        }
        assert_eq!(entries, l0.ghost_cells);
    }

    #[test]
    fn uniform_grid_has_no_interface_machinery() {
        let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
        let mg = MG::build(spec, &AllWalls, 1.2);
        let l0 = &mg.levels[0];
        assert_eq!(l0.real_cells, 16 * 16 * 16);
        assert_eq!(l0.ghost_cells, 0);
        assert_eq!(l0.accumulator_cells(), 0);
        // Interior blocks take the fast path.
        let interior = (0..l0.grid.num_blocks())
            .filter(|&b| l0.block_fully_interior(b as u32))
            .count();
        // 4³ blocks of 4³ cells: the inner 2×2×2 blocks are fully interior.
        assert_eq!(interior, 8);
    }

    #[test]
    fn periodic_links_wrap() {
        let spec = GridSpec::uniform(Box3::from_dims(8, 8, 8)).with_periodic([true, true, true]);
        let mg = MG::build(spec, &AllWalls, 1.0);
        let l0 = &mg.levels[0];
        let mut periodic = 0usize;
        for bl in &l0.links {
            for c in &bl.cells {
                for lk in &c.links {
                    match lk.kind {
                        LinkKind::Periodic { .. } => periodic += 1,
                        other => panic!("fully periodic box should only wrap, got {other:?}"),
                    }
                }
            }
        }
        assert!(periodic > 0);
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
