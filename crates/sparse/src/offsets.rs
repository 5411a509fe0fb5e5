//! Precomputed streaming offset tables: a per-direction decomposition of a
//! `B³` block into contiguous source regions.
//!
//! The pull-based streaming gather `dst[x][i] = src[x − e_i][i]` reads, for
//! each direction `i`, a `B³` cube of sources shifted by `−e_i` relative to
//! the destination block. With `e_i ∈ {−1, 0, +1}³`, each axis of that cube
//! splits into at most two contiguous spans — the intra-block span and a
//! one-cell spill into the neighbor block on that axis — so the whole cube
//! decomposes into at most `2³ = 8` axis-aligned regions. Each region
//! sources from exactly one block (the 27-slot neighbor table resolves it),
//! and because source and destination blocks share the same `B`, a region's
//! rows live at identical `y`/`z` strides in both: the per-cell gather
//! becomes per-region `copy_from_slice` runs with no per-cell branching.
//!
//! This table depends only on `(block_size, direction list)`, so it is
//! computed once per `(B, velocity set)` pair and shared process-wide via
//! [`StreamOffsets::cached`]. Precomputing per-direction offsets for sparse
//! blocks is the decisive streaming optimization of Tomczak & Szafran's
//! sparse-geometry LBM; this module is that idea specialized to the
//! block-sparse [`crate::field::Field`]. Because a component's `B³` cells
//! are contiguous there, a cell-space run of direction `i` is a memory run
//! at component base `i·B³`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The neighbor-table slot of the block itself (`dir_slot([0, 0, 0])`).
pub const CENTER_SLOT: u8 = 13;

/// One contiguous source region of a direction's gather: `n_z × n_y` rows
/// of `len_x` cells, all sourced from the block in neighbor slot `slot`.
///
/// Row `(y, z)` of the region starts at linear cell index
/// `base + (z·B + y)·B` — with the *same* `base`-relative offset in the
/// destination block (from `dst_base`) and the source block (from
/// `src_base`), because both blocks share the block size `B`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DirRegion {
    /// Neighbor-table slot of the source block ([`CENTER_SLOT`] = self).
    pub slot: u8,
    /// Linear cell index of the region's first destination cell.
    pub dst_base: u32,
    /// Linear cell index of the region's first source cell.
    pub src_base: u32,
    /// Contiguous run length along x.
    pub len_x: u32,
    /// Number of rows along y.
    pub n_y: u32,
    /// Number of planes along z.
    pub n_z: u32,
}

impl DirRegion {
    /// Number of cells the region covers.
    pub fn cells(&self) -> u64 {
        self.len_x as u64 * self.n_y as u64 * self.n_z as u64
    }
}

/// One strided copy of a direction's flattened gather plan: `count` copies
/// of `len` contiguous cells, the `k`-th at cell offset `k·stride` past the
/// bases.
///
/// The plan is an **ordered overwrite sequence**, not a partition. Its
/// first run is the *bulk shift*: in linear cell order, every
/// non-wrapping destination cell reads source cell `dst − δ` with the
/// single scalar shift `δ = e_x + B·e_y + B²·e_z`, so one contiguous
/// memcpy of `B³ − |δ|` cells handles all of them at once. That copy also
/// writes stale values into the cells whose pull wraps into a neighbor
/// block — and those are exactly the cells of the non-center
/// [`DirRegion`]s (if no axis wraps, `dst − δ` is in range, so any cell
/// outside the bulk range wraps on some axis), which the subsequent runs
/// overwrite from the right neighbor. Neighbor regions are flattened by
/// merging spans contiguous in linear order: a full-width (`len_x = B`)
/// region folds its rows into its planes, and a full-height (`n_y = B`)
/// region folds its planes into one uniform row sequence.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CopyRun {
    /// Neighbor-table slot of the source block ([`CENTER_SLOT`] = self).
    pub slot: u8,
    /// Linear cell index of the first destination cell.
    pub dst_base: u32,
    /// Linear cell index of the first source cell.
    pub src_base: u32,
    /// Contiguous cells per copy.
    pub len: u32,
    /// Number of copies.
    pub count: u32,
    /// Cell offset between consecutive copies (unused when `count = 1`).
    pub stride: u32,
}

/// Flattens one neighbor region into equivalent [`CopyRun`]s (see there
/// for the contiguity cases). Only a region with `1 < n_y < B` needs one
/// run per plane; every other shape flattens to a single run.
fn runs_of(b: u32, r: &DirRegion) -> Vec<CopyRun> {
    let plane = b * b;
    let run = |dz: u32, len: u32, count: u32, stride: u32| CopyRun {
        slot: r.slot,
        dst_base: r.dst_base + dz,
        src_base: r.src_base + dz,
        len,
        count,
        stride,
    };
    if r.len_x == b {
        if r.n_y == b {
            vec![run(0, plane * r.n_z, 1, 0)]
        } else if r.n_z == 1 {
            vec![run(0, b * r.n_y, 1, 0)]
        } else {
            vec![run(0, b * r.n_y, r.n_z, plane)]
        }
    } else if r.n_y == b {
        vec![run(0, r.len_x, b * r.n_z, b)]
    } else if r.n_y == 1 {
        vec![run(0, r.len_x, r.n_z, plane)]
    } else {
        (0..r.n_z).map(|z| run(z * plane, r.len_x, r.n_y, b)).collect()
    }
}

/// The source decomposition of one direction: 1 region for the rest
/// direction, 2 for faces, 4 for edges, 8 for corners.
#[derive(Clone, Debug, Default)]
pub struct DirOffsets {
    /// Source regions, intra-block core first (largest region first keeps
    /// the common case at the front of the loop).
    pub regions: Vec<DirRegion>,
    /// The ordered overwrite plan the gather kernel actually executes:
    /// the bulk shifted copy first, then the neighbor fix-ups (see
    /// [`CopyRun`]). **The order is load-bearing** — later runs overwrite
    /// cells the bulk copy filled with stale data.
    pub runs: Vec<CopyRun>,
}

/// Per-direction streaming offset tables for one `(block_size, velocity
/// set)` pair.
#[derive(Clone, Debug)]
pub struct StreamOffsets {
    block_size: u32,
    dirs: Vec<DirOffsets>,
}

/// One axis of a direction's source cube: a span staying in the block plus
/// (for a moving component) a one-cell spill into the `−c` neighbor.
/// `(neighbor offset, dst start, src start, length)` per span.
fn axis_spans(b: u32, c: i32) -> Vec<(i32, u32, u32, u32)> {
    match c {
        0 => vec![(0, 0, 0, b)],
        // src = dst − 1: dst 0 spills to the last cell of the −1 neighbor,
        // dst 1.. reads 0.. in-block.
        1 => vec![(-1, 0, b - 1, 1), (0, 1, 0, b - 1)],
        // src = dst + 1: dst ..B−1 reads 1.. in-block, dst B−1 spills to
        // the first cell of the +1 neighbor.
        -1 => vec![(0, 0, 1, b - 1), (1, b - 1, 0, 1)],
        _ => unreachable!("velocity components are in {{-1, 0, 1}}"),
    }
}

impl StreamOffsets {
    /// Builds the decomposition for `block_size ≥ 2` and the given
    /// direction list (one `e_i ∈ {−1,0,1}³` per direction).
    pub fn build(block_size: u32, dirs: &[[i32; 3]]) -> Self {
        assert!(block_size >= 2, "offset tables need block_size >= 2");
        let b = block_size;
        let tables = dirs
            .iter()
            .map(|c| {
                let mut regions = Vec::with_capacity(8);
                for &(oz, dz, sz, nz) in &axis_spans(b, c[2]) {
                    for &(oy, dy, sy, ny) in &axis_spans(b, c[1]) {
                        for &(ox, dx, sx, nx) in &axis_spans(b, c[0]) {
                            let slot = ((ox + 1) + 3 * (oy + 1) + 9 * (oz + 1)) as u8;
                            regions.push(DirRegion {
                                slot,
                                dst_base: dx + b * (dy + b * dz),
                                src_base: sx + b * (sy + b * sz),
                                len_x: nx,
                                n_y: ny,
                                n_z: nz,
                            });
                        }
                    }
                }
                // Largest (intra-block core) region first.
                regions.sort_by_key(|r| std::cmp::Reverse(r.cells()));
                // Bulk shifted copy over the whole block, then neighbor
                // fix-ups — execution order, see [`CopyRun`].
                let delta = c[0] + b as i32 * c[1] + (b * b) as i32 * c[2];
                let mut runs = vec![CopyRun {
                    slot: CENTER_SLOT,
                    dst_base: delta.max(0) as u32,
                    src_base: (-delta).max(0) as u32,
                    len: ((b * b * b) as i32 - delta.abs()) as u32,
                    count: 1,
                    stride: 0,
                }];
                for r in regions.iter().filter(|r| r.slot != CENTER_SLOT) {
                    runs.extend(runs_of(b, r));
                }
                DirOffsets { regions, runs }
            })
            .collect();
        Self {
            block_size,
            dirs: tables,
        }
    }

    /// Process-wide cached tables for a `'static` direction list (velocity
    /// sets are statics, so pointer identity keys the cache).
    pub fn cached(block_size: u32, dirs: &'static [[i32; 3]]) -> Arc<Self> {
        type Cache = Mutex<HashMap<(u32, usize), Arc<StreamOffsets>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (block_size, dirs.as_ptr() as usize);
        let mut map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry(key)
            .or_insert_with(|| Arc::new(Self::build(block_size, dirs)))
            .clone()
    }

    /// The block size the tables were built for.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// The decomposition of direction `i`.
    #[inline(always)]
    pub fn dir(&self, i: usize) -> &DirOffsets {
        &self.dirs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Region counts follow the number of moving axis components.
    #[test]
    fn region_counts() {
        let t = StreamOffsets::build(8, &[[0, 0, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1]]);
        assert_eq!(t.dir(0).regions.len(), 1);
        assert_eq!(t.dir(1).regions.len(), 2);
        assert_eq!(t.dir(2).regions.len(), 4);
        assert_eq!(t.dir(3).regions.len(), 8);
        assert_eq!(t.dir(0).regions[0].slot, CENTER_SLOT);
    }

    /// Every destination cell is covered exactly once per direction, and
    /// each region cites the same source cell the per-cell pull computes.
    #[test]
    fn decomposition_matches_per_cell_pull() {
        for b in [2u32, 4, 8] {
            // All 27 directions (supersedes every velocity set).
            let mut dirs = Vec::new();
            for z in -1..=1 {
                for y in -1..=1 {
                    for x in -1..=1 {
                        dirs.push([x, y, z]);
                    }
                }
            }
            let t = StreamOffsets::build(b, &dirs);
            let bi = b as i32;
            for (i, c) in dirs.iter().enumerate() {
                let mut covered = vec![0u32; (b * b * b) as usize];
                for r in &t.dir(i).regions {
                    for z in 0..r.n_z {
                        for y in 0..r.n_y {
                            for x in 0..r.len_x {
                                let off = (z * b + y) * b + x;
                                let dst = (r.dst_base + off) as usize;
                                covered[dst] += 1;
                                // Reference: per-cell pull arithmetic.
                                let (dx, dy, dz) = (
                                    (dst as u32 % b) as i32,
                                    (dst as u32 / b % b) as i32,
                                    (dst as u32 / (b * b)) as i32,
                                );
                                let wrap = |s: i32| {
                                    if s < 0 {
                                        (-1, s + bi)
                                    } else if s >= bi {
                                        (1, s - bi)
                                    } else {
                                        (0, s)
                                    }
                                };
                                let (ox, wx) = wrap(dx - c[0]);
                                let (oy, wy) = wrap(dy - c[1]);
                                let (oz, wz) = wrap(dz - c[2]);
                                let slot = ((ox + 1) + 3 * (oy + 1) + 9 * (oz + 1)) as u8;
                                let scell = (wx + bi * (wy + bi * wz)) as u32;
                                assert_eq!(r.slot, slot, "b={b} dir={c:?} dst={dst}");
                                assert_eq!(r.src_base + off, scell, "b={b} dir={c:?} dst={dst}");
                            }
                        }
                    }
                }
                assert!(
                    covered.iter().all(|&n| n == 1),
                    "b={b} dir={c:?}: destination not covered exactly once"
                );
            }
        }
    }

    /// Executing the copy runs **in order** (later runs overwrite earlier
    /// ones) yields exactly the per-cell `dst → (slot, src)` map of the
    /// region decomposition, with every cell written, for all 27
    /// directions and several block sizes.
    #[test]
    fn runs_match_regions() {
        for b in [2u32, 3, 4, 8] {
            let mut dirs = Vec::new();
            for z in -1..=1 {
                for y in -1..=1 {
                    for x in -1..=1 {
                        dirs.push([x, y, z]);
                    }
                }
            }
            let t = StreamOffsets::build(b, &dirs);
            for i in 0..dirs.len() {
                let d = t.dir(i);
                let mut from_regions = vec![None; (b * b * b) as usize];
                for r in &d.regions {
                    for z in 0..r.n_z {
                        for y in 0..r.n_y {
                            for x in 0..r.len_x {
                                let off = (z * b + y) * b + x;
                                from_regions[(r.dst_base + off) as usize] =
                                    Some((r.slot, r.src_base + off));
                            }
                        }
                    }
                }
                assert_eq!(
                    d.runs[0].slot, CENTER_SLOT,
                    "b={b} dir {i}: bulk shift must run first"
                );
                let mut from_runs = vec![None; (b * b * b) as usize];
                for e in &d.runs {
                    for k in 0..e.count {
                        for x in 0..e.len {
                            let off = k * e.stride + x;
                            // Last write wins: the bulk shift's stale cells
                            // are overwritten by the neighbor fix-ups.
                            from_runs[(e.dst_base + off) as usize] =
                                Some((e.slot, e.src_base + off));
                        }
                    }
                }
                assert_eq!(from_runs, from_regions, "b={b} dir {i}");
            }
        }
    }

    /// The flattening pays off: every direction leads with one bulk copy of
    /// `B³ − |δ|` cells, and neighbor fix-ups merge contiguous spans.
    #[test]
    fn runs_coalesce_contiguous_spans() {
        let t = StreamOffsets::build(8, &[[0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]]);
        let lens = |i: usize| -> Vec<(u32, u32)> {
            t.dir(i).runs.iter().map(|e| (e.len, e.count)).collect()
        };
        assert_eq!(lens(0), vec![(512, 1)]); // rest: whole block
        assert_eq!(lens(1), vec![(448, 1), (64, 1)]); // +z: bulk + one plane
        assert_eq!(lens(2), vec![(511, 1), (1, 64)]); // +x: bulk + 1-cell column
        assert_eq!(lens(3), vec![(504, 1), (8, 8)]); // +y: bulk + row slab
        // The bulk run's shift matches δ = e_x + B·e_y + B²·e_z.
        assert_eq!((t.dir(2).runs[0].dst_base, t.dir(2).runs[0].src_base), (1, 0));
        assert_eq!((t.dir(3).runs[0].dst_base, t.dir(3).runs[0].src_base), (8, 0));
    }

    #[test]
    fn cache_shares_tables() {
        static DIRS: [[i32; 3]; 2] = [[0, 0, 0], [0, 0, 1]];
        let a = StreamOffsets::cached(8, &DIRS);
        let b = StreamOffsets::cached(8, &DIRS);
        assert!(Arc::ptr_eq(&a, &b));
        let c = StreamOffsets::cached(4, &DIRS);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// Executing the copy runs **in order** at component base `i·B³` —
    /// exactly what the streaming gather does on a `q·B³` block
    /// chunk — writes every element of component `i` and nothing else, each
    /// from the `(slot, i·B³ + src cell)` the per-cell pull computes, for
    /// all 27 directions and several block sizes.
    #[test]
    fn element_runs_match_per_cell_pull() {
        for b in [2u32, 4, 8] {
            let mut dirs = Vec::new();
            for z in -1..=1 {
                for y in -1..=1 {
                    for x in -1..=1 {
                        dirs.push([x, y, z]);
                    }
                }
            }
            let t = StreamOffsets::build(b, &dirs);
            let (bi, cpb, q) = (b as i32, (b * b * b) as usize, dirs.len());
            let wrap = |s: i32| {
                if s < 0 {
                    (-1, s + bi)
                } else if s >= bi {
                    (1, s - bi)
                } else {
                    (0, s)
                }
            };
            for (i, c) in dirs.iter().enumerate() {
                let comp = i * cpb;
                let mut expect = vec![None; q * cpb];
                for dst in 0..cpb {
                    let d = dst as i32;
                    let (ox, wx) = wrap(d % bi - c[0]);
                    let (oy, wy) = wrap(d / bi % bi - c[1]);
                    let (oz, wz) = wrap(d / (bi * bi) - c[2]);
                    let slot = ((ox + 1) + 3 * (oy + 1) + 9 * (oz + 1)) as u8;
                    let scell = (wx + bi * (wy + bi * wz)) as usize;
                    expect[comp + dst] = Some((slot, comp + scell));
                }
                let mut got = vec![None; q * cpb];
                for e in &t.dir(i).runs {
                    for k in 0..e.count {
                        for x in 0..e.len {
                            let off = (k * e.stride + x) as usize;
                            got[comp + e.dst_base as usize + off] =
                                Some((e.slot, comp + e.src_base as usize + off));
                        }
                    }
                }
                assert_eq!(got, expect, "b={b} dir {c:?}");
            }
        }
    }
}
