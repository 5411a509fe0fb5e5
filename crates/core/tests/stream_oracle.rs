//! Oracle test of the streaming gather: one `kernels::stream` launch must
//! equal, slot for slot, a per-cell pull written here from public data
//! only — `iter_active` coordinates, `SparseGrid::cell_ref` and the
//! level's link lists, decoded entry by entry. Real slots must match
//! bitwise; ghost and inactive slots must keep their prior bits. The
//! in-place Accumulate deposits must equal a serial per-cell sum into the
//! parent ghosts, computed from coordinates alone, with the ghosts numbered
//! here in `(block, cell)` order, `q` slots each. The fused kernel must
//! equal `stream` followed by `collide`, and the split S + E + O kernels
//! must equal the inline resolution. Every check runs at pool widths 1
//! and 4.

use std::collections::HashMap;

use lbm_core::kernels::{self, AccTables, StreamInputs, StreamOptions};
use lbm_core::links::LinkKind;
use lbm_core::{AllWalls, GridSpec, MultiGrid};
use lbm_gpu::{AtomicF64Field, DeviceModel, Executor};
use lbm_lattice::{Bgk, Collision, Kbc, VelocitySet, D3Q19, D3Q27};
use lbm_sparse::{Box3, Coord, Field, INVALID_BLOCK};
use proptest::prelude::*;

/// A randomized 2-level refinement case: a nested box geometry and a
/// block size.
#[derive(Clone, Debug)]
struct Case {
    lo: [i32; 3],
    hi: [i32; 3],
    block_size: usize,
    omega0: f64,
}

/// Geometry contract (coordinates are coarse-level cells; the coarse level
/// spans 5 blocks per axis, so the finest domain is `10·B` per axis): the
/// refined box is ≥ `3B/2` coarse cells per axis, so the fine region spans
/// ≥ 3 fine blocks and holds all-real blocks as well as frontier ones, and
/// it stays below coarse cell `3B − 1`, clear of the domain walls.
fn random_case() -> impl Strategy<Value = Case> {
    let corner = (2..5i32, 2..5i32, 2..5i32);
    let size = (0..4i32, 0..4i32, 0..4i32);
    (corner, size, any::<bool>(), 0.6f64..1.8).prop_map(
        |((x, y, z), (sx, sy, sz), big_blocks, omega0)| {
            let b: i32 = if big_blocks { 8 } else { 4 };
            let min_size = 3 * b / 2;
            let max_hi = 3 * b - 1;
            let clamp = |lo: i32, s: i32| (lo + min_size + s).min(max_hi);
            Case {
                lo: [x, y, z],
                hi: [clamp(x, sx), clamp(y, sy), clamp(z, sz)],
                block_size: b as usize,
                omega0,
            }
        },
    )
}

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
}

/// The case's 2-level grid, seeded by [`seeded`].
fn build<V: VelocitySet>(c: &Case) -> MultiGrid<f64, V> {
    let (lo, hi) = (c.lo, c.hi);
    let d = 10 * c.block_size;
    let spec = GridSpec::new(2, Box3::from_dims(d, d, d), move |l, p| {
        l == 0
            && (lo[0]..hi[0]).contains(&p.x)
            && (lo[1]..hi[1]).contains(&p.y)
            && (lo[2]..hi[2]).contains(&p.z)
    })
    .with_block_size(c.block_size);
    seeded(spec, c.omega0)
}

/// Builds a grid with a near-equilibrium flow in both halves, distinct
/// values in every ghost and inactive slot, and non-zero ghost
/// accumulators, so every slot's provenance shows in its bits.
fn seeded<V: VelocitySet>(spec: GridSpec, omega0: f64) -> MultiGrid<f64, V> {
    let mut grid = MultiGrid::<f64, V>::build(spec, &AllWalls, omega0);
    grid.init_equilibrium(
        |_, _| 1.0,
        |_, p| [0.02, -0.01 * (p.x as f64 * 0.3).sin(), 0.01],
    );
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    for lv in &mut grid.levels {
        for h in 0..2 {
            for v in lv.f.half_mut(h).as_mut_slice() {
                let j = rng.next();
                *v = if *v == 0.0 {
                    0.1 + j
                } else {
                    *v * (1.0 + 1e-3 * (j - 0.5))
                };
            }
        }
        for slot in 0..lv.acc.len() {
            lv.acc.store(slot, 0.5 + rng.next());
        }
    }
    grid
}

/// The kernels' read-only inputs for level `l`, gathering from half 0.
fn inputs<'a, V: VelocitySet>(grid: &'a MultiGrid<f64, V>, l: usize) -> StreamInputs<'a, f64> {
    let lv = &grid.levels[l];
    StreamInputs {
        grid: &lv.grid,
        flags: &lv.flags,
        all_real: &lv.all_real,
        links: &lv.links,
        src: lv.f.half(0),
        acc: &lv.acc,
        coarse_src: l.checked_sub(1).map(|c| grid.levels[c].f.half(0)),
        offsets: &lv.offsets,
    }
}

/// A fresh copy of level `l`'s ghost accumulators.
fn acc_copy<V: VelocitySet>(grid: &MultiGrid<f64, V>, l: usize) -> AtomicF64Field {
    let lv = &grid.levels[l];
    let mut image = vec![0.0; lv.acc.len()];
    lv.acc.copy_to_slice(&mut image);
    let mut copy = AtomicF64Field::zeroed(image.len());
    copy.copy_from_slice(&image);
    copy
}

/// The per-cell pull: for every real cell and direction, the linked value
/// if a link covers the pair, else `src[x − e_i][i]` found by coordinate.
/// Every other slot keeps its bits from `prior`.
fn oracle<V: VelocitySet>(grid: &MultiGrid<f64, V>, l: usize, prior: &Field<f64>) -> Field<f64> {
    let lv = &grid.levels[l];
    let src = lv.f.half(0);
    let mut links = HashMap::new();
    for b in 0..lv.grid.num_blocks() as u32 {
        for (cell, dir, kind) in lv.links.links_of(b) {
            let twice = links.insert((b, cell, dir as usize), kind);
            assert!(twice.is_none(), "level {l} block {b} cell {cell} dir {dir}: two links");
        }
    }
    let mut out = prior.clone();
    for (r, x) in lv.grid.iter_active() {
        if !lv.cell_flags(r).is_real() {
            continue;
        }
        for i in 0..V::Q {
            let v = match links.get(&(r.block, r.cell, i)).copied() {
                None => {
                    let c = V::C[i];
                    let s = x - Coord::new(c[0], c[1], c[2]);
                    let sr = lv.grid.cell_ref(s).unwrap_or_else(|| {
                        panic!("level {l} cell {x:?} dir {i}: no link and no source")
                    });
                    src.get(sr.block, i, sr.cell)
                }
                Some(LinkKind::BounceBack { opp }) => src.get(r.block, opp as usize, r.cell),
                Some(LinkKind::MovingWall { opp, term }) => {
                    src.get(r.block, opp as usize, r.cell) + term
                }
                Some(LinkKind::Outflow { weight }) => weight,
                Some(LinkKind::Periodic { src: s }) => src.get(s.block, i, s.cell),
                Some(LinkKind::Explosion { src: s }) => {
                    grid.levels[l - 1].f.half(0).get(s.block, i, s.cell)
                }
                Some(LinkKind::Coalesce { ghost, inv_count }) => {
                    lv.acc.load(ghost as usize * V::Q + i) * inv_count
                }
            };
            out.set(r.block, i, r.cell, v);
        }
    }
    out
}

/// The coarser level's accumulators after one substep of level `l`
/// (`l > 0`), summed serially cell by cell from coordinates alone: every
/// real fine cell whose parent is a ghost adds, in ascending direction
/// order, each population whose target is in the domain, not a real fine
/// cell, and under a real coarse cell. Cells go in ascending `(block,
/// cell)` order onto the seeded accumulator values; the parent ghost's
/// direction `i` is slot `g·q + i`, `g` its rank among the coarse ghosts in
/// `(block, cell)` order.
fn deposit_oracle<V: VelocitySet>(grid: &MultiGrid<f64, V>, l: usize) -> Vec<f64> {
    let (fine, coarse) = (&grid.levels[l], &grid.levels[l - 1]);
    let domain = grid.spec.domain_at(l as u32);
    let mut acc = vec![0.0; coarse.acc.len()];
    coarse.acc.copy_to_slice(&mut acc);
    let real_at = |lv: &lbm_core::Level<f64>, p: Coord| {
        lv.grid.cell_ref(p).is_some_and(|r| lv.cell_flags(r).is_real())
    };
    let number: HashMap<_, _> = coarse
        .iter_ghost()
        .enumerate()
        .map(|(g, (p, _))| (p, g))
        .collect();
    for (r, x) in fine.grid.iter_active() {
        let parent = coarse.grid.cell_ref(x.div_euclid(2));
        let Some(p) = parent.filter(|&p| coarse.cell_flags(p).is_ghost()) else {
            continue;
        };
        if !fine.cell_flags(r).is_real() {
            continue;
        }
        for i in 1..V::Q {
            let c = V::C[i];
            let t = x + Coord::new(c[0], c[1], c[2]);
            if domain.contains(t) && !real_at(fine, t) && real_at(coarse, t.div_euclid(2)) {
                acc[number[&p] * V::Q + i] += fine.f.half(0).get(r.block, i, r.cell);
            }
        }
    }
    acc
}

/// First accumulator slot whose bits differ from `want`.
fn first_acc_diff(got: &AtomicF64Field, want: &[f64]) -> Option<(usize, f64, f64)> {
    let mut image = vec![0.0; got.len()];
    got.copy_to_slice(&mut image);
    image
        .iter()
        .zip(want)
        .enumerate()
        .find(|(_, (x, y))| x.to_bits() != y.to_bits())
        .map(|(k, (x, y))| (k, *x, *y))
}

/// First slot where two fields differ in their bits.
fn first_diff(a: &Field<f64>, b: &Field<f64>) -> Option<(usize, f64, f64)> {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .enumerate()
        .find(|(_, (x, y))| x.to_bits() != y.to_bits())
        .map(|(k, (x, y))| (k, *x, *y))
}

/// Asserts the case reaches every step of the gather on some level:
/// skipped runs, link patches of both interface families, Accumulate
/// deposits, and both all-real blocks and blocks with slots to keep.
fn assert_covers_every_step<V: VelocitySet>(grid: &MultiGrid<f64, V>) -> Result<(), String> {
    let (mut skipped, mut explosion, mut coalesce) = (false, false, false);
    let (mut deposits, mut whole, mut partial) = (false, false, false);
    for lv in &grid.levels {
        for (b, blk) in lv.grid.blocks().iter().enumerate() {
            skipped |= (0..V::Q).any(|i| {
                lv.offsets
                    .dir(i)
                    .runs
                    .iter()
                    .any(|e| blk.neighbors[e.slot as usize] == INVALID_BLOCK)
            });
            let b = b as u32;
            explosion |= !lv.links.explosion.of(b).is_empty();
            coalesce |= !lv.links.coalesce.of(b).is_empty();
            deposits |= !lv.deposits.of(b).is_empty();
            let b = b as usize;
            whole |= lv.all_real[b];
            partial |= !lv.all_real[b];
        }
    }
    let seen = [skipped, explosion, coalesce, deposits, whole, partial];
    if seen.contains(&false) {
        return Err(format!(
            "case misses a gather step \
             (skipped runs, explosion, coalesce, deposits, all-real, partial): {seen:?}"
        ));
    }
    Ok(())
}

/// Runs every check on every level of the case at pool widths 1 and 4.
fn check<V: VelocitySet, C: Collision<f64, V>>(c: &Case, op: fn(f64) -> C) -> Result<(), String> {
    let grid = build::<V>(c);
    assert_covers_every_step(&grid)?;
    let all = StreamOptions {
        explosion: true,
        coalesce: true,
    };
    let none = StreamOptions {
        explosion: false,
        coalesce: false,
    };
    for threads in [1usize, 4] {
        let exec = Executor::with_threads(DeviceModel::a100_40gb(), threads);
        for (l, lv) in grid.levels.iter().enumerate() {
            let real = lv.real_cells as u64;
            let prior = lv.f.half(1);
            let inp = inputs(&grid, l);
            let at = |what: &str| format!("{what} (level {l}, {threads} threads, {c:?})");

            // One `stream` launch against the per-cell pull, depositing
            // into a copy of the coarser level's accumulators.
            let coarse_acc = l.checked_sub(1).map(|c| acc_copy(&grid, c));
            let acc = coarse_acc.as_ref().map(|acc| AccTables {
                acc,
                deposits: &lv.deposits,
            });
            let mut streamed = prior.clone();
            kernels::stream::<f64, V>(&exec, "S", inp, &mut streamed, all, acc, real);
            if let Some((k, x, y)) = first_diff(&streamed, &oracle(&grid, l, prior)) {
                return Err(at(&format!(
                    "stream differs from the pull at slot {k}: {x:e} vs {y:e}"
                )));
            }
            // The deposits against the serial per-cell sum.
            let want = (l > 0).then(|| deposit_oracle(&grid, l));
            if let (Some(got), Some(want)) = (&coarse_acc, &want) {
                if let Some((k, x, y)) = first_acc_diff(got, want) {
                    return Err(at(&format!(
                        "deposits differ from the serial sum at slot {k}: {x:e} vs {y:e}"
                    )));
                }
            }

            // S with the interface links left out, then E and O.
            let mut split = prior.clone();
            kernels::stream::<f64, V>(&exec, "S", inp, &mut split, none, None, real);
            if l > 0 {
                kernels::explosion::<f64, V>(&exec, "E", inp, &mut split, 0);
            }
            kernels::coalesce::<f64, V>(&exec, "O", inp, &mut split, 0);
            if let Some((k, x, y)) = first_diff(&split, &streamed) {
                return Err(at(&format!(
                    "S+E+O differs from SEO at slot {k}: {x:e} vs {y:e}"
                )));
            }

            // The fused kernel against stream followed by collide, and its
            // deposits against the serial sum.
            let coll = op(lv.omega);
            let mut fused = prior.clone();
            let coarse_acc = l.checked_sub(1).map(|c| acc_copy(&grid, c));
            let acc = coarse_acc.as_ref().map(|acc| AccTables {
                acc,
                deposits: &lv.deposits,
            });
            kernels::fused_stream_collide(&exec, "CASE", inp, &coll, &mut fused, acc, real);
            if let (Some(got), Some(want)) = (&coarse_acc, &want) {
                if let Some((k, x, y)) = first_acc_diff(got, want) {
                    return Err(at(&format!(
                        "fused deposits differ from the serial sum at slot {k}: {x:e} vs {y:e}"
                    )));
                }
            }
            kernels::collide(&exec, "C", &lv.grid, &lv.flags, &coll, &mut streamed, real);
            if let Some((k, x, y)) = first_diff(&fused, &streamed) {
                return Err(at(&format!(
                    "fused differs from S+C at slot {k}: {x:e} vs {y:e}"
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized geometries and block sizes, D3Q19 BGK.
    #[test]
    fn stream_matches_the_per_cell_pull_d3q19(c in random_case()) {
        if let Err(e) = check::<D3Q19, _>(&c, Bgk::new) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Randomized geometries and block sizes, D3Q27 KBC.
    #[test]
    fn stream_matches_the_per_cell_pull_d3q27_kbc(c in random_case()) {
        if let Err(e) = check::<D3Q27, _>(&c, Kbc::new) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Fixed refined cases at both block sizes, for both lattices.
#[test]
fn stream_matches_the_per_cell_pull_on_fixed_cases() {
    for block_size in [4usize, 8] {
        let c = Case {
            lo: [2, 2, 3],
            hi: [9, 10, 9],
            block_size,
            omega0: 1.4,
        };
        check::<D3Q19, _>(&c, Bgk::new).unwrap();
        check::<D3Q27, _>(&c, Kbc::new).unwrap();
    }
}

/// A uniform grid has no interface: its one level streams with wall links
/// only, and its blocks on the domain faces skip the runs that would read
/// outside it.
#[test]
fn uniform_grid_matches_the_per_cell_pull() {
    let spec = GridSpec::uniform(Box3::from_dims(32, 32, 32)).with_block_size(8);
    let grid = seeded::<D3Q19>(spec, 1.5);
    let lv = &grid.levels[0];
    let prior = lv.f.half(1);
    for threads in [1usize, 4] {
        let exec = Executor::with_threads(DeviceModel::a100_40gb(), threads);
        let mut out = prior.clone();
        let all = StreamOptions {
            explosion: true,
            coalesce: true,
        };
        let real = lv.real_cells as u64;
        kernels::stream::<f64, D3Q19>(&exec, "S", inputs(&grid, 0), &mut out, all, None, real);
        assert_eq!(
            first_diff(&out, &oracle(&grid, 0, prior)),
            None,
            "{threads} threads"
        );
    }
}
