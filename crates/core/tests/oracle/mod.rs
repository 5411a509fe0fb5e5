//! An independent classifier of `MultiGrid::build`, written from
//! coordinates only: `GridSpec::owned`, `GridSpec::wrap`, the boundary spec
//! and `SparseGrid::cell_ref`. It derives every level's active set, flags,
//! exception links (Coalescence counts included, counted here from the
//! crossing children), Accumulate deposits and 4b gather entries cell by
//! cell, and [`check`] compares them with the built grid. Shared by
//! `build_oracle.rs` (random and synthetic geometries) and the workspace's
//! `tests/build_oracle.rs` (the problem geometries).

use std::collections::HashMap;

use lbm_core::boundary::{Boundary, BoundarySpec};
use lbm_core::flags::CellFlags;
use lbm_core::links::{encode_ref, Deposit, LinkKind};
use lbm_core::{GridSpec, MultiGrid};
use lbm_lattice::VelocitySet;
use lbm_sparse::Coord;

/// The 26 neighbour offsets.
fn around() -> impl Iterator<Item = Coord> {
    (0..27)
        .map(|k| Coord::new(k % 3 - 1, k / 3 % 3 - 1, k / 9 - 1))
        .filter(|&d| d != Coord::ZERO)
}

/// The 2³ children of the level-`l` cell `p`, in octant order
/// `x + 2y + 4z`.
fn children(p: Coord) -> [Coord; 8] {
    std::array::from_fn(|k| {
        let k = k as i32;
        p.scale(2) + Coord::new(k & 1, k >> 1 & 1, k >> 2)
    })
}

/// Whether the level-`l` cell `p` is a coarse ghost: covered by finer
/// levels, with an owned neighbour across any face, periodic ones too.
fn is_ghost(spec: &GridSpec, l: u32, p: Coord) -> bool {
    spec.covered_by_finer(l, p) && around().any(|d| spec.owned(l, spec.wrap(l, p + d)))
}

/// Whether the population `e_i` of the real level-`l` cell `x` (`l ≥ 1`)
/// leaves its level for the next-coarser one: its wrapped target is in the
/// domain, not owned at level `l`, and under an owned coarse cell.
fn crosses<V: VelocitySet>(spec: &GridSpec, l: u32, x: Coord, i: usize) -> bool {
    let t = spec.wrap(l, x + Coord::from_array(V::C[i]));
    spec.domain_at(l).contains(t) && !spec.owned(l, t) && spec.owned(l - 1, t.div_euclid(2))
}

/// The crossing mask of the level-`l` cell `x`.
fn mask<V: VelocitySet>(spec: &GridSpec, l: u32, x: Coord) -> u32 {
    (1..V::Q)
        .filter(|&i| crosses::<V>(spec, l, x, i))
        .fold(0, |m, i| m | 1 << i)
}

/// Equality with every float compared by its bits.
fn same(a: &LinkKind<f64>, b: &LinkKind<f64>) -> bool {
    use LinkKind::*;
    match (a, b) {
        (MovingWall { opp: o, term: t }, MovingWall { opp: p, term: u }) => {
            o == p && t.to_bits() == u.to_bits()
        }
        (Outflow { weight: w }, Outflow { weight: v }) => w.to_bits() == v.to_bits(),
        (
            Coalesce {
                ghost: g,
                inv_count: s,
            },
            Coalesce {
                ghost: h,
                inv_count: t,
            },
        ) => g == h && s.to_bits() == t.to_bits(),
        _ => a == b,
    }
}

/// Compares every table `MultiGrid::build` produced for `grid` (built with
/// `bc`) against the classifier; the error names the first difference.
pub fn check<V: VelocitySet>(
    grid: &MultiGrid<f64, V>,
    bc: &dyn BoundarySpec,
) -> Result<(), String> {
    let spec = &grid.spec;
    let nl = grid.num_levels();
    // Per level: the ghost numbers, by rank in `(block, cell)` order.
    let mut numbers: Vec<HashMap<Coord, usize>> = Vec::new();
    for (l, lv) in grid.levels.iter().enumerate() {
        let l = l as u32;
        let ghosts = lv.grid.iter_active().filter(|&(_, p)| is_ghost(spec, l, p));
        numbers.push(ghosts.enumerate().map(|(g, (_, p))| (p, g)).collect());
        // The active set: the owned cells and the ghosts.
        let mut active = 0;
        for p in spec.domain_at(l).iter() {
            if spec.owned(l, p) || is_ghost(spec, l, p) {
                active += 1;
                if lv.grid.cell_ref(p).is_none() {
                    return Err(format!("level {l} {p:?}: owned or ghost but inactive"));
                }
            }
        }
        if active != lv.grid.active_cells() {
            let n = lv.grid.active_cells();
            return Err(format!("level {l}: {n} active cells, expected {active}"));
        }
    }

    for (l, lv) in grid.levels.iter().enumerate() {
        let l32 = l as u32;
        let cpb = lv.grid.cells_per_block();
        let (mut real, mut ghosts) = (0, 0);
        for (b, blk) in lv.grid.blocks().iter().enumerate() {
            let b = b as u32;
            let at = |cell: u32| format!("level {l} block {b} cell {cell}");
            let mut links = HashMap::new();
            for (cell, dir, kind) in lv.links.links_of(b) {
                if links.insert((cell, dir as usize), kind).is_some() {
                    return Err(format!("{}: two links along {dir}", at(cell)));
                }
            }
            let mut deposits = Vec::new();
            let mut gather = Vec::new();
            let mut all_real = true;
            for cell in 0..cpb as u32 {
                let p = blk.origin + lv.grid.delinear(cell);
                let owned = blk.active.get(cell as usize) && spec.owned(l32, p);
                all_real &= owned;
                let mut want = 0u8;
                if !blk.active.get(cell as usize) {
                    // Inactive slots carry no flag.
                } else if !owned {
                    ghosts += 1;
                    want = CellFlags::GHOST;
                    if l + 1 < nl {
                        let fine = &grid.levels[l + 1].grid;
                        let kids = children(p);
                        let Some(refs) = kids
                            .map(|c| fine.cell_ref(c))
                            .into_iter()
                            .collect::<Option<Vec<_>>>()
                        else {
                            return Err(format!("{}: ghost with an inactive child", at(cell)));
                        };
                        gather.push((
                            numbers[l][&p] * V::Q,
                            std::array::from_fn::<_, 8, _>(|k| encode_ref(refs[k])),
                            kids.map(|c| mask::<V>(spec, l32 + 1, c)),
                        ));
                    }
                } else {
                    real += 1;
                    want = CellFlags::REAL;
                    for i in 1..V::Q {
                        let got = links.remove(&(cell, i));
                        let expect = link::<V>(grid, bc, &numbers[l], l32, p, i);
                        let agree = match (&got, &expect) {
                            (Some(g), Some(e)) => same(g, e),
                            (None, None) => true,
                            _ => false,
                        };
                        if !agree {
                            return Err(format!(
                                "{} dir {i}: link {got:?}, expected {expect:?}",
                                at(cell)
                            ));
                        }
                        if expect.is_some() {
                            want |= CellFlags::EXCEPTIONAL;
                        }
                    }
                    let parent = p.div_euclid(2);
                    if l > 0 && is_ghost(spec, l32 - 1, parent) {
                        let m = mask::<V>(spec, l32, p);
                        if m != 0 {
                            want |= CellFlags::ACCUMULATES;
                        }
                        for i in (1..V::Q).filter(|&i| m >> i & 1 == 1) {
                            deposits.push(Deposit {
                                src: (i * cpb) as u32 + cell,
                                dst: numbers[l - 1][&parent] * V::Q + i,
                            });
                        }
                    }
                }
                let flags = lv.flags.get(b, 0, cell);
                if flags != want {
                    return Err(format!(
                        "{}: flags {flags:#06b}, expected {want:#06b}",
                        at(cell)
                    ));
                }
            }
            if let Some(((cell, dir), kind)) = links.into_iter().next() {
                return Err(format!(
                    "{} dir {dir}: link {kind:?} on a cell that is not real",
                    at(cell)
                ));
            }
            if lv.deposits.of(b) != deposits.as_slice() {
                return Err(format!("level {l} block {b}: deposits differ"));
            }
            let entries = lv.gather.of(b);
            let got: Vec<_> = entries
                .iter()
                .map(|e| (e.slot, e.children, e.masks))
                .collect();
            if got != gather {
                return Err(format!(
                    "level {l} block {b}: gather entries {got:?}, expected {gather:?}"
                ));
            }
            if lv.all_real[b as usize] != all_real {
                return Err(format!("level {l} block {b}: all_real is not {all_real}"));
            }
        }
        if (lv.real_cells, lv.ghost_cells) != (real, ghosts) {
            return Err(format!("level {l}: real and ghost counts differ"));
        }
        if lv.acc.len() != ghosts * V::Q {
            return Err(format!("level {l}: {} accumulator slots", lv.acc.len()));
        }
    }
    Ok(())
}

/// The link of the real level-`l` cell `x` along `i`, or `None` when the
/// streaming replay reads an owned same-level source in place.
fn link<V: VelocitySet>(
    grid: &MultiGrid<f64, V>,
    bc: &dyn BoundarySpec,
    numbers: &HashMap<Coord, usize>,
    l: u32,
    x: Coord,
    i: usize,
) -> Option<LinkKind<f64>> {
    let spec = &grid.spec;
    let s = x - Coord::from_array(V::C[i]);
    let w = spec.wrap(l, s);
    if spec.domain_at(l).contains(w) {
        let lv = &grid.levels[l as usize];
        if spec.owned(l, w) {
            return (w != s).then(|| LinkKind::Periodic {
                src: lv.grid.cell_ref(w).unwrap(),
            });
        }
        if is_ghost(spec, l, w) {
            let count = children(w)
                .iter()
                .filter(|&&c| crosses::<V>(spec, l + 1, c, i))
                .count();
            return Some(LinkKind::Coalesce {
                ghost: numbers[&w] as u32,
                inv_count: 1.0 / (2.0 * count as f64),
            });
        }
        let parent = w.div_euclid(2);
        if l > 0 && spec.owned(l - 1, parent) {
            let src = grid.levels[l as usize - 1].grid.cell_ref(parent).unwrap();
            return Some(LinkKind::Explosion { src });
        }
    }
    let opp = V::OPP[i] as u8;
    Some(match bc.classify(l, w, i) {
        Boundary::BounceBack => LinkKind::BounceBack { opp },
        Boundary::MovingWall { velocity } => {
            let cu: f64 = (0..3).map(|a| V::C[i][a] as f64 * velocity[a]).sum();
            LinkKind::MovingWall {
                opp,
                term: 2.0 * V::W[i] * cu / V::CS2,
            }
        }
        Boundary::Outflow => LinkKind::Outflow { weight: V::W[i] },
        Boundary::Periodic => panic!("level {l} {w:?} dir {i}: periodic boundary"),
    })
}
