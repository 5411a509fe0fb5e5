//! Oracle test of the grid build: every table `MultiGrid::build` makes —
//! the active cells and their flags, `all_real`, the exception links with
//! their Coalescence scales compared bitwise, the Accumulate deposits and
//! the 4b gather entries — must equal what an independent classifier
//! (`oracle/mod.rs`) derives from coordinates alone. Randomized 2-level
//! geometries at both block sizes and both lattices, plus fixed cases: a
//! 3-level nest, refined slabs against a periodic face, and refinement
//! wrapped across a domain edge.

mod oracle;

use lbm_core::{AllWalls, GridSpec, MultiGrid};
use lbm_lattice::{VelocitySet, D3Q19, D3Q27};
use lbm_sparse::Box3;
use proptest::prelude::*;

/// A randomized 2-level refinement case (`stream_oracle.rs`'s geometry
/// contract): a refined box of ≥ `3B/2` coarse cells per axis, clear of
/// the walls, in a domain of `10·B` finest cells per axis.
#[derive(Clone, Debug)]
struct Case {
    lo: [i32; 3],
    hi: [i32; 3],
    block_size: usize,
}

fn random_case() -> impl Strategy<Value = Case> {
    let corner = (2..5i32, 2..5i32, 2..5i32);
    let size = (0..4i32, 0..4i32, 0..4i32);
    (corner, size, any::<bool>()).prop_map(|((x, y, z), (sx, sy, sz), big_blocks)| {
        let b: i32 = if big_blocks { 8 } else { 4 };
        let clamp = |lo: i32, s: i32| (lo + 3 * b / 2 + s).min(3 * b - 1);
        Case {
            lo: [x, y, z],
            hi: [clamp(x, sx), clamp(y, sy), clamp(z, sz)],
            block_size: b as usize,
        }
    })
}

fn spec_of(c: &Case) -> GridSpec {
    let (lo, hi) = (c.lo, c.hi);
    let d = 10 * c.block_size;
    GridSpec::new(2, Box3::from_dims(d, d, d), move |l, p| {
        l == 0
            && (lo[0]..hi[0]).contains(&p.x)
            && (lo[1]..hi[1]).contains(&p.y)
            && (lo[2]..hi[2]).contains(&p.z)
    })
    .with_block_size(c.block_size)
}

/// Builds `spec` with walls everywhere and checks it against the oracle.
fn check<V: VelocitySet>(spec: GridSpec) -> Result<(), String> {
    let grid = MultiGrid::<f64, V>::build(spec, &AllWalls, 1.2);
    oracle::check(&grid, &AllWalls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn build_matches_the_oracle_d3q19(c in random_case()) {
        if let Err(e) = check::<D3Q19>(spec_of(&c)) {
            prop_assert!(false, "{:?}: {}", c, e);
        }
    }

    #[test]
    fn build_matches_the_oracle_d3q27(c in random_case()) {
        if let Err(e) = check::<D3Q27>(spec_of(&c)) {
            prop_assert!(false, "{:?}: {}", c, e);
        }
    }
}

/// `stream_oracle.rs`'s fixed case at both block sizes, for both lattices.
#[test]
fn build_matches_the_oracle_on_the_fixed_case() {
    for block_size in [4usize, 8] {
        let c = Case {
            lo: [2, 2, 3],
            hi: [9, 10, 9],
            block_size,
        };
        check::<D3Q19>(spec_of(&c)).unwrap();
        check::<D3Q27>(spec_of(&c)).unwrap();
    }
}

/// Three levels, the inner nest off-centre so it comes within one coarse
/// cell of the outer one's face, and a solid block inside the finest level.
#[test]
fn build_matches_the_oracle_on_three_levels() {
    let spec = GridSpec::new(3, Box3::from_dims(64, 64, 64), |l, p| match l {
        0 => (3..13).contains(&p.x) && (4..12).contains(&p.y) && (4..12).contains(&p.z),
        1 => (8..22).contains(&p.x) && (10..22).contains(&p.y) && (10..22).contains(&p.z),
        _ => false,
    })
    .with_solid(|l, p| {
        l == 2 && (26..30).contains(&p.x) && (28..34).contains(&p.y) && (26..32).contains(&p.z)
    });
    check::<D3Q19>(spec).unwrap();
}

/// Refined slabs against a periodic face and in the interior: the ghost
/// layer reaches across the wrap, and so do the links and deposits.
#[test]
fn build_matches_the_oracle_on_periodic_face_slabs() {
    for lo in [0, 6, 12] {
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), move |l, p| {
            l == 0 && (lo..lo + 4).contains(&p.x)
        })
        .with_periodic([true; 3]);
        check::<D3Q19>(spec).unwrap_or_else(|e| panic!("slab at coarse x = {lo}: {e}"));
    }
}

/// Refinement that wraps across the x and y faces: a refined column
/// straddling the domain's edge, whose cells at coarse x = 15 must see the
/// refined x = 0 across the face and not the owned x = 1, and an owned
/// column on the edge inside refined cells, which those at coarse
/// (15, 15) touch only diagonally, across both faces.
#[test]
fn build_matches_the_oracle_on_refinement_wrapped_across_an_edge() {
    fn check_wrapped(name: &str, refined: impl Fn(i32, i32) -> bool + Send + Sync + 'static) {
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), move |l, p| {
            l == 0 && refined(p.x, p.y)
        })
        .with_periodic([true; 3]);
        check::<D3Q19>(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    check_wrapped("refined column", |x, y| (x + 2) % 16 < 3 && (y + 1) % 16 < 3);
    check_wrapped("owned column", |x, y| (x, y) != (0, 0));
}
