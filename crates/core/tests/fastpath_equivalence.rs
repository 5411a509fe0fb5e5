//! Fast-path ≡ general-path equivalence: the direction-major offset-table
//! gather and the fully general link-resolving loop must produce
//! **bit-identical** population fields.
//!
//! The two paths read exactly the same source addresses (the offset
//! tables are the closed form of the per-cell branch chains), so equality
//! here is exact `to_bits` equality, not tolerance-based. Engines run on
//! the sequential executor so the atomic Accumulate order — the one source
//! of legitimate f64 nondeterminism — is fixed across runs.

use lbm_core::{AllWalls, Engine, GridSpec, InteriorPath, MultiGrid, Variant};
use lbm_gpu::{DeviceModel, Executor};
use lbm_lattice::{Bgk, Collision, Kbc, VelocitySet, D3Q19, D3Q27};
use lbm_sparse::Box3;
use proptest::prelude::*;

/// A randomized 2-level refinement case: nested box geometry, block size,
/// fusion variant, and initial-condition parameters.
#[derive(Clone, Debug)]
struct Case {
    lo: [i32; 3],
    hi: [i32; 3],
    block_size: usize,
    fused: bool,
    omega0: f64,
    u: [f64; 3],
    steps: usize,
}

/// Geometry contract (coordinates are coarse-level cells; the coarse level
/// spans 5 blocks per axis, so the finest domain is `10·B` per axis):
/// - the refined box is ≥ `3B/2` coarse cells per axis, so the fine region
///   (twice as large) spans ≥ 3 fine blocks and owns fully-interior ones;
/// - the box plus its one-cell coalescence halo stays below coarse cell
///   `3B − 1`, so coarse block index 3 (and its off-axis peers) remains
///   `FULLY_INTERIOR` — the gate below asserts both levels exercise the
///   fast path.
fn random_case() -> impl Strategy<Value = Case> {
    let corner = (2..5i32, 2..5i32, 2..5i32);
    let size = (0..4i32, 0..4i32, 0..4i32);
    (
        corner,
        size,
        any::<bool>(),
        any::<bool>(),
        0.6f64..1.8,
        (-0.03f64..0.03, -0.03f64..0.03),
        1..3usize,
    )
        .prop_map(|((x, y, z), (sx, sy, sz), big_blocks, fused, omega0, (ux, uy), steps)| {
            let b = if big_blocks { 8 } else { 4 } as i32;
            let min_size = 3 * b / 2;
            let max_hi = 3 * b - 1;
            let clamp = |lo: i32, s: i32| (lo + min_size + s).min(max_hi);
            Case {
                lo: [x, y, z],
                hi: [clamp(x, sx), clamp(y, sy), clamp(z, sz)],
                block_size: b as usize,
                fused,
                omega0,
                u: [ux, uy, 0.01],
                steps,
            }
        })
}

/// Builds one engine for the case with the given interior path and the
/// collision operator `op(ω₀)`, seeded with a deterministic
/// off-equilibrium state.
fn build<V: VelocitySet, C: Collision<f64, V>>(
    c: &Case,
    path: InteriorPath,
    op: fn(f64) -> C,
) -> Engine<f64, V, C> {
    let (lo, hi) = (c.lo, c.hi);
    // `finest_domain` is in finest-level coordinates: 10·B per axis makes
    // the coarse level exactly 5 blocks per axis.
    let d = 10 * c.block_size;
    let spec = GridSpec::new(2, Box3::from_dims(d, d, d), move |l, p| {
        l == 0
            && (lo[0]..hi[0]).contains(&p.x)
            && (lo[1]..hi[1]).contains(&p.y)
            && (lo[2]..hi[2]).contains(&p.z)
    })
    .with_block_size(c.block_size);
    let grid = MultiGrid::<f64, V>::build(spec, &AllWalls, c.omega0);
    let variant = if c.fused {
        Variant::FullyFused
    } else {
        Variant::ModifiedBaseline
    };
    let mut eng = Engine::builder(grid)
        .collision(op(c.omega0))
        .variant(variant)
        .interior_path(path)
        .build(Executor::with_threads(DeviceModel::a100_40gb(), 1));
    let u = c.u;
    eng.grid.init_equilibrium(|_, _| 1.0, move |_, _| u);
    // Kick every slot off equilibrium with a deterministic multiplicative
    // perturbation, so streaming moves asymmetric data in every direction.
    for level in &mut eng.grid.levels {
        let blocks = level.grid.num_blocks() as u32;
        let f = level.f.src_mut();
        let cpb = f.cells_per_block() as u32;
        let mut state = 0x9E3779B97F4A7C15u64;
        for blk in 0..blocks {
            for i in 0..V::Q {
                for cell in 0..cpb {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let jitter = (state >> 40) as f64 / (1u64 << 24) as f64; // [0, 1)
                    let v = f.get(blk, i, cell);
                    f.set(blk, i, cell, v * (1.0 + 1e-3 * (jitter - 0.5)));
                }
            }
        }
    }
    eng
}

/// Runs the case under every interior path and asserts the resulting
/// population buffers are bit-identical on every level, every slot
/// (ghost and inactive ones included), and that both paths declare the
/// same metered traffic: the path choice is a host implementation detail
/// the device model must not see. Collides with `op(ω₀)`.
fn assert_paths_bit_identical<V: VelocitySet, C: Collision<f64, V>>(
    c: &Case,
    op: fn(f64) -> C,
) -> Result<(), String> {
    let paths = [InteriorPath::DirMajor, InteriorPath::General];
    let mut engines: Vec<_> = paths.iter().map(|&p| build::<V, C>(c, p, op)).collect();
    // Every level must actually exercise the fast path, or the test would
    // pass vacuously through the general path alone.
    for (l, lv) in engines[0].grid.levels.iter().enumerate() {
        let interior = lv
            .block_flags
            .iter()
            .filter(|bf| bf.has(lbm_core::flags::BlockFlags::FULLY_INTERIOR))
            .count();
        if interior == 0 {
            return Err(format!(
                "level {l} ({} blocks) has no interior blocks: {c:?}",
                lv.grid.num_blocks()
            ));
        }
    }
    for eng in &mut engines {
        eng.run(c.steps);
    }
    let traffic = |e: &Engine<f64, V, C>| {
        let t = e.exec.profiler().total();
        (t.launches, t.bytes_read, t.bytes_written, t.atomic_bytes)
    };
    let (a, rest) = engines.split_first().unwrap();
    for (k, b) in rest.iter().enumerate() {
        let (ta, tb) = (traffic(a), traffic(b));
        if ta != tb {
            return Err(format!(
                "paths {:?} and {:?} declare different traffic \
                 (launches, read, written, atomic): {ta:?} vs {tb:?}",
                paths[0],
                paths[k + 1],
            ));
        }
        for (l, (la, lb)) in a.grid.levels.iter().zip(&b.grid.levels).enumerate() {
            let sa = la.f.src().as_slice();
            let sb = lb.f.src().as_slice();
            for (i, (x, y)) in sa.iter().zip(sb).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "paths {:?} and {:?} diverge at level {l} slot {i}: {x:e} vs {y:e}",
                        paths[0],
                        paths[k + 1]
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized geometries, block sizes, variants: both interior
    /// paths agree bitwise through multi-step refined runs (D3Q19).
    #[test]
    fn interior_paths_bit_identical_d3q19(c in random_case()) {
        if let Err(e) = assert_paths_bit_identical::<D3Q19, _>(&c, Bgk::new) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Both interior paths compute the same bits on a fixed refined D3Q19
/// case at both block sizes.
#[test]
fn interior_paths_bit_identical_d3q19_both_block_sizes() {
    for block_size in [4usize, 8] {
        let c = Case {
            lo: [2, 2, 3],
            hi: [9, 10, 9],
            block_size,
            fused: true,
            omega0: 1.4,
            u: [0.02, -0.015, 0.01],
            steps: 2,
        };
        assert_paths_bit_identical::<D3Q19, _>(&c, Bgk::new).unwrap();
    }
}

/// The 27-direction stencil uses all 8 regions per corner direction; pin
/// deterministic refined D3Q27 cases, fused and unfused.
#[test]
fn interior_paths_bit_identical_d3q27() {
    let cases = [
        Case {
            lo: [2, 3, 2],
            hi: [10, 11, 9],
            block_size: 4,
            fused: true,
            omega0: 1.3,
            u: [0.02, -0.01, 0.01],
            steps: 2,
        },
        Case {
            lo: [3, 2, 2],
            hi: [10, 9, 10],
            block_size: 4,
            fused: false,
            omega0: 1.2,
            u: [-0.01, 0.02, 0.015],
            steps: 2,
        },
    ];
    for c in &cases {
        assert_paths_bit_identical::<D3Q27, _>(c, Bgk::new).unwrap();
    }
}

/// KBC on D3Q27: both interior paths collide 8-cell lane groups, and on
/// frontier blocks the lane store is masked to real cells; the fast and
/// general paths must still agree in every slot, fused and unfused.
#[test]
fn interior_paths_bit_identical_d3q27_kbc() {
    for (fused, block_size) in [(true, 4usize), (false, 4), (true, 8)] {
        let c = Case {
            lo: [2, 3, 2],
            hi: [10, 11, 9],
            block_size,
            fused,
            omega0: 1.6,
            u: [0.03, -0.01, 0.02],
            steps: 2,
        };
        assert_paths_bit_identical::<D3Q27, _>(&c, Kbc::new).unwrap();
    }
}

/// Uniform (single-level) grids: pure streaming with no interface kernels,
/// on both fused and split variants.
#[test]
fn interior_paths_bit_identical_uniform() {
    for fused in [false, true] {
        let variant = if fused {
            Variant::FullyFused
        } else {
            Variant::ModifiedBaseline
        };
        let mut engines: Vec<_> = [InteriorPath::DirMajor, InteriorPath::General]
        .iter()
        .map(|&p| {
            let spec = GridSpec::uniform(Box3::from_dims(32, 32, 32)).with_block_size(8);
            let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.5);
            let mut eng = Engine::builder(grid)
                .collision(Bgk::new(1.5))
                .variant(variant)
                .interior_path(p)
                .build(Executor::with_threads(DeviceModel::a100_40gb(), 1));
            eng.grid
                .init_equilibrium(|_, _| 1.0, |_, p| [0.02 * (p.x as f64 * 0.3).sin(), 0.01, 0.0]);
            eng.run(3);
            eng
        })
        .collect();
        let a = engines.remove(0);
        for b in &engines {
            let sa = a.grid.levels[0].f.src().as_slice();
            let sb = b.grid.levels[0].f.src().as_slice();
            assert!(
                sa.iter().zip(sb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "uniform paths diverge (fused={fused})"
            );
        }
    }
}
