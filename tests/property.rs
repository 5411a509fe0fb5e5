//! Property-based tests over randomized refinement geometries: any valid
//! nested-box spec must build, conserve mass in a closed box, and keep all
//! variants equivalent.

mod common;

use lbm_refinement::core::{AllWalls, Engine, GridSpec, MultiGrid, Variant};
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Bgk, D3Q19};
use lbm_refinement::sparse::{Box3, Coord};
use proptest::prelude::*;

/// A random but structurally valid 2-level refinement: a box of coarse
/// cells with at least 2 cells margin from the domain and ≥ 2³ size.
#[derive(Clone, Debug)]
struct RandomSpec {
    lo: [i32; 3],
    hi: [i32; 3],
    omega0: f64,
    u: [f64; 3],
}

fn random_spec() -> impl Strategy<Value = RandomSpec> {
    // Coarse domain is 12³ (finest 24³).
    let corner = (2..5i32, 2..5i32, 2..5i32);
    let size = (2..5i32, 2..5i32, 2..5i32);
    (corner, size, 0.6f64..1.8, -0.03f64..0.03, -0.03f64..0.03)
        .prop_map(|((x, y, z), (sx, sy, sz), omega0, ux, uy)| RandomSpec {
            lo: [x, y, z],
            hi: [(x + sx).min(10), (y + sy).min(10), (z + sz).min(10)],
            omega0,
            u: [ux, uy, 0.01],
        })
}

fn build_engine(r: &RandomSpec, variant: Variant) -> Engine<f64, D3Q19, Bgk<f64>> {
    build_engine_threads(r, variant, None, None)
}

/// [`build_engine`] with explicit pool-width / Accumulate-path knobs
/// (`None` keeps the engine defaults for a fresh executor).
fn build_engine_threads(
    r: &RandomSpec,
    variant: Variant,
    threads: Option<usize>,
    staged: Option<bool>,
) -> Engine<f64, D3Q19, Bgk<f64>> {
    let (lo, hi) = (r.lo, r.hi);
    let spec = GridSpec::new(2, Box3::from_dims(24, 24, 24), move |l, p| {
        l == 0
            && (lo[0]..hi[0]).contains(&p.x)
            && (lo[1]..hi[1]).contains(&p.y)
            && (lo[2]..hi[2]).contains(&p.z)
    });
    let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, r.omega0);
    let mut b = Engine::builder(grid)
        .collision(Bgk::new(r.omega0))
        .variant(variant);
    if let Some(s) = staged {
        b = b.staged_accumulate(s);
    }
    let mut eng = b.build(Executor::with_threads(
        DeviceModel::a100_40gb(),
        threads.unwrap_or(1),
    ));
    let u = r.u;
    // Spatially varying on top of the random bulk velocity, so the
    // interface-crossing populations the Accumulate scatters are all
    // distinct values (a uniform field would hide ordering bugs whose
    // mis-summed terms happen to be equal).
    eng.grid.init_equilibrium(
        |_, _| 1.0,
        move |l, p| {
            let k = (l as i32 + 3 * p.x + 5 * p.y + 7 * p.z) as f64;
            [
                u[0] + 0.005 * (k * 0.37).sin(),
                u[1] + 0.005 * (k * 0.61).cos(),
                u[2] + 0.005 * (k * 0.23).sin(),
            ]
        },
    );
    eng
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any valid nested box builds and conserves mass to the corner bound.
    #[test]
    fn random_refinement_conserves_mass(r in random_spec()) {
        let mut eng = build_engine(&r, Variant::FusedAll);
        let m0 = eng.grid.total_mass();
        eng.run(5);
        let m1 = eng.grid.total_mass();
        // Bound matches the documented volumetric corner approximation
        // (worst for tiny boxes whose interface is nearly all edges and
        // corners — e.g. a 2×2×2 refined region — and for low ω, where the
        // non-equilibrium part the corners mis-route is largest); flat
        // interfaces are exact, see crates/core/tests/conservation.rs.
        prop_assert!(((m1 - m0) / m0).abs() < 5e-5, "drift {}", (m1 - m0) / m0);
        // Cell partition: fine region + coarse region tile the domain.
        let fine = eng.grid.levels[1].real_cells;
        let coarse = eng.grid.levels[0].real_cells;
        prop_assert_eq!(fine + 8 * coarse, 24 * 24 * 24);
    }

    /// Baseline and fully fused agree on any geometry.
    #[test]
    fn random_refinement_variants_agree(r in random_spec()) {
        let mut a = build_engine(&r, Variant::ModifiedBaseline);
        let mut b = build_engine(&r, Variant::FullyFused);
        a.run(3);
        b.run(3);
        let mut max = 0.0f64;
        for x in (0..24).step_by(3) {
            for y in (0..24).step_by(3) {
                let c = Coord::new(x, y, 11);
                let (ra, ua) = a.grid.probe_finest(c).unwrap();
                let (rb, ub) = b.grid.probe_finest(c).unwrap();
                max = max.max((ra - rb).abs());
                for k in 0..3 {
                    max = max.max((ua[k] - ub[k]).abs());
                }
            }
        }
        prop_assert!(max < 1e-10, "variants deviate by {:e}", max);
    }

    /// The staged Accumulate (plain-store staging slab + fixed-order merge)
    /// equals the serial atomic scatter **exactly** — bit for bit, not to a
    /// tolerance — on any valid geometry, for any thread count. This is the
    /// determinism contract of DESIGN.md §10: the merge replays the serial
    /// scatter's addition order per accumulator slot.
    #[test]
    fn staged_accumulate_bit_equals_serial_scatter(r in random_spec()) {
        let steps = 3;
        // Serial reference: 1 thread, atomic scatter (engine default).
        let mut serial = build_engine_threads(&r, Variant::FusedAll, None, None);
        prop_assert!(!serial.staged_accumulate());
        serial.run(steps);
        let d = common::grid_digest(&serial.grid);
        // Staged split forced onto the serial executor, and staged on a
        // real 4-thread pool: both must reproduce the reference bits.
        for (threads, staged) in [(None, Some(true)), (Some(4), None)] {
            let mut eng = build_engine_threads(&r, Variant::FusedAll, threads, staged);
            prop_assert!(eng.staged_accumulate());
            eng.run(steps);
            let what = format!("staged threads={threads:?}");
            prop_assert!(common::grid_digest(&eng.grid) == d, "digest diverged: {}", what);
            common::assert_bits_identical(&serial, &eng, &what);
        }
    }
}
