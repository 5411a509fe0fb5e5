//! Cross-thread-count determinism: the block-parallel executor must
//! produce **bit-identical** physics at every pool width. Every width runs
//! the same program; the Accumulate scatter adds in place, each accumulator
//! slot with one writer block in the serial addition order (DESIGN.md
//! §10) — so the comparison is bit-level (FNV-1a digest plus
//! accessor-order slot comparison), not tolerance-based.

mod common;

use common::{assert_bits_identical, grid_digest, refined_cavity, seeded_engine_with, EngineOpts};
use lbm_refinement::core::{ExecMode, Variant};
use lbm_refinement::lattice::{VelocitySet, D3Q19, D3Q27};

/// Runs one seeded geometry at thread counts {1, 2, 4, 8} and asserts the
/// final state digests and every population slot agree with the 1-thread
/// reference.
fn check_threads_agree<V: VelocitySet>(seed: u64, variant: Variant, mode: ExecMode, steps: usize) {
    let base = EngineOpts {
        mode,
        ..EngineOpts::default()
    };
    let mut reference = seeded_engine_with::<V>(seed, variant, base);
    reference.run(steps);
    let ref_digest = grid_digest(&reference.grid);

    for threads in [2usize, 4, 8] {
        let mut eng = seeded_engine_with::<V>(
            seed,
            variant,
            EngineOpts {
                threads: Some(threads),
                ..base
            },
        );
        assert_eq!(eng.thread_count(), threads);
        eng.run(steps);
        let what = format!(
            "seed {seed} {} {} {mode:?} threads={threads}",
            variant.name(),
            V::NAME
        );
        assert_eq!(
            grid_digest(&eng.grid),
            ref_digest,
            "{what}: state digest diverged from the 1-thread reference"
        );
        assert_bits_identical(&reference, &eng, &what);
    }
}

#[test]
fn bit_identity_across_thread_counts_d3q19_all_variants() {
    for variant in Variant::ALL {
        check_threads_agree::<D3Q19>(31, variant, ExecMode::Eager, 3);
    }
}

#[test]
fn bit_identity_across_thread_counts_d3q27() {
    check_threads_agree::<D3Q27>(32, Variant::FusedAll, ExecMode::Eager, 2);
    check_threads_agree::<D3Q27>(33, Variant::ModifiedBaseline, ExecMode::Eager, 2);
}

#[test]
fn bit_identity_under_graph_mode() {
    check_threads_agree::<D3Q19>(34, Variant::FusedAll, ExecMode::Graph, 3);
    check_threads_agree::<D3Q19>(35, Variant::ModifiedBaseline, ExecMode::Graph, 2);
    check_threads_agree::<D3Q27>(36, Variant::FusedAll, ExecMode::Graph, 2);
}

#[test]
fn digests_discriminate_different_states() {
    // Sanity of the instrument itself: different seeds produce different
    // digests (the determinism pin would be vacuous otherwise).
    let mut a = seeded_engine_with::<D3Q19>(40, Variant::FusedAll, EngineOpts::default());
    let mut b = seeded_engine_with::<D3Q19>(41, Variant::FusedAll, EngineOpts::default());
    a.run(1);
    b.run(1);
    assert_ne!(grid_digest(&a.grid), grid_digest(&b.grid));
}

/// Runs the two-level lid-driven box (n=32, near-wall band 4, BGK ω=1.7,
/// `FusedAll`, 1 warm-up + 4 coarse steps) and returns its state digest.
fn lid_box_digest<V: VelocitySet>(block_size: usize) -> u64 {
    use lbm_refinement::core::{presets, Boundary, Engine, GridSpec, MultiGrid};
    use lbm_refinement::gpu::{DeviceModel, Executor};
    use lbm_refinement::lattice::Bgk;
    use lbm_refinement::sparse::{Box3, Coord};
    let n = 32usize;
    let domain = Box3::from_dims(n, n, n);
    let refine = presets::near_walls(domain, 2, 4, [true, true, true]);
    let spec = GridSpec::new(2, domain, refine).with_block_size(block_size);
    let bc = move |level: u32, src: Coord, _dir: usize| {
        if src.y >= (n as i32) >> (1 - level) {
            Boundary::MovingWall {
                velocity: [0.05, 0.0, 0.0],
            }
        } else {
            Boundary::BounceBack
        }
    };
    let grid = MultiGrid::<f64, V>::build(spec, &bc, 1.7);
    let mut eng = Engine::builder(grid)
        .collision(Bgk::new(1.7))
        .variant(Variant::FusedAll)
        .build(Executor::with_threads(DeviceModel::a100_40gb(), 1));
    eng.grid.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
    eng.run(1 + 4);
    grid_digest(&eng.grid)
}

#[test]
fn golden_digests_of_the_lid_driven_box() {
    // Pinned final-state digests of the block-SoA engine. Any change to
    // kernel arithmetic, scatter order or population indexing moves them.
    // (digest function, block size B, expected digest)
    type Case = (fn(usize) -> u64, usize, &'static str);
    let cases: [Case; 4] = [
        (lid_box_digest::<D3Q19>, 4, "f56c29a849c37c4d"),
        (lid_box_digest::<D3Q27>, 4, "b27a57622eb50e49"),
        (lid_box_digest::<D3Q19>, 8, "aad1ee9d95c96895"),
        (lid_box_digest::<D3Q27>, 8, "4297b84c4eabdefd"),
    ];
    for (digest, block_size, expect) in cases {
        let got = format!("{:016x}", digest(block_size));
        assert_eq!(got, expect, "B={block_size}");
    }
}

#[test]
fn golden_digest_of_the_refined_cavity_at_every_pool_width() {
    // The refined cavity (n=48, 2 levels, `FusedAll`, 7 coarse steps) at
    // every pool width must land on the same pinned bits.
    use lbm_refinement::gpu::{DeviceModel, Executor};
    let cavity = refined_cavity(48);
    for threads in [1usize, 2, 4, 8] {
        let mut eng = cavity.engine(
            Variant::FusedAll,
            Executor::with_threads(DeviceModel::a100_40gb(), threads),
        );
        eng.run(7);
        assert_eq!(
            format!("{:016x}", grid_digest(&eng.grid)),
            "8459027d11cbd77d",
            "threads={threads}"
        );
    }
}

#[test]
fn golden_digest_of_the_kbc_sphere_at_one_and_two_threads() {
    // The paper's turbulent configuration: the scaled Table-I sphere
    // (68×48×68, 3 levels), KBC on D3Q27, `FusedAll`, 20 coarse steps.
    // The pinned value was computed with the one-cell-at-a-time KBC
    // operator that preceded the lane-parallel collision; the lane path
    // must reproduce it bit for bit at both pool widths.
    use lbm_refinement::gpu::{DeviceModel, Executor};
    use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};
    let flow = SphereFlow::new(SphereConfig::scaled_small());
    for threads in [1usize, 2] {
        let mut eng = flow.engine(
            Variant::FusedAll,
            Executor::with_threads(DeviceModel::a100_40gb(), threads),
        );
        eng.run(20);
        assert_eq!(
            format!("{:016x}", grid_digest(&eng.grid)),
            "4cf49d504675380e",
            "threads={threads}"
        );
    }
}

#[test]
fn probe_record_is_bit_identical_at_every_pool_width() {
    // The health guard decides on the record it computes on the engine's
    // pool (`Engine::probe`), so its every bit must equal the serial
    // `MultiGrid::probe` at every pool width — on a healthy state and on
    // one with a NaN parked in the idle half of the finest level.
    use lbm_refinement::core::Probe;
    use lbm_refinement::gpu::{DeviceModel, Executor};
    let bits = |p: Probe| (p.finite, p.max_speed_sq.to_bits(), p.mass.to_bits());
    let cavity = refined_cavity(32);
    for poisoned in [false, true] {
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let mut eng = cavity.engine(
                Variant::FusedAll,
                Executor::with_threads(DeviceModel::a100_40gb(), threads),
            );
            eng.run(3);
            if poisoned {
                let f = &mut eng.grid.levels.last_mut().unwrap().f;
                let idle = 1 - f.parity();
                f.half_mut(idle).set(0, 1, 0, f64::NAN);
            }
            let serial = eng.grid.probe();
            let pooled = eng.probe();
            let what = format!("poisoned={poisoned} threads={threads}");
            assert_eq!(pooled.finite, !poisoned, "{what}");
            assert!(
                pooled.max_speed_sq > 0.0 && pooled.mass > 0.0,
                "{what}: {pooled:?}"
            );
            assert_eq!(
                bits(pooled),
                bits(serial),
                "{what}: pool record differs from probe()"
            );
            assert_eq!(
                bits(eng.probe()),
                bits(serial),
                "{what}: reused record buffer"
            );
            let reference = *reference.get_or_insert(bits(pooled));
            assert_eq!(bits(pooled), reference, "{what}: differs from 1 thread");
        }
    }
}
