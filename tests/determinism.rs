//! Cross-thread-count determinism: the block-parallel executor must
//! produce **bit-identical** physics at every pool width. The reference is
//! the single-thread serial atomic scatter; the parallel engines run the
//! staged scatter+merge Accumulate (DESIGN.md §10), whose fixed-order merge
//! replays the serial addition order exactly — so the comparison is
//! bit-level (FNV-1a digest plus accessor-order slot comparison), not
//! tolerance-based.
//!
//! What is *not* compared across thread counts: profiler traffic totals.
//! The staged program launches extra merge kernels with their own declared
//! traffic, so a staged engine legitimately declares more bytes than a
//! serial one — equality of physics, not of metering, is the pin here.

mod common;

use common::{assert_bits_identical, grid_digest, refined_cavity, seeded_engine_with, EngineOpts};
use lbm_refinement::core::{ExecMode, Variant};
use lbm_refinement::lattice::{VelocitySet, D3Q19, D3Q27};

/// Runs one seeded geometry at thread counts {1, 2, 4, 8} and asserts the
/// final state digests and every population slot agree with the 1-thread
/// serial-atomic reference.
fn check_threads_agree<V: VelocitySet>(seed: u64, variant: Variant, mode: ExecMode, steps: usize) {
    let base = EngineOpts {
        mode,
        ..EngineOpts::default()
    };
    let mut reference = seeded_engine_with::<V>(seed, variant, base);
    assert!(
        !reference.staged_accumulate(),
        "1-thread default must be the serial atomic path"
    );
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
        assert!(
            eng.staged_accumulate(),
            "multi-thread default must be the staged path"
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
fn staged_path_is_bit_identical_on_one_thread() {
    // Force the staged split onto the serial executor: the ordered merge
    // must reproduce the atomic scatter's addition order exactly, so even
    // this degenerate configuration is bit-identical to the default.
    for variant in [Variant::ModifiedBaseline, Variant::FusedAll] {
        let mut serial = seeded_engine_with::<D3Q19>(38, variant, EngineOpts::default());
        let mut staged = seeded_engine_with::<D3Q19>(
            38,
            variant,
            EngineOpts {
                staged: Some(true),
                ..EngineOpts::default()
            },
        );
        assert!(!serial.staged_accumulate());
        assert!(staged.staged_accumulate());
        serial.run(3);
        staged.run(3);
        let what = format!("staged@1thread {}", variant.name());
        assert_eq!(
            grid_digest(&serial.grid),
            grid_digest(&staged.grid),
            "{what}"
        );
        assert_bits_identical(&serial, &staged, &what);
    }
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
    let cases: [(fn(usize) -> u64, usize, &str); 4] = [
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
    // The refined cavity (n=48, 2 levels, `FusedAll`, 7 coarse steps) on
    // the default Accumulate path of each pool width: serial atomic at one
    // thread, staged scatter + ordered merge above. Both must land on the
    // same pinned bits.
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
    // must reproduce it bit for bit on the serial and the staged path.
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
