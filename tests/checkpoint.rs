//! Crash-safe checkpoint/restart: property tests for the snapshot format
//! and the engine health guards (DESIGN.md §11).
//!
//! The core property is **restart equivalence**: save → fresh engine →
//! restore → run N steps must be bit-identical to the same engine never
//! having been interrupted — across velocity sets, execution modes and
//! pool widths. Damaged snapshots must fail cleanly and leave the target
//! engine untouched.

mod common;

use std::cell::RefCell;
use std::collections::BTreeSet;

use common::{assert_bits_identical, grid_digest, refined_cavity, seeded_engine_with, EngineOpts};
use lbm_refinement::core::{
    CheckpointError, Engine, ExecMode, GridSpec, HealthAction, HealthCause, HealthGuard,
    HealthPolicy, MultiGrid, Variant,
};
use lbm_refinement::core::AllWalls;
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Bgk, VelocitySet, D3Q19, D3Q27};
use lbm_refinement::sparse::Box3;
use proptest::prelude::*;

/// Runs one restart-equivalence case: `reference` runs `total` steps in one
/// piece; a second engine is interrupted at `k`, snapshotted, dropped, and
/// a fresh third engine restores the snapshot and finishes. Final states
/// must agree bit-for-bit.
fn restart_case<V: VelocitySet>(seed: u64, opts: EngineOpts, total: usize, k: usize, what: &str) {
    let mut reference = seeded_engine_with::<V>(seed, Variant::FusedAll, opts);
    reference.run(total);

    let mut interrupted = seeded_engine_with::<V>(seed, Variant::FusedAll, opts);
    interrupted.run(k);
    let blob = interrupted.checkpoint();
    drop(interrupted); // the "crashed" process is gone

    let mut resumed = seeded_engine_with::<V>(seed, Variant::FusedAll, opts);
    resumed.restore(&blob).unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
    assert_eq!(resumed.coarse_steps(), k as u64, "{what}: restored step count");
    resumed.run(total - k);

    assert_eq!(
        grid_digest(&reference.grid),
        grid_digest(&resumed.grid),
        "{what}: resumed digest differs from uninterrupted"
    );
    assert_bits_identical(&reference, &resumed, what);
}

#[test]
fn restart_is_bit_identical_across_modes() {
    for seed in [3u64, 11] {
        for mode in [ExecMode::Eager, ExecMode::Graph] {
            let opts = EngineOpts {
                mode,
                ..EngineOpts::default()
            };
            restart_case::<D3Q19>(seed, opts, 6, 3, &format!("d3q19 seed={seed} {mode:?}"));
        }
    }
}

#[test]
fn restart_is_bit_identical_for_d3q27() {
    for mode in [ExecMode::Eager, ExecMode::Graph] {
        let opts = EngineOpts {
            mode,
            ..EngineOpts::default()
        };
        restart_case::<D3Q27>(5, opts, 6, 3, &format!("d3q27 {mode:?}"));
    }
}

#[test]
fn restart_is_bit_identical_with_thread_pool() {
    for threads in [1usize, 8] {
        let opts = EngineOpts {
            threads: Some(threads),
            ..EngineOpts::default()
        };
        restart_case::<D3Q19>(7, opts, 6, 3, &format!("threads={threads}"));
    }
}

/// The refined cavity (n=32, 2 levels) interrupted at coarse step 3 of 7:
/// its snapshot goes through a real file into a fresh engine, for both
/// execution modes at 1 and 8 pool threads. The snapshot size and the
/// final digest of the resumed and the uninterrupted run are pinned.
#[test]
fn refined_cavity_resumes_from_a_snapshot_file() {
    let (interrupt_at, total) = (3usize, 7usize);
    let cavity = refined_cavity(32);
    for mode in [ExecMode::Eager, ExecMode::Graph] {
        for threads in [1usize, 8] {
            let what = format!("{mode:?} threads={threads}");
            let mk = || {
                cavity.engine_with(
                    Variant::FusedAll,
                    Executor::with_threads(DeviceModel::a100_40gb(), threads),
                    |b| b.exec_mode(mode),
                )
            };
            let mut reference = mk();
            reference.run(total);

            let mut interrupted = mk();
            interrupted.run(interrupt_at);
            let blob = interrupted.checkpoint();
            drop(interrupted);
            assert_eq!(blob.len(), 2_208_219, "{what}: snapshot bytes");
            let path = std::env::temp_dir().join(format!(
                "lbm_ckpt_{}_{mode:?}_{threads}.bin",
                std::process::id()
            ));
            std::fs::write(&path, &blob).expect("snapshot write");
            let bytes = std::fs::read(&path).expect("snapshot read");
            let _ = std::fs::remove_file(&path);

            let mut resumed = mk();
            resumed
                .restore(&bytes)
                .unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
            assert_eq!(resumed.coarse_steps(), interrupt_at as u64, "{what}");
            resumed.run(total - interrupt_at);

            for (run, eng) in [("uninterrupted", &reference), ("resumed", &resumed)] {
                assert_eq!(
                    format!("{:016x}", grid_digest(&eng.grid)),
                    "5360bc1f1933114d",
                    "{what}: {run} digest"
                );
            }
        }
    }
}

/// A snapshot restored into a fresh engine is re-emitted byte for byte by
/// that engine's own checkpoint: the payload is the fields' memory image,
/// so save → restore → save is the identity on the blob.
#[test]
fn snapshot_round_trips_byte_identically() {
    let (total, k, seed) = (6usize, 3usize, 13u64);
    let opts = EngineOpts::default();
    let mut reference = seeded_engine_with::<D3Q19>(seed, Variant::FusedAll, opts);
    reference.run(total);

    let mut interrupted = seeded_engine_with::<D3Q19>(seed, Variant::FusedAll, opts);
    interrupted.run(k);
    let blob = interrupted.checkpoint();

    let mut resumed = seeded_engine_with::<D3Q19>(seed, Variant::FusedAll, opts);
    resumed.restore(&blob).expect("restore");
    assert!(resumed.checkpoint() == blob, "re-saved snapshot differs");
    resumed.run(total - k);
    assert_eq!(grid_digest(&reference.grid), grid_digest(&resumed.grid));
    assert_bits_identical(&reference, &resumed, "round trip");
}

#[test]
fn bad_snapshots_fail_cleanly_and_leave_the_engine_untouched() {
    let mut eng = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
    eng.run(2);
    let good = eng.checkpoint();
    let before = grid_digest(&eng.grid);

    // Truncation before the header is unambiguous.
    for cut in [0usize, 4] {
        let err = eng.restore(&good[..cut]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated),
            "cut at {cut}: expected Truncated, got {err}"
        );
    }
    // Mid-body truncation fails too (Truncated or ChecksumMismatch
    // depending on where the cut lands — both are clean errors).
    for cut in [good.len() / 2, good.len() - 1] {
        assert!(eng.restore(&good[..cut]).is_err(), "cut at {cut} must fail");
    }
    // A single flipped bit trips the checksum.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(
        matches!(eng.restore(&bad).unwrap_err(), CheckpointError::ChecksumMismatch),
        "bit flip must trip the checksum"
    );
    // Garbage is recognized before anything else.
    let err = eng.restore(b"definitely not a checkpoint").unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "got {err}");

    // Every failure above left the engine bit-identical and stepping.
    assert_eq!(grid_digest(&eng.grid), before, "failed restores must not mutate");
    eng.run(1);
    assert_eq!(eng.coarse_steps(), 3);
}

#[test]
fn snapshot_rejects_structural_mismatch() {
    let eng19 = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
    let blob = eng19.checkpoint();

    // Same geometry, wrong velocity set.
    let mut eng27 = seeded_engine_with::<D3Q27>(9, Variant::FusedAll, EngineOpts::default());
    let err = eng27.restore(&blob).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "D3Q19 snapshot into D3Q27 engine: got {err}"
    );

    // Entirely different grid structure (single uniform level).
    let spec = GridSpec::uniform(Box3::from_dims(16, 16, 16));
    let grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.6);
    let mut uniform = Engine::builder(grid)
        .collision(Bgk::new(1.6))
        .build(Executor::with_threads(DeviceModel::a100_40gb(), 1));
    let err = uniform.restore(&blob).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "2-level snapshot into uniform engine: got {err}"
    );

    // Same engine, another value width: `value_bits`, the `u32` after the
    // magic and the version, rewritten to 32 under a re-sealed trailer, so
    // the width check alone must refuse it.
    let mut narrow = blob.clone();
    assert_eq!(narrow[12..16], 64u32.to_le_bytes(), "value_bits offset");
    narrow[12..16].copy_from_slice(&32u32.to_le_bytes());
    reseal(&mut narrow);
    let mut target = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
    target.run(1);
    let before = target.checkpoint();
    match target.restore(&narrow).unwrap_err() {
        CheckpointError::Mismatch(why) => assert!(why.contains("32-bit"), "{why}"),
        e => panic!("32-bit snapshot into a 64-bit engine: expected Mismatch, got {e:?}"),
    }
    assert!(target.checkpoint() == before, "the refused restore wrote");
}

/// Rewrites a snapshot's FNV-1a trailer over its (edited) body.
fn reseal(blob: &mut [u8]) {
    let body = blob.len() - 8;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &blob[..body] {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    blob[body..].copy_from_slice(&h.to_le_bytes());
}

/// Two 2-level 32³ grids whose refined boxes sit 2 or 4 coarse cells apart
/// have the same block counts on every level but not the same cells: a
/// snapshot of one is refused by the other, which keeps its state, flags
/// included.
#[test]
fn snapshot_of_a_shifted_refinement_is_refused() {
    let engine = |shift: i32| {
        let spec = GridSpec::new(2, Box3::from_dims(32, 32, 32), move |l, p| {
            l == 0
                && (4 + shift..12 + shift).contains(&p.x)
                && (4..12).contains(&p.y)
                && (4..12).contains(&p.z)
        });
        let mut grid = MultiGrid::<f64, D3Q19>::build(spec, &AllWalls, 1.5);
        grid.init_equilibrium(|_, _| 1.0, |l, c| [0.01, 1e-4 * (c.x + l as i32) as f64, 0.0]);
        Engine::builder(grid)
            .collision(Bgk::new(1.5))
            .build(Executor::with_threads(DeviceModel::a100_40gb(), 1))
    };
    let blocks = |eng: &Eng19| -> Vec<usize> {
        eng.grid.levels.iter().map(|lv| lv.grid.num_blocks()).collect()
    };
    let mut reference = engine(0);
    reference.run(1);
    let blob = reference.checkpoint();
    for shift in [2, 4] {
        let mut other = engine(shift);
        assert_eq!(blocks(&other), blocks(&reference), "shift {shift}: block counts");
        let before = other.checkpoint();
        match other.restore(&blob).unwrap_err() {
            CheckpointError::Mismatch(why) => assert!(why.contains("flags"), "{why}"),
            e => panic!("shift {shift}: expected Mismatch, got {e:?}"),
        }
        assert!(other.checkpoint() == before, "shift {shift}: the refused restore wrote");
    }
}

type Eng19 = Engine<f64, D3Q19, Bgk<f64>>;

thread_local! {
    /// The fuzz target: an engine two steps in, and its own snapshot.
    static FUZZ_TARGET: RefCell<(Eng19, Vec<u8>)> = RefCell::new({
        let mut eng = seeded_engine_with::<D3Q19>(9, Variant::FusedAll, EngineOpts::default());
        eng.run(2);
        let blob = eng.checkpoint();
        (eng, blob)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The snapshot decoder under random damage: a real snapshot, maybe
    /// truncated at a random length, with 1–4 random bits flipped at
    /// distinct bytes. `Engine::restore` must return `Err` without
    /// panicking and leave the engine's state and step count untouched.
    #[test]
    fn damaged_snapshots_are_refused_and_leave_the_engine_untouched(
        truncate in any::<bool>(),
        cut in 0.0f64..1.0,
        flips in proptest::collection::vec((0.0f64..1.0, 0u32..8), 1..5),
    ) {
        let (refused, digest_kept, steps_kept, state_kept) = FUZZ_TARGET.with(|t| {
            let (eng, blob) = &mut *t.borrow_mut();
            let before = grid_digest(&eng.grid);
            let mut bad = blob.clone();
            if truncate {
                bad.truncate((cut * blob.len() as f64) as usize);
            }
            let mut seen = BTreeSet::new();
            for (at, bit) in &flips {
                let pos = (at * bad.len() as f64) as usize;
                if pos < bad.len() && seen.insert(pos) {
                    bad[pos] ^= 1 << bit;
                }
            }
            let refused = bad != *blob && eng.restore(&bad).is_err();
            (
                refused,
                grid_digest(&eng.grid) == before,
                eng.coarse_steps() == 2,
                eng.checkpoint() == *blob,
            )
        });
        prop_assert!(refused, "a damaged snapshot restored");
        prop_assert!(digest_kept, "a refused restore changed the grid digest");
        prop_assert!(steps_kept, "a refused restore changed the step count");
        prop_assert!(state_kept, "a refused restore changed the engine state");
    }
}

// ---------------------------------------------------------------------------
// Health guards

fn poison(eng: &mut Eng19) {
    eng.grid.levels[0].f.src_mut().set(0, 3, 7, f64::NAN);
}

#[test]
fn abort_policy_halts_on_nan() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1)),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    eng.run(2);
    assert!(!eng.halted());
    assert!(eng.health_events().is_empty(), "healthy run must record nothing");

    poison(&mut eng);
    eng.run(5);
    assert!(eng.halted());
    assert_eq!(eng.coarse_steps(), 3, "run must stop at the failing step");
    let ev = *eng.health_events().last().unwrap();
    assert_eq!(ev.step, 3);
    assert_eq!(ev.cause, HealthCause::NonFinite);
    assert_eq!(ev.action, HealthAction::Aborted);

    // A halted engine refuses to step until restored.
    eng.step();
    assert_eq!(eng.coarse_steps(), 3);
}

#[test]
fn report_policy_records_but_keeps_running() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1).policy(HealthPolicy::Report)),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    poison(&mut eng);
    eng.run(3);
    assert!(!eng.halted());
    assert_eq!(eng.coarse_steps(), 3, "Report must not stop the run");
    assert_eq!(eng.health_events().len(), 3, "one event per failing check");
    assert!(eng
        .health_events()
        .iter()
        .all(|e| e.action == HealthAction::Reported));
}

#[test]
fn speed_guard_reports_the_observed_speed() {
    // An absurdly tight bound: the seeded flow (~0.02 lattice units) trips
    // it on the first check, and the event carries the measured value.
    let opts = EngineOpts {
        health: Some(
            HealthGuard::new(1)
                .max_speed(1e-12)
                .policy(HealthPolicy::Report),
        ),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    eng.run(1);
    let ev = eng.health_events()[0];
    match ev.cause {
        HealthCause::SpeedExceeded(v) => assert!(v > 1e-12, "observed speed {v}"),
        other => panic!("expected SpeedExceeded, got {other:?}"),
    }
}

#[test]
fn rollback_policy_restores_the_last_healthy_state() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1).policy(HealthPolicy::RollbackToLastCheckpoint(3))),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    eng.run(2); // healthy checks at steps 1 and 2 cut snapshots
    let healthy = grid_digest(&eng.grid);

    poison(&mut eng);
    eng.step(); // step 3 fails its check and rolls back to step 2
    assert!(!eng.halted());
    assert_eq!(eng.coarse_steps(), 2, "rolled back to the last healthy step");
    assert_eq!(grid_digest(&eng.grid), healthy, "state is the step-2 snapshot");
    let ev = *eng.health_events().last().unwrap();
    assert_eq!(ev.step, 3);
    assert_eq!(ev.cause, HealthCause::NonFinite);
    assert_eq!(ev.action, HealthAction::RolledBack { to_step: 2 });

    // The standard recovery: relax omega0 toward stability and resume.
    eng.set_omega0(1.2);
    eng.run(2);
    assert!(!eng.halted());
    assert_eq!(eng.coarse_steps(), 4);
    assert!(eng.grid.is_finite());
}

#[test]
fn rollback_without_a_snapshot_halts() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1).policy(HealthPolicy::RollbackToLastCheckpoint(3))),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    poison(&mut eng); // fails on the very first check: nothing to roll back to
    eng.run(4);
    assert!(eng.halted());
    assert_eq!(eng.coarse_steps(), 1);
    let ev = *eng.health_events().last().unwrap();
    assert_eq!(ev.action, HealthAction::Halted);
}

/// A rollback restores everything a step writes — both population halves,
/// the ghost accumulators, the parity and the step count — byte for byte:
/// after rolling back, the guarded engine's own snapshot equals the one an
/// unguarded twin cuts at the recovery step, at pool widths 1, 2 and 8 (the
/// recovery point is copied block by block on the pool). (`grid_digest`
/// covers only the source half.)
#[test]
fn rollback_restores_the_recovery_step_byte_for_byte() {
    for mode in [ExecMode::Eager, ExecMode::Graph] {
        for threads in [1usize, 2, 8] {
            let what = format!("{mode:?} threads={threads}");
            let opts = EngineOpts {
                mode,
                threads: Some(threads),
                ..EngineOpts::default()
            };
            let mut twin = seeded_engine_with::<D3Q19>(6, Variant::FusedAll, opts);
            twin.run(4);
            let expected = twin.checkpoint();

            let guard = HealthGuard::new(2).policy(HealthPolicy::RollbackToLastCheckpoint(1));
            let guarded = EngineOpts {
                health: Some(guard),
                ..opts
            };
            let mut eng = seeded_engine_with::<D3Q19>(6, Variant::FusedAll, guarded);
            eng.run(4); // healthy checks at steps 2 and 4: step 4 is the recovery point
            poison(&mut eng);
            eng.run(2); // step 6 fails its check and rolls back to step 4
            assert_eq!(
                eng.health_events().last().map(|e| e.action),
                Some(HealthAction::RolledBack { to_step: 4 }),
                "{what}"
            );
            assert_eq!(eng.coarse_steps(), 4, "{what}");
            assert!(
                eng.checkpoint() == expected,
                "{what}: rolled-back state differs from the twin's at step 4"
            );
        }
    }
}

/// A NaN parked in the idle half of the double buffer, in a slot no kernel
/// touches, still trips the guard: the finiteness check covers both halves
/// (DESIGN.md §11).
#[test]
fn nan_in_the_idle_half_trips_the_guard() {
    let opts = EngineOpts {
        health: Some(HealthGuard::new(1).policy(HealthPolicy::Report)),
        ..EngineOpts::default()
    };
    let mut eng = seeded_engine_with::<D3Q19>(4, Variant::FusedAll, opts);
    // A coarse ghost slot of level 0's source half: the step neither reads
    // nor writes it, and the level's swap makes that half the idle one.
    let (ghost, _) = eng.grid.levels[0]
        .iter_ghost()
        .next()
        .expect("a refined grid has coarse ghost cells");
    eng.grid.levels[0]
        .f
        .src_mut()
        .set(ghost.block, 3, ghost.cell, f64::NAN);
    eng.step();

    for (l, lv) in eng.grid.levels.iter().enumerate() {
        assert!(
            lv.f.src().as_slice().iter().all(|v| v.is_finite()),
            "level {l}: the NaN must sit in the idle half only"
        );
    }
    let l0 = &eng.grid.levels[0].f;
    assert!(l0.half(1 - l0.parity()).get(ghost.block, 3, ghost.cell).is_nan());
    let ev = eng.health_events();
    assert_eq!(ev.len(), 1);
    assert_eq!(ev[0].cause, HealthCause::NonFinite);
    assert_eq!(ev[0].action, HealthAction::Reported);
}
