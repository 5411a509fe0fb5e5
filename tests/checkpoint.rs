//! Crash-safe checkpoint/restart: property tests for the snapshot format
//! and the engine health guards (DESIGN.md §11).
//!
//! The core property is **restart equivalence**: save → fresh engine →
//! restore → run N steps must be bit-identical to the same engine never
//! having been interrupted — across velocity sets, execution modes and
//! pool widths. Damaged snapshots must fail cleanly and leave the target
//! engine untouched.

mod common;

use common::{assert_bits_identical, grid_digest, seeded_engine_with, EngineOpts};
use lbm_refinement::core::{
    CheckpointError, Engine, ExecMode, GridSpec, HealthAction, HealthCause, HealthGuard,
    HealthPolicy, MultiGrid, Variant,
};
use lbm_refinement::core::AllWalls;
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Bgk, VelocitySet, D3Q19, D3Q27};
use lbm_refinement::sparse::Box3;

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
        .build(Executor::sequential(DeviceModel::a100_40gb()));
    let err = uniform.restore(&blob).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "2-level snapshot into uniform engine: got {err}"
    );
}

// ---------------------------------------------------------------------------
// Health guards

fn poison(eng: &mut Engine<f64, D3Q19, Bgk<f64>>) {
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
