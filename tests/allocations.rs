//! A steady-state `Engine::step` allocates at most once per kernel launch,
//! none at all on a one-thread pool, and the same number of times at two
//! sizes of one geometry: the step plan is built once, at engine assembly,
//! and nothing in the step allocates per block, so
//! frontier blocks (those with ghost or inactive slots) stream through a
//! reused tile instead of a fresh one. Nor does a health check after the
//! first: it reuses the recovery point and the probe's record buffer that
//! the first check allocated. A counting global allocator counts
//! the calling thread's allocations; the engines run on a one-thread pool,
//! so every kernel runs on that thread.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::refined_cavity;
use lbm_refinement::core::{Engine, ExecMode, HealthGuard, HealthPolicy, Variant};
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{Collision, VelocitySet};
use lbm_refinement::problems::cavity::Cavity;
use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count() {
    // Ignored while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and kernel launches of one step, after two warm-up steps.
fn step_counts<V: VelocitySet, C: Collision<f64, V>>(mut eng: Engine<f64, V, C>) -> (u64, u64) {
    eng.run(2);
    let launches = eng.exec.profiler().launches();
    let before = ALLOCS.with(Cell::get);
    eng.step();
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, eng.exec.profiler().launches() - launches)
}

/// Allocations of one step, after two warm-up steps.
fn allocs_per_step<V: VelocitySet, C: Collision<f64, V>>(eng: Engine<f64, V, C>) -> u64 {
    step_counts(eng).0
}

fn one_thread() -> Executor {
    Executor::with_threads(DeviceModel::a100_40gb(), 1)
}

#[test]
fn a_steady_state_step_allocates_the_same_at_two_sizes_of_the_cavity() {
    let (small, large) = (refined_cavity(32), refined_cavity(64));
    for variant in Variant::ALL {
        for mode in [ExecMode::Eager, ExecMode::Graph] {
            let at = |cavity: &Cavity| {
                allocs_per_step(cavity.engine_with(variant, one_thread(), |b| b.exec_mode(mode)))
            };
            let (s, l) = (at(&small), at(&large));
            assert_eq!(s, l, "{} {mode:?}: {s} vs {l} allocations", variant.name());
        }
    }
}

#[test]
fn a_steady_state_step_allocates_the_same_at_two_sizes_of_the_sphere() {
    let at = |size| {
        let flow = SphereFlow::new(SphereConfig::for_size(size));
        allocs_per_step(flow.engine(Variant::FusedAll, one_thread()))
    };
    let (s, l) = (at([36, 24, 36]), at([52, 36, 52]));
    assert_eq!(s, l, "{s} vs {l} allocations");
}

/// The step plan is built once, at engine assembly, so a step allocates
/// nothing to regenerate its program or schedule.
#[test]
fn a_steady_state_step_allocates_at_most_once_per_launch() {
    let cavity = refined_cavity(32);
    let sphere = SphereFlow::new(SphereConfig::for_size([36, 24, 36]));
    for variant in Variant::ALL {
        for mode in [ExecMode::Eager, ExecMode::Graph] {
            let check = |what: &str, (allocs, launches): (u64, u64)| {
                assert!(
                    allocs <= launches,
                    "{what}, {} {mode:?}: {allocs} allocations for {launches} launches",
                    variant.name()
                );
            };
            let eng = cavity.engine_with(variant, one_thread(), |b| b.exec_mode(mode));
            check("cavity", step_counts(eng));
            let eng = sphere.engine_with(variant, one_thread(), |b| b.exec_mode(mode));
            check("sphere", step_counts(eng));
        }
    }
}

/// A one-thread pool runs each launch inline and reports no per-thread
/// split, so on top of the plan built once, a launch allocates nothing.
#[test]
fn a_steady_state_one_thread_step_allocates_nothing() {
    let cavity = refined_cavity(32);
    let sphere = SphereFlow::new(SphereConfig::for_size([36, 24, 36]));
    for variant in Variant::ALL {
        for mode in [ExecMode::Eager, ExecMode::Graph] {
            let check = |what: &str, (allocs, launches): (u64, u64)| {
                assert!(launches > 0, "{what}: no launch");
                assert_eq!(
                    allocs,
                    0,
                    "{what}, {} {mode:?}: {launches} launches",
                    variant.name()
                );
            };
            let eng = cavity.engine_with(variant, one_thread(), |b| b.exec_mode(mode));
            check("cavity", step_counts(eng));
            let eng = sphere.engine_with(variant, one_thread(), |b| b.exec_mode(mode));
            check("sphere", step_counts(eng));
        }
    }
}

#[test]
fn a_guard_check_after_the_first_allocates_the_same_at_two_sizes_of_the_cavity() {
    let guard = HealthGuard::new(2).policy(HealthPolicy::RollbackToLastCheckpoint(1));
    let at = |cavity: &Cavity| {
        let mut eng = cavity.engine_with(Variant::FusedAll, one_thread(), |b| {
            b.exec_mode(ExecMode::Graph).health(guard)
        });
        // The check at step 2 allocates the recovery point and the probe
        // records; the one at step 4 refreshes and reuses them.
        eng.run(3);
        let before = ALLOCS.with(Cell::get);
        eng.step();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(eng.health_events().is_empty(), "{:?}", eng.health_events());
        allocs
    };
    let (s, l) = (at(&refined_cavity(32)), at(&refined_cavity(64)));
    assert_eq!(s, l, "{s} vs {l} allocations");
}
