//! Variant equivalence on realistic 3-level geometry, for both collision
//! models: all fusion configurations must compute the same physics (they
//! only re-cut the kernels).

mod common;

use common::{assert_bits_identical, mode_engine, seeded_engine_with, EngineOpts};
use lbm_refinement::core::{Engine, ExecMode, Variant};
use lbm_refinement::gpu::{DeviceModel, Executor};
use lbm_refinement::lattice::{VelocitySet, D3Q19, D3Q27};
use lbm_refinement::problems::sphere::{SphereConfig, SphereFlow};
use lbm_refinement::sparse::Coord;

fn low_re_flow() -> SphereFlow {
    let mut c = SphereConfig::for_size([36, 24, 36]);
    c.re = 80.0;
    SphereFlow::new(c)
}

fn probe_grid<V, T, C>(eng: &Engine<T, V, C>) -> Vec<(f64, [f64; 3])>
where
    T: lbm_refinement::lattice::Real,
    V: lbm_refinement::lattice::VelocitySet,
    C: lbm_refinement::lattice::Collision<T, V>,
{
    let mut out = Vec::new();
    for x in (0..36).step_by(3) {
        for y in (0..24).step_by(4) {
            for z in (0..36).step_by(5) {
                if let Some(p) = eng.grid.probe_finest(Coord::new(x, y, z)) {
                    out.push(p);
                }
            }
        }
    }
    out
}

fn assert_close(a: &[(f64, [f64; 3])], b: &[(f64, [f64; 3])], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: probe coverage differs");
    let mut max = 0.0f64;
    for ((ra, ua), (rb, ub)) in a.iter().zip(b) {
        max = max.max((ra - rb).abs());
        for k in 0..3 {
            max = max.max((ua[k] - ub[k]).abs());
        }
    }
    assert!(max < tol, "{what}: max deviation {max:e}");
}

#[test]
fn bgk_three_level_sphere_variants_agree() {
    let flow = low_re_flow();
    let mut reference = None;
    for variant in Variant::ALL {
        let mut eng = flow.engine_bgk(variant, Executor::new(DeviceModel::a100_40gb()));
        eng.run(6);
        let probes = probe_grid(&eng);
        match &reference {
            None => reference = Some(probes),
            Some(r) => assert_close(r, &probes, 1e-10, variant.name()),
        }
    }
}

#[test]
fn kbc_three_level_sphere_variants_agree() {
    let flow = SphereFlow::new(SphereConfig::for_size([36, 24, 36]));
    let mut reference = None;
    for variant in [Variant::ModifiedBaseline, Variant::FusedCaSe, Variant::FusedAll] {
        let mut eng = flow.engine(variant, Executor::new(DeviceModel::a100_40gb()));
        eng.run(5);
        let probes = probe_grid(&eng);
        match &reference {
            None => reference = Some(probes),
            Some(r) => assert_close(r, &probes, 1e-9, variant.name()),
        }
    }
}

// ---------------------------------------------------------------------------
// Eager vs graph execution: the wave-scheduled dispatch must be *bit*
// identical to the program-order dispatch — same kernels, same field bits,
// same declared traffic — on randomized sparse geometries, every fusion
// variant, both velocity sets. The seeded harness lives in tests/common.

/// Runs one seeded geometry through both exec modes and checks fields and
/// declared traffic.
fn check_modes_agree<V: VelocitySet>(seed: u64, variant: Variant, steps: usize) {
    let mut eager = mode_engine::<V>(seed, variant, ExecMode::Eager);
    let mut graph = mode_engine::<V>(seed, variant, ExecMode::Graph);
    eager.run(steps);
    graph.run(steps);
    let what = format!("seed {seed} {} {}", variant.name(), V::NAME);
    assert_bits_identical(&eager, &graph, &what);
    // Same kernels launched with the same declared costs: the profiler
    // totals (traffic, launches, cells) must match exactly; only the sync
    // structure differs between the modes.
    let te = eager.exec.profiler().total();
    let tg = graph.exec.profiler().total();
    assert_eq!(te.launches, tg.launches, "{what}: launches");
    assert_eq!(te.cells, tg.cells, "{what}: cells");
    assert_eq!(te.bytes_read, tg.bytes_read, "{what}: bytes read");
    assert_eq!(te.bytes_written, tg.bytes_written, "{what}: bytes written");
    assert_eq!(te.atomic_bytes, tg.atomic_bytes, "{what}: atomic bytes");
}

#[test]
fn graph_mode_bit_identical_to_eager_d3q19() {
    for seed in [1, 2, 3] {
        for variant in Variant::ALL {
            check_modes_agree::<D3Q19>(seed, variant, 3);
        }
    }
}

#[test]
fn graph_mode_bit_identical_to_eager_d3q27() {
    for seed in [4, 5] {
        for variant in Variant::ALL {
            check_modes_agree::<D3Q27>(seed, variant, 2);
        }
    }
}

#[test]
fn graph_mode_sync_count_matches_schedule() {
    for variant in [Variant::ModifiedBaseline, Variant::FusedAll] {
        let mut eng = mode_engine::<D3Q19>(7, variant, ExecMode::Graph);
        let (graph, schedule) = eng.step_task_graph();
        let p0 = (eng.exec.profiler().syncs(), eng.exec.profiler().waves());
        eng.step();
        let p1 = (eng.exec.profiler().syncs(), eng.exec.profiler().waves());
        assert_eq!(
            p1.0 - p0.0,
            schedule.sync_count() as u64,
            "{}: measured syncs per step must equal the schedule's",
            variant.name()
        );
        assert_eq!(
            p1.1 - p0.1,
            graph.wave_count() as u64,
            "{}: one executor wave per schedule wave",
            variant.name()
        );

        // A traced step records one span per scheduled kernel and exports
        // them as a chrome://tracing document.
        eng.exec.profiler().reset();
        eng.exec.profiler().set_tracing(true);
        eng.step();
        let prof = eng.exec.profiler();
        prof.set_tracing(false);
        assert_eq!(
            prof.spans().len(),
            schedule.kernel_count(),
            "{}: one span per scheduled kernel",
            variant.name()
        );
        let trace = prof.chrome_trace_json();
        assert!(
            trace.starts_with("{\"traceEvents\":[{"),
            "{}: chrome trace has no span entries: {trace}",
            variant.name()
        );

        // Dispatch is deterministic: at any pool width the spans of one
        // step follow the schedule, span `i` carrying the wave of the
        // `i`-th scheduled node, and the kernel names come in the same
        // order: every width runs the same program.
        let traced_at = |threads: usize| {
            let opts = EngineOpts {
                mode: ExecMode::Graph,
                threads: Some(threads),
                health: None,
            };
            let mut eng = seeded_engine_with::<D3Q19>(7, variant, opts);
            let (_, schedule) = eng.step_task_graph();
            let scheduled: Vec<Option<u32>> = schedule
                .waves
                .iter()
                .enumerate()
                .flat_map(|(w, wave)| std::iter::repeat_n(Some(w as u32), wave.len()))
                .collect();
            eng.exec.profiler().set_tracing(true);
            eng.step();
            let spans = eng.exec.profiler().spans();
            let waves: Vec<Option<u32>> = spans.iter().map(|s| s.wave).collect();
            assert_eq!(
                waves,
                scheduled,
                "{} at {threads} threads: spans follow the schedule",
                variant.name()
            );
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        };
        assert_eq!(
            traced_at(8),
            traced_at(1),
            "{}: the span sequence does not depend on the pool width",
            variant.name()
        );
    }
}

#[test]
fn kbc_three_level_conserves_mass() {
    let flow = SphereFlow::new(SphereConfig::for_size([36, 24, 36]));
    let mut eng = flow.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
    // The wind tunnel is open (inlet/outlet), so mass is not conserved —
    // the impulsive start drives a compression transient through the small
    // scaled box — but it must stay bounded and finite through the
    // turbulent KBC run.
    let m0 = eng.grid.total_mass();
    eng.run(15);
    let m1 = eng.grid.total_mass();
    assert!(m1.is_finite());
    assert!(
        (m1 - m0).abs() / m0 < 0.2,
        "mass excursion too large: {}",
        (m1 - m0) / m0
    );
}
