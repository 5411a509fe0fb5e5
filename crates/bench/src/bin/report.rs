//! Regenerates every table and figure of the paper's evaluation (§VI).
//!
//! ```text
//! cargo run --release -p lbm-bench --bin report -- <experiment> [flags]
//! ```
//!
//! Experiments: `fig2`, `ghost`, `fig7`, `compare`, `uniform`, `table1`,
//! `fig9`, `fig1`, `bench-json`, `graph`, or `all`. Sizes default to
//! host-runnable scales (DESIGN.md §2); `--paper-scale` where supported
//! evaluates the paper's full-size domains through the memory model.
//! `bench-json` writes the interior-fast-path comparison to
//! `BENCH_streaming.json`; `graph` compares eager vs wave-scheduled
//! execution and writes `BENCH_graph.json` plus a chrome://tracing file
//! `BENCH_graph_trace.json`; `layout-sweep` compares the population
//! memory layouts across block sizes and velocity sets and writes
//! `BENCH_layout.json`; `checkpoint` measures snapshot save/load and the
//! interrupt/resume bit-identity gate and writes `BENCH_checkpoint.json`.

use std::time::Instant;

use lbm_bench::{cavity_case, checkpoint_case, graph_case, layout_case, sphere_case, stream_kernel_compare, streaming_case, table1_row, CaseResult, CheckpointCaseResult, ThreadSweepResult, thread_sweep_case};
use lbm_compare::PalabosLike;
use lbm_core::{alg1_graph, memory_report, step_graph, ExecMode, InteriorPath, MultiGrid, Variant};
use lbm_gpu::{max_uniform_cube, DeviceModel, Executor};
use lbm_lattice::{D3Q19, D3Q27};
use lbm_sparse::Layout;
use lbm_problems::airplane::{AirplaneConfig, AirplaneFlow};
use lbm_problems::cavity::{Cavity, CavityConfig};
use lbm_problems::diagnostics;
use lbm_problems::sphere::{SphereConfig, SphereFlow};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let paper_scale = args.iter().any(|a| a == "--paper-scale");

    match what {
        "fig2" => fig2(),
        "ghost" => ghost(),
        "fig7" => fig7(),
        "compare" => compare(),
        "uniform" => uniform(),
        "table1" => table1(),
        "fig9" => fig9(),
        "fig1" => fig1(paper_scale),
        "bench-json" => bench_json(),
        "graph" => graph_report(),
        "layout-sweep" => layout_sweep(),
        "thread-sweep" => thread_sweep(),
        "checkpoint" => checkpoint_report(),
        "all" => {
            fig2();
            ghost();
            fig7();
            compare();
            uniform();
            table1();
            fig9();
            fig1(false);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("choose from: fig2 ghost fig7 compare uniform table1 fig9 fig1 bench-json graph layout-sweep thread-sweep checkpoint all");
            std::process::exit(2);
        }
    }
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Fig. 2: dependency-graph complexity, baseline vs ours.
fn fig2() {
    banner("Fig. 2 — kernels & synchronization per coarse step");
    println!(
        "{:>7} | {:>28} | {:>28} | {:>28} | ratio",
        "levels", "Algorithm 1 (original)", "modified baseline (4b)", "ours (4f)"
    );
    for levels in 2..=4u32 {
        let a = alg1_graph(levels);
        let b = step_graph(levels, Variant::ModifiedBaseline);
        let o = step_graph(levels, Variant::FusedAll);
        println!(
            "{:>7} | {:>16} k, {:>4} syncs | {:>16} k, {:>4} syncs | {:>16} k, {:>4} syncs | {:.2}x",
            levels,
            a.kernel_count(),
            a.sync_count(),
            b.kernel_count(),
            b.sync_count(),
            o.kernel_count(),
            o.sync_count(),
            b.kernel_count() as f64 / o.kernel_count() as f64
        );
    }
    let dir = std::env::temp_dir().join("lbm_report");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fig2_baseline.dot"), step_graph(3, Variant::ModifiedBaseline).to_dot("baseline")).unwrap();
    std::fs::write(dir.join("fig2_ours.dot"), step_graph(3, Variant::FusedAll).to_dot("ours")).unwrap();
    std::fs::write(dir.join("fig2_alg1.dot"), alg1_graph(3).to_dot("alg1")).unwrap();
    println!("DOT graphs written to {}", dir.display());
    println!("paper: \"around three times fewer kernels\" for the fused variant.");
}

/// §IV-A / Fig. 4: ghost-layer memory, ours vs baseline.
fn ghost() {
    banner("Ghost-layer memory (paper §IV-A: ours = 1/3 of baseline)");
    let flow = SphereFlow::new(SphereConfig::scaled_small());
    let grid = MultiGrid::<f64, lbm_lattice::D3Q27>::build(
        flow.spec(),
        &lbm_problems::tunnel_boundary(flow.config.size, flow.config.levels, flow.config.u_inlet),
        flow.omega0,
    );
    let rep = memory_report::report(&grid);
    for (l, (real, ghost)) in rep.cells.iter().enumerate() {
        println!("level {l}: {real:>9} real cells, {ghost:>7} ghost cells");
    }
    println!(
        "ghost memory ours:     {:>10.1} KiB",
        rep.ghost_bytes as f64 / 1024.0
    );
    println!(
        "ghost memory baseline: {:>10.1} KiB (4 fine layers)",
        rep.baseline_ghost_bytes as f64 / 1024.0
    );
    println!("ratio: {:.3} (paper: 1/3)", rep.ghost_ratio());
}

/// Fig. 7: Ghia validation (fast configuration; see the
/// `lid_driven_cavity` example for the full run).
fn fig7() {
    banner("Fig. 7 — lid-driven cavity vs Ghia et al. (1982), Re = 100");
    for (levels, n) in [(1u32, 64usize), (3, 64)] {
        let cavity = Cavity::new(CavityConfig {
            n_finest: n,
            levels,
            wall_band: 4,
            quasi_2d: true,
            depth: 4,
            ..CavityConfig::default()
        });
        let mut eng =
            cavity.engine(Variant::FusedAll, Executor::new(DeviceModel::a100_40gb()));
        let transit = cavity.transit_coarse_steps();
        let out = diagnostics::run_to_steady(&mut eng, transit, 2e-6, 120 * transit);
        assert!(!out.diverged, "fig7 cavity diverged at step {}", out.steps);
        let (u_err, v_err) = cavity.validate(&eng);
        println!(
            "N={n} levels={levels}: {} in {} coarse steps; \
             u rms={:.4} max={:.4}; v rms={:.4} max={:.4}",
            if out.converged { "converged" } else { "hit step cap" },
            out.steps,
            u_err.rms, u_err.max, v_err.rms, v_err.max
        );
    }
    println!("(multi-level error is set by the coarse core resolution; the");
    println!(" paper's 240-cell cavity keeps a 60-cell core — see EXPERIMENTS.md)");
}

/// §VI-A: Palabos-like and waLBerla-like comparison on the cavity.
fn compare() {
    banner("§VI-A — comparison against conventional implementations");
    let n = 48usize;
    let levels = 3u32;
    let steps = 20usize;

    // Ours (4f on the virtual GPU).
    let ours = cavity_case(
        n,
        levels,
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        2,
        steps,
    );

    // waLBerla-like: 2³ blocks, no fusion.
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: 4,
        quasi_2d: true,
        depth: 8,
        block_size: 2,
        ..CavityConfig::default()
    });
    let mut wal = cavity.engine(
        Variant::ModifiedBaseline,
        Executor::new(DeviceModel::a100_40gb()),
    );
    wal.run(2);
    wal.exec.profiler().reset();
    let wal_wall = wal.run_timed(steps);
    let wal_mlups = wal.mlups_measured(steps as u64, wal_wall);
    let wal_modeled = wal.mlups_modeled(steps as u64);

    // Palabos-like: dense serial multi-pass CPU code.
    let cavity = Cavity::new(CavityConfig {
        n_finest: n,
        levels,
        wall_band: 4,
        quasi_2d: true,
        depth: 8,
        ..CavityConfig::default()
    });
    let mut pal = PalabosLike::<D3Q19>::new(cavity.spec(), cavity.boundary(), cavity.omega0);
    pal.init_equilibrium(|_, _| 1.0, |_, _| [0.0; 3]);
    pal.run(2);
    let t0 = Instant::now();
    pal.run(steps);
    let pal_wall = t0.elapsed();
    let pal_mlups =
        (pal.work_per_coarse_step() * steps as u64) as f64 / pal_wall.as_micros().max(1) as f64;

    let per_iter = |wall: std::time::Duration| wall.as_secs_f64() / steps as f64;
    println!("{:<28} {:>12} {:>12} {:>14}", "implementation", "s/iteration", "MLUPS", "modeled MLUPS");
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>14.1}",
        "ours (4f)", per_iter(ours.wall), ours.measured_mlups, ours.modeled_mlups
    );
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>14.1}",
        "waLBerla-like (2^3, unfused)",
        per_iter(wal_wall),
        wal_mlups,
        wal_modeled
    );
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>14}",
        "Palabos-like (dense serial)", per_iter(pal_wall), pal_mlups, "n/a (CPU)"
    );
    println!(
        "speedup vs Palabos-like: {:.1}x measured on this host",
        ours.measured_mlups / pal_mlups
    );
    println!(
        "modeled-GPU ours vs measured-CPU Palabos-like: {:.0}x — the paper's \
         \"more than two orders of magnitude\" CPU-to-GPU claim",
        ours.modeled_mlups / pal_mlups
    );
    println!(
        "speedup vs waLBerla-like: {:.1}x measured, {:.1}x modeled (paper: ~100x)",
        ours.measured_mlups / wal_mlups,
        ours.modeled_mlups / wal_modeled
    );
}

/// §VI-A: refined vs uniform time-to-solution on the cavity.
fn uniform() {
    banner("§VI-A — grid refinement vs uniform grid, same physical time");
    let n = 48usize;
    let phys_fine_steps = 96usize; // fixed physical horizon in finest steps
    // Uniform: every step is a finest step.
    let uni = cavity_case(
        n,
        1,
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        2,
        phys_fine_steps,
    );
    // Refined: a coarse step covers 2^(L-1) finest steps.
    let levels = 3u32;
    let refined_steps = phys_fine_steps >> (levels - 1);
    let refined = cavity_case(
        n,
        levels,
        Variant::FusedAll,
        Executor::new(DeviceModel::a100_40gb()),
        1,
        refined_steps,
    );
    println!(
        "uniform:  {:>8.3} s wall, {:>10.2e} updates ({} fine steps)",
        uni.wall.as_secs_f64(),
        (uni.work_per_step * uni.steps) as f64,
        phys_fine_steps
    );
    println!(
        "refined:  {:>8.3} s wall, {:>10.2e} updates ({} coarse steps)",
        refined.wall.as_secs_f64(),
        (refined.work_per_step * refined.steps) as f64,
        refined_steps
    );
    println!(
        "time-to-solution ratio uniform/refined: {:.2}x (paper: 1.18x for their cavity)",
        uni.wall.as_secs_f64() / refined.wall.as_secs_f64()
    );
}

/// Table I: flow over sphere, baseline vs ours, three sizes.
fn table1() {
    banner("Table I — flow over sphere (scaled 1/8; KBC, D3Q27, 3 levels)");
    println!("columns: size | distribution x1e6 (finest first) | MLUPS");
    for size in SphereConfig::table1_sizes(8) {
        let base = sphere_case(size, Variant::ModifiedBaseline, 1, 6);
        let ours = sphere_case(size, Variant::FusedAll, 1, 6);
        println!("{}", table1_row(size, &base, &ours));
    }
    println!("paper speedups (272/544/816 sizes): 2.20 / 1.40 / 1.30 —");
    println!("speedup decreases with size as interface work amortizes (§VI-B).");
}

/// Fig. 9: fusion-configuration ablation.
fn fig9() {
    banner("Fig. 9 — impact of fusion configurations (flow over sphere)");
    let size = SphereConfig::table1_sizes(8)[0];
    println!(
        "{:<22} {:>10} {:>14} {:>12} {:>10}",
        "configuration", "MLUPS", "modeled MLUPS", "launches/it", "syncs/it"
    );
    for variant in Variant::ALL {
        let r = sphere_case(size, variant, 1, 6);
        println!(
            "{:<22} {:>10.2} {:>14.1} {:>12.1} {:>10.1}",
            variant.name(),
            r.measured_mlups,
            r.modeled_mlups,
            r.launches_per_step(),
            r.syncs as f64 / r.steps as f64
        );
    }
}

/// Interior fast-path comparison → `BENCH_streaming.json`.
///
/// Runs every [`InteriorPath`] on an interior-dominated uniform cavity
/// (where the direction-major offset-table path's ≥1.5× measured-MLUPS
/// target is defined) and on a refined cavity (where the interface
/// machinery must stay neutral), then writes the machine-readable record
/// the CI check consumes. Modeled MLUPS must agree across paths: the
/// device model prices the kernel's declared traffic, which the path
/// choice does not change.
fn bench_json() {
    banner("Interior streaming fast path — BENCH_streaming.json");
    let paths = [InteriorPath::DirMajor, InteriorPath::General];

    // Headline: the streaming kernel in isolation (collision and interface
    // kernels are path-independent and would only dilute the ratio),
    // interleaved best-of-rounds against this machine's timing drift.
    let (kernel_n, kernel_rounds, kernel_iters) = (128, 6, 6);
    let kernel = stream_kernel_compare(kernel_n, kernel_rounds, kernel_iters);
    println!(
        "\nstream kernel only (uniform box n={kernel_n}, best of {kernel_rounds} \
         interleaved rounds x {kernel_iters} iters):"
    );
    println!("{:<12} {:>12}", "path", "MLUPS");
    for (p, m) in &kernel {
        println!("{:<12} {:>12.2}", p.name(), m);
    }
    let kget = |p: InteriorPath| kernel.iter().find(|(q, _)| *q == p).unwrap().1;
    let (kdm, kgen) = (kget(InteriorPath::DirMajor), kget(InteriorPath::General));
    println!("dir-major kernel speedup: {:.2}x vs general", kdm / kgen);

    let cases: [(&str, usize, u32, usize); 2] = [("uniform", 64, 1, 12), ("refined", 48, 2, 8)];
    let case_rounds = 3;
    let mut case_objs = Vec::new();
    for (label, n, levels, steps) in cases {
        // Whole-engine runs are interleaved best-of-rounds for the same
        // reason the kernel headline is: the collision/interface work that
        // dilutes the ratio is also what this machine's timing drift hides
        // behind.
        let mut results: Vec<(InteriorPath, CaseResult)> = paths
            .iter()
            .map(|&p| (p, streaming_case(n, levels, p, 2, steps)))
            .collect();
        for _ in 1..case_rounds {
            for (p, best) in results.iter_mut() {
                let r = streaming_case(n, levels, *p, 1, steps);
                if r.measured_mlups > best.measured_mlups {
                    *best = r;
                }
            }
        }
        println!(
            "\n{label} cavity (n={n}, levels={levels}, {steps} steps, best of {case_rounds} rounds):"
        );
        println!("{:<12} {:>12} {:>14}", "path", "MLUPS", "modeled MLUPS");
        for (p, r) in &results {
            println!(
                "{:<12} {:>12.2} {:>14.1}",
                p.name(),
                r.measured_mlups,
                r.modeled_mlups
            );
        }
        let get = |p: InteriorPath| &results.iter().find(|(q, _)| *q == p).unwrap().1;
        let dm = get(InteriorPath::DirMajor);
        let gen = get(InteriorPath::General);
        println!(
            "dir-major speedup: {:.2}x vs general (modeled ratio vs general: {:.3})",
            dm.measured_mlups / gen.measured_mlups,
            dm.modeled_mlups / gen.modeled_mlups,
        );
        let path_objs: Vec<String> = results
            .iter()
            .map(|(p, r)| {
                format!(
                    "      {{ \"path\": \"{}\", \"measured_mlups\": {:.3}, \
                     \"modeled_mlups\": {:.3}, \"wall_s\": {:.6} }}",
                    p.name(),
                    r.measured_mlups,
                    r.modeled_mlups,
                    r.wall.as_secs_f64()
                )
            })
            .collect();
        case_objs.push(format!(
            "    {{\n      \"case\": \"{label}\", \"n\": {n}, \"levels\": {levels}, \
             \"steps\": {steps},\n      \"paths\": [\n{}\n      ],\n      \
             \"speedup_measured_dir_major_vs_general\": {:.4},\n      \
             \"modeled_ratio_dir_major_vs_general\": {:.4}\n    }}",
            path_objs.join(",\n"),
            dm.measured_mlups / gen.measured_mlups,
            dm.modeled_mlups / gen.modeled_mlups,
        ));
    }
    let kernel_objs: Vec<String> = kernel
        .iter()
        .map(|(p, m)| format!("      {{ \"path\": \"{}\", \"measured_mlups\": {:.3} }}", p.name(), m))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"streaming_fastpath\",\n  \"device_model\": \"a100_40gb\",\n  \
         \"stream_kernel\": {{\n    \"case\": \"uniform box n={kernel_n} B=8, stream kernel only, \
         best of {kernel_rounds} interleaved rounds\",\n    \
         \"iters\": {kernel_iters},\n    \"paths\": [\n{}\n    ],\n    \
         \"speedup_dir_major_vs_general\": {:.4}\n  }},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        kernel_objs.join(",\n"),
        kdm / kgen,
        case_objs.join(",\n")
    );
    std::fs::write("BENCH_streaming.json", &json).unwrap();
    println!("\nwrote BENCH_streaming.json");
}

/// Eager vs wave-scheduled graph execution → `BENCH_graph.json` and the
/// chrome://tracing span file `BENCH_graph_trace.json`.
///
/// Both modes execute the same unified step program; the graph mode
/// replaces the per-kernel barriers with the `Schedule::from_graph` wave
/// plan, so its measured sync count per step must equal the schedule's —
/// the CI smoke check asserts the `sync_match` field this writes.
fn graph_report() {
    banner("Graph execution — eager vs wave-scheduled (BENCH_graph.json)");
    let (n, levels, warmup, steps) = (48usize, 3u32, 2usize, 8usize);
    let mut case_objs = Vec::new();
    let mut trace: Option<String> = None;
    for variant in [Variant::ModifiedBaseline, Variant::FusedAll] {
        let (eager, einfo) = graph_case(n, levels, variant, ExecMode::Eager, warmup, steps);
        let (graphr, ginfo) = graph_case(n, levels, variant, ExecMode::Graph, warmup, steps);
        let eager_syncs = eager.syncs as f64 / steps as f64;
        let graph_syncs = graphr.syncs as f64 / steps as f64;
        let sync_match = graphr.syncs == (ginfo.schedule_syncs * steps) as u64;
        let wave_match = ginfo.waves == (ginfo.schedule_waves * steps) as u64;
        println!(
            "\ncavity n={n} L={levels} {} — schedule: {} kernels, {} waves, {} syncs per step",
            variant.name(),
            ginfo.schedule_kernels,
            ginfo.schedule_waves,
            ginfo.schedule_syncs,
        );
        println!(
            "{:<8} {:>12} {:>14} {:>12} {:>12}",
            "mode", "MLUPS", "modeled MLUPS", "syncs/step", "waves/step"
        );
        println!(
            "{:<8} {:>12.2} {:>14.1} {:>12.1} {:>12}",
            "eager", eager.measured_mlups, eager.modeled_mlups, eager_syncs, "-"
        );
        println!(
            "{:<8} {:>12.2} {:>14.1} {:>12.1} {:>12.1}",
            "graph",
            graphr.measured_mlups,
            graphr.modeled_mlups,
            graph_syncs,
            ginfo.waves as f64 / steps as f64
        );
        println!(
            "sync check: measured {} == schedule {} x {} steps: {}",
            graphr.syncs,
            ginfo.schedule_syncs,
            steps,
            if sync_match { "OK" } else { "MISMATCH" }
        );
        println!("\nper-wave summary (one traced step):");
        println!("{}", ginfo.wave_summary);

        // Per-wave span aggregation of the traced step.
        let mut waves: Vec<(u32, u64, u64, f64)> = Vec::new(); // (wave, kernels, bytes, wall_us)
        for s in &ginfo.spans {
            let w = s.wave.unwrap_or(u32::MAX);
            match waves.iter_mut().find(|(id, ..)| *id == w) {
                Some((_, k, b, t)) => {
                    *k += 1;
                    *b += s.bytes;
                    *t += s.dur_us;
                }
                None => waves.push((w, 1, s.bytes, s.dur_us)),
            }
        }
        waves.sort_by_key(|(id, ..)| *id);
        let wave_objs: Vec<String> = waves
            .iter()
            .map(|(id, k, b, t)| {
                format!(
                    "        {{ \"wave\": {id}, \"kernels\": {k}, \"bytes\": {b}, \
                     \"wall_us\": {t:.3} }}"
                )
            })
            .collect();
        case_objs.push(format!(
            "    {{\n      \"case\": \"cavity n={n} L={levels} {}\",\n      \
             \"schedule\": {{ \"kernels\": {}, \"waves\": {}, \"syncs\": {} }},\n      \
             \"eager\": {{ \"measured_mlups\": {:.3}, \"modeled_mlups\": {:.3}, \
             \"syncs_per_step\": {:.1}, \"launches_per_step\": {:.1} }},\n      \
             \"graph\": {{ \"measured_mlups\": {:.3}, \"modeled_mlups\": {:.3}, \
             \"syncs_per_step\": {:.1}, \"waves_per_step\": {:.1}, \
             \"spans_per_step\": {} }},\n      \
             \"sync_match\": {sync_match},\n      \"wave_match\": {wave_match},\n      \
             \"waves\": [\n{}\n      ]\n    }}",
            variant.name(),
            ginfo.schedule_kernels,
            ginfo.schedule_waves,
            ginfo.schedule_syncs,
            eager.measured_mlups,
            eager.modeled_mlups,
            eager_syncs,
            eager.launches_per_step(),
            graphr.measured_mlups,
            graphr.modeled_mlups,
            graph_syncs,
            ginfo.waves as f64 / steps as f64,
            ginfo.spans.len(),
            wave_objs.join(",\n"),
        ));
        // Keep the chrome trace of the most fused graph run (the last).
        trace = Some(ginfo.chrome_trace);
        let _ = einfo; // eager spans are recorded but not exported
    }
    let json = format!(
        "{{\n  \"bench\": \"graph_exec\",\n  \"device_model\": \"a100_40gb\",\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        case_objs.join(",\n")
    );
    std::fs::write("BENCH_graph.json", &json).unwrap();
    std::fs::write("BENCH_graph_trace.json", trace.unwrap()).unwrap();
    println!("\nwrote BENCH_graph.json and BENCH_graph_trace.json");
}

/// One `(velocity set, block size)` group of the layout sweep: runs every
/// layout on the identical workload, prints the comparison rows, and
/// returns the JSON fragment plus whether the physics digests agreed.
fn layout_group<V: lbm_lattice::VelocitySet>(
    n: usize,
    b: usize,
    layouts: &[Layout],
    warmup: usize,
    steps: usize,
) -> (String, bool) {
    let runs: Vec<(Layout, CaseResult, String)> = layouts
        .iter()
        .map(|&l| {
            let (case, digest) = layout_case::<V>(n, b, l, warmup, steps);
            (l, case, digest)
        })
        .collect();
    let digests_match = runs.windows(2).all(|w| w[0].2 == w[1].2);
    println!("\n{} B={b} (lid-driven box n={n}, 2 levels, {steps} steps):", V::NAME);
    println!(
        "{:<14} {:>12} {:>14} {:>18}",
        "layout", "MLUPS", "modeled MLUPS", "digest"
    );
    for (l, r, d) in &runs {
        println!(
            "{:<14} {:>12.2} {:>14.1} {:>18}",
            l.label(),
            r.measured_mlups,
            r.modeled_mlups,
            d
        );
    }
    println!(
        "digest gate: {}",
        if digests_match { "OK (bit-identical)" } else { "MISMATCH" }
    );
    let layout_objs: Vec<String> = runs
        .iter()
        .map(|(l, r, d)| {
            format!(
                "        {{ \"layout\": \"{}\", \"measured_mlups\": {:.3}, \
                 \"modeled_mlups\": {:.3}, \"wall_s\": {:.6}, \"digest\": \"{d}\" }}",
                l.name(),
                r.measured_mlups,
                r.modeled_mlups,
                r.wall.as_secs_f64()
            )
        })
        .collect();
    let json = format!(
        "    {{\n      \"velocity_set\": \"{}\", \"block_size\": {b}, \
         \"digests_match\": {digests_match},\n      \"layouts\": [\n{}\n      ]\n    }}",
        V::NAME,
        layout_objs.join(",\n")
    );
    (json, digests_match)
}

/// Memory-layout sweep → `BENCH_layout.json`.
///
/// Runs the three population layouts (block-SoA, cell-AoS, tiled AoSoA)
/// on the same two-level lid-driven workload for every combination of
/// block size B ∈ {4, 8} and velocity set ∈ {D3Q19, D3Q27}, and gates on
/// the physics digests: the layout only moves values around in memory, so
/// every group must be bit-identical across its three runs. The modeled
/// MLUPS column carries the coalescing penalty of the non-SoA layouts
/// (DESIGN.md §9); the digest gate is what the CI smoke asserts.
fn layout_sweep() {
    banner("Memory layout sweep — SoA / AoS / tiled (BENCH_layout.json)");
    let (n, warmup, steps) = (32usize, 1usize, 4usize);
    let layouts = [
        Layout::BlockSoA,
        Layout::CellAoS,
        Layout::Tiled { width: 32 },
    ];
    let mut group_objs = Vec::new();
    let mut all_match = true;
    for b in [4usize, 8] {
        for (json, ok) in [
            layout_group::<D3Q19>(n, b, &layouts, warmup, steps),
            layout_group::<D3Q27>(n, b, &layouts, warmup, steps),
        ] {
            group_objs.push(json);
            all_match &= ok;
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"layout_sweep\",\n  \"device_model\": \"a100_40gb\",\n  \
         \"n\": {n}, \"levels\": 2, \"steps\": {steps},\n  \
         \"all_digests_match\": {all_match},\n  \"groups\": [\n{}\n  ]\n}}\n",
        group_objs.join(",\n")
    );
    std::fs::write("BENCH_layout.json", &json).unwrap();
    println!("\nwrote BENCH_layout.json (all digests match: {all_match})");
}

/// Block-parallel kernel execution sweep → `BENCH_parallel.json`.
///
/// Runs the refined cavity at 1/2/4/8 pool threads and digests the final
/// state of each run: the staged deterministic Accumulate (DESIGN.md §10)
/// makes every digest bit-identical regardless of thread count — the
/// `digests_match` field is what CI gates on. Speedups are reported
/// honestly for this host and are **not** gated: they are entirely
/// machine-dependent (a single-core container pays pool overhead and shows
/// ≈1x or below; see EXPERIMENTS.md).
fn thread_sweep() {
    banner("Block-parallel execution — thread sweep (BENCH_parallel.json)");
    let (n, levels, warmup, steps) = (48usize, 2u32, 1usize, 6usize);
    let counts = [1usize, 2, 4, 8];
    let host_cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let results: Vec<ThreadSweepResult> = counts
        .iter()
        .map(|&t| thread_sweep_case(n, levels, t, warmup, steps))
        .collect();
    let digests_match = results.windows(2).all(|w| w[0].digest == w[1].digest);
    let base_wall = results[0].case.wall.as_secs_f64();
    println!(
        "\ncavity n={n} L={levels}, {steps} steps, host cores: {host_cores}"
    );
    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>7} {:>18}",
        "threads", "wall s", "speedup vs 1", "MLUPS", "staged", "digest"
    );
    for r in &results {
        println!(
            "{:>7} {:>10.4} {:>12.2} {:>12.2} {:>7} {:>18}",
            r.threads,
            r.case.wall.as_secs_f64(),
            base_wall / r.case.wall.as_secs_f64(),
            r.case.measured_mlups,
            r.staged,
            r.digest
        );
    }
    println!(
        "digest gate: {}",
        if digests_match { "OK (bit-identical at every thread count)" } else { "MISMATCH" }
    );
    if host_cores <= 1 {
        println!("note: single-core host — parallel speedup is not observable here.");
    }
    let case_objs: Vec<String> = results
        .iter()
        .map(|r| {
            let ptb: Vec<String> = r.per_thread_blocks.iter().map(u64::to_string).collect();
            format!(
                "    {{ \"threads\": {}, \"wall_s\": {:.6}, \"speedup_vs_1\": {:.4}, \
                 \"measured_mlups\": {:.3}, \"modeled_mlups\": {:.3}, \"staged\": {}, \
                 \"digest\": \"{}\", \"per_thread_blocks\": [{}] }}",
                r.threads,
                r.case.wall.as_secs_f64(),
                base_wall / r.case.wall.as_secs_f64(),
                r.case.measured_mlups,
                r.case.modeled_mlups,
                r.staged,
                r.digest,
                ptb.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"thread_sweep\",\n  \"device_model\": \"a100_40gb\",\n  \
         \"n\": {n}, \"levels\": {levels}, \"steps\": {steps},\n  \
         \"host_cores\": {host_cores},\n  \"digests_match\": {digests_match},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        case_objs.join(",\n")
    );
    std::fs::write("BENCH_parallel.json", &json).unwrap();
    println!("\nwrote BENCH_parallel.json (digests match: {digests_match})");
}

/// Crash-safe checkpoint/restart equivalence → `BENCH_checkpoint.json`.
///
/// Every case runs the refined cavity twice: uninterrupted to the step
/// target, and interrupted-midway → snapshot to a real file → fresh engine
/// → restore → finish. The two final-state digests must be bit-identical —
/// that equality (per case, plus a save-under-one-layout /
/// restore-under-another cross case) is what CI gates on. Snapshot sizes
/// and save/load throughput are reported, not gated (machine-dependent).
fn checkpoint_report() {
    banner("Checkpoint/restart — interrupt/resume equivalence (BENCH_checkpoint.json)");
    let (n, levels, interrupt_at, total) = (32usize, 2u32, 3usize, 7usize);
    let soa = Layout::BlockSoA;
    // layouts × exec modes at 1 thread, both modes again at 8 threads,
    // plus the cross-layout restore (canonical-format witness).
    let plan: Vec<(Layout, Layout, ExecMode, usize)> = vec![
        (soa, soa, ExecMode::Eager, 1),
        (Layout::CellAoS, Layout::CellAoS, ExecMode::Eager, 1),
        (Layout::Tiled { width: 32 }, Layout::Tiled { width: 32 }, ExecMode::Eager, 1),
        (soa, soa, ExecMode::Graph, 1),
        (Layout::CellAoS, Layout::CellAoS, ExecMode::Graph, 1),
        (Layout::Tiled { width: 32 }, Layout::Tiled { width: 32 }, ExecMode::Graph, 1),
        (soa, soa, ExecMode::Eager, 8),
        (soa, soa, ExecMode::Graph, 8),
        (soa, Layout::Tiled { width: 32 }, ExecMode::Eager, 1),
    ];
    let results: Vec<(CheckpointCaseResult, bool)> = plan
        .iter()
        .map(|&(save, restore, mode, threads)| {
            let cross = save != restore;
            (
                checkpoint_case(n, levels, save, restore, mode, threads, interrupt_at, total),
                cross,
            )
        })
        .collect();
    let all_match = results.iter().all(|(r, _)| r.digests_match());
    let cross_layout_match = results
        .iter()
        .filter(|(_, cross)| *cross)
        .all(|(r, _)| r.digests_match());
    println!(
        "\ncavity n={n} L={levels}, interrupt at {interrupt_at}/{total} coarse steps"
    );
    println!(
        "{:>34} {:>12} {:>11} {:>11} {:>6}",
        "case", "snapshot B", "save MiB/s", "load MiB/s", "match"
    );
    for (r, _) in &results {
        println!(
            "{:>34} {:>12} {:>11.1} {:>11.1} {:>6}",
            r.label,
            r.snapshot_bytes,
            r.save_mib_s(),
            r.load_mib_s(),
            r.digests_match()
        );
    }
    println!(
        "restart gate: {}",
        if all_match { "OK (resume bit-identical to uninterrupted)" } else { "MISMATCH" }
    );
    let case_objs: Vec<String> = results
        .iter()
        .map(|(r, cross)| {
            format!(
                "    {{ \"case\": \"{}\", \"cross_layout\": {}, \"snapshot_bytes\": {}, \
                 \"save_s\": {:.6}, \"load_s\": {:.6}, \
                 \"save_mib_s\": {:.2}, \"load_mib_s\": {:.2}, \
                 \"uninterrupted_digest\": \"{}\", \"resume_digest\": \"{}\", \
                 \"digests_match\": {} }}",
                r.label,
                cross,
                r.snapshot_bytes,
                r.save_s,
                r.load_s,
                r.save_mib_s(),
                r.load_mib_s(),
                r.uninterrupted_digest,
                r.resume_digest,
                r.digests_match()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"checkpoint\",\n  \"device_model\": \"a100_40gb\",\n  \
         \"n\": {n}, \"levels\": {levels}, \"interrupt_at\": {interrupt_at}, \
         \"total_steps\": {total},\n  \"all_match\": {all_match},\n  \
         \"cross_layout_match\": {cross_layout_match},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        case_objs.join(",\n")
    );
    std::fs::write("BENCH_checkpoint.json", &json).unwrap();
    println!("\nwrote BENCH_checkpoint.json (all match: {all_match})");
}

/// Fig. 1 / §VI-B: airplane-tunnel capacity claim.
fn fig1(paper_scale: bool) {
    banner("Fig. 1 / §VI-B — airplane wind-tunnel memory capacity");
    let device = DeviceModel::a100_40gb();
    let cfg = if paper_scale {
        AirplaneConfig::paper_scale()
    } else {
        AirplaneConfig::scaled_small()
    };
    println!(
        "domain {}×{}×{} finest, {} levels{}",
        cfg.size[0],
        cfg.size[1],
        cfg.size[2],
        cfg.levels,
        if paper_scale { " (paper scale)" } else { " (scaled; pass --paper-scale for 1596×840×840)" }
    );
    let flow = AirplaneFlow::new(cfg);
    let t0 = Instant::now();
    let (refined, uniform, refined_fits, uniform_fits) = flow.capacity_claim(&device);
    println!("octree census took {:.1} s", t0.elapsed().as_secs_f64());
    println!("\nrefined layout:\n{refined}");
    println!("uniform finest (AA single buffer):\n{uniform}");
    println!("refined fits 40 GB: {refined_fits}; uniform fits 40 GB: {uniform_fits}");
    println!(
        "largest uniform cube (AA, f32): {}³ — paper: ≈794³",
        max_uniform_cube(&device, 19, 4, 1)
    );
}
