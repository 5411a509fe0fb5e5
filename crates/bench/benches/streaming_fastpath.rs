//! Interior streaming fast-path microbenchmark: direction-major
//! offset-table gather vs the fully general link-resolving loop, on
//! interior-dominated and refined cavities.
//!
//! The two paths are bit-identical (see
//! `crates/core/tests/fastpath_equivalence.rs`); this bench isolates their
//! cost. `BENCH_streaming.json` regenerates from the same cases via
//! `cargo run --release -p lbm-bench --bin report -- bench-json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use lbm_core::InteriorPath;

const PATHS: [InteriorPath; 2] = [InteriorPath::DirMajor, InteriorPath::General];

fn streaming_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_fastpath");
    group.sample_size(10);
    // (label, finest cells per side, levels): the uniform case is
    // interior-dominated (the 1.5× target), the refined case checks the
    // interface machinery stays neutral.
    for (label, n, levels) in [("uniform", 64usize, 1u32), ("refined", 48, 2)] {
        for path in PATHS {
            let cavity = lbm_problems::cavity::Cavity::new(lbm_problems::cavity::CavityConfig {
                n_finest: n,
                levels,
                wall_band: if levels == 1 { 0 } else { 4 },
                quasi_2d: false,
                block_size: 8,
                ..Default::default()
            });
            let mut eng = cavity.engine_with(
                lbm_core::Variant::FusedAll,
                lbm_gpu::Executor::new(lbm_gpu::DeviceModel::a100_40gb()),
                |b| b.interior_path(path),
            );
            eng.run(1); // warm the fields
            group.throughput(Throughput::Elements(eng.work_per_coarse_step()));
            group.bench_with_input(BenchmarkId::new(path.name(), label), &(), |b, _| {
                b.iter(|| eng.step())
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(5));
    targets = streaming_fastpath
}
criterion_main!(benches);
