#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable locally with `ci/check.sh`.
#
# 1. release build + the test suite of every workspace crate, run twice:
#    once with the default kernel pool, once with `LBM_THREADS=8`, which
#    widens every default executor's pool (the gate of the in-place
#    Accumulate, whose bits must not depend on the width). The tests are
#    the correctness contract: the grid build against an independent
#    coordinate classifier (the build oracle), the streaming gather against
#    a per-cell oracle, bit-identity across fusion variants, exec modes,
#    thread counts and restart, pinned golden digests, conservation, the
#    graph-mode sync/wave counts, the octree `census` against the cells
#    the build allocates, and the step plan built once: a steady-state
#    step allocates at most once per launch, and not at all on a
#    one-thread pool (`tests/allocations.rs`; DESIGN.md §4, §8, §10,
#    §11). The health guard's passes run on the pool too; two tests pin
#    them at pool widths 1, 2 and 8 whatever `LBM_THREADS` says:
#    `tests/determinism.rs::probe_record_is_bit_identical_at_every_pool_width`
#    (the guard's pool probe against the serial `MultiGrid::probe`) and
#    `tests/checkpoint.rs::rollback_restores_the_recovery_step_byte_for_byte`
#    (the block-wise recovery-point copy);
# 2. clippy with warnings denied, test targets included;
# 3. rustdoc with warnings denied, so no doc link dangles;
# 4. the cheapest `report` experiments, so the paper-figure binary still
#    runs: `fig2`, `ghost` (the §IV-A ghost-layer memory, read off the
#    accumulators the engine allocates), `fig1` at its default scale
#    (the airplane's memory plan from the octree census, the path the
#    paper-scale run takes; about 50 ms) and `compare` (the §VI-A
#    comparators end to end: the Palabos-like solver and the
#    waLBerla-like engine, 2³ blocks and no fusion; about 1 s); then the
#    `quickstart` example, the everyday end-to-end run (build time,
#    MLUPS, mass drift; about 1 s);
# 5. on x86-64, a codegen guard: every `collide_block_wide` and
#    `fused_block_wide` symbol of the release `report` binary must contain
#    `zmm` (AVX-512) instructions. A refactor that turns a block fn back
#    into a closure compiles it for the baseline ISA and silently loses the
#    wide instance (DESIGN.md §4, "Lane-parallel collision"). Needs
#    `objdump` (binutils);
# 6. the benchmark (`perfbench/`, its own package calling the public API):
#    `cargo check` of its binary in a target directory of its own, so an
#    API change that breaks it fails here, then the self-tests of its
#    analysis code. Cargo rewrites the package's stale `Cargo.lock`, so the
#    committed one is put back afterwards. Timing itself lives in
#    `perfbench/run.py` and is not gated here.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
LBM_THREADS=8 cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo run --release -q -p lbm-bench --bin report -- fig2
cargo run --release -q -p lbm-bench --bin report -- ghost
cargo run --release -q -p lbm-bench --bin report -- fig1
cargo run --release -q -p lbm-bench --bin report -- compare
cargo run --release -q --example quickstart
if [ "$(uname -m)" = x86_64 ]; then
    objdump -d -C target/release/report | awk '
        /^[0-9a-f]+ <.*(collide|fused)_block_wide.*>:$/ { sym = $0; seen++; zmm[sym] = 0; next }
        /^[0-9a-f]+ </ { sym = "" }
        sym != "" && /zmm/ { zmm[sym]++ }
        END {
            if (seen == 0) { print "codegen guard: no *_block_wide symbol in report"; exit 1 }
            for (s in zmm) if (zmm[s] == 0) { print "codegen guard: no zmm in " s; bad = 1 }
            if (bad) exit 1
            print "codegen guard: " seen " wide block fns, all use zmm"
        }'
fi
cp perfbench/Cargo.lock target/perfbench.Cargo.lock
trap 'cp target/perfbench.Cargo.lock perfbench/Cargo.lock' EXIT
cargo check --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench-check
python3 -m unittest discover -s perfbench/tests

echo "ci/check.sh: all checks passed"
