#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable locally with `ci/check.sh`.
#
# 1. release build + the test suite of every workspace crate. The tests are
#    the correctness contract: the streaming gather against a per-cell
#    oracle, bit-identity across fusion variants, exec modes, thread counts
#    and restart, pinned golden digests, conservation, and the graph-mode
#    sync/wave counts (DESIGN.md §4, §8, §10, §11);
# 2. clippy with warnings denied, test targets included;
# 3. rustdoc with warnings denied, so no doc link dangles;
# 4. the cheapest `report` experiment, so the paper-figure binary still runs;
# 5. on x86-64, a codegen guard: every `collide_block_wide` and
#    `fused_block_wide` symbol of the release `report` binary must contain
#    `zmm` (AVX-512) instructions. A refactor that turns a block fn back
#    into a closure compiles it for the baseline ISA and silently loses the
#    wide instance (DESIGN.md §4, "Lane-parallel collision"). Needs
#    `objdump` (binutils);
# 6. the self-tests of the benchmark's analysis code (`perfbench/`). Timing
#    itself lives in `perfbench/run.py` and is not gated here.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo run --release -q -p lbm-bench --bin report -- fig2
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
python3 -m unittest discover -s perfbench/tests

echo "ci/check.sh: all checks passed"
