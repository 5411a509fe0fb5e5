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
# 5. the self-tests of the benchmark's analysis code (`perfbench/`). Timing
#    itself lives in `perfbench/run.py` and is not gated here.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo run --release -q -p lbm-bench --bin report -- fig2
python3 -m unittest discover -s perfbench/tests

echo "ci/check.sh: all checks passed"
