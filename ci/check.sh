#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable locally with `ci/check.sh`.
#
# 1. release build + the test suite of every workspace crate (the
#    equivalence and conservation tests are the correctness contract for
#    the streaming fast path);
# 2. clippy with warnings denied;
# 3. the gates of the committed BENCH_*.json artifacts, checked as
#    committed, with no re-run (`check_artifacts` below):
#    - BENCH_streaming.json parses (speedups are machine-dependent and NOT
#      gated — see DESIGN.md §4);
#    - BENCH_graph.json: the measured graph-mode sync and wave counts equal
#      the schedule's (`sync_match`, `wave_match`) — a correctness property
#      of the wave scheduler, not a performance number — and the chrome
#      trace has spans;
#    - BENCH_parallel.json: the state digest is bit-identical at every pool
#      width (`digests_match`) — the staged Accumulate's ordered merge is a
#      determinism contract (DESIGN.md §10). Speedups are NOT gated (CI
#      runners are often single-core; see EXPERIMENTS.md);
#    - BENCH_checkpoint.json: every interrupted-and-resumed run is
#      bit-identical to its uninterrupted twin — crash-safe restart is a
#      correctness contract (DESIGN.md §11). Snapshot sizes and save/load
#      throughput are reported, not gated.
# 4. with CI_BENCH=1: regenerate every artifact above through its `report`
#    subcommand, then run the same gates on the fresh files.
set -euo pipefail
cd "$(dirname "$0")/.."

check_artifacts() {
    python3 - <<'EOF'
import json

d = json.load(open("BENCH_streaming.json"))
print("streaming ok:", d["stream_kernel"]["speedup_dir_major_vs_general"], "x vs general")

d = json.load(open("BENCH_graph.json"))
for c in d["cases"]:
    assert c["sync_match"], f"graph-mode sync count != schedule sync count: {c}"
    assert c["wave_match"], f"graph-mode wave count != schedule wave count: {c}"
t = json.load(open("BENCH_graph_trace.json"))
assert t["traceEvents"], "chrome trace has no spans"
print("graph ok:", len(d["cases"]), "cases sync-matched,", len(t["traceEvents"]), "trace spans")

d = json.load(open("BENCH_parallel.json"))
assert d["digests_match"], "thread sweep: physics digests differ across thread counts"
assert len(d["cases"]) >= 4, f"expected >= 4 thread counts, got {len(d['cases'])}"
assert any(c["staged"] for c in d["cases"]), "no case exercised the staged Accumulate"
assert any(not c["staged"] for c in d["cases"]), "no case exercised the serial atomic path"
for c in d["cases"]:
    # The per-thread counter unit is executed *blocks* (DESIGN.md §10).
    assert "per_thread_blocks" in c, f"missing per_thread_blocks: {c}"
    if c["threads"] > 1:
        assert len(c["per_thread_blocks"]) <= c["threads"], f"more counters than threads: {c}"
print("thread-sweep ok:", len(d["cases"]), "pool widths bit-identical, digest",
      d["cases"][0]["digest"])

d = json.load(open("BENCH_checkpoint.json"))
assert d["all_match"], "checkpoint: some resumed run diverged from its uninterrupted twin"
assert len(d["cases"]) >= 4, f"expected >= 4 restart cases, got {len(d['cases'])}"
for c in d["cases"]:
    assert c["resume_digest"] == c["uninterrupted_digest"], f"restart diverged: {c}"
    assert c["digests_match"], f"case flag disagrees with digests: {c}"
    assert c["snapshot_bytes"] > 0, f"empty snapshot: {c}"
print("checkpoint ok:", len(d["cases"]), "restart cases bit-identical,",
      d["cases"][0]["snapshot_bytes"], "bytes/snapshot")
EOF
}

cargo build --release
cargo test --workspace -q
cargo clippy --workspace -- -D warnings
check_artifacts

if [[ "${CI_BENCH:-0}" == "1" ]]; then
    for report in bench-json graph thread-sweep checkpoint; do
        cargo run --release -q -p lbm-bench --bin report -- "$report"
    done
    check_artifacts
fi

echo "ci/check.sh: all checks passed"
