#!/usr/bin/env python3
"""Benchmark of the refined-LBM engine: one workload per invocation.

    python3 perfbench/run.py --workload box2_bgk --seed 1 --seconds 30 --trace 0

Builds the `perfbench` measurement binary (a package of its own next to
this file, depending on the repository by path), runs it, checks its
outputs, and prints every metric by name and unit on stderr. The last line
of stdout is the result record
`{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The raw record,
the reduced results and (for `--trace 1`) the chrome trace are written to
`.bench_out/` in the working directory. Exits non-zero when the build fails
or any output check fails. See METRICS.md for what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

WORKLOADS = ("box2_bgk", "sphere3_kbc", "cavity3_guarded")
DEFAULT_SEED = 1
# Seconds the measurement binary may take before it is stopped.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds the release binary; returns its path or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return Path(env["CARGO_TARGET_DIR"]).resolve() / "release" / "perfbench"


def measure(binary, args, out_dir):
    """Runs one measurement; returns the raw record or None on failure."""
    cmd = [str(binary), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: perfbench exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    raw = measure(binary, args, out_dir)
    if raw is None:
        return 1

    checks = raw["checks"]
    if args.trace:
        metrics, (ok, detail) = analysis.per_layer(raw)
        checks = checks + [{"name": "kernel_sum_reconciles", "ok": ok, "detail": detail}]
        units = analysis.per_layer_units()
        extra = {"llc_bytes": raw["llc_bytes"], "copy_array_bytes": raw["copy_array_bytes"],
                 "window_steps": raw["window_steps"], "trace_file": raw["trace_file"]}
    else:
        metrics, extra = analysis.end_to_end(raw)
        units = analysis.END_TO_END_UNITS
    record = analysis.result(checks, metrics, units)

    stem = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    stem.with_suffix(".raw.json").write_text(json.dumps(raw))
    stem.with_suffix(".results.json").write_text(
        json.dumps({"result": record, "checks": checks, "details": extra}, indent=1))

    for c in checks:
        print(f"check {c['name']:<22} {'ok' if c['ok'] else 'FAILED'} {c['detail']}",
              file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name:<38} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"details: {json.dumps(extra)}", file=sys.stderr)
    line = analysis.encode(record)
    analysis.decode(line)  # the printed record must satisfy its own format
    print(line)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
