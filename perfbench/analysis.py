"""Reduction of the raw measurement record (printed by the `perfbench`
binary) to the benchmark's metrics: statistics, the kernel-name to family
mapping, roofline arithmetic and the result record.

Every function here is pure, so `tests/test_analysis.py` checks it without
building or running the engine.
"""

import json
import math
import re

# Kernel families, in report order. Kernel names carry the level as a
# numeric suffix (CASE1, SEO0, ...); DESIGN.md names the kernels.
FAMILIES = ("fused", "stream", "collide", "acc", "merge", "reset")

_FAMILY_PATTERNS = (
    (re.compile(r"CASE\d+"), "fused"),
    (re.compile(r"(?:SEO|S|E|O)\d+"), "stream"),
    (re.compile(r"C\d+"), "collide"),
    (re.compile(r"A\d+"), "acc"),
    (re.compile(r"M\d+"), "merge"),
    (re.compile(r"R\d+"), "reset"),
)

# The end-to-end metrics (tracing off) and their units. Engine speed is
# reported relative to the reference kernel timed beside it (see
# `end_to_end`); the absolute figures go to the results file.
END_TO_END_UNITS = {
    "mlups_vs_ref": "x",
    "mlups_1t_vs_ref": "x",
    "step_p50_vs_ref": "ref_steps",
    "guard_step_vs_ref": "ref_steps",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "modeled_mlups": "MLUPS",
    "pass_rate": "ratio",
}

# Per-family metrics and their units.
FAMILY_UNITS = {
    "ms_per_step": "ms",
    "ns_per_cell": "ns",
    "gbps": "GB/s",
    "roofline_frac": "ratio",
    "bytes_per_cell": "B",
    "launches_per_step": "count",
}

# The per-layer metrics beyond the kernel families and their units.
LAYER_UNITS = {
    "engine.step_ms": "ms",
    "engine.mlups": "MLUPS",
    "engine.unattributed_ms_per_step": "ms",
    "engine.syncs_per_step": "count",
    "engine.waves_per_step": "count",
    "runtime.schedule_ms": "ms",
    "gpu.thread_imbalance": "ratio",
    "gpu.modeled_us_per_step": "us",
    "lattice.collide_ns_per_cell": "ns",
    "core.build_ms": "ms",
    "core.init_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.restore_ms": "ms",
    "checkpoint.mib": "MiB",
    "probe.is_finite_ms": "ms",
    "probe.max_speed_ms": "ms",
    "probe.total_mass_ms": "ms",
    "host.gbps": "GB/s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units():
    """Every per-layer metric name with its unit, families first."""
    units = {}
    for fam in FAMILIES:
        for key, unit in FAMILY_UNITS.items():
            units[f"kernels.{fam}.{key}"] = unit
    units.update(LAYER_UNITS)
    return units


def family(kernel_name):
    """The family of a kernel name; an unknown name is an error, so a new
    kernel cannot silently drop out of the per-layer sums."""
    for pattern, fam in _FAMILY_PATTERNS:
        if pattern.fullmatch(kernel_name):
            return fam
    raise ValueError(f"kernel name {kernel_name!r} belongs to no family")


def median(values):
    """Median of a non-empty sample."""
    return percentile(values, 50.0)


def percentile(values, p):
    """The `p`-th percentile (0..100) by linear interpolation between the
    closest ranks (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside 0..100")
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def samples_beyond(n, p):
    """How many of `n` samples lie above the `p`-th percentile."""
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def sample_summary(values, p):
    """The `p`-th percentile with the sample count and the count beyond."""
    return {
        "value": percentile(values, p),
        "samples": len(values),
        "beyond": samples_beyond(len(values), p),
    }


def roofline_frac(achieved_gbps, host_gbps):
    """Share of the measured host bandwidth a kernel family achieved."""
    if host_gbps <= 0.0:
        raise ValueError("host bandwidth must be positive")
    return achieved_gbps / host_gbps


def family_metrics(kernels, steps, host_gbps):
    """Per-family metrics from the profiler's per-kernel records
    (`name`, `launches`, `cells`, `bytes`, `wall_us`) over `steps` coarse
    steps. A family with no launches, or one that declares no cells (the
    merge), reports 0 for the metrics it has no denominator for."""
    sums = {f: {"launches": 0, "cells": 0, "bytes": 0, "wall_us": 0.0} for f in FAMILIES}
    for k in kernels:
        s = sums[family(k["name"])]
        for key in s:
            s[key] += k[key]
    out = {}
    for fam, s in sums.items():
        wall_s = s["wall_us"] * 1e-6
        gbps = s["bytes"] / wall_s / 1e9 if wall_s > 0 else 0.0
        cells = s["cells"]
        out[f"kernels.{fam}.ms_per_step"] = s["wall_us"] / 1e3 / steps
        out[f"kernels.{fam}.ns_per_cell"] = s["wall_us"] * 1e3 / cells if cells else 0.0
        out[f"kernels.{fam}.gbps"] = gbps
        out[f"kernels.{fam}.roofline_frac"] = roofline_frac(gbps, host_gbps)
        out[f"kernels.{fam}.bytes_per_cell"] = s["bytes"] / cells if cells else 0.0
        out[f"kernels.{fam}.launches_per_step"] = s["launches"] / steps
    return out


def reconcile(raw, layers, tolerance=1e-3):
    """Checks that the family sums account for every kernel the profiler
    timed (its own total is an independent counter), so that families +
    unattributed make up the step wall time. Returns `(ok, detail)`. In
    eager mode kernels never overlap, so their sum may not exceed the step
    time; graph mode may run two at once."""
    fam_ms = sum(layers[f"kernels.{f}.ms_per_step"] for f in FAMILIES)
    prof_ms = raw["profiler_wall_us"] / 1e3 / raw["window_steps"]
    step_ms = layers["engine.step_ms"]
    unattributed = layers["engine.unattributed_ms_per_step"]
    problems = []
    if abs(fam_ms - prof_ms) > tolerance * max(prof_ms, 1e-9):
        problems.append(f"families {fam_ms:.4f} ms != profiler total {prof_ms:.4f} ms")
    if raw["mode"] == "eager" and unattributed < -tolerance * step_ms:
        problems.append(f"eager kernels exceed the step wall by {-unattributed:.4f} ms")
    detail = "; ".join(problems) or (
        f"families {fam_ms:.3f} + unattributed {unattributed:.3f} = step {step_ms:.3f} ms"
    )
    return (not problems, detail)


def rounds(step_ms, ref_ms, round_steps):
    """`(engine ms, reference ms)` summed over consecutive rounds of
    `round_steps` paired steps; a trailing partial round is dropped."""
    n = min(len(step_ms), len(ref_ms)) // round_steps
    return [
        (sum(step_ms[k * round_steps:(k + 1) * round_steps]),
         sum(ref_ms[k * round_steps:(k + 1) * round_steps]))
        for k in range(n)
    ]


def in_ref_steps(step_ms, ref_ms, ref_steps, round_steps):
    """Each step's wall time in units of one reference step, timed over
    the reference stretches of the step's own round (`ref_steps` reference
    steps after each engine step); a trailing partial round is dropped."""
    out = []
    for k in range(min(len(step_ms), len(ref_ms)) // round_steps):
        span = slice(k * round_steps, (k + 1) * round_steps)
        ref_step = sum(ref_ms[span]) / (round_steps * ref_steps)
        out.extend(s / ref_step for s in step_ms[span])
    return out


def guard_step(rel, round_steps):
    """Median over full rounds of each round's last step. Rounds are
    aligned with the cavity's health-check period, so there this is the
    step that runs the check and writes the snapshot; on a workload without
    a guard it is an ordinary step."""
    n = len(rel) // round_steps
    if n == 0:
        raise ValueError("a timed run needs at least one full round")
    return median(rel[round_steps - 1:n * round_steps:round_steps])


def paired(raw, suffix):
    """Relative and absolute throughput of one engine of a timed run
    (`suffix` "" for the `nproc` engine, "_1t" for its 1-thread twin).

    Per round, engine MLUPS over reference MLUPS; the reported figure is
    the median over rounds. Host drift slows the engine and the reference
    kernel timed moments later alike, so the ratio stays put where each
    MLUPS figure alone swings by tens of percent."""
    work, steps = raw["work_per_step"], raw["round_steps"]
    ref_work = raw["ref_cells"] * raw[f"ref_steps{suffix}"]
    pairs = rounds(raw[f"step_ms{suffix}"], raw[f"ref_ms{suffix}"], steps)
    if not pairs:
        raise ValueError("a timed run needs at least one full round")
    return {
        "vs_ref": median([work * r / (ref_work * s) for s, r in pairs]),
        "mlups": median([work * steps / (s * 1e3) for s, _ in pairs]),
        "ref_mlups": median([ref_work * steps / (r * 1e3) for _, r in pairs]),
        "rounds": len(pairs),
    }


def end_to_end(raw):
    """The end-to-end metrics of a timed run, plus the absolute figures
    and sample counts behind them (for the results file)."""
    checks = raw["checks"]
    failed = sum(1 for c in checks if not c["ok"])
    n, one = paired(raw, ""), paired(raw, "_1t")
    rel = in_ref_steps(raw["step_ms"], raw["ref_ms"], raw["ref_steps"], raw["round_steps"])
    metrics = {
        "mlups_vs_ref": n["vs_ref"],
        "mlups_1t_vs_ref": one["vs_ref"],
        "step_p50_vs_ref": percentile(rel, 50.0),
        "guard_step_vs_ref": guard_step(rel, raw["round_steps"]),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "modeled_mlups": raw["modeled_mlups"],
        "pass_rate": (len(checks) - failed) / len(checks),
    }
    details = {
        "mlups": n["mlups"],
        "mlups_1t": one["mlups"],
        "ref_mlups": n["ref_mlups"],
        "ref_mlups_1t": one["ref_mlups"],
        "step_ms_p50": percentile(raw["step_ms"], 50.0),
        "step_ms_p90": percentile(raw["step_ms"], 90.0),
        "rounds": n["rounds"],
        "step_p50_vs_ref": sample_summary(rel, 50.0),
        "step_p90_vs_ref": sample_summary(rel, 90.0),
        "guard_step_vs_ref": {"value": guard_step(rel, raw["round_steps"]),
                              "samples": len(rel) // raw["round_steps"]},
        "setup_s": len(raw["setup_s"]),
    }
    return metrics, details


def per_layer(raw):
    """The per-layer metrics of a traced run and the kernel-sum
    reconciliation `(ok, detail)`."""
    steps = raw["window_steps"]
    host = median(raw["host_gbps"])
    m = family_metrics(raw["kernels"], steps, host)
    step_ms = raw["window_wall_ms"] / steps
    fam_ms = sum(m[f"kernels.{f}.ms_per_step"] for f in FAMILIES)
    blocks = raw["thread_blocks"]
    m.update(
        {
            "engine.step_ms": step_ms,
            "engine.mlups": raw["work_per_step"] / (step_ms * 1e3),
            "engine.unattributed_ms_per_step": step_ms - fam_ms,
            "engine.syncs_per_step": raw["syncs"] / steps,
            "engine.waves_per_step": raw["waves"] / steps,
            "runtime.schedule_ms": median(raw["schedule_ms"]),
            "gpu.thread_imbalance": max(blocks) / (sum(blocks) / len(blocks)) if blocks else 1.0,
            "gpu.modeled_us_per_step": raw["modeled_us"] / steps,
            "lattice.collide_ns_per_cell": median(raw["collide_ns_per_cell"]),
            "core.build_ms": median(raw["build_ms"]),
            "core.init_ms": median(raw["init_ms"]),
            "checkpoint.save_ms": median(raw["checkpoint_save_ms"]),
            "checkpoint.restore_ms": median(raw["checkpoint_restore_ms"]),
            "checkpoint.mib": raw["checkpoint_bytes"] / 2**20,
            "probe.is_finite_ms": median(raw["is_finite_ms"]),
            "probe.max_speed_ms": median(raw["max_speed_ms"]),
            "probe.total_mass_ms": median(raw["total_mass_ms"]),
            "host.gbps": host,
            "trace.overhead_frac": median(raw["traced_step_ms"]) / median(raw["untraced_step_ms"])
            - 1.0,
        }
    )
    return m, reconcile(raw, m)


def result(checks, metrics, units):
    """The result record: check counts and every metric with its unit."""
    failed = sum(1 for c in checks if not c["ok"])
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def encode(record):
    """One-line JSON of a result record."""
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def decode(line):
    """Parses and validates a result record line."""
    record = json.loads(line)
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(record)}")
    if not isinstance(record["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise ValueError(f"{key} must be an integer")
    if record["attempted"] < 1 or not 0 <= record["failed"] <= record["attempted"]:
        raise ValueError("check counts out of range")
    for name, m in record["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"malformed metric {name}")
        if not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not finite")
    return record
