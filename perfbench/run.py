#!/usr/bin/env python3
"""The profiling benchmark: builds the perfbench program, runs one workload,
checks its outputs and prints every metric by name with its unit and sample
count. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced (--trace 0) the metrics are the end-to-end ones; traced (--trace 1)
they are the per-layer ones plus the tracing overhead. See README.md.

    python3 perfbench/run.py --workload sedov_op --seed 1 --seconds 20 --trace 0
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("sedov_op", "burn_search", "sedov_observed", "sedov_mem")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120

# Seed jitter of the generated inputs: each is uniform within its range.
# The Sedov ranges keep the counted work of a run within 1% across seeds.
# The burn search is chaotic in its inputs: a 1e-5 relative change of the
# spark temperature already changes the chosen formats and the number of
# evaluations, so the spark temperature stays at its default and the spark
# width moves only within (0.0521, 0.0729), where the spark covers the same
# three of the 48 cells.
JITTER = {
    "cx": (0.495, 0.505),          # Sedov blast centre, x
    "cy": (0.495, 0.505),          # Sedov blast centre, y
    "e-blast": (0.97, 1.03),       # Sedov blast energy
    "r-init": (0.049, 0.051),      # Sedov deposition radius
    "spark-frac": (0.058, 0.067),  # burn spark width, share of the column
}

# The inner timing of a unit and its name in the report: one solver.step
# for the Sedov workloads, one workload evaluation for burn_search (whose
# native counterpart is one native run).
INNER = {"burn_search": "eval"}

# The gated end-to-end metrics. Every time except setup_s is a ratio to the
# native baseline runs interleaved with the units in the same process, so a
# change of machine speed during a run cancels out; the absolute times are
# printed alongside.
END_TO_END_UNITS = {
    "setup_s": "s",
    "slowdown_x": "x",
    "inner_p50_x": "x",
    "inner_p90_x": "x",
    "peak_rss_mb": "MB",
}

# Per-layer metrics derived from spans: name -> (span name, scale, unit, self time?).
SPAN_METRICS = {
    "amr.build_s": ("amr.build", 1.0, "s", False),
    "amr.regrid_ms": ("amr.regrid", 1e3, "ms", False),
    "trace.stop_ms": ("trace.stop", 1e3, "ms", False),
    "telemetry.scrape_ms": ("telemetry.scrape", 1e3, "ms", False),
    "telemetry.report_ms": ("telemetry.report", 1e3, "ms", False),
    "search.driver_ms": ("search.run", 1e3, "ms", True),
}


class BenchError(Exception):
    pass


def generate_inputs(seed):
    rng = random.Random(seed)
    inputs = {k: rng.uniform(lo, hi) for k, (lo, hi) in JITTER.items()}
    inputs["operand-seed"] = rng.randrange(1, 2**31)
    return inputs


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configure (once) and build the perfbench program; build output goes to stderr."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_perfbench(binary, workload, seconds, traced, inputs):
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    spans_path = os.path.join(workdir, "spans.jsonl")
    cmd = [binary, "--workload=" + workload, "--seconds=%d" % seconds, "--workdir=" + workdir]
    cmd += ["--%s=%r" % (k, v) for k, v in inputs.items()]
    if traced:
        cmd += ["--traced", "--spans=" + spans_path]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=seconds + RUN_GRACE_S)
    if r.returncode != 0:
        raise BenchError("perfbench exited with %d" % r.returncode)
    records = [json.loads(line) for line in r.stdout.splitlines() if line.strip()]
    spans = []
    if traced:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
        os.remove(spans_path)
    return records, spans


def of(records, rec, **match):
    return [r for r in records if r["rec"] == rec and all(r.get(k) == v for k, v in match.items())]


def failures(records):
    """Units that failed a correctness check. A failed check on anything but
    a main unit (set-up, baselines) fails the first main unit."""
    main_ids = [u["id"] for u in of(records, "unit", kind="main")]
    failed = set()
    for c in of(records, "check", ok=False):
        failed.add(c["unit"] if c["unit"] in main_ids else main_ids[0])
    return main_ids, failed


def end_to_end(workload, records):
    """Returns ({name: (value, unit)}, [report lines]): the gated metrics
    and, printed only, the absolute times they derive from."""
    main = of(records, "unit", kind="main", traced=False)
    native = of(records, "unit", kind="native")
    main_ids = {u["id"] for u in main}
    native_ids = {u["id"] for u in native}
    inner = [r["ms"] for r in of(records, "inner") if r["unit"] in main_ids]
    native_inner = [r["ms"] for r in of(records, "inner") if r["unit"] in native_ids]
    setup = [r["s"] for r in of(records, "setup")]
    run_s = stats.median([u["s"] for u in main])
    native_s = stats.median([u["s"] for u in native])
    step = INNER.get(workload, "step")
    p50, p90 = stats.median(inner), stats.percentile(inner, 90.0)
    n_inner = "%d %ss / %d native" % (len(inner), step, len(native_inner))
    gated = {
        "setup_s": (stats.median(setup), "%d set-ups" % len(setup)),
        "slowdown_x": (run_s / native_s, "%d units / %d native runs" % (len(main), len(native))),
        "inner_p50_x": (p50 / stats.median(native_inner), n_inner),
        "inner_p90_x": (p90 / stats.percentile(native_inner, 90.0), n_inner),
        "peak_rss_mb": (of(records, "rss")[0]["peak_mb"], "1 process"),
    }
    main_ids_all, failed = failures(records)
    printed = [
        ("run_s", run_s, "s", "%d units" % len(main)),
        ("native_run_s", native_s, "s", "%d native runs" % len(native)),
        ("%s_ms_p50" % step, p50, "ms", "%d %ss" % (len(inner), step)),
        ("%s_ms_p90" % step, p90, "ms", "%d %ss" % (len(inner), step)),
        ("mops_per_s", stats.median([u["ops"] / u["s"] / 1e6 for u in main]), "Mop/s",
         "%d units" % len(main)),
        ("failed_share", len(failed) / len(main_ids_all), "share",
         "%d failed of %d units" % (len(failed), len(main_ids_all))),
    ]
    plain = of(records, "unit", kind="plain")
    if plain:
        printed.append(("observe_overhead_x", run_s / stats.median([u["s"] for u in plain]), "x",
                        "%d observed / %d plain runs" % (len(main), len(plain))))
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, (v, _) in gated.items()}
    lines = ["  %-20s %14.6g %-6s (%s)" % (k, v, END_TO_END_UNITS[k], n)
             for k, (v, n) in gated.items()]
    lines.append("  not gated, absolute:")
    lines += ["  %-20s %14.6g %-6s (%s)" % row for row in printed]
    tail = stats.tail_percentile(len(inner))
    lines.append("  tail: the highest percentile with >= %d samples beyond it is %s"
                 % (stats.MIN_BEYOND, "p%g" % tail if tail else "none (under 100 samples)"))
    return metrics, lines


def per_layer(records, spans):
    """Returns {name: (value, unit)} from probes, attribution records, spans
    and the traced/untraced unit pairs."""
    out = {}
    for p in of(records, "probe"):
        out[p["name"]] = (p["value"], p["unit"])
    grouped = {}
    for m in of(records, "metric"):
        grouped.setdefault(m["name"], (m["unit"], []))[1].append(m["value"])
    for name, (unit, values) in grouped.items():
        out[name] = (stats.median(values), unit)
    self_s = stats.self_times(spans)
    for name, (span, scale, unit, self_time) in SPAN_METRICS.items():
        vals = [(self_s[s["id"]] if self_time else s["t1"] - s["t0"]) * scale
                for s in spans if s["name"] == span]
        if vals:
            out[name] = (stats.median(vals), unit)
    main = of(records, "unit", kind="main")
    out["runtime.ops_per_run"] = (stats.median([u["ops"] for u in main]), "count")
    out["runtime.trunc_share"] = (stats.median([u["trunc_ops"] / u["ops"] for u in main]), "share")
    traced = [u["s"] for u in main if u["traced"]]
    untraced = [u["s"] for u in main if not u["traced"]]
    out["bench.trace_overhead_x"] = (stats.median(traced) / stats.median(untraced), "x")
    return out


def benchmark_names():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def summarize(workload, traced, records, spans, names):
    """The report lines and the final result object. `names` are the metric
    names the result must carry (BENCHMARK.json's end_to_end or per_layer)."""
    try:
        main_ids, failed = failures(records)
        if traced:
            metrics = per_layer(records, spans)
            lines = ["  %-40s %14.6g %s" % (k, v, u) for k, (v, u) in sorted(metrics.items())]
        else:
            metrics, lines = end_to_end(workload, records)
    except (IndexError, ZeroDivisionError, statistics.StatisticsError) as e:
        raise BenchError("incomplete records: %r" % e)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    bad = [n for n in names if not math.isfinite(metrics[n][0])]
    if bad:
        raise BenchError("metrics not finite: " + ", ".join(bad))
    result = {
        "correct": not failed,
        "attempted": len(main_ids),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced = args.trace == 1
    try:
        e2e_names, layer_names = benchmark_names()
        binary = build()
        inputs = generate_inputs(args.seed)
        records, spans = run_perfbench(binary, args.workload, args.seconds, traced, inputs)
        lines, result = summarize(args.workload, traced, records, spans,
                                  layer_names if traced else e2e_names)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    meta = of(records, "meta")[0]
    print("perfbench %s seed=%d threads=%d %s (%s)"
          % (args.workload, args.seed, meta["threads"], "traced" if traced else "untraced",
             " ".join("%s=%.6g" % kv for kv in inputs.items())))
    for c in of(records, "check", ok=False):
        print("  CHECK FAILED unit %d: %s %s" % (c["unit"], c["name"], c["detail"]))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
