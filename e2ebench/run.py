#!/usr/bin/env python3
"""End-to-end benchmark of the atlarge libraries.

Builds the benchmark binary (a CMake package in this directory that
compiles ../src and ../include) in Release mode, runs one workload,
checks its outputs and prints the metrics named in BENCHMARK.json:

    python3 e2ebench/run.py --workload portfolio --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics and writes a Chrome trace.
The lines before it are a run manifest (JSON) and a readable report.
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
GOLDENS = os.path.join(HERE, "goldens.json")
WORKLOADS = ("portfolio", "ecosystem", "graph", "campaign")
# Seed the committed golden digests were recorded with. Other seeds run
# every check that compares one run against another, but no golden check.
DEFAULT_SEED = 1
# Tail percentiles are chosen from this ladder: the highest one with at
# least ten samples beyond it.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def quantile(samples, pct):
    """Harrell-Davis estimate of the pct-th percentile.

    A weighted mean of all order statistics, with Beta weights centred on
    the target rank. Latencies of mixed-size operations leave gaps between
    sorted samples; a single order statistic jumps across such a gap when
    noise reorders two samples, this estimate moves smoothly. README.md
    records the runs where the plain median's spread broke its bound.
    """
    x = sorted(samples)
    n = len(x)
    if n == 0:
        raise ValueError("quantile of no samples")
    a, b = pct / 100.0 * (n + 1), (1.0 - pct / 100.0) * (n + 1)
    total, below = 0.0, 0.0
    for i in range(1, n + 1):
        upto = beta_cdf(a, b, i / n)
        total += (upto - below) * x[i - 1]
        below = upto
    return total


def pass_mean(samples, per_pass):
    """Median over the timed passes of each pass's mean sample: the host
    time per operation of a typical pass. `samples` holds per_pass samples
    of each pass, in pass order."""
    if per_pass < 1 or not samples or len(samples) % per_pass:
        raise ValueError("%d samples are no whole number of passes of %d"
                         % (len(samples), per_pass))
    return median([statistics.fmean(samples[i:i + per_pass])
                   for i in range(0, len(samples), per_pass)])


def tail_percentile(samples, basis=None):
    """The highest ladder percentile with at least ten samples beyond it.

    The percentile is chosen for `basis` samples (default: all of them), so
    a run that measured more samples than its guaranteed minimum keeps the
    same percentile. Returns (percentile, value, samples); raises ValueError
    when even the median has fewer than ten samples beyond it.
    """
    n = len(samples)
    basis = n if basis is None else min(basis, n)
    chosen = None
    for pct in LADDER:
        if basis - math.ceil(round(pct * basis / 100.0, 9)) >= 10:
            chosen = pct
    if chosen is None:
        raise ValueError("%d samples leave fewer than ten beyond the median"
                         % basis)
    return chosen, quantile(samples, chosen), n


def build():
    """Configures (once) and builds the benchmark binary; build output goes
    to stderr."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include", "atlarge"))):
        fail("library sources not found next to %s; run from a full checkout"
             % HERE)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if (out.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def cpu_ticks():
    """(steal, total) CPU ticks of the machine so far, from /proc/stat, or
    None where it is not readable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    """Share of the machine's CPU time the hypervisor took away between two
    cpu_ticks() readings: a shared host's interference during a run."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def load_goldens(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def golden_key(workload, smoke, seed):
    return "%s/%s/%d" % (workload, "smoke" if smoke else "full", seed)


def check_ops(ops, goldens):
    """(attempted, failed, mismatched op names) after the golden check."""
    attempted = failed = 0
    mismatched = []
    for name, op in sorted(ops.items()):
        attempted += op["count"]
        failed += op["failed"]
        want = goldens.get(name)
        if want is not None and op["digest"] != want:
            mismatched.append(name)
            failed += op["count"] - op["failed"]
    return attempted, failed, mismatched


def end_to_end(raw, ok_ratio, report):
    """The end-to-end metric values of one untraced run."""
    n_pass = raw["min_passes"]
    values = {
        "setup_s": median(raw["setup_s"]),
        "wall_s": median(raw["pass_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": ok_ratio,
    }
    for prefix, key, per_pass in (("decision", "decision_ms",
                                   "decision_per_pass"),
                                  ("trial", "op_ms", "op_per_pass")):
        samples = raw[key]
        values[prefix + "_mean_ms"] = pass_mean(samples, raw[per_pass])
        basis = max(raw["min_samples"], raw[per_pass] * n_pass)
        pct, value, n = tail_percentile(samples, basis)
        values[prefix + "_tail_ms"] = value
        report.append("%s_tail_ms is p%g of %d samples" % (prefix, pct, n))
    for name, series in raw["series"].items():
        values[name] = median(series)
    return values


def per_layer(raw, names):
    """The per-layer metric values of one traced run; layers the workload
    does not exercise read 0."""
    values = {name: 0.0 for name in names}
    for name, series in raw["layers"].items():
        if name in values:
            values[name] = median(series)
    overhead = median(raw["traced_pass_s"]) / median(raw["pass_s"]) - 1.0
    values["obs.overhead_ratio." + raw["workload"]] = overhead
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--record-goldens", action="store_true",
                        help="store this run's digests as its goldens")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    build()

    out_dir = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    load = os.getloadavg()
    ticks = cpu_ticks()
    started = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=150)
    if proc.returncode != 0:
        fail("e2ebench exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw_path = os.path.join(out_dir, "raw-%s-%d-t%d.json"
                            % (args.workload, args.seed, args.trace))
    with open(raw_path, "w") as f:
        json.dump(raw, f)

    goldens = load_goldens(GOLDENS)
    key = golden_key(args.workload, args.smoke, args.seed)
    # A run that records goldens replaces them, so it is not checked
    # against the ones it replaces.
    expected = {} if args.record_goldens else goldens.get(key, {})
    attempted, failed, mismatched = check_ops(raw["ops"], expected)
    if args.record_goldens:
        if failed:
            fail("not recording goldens of a run with failed operations")
        goldens[key] = {name: op["digest"]
                        for name, op in sorted(raw["ops"].items())
                        if op["digest"]}
        with open(GOLDENS, "w") as f:
            json.dump(goldens, f, indent=1, sort_keys=True)
            f.write("\n")

    report = []
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            values = per_layer(raw, [m["name"] for m in declared])
        else:
            values = end_to_end(raw, 1.0 - failed / attempted, report)
    except (ValueError, ZeroDivisionError):
        # A pass that threw can leave too few samples for a metric. The
        # run has failed already; its metrics then read 0.
        if not failed:
            raise
        values = {"ok_ratio": 1.0 - failed / attempted}
    metrics = {}
    for m in declared:
        value = values.get(m["name"], math.nan)
        if not math.isfinite(value):
            if not failed:
                fail("metric %s is not finite" % m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    manifest = {
        "git_sha": git_sha(),
        "build_type": raw["build_type"],
        "nproc": raw["threads"],
        "loadavg": list(load),
        "steal_share": steal_share(ticks, cpu_ticks()),
        "host": platform.node(),
        "workload": args.workload,
        "seed": args.seed,
        "golden_key": key if key in goldens else None,
        "smoke": args.smoke,
        "trace": args.trace,
        "seconds": seconds,
        "wall_s": time.time() - started,
        "passes": len(raw["pass_s"]) + len(raw["traced_pass_s"]),
        "events": raw["events"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "chrome_trace": raw["chrome_trace"] or None,
        "raw": raw_path,
    }
    print(json.dumps({"manifest": manifest}, sort_keys=True))
    report.append("fail_ratio %d/%d = %.6g" % (failed, attempted,
                                               failed / attempted))
    for name in mismatched:
        report.append("golden digest mismatch: " + name)
    for name, op in sorted(raw["ops"].items()):
        if op["failed"]:
            report.append("failed: %s (%d of %d)" % (name, op["failed"],
                                                    op["count"]))
    for line in report:
        print("# " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
