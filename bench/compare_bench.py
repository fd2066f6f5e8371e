#!/usr/bin/env python3
"""Perf-regression gate: compare a google-benchmark --json run to a
committed baseline (the tracked BENCH_*.json snapshots).

Usage:
    compare_bench.py BASELINE.json CURRENT.json [options]
    compare_bench.py --self-test

Benchmarks are matched by name. The compared metric is items_per_second
when both sides report it (higher is better), falling back to real_time
(lower is better). A run made with --benchmark_repetitions=N holds N
iteration entries per name; each side is then judged by their median, so
one slow repetition cannot fail the gate nor one fast one set the bar. A benchmark regresses when it is worse than the
baseline by more than --threshold (default 0.25, i.e. 25%). Benchmarks
present on only one side are reported but never fail the gate (they are
new or retired, not regressed).

Guard rails:
  * refuses to compare when the current run was built as Debug (the
    atlarge_build_type context stamped by bench_json_main.hpp) — a
    Debug-vs-Release comparison only produces noise;
  * warns when either side was recorded under high load (load_avg above
    ~1.5x the core count) — numbers from a busy machine are suspect.

Always prints a markdown summary table; --markdown PATH writes the same
table to a file (append mode, so several gates can share one
GITHUB_STEP_SUMMARY).

Exit codes: 0 = pass, 1 = regression(s), 2 = refused / bad input.
"""

import argparse
import json
import sys


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def load_entries(doc):
    """name -> (value, kind) over the non-aggregate benchmark entries; the
    value is the median of the repetitions that share the name."""
    samples = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if "items_per_second" in bench:
            sample = (float(bench["items_per_second"]), "items/s")
        else:
            sample = (float(bench["real_time"]), "time")
        samples.setdefault(bench["name"], []).append(sample)
    return {
        name: (median(value for value, _ in reps), reps[0][1])
        for name, reps in samples.items()
    }


def check_context(doc, label, warnings, errors):
    ctx = doc.get("context", {})
    build_type = str(
        ctx.get("atlarge_build_type", ctx.get("library_build_type", ""))
    ).lower()
    if "debug" in build_type:
        errors.append(
            f"{label}: built as '{build_type}' — rebuild with "
            "-DCMAKE_BUILD_TYPE=Release before gating on performance"
        )
    load = ctx.get("load_avg")
    cpus = ctx.get("num_cpus", 1) or 1
    if load and load[0] > 1.5 * cpus:
        warnings.append(
            f"{label}: recorded under load_avg {load[0]:.2f} on {cpus} "
            "CPU(s) — treat these numbers with suspicion"
        )


def compare(baseline, current, threshold):
    """Returns (rows, regressions). Each row is a dict for the table."""
    rows = []
    regressions = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            rows.append({"name": name, "status": "retired"})
            continue
        if name not in baseline:
            rows.append({"name": name, "status": "new"})
            continue
        base_val, base_kind = baseline[name]
        cur_val, cur_kind = current[name]
        if base_kind != cur_kind or base_val == 0:
            rows.append({"name": name, "status": "incomparable"})
            continue
        if base_kind == "items/s":
            ratio = cur_val / base_val  # higher is better
            regressed = ratio < 1.0 - threshold
        else:
            ratio = base_val / cur_val  # lower time is better; >1 = faster
            regressed = cur_val > base_val * (1.0 + threshold)
        status = "REGRESSED" if regressed else "ok"
        row = {
            "name": name,
            "baseline": base_val,
            "current": cur_val,
            "kind": base_kind,
            "ratio": ratio,
            "status": status,
        }
        rows.append(row)
        if regressed:
            regressions.append(row)
    return rows, regressions


def fmt_value(value, kind):
    if kind == "items/s":
        return f"{value:,.0f}/s"
    return f"{value:,.0f} ns"


def markdown_table(rows, threshold):
    lines = [
        f"| benchmark | baseline | current | ratio | status |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        if "ratio" not in row:
            lines.append(f"| {row['name']} | — | — | — | {row['status']} |")
            continue
        mark = "❌" if row["status"] == "REGRESSED" else "✅"
        lines.append(
            f"| {row['name']} | {fmt_value(row['baseline'], row['kind'])} "
            f"| {fmt_value(row['current'], row['kind'])} "
            f"| {row['ratio']:.2f}x | {mark} {row['status']} |"
        )
    lines.append("")
    lines.append(
        f"_Gate: fail when a benchmark is >{threshold:.0%} worse than "
        "baseline (matched by name; items_per_second preferred, real_time "
        "fallback)._"
    )
    return "\n".join(lines)


def run_gate(args):
    warnings, errors = [], []
    try:
        with open(args.baseline) as fh:
            base_doc = json.load(fh)
        with open(args.current) as fh:
            cur_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"compare_bench: cannot read inputs: {exc}", file=sys.stderr)
        return 2

    check_context(base_doc, f"baseline ({args.baseline})", warnings, errors)
    check_context(cur_doc, f"current ({args.current})", warnings, errors)
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    if errors and not args.force:
        for error in errors:
            print(f"REFUSED: {error}", file=sys.stderr)
        return 2

    rows, regressions = compare(
        load_entries(base_doc), load_entries(cur_doc), args.threshold
    )
    table = markdown_table(rows, args.threshold)
    print(table)
    if args.markdown:
        with open(args.markdown, "a") as fh:
            fh.write(table + "\n")

    if regressions:
        print(
            f"\ncompare_bench: {len(regressions)} benchmark(s) regressed "
            f"beyond {args.threshold:.0%}:",
            file=sys.stderr,
        )
        for row in regressions:
            print(f"  {row['name']}: {row['ratio']:.2f}x", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------- self test --


def make_doc(values, build_type="Release", load=0.2, items=True):
    """values: name -> one value, or a list of values (one per repetition)."""
    benchmarks = []
    for name, value in values.items():
        for rep in value if isinstance(value, list) else [value]:
            entry = {"name": name, "real_time": 100.0, "run_type": "iteration"}
            if items:
                entry["items_per_second"] = rep
            else:
                entry["real_time"] = rep
            benchmarks.append(entry)
    return {
        "context": {
            "atlarge_build_type": build_type,
            "load_avg": [load, load, load],
            "num_cpus": 1,
        },
        "benchmarks": benchmarks,
    }


def self_test():
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    # Within threshold: a 20% drop passes a 25% gate.
    rows, regs = compare(
        load_entries(make_doc({"BM_A/1": 100.0})),
        load_entries(make_doc({"BM_A/1": 80.0})),
        0.25,
    )
    check("20% drop passes", len(regs), 0)
    check("20% drop status", rows[0]["status"], "ok")

    # Beyond threshold: a 30% drop fails.
    _, regs = compare(
        load_entries(make_doc({"BM_A/1": 100.0})),
        load_entries(make_doc({"BM_A/1": 70.0})),
        0.25,
    )
    check("30% drop fails", len(regs), 1)

    # Improvements pass with ratio > 1.
    rows, regs = compare(
        load_entries(make_doc({"BM_A/1": 100.0})),
        load_entries(make_doc({"BM_A/1": 200.0})),
        0.25,
    )
    check("improvement passes", len(regs), 0)
    check("improvement ratio", round(rows[0]["ratio"], 2), 2.0)

    # real_time fallback: lower is better, 30% slower fails.
    _, regs = compare(
        load_entries(make_doc({"BM_T": 100.0}, items=False)),
        load_entries(make_doc({"BM_T": 130.1}, items=False)),
        0.25,
    )
    check("time regression fails", len(regs), 1)

    # New / retired benchmarks never fail the gate.
    rows, regs = compare(
        load_entries(make_doc({"BM_Old": 1.0})),
        load_entries(make_doc({"BM_New": 1.0})),
        0.25,
    )
    check("new/retired pass", len(regs), 0)
    check(
        "new/retired statuses",
        sorted(r["status"] for r in rows),
        ["new", "retired"],
    )

    # Debug builds are refused; high load only warns.
    warnings, errors = [], []
    check_context(make_doc({}, build_type="Debug"), "x", warnings, errors)
    check("debug refused", len(errors), 1)
    warnings, errors = [], []
    check_context(make_doc({}, load=9.0), "x", warnings, errors)
    check("high load warns", (len(warnings), len(errors)), (1, 0))

    # Repetitions sharing a name are judged by their median, not the first
    # entry nor the mean: baseline [50, 100, 400] reads 100, so a current
    # median of 80 passes, though the mean (~183) would fail it.
    baseline = load_entries(make_doc({"BM_R": [50.0, 100.0, 400.0]}))
    check("median of repetitions", baseline["BM_R"], (100.0, "items/s"))
    _, regs = compare(
        baseline, load_entries(make_doc({"BM_R": [80.0, 20.0, 81.0]})), 0.25
    )
    check("median within threshold passes", len(regs), 0)
    _, regs = compare(
        baseline, load_entries(make_doc({"BM_R": [70.0, 200.0, 60.0]})), 0.25
    )
    check("median beyond threshold fails", len(regs), 1)
    check(
        "even repetition count",
        load_entries(make_doc({"BM_T": [90.0, 110.0]}, items=False))["BM_T"],
        (100.0, "time"),
    )

    # Aggregate entries (mean/median/stddev) are ignored.
    doc = make_doc({"BM_A/1": 100.0})
    doc["benchmarks"].append(
        {
            "name": "BM_A/1_mean",
            "run_type": "aggregate",
            "items_per_second": 1.0,
            "real_time": 1.0,
        }
    )
    check("aggregates ignored", len(load_entries(doc)), 1)

    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}", file=sys.stderr)
        return 1
    print("compare_bench.py self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare two google-benchmark JSON files."
    )
    parser.add_argument("baseline", nargs="?", help="committed BENCH_*.json")
    parser.add_argument("current", nargs="?", help="freshly generated run")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional regression that fails the gate (default 0.25)",
    )
    parser.add_argument(
        "--markdown", help="append the summary table to this file"
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="compare even when the build-type check would refuse",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in unit checks and exit",
    )
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.current:
        parser.error("baseline and current JSON files are required")
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
