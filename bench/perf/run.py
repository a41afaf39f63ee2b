#!/usr/bin/env python3
"""The repository benchmark: builds bench/perf, checks it, measures it.

Measure, from the repository root:

    python3 bench/perf/run.py          # every workload, run_seconds each
    python3 bench/perf/run.py --workload sc_static_1m --seed 7 \\
        --seconds 25 --trace 0

Each replica ("rep") is a fresh `p2pse_bench` process on one thread; reps of
several workloads interleave. Every workload gets --seconds seconds of reps
(at least one; default: BENCHMARK.json's run_seconds). --trace 1 adds one
traced rep per workload, inside those seconds, which gives the per-layer
metrics and a Chrome trace-event span file. Every invocation first runs
`p2pse_bench --selftest`, then checks that all reps of a workload produced
the same series digest and that the accuracy bands hold; any failure exits
nonzero. The set is written
to one JSON file (--out) and summarised on stdout; the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Compare two sets, or alternating parent/change pairs of sets:

    python3 bench/perf/run.py compare A.json B.json
    python3 bench/perf/run.py compare --pairs P1.json C1.json P2.json ...

Bounds and metric directions come from BENCHMARK.json. compare refuses sets
measured with another seed, run length or trace setting, and exits nonzero on
any regression, on any rise in invalid_frac and on any change of a series
digest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "perf"
BENCH = BUILD / "p2pse_bench"
REP_TIMEOUT_S = 120


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def build() -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD)],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    if (BUILD / "CMakeCache.txt").exists():
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise RuntimeError(f"build failed: {' '.join(step)}")


def bench(*args: str) -> str:
    done = subprocess.run([str(BENCH), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"p2pse_bench {' '.join(args)} failed:\n"
                           f"{done.stdout}{done.stderr}")
    return done.stdout


def run_rep(name: str, seed: int, *extra: str) -> dict:
    out = bench("--workload", name, "--seed", str(seed), *extra)
    return json.loads(out.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def rep_metrics(rep: dict) -> dict[str, float]:
    """A rep's value of every end-to-end metric."""
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "step_ms_p50": 1e3 * statistics.median(rep["step_s"]),
        "msgs_per_s": rep["step_messages"] / sum(rep["step_s"]),
        "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
    }


def aggregate(name: str, reps: list[dict], traced: dict | None,
              benchmark: dict) -> dict:
    """One workload's set: medians over reps, with the step samples pooled
    across reps, plus the checks every run makes."""
    per_rep = [rep_metrics(rep) for rep in reps]
    pooled_ms = [1e3 * s for rep in reps for s in rep["step_s"]]
    metrics = {}
    for metric in benchmark["end_to_end"]:
        key = metric["name"]
        runs = [values[key] for values in per_rep]
        q1, q3 = quartiles(runs)
        value = statistics.median(pooled_ms if key == "step_ms_p50" else runs)
        metrics[key] = {"value": value, "unit": metric["unit"], "q1": q1,
                        "q3": q3, "n": len(runs), "runs": runs}

    everyone = reps + ([traced] if traced else [])
    estimates = sum(rep["estimates"] for rep in reps)
    invalid = sum(rep["invalid"] for rep in reps)
    out = {
        "digest": reps[0]["digest"],
        "digests_equal": len({rep["digest"] for rep in everyone}) == 1,
        "accuracy_ok": all(rep["accuracy_ok"] for rep in everyone),
        "attempted": int(estimates),
        "failed": int(invalid),
        "invalid_frac": invalid / estimates,
        "rel_err_mean": reps[0]["rel_err_mean"],
        "metrics": metrics,
        "reps": reps,
    }
    if traced:
        layers = dict(traced["layers"])
        layers["est.step_ms_p90"] = (
            statistics.quantiles(pooled_ms, n=10)[-1]
            if len(pooled_ms) >= 2 else pooled_ms[0])
        layers["est.step_samples"] = len(pooled_ms)
        layers["host.trace_overhead"] = (
            traced["wall_s"] / metrics["wall_s"]["value"] - 1.0)
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        if set(layers) != set(units):
            raise RuntimeError(f"{name}: per-layer metrics differ from "
                               f"BENCHMARK.json: {set(layers) ^ set(units)}")
        out["layers"] = {key: {"value": layers[key], "unit": unit}
                         for key, unit in units.items()}
        out["traced"] = traced
    return out


def measure(args: argparse.Namespace) -> int:
    benchmark = spec()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    build()
    selftest = bench("--selftest")
    log(selftest.rstrip())
    names = args.workload or bench("--list").split()
    results = BUILD / "results"
    results.mkdir(exist_ok=True)

    reps: dict[str, list[dict]] = {name: [] for name in names}
    spent = {name: 0.0 for name in names}
    longest = {name: 0.0 for name in names}
    reserve = 2 if args.trace else 1  # leaves room for the traced rep

    def wants_rep(name: str) -> bool:
        return (not reps[name] or
                spent[name] + reserve * longest[name] <= args.seconds)

    while any(wants_rep(name) for name in names):
        for name in [name for name in names if wants_rep(name)]:
            start = time.monotonic()
            rep = run_rep(name, args.seed)
            took = time.monotonic() - start
            spent[name] += took
            longest[name] = max(longest[name], took)
            reps[name].append(rep)
            log(f"{name} rep {len(reps[name])}: wall {rep['wall_s']:.3f} s")

    workloads = {}
    for name in names:
        traced = None
        if args.trace:
            trace_file = results / f"trace-{name}-seed{args.seed}.json"
            traced = run_rep(name, args.seed, "--trace-json", str(trace_file))
            log(f"{name} traced rep: span file {trace_file}")
        workloads[name] = aggregate(name, reps[name], traced, benchmark)

    correct = all(w["digests_equal"] and w["accuracy_ok"]
                  for w in workloads.values())
    out = Path(args.out) if args.out else \
        results / f"set-{'+'.join(names)}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "selftest": selftest.splitlines(), "correct": correct,
        "workloads": workloads}, indent=1) + "\n")

    print_set(workloads)
    print(f"set written to {out}")
    flat = {}
    for name, w in workloads.items():
        table = w["layers"] if args.trace else w["metrics"]
        for metric, entry in table.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            flat[key] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": sum(w["failed"] for w in workloads.values()),
        "metrics": flat}))
    return 0 if correct else 1


def print_set(workloads: dict) -> None:
    for name, w in workloads.items():
        print(f"== {name}: digest {w['digest']} "
              f"({'equal' if w['digests_equal'] else 'DIFFERENT'} across "
              f"reps), accuracy {'ok' if w['accuracy_ok'] else 'OUT OF BAND'}"
              f", invalid_frac {w['invalid_frac']:.4g}, "
              f"rel_err_mean {w['rel_err_mean']:.4g}")
        print(f"  {'metric':<28} {'value':>14} {'unit':<6} {'q1':>12} "
              f"{'q3':>12} {'n':>4}")
        for metric, m in w["metrics"].items():
            print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']:<6} "
                  f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>4}")
        for metric, m in w.get("layers", {}).items():
            print(f"  {metric:<28} {m['value']:>14.6g} {m['unit']}")


# --- compare -----------------------------------------------------------------


def verdict(parent: list[float], p_value: float, change: list[float],
            c_value: float, metric: dict) -> str:
    """The no-regression rule: the change's median may be worse than the
    parent's by at most the bound, whatever the spread. A change that is
    neither worse nor clearly better is `same`, or `unresolved` where the
    parent's own spread (IQR / median) is wider than the bound and not every
    run of the change reads better than every run of the parent."""
    lower = metric["better"] == "lower"
    worse_by = (c_value - p_value) / p_value * (1 if lower else -1)
    if worse_by > metric["bound"]:
        return "worse"
    q1, q3 = quartiles(parent)
    all_better = max(change) < min(parent) if lower \
        else min(change) > max(parent)
    if all_better and abs(c_value - p_value) > q3 - q1:
        return "better"
    if (q3 - q1) / p_value > metric["bound"] and not all_better:
        return "unresolved"
    return "same"


def claim(parent: list[float], change: list[float], metric: dict) -> str:
    """The gain-claim rule over alternating pairs: the change wins at least
    nine tenths of at least ten pairs (ties count for neither), and the
    medians differ by more than the parent's interquartile range."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    gap = abs(statistics.median(change) - statistics.median(parent))
    held = len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > q3 - q1
    return f"{'yes' if held else 'no'} ({wins}/{len(parent)})"


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("--pairs", action="store_true",
                        help="files are alternating parent/change sets")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    sets = [json.loads(Path(f).read_text()) for f in args.files]
    if args.pairs and (len(sets) % 2 or len(sets) < 4):
        parser.error("--pairs needs an even number of files, at least 4")
    if not args.pairs and len(sets) != 2:
        parser.error("give two set files, or --pairs")
    for key in ("seed", "seconds", "trace"):
        seen = {json.dumps(s.get(key)) for s in sets}
        if len(seen) > 1:
            raise ValueError(f"the sets differ in {key} ({', '.join(seen)}); "
                             "measure both sides with the same settings")
    parents, changes = sets[0::2], sets[1::2]

    names = [name for name in parents[0]["workloads"]
             if name in changes[0]["workloads"]]
    failed = False
    unresolved = 0
    print(f"{'workload':<20} {'metric':<12} {'A median':>11} "
          f"{'A q1..q3':>23} {'B median':>11} {'B q1..q3':>23} "
          f"{'change':>8} {'bound':>6}  {'verdict':<10} digests"
          + ("  claim" if args.pairs else ""))
    for name in names:
        a = [s["workloads"][name] for s in parents]
        b = [s["workloads"][name] for s in changes]
        same = {w["digest"] for w in a} == {w["digest"] for w in b}
        for metric in spec()["end_to_end"]:
            key = metric["name"]
            if args.pairs:  # one run per set: its median
                pa = [w["metrics"][key]["value"] for w in a]
                pb = [w["metrics"][key]["value"] for w in b]
                ma, mb = statistics.median(pa), statistics.median(pb)
            else:
                ea, eb = a[0]["metrics"][key], b[0]["metrics"][key]
                pa, pb = ea["runs"], eb["runs"]
                ma, mb = ea["value"], eb["value"]
            result = verdict(pa, ma, pb, mb, metric)
            failed |= result == "worse"
            unresolved += result == "unresolved"
            (qa1, qa3), (qb1, qb3) = quartiles(pa), quartiles(pb)
            line = (f"{name:<20} {key:<12} {ma:>11.5g} "
                    f"{qa1:>11.5g}..{qa3:<10.5g} {mb:>11.5g} "
                    f"{qb1:>11.5g}..{qb3:<10.5g} "
                    f"{100 * (mb - ma) / ma:>+7.2f}% {metric['bound']:>6.2f}  "
                    f"{result:<10} {'match' if same else 'DIFFER'}")
            print(line + ("  " + claim(pa, pb, metric) if args.pairs else ""))
        before = max(w["invalid_frac"] for w in a)
        after = max(w["invalid_frac"] for w in b)
        if after > before:
            print(f"{name:<20} invalid_frac rose: {before:.4g} -> {after:.4g}")
            failed = True
        if not same:
            print(f"{name:<20} series digests differ: the change alters "
                  "what the workload computes")
            failed = True
    summary = "regression" if failed else "no regression"
    print(f"{summary} ({unresolved} unresolved)" if unresolved else summary)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of reps per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out",
                        help="set file (default: under build/perf/results)")
    try:
        if len(sys.argv) > 1 and sys.argv[1] == "compare":
            return compare(sys.argv[2:])
        return measure(parser.parse_args())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(f"run.py: error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
