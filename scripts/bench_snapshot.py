#!/usr/bin/env python3
"""Benchmark snapshot: the end-to-end metrics of every workload and the
north-star figures, for one or more checkouts, written to BENCH_<label>.json.

Usage:
    python scripts/bench_snapshot.py --label 10 \
        [--checkout change=. --checkout parent=../parent]

Each checkout must be a full copy of the repository (a `git clone` of the
commit to measure). For each workload, one round per seed in SEEDS runs
`perfbench/run.py` once in every checkout, with that seed and the run
length `run_seconds` of BENCHMARK.json; the order of the checkouts
alternates from round to round, so ten seeds give the ten alternating
pairs a claimed gain is judged on.
The snapshot records, per checkout and workload, each end-to-end metric's
median, quartiles and samples, and the failed share of checked outputs.
It also records, per checkout and workload, the median of each per-layer
metric over the traced runs (`perfbench/run.py --trace 1`, same run
length) of the first three seeds, in the same alternating order, with
whether all those runs' outputs and self-checks passed: one traced run's
layer times move by tens of percent on noise.
With two or more checkouts it also counts the rounds in which the first
one read lower than each other one (ties count for neither).

The north-star figures are timed FIGURE_RUNS times per checkout, the
checkouts alternating which runs first, each in a fresh interpreter with
that process's maximum resident set size; the snapshot keeps the median
seconds and RSS and every run's seconds.  The figures are:
partition_parity(10^7), bm_first_failure(6, 8, 10^7),
verify_triple(8, 12, 24, 10^7) (a triple that does not descend by
q -> q^2, so its comb runs at the full 10^7 terms),
theta_exponents(552, 10^9),
brute_search(1000, 2000), brute_search(2000, 4000), the size of CI's
brute-force cross-check, the Weber searches of classify's 47
candidates at its WEBER_BOUND (the certificates found), and the whole
run_classification(10^7) (the verified count and whether it passed).
So is the Tier-1 test suite, run as TIER1 with the checkout's src on
PYTHONPATH: its wall time, exit code and pytest's summary line.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("classify", "brute", "parity")
METRICS = ("solve_s", "peak_mem_mb", "setup_s")
SEEDS = range(1, 11)
LAYER_SEEDS = SEEDS[:3]
FIGURE_RUNS = 3
SECONDS = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["run_seconds"]

NORTH_STAR = {
    "partition_parity(10^7)":
        "from theta_parity.partition import partition_parity\n"
        "result = partition_parity(10 ** 7).bits.bit_count()",
    "bm_first_failure(6, 8, 10^7)":
        "from theta_parity.partition import bm_first_failure\n"
        "result = bm_first_failure(6, 8, 10 ** 7)",
    "verify_triple(8, 12, 24, 10^7), the comb at full N":
        "from theta_parity.classify import verify_triple\n"
        "result = verify_triple(8, 12, 24, 10 ** 7).status",
    "theta_exponents(552, 10^9)":
        "from theta_parity.theta import theta_exponents\n"
        "result = len(theta_exponents(552, 10 ** 9))",
    "brute_search(1000, 2000)":
        "from theta_parity.classify import brute_search\n"
        "result = len(brute_search(1000, 2000))",
    "brute_search(2000, 4000)":
        "from theta_parity.classify import brute_search\n"
        "result = len(brute_search(2000, 4000))",
    "weber_reject over classify's 47 candidates":
        "from theta_parity.classify import WEBER_BOUND, enumerate_candidates\n"
        "from theta_parity.quadform import weber_reject\n"
        "result = sum(weber_reject(t.b, t.c, WEBER_BOUND) is not None\n"
        "             for t in enumerate_candidates())",
    "run_classification(10^7)":
        "from theta_parity.classify import run_classification\n"
        "report = run_classification(10 ** 7)\n"
        "result = [len(report.verified), report.ok]",
}

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

# Times the figure's code with the package (and so numpy) already
# imported, and reports the whole process's maximum RSS.
_FIGURE = """\
import json, resource, time
import theta_parity
t0 = time.perf_counter()
{code}
seconds = time.perf_counter() - t0
print(json.dumps({{"seconds": seconds, "result": result,
    "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def _run(cmd, cwd: Path, env=None) -> str:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {cwd}:\n{proc.stderr}")
    return proc.stdout


def commit(checkout: Path) -> str:
    return _run(["git", "rev-parse", "HEAD"], checkout).strip()


def bench_run(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> tuple[dict, dict]:
    """One perfbench run: (its machine record, its result object)."""
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)], checkout)
    lines = out.splitlines()
    return json.loads(lines[0].removeprefix("machine ")), json.loads(lines[-1])


def layer_run(checkout: Path, workload: str, seed: int) -> dict:
    _, result = bench_run(checkout, workload, seed, SECONDS, trace=1)
    return {"correct": result["correct"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def layer_medians(recs: list) -> dict:
    return {"correct": all(r["correct"] for r in recs), "runs": len(recs),
            **{name: statistics.median(r[name] for r in recs)
               for name in recs[0] if name != "correct"}}


def figure(checkout: Path, code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = _run([sys.executable, "-c", _FIGURE.format(code=code)], checkout, env)
    return json.loads(out.splitlines()[-1])


def figure_medians(recs: list) -> dict:
    results = {json.dumps(r["result"]) for r in recs}
    return {"seconds": statistics.median(r["seconds"] for r in recs),
            "max_rss_mb": statistics.median(r["max_rss_mb"] for r in recs),
            "result": recs[0]["result"] if len(results) == 1 else
            [r["result"] for r in recs],
            "runs": [r["seconds"] for r in recs]}


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", action="append", metavar="NAME=DIR",
                        help="a checkout to measure (default: change=.)")
    args = parser.parse_args()
    checkouts = {}
    for spec in args.checkout or ["change=."]:
        name, sep, path = spec.partition("=")
        if not sep or not name or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--checkout {spec}: need NAME=DIR of a repository checkout")
        checkouts[name] = Path(path).resolve()
    names = list(checkouts)

    runs = {name: {w: [] for w in WORKLOADS} for name in names}
    layers = {name: {w: [] for w in WORKLOADS} for name in names}
    for workload in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            order = names if i % 2 == 0 else names[::-1]
            for name in order:
                machine, result = bench_run(checkouts[name], workload, seed, SECONDS)
                rec = {"attempted": result["attempted"], "failed": result["failed"],
                       "correct": result["correct"],
                       **{m: result["metrics"][m]["value"] for m in METRICS}}
                runs[name][workload].append(rec)
                print(f"{workload} seed {seed} {name}: "
                      + ", ".join(f"{m} {rec[m]:.4f}" for m in METRICS),
                      file=sys.stderr, flush=True)
        for i, seed in enumerate(LAYER_SEEDS):
            order = names if i % 2 == 0 else names[::-1]
            for name in order:
                rec = layer_run(checkouts[name], workload, seed)
                layers[name][workload].append(rec)
                print(f"{workload} seed {seed} {name} traced: {rec}",
                      file=sys.stderr, flush=True)

    figures = {name: {label: [] for label in NORTH_STAR} for name in names}
    for label, code in NORTH_STAR.items():
        for i in range(FIGURE_RUNS):
            for name in names if i % 2 == 0 else names[::-1]:
                rec = figure(checkouts[name], code)
                figures[name][label].append(rec)
                print(f"{name} {label}: {rec}", file=sys.stderr, flush=True)

    snapshot = {
        "label": args.label,
        "machine": {k: machine[k] for k in ("nproc", "cpu", "python", "numpy")}
        | {"platform": platform.platform()},
        "settings": {"pairs": len(SEEDS), "seconds": float(SECONDS),
                     "seeds": [SEEDS[0], SEEDS[-1]],
                     "layer_seeds": [LAYER_SEEDS[0], LAYER_SEEDS[-1]],
                     "figure_runs": FIGURE_RUNS,
                     "order": "checkouts alternate which runs first"},
        "checkouts": {},
    }
    for name in names:
        side = {"commit": commit(checkouts[name]), "workloads": {}, "layers": {},
                "north_star": {}}
        for workload, recs in runs[name].items():
            attempted = sum(r["attempted"] for r in recs)
            side["workloads"][workload] = {
                **{m: summary([r[m] for r in recs]) for m in METRICS},
                "fail_frac": (sum(r["failed"] for r in recs) / attempted
                              if attempted else 1.0),
                "all_correct": all(r["correct"] for r in recs)}
            side["layers"][workload] = layer_medians(layers[name][workload])
        for label, recs in figures[name].items():
            side["north_star"][label] = figure_medians(recs)
        side["tier1"] = tier1(checkouts[name])
        print(f"{name} tier-1: {side['tier1']}", file=sys.stderr, flush=True)
        snapshot["checkouts"][name] = side

    first, others = names[0], names[1:]
    if others:
        snapshot["wins"] = {
            f"{first} lower than {other}": {
                workload: {m: sum(a[m] < b[m] for a, b in zip(
                    runs[first][workload], runs[other][workload]))
                    for m in METRICS}
                for workload in WORKLOADS}
            for other in others}
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
