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
With two or more checkouts it also counts the rounds in which the first
one read lower than each other one (ties count for neither).

The north-star figures are timed once per checkout, each in a fresh
interpreter, with that process's maximum resident set size:
partition_parity(10^7), bm_first_failure(6, 8, 10^7) and
verify_triple(4, 6, 12, 10^7).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("classify", "brute", "parity")
METRICS = ("solve_s", "peak_mem_mb", "setup_s")
SEEDS = range(1, 11)
SECONDS = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["run_seconds"]

NORTH_STAR = {
    "partition_parity(10^7)":
        "from theta_parity.partition import partition_parity\n"
        "result = partition_parity(10 ** 7).bits.bit_count()",
    "bm_first_failure(6, 8, 10^7)":
        "from theta_parity.partition import bm_first_failure\n"
        "result = bm_first_failure(6, 8, 10 ** 7)",
    "verify_triple(4, 6, 12, 10^7)":
        "from theta_parity.classify import verify_triple\n"
        "result = verify_triple(4, 6, 12, 10 ** 7).status",
}

# Times the figure's code after the imports its own lines make, and
# reports the whole process's maximum RSS.
_FIGURE = """\
import json, resource, time
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


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds)], checkout)
    lines = out.splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(lines[0].removeprefix("machine "))
    return {"machine": machine, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def figure(checkout: Path, code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = _run([sys.executable, "-c", _FIGURE.format(code=code)], checkout, env)
    return json.loads(out.splitlines()[-1])


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
    machine = None
    for workload in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            order = names if i % 2 == 0 else names[::-1]
            for name in order:
                rec = bench_run(checkouts[name], workload, seed, SECONDS)
                machine = machine or rec["machine"]
                del rec["machine"]
                runs[name][workload].append(rec)
                print(f"{workload} seed {seed} {name}: "
                      + ", ".join(f"{m} {rec[m]:.4f}" for m in METRICS),
                      file=sys.stderr, flush=True)

    snapshot = {
        "label": args.label,
        "machine": {k: machine[k] for k in ("nproc", "cpu", "python", "numpy")}
        | {"platform": platform.platform()},
        "settings": {"pairs": len(SEEDS), "seconds": float(SECONDS),
                     "seeds": [SEEDS[0], SEEDS[-1]],
                     "order": "checkouts alternate which runs first"},
        "checkouts": {},
    }
    for name in names:
        side = {"commit": commit(checkouts[name]), "workloads": {}, "north_star": {}}
        for workload, recs in runs[name].items():
            attempted = sum(r["attempted"] for r in recs)
            side["workloads"][workload] = {
                **{m: summary([r[m] for r in recs]) for m in METRICS},
                "fail_frac": (sum(r["failed"] for r in recs) / attempted
                              if attempted else 1.0),
                "all_correct": all(r["correct"] for r in recs)}
        for label, code in NORTH_STAR.items():
            side["north_star"][label] = figure(checkouts[name], code)
            print(f"{name} {label}: {side['north_star'][label]}", file=sys.stderr,
                  flush=True)
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
