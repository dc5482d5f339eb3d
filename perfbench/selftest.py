"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at a small truncation
and bound, and checks that every end-to-end and per-layer metric named
in BENCHMARK.json is emitted with its unit, that no output differs from
golden.json, and that the traced run's self-checks pass (self times sum
to the root span; partition_parity is computed cold in every iteration).
It also checks that the golden comparison counts a changed output as a
failure.  Exits 1 if any check fails.
"""

import copy
import json
import sys

import run
import workloads


def gate_detects_changes(golden: dict) -> list[str]:
    """Change one compared field per workload; the gate must count it."""
    problems = []
    for name in workloads.WORKLOADS:
        inp = workloads.make_inputs(name, 0)
        want = workloads.expected(inp, golden)
        got = copy.deepcopy(want)
        if name == "classify":
            got["candidates"][-1]["weber"] = {"p": 0, "u": 0, "v": 0, "index": 0}
        elif name == "brute":
            got["triples"] = got["triples"][1:]
        else:
            got["bm"][-1]["witness"] = None
        if workloads.compare(got, want)[1] != 1:
            problems.append(f"{name}: a changed output was not counted once")
    return problems


def main() -> int:
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = gate_detects_changes(workloads.load_golden())
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            lines, result, checks = run.bench(name, 1, 0.1, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{label}: metrics {got} != {wanted[trace]}")
            if not trace:
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                if zero:
                    problems.append(f"{label}: not positive: {zero}")
            if result["failed"] or not result["attempted"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} outputs differ")
            problems += [f"{label}: {k}: {v}" for k, v in checks.items() if v]
            if trace and len(checks) != (2 if name == "parity" else 1):
                problems.append(f"{label}: self-checks missing: {checks}")
            print(f"{label}: {result['attempted']} outputs checked, "
                  f"{len(got)} metrics", file=sys.stderr)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
