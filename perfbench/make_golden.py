"""Write golden.json: the expected outputs of every workload.

    python3 perfbench/make_golden.py

Runs each workload at both ends of its truncation window and refuses to
write unless the compared fields agree there, which is what lets every
seed share one golden file.  Run it only on a commit whose results are
trusted; the file fixes the verified set, witnesses and Weber
certificates that later commits must reproduce.
"""

import json
import sys

import workloads


def main() -> int:
    tp = workloads.import_program()
    skeleton = {"parity": {
        "euler_jacobi": [{"a": a} for a in tp.theta.EULER_JACOBI_EXPONENTS],
        "bm": [{"pair": list(p)} for p in
               tp.partition.BM_CONJECTURED_PAIRS + tp.partition.BM_REFUTED_PAIRS],
    }}
    golden = {}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    scratch = workloads.OUT_DIR / "make-golden.out"
    for name in workloads.WORKLOADS:
        lo, hi = workloads.WINDOWS[name]
        results = []
        for n in (lo, hi):
            inp = workloads.Inputs(name, 0, n, workloads.BRUTE_BOUND if name == "brute" else 0)
            workloads.clear_program_caches(tp)
            results.append(workloads.compute(tp, inp, skeleton, scratch))
            print(f"{name} at n={n} done", file=sys.stderr)
        if results[0] != results[1]:
            print(f"{name}: outputs differ between n={lo} and n={hi}", file=sys.stderr)
            return 1
        golden[name] = results[0]
    scratch.unlink(missing_ok=True)
    brute = golden["brute"]
    if brute["triples"] != brute.pop("theorem_prediction"):
        print("brute: search disagrees with the theorem's prediction", file=sys.stderr)
        return 1
    brute["bound"] = workloads.BRUTE_BOUND
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
