"""The three benchmark workloads: inputs drawn from a seed, one iteration
each, and the comparison of an iteration's outputs with the golden file.

Every workload calls only public entry points of ``theta_parity`` and
looks them up through their module at call time, so a traced run can
wrap them.  The seed only picks the truncation inside a small window on
which every expected answer is the same (``make_golden.py`` checks both
ends of each window), so all seeds share one golden file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("classify", "brute", "parity")

# Truncation windows: the seed picks n uniformly inside.  They are narrow
# (at most 1% wide) so the work per iteration hardly depends on the seed.
WINDOWS = {
    "classify": (1_000_000, 1_000_997),
    "brute": (2000, 2020),
    "parity": (300_000, 300_917),
}
BRUTE_BOUND = 200

# Self-test sizes: every code path of the full workload, in well under a
# second per iteration except classify, whose Weber search does not
# depend on n.
TINY_N = {"classify": 5000, "brute": 2000, "parity": 2000}
TINY_BRUTE_BOUND = 24


def import_program():
    """Import theta_parity and its CLI from this checkout's ``src``, never
    from an installed copy."""
    if not (SRC / "theta_parity" / "__init__.py").is_file():
        raise ImportError(f"no theta_parity package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import theta_parity
    import theta_parity.cli  # noqa: F401  (not imported by the package)
    if Path(theta_parity.__file__).resolve().parent != SRC / "theta_parity":
        raise ImportError(f"theta_parity imported from {theta_parity.__file__}")
    return theta_parity


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    n: int
    bound: int = 0  # brute only: largest c searched

    def describe(self) -> str:
        if self.workload == "classify":
            return f"theta-parity classify --terms {self.n}"
        if self.workload == "brute":
            return f"brute_search({self.bound}, n_terms={self.n})"
        return f"euler_jacobi_check and bm_first_failure at n={self.n}"


def make_inputs(workload: str, seed: int, tiny: bool = False) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        n = TINY_N[workload]
    else:
        lo, hi = WINDOWS[workload]
        n = random.Random(f"{workload}:{seed}").randint(lo, hi)
    bound = 0
    if workload == "brute":
        bound = TINY_BRUTE_BOUND if tiny else BRUTE_BOUND
    return Inputs(workload, seed, n, bound)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def clear_program_caches(tp) -> None:
    """Empty every functools cache in the package, so each iteration
    starts the way a fresh ``theta-parity`` process does."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == tp.__name__
                                  or name.startswith(tp.__name__ + ".")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


# -- outputs reduced to the fields the golden file fixes ---------------------
# Only these fields are compared, so records may gain fields freely.

def classify_fields(records: list[dict], exit_code: int) -> dict:
    candidates = []
    summary = None
    for rec in records:
        if rec.get("kind") == "candidate":
            weber = rec.get("weber")
            candidates.append({
                "triple": rec["triple"],
                "status": rec["status"],
                "witness": rec.get("witness"),
                "weber": None if weber is None else
                {k: weber[k] for k in ("p", "u", "v", "index")},
            })
        elif rec.get("kind") == "summary":
            summary = {"verified": rec["verified"],
                       "ok": rec["status"] == "ok" and exit_code == 0}
    return {"candidates": candidates, "summary": summary}


def brute_fields(found, predicted) -> dict:
    return {"triples": [list(t.as_tuple()) for t in found],
            "theorem_prediction": [list(t.as_tuple()) for t in predicted]}


def parity_fields(ej: dict, bm: dict) -> dict:
    return {"euler_jacobi": [{"a": a, "witness": w} for a, w in ej.items()],
            "bm": [{"pair": list(p), "witness": w} for p, w in bm.items()]}


# -- one iteration of each workload ------------------------------------------

def compute(tp, inp: Inputs, golden: dict, scratch: Path) -> dict:
    """Run one iteration's work and return its outputs as compared fields."""
    if inp.workload == "classify":
        argv = ["classify", "--terms", str(inp.n), "--out", str(scratch)]
        # the CLI prints its own timing line to stderr; keep it out of ours
        with contextlib.redirect_stderr(io.StringIO()):
            code = tp.cli.dispatch(argv)
        with open(scratch) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        return classify_fields(records, code)
    if inp.workload == "brute":
        found = tp.classify.brute_search(inp.bound, inp.n)
        return brute_fields(found, tp.classify.theorem_prediction(inp.bound))
    g = golden["parity"]
    ej = {r["a"]: tp.theta.euler_jacobi_check(r["a"], inp.n)
          for r in g["euler_jacobi"]}
    bm = {tuple(r["pair"]): tp.partition.bm_first_failure(*r["pair"], inp.n)
          for r in g["bm"]}
    return parity_fields(ej, bm)


def expected(inp: Inputs, golden: dict) -> dict:
    """The golden outputs, restricted to this iteration's inputs."""
    g = golden[inp.workload]
    if inp.workload == "classify":
        return {"candidates": g["candidates"], "summary": g["summary"]}
    if inp.workload == "brute":
        triples = [t for t in g["triples"] if t[2] <= inp.bound]
        return {"triples": triples, "theorem_prediction": triples}
    # a first failure beyond n is not seen below n
    def seen(w):
        return w if w is not None and w <= inp.n else None
    return {"euler_jacobi": [{"a": r["a"], "witness": seen(r["witness"])}
                             for r in g["euler_jacobi"]],
            "bm": [{"pair": r["pair"], "witness": seen(r["witness"])}
                   for r in g["bm"]]}


def _keyed(items: list, key: str) -> dict:
    return {json.dumps(item[key]): item for item in items}


def compare(got: dict, want: dict) -> tuple[int, int]:
    """(outputs attempted, outputs differing from the golden results).

    An output is one candidate record, the summary, one triple of the
    brute set, the theorem's prediction, or one Euler-Jacobi or BM
    witness.  A missing or unexpected output counts as differing.
    """
    attempted = failed = 0
    for field, key in (("candidates", "triple"), ("euler_jacobi", "a"),
                       ("bm", "pair")):
        if field in want:
            g, w = _keyed(got[field], key), _keyed(want[field], key)
            for k in w.keys() | g.keys():
                attempted += 1
                failed += g.get(k) != w.get(k)
    if "summary" in want:
        attempted += 1
        failed += got["summary"] != want["summary"]
    if "triples" in want:
        g = {tuple(t) for t in got["triples"]}
        w = {tuple(t) for t in want["triples"]}
        attempted += len(g | w) + 1
        failed += len(g ^ w) + (got["theorem_prediction"] != want["theorem_prediction"])
    return attempted, failed


def output_count(inp: Inputs, golden: dict) -> int:
    """Outputs an iteration is expected to produce; all count as failed
    when the iteration raises."""
    return compare(expected(inp, golden), expected(inp, golden))[0]


def run_iteration(tp, inp: Inputs, golden: dict, scratch: Path) -> tuple[int, int]:
    """Compute and check one iteration: (outputs attempted, failed)."""
    try:
        got = compute(tp, inp, golden, scratch)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        n = output_count(inp, golden)
        return n, n
    return compare(got, expected(inp, golden))
