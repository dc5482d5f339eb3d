"""theta-parity benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload classify|brute|parity --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each iteration starts after the previous one has finished and sees cold
program caches.  Every iteration's outputs are checked against
``golden.json``.

--trace 0 measures the end-to-end metrics: set-up time, the median and
tail of the iteration time, and the peak memory of one iteration (in a
fresh process, so measuring it slows nothing).  These times are wall
times rescaled to a reference machine speed; see ``Timed``.  --trace 1
alternates traced and untraced iterations and reports per-layer metrics
from the traced ones, plus the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object.  Spans and a full
result record are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread: numpy's BLAS pool would otherwise start at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads  # noqa: E402  (sibling module; the script's directory is on sys.path)
import tracing  # noqa: E402

PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_REPEATS = 7
# The speed of the same code on a machine whose cores are shared with
# other tenants drifts by tens of percent within seconds.  While a timed
# step runs, a wall-clock timer interrupts it every SAMPLE_PERIOD seconds
# to time a small fixed piece of interpreter work; the step's wall time,
# less those samples, is rescaled to the speed at which the work takes
# REF_S.
SAMPLE_PERIOD = 0.1
REF_ITEMS = 2000
REF_S = 0.0015
# A later iteration's first partition_parity call must take at least this
# share of the first traced iteration's; a cache hit takes microseconds.
COLD_CACHE_SHARE = 0.25
MIN_TRACED = 2


def machine_record(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _commit(), "seed": seed}


def _commit() -> str:
    root = workloads.ROOT
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _probe(mode: str, inp: workloads.Inputs, tiny: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(PROBE), mode, inp.workload, str(inp.seed),
           "tiny" if tiny else "full"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{mode} probe exited with {out.returncode}")
    return out


def reference_work() -> None:
    """Heap pushes and pops of small tuples: the kind of interpreter work
    that dominates the workloads."""
    heap = []
    for i in range(REF_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        heapq.heappop(heap)


class Timed:
    """Wall times of repeated steps, and the same times at reference speed."""

    def __init__(self):
        self.wall: list[float] = []    # less the samples taken inside
        self.ref: list[float] = []     # mean sample time during each step
        self.scaled: list[float] = []  # wall * REF_S / ref
        self._samples: list[tuple[float, float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        reference_work()
        self._samples.append((t0, perf_counter() - t0))

    def step(self, fn) -> None:
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        t0 = perf_counter()
        try:
            fn()
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # a handler runs to completion between bytecodes, so a sample that
        # started before `end` lies wholly inside the step
        inside = [d for start, d in self._samples if start < end]
        if not inside:  # a step shorter than one period
            self._sample()
        ref = statistics.fmean(d for _, d in self._samples)
        wall = (end - t0) - sum(inside)
        self.wall.append(wall)
        self.ref.append(ref)
        self.scaled.append(wall * REF_S / ref)


def measure_setup(inp, tiny) -> Timed:
    """Fresh interpreters that import theta_parity and make the inputs;
    the first, untimed, one leaves bytecode caches warm."""
    _probe("setup", inp, tiny)
    timed = Timed()
    for _ in range(SETUP_REPEATS):
        timed.step(lambda: _probe("setup", inp, tiny))
    return timed


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it.  Below
    21 samples that percentile is not above the median, so the maximum
    is shown instead; it is too noisy to gate on."""
    s = sorted(samples)
    n = len(s)
    if n > 20:
        return s[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} samples"
    return s[-1], (f"max of {n} samples: with fewer than 21 no percentile "
                   f"above the median has ten beyond it; not gated")


class Loop:
    """Closed loop over iterations with cold program caches."""

    def __init__(self, tp, inp, golden, scratch):
        self.tp, self.inp, self.golden, self.scratch = tp, inp, golden, scratch
        self.attempted = self.failed = 0

    def once(self, tracer=None) -> None:
        workloads.clear_program_caches(self.tp)
        if tracer is None:
            a, f = workloads.run_iteration(self.tp, self.inp, self.golden, self.scratch)
        else:
            with tracer.iteration():
                a, f = workloads.run_iteration(self.tp, self.inp, self.golden,
                                               self.scratch)
        self.attempted += a
        self.failed += f

    def wall(self, tracer=None) -> float:
        t0 = perf_counter()
        self.once(tracer)
        return perf_counter() - t0


def _median(values):
    if not values:
        return 0.0
    if all(v == values[0] for v in values):
        return values[0]  # counts repeat exactly; keep them whole
    return statistics.median(values)


def layer_metrics(tracer, inp, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics: medians over the traced iterations."""
    per_iter = []
    for spans, counts in zip(tracer.spans, tracer.counts):
        L = tracing.layers(spans)
        get = lambda name: L.get(name, tracing.Layer())  # noqa: E731
        weber, verify, mul = (get("quadform.weber_reject"),
                              get("classify.verify_triple"), get("gf2series.mul"))
        certs = sum(1 for t in weber.tags if t)
        per_iter.append({
            "quadform.weber_reject.s": (weber.s, "s"),
            "quadform.weber_reject.calls": (weber.calls, "count"),
            "quadform.weber_reject.certs": (certs, "count"),
            "quadform.weber_reject.cert_ratio":
                (certs / weber.calls if weber.calls else 0.0, "ratio"),
            "numth.is_prime.calls": (counts["numth.is_prime"], "count"),
            "classify.verify_triple.s": (verify.s, "s"),
            "classify.verify_triple.calls": (verify.calls, "count"),
            "classify.verify_triple.full_n_calls":
                (sum(1 for t in verify.tags if t == inp.n), "count"),
            "theta.theta_series.s": (get("theta.theta_series").s, "s"),
            "theta.theta_series.calls": (get("theta.theta_series").calls, "count"),
            "gf2series.mul.s": (mul.s, "s"),
            "gf2series.mul.calls": (mul.calls, "count"),
            "gf2series.mul.pair_sums": (sum(mul.tags), "count"),
            "classify.brute_search.self_s": (get("classify.brute_search").self_s, "s"),
            "numth.is_square.calls": (counts["numth.is_square"], "count"),
            "partition.partition_parity.s": (get("partition.partition_parity").s, "s"),
            "partition.partition_parity.calls":
                (get("partition.partition_parity").calls, "count"),
            "partition.bm_first_failure.self_s":
                (get("partition.bm_first_failure").self_s, "s"),
            "gf2series.square.s": (get("gf2series.square").s, "s"),
            "gf2series.square.calls": (get("gf2series.square").calls, "count"),
            "theta.euler_jacobi_check.s": (get("theta.euler_jacobi_check").s, "s"),
            "cli.dispatch.self_s": (get("cli.dispatch").self_s, "s"),
        })
    out = {name: {"value": _median([it[name][0] for it in per_iter]), "unit": unit}
           for name, (_, unit) in per_iter[0].items()}
    out["trace.solve_s"] = {"value": _median(traced), "unit": "s"}
    out["trace.overhead_s"] = {"value": _median(traced) - _median(untraced), "unit": "s"}
    return out


def trace_checks(tracer) -> dict[str, str]:
    """Self-checks of a traced run; an empty string means passed."""
    checks = {}
    worst = 0.0
    for spans in tracer.spans:
        root = spans[0][2] - spans[0][1]
        worst = max(worst, abs(sum(tracing.self_times(spans)) - root) / root)
    checks["self times sum to the root span"] = (
        "" if worst <= 1e-6 else f"off by {worst:.2e} of the root span")
    firsts = [next((s[2] - s[1] for s in spans if s[0] == "partition.partition_parity"),
                   None) for spans in tracer.spans]
    firsts = [f for f in firsts if f is not None]
    if len(firsts) >= 2:
        problem = ""
        for k, first in enumerate(firsts[1:], start=2):
            if first < COLD_CACHE_SHARE * firsts[0]:
                problem = (f"traced iteration {k}: partition_parity took {first:.2e} s "
                           f"against {firsts[0]:.2e} s cold: a cache hit")
        checks["partition_parity is computed cold in every iteration"] = problem
    return checks


def _write_trace(tracer, path: Path, header: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for k, (spans, counts) in enumerate(zip(tracer.spans, tracer.counts), start=1):
            fh.write(json.dumps({"iteration": k, "counts": counts}) + "\n")
            t0 = spans[0][1]
            for name, start, end, parent, tag in spans:
                fh.write(json.dumps([k, name, start - t0, end - t0, parent, tag]) + "\n")


def end_to_end(loop: Loop, inp, tiny: bool, seconds: float):
    """Untraced run: (metrics, text lines, raw record)."""
    setup = measure_setup(inp, tiny)
    solve = Timed()
    start = perf_counter()
    while not solve.wall or perf_counter() - start < seconds:
        solve.step(loop.once)
    mem = json.loads(_probe("memory", inp, tiny).stdout.splitlines()[-1])
    loop.attempted += mem["attempted"]
    loop.failed += mem["failed"]
    tail_value, tail_label = tail(solve.scaled)
    metrics = {
        "setup_s": {"value": _median(setup.scaled), "unit": "s"},
        "solve_s": {"value": _median(solve.scaled), "unit": "s"},
        "peak_mem_mb": {"value": mem["peak_kb"] / 1024, "unit": "MB"},
    }
    lines = [
        f"times are at reference speed: wall time x {REF_S} s / reference "
        f"work (median {_median(solve.ref):.6f} s this run)",
        f"setup_s {metrics['setup_s']['value']:.4f} s (median of "
        f"{len(setup.wall)} fresh interpreters; wall {_median(setup.wall):.4f} s)",
        f"solve_s {metrics['solve_s']['value']:.4f} s (median of "
        f"{len(solve.scaled)} samples; wall {_median(solve.wall):.4f} s)",
        f"solve_s.tail {tail_value:.4f} s ({tail_label})",
        f"peak_mem_mb {metrics['peak_mem_mb']['value']:.1f} MB "
        f"(peak RSS less file-backed pages, of a process forked after import "
        f"to run one iteration)",
    ]
    record = {"solve": vars(solve), "setup": vars(setup),
              "solve_s_tail": {"value": tail_value, "unit": "s", "label": tail_label}}
    return metrics, lines, record


def per_layer(loop: Loop, inp, seconds: float, trace_path: Path, header: dict):
    """Traced run: (metrics, text lines, self-checks, raw record).

    Times here are plain wall times: a sampling timer would land inside
    the spans."""
    tracer = tracing.Tracer(loop.tp)
    traced, untraced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED or perf_counter() - start < seconds:
        # traced first: the process's first iteration is cold for sure
        traced.append(loop.wall(tracer))
        untraced.append(loop.wall())
    metrics = layer_metrics(tracer, inp, traced, untraced)
    _write_trace(tracer, trace_path, header)
    selfs = {}
    for spans in tracer.spans:
        for name, layer in tracing.layers(spans).items():
            selfs.setdefault(name, []).append(layer.self_s)
    ranked = sorted(selfs, key=lambda n: -_median(selfs[n]))
    lines = [f"traced {len(traced)} and untraced {len(untraced)} iterations; "
             f"overhead {metrics['trace.overhead_s']['value']:.4f} s on "
             f"{_median(untraced):.4f} s untraced",
             "self time by span (median over traced iterations):"]
    lines += [f"  {n} {_median(selfs[n]):.4f} s" for n in ranked]
    if tracer.missing:
        lines.append("not found, reported as 0: " + ", ".join(tracer.missing))
    lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"spans written to {trace_path.relative_to(workloads.ROOT)}")
    return metrics, lines, trace_checks(tracer), {"traced": traced, "untraced": untraced}


def bench(workload: str, seed: int, seconds: float, trace: bool,
          tiny: bool = False) -> tuple[list[str], dict, dict]:
    """Run one benchmark: (text lines, result object, self-checks)."""
    tp = workloads.import_program()
    inp = workloads.make_inputs(workload, seed, tiny)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}{'-tiny' if tiny else ''}"
    scratch = workloads.OUT_DIR / f"{stem}-{os.getpid()}.out"
    machine = machine_record(seed)
    lines = ["machine " + json.dumps(machine),
             f"workload {workload}: {inp.describe()}; closed loop, 1 client, "
             f"1 thread, run of {seconds:g} s"]
    loop = Loop(tp, inp, workloads.load_golden(), scratch)
    checks: dict[str, str] = {}
    try:
        if trace:
            header = {"machine": machine, "inputs": vars(inp),
                      "span": "[iteration, name, start_s, end_s, parent_index, tag]"}
            metrics, more, checks, record = per_layer(
                loop, inp, seconds, workloads.OUT_DIR / f"trace-{stem}.jsonl", header)
        else:
            metrics, more, record = end_to_end(loop, inp, tiny, seconds)
    finally:
        scratch.unlink(missing_ok=True)
    lines += more
    fail_frac = loop.failed / loop.attempted if loop.attempted else 1.0
    lines.append(f"fail_frac {fail_frac:.6g} ({loop.failed} of {loop.attempted} "
                 f"checked outputs differ from golden.json)")
    for name, problem in checks.items():
        lines.append(f"self-check {'FAILED' if problem else 'ok'}: {name}"
                     + (f": {problem}" if problem else ""))
    result = {"correct": loop.failed == 0 and loop.attempted > 0
              and not any(checks.values()),
              "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    record.update(machine=machine, inputs=vars(inp), trace=trace, result=result,
                  checks=checks, fail_frac=fail_frac)
    with open(workloads.OUT_DIR / f"result-{stem}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return lines, result, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        workloads.import_program()
    except ImportError as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 2
    lines, result, _ = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
