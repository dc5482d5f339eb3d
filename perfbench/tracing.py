"""Spans around the calls into each layer of theta_parity.

A traced iteration wraps the package's public functions wherever a
module binds them (``classify.weber_reject``, ``classify.theta_series``,
``partition.partition_parity``, ...) and two ``Gf2Series`` methods.
Each call records a span (name, start, end, parent, tag) in memory;
``numth.is_prime`` and ``numth.is_square`` are called too often for a
span each and only count their calls.  The wrappers are removed after
the iteration, so untraced iterations run the program untouched.

Spans are named after the module that defines the function, so a
function bound in several modules gives one layer.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

ROOT_SPAN = "bench.iteration"


@dataclass(frozen=True)
class Target:
    name: str                      # layer name, module.function
    path: str                      # attribute path below the package
    span: bool = True              # False: count calls only
    tag: Optional[Callable] = None  # (args, kwargs, result) -> recorded value


def _n_terms_arg(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs.get("n_terms")


def _pair_sums(args, kwargs, result):
    # |support(f)| * |support(g)|: the pair sums the sparse path forms.
    # The supports are cached by mul itself, so this adds no kernel work.
    return len(args[0].support) * len(args[1].support)


TARGETS = (
    Target("cli.dispatch", "cli.dispatch"),
    Target("classify.brute_search", "classify.brute_search"),
    Target("classify.verify_triple", "classify.verify_triple", tag=_n_terms_arg),
    Target("quadform.weber_reject", "quadform.weber_reject",
           tag=lambda args, kwargs, result: result is not None),
    Target("theta.theta_series", "theta.theta_series"),
    Target("theta.euler_jacobi_check", "theta.euler_jacobi_check"),
    Target("partition.partition_parity", "partition.partition_parity"),
    Target("partition.bm_first_failure", "partition.bm_first_failure"),
    Target("gf2series.mul", "gf2series.Gf2Series.mul", tag=_pair_sums),
    Target("gf2series.square", "gf2series.Gf2Series.square"),
    Target("numth.is_prime", "numth.is_prime", span=False),
    Target("numth.is_square", "numth.is_square", span=False),
)


class Tracer:
    """Records spans and call counts for the iterations it is installed in.

    ``spans`` holds one list per traced iteration of
    ``[name, start, end, parent_index, tag]``, parent -1 for the root.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: list[Counter] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _owners(self):
        prefix = self.package.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _span_wrapper(self, target: Target, fn):
        name, tag = target.name, target.tag
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans[-1]
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if tag is not None:
                record[4] = tag(args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, target: Target, fn):
        name = target.name
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[-1][name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        owners = self._owners()
        self.missing = []
        for target in TARGETS:
            *owner_path, attr = target.path.split(".")
            holder = self.package
            try:
                for part in owner_path:
                    holder = getattr(holder, part)
                original = getattr(holder, attr)
            except AttributeError:
                self.missing.append(target.name)
                continue
            make = self._span_wrapper if target.span else self._count_wrapper
            wrapper = make(target, original)
            if isinstance(holder, type):
                # a method: its one binding is the class attribute
                self._patch(holder, attr, wrapper)
                continue
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def iteration(self):
        """Trace one iteration under a root span."""
        self.spans.append([])
        self.counts.append(Counter())
        self.install()
        root = [ROOT_SPAN, 0.0, 0.0, -1, None]
        self.spans[-1].append(root)
        self._stack.append(0)
        try:
            root[1] = perf_counter()
            yield
        finally:
            root[2] = perf_counter()
            self._stack.pop()
            self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


@dataclass
class Layer:
    calls: int = 0
    s: float = 0.0       # inclusive time of the outermost spans of this name
    self_s: float = 0.0  # time not covered by child spans
    tags: list = field(default_factory=list)


def layers(spans: list[list]) -> dict[str, Layer]:
    """Per-name totals for one traced iteration."""
    selfs = self_times(spans)
    out: dict[str, Layer] = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        layer = out.setdefault(name, Layer())
        layer.calls += 1
        layer.self_s += selfs[i]
        layer.tags.append(tag)
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            layer.s += end - start
    return out
