"""Span recorder for the traced benchmark run.

The recorder wraps public gearpinv functions from outside the package:
each target function is replaced, in every gearpinv module namespace
that binds it, by one wrapper that records a span.  Because gearpinv
modules call each other through those namespaces, nested calls produce
child spans.  Spans stay in memory and are written once, at the end.

Boundary counts (matrix order, rank, numerator and denominator bit
lengths) are taken only here.  Order and rank are read at the call;
bit lengths need a pass over every entry, so the wrapper keeps the
call's matrices and ``finish_op`` measures them after the op's timed
region.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

PACKAGE = "gearpinv"
RANK_SOURCE = "rational.rref"  # its pivot count is the rank of its input
EDM_TEST = "edm.is_edm"  # every input the benchmark gives it is a genuine EDM


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "order", "rank", "rejected", "matrices",
                 "num_bits", "den_bits")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.order = self.rank = self.num_bits = self.den_bits = 0
        self.rejected = False
        self.matrices: tuple = ()


def _order(value) -> int:
    shape = getattr(value, "shape", ())
    return max(shape) if len(shape) == 2 else 0


def _bit_lengths(matrix) -> tuple[int, int]:
    if not isinstance(matrix, np.ndarray) or matrix.dtype != object:
        return 0, 0
    num = den = 0
    for x in matrix.flat:
        if isinstance(x, Fraction):
            num = max(num, x.numerator.bit_length())
            den = max(den, x.denominator.bit_length())
        elif isinstance(x, int):
            num = max(num, x.bit_length())
            den = max(den, 1)
    return num, den


class Recorder:
    """Records spans for the metrics named ``<module>.<function>.<stat>``."""

    def __init__(self, metric_names):
        self.metric_names = list(metric_names)
        functions = [name.rsplit(".", 1)[0] for name in self.metric_names]
        self.targets = sorted(set(functions))
        self.bit_targets = {f for f, name in zip(functions, self.metric_names) if name.endswith("_bits")}
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = self._find_bindings()

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        keep_matrices = name in self.bit_targets

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.order = _order(args[0]) if args else 0
            if name == RANK_SOURCE:
                span.rank = len(result[1])
            elif name == EDM_TEST:
                span.rejected = not result.is_edm
            if keep_matrices:
                span.matrices = (args[0], result[0] if isinstance(result, tuple) else result)
            return result

        return wrapper

    def _find_bindings(self) -> list[tuple]:
        """(module, attribute, function, wrapper) for every gearpinv binding of each target."""
        importlib.import_module(f"{PACKAGE}.cli")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        patches = []
        for target in self.targets:
            module_name, func_name = target.split(".")
            func = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(target, func)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        patches.append((module, attr, func, wrapper))
        return patches

    @contextmanager
    def installed(self):
        """Swap every binding for its wrapper; restore the functions on exit."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, func, _ in self._patches:
                setattr(module, attr, func)

    def finish_op(self, first_span: int) -> None:
        """Measure bit lengths of the spans recorded since ``first_span``."""
        for span in self.spans[first_span:]:
            for matrix in span.matrices:
                num, den = _bit_lengths(matrix)
                span.num_bits = max(span.num_bits, num)
                span.den_bits = max(span.den_bits, den)
            span.matrices = ()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """The value of every metric the recorder was made for.

        Counts and times are per traced op; ``max_*`` are maxima over
        all spans.  Self time is a span's duration minus its direct
        children's, which in this single-threaded program never overlap.
        """
        child_time = defaultdict(float)
        rank_of = {}
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
                if span.name == RANK_SOURCE and span.parent not in rank_of:
                    rank_of[span.parent] = span.rank
        by_name = defaultdict(list)
        for index, span in enumerate(self.spans):
            by_name[span.name].append(index)
        out = {}
        for metric in self.metric_names:
            module, func, stat = metric.split(".")
            indices = by_name[f"{module}.{func}"]
            spans = [self.spans[i] for i in indices]
            if stat == "calls":
                value = len(spans) / ops
            elif stat == "total_s":
                value = sum(s.end - s.start for s in spans) / ops
            elif stat == "self_s":
                value = sum(self.spans[i].end - self.spans[i].start - child_time[i] for i in indices) / ops
            elif stat == "false_rejects":
                value = sum(s.rejected for s in spans) / ops
            elif stat == "max_rank":
                ranks = (s.rank if s.name == RANK_SOURCE else rank_of.get(i, 0) for i, s in zip(indices, spans))
                value = max(ranks, default=0)
            else:
                field = {"max_order": "order", "max_num_bits": "num_bits", "max_den_bits": "den_bits"}[stat]
                value = max((getattr(s, field) for s in spans), default=0)
            out[metric] = value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}))
