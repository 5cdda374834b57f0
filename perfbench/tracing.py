"""Span recorder wrapped around mpcost's public functions.

While a :meth:`Tracer.installed` block is open, every function named in
``TIMED`` is replaced, at each module that imported it, by a wrapper that
records a span: name, start, end, parent span and the benchmark
operation it belongs to. The two ``CostProfile`` lookup methods are
counted, not timed, because they run millions of times. Spans stay in
memory until the benchmark ends. Nothing under ``src/`` is changed; the
original functions are put back when the block closes.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import mpcost
import mpcost.cli
import mpcost.optimizer
import mpcost.profiles
from mpcost import CostProfile

#: Span name -> the (module, attribute) sites that hold the function.
#: ``best_of`` reaches the strategies and ``total_cost`` through the
#: optimizer module; the CLI reaches everything through its own imports;
#: the benchmark itself calls through the package namespace.
TIMED = {
    "circuit.load_circuit": [(mpcost.cli, "load_circuit")],
    "circuit.circuit_to_json": [(mpcost, "circuit_to_json")],
    "profiles.load_builtin": [(mpcost.profiles, "load_builtin")],
    "optimizer.best_of": [(mpcost.cli, "best_of"), (mpcost, "best_of")],
    "optimizer.fixed_sharing": [
        (mpcost.optimizer, "fixed_sharing"),
        (mpcost.cli, "fixed_sharing"),
    ],
    "optimizer.bottom_up": [(mpcost.optimizer, "bottom_up"), (mpcost.cli, "bottom_up")],
    "optimizer.top_down": [(mpcost.optimizer, "top_down"), (mpcost.cli, "top_down")],
    "optimizer.hill_climbing": [
        (mpcost.optimizer, "hill_climbing"),
        (mpcost.cli, "hill_climbing"),
    ],
    "optimizer.exhaustive_optimal": [
        (mpcost.cli, "exhaustive_optimal"),
        (mpcost, "exhaustive_optimal"),
    ],
    "cost_model.total_cost": [(mpcost.optimizer, "total_cost")],
    "cost_model.check_feasible": [(mpcost, "check_feasible")],
}
COUNTED = ("op_cost_cents", "conv_cost_cents")


@dataclass
class Span:
    name: str
    op: str  # kind of benchmark operation, e.g. "optimize"
    op_id: int  # one id per benchmark operation
    round: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    label: str | None = None  # heuristic label of a strategy's result

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StrategyResult:
    """A strategy's output seen by a wrapper, kept for the checks."""

    strategy: str  # "best" for best_of, else the result's heuristic label
    assignment: dict
    total: float
    iterations: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.results: list[StrategyResult] = []
        self.lookups: dict[tuple[str, int], int] = {}
        self._stack: list[int] = []
        self._op = ("", 0)
        self._op_id = 0
        self._lookup_cell = [0]

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        op, rnd = self._op
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, op, self._op_id, rnd, parent, time.perf_counter())
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if isinstance(result, mpcost.OptimizeResult):
                self.spans[index].label = result.heuristic
                self.results.append(
                    StrategyResult(
                        "best" if name == "optimizer.best_of" else result.heuristic,
                        result.assignment,
                        result.report.total,
                        result.iterations,
                    )
                )
            return result

        return wrapper

    def _counted(self, fn):
        cell = self._lookup_cell

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    @contextmanager
    def installed(self, op: str, rnd: int):
        """Trace every call made inside the block as part of operation
        ``op`` of round ``rnd``."""
        saved = []
        try:
            for name, sites in TIMED.items():
                original = getattr(*sites[0])
                for module, attr in sites[1:]:
                    if getattr(module, attr) is not original:
                        raise RuntimeError(
                            f"{module.__name__}.{attr} is not the function at "
                            f"{sites[0][0].__name__}.{sites[0][1]}; update TIMED"
                        )
                wrapper = self._timed(name, original)
                for module, attr in sites:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
            for attr in COUNTED:
                original = getattr(CostProfile, attr)
                saved.append((CostProfile, attr, original))
                setattr(CostProfile, attr, self._counted(original))
            self._op = (op, rnd)
            self._op_id += 1
            self._lookup_cell[0] = 0
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            key = (op, rnd)
            self.lookups[key] = self.lookups.get(key, 0) + self._lookup_cell[0]
            self._op = ("", 0)

    def take_results(self) -> list[StrategyResult]:
        out, self.results = self.results, []
        return out

    # -- analysis ---------------------------------------------------------

    def select(self, name: str, op: str, rnd: int) -> list[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s.name == name and s.op == op and s.round == rnd
        ]

    def self_time(self, index: int) -> float:
        """The span's duration minus the time its child spans cover
        (calls are sequential, so children never overlap)."""
        children = sum(
            s.duration for s in self.spans if s.parent == index
        )
        return self.spans[index].duration - children

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "op": s.op,
                "op_id": s.op_id,
                "round": s.round,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "label": s.label,
            }
            for s in self.spans
        ]
