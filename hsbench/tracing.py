"""Spans around the calls into each hsdual layer, recorded from outside.

A span is ``[name, start_ns, end_ns, parent, n]``: ``parent`` indexes the
enclosing span of the same op (-1 for a top-level span) and ``n`` is an
optional work count taken from the arguments.  Spans stay in memory and are
written out when the op (or run) ends.  All times are ``perf_counter_ns``,
which on Linux reads CLOCK_MONOTONIC and so agrees across processes.

A layer's self time is its span's duration minus the time its child spans
cover; the part of an op that no span covers belongs to ``cli.self``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

# Public names hsdual.cli calls, and the span each one records.
CLI_SPANS = {
    "load_channel": "io.parse",
    "load_matrix": "io.parse",
    "_load_basis": "cli.basis",
    "format_matrix": "io.format",
    "compose": "superop.chain",
    "choi_map": "superop.choi",
    "min_eigenvalue": "linalg.eig",
    "is_hermitian": "linalg.eig",
    "operator_norm": "linalg.eig",
    "tp_deviation": "superop.tp",
    "kraus_apply": "superop.apply",
    "vec_j": "vectorize.vec",
    "devec_jstar": "vectorize.devec",
    "schmidt": "entangle.schmidt",
}

# Library calls made in-process by the lib-apply workload.
LIB_SPANS = {
    "vec_j": "vectorize.vec",
    "devec_jstar": "vectorize.devec",
    "partial_slice": "vectorize.slice",
    "schmidt": "entangle.schmidt",
    "nested_apply": "superop.apply",
    "rapply": "superop.rapply",
    "lift": "superop.lift",
    "chain": "superop.chain",
}

def _entries(a, *_args, **_kwargs) -> int:
    return int(getattr(a, "size", 0))


class Tracer:
    """Records nested spans of one op (or one in-process run)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def record(self, name: str, start: int, end: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, 0])

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0, 0, parent, 0])
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                span = self.spans[idx]
                span[1], span[2] = start, end
                if count is not None:
                    span[4] = count(*args, **kwargs)

        return traced

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def wrap_cli(tracer: Tracer, cli) -> None:
    """Point the names hsdual.cli calls at traced wrappers."""
    for attr, name in CLI_SPANS.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), _entries if name == "io.format" else None))
    cli.SuperOp.from_kraus = staticmethod(tracer.wrap("superop.lift", cli.SuperOp.from_kraus))


def self_times(spans: list[list], root: tuple[int, int] | None = None) -> dict[str, float]:
    """Self time in ns per layer for one op's spans.

    ``root`` is the op's own (start, end) when it is wider than its top-level
    spans, as for a CLI process timed from spawn to exit; its uncovered part
    is charged to ``cli.self``.
    """
    covered = [0] * len(spans)
    top = 0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
        else:
            top += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        out["cli.self" if name == "cli.main" else name] += end - start - child
    if root is not None:
        out["cli.self"] += root[1] - root[0] - top
    return out
