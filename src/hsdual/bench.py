"""Benchmark: channel-chain composition as one matrix product vs nested Kraus sums.

Two ways to push a state through a chain of channels:

* lift each channel to its dense matrix on the vectorized space, multiply the
  chain into a single matrix, apply once;
* apply the nested Kraus sums state by state through the chain.

Timings are measured (median of trials) and reported, never asserted; the
only tested invariant is that both methods agree numerically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linalg import complex_gaussian, guard_entries
from .superop import SuperOp, compose, kraus_apply, random_tp_kraus
from .vectorize import Basis

CSV_COLUMNS = ["dim", "kraus_rank", "chain_length", "t_rmatrix_ns", "t_nested_ns", "max_deviation", "seed"]


@dataclass(frozen=True)
class BenchConfig:
    dim: int
    kraus_rank: int
    chain_length: int
    trials: int = 9
    seed: int = 0

    def validate(self) -> None:
        for field in ("dim", "kraus_rank", "chain_length", "trials"):
            if getattr(self, field) <= 0:
                raise ValueError(f"BenchConfig.{field} must be positive")
        guard_entries(self.chain_length * self.kraus_rank * self.dim**2, "bench channels")


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    t_rmatrix_ns: int
    t_nested_ns: int
    max_deviation: float

    def csv_row(self) -> str:
        c = self.config
        return (
            f"{c.dim},{c.kraus_rank},{c.chain_length},"
            f"{self.t_rmatrix_ns},{self.t_nested_ns},{self.max_deviation:.3e},{c.seed}"
        )


def _median_ns(fn, trials: int) -> int:
    times = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(np.median(times))


def run_bench(cfg: BenchConfig) -> BenchReport:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    chains = [random_tp_kraus(cfg.dim, cfg.kraus_rank, rng) for _ in range(cfg.chain_length)]
    state = complex_gaussian(cfg.dim, cfg.dim, rng)
    basis = Basis.standard(cfg.dim)

    def via_rmatrix():
        total = SuperOp.from_kraus(chains[0], basis)
        for ms in chains[1:]:
            total = compose(SuperOp.from_kraus(ms, basis), total)
        return total.as_hsmap()(state)

    def via_nested():
        out = state
        for ms in chains:
            out = kraus_apply(ms, out)
        return out

    a = via_rmatrix()
    b = via_nested()
    deviation = float(np.abs(a - b).max())
    if deviation > 1e-8 * (1 + np.linalg.norm(b)):
        raise AssertionError(
            f"bench: composition strategies disagree (deviation {deviation:.3e})"
        )

    t_r = _median_ns(via_rmatrix, cfg.trials)
    t_n = _median_ns(via_nested, cfg.trials)
    return BenchReport(config=cfg, t_rmatrix_ns=t_r, t_nested_ns=t_n, max_deviation=deviation)
