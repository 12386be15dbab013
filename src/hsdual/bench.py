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

import numpy as np

from .linalg import complex_gaussian, guard_entries
from .superop import SuperOp, compose, kraus_apply, random_tp_kraus
from .vectorize import Basis


def _median_ns(fn, trials: int) -> int:
    times = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(np.median(times))


def run_bench(dim: int, kraus_rank: int, chain_length: int, trials: int = 9, seed: int = 0) -> dict[str, int | float]:
    """Push one state drawn from seed through chain_length random trace-preserving
    channels of kraus_rank dim x dim blocks both ways, trials times each, and
    return the CSV row: column name -> value, in column order; max_deviation is
    a float, every other value an int (median timings in ns).  Raises
    AssertionError if the two results differ by more than 1e-8 (1 + ||nested||)."""
    for name, value in (("dim", dim), ("kraus_rank", kraus_rank), ("chain_length", chain_length), ("trials", trials)):
        if value <= 0:
            raise ValueError(f"run_bench: {name} must be positive")
    guard_entries(chain_length * kraus_rank * dim**2, "bench channels")
    rng = np.random.default_rng(seed)
    chains = [random_tp_kraus(dim, kraus_rank, rng) for _ in range(chain_length)]
    state = complex_gaussian(dim, dim, rng)
    basis = Basis.standard(dim)

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
        raise AssertionError(f"bench: composition strategies disagree (deviation {deviation:.3e})")

    return {
        "dim": dim,
        "kraus_rank": kraus_rank,
        "chain_length": chain_length,
        "t_rmatrix_ns": _median_ns(via_rmatrix, trials),
        "t_nested_ns": _median_ns(via_nested, trials),
        "max_deviation": deviation,
        "seed": seed,
    }
