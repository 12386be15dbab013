import numpy as np
import pytest

import hsdual.bench
from hsdual.bench import run_bench
from hsdual.linalg import MAX_KRON_ENTRIES, DimensionMismatchError


def test_single_unitary_channel():
    row = run_bench(dim=2, kraus_rank=1, chain_length=1, trials=3, seed=1)
    assert row["max_deviation"] <= 1e-12


def test_chain_agreement():
    row = run_bench(dim=4, kraus_rank=4, chain_length=10, trials=3, seed=3)
    assert row["max_deviation"] <= 1e-8
    assert row["t_rmatrix_ns"] > 0 and row["t_nested_ns"] > 0


def test_longer_chain_reports_both_methods():
    row = run_bench(dim=8, kraus_rank=4, chain_length=20, trials=3, seed=5)
    assert row["max_deviation"] <= 1e-8
    assert list(row) == ["dim", "kraus_rank", "chain_length", "t_rmatrix_ns", "t_nested_ns", "max_deviation", "seed"]
    assert (row["dim"], row["kraus_rank"], row["chain_length"], row["seed"]) == (8, 4, 20, 5)


def test_deviation_deterministic_for_seed():
    r1 = run_bench(dim=3, kraus_rank=2, chain_length=5, trials=3, seed=9)
    r2 = run_bench(dim=3, kraus_rank=2, chain_length=5, trials=3, seed=9)
    assert r1["max_deviation"] == r2["max_deviation"]


def test_invalid_config_rejected():
    with pytest.raises(ValueError, match="run_bench: dim must be positive"):
        run_bench(dim=0, kraus_rank=1, chain_length=1)
    with pytest.raises(ValueError, match="run_bench: chain_length must be positive"):
        run_bench(dim=2, kraus_rank=1, chain_length=-2)
    with pytest.raises(ValueError, match="run_bench: trials must be positive"):
        run_bench(dim=2, kraus_rank=1, chain_length=1, trials=0)


class Drawn(Exception):
    """Raised in place of the first draw: the arguments passed their checks."""


def test_channel_cap_admits_2_20_entries_and_refuses_more(monkeypatch):
    def draw(*args):
        raise Drawn

    monkeypatch.setattr(hsdual.bench, "random_tp_kraus", draw)
    with pytest.raises(Drawn):
        run_bench(dim=4, kraus_rank=MAX_KRON_ENTRIES // 16, chain_length=1)
    with pytest.raises(DimensionMismatchError, match="bench channels"):
        run_bench(dim=4, kraus_rank=MAX_KRON_ENTRIES // 16, chain_length=2)


def test_disagreeing_strategies_raise(monkeypatch):
    kraus_apply = hsdual.bench.kraus_apply
    monkeypatch.setattr(hsdual.bench, "kraus_apply", lambda ms, a: 2 * kraus_apply(ms, a))
    with pytest.raises(AssertionError, match=r"bench: composition strategies disagree \(deviation "):
        run_bench(dim=2, kraus_rank=2, chain_length=1, trials=1)
