import numpy as np
import pytest

from hsdual.bench import BenchConfig, CSV_COLUMNS, run_bench
from hsdual.linalg import MAX_KRON_ENTRIES, DimensionMismatchError


def test_single_unitary_channel():
    report = run_bench(BenchConfig(dim=2, kraus_rank=1, chain_length=1, trials=3, seed=1))
    assert report.max_deviation <= 1e-12


def test_chain_agreement():
    report = run_bench(BenchConfig(dim=4, kraus_rank=4, chain_length=10, trials=3, seed=3))
    assert report.max_deviation <= 1e-8
    assert report.t_rmatrix_ns > 0 and report.t_nested_ns > 0


def test_longer_chain_reports_both_methods():
    report = run_bench(BenchConfig(dim=8, kraus_rank=4, chain_length=20, trials=3, seed=5))
    assert report.max_deviation <= 1e-8
    row = report.csv_row()
    assert row.startswith("8,4,20,")
    assert len(row.split(",")) == len(CSV_COLUMNS)


def test_deviation_deterministic_for_seed():
    r1 = run_bench(BenchConfig(dim=3, kraus_rank=2, chain_length=5, trials=3, seed=9))
    r2 = run_bench(BenchConfig(dim=3, kraus_rank=2, chain_length=5, trials=3, seed=9))
    assert r1.max_deviation == r2.max_deviation


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        run_bench(BenchConfig(dim=0, kraus_rank=1, chain_length=1))
    with pytest.raises(ValueError):
        run_bench(BenchConfig(dim=2, kraus_rank=1, chain_length=-2))


def test_channel_cap_admits_2_20_entries_and_refuses_more():
    at_cap = BenchConfig(dim=4, kraus_rank=MAX_KRON_ENTRIES // 16, chain_length=1)
    at_cap.validate()
    with pytest.raises(DimensionMismatchError, match="bench channels"):
        BenchConfig(dim=4, kraus_rank=MAX_KRON_ENTRIES // 16, chain_length=2).validate()
