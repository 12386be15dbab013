"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 a semantic check failed, 2 usage,
parse or I/O error, 3 dimension error.  Matrix and check output uses 17
significant digits unless --digits is given; schmidt prints its coefficients
with 12 and takes no --digits.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import random
import sys

import numpy as np

from .entangle import schmidt
from .io import FormatError, fmt_number, format_matrix, load_channel, load_matrix
from .linalg import DimensionMismatchError, unitary_defect

# hsbench/tracing.py wraps these names on this module, so they must stay importable.
from .linalg import is_hermitian, min_eigenvalue, operator_norm  # noqa: F401
from .superop import SuperOp, check_cp, choi_map, compose, kraus_apply, tp_deviation, tp_verdict
from .vectorize import Basis, BasisPair, devec_jstar, vec_j

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3

# The largest per-factor dimension of vec, devec, schmidt, check and bench.
# choi and compose build d^2 x d^2 arrays, which guard_entries caps instead.
MAX_DIM = 64


def _guard_dims(*dims: int) -> None:
    for d in dims:
        if d > MAX_DIM:
            raise DimensionMismatchError(f"dimension {d} exceeds limit {MAX_DIM}")
        if d < 1:
            raise DimensionMismatchError("dimensions must be positive")


def _load_basis(path: str | None, d: int) -> Basis:
    if path is None:
        return Basis.standard(d)
    u = load_matrix(path)
    if u.shape != (d, d):
        raise DimensionMismatchError(f"basis file {path}: shape {u.shape}, expected ({d}, {d})")
    if unitary_defect(u) > 1e-8:
        raise FormatError(f"basis file {path}: matrix is not unitary within 1e-8")
    # Snap to the nearest exact unitary (polar factor) so the strict Basis
    # invariant holds; moves each column by at most the 1e-8 residue.
    w, _, vh = np.linalg.svd(u)
    return Basis(w @ vh)


def cmd_vec(args) -> int:
    a = load_matrix(args.input)
    d2, d1 = a.shape
    _guard_dims(d1, d2)
    bases = BasisPair(_load_basis(args.basis_h1, d1), _load_basis(args.basis_h2, d2))
    sys.stdout.write(format_matrix(vec_j(a, bases), args.digits))
    return EXIT_OK


def cmd_devec(args) -> int:
    v = load_matrix(args.input)
    _guard_dims(args.d1, args.d2)
    bases = BasisPair(_load_basis(args.basis_h1, args.d1), _load_basis(args.basis_h2, args.d2))
    sys.stdout.write(format_matrix(devec_jstar(v, bases), args.digits))
    return EXIT_OK


def cmd_choi(args) -> int:
    ms = load_channel(args.channel)
    c = choi_map(ms, normalize=args.normalize)
    sys.stdout.write(format_matrix(c, args.digits))
    return EXIT_OK


def cmd_check(args) -> int:
    ms = load_channel(args.channel)
    d = ms.shape[1]
    _guard_dims(d)
    run_cp = args.cp or not (args.cp or args.tp)
    run_tp = args.tp or not (args.cp or args.tp)
    ok = True
    # tp_deviation is called here by name (not through check_tp) so that
    # hsbench/tracing.py can time it.
    if run_cp:
        v = check_cp(ms)
        ok &= v.passed
        print(f"cp: {v.status} (min eigenvalue = {fmt_number(v.value, args.digits)})")
    if run_tp:
        v = tp_verdict(tp_deviation(ms))
        ok &= v.passed
        print(f"tp: {v.status} (deviation = {fmt_number(v.value, args.digits)})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_compose(args) -> int:
    # Each channel is lifted as it is read, so the d^4 cap refuses a large
    # channel before the next file is opened.
    channels = [load_channel(args.channels[0])]
    d = channels[0].shape[1]
    basis = Basis.standard(d)
    total = SuperOp.from_kraus(channels[0], basis)
    for path in args.channels[1:]:  # first file applied first
        ms = load_channel(path)
        if ms.shape[1] != d:
            raise DimensionMismatchError(f"compose: {path} has dimension {ms.shape[1]}, expected {d}")
        total = compose(SuperOp.from_kraus(ms, basis), total)
        channels.append(ms)
    sys.stdout.write(format_matrix(total.rmatrix, args.digits))
    if args.verify:
        # Standard complex Gaussian states (variance 1 per entry) from the
        # stdlib generator: importing numpy.random would cost this process
        # more than the check itself.
        gauss = random.Random(0).gauss
        sigma = 0.5**0.5
        deviation = 0.0
        for _ in range(10):
            state = np.array([gauss(0.0, sigma) for _ in range(2 * d * d)]).view(complex).reshape(d, d)
            nested = state
            for ms in channels:
                nested = kraus_apply(ms, nested)
            via_r = total.as_hsmap()(state)
            deviation = max(deviation, float(np.abs(via_r - nested).max()))
        print(f"verify: max deviation = {deviation:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_schmidt(args) -> int:
    v = load_matrix(args.input)
    _guard_dims(args.d1, args.d2)
    res = schmidt(v, BasisPair.standard(args.d1, args.d2))
    rank = res.rank
    print("lambdas: " + " ".join(fmt_number(x, 12) for x in res.lambdas))
    print(f"rank: {rank}")
    print(f"entangled: {'yes' if rank >= 2 else 'no'}")
    return EXIT_OK


def _suite(name: str) -> str:
    """The --suite value, checked against the suites selftest defines."""
    from .selftest import SUITES

    if name != "all" and name not in SUITES:
        choices = ", ".join(map(repr, ["all", *sorted(SUITES)]))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {choices})")
    return name


def _seed(args) -> int:
    """The --seed value; numpy's own error for a negative seed names no flag."""
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def cmd_selftest(args) -> int:
    from .selftest import SUITES, run_suites

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for suite, prop, value, v in run_suites(names, _seed(args)):
        ok &= v.passed
        print(f"{suite}.{prop}: {v.status} ({value} = {v.value:.3e}, threshold = {v.threshold:.1e})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    from .bench import BenchConfig, CSV_COLUMNS, run_bench

    _guard_dims(args.dim)
    cfg = BenchConfig(
        dim=args.dim,
        kraus_rank=args.kraus_rank,
        chain_length=args.chain_length,
        trials=args.trials,
        seed=_seed(args),
    )
    report = run_bench(cfg)
    print(",".join(CSV_COLUMNS))
    print(report.csv_row())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops an OSError from this write; let it reach main, so a
        # help text that cannot be written exits 2 like any other output.
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hsdual",
        description="Vectorization isomorphisms, superoperator representations, "
        "channel composition and Schmidt analysis on dense complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_digits(p):
        p.add_argument("--digits", type=int, default=17, help="significant digits in output")

    p = sub.add_parser("vec", help="vectorize an operator into a tensor-product column vector")
    p.add_argument("input", help="MatrixFile of the operator (d2 x d1)")
    p.add_argument("--basis-h1", help="unitary MatrixFile for the H1 basis")
    p.add_argument("--basis-h2", help="unitary MatrixFile for the H2 basis")
    add_digits(p)
    p.set_defaults(fn=cmd_vec)

    p = sub.add_parser("devec", help="devectorize a tensor-product vector back to an operator")
    p.add_argument("input", help="MatrixFile column vector of length d1*d2")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--basis-h1", help="unitary MatrixFile for the H1 basis")
    p.add_argument("--basis-h2", help="unitary MatrixFile for the H2 basis")
    add_digits(p)
    p.set_defaults(fn=cmd_devec)

    p = sub.add_parser("choi", help="Choi matrix of a Kraus channel")
    p.add_argument("channel", help="ChannelFile path")
    p.add_argument("--normalize", action="store_true", help="divide by the dimension")
    add_digits(p)
    p.set_defaults(fn=cmd_choi)

    p = sub.add_parser("check", help="verify complete positivity / trace preservation")
    p.add_argument("channel", help="ChannelFile path")
    p.add_argument("--cp", action="store_true", help="check complete positivity")
    p.add_argument("--tp", action="store_true", help="check trace preservation")
    add_digits(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compose", help="compose channels into one dense matrix on the vectorized space")
    p.add_argument("channels", nargs="+", help="ChannelFile paths, first applied first")
    p.add_argument("--verify", action="store_true", help="cross-check against nested Kraus sums")
    add_digits(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("schmidt", help="Schmidt coefficients and entanglement report")
    p.add_argument("input", help="MatrixFile column vector of length d1*d2")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.set_defaults(fn=cmd_schmidt)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--suite", type=_suite, default="all", help="all, or the name of one property suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("bench", help="benchmark matrix-chain vs nested-Kraus composition")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--kraus-rank", type=int, default=2)
    p.add_argument("--chain-length", type=int, default=10)
    p.add_argument("--trials", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    return parser


def output_error(e: OSError) -> int:
    """Report a failed write to stdout (a full disk, a closed pipe)."""
    print(f"error: cannot write output: {e}", file=sys.stderr)
    return EXIT_PARSE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "digits", 0) < 0:
            raise ValueError(f"--digits must be a non-negative integer, got {args.digits}")
        # A valid file whose products overflow a double is refused, not
        # answered with inf or nan entries.
        with np.errstate(over="raise"):
            return args.fn(args)
    except (DimensionMismatchError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIMENSION
    except (ValueError, FloatingPointError) as e:  # FormatError, malformed flags or settings, overflow
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:  # io reads files itself and reports its errors as FormatError
        return output_error(e)
