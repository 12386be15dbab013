"""Seeded inputs, op lists and correctness gates for the three workloads.

Every workload is a fixed cycle of ops.  The seed picks the numbers inside the
inputs (channels, operators, bases, states) and the order of ops in each
cycle, never the sizes, so one cycle costs the same on every seed and a run of
whole cycles has the same mix of work whatever the seed.

The gates use plain numpy oracles written here, never hsdual functions:

* R-matrix of a Kraus channel: sum_i M_i^T (x) M_i^* (np.kron), chained by @;
* Choi matrix: an index reshuffle of that R-matrix;
* vec in bases U1, U2: (U1 C^T U2^T) flattened, with C = U2^* A U1;
* Schmidt coefficients: singular values of the vector reshaped to d1 x d2.

Work counts (``Op.work``) are closed forms of the array shapes an op touches;
they repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Agreement gate of the repo's own bench: max |x - ref| <= 1e-8 * (1 + ||ref||_F).
GATE_REL = 1e-8
NON_TP_SCALE = 1.05  # Kraus blocks scaled by this give sum M M^* = 1.1025 I


@dataclass
class Op:
    """One op of a workload cycle.

    CLI ops carry ``argv`` (run as ``python -m hsdual *argv``); library ops
    carry ``call``, a function of the api namespace.  ``gate`` returns None
    when the output is right, else a one-line reason.
    """

    name: str
    gate: Callable
    expect_exit: int = 0
    argv: list[str] = field(default_factory=list)
    call: Callable | None = None
    work: dict[str, int] = field(default_factory=dict)
    known_defect: bool = False


def max_dev_ok(got: np.ndarray, ref: np.ndarray) -> str | None:
    if got.shape != ref.shape:
        return f"shape {got.shape} != {ref.shape}"
    dev = float(np.abs(got - ref).max())
    limit = GATE_REL * (1 + float(np.linalg.norm(ref)))
    return None if dev <= limit else f"deviation {dev:.3e} > {limit:.3e}"


# ---------------------------------------------------------------- oracles

def gaussian(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def tp_kraus(rng, d: int, k: int, scale: float = 1.0) -> list[np.ndarray]:
    """k Kraus blocks with sum_i M_i M_i^* = scale^2 I (the hsdual convention)."""
    q, _ = np.linalg.qr(gaussian(rng, k * d, d))  # (k d) x d isometry
    return [scale * q[i * d : (i + 1) * d].conj().T for i in range(k)]


def r_matrix(ms) -> np.ndarray:
    return sum(np.kron(m.T, m.conj().T) for m in ms)


def choi_oracle(ms, normalize: bool) -> np.ndarray:
    d = ms[0].shape[0]
    # C[(i,a),(j,b)] = B(|i><j|)[a,b] = R[(b,a),(j,i)]
    c = r_matrix(ms).reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    return c / d if normalize else c


def vec_oracle(a, u1, u2) -> np.ndarray:
    c = u2.conj().T @ a @ u1
    return (u1 @ c.T @ u2.T).reshape(-1)


def slice_oracle(i: int, alpha, u1, u2) -> np.ndarray:
    d1, d2 = u1.shape[0], u2.shape[0]
    coeff = u1.conj().T @ alpha.reshape(d1, d2) @ u2.conj()
    return u2 @ coeff[i]


def kraus_chain_oracle(chain, a) -> np.ndarray:
    for ms in chain:
        a = sum(m.conj().T @ a @ m for m in ms)
    return a


def schmidt_vector(rng, d1: int, d2: int, rank: int) -> np.ndarray:
    """A vector of Schmidt rank ``rank``, coefficients drawn from [0.5, 1.5]."""
    x, _ = np.linalg.qr(gaussian(rng, d1, rank))
    y, _ = np.linalg.qr(gaussian(rng, d2, rank))
    lam = rng.uniform(0.5, 1.5, rank)
    return sum(lam[i] * np.kron(x[:, i], y[:, i]) for i in range(rank))


# ---------------------------------------------------------------- file format

def matrix_obj(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    return {
        "format": 1,
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": np.stack([a.real, a.imag], axis=-1).tolist(),
    }


def write_matrix(path: Path, a) -> str:
    path.write_text(json.dumps(matrix_obj(a)))
    return str(path)


def write_channel(path: Path, ms) -> str:
    path.write_text(json.dumps({"format": 1, "dim": ms[0].shape[0], "kraus": [matrix_obj(m) for m in ms]}))
    return str(path)


def parse_matrix_text(text: str) -> np.ndarray:
    arr = np.asarray(json.loads(text)["data"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix_gate(ref_fn: Callable[[], np.ndarray]):
    """Gate comparing the printed MatrixFile with a lazily built oracle."""
    cache = []

    def gate(out: str, err: str) -> str | None:
        if not cache:
            cache.append(ref_fn())
        ref = cache[0]
        try:
            got = parse_matrix_text(out)
        except (ValueError, KeyError) as e:
            return f"unparsable output: {e}"
        return max_dev_ok(got, ref)

    return gate


# ---------------------------------------------------------------- cli-compose

# (d, chain length, --verify); rank of channel j in op i is 1 + (i + j) % 4.
# The median falls between the 10th and 11th cheapest op of each cycle and the
# 90th percentile between the 2nd and 3rd costliest; both land inside a run of
# same-shaped ops (d=8 length 3, d=8 length 6), not on a gap between classes.
COMPOSE_DESIGN = [
    (4, 2, False), (4, 3, True), (4, 4, False), (4, 5, True),
    (4, 6, False), (4, 2, False), (4, 4, False), (4, 6, False),
    (8, 2, True), (8, 3, False), (8, 3, False), (8, 3, False), (8, 4, False),
    (8, 4, False), (8, 5, True), (8, 6, False), (8, 6, False), (8, 6, False), (8, 6, False),
    (16, 2, True),
]


def compose_ops(rng, work: Path) -> list[Op]:
    channels = {}
    for d in (4, 8, 16):
        for k in (1, 2, 3, 4):
            ms = tp_kraus(rng, d, k)
            channels[d, k] = (ms, write_channel(work / f"ch-d{d}-k{k}.json", ms))
    ops = []
    for i, (d, length, verify) in enumerate(COMPOSE_DESIGN):
        ranks = [1 + (i + j) % 4 for j in range(length)]
        chain = [channels[d, k] for k in ranks]
        argv = ["compose", *(path for _, path in chain)] + (["--verify"] if verify else [])
        matrix_gate = _matrix_gate(lambda chain=chain: _chain_oracle([ms for ms, _ in chain]))

        def gate(out, err, matrix_gate=matrix_gate, verify=verify):
            if verify and not _verify_line_ok(err):
                return f"missing or failing verify line: {err.strip()[:80]!r}"
            return matrix_gate(out, err)

        ops.append(Op(
            name=f"compose-d{d}-L{length}{'-verify' if verify else ''}-{i}",
            argv=argv,
            gate=gate,
            work={
                "lift_kd4": sum(ranks) * d**4,
                "chain_madds": length * d**6,
                "bytes_in": sum(Path(p).stat().st_size for _, p in chain),
            },
        ))
    return ops


def _chain_oracle(chain) -> np.ndarray:
    total = np.eye(chain[0][0].shape[0] ** 2, dtype=complex)
    for ms in chain:  # first file applied first
        total = r_matrix(ms) @ total
    return total


def _verify_line_ok(err: str) -> bool:
    m = re.search(r"verify: max deviation = (\S+)", err)
    return m is not None and float(m.group(1)) <= GATE_REL


# ---------------------------------------------------------------- cli-analyze

# (command, flags, d, trace preserving).  The Kraus file format can only hold
# completely positive maps, so every cp verdict is PASS; non-TP channels make
# the tp verdict FAIL and the exit code 1.  The cp check stops at d=24 and
# choi at d=16: one cp check at d=32 takes about 7 s, a fifth of a run.
# The 90th percentile falls between the 2nd and 3rd costliest op of each
# cycle, inside the three d=24 cp checks (about 1.3 s each).  Ops that long
# average out the sub-second speed swings of a shared CPU, which split a
# shorter op's latencies into a fast and a slow mode.
ANALYZE_CHANNEL_DESIGN = [
    ("check", [], 24, True),
    ("check", [], 24, False),
    ("check", ["--cp"], 24, False),
    ("check", ["--cp"], 16, False),
    ("choi", [], 16, True),
    ("choi", ["--normalize"], 8, False),
    ("check", [], 8, False),
    ("check", ["--tp"], 32, True),
    ("check", ["--tp"], 24, False),
    ("check", ["--tp"], 16, False),
]

# (command, d1, d2).  vec/devec read seeded non-standard basis files; schmidt
# uses standard bases.  Ops with a factor above 32 form the known-defect slice:
# the README accepts per-factor dimensions up to HSDUAL_MAX_DIM (64), so exit 0
# is expected, but at d1*d2 > 1024 the basis change builds a Kronecker product
# above MAX_KRON_ENTRIES and the CLI exits 3.
ANALYZE_OPERATOR_DESIGN = [
    ("vec", 8, 8), ("vec", 16, 32), ("devec", 32, 32), ("devec", 24, 16),
    ("schmidt", 32, 32), ("schmidt", 8, 40),
    ("vec", 40, 40), ("devec", 48, 32), ("schmidt", 64, 64), ("vec", 64, 24),
]
SCHMIDT_RANK = {(32, 32): 32, (8, 40): 1, (64, 64): 5}
KNOWN_DEFECT_MESSAGE = "kron result would have"


def is_known_defect(d1: int, d2: int) -> bool:
    return max(d1, d2) > 32


def known_defect_names() -> list[str]:
    return [f"{cmd}-{d1}x{d2}" for cmd, d1, d2 in ANALYZE_OPERATOR_DESIGN if is_known_defect(d1, d2)]


def analyze_ops(rng, work: Path) -> list[Op]:
    ops = []
    channels = {}
    for d in (8, 16, 24, 32):
        for tp in (True, False):
            ms = tp_kraus(rng, d, 2, 1.0 if tp else NON_TP_SCALE)
            channels[d, tp] = (ms, write_channel(work / f"ch-d{d}-{'tp' if tp else 'nontp'}.json", ms))
    for cmd, flags, d, tp in ANALYZE_CHANNEL_DESIGN:
        ms, path = channels[d, tp]
        work_counts = {"bytes_in": Path(path).stat().st_size}
        if cmd == "choi":
            gate = _matrix_gate(lambda ms=ms, n=bool(flags): choi_oracle(ms, n))
            expect = 0
            work_counts["choi_kd4"] = len(ms) * d**4
        else:
            run_cp = "--cp" in flags or not flags
            run_tp = "--tp" in flags or not flags
            gate = _check_gate(run_cp, run_tp, tp)
            expect = 1 if run_tp and not tp else 0
            if run_cp:
                work_counts["choi_kd4"] = len(ms) * d**4
                work_counts["eig_madds"] = (d * d) ** 3
        name = f"{cmd}{''.join(flags).replace('--', '-')}-d{d}-{'tp' if tp else 'nontp'}"
        ops.append(Op(name=name, argv=[cmd, path, *flags], gate=gate, expect_exit=expect, work=work_counts))

    for cmd, d1, d2 in ANALYZE_OPERATOR_DESIGN:
        stem = work / f"{cmd}-{d1}x{d2}"
        files = []
        if cmd == "schmidt":
            rank = SCHMIDT_RANK[d1, d2]
            alpha = schmidt_vector(rng, d1, d2, rank)
            files.append(write_matrix(stem.with_suffix(".vec.json"), alpha))
            argv = ["schmidt", files[0], "--d1", str(d1), "--d2", str(d2)]
            gate = _schmidt_gate(alpha, d1, d2, rank)
        else:
            u1, u2 = unitary(rng, d1), unitary(rng, d2)
            a = gaussian(rng, d2, d1)
            basis_files = [write_matrix(Path(f"{stem}.b1.json"), u1), write_matrix(Path(f"{stem}.b2.json"), u2)]
            basis_args = ["--basis-h1", basis_files[0], "--basis-h2", basis_files[1]]
            if cmd == "vec":
                files.append(write_matrix(stem.with_suffix(".op.json"), a))
                argv = ["vec", files[0], *basis_args]
                gate = _matrix_gate(lambda a=a, u1=u1, u2=u2: vec_oracle(a, u1, u2)[:, None])
            else:  # devec of vec(a) must give a back: the vec -> devec round trip
                files.append(write_matrix(stem.with_suffix(".vec.json"), vec_oracle(a, u1, u2)))
                argv = ["devec", files[0], "--d1", str(d1), "--d2", str(d2), *basis_args]
                gate = _matrix_gate(lambda a=a: a)
            files += basis_files
        ops.append(Op(
            name=f"{cmd}-{d1}x{d2}",
            argv=argv,
            gate=gate,
            work={"bytes_in": sum(Path(p).stat().st_size for p in files)},
            known_defect=is_known_defect(d1, d2),
        ))
    return ops


def _check_gate(run_cp: bool, run_tp: bool, tp: bool):
    expected = []
    if run_cp:
        expected.append("cp: PASS")
    if run_tp:
        expected.append(f"tp: {'PASS' if tp else 'FAIL'}")

    def gate(out: str, err: str) -> str | None:
        got = [line.split(" (")[0] for line in out.splitlines()]
        return None if got == expected else f"verdicts {got} != {expected}"

    return gate


def _schmidt_gate(alpha, d1: int, d2: int, rank: int):
    ref = np.linalg.svd(alpha.reshape(d1, d2), compute_uv=False)

    def gate(out: str, err: str) -> str | None:
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        try:
            lam = np.array([float(x) for x in lines["lambdas"].split()])
        except (KeyError, ValueError):
            return f"unparsable schmidt output {out[:80]!r}"
        problem = max_dev_ok(lam, ref)
        if problem:
            return problem
        if lines.get("rank") != str(rank):
            return f"rank {lines.get('rank')} != {rank}"
        if lines.get("entangled") != ("yes" if rank >= 2 else "no"):
            return f"entangled {lines.get('entangled')} for rank {rank}"
        return None

    return gate


# ---------------------------------------------------------------- lib-apply

LIB_SIZES = [(4, 8), (8, 8), (8, 16), (16, 16), (16, 32), (32, 32), (24, 40), (16, 64)]
LIB_CHAIN = (8, (2, 3, 4))  # dimension, Kraus rank of each channel in the lifted chain
LIB_STATES = 24  # states per cycle pushed through the chain both ways


@dataclass
class LibInputs:
    """Library-workload inputs; the hsdual objects are built by the caller."""

    chain: list[list[np.ndarray]]
    states: list[np.ndarray]
    sized: list[dict]  # per (d1, d2): u1, u2, a, alpha, slice index


def lib_inputs(rng) -> LibInputs:
    d, ranks = LIB_CHAIN
    chain = [tp_kraus(rng, d, k) for k in ranks]
    states = [gaussian(rng, d, d) for _ in range(LIB_STATES)]
    sized = []
    for d1, d2 in LIB_SIZES:
        u1, u2 = unitary(rng, d1), unitary(rng, d2)
        a = gaussian(rng, d2, d1)
        sized.append({
            "d1": d1, "d2": d2, "u1": u1, "u2": u2, "a": a,
            "alpha": vec_oracle(a, u1, u2), "slice": int(rng.integers(d1)),
        })
    return LibInputs(chain, states, sized)


def lib_ops(inp: LibInputs, bases: list, lifted) -> list[Op]:
    """Ops over prepared inputs.  ``bases[n]`` is the hsdual BasisPair for
    ``inp.sized[n]``; ``lifted`` the HSMap of the pre-lifted chain."""
    ops = []
    for s, bp in zip(inp.sized, bases):
        d1, d2, u1, u2, a, alpha, i = (s[k] for k in ("d1", "d2", "u1", "u2", "a", "alpha", "slice"))
        tag = f"{d1}x{d2}"
        ops += [
            Op(f"vec-{tag}", call=lambda api, a=a, bp=bp: api.vec_j(a, bp),
               gate=lambda got, ref=alpha: max_dev_ok(got, ref)),
            Op(f"devec-{tag}", call=lambda api, al=alpha, bp=bp: api.devec_jstar(al, bp),
               gate=lambda got, ref=a: max_dev_ok(got, ref)),
            Op(f"slice-{tag}", call=lambda api, al=alpha, bp=bp, i=i: api.partial_slice(i, al, bp),
               gate=lambda got, ref=slice_oracle(i, alpha, u1, u2): max_dev_ok(got, ref)),
            Op(f"schmidt-{tag}", call=lambda api, al=alpha, bp=bp: api.schmidt(al, bp),
               gate=_schmidt_reconstruction_gate(alpha, d1, d2)),
        ]
    for n, state in enumerate(inp.states):
        ref = kraus_chain_oracle(inp.chain, state)
        ops += [
            Op(f"apply-{n}", call=lambda api, st=state: api.nested_apply(inp.chain, st),
               gate=lambda got, ref=ref: max_dev_ok(got, ref)),
            Op(f"rapply-{n}", call=lambda api, st=state: api.rapply(lifted, st),
               gate=lambda got, ref=ref: max_dev_ok(got, ref)),
        ]
    return ops


def _schmidt_reconstruction_gate(alpha, d1: int, d2: int):
    ref_lam = np.linalg.svd(alpha.reshape(d1, d2), compute_uv=False)

    def gate(res) -> str | None:
        recon = sum(res.lambdas[i] * np.kron(res.left[:, i], res.right[:, i]) for i in range(res.lambdas.size))
        return max_dev_ok(np.asarray(res.lambdas), ref_lam) or max_dev_ok(recon, alpha)

    return gate
