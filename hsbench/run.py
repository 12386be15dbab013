"""hsdual benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 hsbench/run.py --workload cli-compose --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the op lists):

* cli-compose: ``hsdual compose`` over seeded chains of trace-preserving
  channels, d in {4, 8, 16}.  Stresses the Kraus->R lift, the chain product
  and output formatting.
* cli-analyze: one-input commands (check, choi, vec, devec, schmidt) with
  large inputs and small outputs.  Stresses parsing, the Choi build and the
  eigen-check; never lifts a channel.
* lib-apply: in-process library calls (vec/devec/slice/schmidt under random
  bases, states through a pre-lifted chain next to nested Kraus sums).  No
  process start-up and no file I/O.

Load model: a closed loop with one client.  Each op starts when the previous
one has finished; a CLI op is one ``python -m hsdual`` process.  BLAS and
OpenMP are pinned to one thread in this process and every child.  A run is
made of whole cycles of the workload's op list, in a seeded order, and ends
at the first cycle boundary after ``--seconds`` (and after at least 100 ops).

With ``--trace 0`` the last stdout line holds the end-to-end metrics, from
untraced ops.  With ``--trace 1`` untraced and traced cycles alternate; the
traced ones wrap the public names each layer exposes (see tracing.py) and
give the per-layer metrics, and the untraced ones give the tracing overhead.
Every op passes through a correctness gate built from plain numpy oracles.
"""

import os

THREADS = 1  # fixed, and never more than the cores of any machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402  (thread pins must precede the numpy import)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import LIB_SPANS, Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".hsbench_work")
MIN_OPS = 100  # so that 10 samples lie beyond the 90th percentile
SETUP_REPEATS = 5
OP_TIMEOUT_S = 120
LAST_CYCLE_START_S = 130  # no cycle starts later, so a run ends inside 180 s

WORKLOADS = ("cli-compose", "cli-analyze", "lib-apply")
END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mib": "MiB", "setup_s": "s",
}
# Self time per op, in ms, of each layer span (they sum to the traced op time).
LAYER_MS = [
    "cli.startup", "cli.self", "cli.basis", "io.parse", "io.format",
    "superop.lift", "superop.chain", "superop.choi", "superop.tp", "superop.apply",
    "superop.rapply", "linalg.eig", "vectorize.vec", "vectorize.devec",
    "vectorize.slice", "entangle.schmidt",
]
# Median duration of one call, in us.
CALL_US = ["superop.apply", "superop.rapply", "vectorize.vec", "vectorize.devec",
           "vectorize.slice", "entangle.schmidt"]
COUNTS = ["lift_kd4", "choi_kd4", "chain_madds", "eig_madds", "bytes_in", "bytes_out"]
PER_LAYER_UNITS = {
    **{f"{k}_ms": "ms" for k in LAYER_MS},
    **{f"{k}_us": "us" for k in CALL_US},
    "io.parse_mib_per_s": "MiB/s", "io.format_entries_per_s": "1/s", "io.out_bytes": "bytes",
    "superop.lift_ns_per_kd4": "ns", "superop.choi_ns_per_kd4": "ns",
    "superop.break_even_states": "states", "trace.overhead_ratio": "ratio",
    "cli.known_defect_ratio": "ratio",
    **{f"count.{k}": "bytes" if k.startswith("bytes") else "count" for k in COUNTS},
}


@dataclass
class Record:
    name: str
    ns: int
    status: str  # "ok", "known-defect" or "failed"
    reason: str = ""
    traced: bool = False
    out_bytes: int = 0
    layers: dict = field(default_factory=dict)  # layer -> self ns
    calls: dict = field(default_factory=dict)  # span name -> [duration ns]
    entries: int = 0  # matrix entries formatted
    work: dict = field(default_factory=dict)


def span_calls(spans) -> dict:
    calls = defaultdict(list)
    for name, start, end, _, _ in spans:
        calls[name].append(end - start)
    return calls


# ---------------------------------------------------------------- workloads

class CliWorkload:
    """Ops are hsdual CLI processes; inputs are files under WORK."""

    def __init__(self, name: str, seed: int):
        self.make_ops = wl.compose_ops if name == "cli-compose" else wl.analyze_ops
        self.seed = seed
        self.work = WORK / name
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup(self, traced: bool = False) -> list:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        ops = self.make_ops(np.random.default_rng(self.seed), self.work)
        for op in sorted(ops, key=lambda op: op.work["bytes_in"])[:2]:  # warm-up: byte-code and page cache
            self.run(op, traced=False)
        return ops

    def run(self, op, traced: bool) -> Record:
        out_path, err_path, spans_path = (self.work / f"op.{s}" for s in ("out", "err", "spans"))
        if traced:
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans_path), *op.argv]
        else:
            argv = [sys.executable, "-m", "hsdual", *op.argv]
        env = dict(self.env)
        spans_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter_ns()
            env["HSBENCH_SPAWN_NS"] = str(start)
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            # wait(timeout=...) polls with sleeps of up to 50 ms, which would
            # quantise the latencies; block in waitpid and kill from a timer.
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            end = time.perf_counter_ns()
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        rec = Record(op.name, end - start, *classify(op, code, stdout, stderr),
                     traced=traced, out_bytes=out_path.stat().st_size, work=op.work)
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            rec.layers = self_times(spans, root=(start, end))
            rec.calls = span_calls(spans)
            rec.entries = sum(s[4] for s in spans if s[0] == "io.format")
        return rec

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def notes(self) -> dict:
        return {}


def classify(op, code, stdout: str, stderr: str) -> tuple[str, str]:
    if code == op.expect_exit:
        reason = op.gate(stdout, stderr)
        return ("failed", reason) if reason else ("ok", "")
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if op.known_defect and code == 3 and wl.KNOWN_DEFECT_MESSAGE in stderr:
        return "known-defect", last
    return "failed", f"exit {code}, expected {op.expect_exit}: {last}"


class LibWorkload:
    """Ops are in-process hsdual calls on inputs held in memory."""

    def __init__(self, seed: int):
        sys.path.insert(0, str(SRC))
        import hsdual

        self.hs = hsdual
        self.seed = seed
        self.tracer = Tracer()
        plain = {
            "vec_j": hsdual.vec_j,
            "devec_jstar": hsdual.devec_jstar,
            "partial_slice": hsdual.partial_slice,
            "schmidt": hsdual.schmidt,
            "nested_apply": self.nested_apply,
            "rapply": lambda lifted, state: lifted(state),
            "lift": hsdual.SuperOp.from_kraus,
            "chain": hsdual.compose,
        }
        self.api = SimpleNamespace(**plain)
        self.traced_api = SimpleNamespace(**{k: self.tracer.wrap(LIB_SPANS[k], f) for k, f in plain.items()})
        self.lift_chain_ns: list[int] = []

    def nested_apply(self, chain, state):
        for ms in chain:
            state = self.hs.kraus_apply(ms, state)
        return state

    def setup(self, traced: bool = False) -> list:
        hs = self.hs
        inp = wl.lib_inputs(np.random.default_rng(self.seed))
        bases = [hs.BasisPair(hs.Basis(s["u1"]), hs.Basis(s["u2"])) for s in inp.sized]
        api = self.traced_api if traced else self.api
        basis = hs.Basis.standard(wl.LIB_CHAIN[0])
        lifted = [api.lift(ms, basis) for ms in inp.chain]
        total = lifted[0]
        for op in lifted[1:]:
            total = api.chain(op, total)
        if traced:
            spans = self.tracer.take()
            self.lift_chain_ns.append(sum(end - start for _, start, end, _, _ in spans))
        ops = wl.lib_ops(inp, bases, total.as_hsmap())
        for op in ops:  # warm-up: every call path once
            self.run(op, traced=False)
        return ops

    def run(self, op, traced: bool) -> Record:
        api = self.traced_api if traced else self.api
        start = time.perf_counter_ns()
        result = op.call(api)
        end = time.perf_counter_ns()
        reason = op.gate(result)
        rec = Record(op.name, end - start, "failed" if reason else "ok", reason or "", traced=traced)
        if traced:
            spans = self.tracer.take()
            rec.layers = self_times(spans)
            rec.calls = span_calls(spans)
        return rec

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def notes(self) -> dict:
        return {"lift_chain_ms": statistics.median(self.lift_chain_ns) / 1e6} if self.lift_chain_ns else {}


# ---------------------------------------------------------------- measuring

def measure(workload, ops: list, seconds: float, trace: bool, seed: int) -> tuple[list, int]:
    """Run whole cycles until ``seconds`` have passed; returns (records, cycles).

    With tracing, untraced and traced cycles alternate and the run ends after
    a traced one.
    """
    order = np.random.default_rng([seed, 1])
    records: list[Record] = []
    cycles = 0
    start = time.perf_counter()
    while True:
        traced = trace and cycles % 2 == 1
        for i in order.permutation(len(ops)):
            records.append(workload.run(ops[i], traced))
        cycles += 1
        elapsed = time.perf_counter() - start
        if trace and not traced:
            continue
        untraced = sum(not r.traced for r in records)
        if elapsed >= seconds and (trace or untraced >= MIN_OPS):
            break
        if elapsed >= LAST_CYCLE_START_S:
            break
    return records, cycles


def end_to_end(records: list, setup_s: list, peak_rss: float) -> dict:
    lat_ms = [r.ns / 1e6 for r in records]
    return {
        "ops_per_s": len(records) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "ok_ratio": sum(r.status == "ok" for r in records) / len(records),
        "peak_rss_mib": peak_rss,
        "setup_s": statistics.median(setup_s),
    }


def per_layer(traced: list, untraced: list, ops: list, traced_cycles: int, notes: dict) -> dict:
    n = len(traced)
    layer_ns = defaultdict(float)
    calls = defaultdict(list)
    for r in traced:
        for k, v in r.layers.items():
            layer_ns[k] += v
        for k, v in r.calls.items():
            calls[k] += v
    work = defaultdict(int)
    for r in traced:
        for k, v in r.work.items():
            work[k] += v

    def rate(amount, ns):
        return amount / (ns / 1e9) if ns else 0.0

    out = {f"{k}_ms": layer_ns[k] / n / 1e6 for k in LAYER_MS}
    out.update({f"{k}_us": statistics.median(calls[k]) / 1e3 if calls[k] else 0.0 for k in CALL_US})
    out["io.parse_mib_per_s"] = rate(work["bytes_in"] / 2**20, layer_ns["io.parse"])
    out["io.format_entries_per_s"] = rate(sum(r.entries for r in traced), layer_ns["io.format"])
    out["io.out_bytes"] = sum(r.out_bytes for r in traced) / n
    out["superop.lift_ns_per_kd4"] = layer_ns["superop.lift"] / work["lift_kd4"] if work["lift_kd4"] else 0.0
    out["superop.choi_ns_per_kd4"] = layer_ns["superop.choi"] / work["choi_kd4"] if work["choi_kd4"] else 0.0
    # N* = (lift + chain) / (apply - rapply): states beyond which lifting once
    # beats nested Kraus sums.  Negative when the lifted apply is the slower one.
    gain_us = out["superop.apply_us"] - out["superop.rapply_us"]
    out["superop.break_even_states"] = notes["lift_chain_ms"] * 1e3 / gain_us if "lift_chain_ms" in notes and gain_us else 0.0
    out["trace.overhead_ratio"] = (sum(r.ns for r in traced) / n) / (sum(r.ns for r in untraced) / len(untraced))
    out["cli.known_defect_ratio"] = sum(r.status == "known-defect" for r in traced + untraced) / (n + len(untraced))
    per_cycle = {k: sum(op.work.get(k, 0) for op in ops) for k in COUNTS}
    per_cycle["bytes_out"] = sum(r.out_bytes for r in traced) // traced_cycles
    out.update({f"count.{k}": per_cycle[k] for k in COUNTS})
    return out


def dominant_layers(traced: list) -> dict:
    """Top layers by share of op time: over all ops, around the median op
    (40th-60th percentile by latency) and in the tail (at or above p90)."""
    ranked = sorted(traced, key=lambda r: r.ns)
    n = len(ranked)
    bands = {"all": ranked, "p50": ranked[int(0.4 * n): max(int(0.6 * n), int(0.4 * n) + 1)],
             "p90": ranked[int(0.9 * n):]}
    out = {}
    for band, recs in bands.items():
        total = defaultdict(float)
        for r in recs:
            for k, v in r.layers.items():
                total[k] += v
        whole = sum(total.values()) or 1.0
        out[band] = [(k, round(v / whole, 3)) for k, v in sorted(total.items(), key=lambda kv: -kv[1])[:3]]
    return out


# ---------------------------------------------------------------- environment

def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "hsdual").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "hsdual_max_dim": os.environ.get("HSDUAL_MAX_DIM", "64"),
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_rev() -> str | None:
    """HEAD of the checkout's own .git, if it has one (exported trees do not)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write env, result and notes as JSON to this file")
    args = parser.parse_args()
    if not (SRC / "hsdual" / "__init__.py").is_file():
        print(f"error: no hsdual sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    workload = LibWorkload(args.seed) if args.workload == "lib-apply" else CliWorkload(args.workload, args.seed)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workload.setup(traced=bool(args.trace))
        setup_s.append(time.perf_counter() - start)
    try:
        records, cycles = measure(workload, ops, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = per_layer(traced, untraced, ops, cycles // 2, workload.notes())
        units = PER_LAYER_UNITS
        for band, layers in dominant_layers(traced).items():
            print(f"# dominant {band}: " + ", ".join(f"{k} {share:.1%}" for k, share in layers))
    else:
        metrics = end_to_end(untraced, setup_s, workload.peak_rss_mib())
        units = END_TO_END
        print(f"# op_p90_ms from {len(untraced)} ops, {sum(r.ns / 1e6 > metrics['op_p90_ms'] for r in untraced)} beyond it")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if args.workload == "cli-analyze":
        print("# known-defect slice (expected exit 0, README): " + ", ".join(wl.known_defect_names()))
    failures = [r for r in records if r.status == "failed"]
    for r in failures[:10]:
        print(f"# FAILED {r.name}: {r.reason}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        op_ms = defaultdict(list)
        for r in untraced:
            op_ms[r.name].append(r.ns / 1e6)
        notes = dict(workload.notes(), op_median_ms={k: statistics.median(v) for k, v in sorted(op_ms.items())})
        Path(args.out).write_text(json.dumps({"env": env, "result": result, "notes": notes}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
