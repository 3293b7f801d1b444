"""Benchmark for nsakit: CLI latency, catalog re-verification and the
scaling of the analysis pipeline on large generated equations.

Run from the root of the repository:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, see README.md for why each exists):

``cli``          every packaged fixture through every CLI command, plus
                 ``catalog verify``; one fresh interpreter per op.
``catalog``      ``catalog.verify_entry`` over all 14 entries; one fresh
                 worker interpreter per pass.
``jet-scaling``  the full analysis pipeline on seeded generated fifth-order
                 equations of three sizes; one op per equation.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
from a run that alternates untraced and traced passes.  Every op's output
is checked; failed ops are counted in ``failed``.  ``--smoke`` runs one
tiny pass; ``--inject-fault`` gives the first op a wrong expectation, to
show that the gate counts it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gen
import tracer
from worker import REPORT_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_DIR = Path("src", "nsakit", "fixtures")

WORKLOADS = ("cli", "catalog", "jet-scaling")
JET_SIZES = (16, 32, 64)  # terms of the generated equation's left side
SMOKE_JET_SIZES = (6, 10)
SETUP_REPS = 7
LAYER_REPS = 5
OP_TIMEOUT_S = 120

CATALOG_IDS = (
    "3-I", "3-II", "3-III", "3-IV", "5-I", "5-II", "5-III", "5-IV", "5-V",
    "2-R", "W31", "W32a", "W32b", "W33",
)
# check-nsa classification of each fixture's substitution, as the catalog
# entries record it (W33-trivial has phi = 1, hence nonlinear)
CLASSIFICATION = {
    "W31.nsa": "nonlinear", "W32a.nsa": "weak", "W32b.nsa": "weak",
    "W33-trivial.nsa": "nonlinear", "W33.nsa": "nonlinear",
    "type-2-R.nsa": "nonlinear", "type-3-I.nsa": "nonlinear",
    "type-3-II.nsa": "nonlinear", "type-3-III.nsa": "quasi",
    "type-3-IV.nsa": "weak", "type-5-I.nsa": "nonlinear",
    "type-5-II.nsa": "nonlinear", "type-5-III.nsa": "nonlinear",
    "type-5-IV.nsa": "quasi", "type-5-V.nsa": "quasi",
}
# the verified vectors the catalog pins, in the canonical form that
# `conslaw --normalize` prints them
PINNED_VECTORS = {
    "W31.nsa": ("u", "1/3*t*u^3 + u*u_xx - 1/2*u_x^2"),
    "W32a.nsa": ("ln(u)", "u_xx"),
    "W32b.nsa": ("3*x^2*ln(u)", "-6*x*u_x + 3*x^2*u_xx + 6*u"),
    "W33.nsa": ("5*p*u + 2*u", "5/3*p*f*u^3 + 5*p*u_xxxx + 2/3*f*u^3 + 2*u_xxxx"),
}

# one CLI op: a fresh interpreter running nsakit.cli.main(ARGS), as
# `python -m nsakit.cli ARGS` does, that reports its own peak RSS
CLI_CODE = ("import sys; sys.path.insert(0, {here!r}); from worker import cli_main; "
            "sys.exit(cli_main(sys.argv[1:], {traced}))")

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ops_per_s": "1/s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


def run_child(cmd: list) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)


def digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class Op:
    """One executed op: its key, input size, seconds, verdict and output digest."""

    key: str
    size: Optional[int]
    seconds: float
    ok: bool
    why: str
    digest: str
    rss_kib: int
    trace: Optional[dict] = None


class Worker:
    """A long-lived worker interpreter answering one JSON request per line."""

    def __init__(self, traced: bool):
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        watchdog = threading.Timer(OP_TIMEOUT_S, self.proc.kill)  # a hung op ends the run
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def worker_op(worker: Worker, key: str, size: int, request: dict) -> Op:
    reply = worker.call(request)
    return Op(key, size, reply["s"], reply["ok"], reply["why"], reply["digest"],
              reply["rss_kib"], reply.get("trace"))


# --- workloads ----------------------------------------------------------


class CliWorkload:
    """Fixtures x commands, plus `catalog verify`; one process per op."""

    def __init__(self, rng: random.Random, smoke: bool, inject: bool):
        ops = []
        for path in sorted((ROOT / FIXTURE_DIR).glob("*.nsa")):
            name = path.name
            rel = str(FIXTURE_DIR / name)
            sym = re.search(r"^symmetry\s+(\w+)", path.read_text(), re.M).group(1)
            ops += [
                (f"fmt {name}", ["fmt", rel], name),
                (f"adjoint {name}", ["adjoint", rel], name),
                (f"check-nsa {name}", ["check-nsa", rel], name),
                (f"determining {name}", ["determining", rel], name),
                (f"check-symmetry {name}", ["check-symmetry", rel, "--symmetry", sym], name),
                (f"conslaw {name}", ["conslaw", rel, "--symmetry", sym, "--normalize"], name),
            ]
        ops.append(("catalog verify", ["catalog", "verify"], None))
        if smoke:
            ops = [op for op in ops if op[0] == "check-nsa W31.nsa"]
        self.ops = ops
        self.rng = rng
        self.inject = inject

    def run_pass(self, index: int, traced: bool) -> list:
        order = list(self.ops)
        self.rng.shuffle(order)
        out = []
        for key, argv, fixture in order:
            code = CLI_CODE.format(here=str(HERE), traced=traced)
            t0 = time.perf_counter()
            proc = run_child([sys.executable, "-c", code, *argv])
            seconds = time.perf_counter() - t0
            report = {"rss_kib": 0}
            if REPORT_MARK in proc.stderr:
                report = json.loads(proc.stderr.rpartition(REPORT_MARK)[2])
            expect_code = 1 if self.inject and index == 0 and key == self.ops[0][0] else 0
            why = self.check(key, fixture, proc.returncode, proc.stdout, expect_code)
            out.append(Op(key, None, seconds, not why, why,
                          digest([key, str(proc.returncode), proc.stdout]),
                          report["rss_kib"], report.get("trace")))
        return out

    @staticmethod
    def check(key: str, fixture, code: int, stdout: str, expect_code: int) -> str:
        if code != expect_code:
            return f"exit code {code}, expected {expect_code}"
        fields = dict(line.split(": ", 1) for line in stdout.splitlines()
                      if ": " in line and not line.startswith(" "))
        command = key.split()[0]
        if command in ("check-nsa", "check-symmetry", "conslaw", "catalog"):
            if fields.get("status") != "verified":
                return f"status {fields.get('status')}"
        if command == "check-nsa" and fields.get("classification") != CLASSIFICATION[fixture]:
            return f"classification {fields.get('classification')}"
        if command == "conslaw" and fixture in PINNED_VECTORS:
            if (fields.get("c0"), fields.get("c1")) != PINNED_VECTORS[fixture]:
                return f"vector ({fields.get('c0')}, {fields.get('c1')})"
        return ""

    def close(self) -> None:
        pass


class CatalogWorkload:
    """verify_entry over every catalog id; a fresh interpreter per pass."""

    def __init__(self, rng: random.Random, smoke: bool, inject: bool):
        self.ids = ("W31",) if smoke else CATALOG_IDS
        self.inject = inject

    def run_pass(self, index: int, traced: bool) -> list:
        worker = Worker(traced)
        try:
            out = []
            for entry_id in self.ids:
                op = worker_op(worker, entry_id, None, {"op": "catalog", "id": entry_id})
                if self.inject and index == 0 and entry_id == self.ids[0]:
                    op.ok, op.why = not op.ok, "verdict differs from the expected one"
                out.append(op)
            return out
        finally:
            worker.close()

    def close(self) -> None:
        pass


class JetWorkload:
    """The analysis pipeline on one generated equation per op, sizes ascending."""

    def __init__(self, rng: random.Random, smoke: bool, inject: bool):
        self.sizes = SMOKE_JET_SIZES if smoke else JET_SIZES
        self.rng = rng
        self.inject = inject
        self.workers = {}

    def run_pass(self, index: int, traced: bool) -> list:
        if traced not in self.workers:
            self.workers[traced] = Worker(traced)
        worker = self.workers[traced]
        out = []
        for size in self.sizes:
            text, terms = gen.equation(self.rng, size)
            density = gen.EXPECTED_DENSITY
            if self.inject and index == 0 and size == self.sizes[0]:
                density = "2*" + density
            request = {"op": "jet", "text": text, "terms": terms, "density": density}
            out.append(worker_op(worker, f"jet {index} {size}", size, request))
        return out

    def close(self) -> None:
        for worker in self.workers.values():
            worker.close()


WORKLOAD_CLASSES = {"cli": CliWorkload, "catalog": CatalogWorkload, "jet-scaling": JetWorkload}


# --- measurement -----------------------------------------------------------


def percentile(values: list, q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """0.9, or the highest quantile with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1 - 10 / n))


def measure_setup(reps: int) -> list:
    """Seconds of `import nsakit.cli`, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import nsakit.cli; "
            "print(repr(time.perf_counter() - t))")
    run_child([sys.executable, "-c", code])  # fills the bytecode cache
    samples = []
    for _ in range(reps):
        proc = run_child([sys.executable, "-c", code])
        if proc.returncode:
            raise BenchError(f"cannot import nsakit.cli: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples


def measure_layers_of_startup(reps: int) -> dict:
    """proc.interpreter_s and import.nsakit.<module>_s, medians of ``reps``."""
    starts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        starts.append(time.perf_counter() - t0)
    imports = {m: [] for m in tracer.MODULES}
    for _ in range(reps):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import nsakit.cli"])
        costs = tracer.parse_importtime(proc.stderr)
        for m in tracer.MODULES:
            imports[m].append(costs.get(m, 0.0))
    out = {"proc.interpreter_s": (statistics.median(starts), "s")}
    for m in tracer.MODULES:
        out[f"import.nsakit.{m}_s"] = (statistics.median(imports[m]), "s")
    return out


def run_passes(workload, seconds: float, trace: bool, smoke: bool) -> list:
    """Closed loop of passes until the next one would overrun ``seconds``.

    With tracing, passes alternate untraced / traced and end on a pair.
    Returns (traced, ops, wall seconds) per pass.
    """
    deadline = time.perf_counter() + seconds
    longest = 0.0
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        ops = workload.run_pass(len(passes), traced)
        longest = max(longest, time.perf_counter() - t0)
        passes.append((traced, ops, time.perf_counter() - t0))
        if trace and len(passes) % 2:
            continue
        if smoke or time.perf_counter() + longest > deadline:
            return passes


def check_determinism(passes: list) -> None:
    """Fail ops whose output differs from the first run of the same op."""
    first = {}
    for _traced, ops, _wall in passes:
        for op in ops:
            if op.ok and op.digest != first.setdefault(op.key, op.digest):
                op.ok, op.why = False, "output differs from the first run of this op"


def end_to_end(passes: list, setup: list, sized: bool) -> dict:
    ops = [op for _t, pass_ops, _w in passes for op in pass_ops]
    seconds = [op.seconds for op in ops]
    median_of = seconds
    if sized:  # the median follows the largest equations only
        top = max(op.size for op in ops)
        median_of = [op.seconds for op in ops if op.size == top]
    q = tail_quantile(len(seconds))
    notes = {
        "op_p50_ms": f"median of {len(median_of)} ops",
        "op_p90_ms": f"p{q * 100:.0f} of {len(seconds)} ops",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "pass_s": f"median of {len(passes)} passes",
    }
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(sum(op.seconds for op in p) for _t, p, _w in passes),
        "op_p50_ms": statistics.median(median_of) * 1e3,
        "op_p90_ms": percentile(seconds, q) * 1e3,
        "ops_per_s": len(ops) / sum(wall for _t, _p, wall in passes),
        "peak_rss_mb": max(op.rss_kib for op in ops) / 1024,
    }
    return {name: (values[name], END_TO_END[name], notes.get(name, "")) for name in END_TO_END}


def per_layer(plain: list, traced: list, sized: bool, startup: dict) -> dict:
    stats = tracer.empty_stats()
    self_total = 0.0
    for _t, ops, _w in traced:
        for op in ops:
            if op.trace is None:
                continue
            tracer.merge(stats, op.trace["stats"])
            self_total += op.trace["self_s"]
    out = tracer.layer_metrics(stats)
    out.update(startup)

    def median_pass(passes):
        return statistics.median(sum(op.seconds for op in p) for _t, p, _w in passes)

    traced_ops = [op for _t, ops, _w in traced for op in ops]
    out["trace.overhead_ratio"] = (median_pass(traced) / median_pass(plain), "1")
    out["trace.self_share"] = (self_total / sum(op.seconds for op in traced_ops), "1")
    slope = 0.0
    if sized:
        ops = [op for _t, p, _w in plain for op in p]
        lo, hi = min(op.size for op in ops), max(op.size for op in ops)
        med = {s: statistics.median(op.seconds for op in ops if op.size == s) for s in (lo, hi)}
        slope = math.log(med[hi] / med[lo]) / math.log(hi / lo)
    out["scaling_exponent"] = (slope, "1")
    return {name: (value, unit, "") for name, (value, unit) in out.items()}


def check_trace(passes: list) -> None:
    """Self time of the spans in an op can never exceed the op's wall time."""
    for traced, ops, _w in passes:
        for op in ops:
            if not traced:
                continue
            if op.trace is None:
                op.ok, op.why = False, "no trace from a traced op"
            elif op.trace["self_s"] > op.seconds:
                op.ok, op.why = False, "span self time exceeds the op's wall time"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of a tiny op set, to test the benchmark itself")
    parser.add_argument("--inject-fault", action="store_true",
                        help="give the first op a wrong expectation")
    args = parser.parse_args(argv)

    if not (SRC / "nsakit" / "cli.py").is_file():
        raise BenchError(f"no nsakit sources under {SRC}")
    rng = random.Random(args.seed)
    workload = WORKLOAD_CLASSES[args.workload](rng, args.smoke, args.inject_fault)
    sized = args.workload == "jet-scaling"
    if args.trace:
        startup = measure_layers_of_startup(1 if args.smoke else LAYER_REPS)
    else:
        setup = measure_setup(1 if args.smoke else SETUP_REPS)
    try:
        passes = run_passes(workload, args.seconds, bool(args.trace), args.smoke)
    finally:
        workload.close()

    check_determinism(passes)
    check_trace(passes)
    plain = [p for p in passes if not p[0]]
    if args.trace:
        metrics = per_layer(plain, [p for p in passes if p[0]], sized, startup)
    else:
        metrics = end_to_end(plain, setup, sized)

    ops = [op for _t, pass_ops, _w in passes for op in pass_ops]
    failed = [op for op in ops if not op.ok]
    first = sorted(op.digest for op in passes[0][1])
    print(f"workload: {args.workload}  seed: {args.seed}  passes: {len(passes)}"
          f"  ops: {len(ops)}")
    print(f"digest: {digest(first)}")
    for op in failed[:10]:
        print(f"FAILED {op.key}: {op.why}")
    print(f"failed_ratio: {len(failed) / len(ops)} ({len(failed)}/{len(ops)})")
    for name, (value, unit, note) in metrics.items():
        print(f"{name}: {value} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
