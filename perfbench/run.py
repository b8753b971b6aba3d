"""Benchmark of clakalab: end-to-end metrics, or per-module metrics from a traced run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload session-c160 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --record-digests

Load is a closed loop with one client in one thread: each op starts when
the previous one has returned.  The loop runs whole rotations of the
workload's op slots until ``--seconds`` have passed, so every run has the
same mix of ops.  Each op's output is checked (see ``workloads``), and the
reports of the fixed-seed prefix of ops must hash to the digest recorded in
``digests.json``.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
the workload's ``setup_repeats`` set-ups (import of the package, backend
construction and input generation), the first made in this process and
the others each in a fresh interpreter.

``--trace 1`` runs each rotation twice, first with the span tracer
installed and then without, until ``--seconds`` have passed or the
tracer's span capacity is full.  It prints the per-module metrics and the
tracing overhead, and writes the spans to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  The exit code is 0 only when every op and the
digest check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
TRACES = HERE / "traces"

#: highest percentile reported as the tail.  Beyond it, on a shared two-CPU
#: host, the tail measures the host's scheduling hiccups: p99 of lab-t256
#: moved by 38% between runs while p95 follows the cost of the slowest ops.
TAIL_CAP = 95.0

EXIT_FAILED = 1
EXIT_NO_PROGRAM = 3


def _import_program():
    """Import the package and the modules built on it from the source tree."""
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    return workloads, tracer


# -- measuring -----------------------------------------------------------------


class Tally:
    """What a run keeps per op: latency and variant, plus running report digests.

    Reports are hashed, not kept, so memory stays flat as the op count grows.
    ``gate_digest`` covers the reports of the fixed-seed prefix of ops and
    ``digest`` all of them.
    """

    def __init__(self, gate_ops: int):
        self.gate_ops = gate_ops
        self.ns = array("q")
        self.variants: list[str] = []
        self.failed = 0
        self._gate = hashlib.sha256()
        self._all = hashlib.sha256()

    def __len__(self) -> int:
        return len(self.ns)

    def add(self, variant: str, ns: int, ok: bool, report_bytes: bytes) -> None:
        if len(self.ns) < self.gate_ops:
            self._gate.update(report_bytes)
        self._all.update(report_bytes)
        self.ns.append(ns)
        self.variants.append(variant)
        self.failed += not ok

    @property
    def gate_digest(self) -> str:
        return self._gate.hexdigest()

    @property
    def digest(self) -> str:
        return self._all.hexdigest()

    @property
    def seconds(self) -> float:
        return sum(self.ns) / 1e9


def run_ops(workload, count: int, tally: Tally, tracer=None) -> None:
    """Run ops ``len(tally)`` .. ``count - 1`` in order and add them to ``tally``.

    A report is serialized after the op's timer stops.  An op that raises
    counts as failed and the loop goes on.
    """
    from clakalab import wire

    for index in range(len(tally), count):
        variant = workload.rotation[index % len(workload.rotation)].protocol
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                report, ok = workload.run_op(index)
            else:
                with tracer.op(index):
                    report, ok = workload.run_op(index)
        except Exception:
            elapsed = time.perf_counter_ns() - start
            traceback.print_exc(file=sys.stderr)
            tally.add(variant, elapsed, False, b"raised\n")
            continue
        elapsed = time.perf_counter_ns() - start
        tally.add(variant, elapsed, ok, b"none\n" if report is None else wire.canonical_json(report))


def measure(workload, seconds: float) -> Tally:
    """Run whole rotations until ``seconds`` have passed."""
    tally = Tally(workload.gate_ops)
    start = time.perf_counter()
    while not len(tally) or time.perf_counter() - start < seconds:
        run_ops(workload, len(tally) + len(workload.rotation), tally)
    return tally


# -- set-up --------------------------------------------------------------------


def timed_setup(name: str, seed: int):
    """Import the program, warm its backend and make the inputs; return the time."""
    start = time.perf_counter()
    workloads, tracer = _import_program()
    workload = workloads.WORKLOADS.get(name)
    if workload is None:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload.prepare(seed)
    return time.perf_counter() - start, workload, tracer


def setup_seconds(name: str, seed: int, first: float, repeats: int) -> list[float]:
    """The first set-up time plus ``repeats - 1`` more, each in a fresh interpreter."""
    times = [first]
    for _ in range(repeats - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", name, "--seed", str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# -- statistics ----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile, up to ``TAIL_CAP``, with at least ten samples beyond it.

    Returns the percentile, its value (nearest rank) and how many samples
    lie beyond it, which is fewer than ten only when there are fewer than
    eleven samples.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(math.ceil(TAIL_CAP * n / 100), n - 10))
    return 100 * rank / n, ordered[rank - 1], n - rank


def rotation_rate(tally: Tally, rotation: int) -> float:
    """Ops per second: one rotation's op count over the median rotation time."""
    seconds = [sum(tally.ns[i : i + rotation]) / 1e9 for i in range(0, len(tally), rotation)]
    return rotation / statistics.median(seconds)


def end_to_end(tally: Tally, setup_times: list[float], rotation: int) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run of whole rotations of ``rotation`` ops.

    ``ops_per_s`` comes from the median rotation time, so a burst of
    interference from outside the process slows one rotation, not the figure.
    """
    latencies = [ns / 1e6 for ns in tally.ns]
    pct, tail_ms, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (rotation_rate(tally, rotation), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for variant in ("xcq11", "xcq11i", "xcl12", "xcl12i"):
        mine = [ms for ms, v in zip(latencies, tally.variants) if v == variant]
        metrics[f"latency_p50_ms.{variant}"] = (statistics.median(mine), "ms")
    extra = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_times_s": setup_times,
        "failed_ratio": tally.failed / len(tally),
    }
    return metrics, extra


def traced_run(workload, tracer, seconds: float) -> tuple[Tally, Tally]:
    """Alternate traced and untraced runs of each rotation until ``seconds`` have passed.

    Both tallies cover the same ops; comparing them rotation by rotation
    gives the tracing overhead under the same outside load.
    """
    traced = Tally(workload.gate_ops)
    untraced = Tally(workload.gate_ops)
    start = time.perf_counter()
    while not len(traced) or (time.perf_counter() - start < seconds and not tracer.full):
        count = len(traced) + len(workload.rotation)
        with tracer.installed():
            run_ops(workload, count, traced, tracer)
        run_ops(workload, count, untraced)
    return traced, untraced


def traced_metrics(tracer, traced: Tally, untraced: Tally, rotation: int) -> dict:
    metrics = tracer.layer_metrics()
    traced_rate = rotation_rate(traced, rotation)
    untraced_rate = rotation_rate(untraced, rotation)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_share"] = (1 - traced_rate / untraced_rate, "share")
    return metrics


# -- runs ----------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="session-c160")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; every op's inputs derive from it")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json from the gate ops")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "clakalab").is_dir():
        print(f"the clakalab package is not at {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.record_digests:
        return record_digests()
    setup_first, workload, tracer_mod = timed_setup(args.workload, args.seed)
    if args.probe_setup:
        print(setup_first)
        return 0

    if args.trace:
        tracer = tracer_mod.Tracer()
        tally, untraced = traced_run(workload, tracer, args.seconds)
        metrics = traced_metrics(tracer, tally, untraced, len(workload.rotation))
        TRACES.mkdir(exist_ok=True)
        trace_path = TRACES / f"{workload.name}-seed{args.seed}.tsv"
        tracer.write(trace_path)
        attempted = len(tally) + len(untraced)
        failed = tally.failed + untraced.failed
        same_bytes = tally.digest == untraced.digest
        extra = {"trace_file": str(trace_path.relative_to(HERE.parent)), "traced_equals_untraced": same_bytes}
    else:
        setup_times = setup_seconds(args.workload, args.seed, setup_first, workload.setup_repeats)
        tally = measure(workload, args.seconds)
        metrics, extra = end_to_end(tally, setup_times, len(workload.rotation))
        attempted = len(tally)
        failed = tally.failed
        same_bytes = True

    gate_ok = tally.gate_digest == json.loads(DIGESTS.read_text())[workload.name]
    correct = failed == 0 and gate_ok and same_bytes
    meta = {
        "workload": workload.name,
        "profile": workload.profile,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "ops": len(tally),
        "rotations": len(tally) // len(workload.rotation),
        "run_seconds": tally.seconds,
        "gate_digest": tally.gate_digest,
        "gate_ok": gate_ok,
        "reports_digest": tally.digest,
        **extra,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else EXIT_FAILED


def record_digests() -> int:
    """Run the gate ops of every workload at the fixed gate seed and store their digests."""
    workloads, _ = _import_program()
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        workload.prepare(0)
        tally = Tally(workload.gate_ops)
        run_ops(workload, workload.gate_ops, tally)
        if tally.failed:
            print(f"{name}: a gate op failed; digests not written", file=sys.stderr)
            return EXIT_FAILED
        digests[name] = tally.gate_digest
        print(f"{name}: {digests[name]}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
