"""Self-checks of the benchmark's tracer and op loop.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import subprocess
import sys
from collections import Counter

import pytest

import run
from clakalab import harness, keyinfra, pairing
from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS


def _traced(workload, ops, seed=7):
    workload.prepare(seed)
    tracer = Tracer()
    tally = run.Tally(workload.gate_ops)
    with tracer.installed():
        run.run_ops(workload, ops, tally, tracer)
    return tracer, tally


def _untraced(workload, ops, seed=7):
    workload.prepare(seed)
    tally = run.Tally(workload.gate_ops)
    run.run_ops(workload, ops, tally)
    return tally


def _names(tracer):
    return Counter(span[3] for span in tracer.spans)


@pytest.mark.parametrize("name, ops", [("lab-t256", 36), ("session-c160", 4)])
def test_tracing_changes_no_report_byte(name, ops):
    workload = WORKLOADS[name]
    _, traced = _traced(workload, ops)
    untraced = _untraced(workload, ops)
    assert traced.failed == untraced.failed == 0
    assert traced.digest == untraced.digest
    assert traced.gate_digest == untraced.gate_digest


def test_calls_per_op_repeat_exactly():
    workload = WORKLOADS["lab-t256"]
    size = len(workload.rotation)
    first, _ = _traced(workload, 2 * size)
    second, _ = _traced(workload, 2 * size)
    longer, _ = _traced(workload, 3 * size)

    def calls(tracer):
        return {k: v for k, v in tracer.layer_metrics().items() if k.endswith(".calls_per_op")}

    assert calls(first) == calls(second)
    # the traced run stops at a rotation boundary after a time limit, so the
    # per-op counts must not depend on how many whole rotations ran
    assert calls(first) == calls(longer)


def test_every_span_is_seen_on_some_workload():
    seen = set()
    for name, ops in (("lab-t256", 18), ("session-c160", 4)):
        tracer, _ = _traced(WORKLOADS[name], ops)
        seen |= set(_names(tracer))
    # strict decoding and keyring import run only on replay-c256
    assert set(SPAN_NAMES) - seen == {"pairing.g1_decode_strict", "keyinfra.keyring_from_json"}


def test_shares_add_up_to_one():
    tracer, _ = _traced(WORKLOADS["lab-t256"], 18)
    metrics = tracer.layer_metrics()
    shares = sum(metrics[f"{name}.self_share"][0] for name in SPAN_NAMES)
    assert shares + metrics["harness.uncovered_share"][0] == pytest.approx(1.0)


def _descendant_counts(tracer, span_id):
    children = {}
    for span in tracer.spans:
        children.setdefault(span[2], []).append(span)
    counts = Counter()
    stack = list(children.get(span_id, ()))
    while stack:
        span = stack.pop()
        counts[span[3]] += 1
        stack += children.get(span[1], ())
    return counts


def test_xcl12_counts_agree_with_count_operations():
    tracer = Tracer()
    with tracer.installed(), tracer.op(0):
        report = harness.count_operations(seed=0, profile="t1009")
    ordered = sorted(tracer.spans, key=lambda span: span[4])
    round1 = [s for s in ordered if s[3] == "xcl12.round1"]
    derive = [s for s in ordered if s[3] in ("xcl12.derive", "xcl12.improved_derive")]
    parties = sorted(report["parties"])
    assert len(round1) == len(derive) == 2 * len(parties)
    for k, party in enumerate(parties):
        for offset, variant in ((0, "xcl12"), (len(parties), "xcl12i")):
            traced = _descendant_counts(tracer, round1[offset + k][1]) + _descendant_counts(
                tracer, derive[offset + k][1]
            )
            expected = report["parties"][party][variant]
            assert traced["pairing.pair"] == expected["pairings"] == 2
            assert traced["pairing.g2_pow"] == expected["g2_exps"] == 2
            assert traced["pairing.g1_add"] == expected["point_adds"]
            assert traced["pairing.g1_mul"] == expected["scalar_muls"]
        assert report["parties"][party]["delta"]["point_adds"] == 4


# -- wrapping pitfalls -----------------------------------------------------------


def test_scalar_multiplication_is_traced_at_the_dunders():
    backend = pairing.get_backend("t256")
    k = backend.random_scalar(random.Random(1))
    tracer = Tracer()
    with tracer.installed(), tracer.op(0):
        k * backend.P
        backend.P * k
        backend.P._scale(k)  # bound to the dunders at class creation; not a span
    assert _names(tracer)["pairing.g1_mul"] == 2
    assert tracer.counts["pairing.g1_mul.fixed_base"] == 2


def test_harness_setup_is_traced():
    tracer, _ = _traced(WORKLOADS["session-c160"], 1)
    assert _names(tracer)["keyinfra.setup"] == 1


def test_strict_and_plain_decodes_are_split():
    backend = pairing.get_backend("c160")
    raw = backend.P.to_bytes()
    tracer = Tracer()
    with tracer.installed(), tracer.op(0):
        backend.g1_from_bytes(raw)
        backend.g1_from_bytes(raw, strict=True)
        backend.g1_from_bytes(raw, True)
    names = _names(tracer)
    assert names["pairing.g1_decode"] == 1
    assert names["pairing.g1_decode_strict"] == 2


def test_prepare_warms_the_backend_cache():
    workload = WORKLOADS["session-c160"]
    workload.prepare(0)
    misses = pairing.get_backend.cache_info().misses
    tracer = Tracer()
    with tracer.installed(), tracer.op(0):
        pairing.get_backend(workload.profile)
    assert pairing.get_backend.cache_info().misses == misses
    assert _names(tracer) == Counter({"op": 1})


def test_uninstall_restores_every_patch():
    before = (vars(pairing.G1Point)["__mul__"], harness.setup, keyinfra.setup, harness.materialize)
    with Tracer().installed():
        assert harness.setup is keyinfra.setup is not before[1]
    after = (vars(pairing.G1Point)["__mul__"], harness.setup, keyinfra.setup, harness.materialize)
    assert after == before
    assert vars(pairing.G1Point)["__mul__"] is vars(pairing.G1Point)["_scale"]


# -- statistics and exit codes -------------------------------------------------


def test_tail_has_ten_samples_beyond_up_to_p95():
    assert run.tail([float(i) for i in range(1, 81)]) == (87.5, 70.0, 10)
    assert run.tail([float(i) for i in range(1, 1001)]) == (95.0, 950.0, 50)
    assert run.tail([3.0, 1.0, 2.0]) == (100 / 3, 1.0, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lab-t256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["lab-t256"]
    tracer, traced = _traced(workload, len(workload.rotation))
    untraced = _untraced(workload, len(workload.rotation))
    e2e, _ = run.end_to_end(untraced, [0.1], len(workload.rotation))
    layer = run.traced_metrics(tracer, traced, untraced, len(workload.rotation))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
