"""In-memory span tracer around the public functions of each clakalab module.

Spans are recorded from the benchmark's own files: ``Tracer.installed()``
replaces module attributes and class methods of the package with timing
wrappers and puts the originals back on exit.  Nothing under ``src/``
knows about tracing.

Wrapping follows how the package binds its names:

* ``G1Point.__mul__``/``__rmul__`` are bound to ``_scale`` when the class is
  created, so the dunders are wrapped and ``_scale`` is left alone.
* ``harness`` imports ``setup`` by name, so ``harness.setup`` is patched as
  well as ``keyinfra.setup``.
* ``g1_from_bytes`` is one method with a ``strict`` flag; its calls are
  split into the ``pairing.g1_decode_strict`` and ``pairing.g1_decode``
  spans by that flag.

A span is recorded only while an operation is open (``Tracer.op``); calls
made by set-up or by the benchmark's own checks pass straight through.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from clakalab import attacks, clsig, harness, keyinfra, pairing, wire, xcl12, xcq11
from clakalab.errors import EncodingError

OP_SPAN = "op"

#: spans kept in memory before a traced run stops at the next rotation
#: boundary; about 50 MB of span records
SPAN_CAPACITY = 200_000

#: every span the tracer records, grouped by the module it belongs to
SPANS = {
    "pairing": (
        "pairing.pair",
        "pairing.g1_mul",
        "pairing.g1_add",
        "pairing.g2_pow",
        "pairing.g2_mul",
        "pairing.g1_decode_strict",
        "pairing.g1_decode",
        "pairing.g2_decode",
        "pairing.hash_to_scalar",
        "pairing.kdf",
    ),
    "keyinfra": ("keyinfra.setup", "keyinfra.make_user", "keyinfra.keyring_from_json"),
    "xcq11": ("xcq11.round1", "xcq11.improved_round1", "xcq11.derive", "xcq11.improved_derive"),
    "xcl12": ("xcl12.round1", "xcl12.derive", "xcl12.improved_derive"),
    "clsig": ("clsig.sign", "clsig.verify"),
    "wire": ("wire.build_view", "wire.canonical_json"),
    "attacks": ("attacks.forward_secrecy_attack", "attacks.secret_values_attack", "attacks.finish"),
    "harness": (
        "harness.materialize",
        "harness.build_run_report",
        "harness.build_attack_report",
        "harness.replay_report",
    ),
}
SPAN_NAMES = tuple(name for names in SPANS.values() for name in names)

_LIVE_ADVERSARIES = (
    attacks.MaskedPointKciAdversary,
    attacks.SharedValuesKgcAdversary,
    attacks.SharedValuesCommonAdversary,
)


class Tracer:
    """Records spans ``(op, span_id, parent_id, name, start_ns, end_ns, child_ns)``.

    ``child_ns`` is the time covered by the span's direct children, so a
    span's self time is ``end_ns - start_ns - child_ns``.  The root span of
    each operation is named ``op``; its self time is the op time that no
    wrapped call covers.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._op = None
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_id = 0
        self._pair_args: set = set()
        self._patches: list[tuple] = []

    # -- operations and spans ---------------------------------------------

    @contextlib.contextmanager
    def op(self, index: int):
        """Open the root span of one operation; spans are recorded inside it."""
        frame = [self._new_id(), 0]
        self._stack = [frame]
        self._pair_args = set()
        self._op = index
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._op = None
            self.spans.append((index, frame[0], None, OP_SPAN, start, end, frame[1]))
            self.counts["pairing.pair.distinct"] += len(self._pair_args)

    @property
    def full(self) -> bool:
        return len(self.spans) >= SPAN_CAPACITY

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1]
        frame = [self._new_id(), 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            parent[1] += end - start
            self.spans.append((self._op, frame[0], parent[0], name, start, end, frame[1]))

    def _wrap(self, name, fn, note=None):
        """A stand-in for ``fn`` that records a span; ``note`` sees the arguments."""

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if note is not None:
                note(*args)
            return self._call(name, fn, args, kwargs)

        return traced

    # -- observations behind the waste ratios -------------------------------

    def _note_pair(self, backend, u, v):
        self._pair_args.add((u.data, v.data))

    def _note_g1_mul(self, point, k):
        if point.data == point.backend.P.data:
            self.counts["pairing.g1_mul.fixed_base"] += 1

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr, name, note=None):
        self._patch(owner, attr, self._wrap(name, vars(owner)[attr], note))

    def _patch_g1_decode(self, backend_cls):
        decode = vars(backend_cls)["g1_from_bytes"]

        def traced(backend, raw, strict=False):
            if self._op is None:
                return decode(backend, raw, strict)
            name = "pairing.g1_decode_strict" if strict else "pairing.g1_decode"
            return self._call(name, decode, (backend, raw, strict), {})

        self._patch(backend_cls, "g1_from_bytes", traced)

    def _patch_verify(self):
        verify = self._wrap("clsig.verify", clsig.verify)

        def traced(*args, **kwargs):
            accepted = verify(*args, **kwargs)
            if not accepted and self._op is not None:
                self.counts["clsig.verify.rejected"] += 1
            return accepted

        self._patch(clsig, "verify", traced)

    def _patch_build_view(self):
        build_view = self._wrap("wire.build_view", wire.build_view)

        def traced(*args, **kwargs):
            try:
                return build_view(*args, **kwargs)
            except EncodingError:
                if self._op is not None:
                    self.counts["wire.decode_rejected"] += 1
                raise

        self._patch(wire, "build_view", traced)

    def install(self) -> None:
        for backend_cls in (pairing.TransparentBackend, pairing.SupersingularBackend):
            self._patch_span(backend_cls, "pair", "pairing.pair", self._note_pair)
            self._patch_g1_decode(backend_cls)
            self._patch_span(backend_cls, "g2_from_bytes", "pairing.g2_decode")
        self._patch_span(pairing.PairingBackend, "hash_to_scalar", "pairing.hash_to_scalar")
        self._patch_span(pairing.PairingBackend, "kdf", "pairing.kdf")
        for attr in ("__mul__", "__rmul__"):
            self._patch_span(pairing.G1Point, attr, "pairing.g1_mul", self._note_g1_mul)
        for attr in ("__add__", "__sub__"):
            self._patch_span(pairing.G1Point, attr, "pairing.g1_add")
        self._patch_span(pairing.G2Elem, "__pow__", "pairing.g2_pow")
        self._patch_span(pairing.G2Elem, "__mul__", "pairing.g2_mul")

        setup = self._wrap("keyinfra.setup", keyinfra.setup)
        self._patch(keyinfra, "setup", setup)
        self._patch(harness, "setup", setup)
        for attr in ("make_user", "keyring_from_json"):
            self._patch_span(keyinfra, attr, f"keyinfra.{attr}")
        for attr in ("round1", "improved_round1", "derive", "improved_derive"):
            self._patch_span(xcq11, attr, f"xcq11.{attr}")
        for attr in ("round1", "derive", "improved_derive"):
            self._patch_span(xcl12, attr, f"xcl12.{attr}")
        self._patch_span(clsig, "sign", "clsig.sign")
        self._patch_verify()
        self._patch_build_view()
        self._patch_span(wire, "canonical_json", "wire.canonical_json")
        for attr in ("forward_secrecy_attack", "secret_values_attack"):
            self._patch_span(attacks, attr, f"attacks.{attr}")
        for adversary_cls in _LIVE_ADVERSARIES:
            self._patch_span(adversary_cls, "finish", "attacks.finish")
        for attr in ("materialize", "build_run_report", "build_attack_report", "replay_report"):
            self._patch_span(harness, attr, f"harness.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every recorded span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tchild_ns\n")
            for span in self.spans:
                fh.write("\t".join("" if f is None else str(f) for f in span) + "\n")

    def layer_metrics(self) -> dict:
        """Per-span counts, self times and waste ratios, per recorded op."""
        calls = Counter()
        self_ns = Counter()
        ops = 0
        op_ns = 0
        for _, _, _, name, start, end, child in self.spans:
            if name == OP_SPAN:
                ops += 1
                op_ns += end - start
            calls[name] += 1
            self_ns[name] += end - start - child
        if not ops:
            raise ValueError("no operation was traced")
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls_per_op"] = (calls[name] / ops, "count")
            metrics[f"{name}.self_ms_per_op"] = (self_ns[name] / ops / 1e6, "ms")
            metrics[f"{name}.self_share"] = (self_ns[name] / op_ns, "share")
            if name.startswith("pairing."):
                per_call = self_ns[name] / calls[name] / 1e3 if calls[name] else 0.0
                metrics[f"{name}.self_us_per_call"] = (per_call, "us")
        pairs = calls["pairing.pair"]
        muls = calls["pairing.g1_mul"]
        metrics["pairing.pair.distinct_ratio"] = (
            self.counts["pairing.pair.distinct"] / pairs if pairs else 0.0,
            "ratio",
        )
        metrics["pairing.g1_mul.fixed_base_ratio"] = (
            self.counts["pairing.g1_mul.fixed_base"] / muls if muls else 0.0,
            "ratio",
        )
        metrics["clsig.verify.rejected_per_op"] = (self.counts["clsig.verify.rejected"] / ops, "count")
        metrics["wire.decode_rejected_per_op"] = (self.counts["wire.decode_rejected"] / ops, "count")
        metrics["harness.uncovered_share"] = (self_ns[OP_SPAN] / op_ns, "share")
        return metrics
