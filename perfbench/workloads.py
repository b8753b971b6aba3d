"""The benchmark's workloads: which ops run, on what inputs, and how each is checked.

Every workload is a fixed rotation of op slots.  Op ``i`` runs slot
``i % len(rotation)`` with a ``ScenarioConfig`` whose seed is derived from
the workload seed and ``i``; the first ``gate_ops`` ops take their seed
from a fixed gate seed instead, so their reports are the same in every run
and their digest can be compared with the one recorded in
``digests.json``.  The program only ever receives those configs (and, for
replays, the reports it made itself).

An op fails if it raises, if the parties disagree, if an attack's outcome
differs from the documented one (originals fall, repaired variants hold;
the honest abort of ``kci`` against ``xcq11i`` is that documented outcome),
or if a replay does not reproduce its report byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from clakalab import attacks, harness, keyinfra, wire
from clakalab.harness import ScenarioConfig
from clakalab.pairing import get_backend
from clakalab.session import PROTOCOL_VARIANTS, canonical_identities, family

GATE_SEED = "gate"

#: the ten cells of the attack matrix: every attack against its original
#: protocol and against the repair
ATTACK_CELLS = tuple(
    (attack, protocol)
    for attack, fam in attacks.ATTACK_FAMILIES.items()
    for protocol in (fam, fam + "i")
)


@dataclass(frozen=True)
class Slot:
    """One op of a rotation: ``session``, ``replay`` (of the op before it) or ``attack``."""

    kind: str
    protocol: str
    attack: Optional[str] = None


def _session(config: ScenarioConfig, keyring=None) -> tuple[dict, bool]:
    report = harness.build_run_report(harness.run_honest_session(config, keyring=keyring))
    keys = list(report["key_digests"].values())
    return report, report["agreement"] is True and None not in keys and len(set(keys)) == 1


def _attack(config: ScenarioConfig) -> tuple[dict, bool]:
    report = harness.run_attack_scenario(config).report
    expected = not config.protocol.endswith("i")
    return report, report["success"] == report["expected_success"] == expected


def _replay(report: Optional[dict]) -> tuple[Optional[dict], bool]:
    if report is None:
        return None, False
    match, regenerated = harness.replay_report(report)
    return regenerated, match


def _keyring_session(config: ScenarioConfig) -> tuple[dict, bool]:
    """The ``keygen`` -> ``run --keys`` path: keys go through a JSON keyring."""
    world = harness.materialize(config)
    users = [world.users[i] for i in canonical_identities(world.users.keys())]
    record = keyinfra.keyring_to_json(family(config.protocol), world.params, world.msk, users)
    return _session(config, keyring=json.loads(wire.canonical_json(record)))


class Workload:
    """A rotation of op slots on one crypto profile."""

    #: full set-ups timed per run for ``setup_s``; the median is reported
    setup_repeats = 7

    def __init__(self, name: str, profile: str, rotation: tuple[Slot, ...], gate_ops: int):
        self.name = name
        self.profile = profile
        self.rotation = rotation
        self.gate_ops = gate_ops
        self.seed = None
        self._last_report = None

    def op_seed(self, index: int) -> int:
        base = GATE_SEED if index < self.gate_ops else self.seed
        raw = hashlib.sha256(f"{self.name}/{base}/{index}".encode()).digest()
        return int.from_bytes(raw[:4], "big")

    def config(self, index: int) -> ScenarioConfig:
        slot = self.rotation[index % len(self.rotation)]
        if slot.kind == "replay":
            index -= 1  # a replay re-runs the session of the op before it
        return ScenarioConfig(
            protocol=slot.protocol, profile=self.profile, seed=self.op_seed(index), attack=slot.attack
        )

    def prepare(self, seed: int) -> None:
        """Warm the cached backend and generate this workload's inputs."""
        self.seed = seed
        self._last_report = None
        get_backend(self.profile)

    def run_op(self, index: int) -> tuple[Optional[dict], bool]:
        """Run op ``index``; return its report and whether it is as documented."""
        slot = self.rotation[index % len(self.rotation)]
        config = self.config(index)
        if slot.kind == "session":
            self._last_report = None  # a session that raises leaves its replay nothing to replay
            report, ok = _session(config)
            self._last_report = report
        elif slot.kind == "replay":
            report, ok = _replay(self._last_report)
        else:
            report, ok = _attack(config)
        return report, ok


class ReplayWorkload(Workload):
    """Replays of reports made once at set-up, cycling through them."""

    # one set-up makes fourteen c256 reports (about as long as a rotation of
    # replays), so it is timed once per run
    setup_repeats = 1

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.reports = []
        for index, slot in enumerate(self.rotation):
            config = self.config(index)
            report, ok = _keyring_session(config) if slot.kind == "session" else _attack(config)
            if not ok:
                raise RuntimeError(f"set-up report {index} ({config}) is not as documented")
            self.reports.append(report)

    def run_op(self, index: int) -> tuple[Optional[dict], bool]:
        return _replay(self.reports[index % len(self.reports)])


def _workloads() -> dict:
    sessions = tuple(Slot("session", p) for p in PROTOCOL_VARIANTS)
    cells = tuple(Slot("attack", p, a) for a, p in ATTACK_CELLS)
    with_replays = tuple(s for p in PROTOCOL_VARIANTS for s in (Slot("session", p), Slot("replay", p)))
    return {
        w.name: w
        for w in (
            # the default crypto profile with keygen in every op: G1 scalar
            # multiplication and pairings take nearly all the time
            Workload("session-c160", "c160", sessions, gate_ops=len(sessions)),
            # replays of keyring run reports and of the attack cells on the
            # larger profile, where a pairing costs more than a scalar
            # multiplication and strict keyring decoding shows
            ReplayWorkload("replay-c256", "c256", sessions + cells, gate_ops=2),
            # the acceptance mix on the transparent profile: group operations
            # cost about a microsecond, so Python in harness, wire, keyinfra,
            # hashing and the KDF dominates; curve changes must not move it
            Workload("lab-t256", "t256", with_replays + cells, gate_ops=len(with_replays) + len(cells)),
        )
    }


WORKLOADS = _workloads()
