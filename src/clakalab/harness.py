"""Session orchestration: honest runs, attack scenarios, and reports.

Three party state machines run over a simulated reliable broadcast channel
driven by a deterministic single-threaded scheduler.  A live adversary may
occupy the network slot of the lexicographically last participant; passive
adversaries post-process a finished transcript instead.  A scenario
configuration (protocol, backend profile, seed, identities, attack) fully
determines a run, so every report is byte-reproducible and every stored
transcript can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from . import attacks, keyinfra, wire, xcl12, xcq11
from .errors import EncodingError, ScenarioError, SignatureInvalidError
from .keyinfra import SystemParams, setup
from .pairing import DEFAULT_KEY_BITS, KEY_BITS_RULE, PROFILE_NAMES, OpCounter, get_backend, metered, valid_key_bits
from .session import (
    PROTOCOL_VARIANTS,
    PartyPublic,
    SessionKey,
    canonical_identities,
    family,
    valid_identity,
)

DEFAULT_IDENTITIES = ("alice", "bob", "carol")
DEFAULT_PROFILE = "t256"


def rng_for(seed: int, *labels: str) -> random.Random:
    """Independent deterministic stream per (seed, label path)."""
    return random.Random(f"{seed}/" + "/".join(labels))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines one run, honest or adversarial; valid by construction."""

    protocol: str
    profile: str = DEFAULT_PROFILE
    seed: int = 0
    identities: tuple[str, ...] = DEFAULT_IDENTITIES
    attack: Optional[str] = None
    key_bits: int = DEFAULT_KEY_BITS

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.protocol not in PROTOCOL_VARIANTS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.profile not in PROFILE_NAMES:
            raise ScenarioError(f"unknown profile {self.profile!r}")
        if type(self.seed) is not int:
            raise ScenarioError(f"seed must be an integer, not {self.seed!r}")
        # checked before set(), which needs hashable items
        if not isinstance(self.identities, tuple) or not all(valid_identity(i) for i in self.identities):
            raise ScenarioError("identities must be a tuple of strings that encode as UTF-8")
        if len(self.identities) != 3 or len(set(self.identities)) != 3:
            raise ScenarioError("exactly three distinct identities are required")
        if self.attack is not None and not (
            isinstance(self.attack, str) and attacks.attack_applies(self.attack, self.protocol)
        ):
            raise ScenarioError(f"attack {self.attack!r} is not defined for protocol {self.protocol!r}")
        if not valid_key_bits(self.key_bits):
            raise ScenarioError(f"key_bits must be {KEY_BITS_RULE}, not {self.key_bits!r}")

    def to_json(self) -> dict:
        # every field in declaration order, the identities as a JSON list
        return {name: getattr(self, name) for name in self.__dataclass_fields__} | {"identities": list(self.identities)}

    @classmethod
    def from_json(cls, obj: Mapping, protocol: Optional[str] = None) -> "ScenarioConfig":
        """Parse a stored config; ``protocol`` stands in for a config that names none.

        Any other field the config leaves out takes its declared default.
        """
        if not isinstance(obj, Mapping):
            raise EncodingError("malformed scenario config: not a JSON object")
        identities = obj.get("identities", list(DEFAULT_IDENTITIES))
        if not isinstance(identities, list):
            raise EncodingError("scenario identities must be a JSON list")
        values = {name: obj.get(name, f.default) for name, f in cls.__dataclass_fields__.items()}
        values |= {"protocol": obj.get("protocol") if protocol is None else protocol, "identities": tuple(identities)}
        try:
            return cls(**values)
        except ScenarioError as exc:
            raise EncodingError(f"malformed scenario config: {exc}") from exc


@dataclass
class World:
    """Materialized key infrastructure for one scenario."""

    config: ScenarioConfig
    backend: object
    params: SystemParams
    msk: keyinfra.MasterKey
    users: dict  # identity bytes -> user key record
    keyring: Optional[dict] = None  # set when keys came from a key file


def materialize(config: ScenarioConfig, keyring: Optional[Mapping] = None) -> World:
    """Generate (or adopt) system parameters and all three users' keys."""
    fam = family(config.protocol)
    if keyring is not None:
        # the header is checked before any key is rebuilt; as sorted lists,
        # the identities refuse a repeated or extra user
        header = profile, identities, key_bits = keyinfra.keyring_header(keyring)
        if profile != config.profile:
            raise ScenarioError("key file profile does not match the scenario profile")
        if sorted(identities) != sorted(config.identities):
            raise ScenarioError("key file identities do not match the scenario identities")
        if key_bits != config.key_bits:
            raise ScenarioError("key file key_bits does not match the scenario key_bits")
        ring_fam, params, msk, users = keyinfra.keyring_from_json(keyring, header)
        if ring_fam != fam:
            raise ScenarioError(f"key file holds {ring_fam!r} material, not {fam!r}")
        return World(config, params.backend, params, msk, users, keyring=dict(keyring))
    backend = get_backend(config.profile)
    params, msk = setup(backend, rng_for(config.seed, "setup"), config.key_bits)
    ids = canonical_identities(tuple(i.encode("utf-8") for i in config.identities))
    rngs = {identity: rng_for(config.seed, "user", identity.decode()) for identity in ids}
    return World(config, backend, params, msk, keyinfra.make_user(fam, params, msk, rngs))


_PHASES = ("init", "announced", "flows-sent", "derived", "aborted")


def public_record(protocol: str, user):
    """The announcement any eavesdropper knows: identity plus public points."""
    return PartyPublic(user.identity, user.upk, user.partial.r_u if family(protocol) == "xcl12" else None)


class PartyMachine:
    """One honest participant: announce, send flows, derive, maybe abort.

    ``counter`` holds the group operations of its own ``flows`` and ``derive``.
    """

    def __init__(self, protocol: str, params: SystemParams, user, rng):
        self.protocol = protocol
        self.params = params
        self.user = user
        self.rng = rng
        self.counter = OpCounter()
        self.phase = "init"
        self.state = None
        self.key: Optional[SessionKey] = None

    def announcement(self):
        self.phase = "announced"
        return public_record(self.protocol, self.user)

    def flows(self, peers):
        with metered(self.counter):
            if self.protocol == "xcq11":
                self.state = xcq11.round1(self.params, peers, self.rng)
            elif self.protocol == "xcq11i":
                self.state = xcq11.improved_round1(self.params, self.user, self.rng)
            else:
                self.state = xcl12.round1(self.params, peers, self.rng)
        self.phase = "flows-sent"
        return self.state

    def derive(self, view) -> SessionKey:
        try:
            with metered(self.counter):
                if self.protocol == "xcq11":
                    key = xcq11.derive(self.params, self.user, self.state, view)
                elif self.protocol == "xcq11i":
                    key = xcq11.improved_derive(self.params, self.user, self.state, view)
                elif self.protocol == "xcl12":
                    _, key = xcl12.derive(self.params, self.user, self.state, view)
                else:
                    _, key = xcl12.improved_derive(self.params, self.user, self.state, view)
        except SignatureInvalidError:
            self.phase = "aborted"
            raise
        self.phase = "derived"
        self.key = key
        return key


class HonestSlotImpersonator(PartyMachine):
    """Live 'adversary' that plays the honest protocol with real keys.

    Exists to check that adversarial plumbing never touches honest code
    paths: with the impersonated party's own keys and rng stream, a session
    run through the adversary slot must be bit-identical to an honest run.
    """

    def finish(self, view) -> attacks.AdversaryResult:
        return attacks.AdversaryResult(self.derive(view).key, {})


@dataclass
class SessionRun:
    """Raw result of driving one broadcast session to completion."""

    world: World
    transcript: dict
    keys: dict  # identity -> SessionKey | None
    aborted: tuple[bytes, ...]
    view: object
    ephemerals: dict  # identity -> int (honest parties only)
    op_counts: dict  # identity -> OpCounter of flows and derive (honest parties only)
    adversary_result: Optional[attacks.AdversaryResult] = None


def _drive_session(world: World, impostor=None) -> SessionRun:
    """Run announcements, flows, and derivation over the broadcast channel."""
    config = world.config
    protocol = config.protocol
    params = world.params
    ids = canonical_identities(world.users.keys())

    # an impostor takes the last slot; honest machines hold the others
    machines = {
        identity: PartyMachine(protocol, params, world.users[identity], rng_for(config.seed, "party", identity.decode()))
        for identity in (ids if impostor is None else ids[:2])
    }
    actors = machines if impostor is None else {**machines, ids[2]: impostor}

    session_id = f"{protocol}-{config.profile}-s{config.seed}"
    messages = []

    announcements = {}
    for identity in ids:
        ann = actors[identity].announcement()
        announcements[identity] = ann
        payload = wire.announce_payload(ann)
        messages.append(wire.message_record(session_id, protocol, len(messages), identity, "announce", payload))

    flow_payloads = []
    for identity in ids:
        peers = [announcements[j] for j in ids if j != identity]
        outgoing = actors[identity].flows(peers)
        payload = wire.flows_payload(protocol, outgoing)
        flow_payloads.append((identity, payload))
        messages.append(wire.message_record(session_id, protocol, len(messages), identity, "flows", payload))

    # every receiver decodes the same broadcast bytes; build the shared view
    view = wire.build_view(
        protocol, params, [m["payload"] for m in messages if m["type"] == "announce"], flow_payloads
    )

    keys = {}
    aborted = []
    for identity, machine in machines.items():
        try:
            keys[identity] = machine.derive(view)
        except SignatureInvalidError:
            keys[identity] = None
            aborted.append(identity)

    adversary_result = impostor.finish(view) if impostor is not None else None

    transcript = {
        "schema": wire.TRANSCRIPT_SCHEMA,
        "session_id": session_id,
        "protocol": protocol,
        "profile": config.profile,
        "parties": [i.decode("utf-8") for i in ids],
        "messages": messages,
    }
    ephemerals = {
        identity: machine.state.ephemeral.value for identity, machine in machines.items()
    }
    return SessionRun(
        world=world,
        transcript=transcript,
        keys=keys,
        aborted=tuple(aborted),
        view=view,
        ephemerals=ephemerals,
        op_counts={identity: machine.counter for identity, machine in machines.items()},
        adversary_result=adversary_result,
    )


# -- honest sessions -----------------------------------------------------------


def run_honest_session(config: ScenarioConfig, keyring: Optional[Mapping] = None) -> SessionRun:
    """Run three honest parties to completion; protocol errors propagate."""
    if config.attack is not None:
        raise ScenarioError("honest sessions take no attack; use run_attack_scenario")
    world = materialize(config, keyring)
    run = _drive_session(world)
    if run.aborted:
        # unreachable: keys are generated here or loaded from a key file
        # that their secrets regenerate, so every signature verifies
        raise SignatureInvalidError(run.aborted[0])
    return run


def agreement_holds(run: SessionRun) -> bool:
    keys = [k.key for k in run.keys.values() if k is not None]
    return len(keys) == len(run.keys) and len(set(keys)) == 1


def build_run_report(run: SessionRun) -> dict:
    report = {
        "schema": wire.REPORT_SCHEMA,
        "kind": "run",
        "config": run.world.config.to_json(),
        "agreement": agreement_holds(run),
        "key_digests": {
            i.decode("utf-8"): wire.key_digest(k.key if k else None) for i, k in run.keys.items()
        },
        "transcript": run.transcript,
    }
    if run.world.keyring is not None:
        report["keyring"] = run.world.keyring
    return report


# -- attack scenarios -----------------------------------------------------------


@dataclass
class AttackRun:
    outcome: attacks.AttackOutcome
    report: dict


def run_attack_scenario(config: ScenarioConfig) -> AttackRun:
    """Run one adversary against one protocol variant and judge the result."""
    if config.attack is None:
        raise ScenarioError("attack scenarios need an attack")
    world = materialize(config)
    knowledge = attacks.grant_knowledge(config.attack, config.protocol, world.msk, world.users)
    adv_rng = rng_for(config.seed, "adversary")

    failure = None
    if config.attack in attacks.PASSIVE_ATTACKS:
        run = _drive_session(world)
        try:
            if config.attack == "fs":
                result = attacks.forward_secrecy_attack(world.params, knowledge, run.view, adv_rng)
            else:
                result = attacks.secret_values_attack(world.params, knowledge, run.view)
        except attacks.DegenerateDenominatorError as exc:
            result = attacks.AdversaryResult(None, {})
            failure = str(exc)
    else:
        impersonated = canonical_identities(world.users.keys())[2]
        public = public_record(config.protocol, world.users[impersonated])
        adversary = attacks.make_live_adversary(config.attack, world.params, knowledge, public, adv_rng)
        run = _drive_session(world, impostor=adversary)
        result = run.adversary_result
    honest_keys = {i: (k.key if k else None) for i, k in run.keys.items()}
    outcome = attacks.judge_outcome(result, honest_keys, run.aborted, failure)
    report = build_attack_report(config, knowledge, outcome, run.transcript, world)
    return AttackRun(outcome, report)


def build_attack_report(config, knowledge, outcome, transcript, world) -> dict:
    include_details = world.backend.supports_dlog
    return {
        "schema": wire.REPORT_SCHEMA,
        "kind": "attack",
        "config": config.to_json(),
        "knowledge": knowledge.declared(),
        "success": outcome.success,
        "expected_success": attacks.expected_success(config.attack, config.protocol),
        "aborted": [i.decode("utf-8") for i in outcome.aborted],
        "failure": outcome.failure,
        "adversary_key_digest": wire.key_digest(outcome.adversary_key),
        "honest_key_digests": {
            i.decode("utf-8"): wire.key_digest(k) for i, k in outcome.honest_keys.items()
        },
        "intermediates": {k: str(v) for k, v in outcome.details.items()} if include_details else None,
        "transcript": transcript,
    }


# -- operation counting -----------------------------------------------------------


def count_operations(seed: int = 0, profile: str = DEFAULT_PROFILE, identities=DEFAULT_IDENTITIES) -> dict:
    """Per-party group-operation counts of both shared-values variants."""
    per_party = {}
    counts = {}
    for protocol in ("xcl12", "xcl12i"):
        config = ScenarioConfig(protocol=protocol, profile=profile, seed=seed, identities=tuple(identities))
        run = run_honest_session(config)
        if not agreement_holds(run):
            raise ScenarioError("operation counting requires an agreeing session")
        counts[protocol] = run.op_counts
    for identity in counts["xcl12"]:
        base = counts["xcl12"][identity]
        improved = counts["xcl12i"][identity]
        per_party[identity.decode("utf-8")] = {
            "xcl12": base.as_dict(),
            "xcl12i": improved.as_dict(),
            "delta": base.delta(improved),
        }
    return {
        "schema": wire.REPORT_SCHEMA,
        "kind": "count-ops",
        "config": {"profile": profile, "seed": seed, "identities": list(identities)},
        "parties": per_party,
    }


# -- replay ---------------------------------------------------------------------


def regenerate_report(report: Mapping) -> dict:
    """Re-run the scenario a stored report came from."""
    if not isinstance(report, Mapping):
        raise EncodingError("a stored report must be a JSON object")
    kind = report.get("kind")
    if kind in ("run", "attack"):
        config = ScenarioConfig.from_json(report.get("config"))
        if (kind == "attack") != (config.attack is not None):
            raise EncodingError(f"report kind {kind!r} does not go with attack {config.attack!r}")
        if kind == "run":
            try:
                run = run_honest_session(config, keyring=report.get("keyring"))
            except ScenarioError as exc:  # a stored keyring that does not fit the stored config
                raise EncodingError(f"stored keyring: {exc}") from exc
            return build_run_report(run)
        return run_attack_scenario(config).report
    if kind == "count-ops":
        # count-ops runs both xcl12 variants, so its config names no protocol
        config = ScenarioConfig.from_json(report.get("config"), protocol="xcl12")
        return count_operations(config.seed, config.profile, config.identities)
    raise EncodingError(f"cannot replay report of kind {kind!r}")


def replay_report(report: Mapping) -> tuple[bool, dict]:
    """Re-run a stored report and byte-compare the regenerated one."""
    regenerated = regenerate_report(report)
    return wire.canonical_json(regenerated) == wire.canonical_json(report), regenerated
