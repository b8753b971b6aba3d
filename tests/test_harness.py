"""Harness: orchestration, transcripts, replay, determinism, purity."""

import dataclasses
import json

import pytest

from clakalab import attacks, harness, wire
from clakalab.errors import ScenarioError, SignatureInvalidError
from clakalab.harness import HonestSlotImpersonator, ScenarioConfig
from clakalab.keyinfra import keyring_to_json
from clakalab.session import PROTOCOL_VARIANTS, canonical_identities


@pytest.mark.parametrize("protocol", PROTOCOL_VARIANTS)
def test_honest_agreement_all_protocols(protocol):
    for profile in ("t1009", "t256"):
        run = harness.run_honest_session(ScenarioConfig(protocol=protocol, profile=profile, seed=7))
        assert harness.agreement_holds(run)
        for machine_keys in run.keys.values():
            assert len(machine_keys.key) == 32


@pytest.mark.parametrize("protocol", PROTOCOL_VARIANTS)
def test_honest_agreement_crypto_backend(protocol):
    run = harness.run_honest_session(ScenarioConfig(protocol=protocol, profile="c160", seed=7))
    assert harness.agreement_holds(run)


def test_keys_differ_across_backends_but_agree_within():
    keys = {}
    for profile in ("t256", "c160"):
        run = harness.run_honest_session(ScenarioConfig(protocol="xcl12", profile=profile, seed=1))
        assert harness.agreement_holds(run)
        keys[profile] = next(iter(run.keys.values())).key
    assert keys["t256"] != keys["c160"]


def test_reports_byte_identical():
    config = ScenarioConfig(protocol="xcq11i", profile="t256", seed=3)
    r1 = harness.build_run_report(harness.run_honest_session(config))
    r2 = harness.build_run_report(harness.run_honest_session(config))
    assert wire.canonical_json(r1) == wire.canonical_json(r2)


def test_frozen_session_key_digest():
    # determinism pin: known key for (xcq11, t256, seed 0)
    run = harness.run_honest_session(ScenarioConfig(protocol="xcq11", profile="t256", seed=0))
    key = next(iter(run.keys.values())).key
    assert key.hex() == "23b5e742e6006ec9e0feab892a931ef67bcef1161a123db0aea41031b2689b84"


def test_replay_run_report():
    config = ScenarioConfig(protocol="xcl12i", profile="t256", seed=5)
    report = harness.build_run_report(harness.run_honest_session(config))
    match, regenerated = harness.replay_report(report)
    assert match
    # a tampered digest no longer replays
    tampered = dict(report)
    tampered["key_digests"] = dict(report["key_digests"], alice="00" * 32)
    match, _ = harness.replay_report(tampered)
    assert not match


def test_replay_attack_report():
    config = ScenarioConfig(protocol="xcl12", profile="t256", seed=5, attack="kci-kgc")
    report = harness.run_attack_scenario(config).report
    match, _ = harness.replay_report(report)
    assert match


def test_transcript_messages_ordered_and_tagged():
    run = harness.run_honest_session(ScenarioConfig(protocol="xcl12", profile="t1009", seed=2))
    transcript = run.transcript
    assert transcript["schema"] == wire.TRANSCRIPT_SCHEMA
    assert [m["seq"] for m in transcript["messages"]] == list(range(6))
    assert [m["type"] for m in transcript["messages"]] == ["announce"] * 3 + ["flows"] * 3
    for message in transcript["messages"]:
        assert message["session"] == transcript["session_id"]
        assert message["protocol"] == "xcl12"


def test_honest_code_purity():
    # a live slot occupied by an impersonator holding the real keys and the
    # real rng stream reproduces the honest session exactly
    config = ScenarioConfig(protocol="xcq11", profile="t1009", seed=11)
    honest = harness.run_honest_session(config)

    world = harness.materialize(config)
    carol = canonical_identities(world.users.keys())[2]
    shadow = HonestSlotImpersonator(
        config.protocol, world.params, world.users[carol], harness.rng_for(config.seed, "party", carol.decode())
    )
    shadowed = harness._drive_session(world, impostor=shadow)
    assert shadowed.transcript == honest.transcript
    assert shadow.finish is not None
    for identity, key in shadowed.keys.items():
        assert key.key == honest.keys[identity].key


def test_run_with_keyring(tmp_path):
    config = ScenarioConfig(protocol="xcl12", profile="t256", seed=4)
    world = harness.materialize(config)
    ids = canonical_identities(world.users.keys())
    ring = keyring_to_json("xcl12", world.params, world.msk, [world.users[i] for i in ids])
    run = harness.run_honest_session(config, keyring=ring)
    assert harness.agreement_holds(run)
    report = harness.build_run_report(run)
    assert report["keyring"] == ring
    match, _ = harness.replay_report(report)
    assert match


def test_keyring_mismatches_rejected():
    config = ScenarioConfig(protocol="xcl12", profile="t256", seed=4)
    world = harness.materialize(config)
    ids = canonical_identities(world.users.keys())
    ring = keyring_to_json("xcl12", world.params, world.msk, [world.users[i] for i in ids])
    with pytest.raises(ScenarioError):
        harness.materialize(ScenarioConfig(protocol="xcq11", profile="t256", seed=4), keyring=ring)
    with pytest.raises(ScenarioError):
        harness.materialize(ScenarioConfig(protocol="xcl12", profile="t1009", seed=4), keyring=ring)
    with pytest.raises(ScenarioError):
        harness.materialize(
            ScenarioConfig(protocol="xcl12", profile="t256", seed=4, identities=("x", "y", "z")),
            keyring=ring,
        )
    with pytest.raises(ScenarioError):
        harness.materialize(ScenarioConfig(protocol="xcl12", profile="t256", seed=4, key_bits=128), keyring=ring)


def test_corrupted_full_key_aborts_improved_run():
    config = ScenarioConfig(protocol="xcq11i", profile="t256", seed=4)
    world = harness.materialize(config)
    ids = canonical_identities(world.users.keys())
    ring = keyring_to_json("xcq11", world.params, world.msk, [world.users[i] for i in ids])
    backend = world.backend
    bad_point = backend.scalar(12345) * backend.P
    ring["users"][0]["full"] = bad_point.to_bytes().hex()
    with pytest.raises(SignatureInvalidError):
        harness.run_honest_session(config, keyring=ring)


def test_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(protocol="nope").validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(protocol="xcq11", identities=("a", "a", "b")).validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(protocol="xcq11", attack="kci-kgc").validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(protocol="xcq11", key_bits=13).validate()
    with pytest.raises(ScenarioError):
        harness.run_honest_session(ScenarioConfig(protocol="xcq11", attack="fs"))


def test_config_json_round_trip():
    config = ScenarioConfig(protocol="xcl12i", profile="t1009", seed=9, attack="kci-common")
    assert ScenarioConfig.from_json(config.to_json()) == config
    for config in (
        ScenarioConfig(protocol="xcq11"),
        ScenarioConfig(protocol="xcq11i", key_bits=128),
        ScenarioConfig(protocol="xcl12", identities=("zed", "amy", "kim")),
        ScenarioConfig(protocol="xcl12i", profile="c256"),
    ):
        stored = config.to_json()
        assert list(stored) == [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert isinstance(stored["identities"], list) and stored["identities"] == list(config.identities)
        assert ScenarioConfig.from_json(json.loads(json.dumps(stored))) == config


def test_count_operations_report():
    report = harness.count_operations(seed=2, profile="t1009")
    assert report["kind"] == "count-ops"
    for counts in report["parties"].values():
        assert counts["delta"] == {"point_adds": 4, "scalar_muls": 0, "pairings": 0, "g2_exps": 0}
    match, _ = harness.replay_report(report)
    assert match


def test_count_operations_same_on_the_curve_as_on_residues():
    # the counts come from the element operators, whichever backend is below them
    assert harness.count_operations(profile="c160")["parties"] == harness.count_operations(profile="t1009")["parties"]


# per-party counts of flows plus derive, worked out from the step functions:
# xcq11 round one builds each peer's combined public point (2 adds, 2 muls)
# and masks u toward it (1 mul); derive takes g**u and two pairings.
# xcq11i round one takes u*P, its own combined public point and clsig.sign
# (k*P, one pairing, c*S_U, one add); derive verifies two signatures (a
# combined public point, a pairing and g**c each) and takes e(T_V, T_W)**u.
XCQ11_PARTY_COUNTS = {
    "xcq11": {"point_adds": 4, "scalar_muls": 6, "pairings": 2, "g2_exps": 1},
    "xcq11i": {"point_adds": 7, "scalar_muls": 9, "pairings": 4, "g2_exps": 3},
}


@pytest.mark.parametrize("profile", ["t1009", "c160"])
@pytest.mark.parametrize("protocol", PROTOCOL_VARIANTS)
def test_every_honest_party_has_its_operation_counts(protocol, profile):
    run = harness.run_honest_session(ScenarioConfig(protocol=protocol, profile=profile, seed=0))
    assert set(run.op_counts) == set(run.keys)
    counted = {i.decode(): counter.as_dict() for i, counter in run.op_counts.items()}
    if protocol in XCQ11_PARTY_COUNTS:
        assert counted == {party: XCQ11_PARTY_COUNTS[protocol] for party in counted}
    else:
        rows = harness.count_operations(seed=0, profile=profile)["parties"]
        assert counted == {party: row[protocol] for party, row in rows.items()}


@pytest.mark.parametrize("attack,protocol", [("kci", "xcq11"), ("kci-kgc", "xcl12i")])
def test_attack_run_counts_the_honest_machines_only(attack, protocol):
    config = ScenarioConfig(protocol=protocol, profile="t1009", seed=0, attack=attack)
    world = harness.materialize(config)
    ids = canonical_identities(world.users.keys())
    knowledge = attacks.grant_knowledge(attack, protocol, world.msk, world.users)
    public = harness.public_record(protocol, world.users[ids[2]])
    adversary = attacks.make_live_adversary(attack, world.params, knowledge, public, harness.rng_for(0, "adversary"))
    run = harness._drive_session(world, impostor=adversary)
    assert set(run.op_counts) == set(ids[:2])
    # the adversary's group operations reach no honest counter
    honest = harness.run_honest_session(dataclasses.replace(config, attack=None))
    for identity, counter in run.op_counts.items():
        assert counter == honest.op_counts[identity]


def test_machine_phases_monotone():
    config = ScenarioConfig(protocol="xcq11i", profile="t1009", seed=3)
    world = harness.materialize(config)
    ids = canonical_identities(world.users.keys())
    machine = harness.PartyMachine(
        "xcq11i", world.params, world.users[ids[0]], harness.rng_for(3, "party", "alice")
    )
    trace = [machine.phase]
    anns = [harness.public_record("xcq11i", world.users[i]) for i in ids]
    machine.announcement()
    trace.append(machine.phase)
    machine.flows([a for a in anns if a.identity != ids[0]])
    trace.append(machine.phase)
    run = harness.run_honest_session(config)
    machine.derive(run.view)  # complete view from an equivalent session
    trace.append(machine.phase)
    order = [harness._PHASES.index(p) for p in trace]
    assert order == sorted(order)
    assert trace[-1] == "derived"


def test_session_key_bits_configurable():
    run = harness.run_honest_session(
        ScenarioConfig(protocol="xcq11", profile="t1009", seed=1, key_bits=128)
    )
    assert all(len(k.key) == 16 for k in run.keys.values())
