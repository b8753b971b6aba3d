"""Adversaries: the five documented breaks and their blocked counterparts."""

import dataclasses
import random

import pytest

from clakalab import attacks, harness
from clakalab.errors import DegenerateDenominatorError, ScenarioError
from clakalab.keyinfra import identity_hash, setup
from clakalab.pairing import get_backend
from clakalab.session import canonical_identities


def attack_run(attack, protocol, seed=0, profile="t256", identities=None):
    config = harness.ScenarioConfig(
        protocol=protocol,
        profile=profile,
        seed=seed,
        attack=attack,
        identities=identities or harness.DEFAULT_IDENTITIES,
    )
    return harness.run_attack_scenario(config)


# -- attacks against the original protocols succeed ------------------------------


@pytest.mark.parametrize("attack,protocol", [
    ("fs", "xcq11"),
    ("kci", "xcq11"),
    ("secrets", "xcq11"),
    ("kci-kgc", "xcl12"),
    ("kci-common", "xcl12"),
])
def test_attacks_break_original_protocols(attack, protocol):
    for seed in range(10):
        run = attack_run(attack, protocol, seed=seed)
        assert run.outcome.success, f"{attack} vs {protocol} seed {seed}"
        assert not run.outcome.aborted
        honest = set(run.outcome.honest_keys.values())
        assert honest == {run.outcome.adversary_key}


# -- the same strategies fail against the repaired variants ------------------------


@pytest.mark.parametrize("attack,protocol", [
    ("fs", "xcq11i"),
    ("kci", "xcq11i"),
    ("secrets", "xcq11i"),
    ("kci-kgc", "xcl12i"),
    ("kci-common", "xcl12i"),
])
def test_attacks_blocked_by_repaired_protocols(attack, protocol):
    for seed in range(10):
        run = attack_run(attack, protocol, seed=seed)
        assert not run.outcome.success, f"{attack} vs {protocol} seed {seed}"
        assert run.outcome.failure is not None


def test_kci_against_repair_ends_in_abort():
    # not merely a key mismatch: both honest parties reject the forged
    # signature and never derive a key
    for seed in range(10):
        run = attack_run("kci", "xcq11i", seed=seed)
        assert set(run.outcome.aborted) == {b"alice", b"bob"}
        assert all(k is None for k in run.outcome.honest_keys.values())
        assert "abort" in run.outcome.failure


def test_blocked_shared_value_attacks_leave_honest_agreement():
    # the repaired shared-values protocol has no abort path; honest parties
    # still agree with each other while the adversary mismatches
    for attack in ("kci-kgc", "kci-common"):
        run = attack_run(attack, "xcl12i", seed=3)
        honest = set(run.outcome.honest_keys.values())
        assert len(honest) == 1 and None not in honest
        assert run.outcome.adversary_key not in honest


# -- transparent-backend oracles ----------------------------------------------------


def test_fs_recovers_exact_exponent():
    run = attack_run("fs", "xcq11", profile="t1009")
    backend = get_backend("t1009")
    session = harness.run_honest_session(
        harness.ScenarioConfig(protocol="xcq11", profile="t1009", seed=0)
    )
    total = sum(session.ephemerals.values()) % backend.q
    assert run.outcome.details["recovered_shared"] == total


def test_kci_adversary_exponent():
    run = attack_run("kci", "xcq11", profile="t1009", seed=2)
    backend = get_backend("t1009")
    # adversary shared value = a + b + c' where a, b come from the honest
    # parties of the same seeded scenario
    config = harness.ScenarioConfig(protocol="xcq11", profile="t1009", seed=2, attack="kci")
    world = harness.materialize(config)
    a = harness.rng_for(2, "party", "alice").randrange(1, backend.q)
    b = harness.rng_for(2, "party", "bob").randrange(1, backend.q)
    c = harness.rng_for(2, "adversary").randrange(1, backend.q)
    assert run.outcome.details["adversary_shared"] == (a + b + c) % backend.q


def test_kgc_attack_shared_value_exponents():
    # original shared-values attack: k2 exponent is a * b * c' and k1 is
    # the sum of the two honest ephemerals with the adversary's own
    backend = get_backend("t1009")
    q = backend.q
    run = attack_run("kci-kgc", "xcl12", profile="t1009", seed=5)
    a = harness.rng_for(5, "party", "alice").randrange(1, q)
    b = harness.rng_for(5, "party", "bob").randrange(1, q)
    c = harness.rng_for(5, "adversary").randrange(1, q)
    assert run.outcome.details["k1"] == (a + b + c) % q
    assert run.outcome.details["k2"] == a * b * c % q


def test_common_attack_shared_value_exponents():
    backend = get_backend("t1009")
    q = backend.q
    run = attack_run("kci-common", "xcl12", profile="t1009", seed=5)
    a = harness.rng_for(5, "party", "alice").randrange(1, q)
    b = harness.rng_for(5, "party", "bob").randrange(1, q)
    c = harness.rng_for(5, "adversary").randrange(1, q)
    assert run.outcome.details["k1"] == (a + b + c) % q
    assert run.outcome.details["k2"] == a * b * c % q


def test_intermediates_only_on_transparent_backend():
    transparent = attack_run("fs", "xcq11", profile="t1009", seed=1)
    assert transparent.report["intermediates"]
    crypto = attack_run("fs", "xcq11", profile="c160", seed=1)
    assert crypto.report["intermediates"] is None
    assert crypto.outcome.success


def test_secrets_attack_recovers_exact_points():
    backend = get_backend("t1009")
    config = harness.ScenarioConfig(protocol="xcq11", profile="t1009", seed=4, attack="secrets")
    world = harness.materialize(config)
    session = harness._drive_session(world)
    secret_values = {i: u.secret_value for i, u in world.users.items()}
    points = attacks.recover_ephemeral_points(world.params, secret_values, session.view)
    for identity, point in points.items():
        assert backend.dlog_g1(point) == session.ephemerals[identity]


def test_secrets_attack_degenerate_denominator():
    # engineer two identities with colliding hashes on the small prime
    backend = get_backend("t1009")
    params, _ = setup(backend, random.Random(0))
    seen = {}
    pair = None
    for i in range(5000):
        name = f"d{i}"
        h = identity_hash(params, name.encode()).value
        if h in seen and seen[h] != name:
            pair = (seen[h], name)
            break
        seen[h] = name
    assert pair is not None
    config = harness.ScenarioConfig(
        protocol="xcq11",
        profile="t1009",
        seed=0,
        attack="secrets",
        identities=(pair[0], pair[1], "zz-unique"),
    )
    world = harness.materialize(config)
    session = harness._drive_session(world)
    secret_values = {i: u.secret_value for i, u in world.users.items()}
    with pytest.raises(DegenerateDenominatorError):
        attacks.recover_ephemeral_points(world.params, secret_values, session.view)
    # scenario-level: reported as a failed attack, not a crash
    run = harness.run_attack_scenario(config)
    assert not run.outcome.success
    assert "collide" in run.outcome.failure


# -- knowledge confinement ----------------------------------------------------------


KNOWLEDGE_EXPECTATIONS = {
    ("fs", "xcq11"): {"full_keys": ["alice", "bob"], "secret_values": [], "partial_keys": [], "master_key": False},
    ("fs", "xcq11i"): {"full_keys": ["alice", "bob", "carol"], "secret_values": [], "partial_keys": [], "master_key": False},
    ("kci", "xcq11"): {"full_keys": ["alice", "bob"], "secret_values": [], "partial_keys": [], "master_key": False},
    ("kci", "xcq11i"): {"full_keys": ["alice", "bob"], "secret_values": [], "partial_keys": [], "master_key": False},
    ("secrets", "xcq11"): {"full_keys": [], "secret_values": ["alice", "bob", "carol"], "partial_keys": [], "master_key": False},
    ("secrets", "xcq11i"): {"full_keys": [], "secret_values": ["alice", "bob", "carol"], "partial_keys": [], "master_key": False},
    ("kci-kgc", "xcl12"): {"full_keys": ["alice"], "secret_values": [], "partial_keys": ["alice", "bob", "carol"], "master_key": True},
    ("kci-kgc", "xcl12i"): {"full_keys": ["alice"], "secret_values": [], "partial_keys": ["alice", "bob", "carol"], "master_key": True},
    ("kci-common", "xcl12"): {"full_keys": ["alice", "bob"], "secret_values": [], "partial_keys": [], "master_key": False},
    ("kci-common", "xcl12i"): {"full_keys": ["alice", "bob"], "secret_values": [], "partial_keys": [], "master_key": False},
}


@pytest.mark.parametrize("attack,protocol", sorted(KNOWLEDGE_EXPECTATIONS))
def test_knowledge_grants_are_minimal(attack, protocol):
    config = harness.ScenarioConfig(protocol=protocol, profile="t1009", seed=0, attack=attack)
    world = harness.materialize(config)
    knowledge = attacks.grant_knowledge(attack, protocol, world.msk, world.users)
    declared = knowledge.declared()
    expected = dict(KNOWLEDGE_EXPECTATIONS[(attack, protocol)])
    expected.update({"attack": attack, "protocol": protocol})
    assert declared == expected
    # the masked-point grants hand over the bare full key, nothing else
    if attack in ("fs", "kci"):
        for key in knowledge.full_keys.values():
            assert type(key).__name__ == "G1Point"


@pytest.mark.parametrize("profile", ["t1009", "c160"])
@pytest.mark.parametrize("protocol", ["xcl12", "xcl12i"])
def test_kgc_adversary_without_the_impersonated_partial_key(protocol, profile):
    # the grant alone decides the outcome: s_A, s_B and x_A still break the
    # original, and against the repair s_C^-1 becomes a stand-in as well
    config = harness.ScenarioConfig(protocol=protocol, profile=profile, seed=0, attack="kci-kgc")
    world = harness.materialize(config)
    a, b, c = canonical_identities(world.users.keys())
    granted = attacks.grant_knowledge("kci-kgc", protocol, world.msk, world.users)
    knowledge = dataclasses.replace(granted, partial_keys={i: granted.partial_keys[i] for i in (a, b)})
    public = harness.public_record(protocol, world.users[c])
    adversary = attacks.make_live_adversary("kci-kgc", world.params, knowledge, public, harness.rng_for(0, "adversary"))
    run = harness._drive_session(world, impostor=adversary)
    honest_keys = {i: (k.key if k else None) for i, k in run.keys.items()}
    outcome = attacks.judge_outcome(run.adversary_result, honest_keys, run.aborted)
    assert outcome.success == (protocol == "xcl12")
    if protocol == "xcl12i":
        assert outcome.details["substituted"] == "partial scalar and secret value of the impersonated party"


@pytest.mark.parametrize("profile", ["t1009", "c160"])
@pytest.mark.parametrize("protocol", ["xcl12", "xcl12i"])
@pytest.mark.parametrize("withheld", ["A", "B"])
def test_kgc_adversary_without_a_compromised_partial_key(withheld, protocol, profile):
    # a grant without s_A or s_B gets a stand-in drawn from the adversary's
    # rng, named in the details, and the attack is judged failed, not raised
    config = harness.ScenarioConfig(protocol=protocol, profile=profile, seed=0, attack="kci-kgc")
    world = harness.materialize(config)
    a, b, c = canonical_identities(world.users.keys())
    gone = {"A": a, "B": b}[withheld]
    granted = attacks.grant_knowledge("kci-kgc", protocol, world.msk, world.users)
    knowledge = dataclasses.replace(
        granted,
        partial_keys={i: k for i, k in granted.partial_keys.items() if i != gone},
        full_keys={i: k for i, k in granted.full_keys.items() if i != gone},
    )
    assert knowledge.partial_scalar(gone) is None
    public = harness.public_record(protocol, world.users[c])
    adversary = attacks.make_live_adversary("kci-kgc", world.params, knowledge, public, harness.rng_for(0, "adversary"))
    run = harness._drive_session(world, impostor=adversary)
    honest_keys = {i: (k.key if k else None) for i, k in run.keys.items()}
    outcome = attacks.judge_outcome(run.adversary_result, honest_keys, run.aborted)
    assert not outcome.success
    assert outcome.failure == "derived key does not match the honest session key"
    expected = f"partial scalar of {gone.decode()}"
    if withheld == "A" and protocol == "xcl12":
        expected += f"; secret value of {a.decode()}"  # A's full key held x_A too
    assert outcome.details["stood_in"] == expected
    if protocol == "xcl12i":
        assert outcome.details["substituted"] == "secret value of the impersonated party"


def test_attack_registry_partition():
    assert set(attacks.LIVE_ATTACKS) | set(attacks.PASSIVE_ATTACKS) == set(attacks.ATTACK_FAMILIES)
    assert not set(attacks.LIVE_ATTACKS) & set(attacks.PASSIVE_ATTACKS)


def test_invalid_combinations_rejected():
    with pytest.raises(ScenarioError):
        attacks.expected_success("kci-kgc", "xcq11")
    with pytest.raises(ScenarioError):
        attack_run("fs", "xcl12")
    with pytest.raises(ScenarioError):
        attacks.make_live_adversary("fs", None, None, None, None)


def test_an_abort_fails_the_attack_even_where_every_other_key_matches():
    # an aborted party's key is None, which no derived key equals
    key = bytes(32)
    outcome = attacks.judge_outcome(attacks.AdversaryResult(key), {b"alice": key, b"bob": None}, (b"bob",))
    assert not outcome.success
    assert outcome.failure == "honest parties aborted (signature rejected)"


# -- determinism -----------------------------------------------------------------


@pytest.mark.parametrize("attack,protocol", [("fs", "xcq11"), ("kci", "xcq11i"), ("kci-common", "xcl12i")])
def test_attack_runs_deterministic(attack, protocol):
    r1 = attack_run(attack, protocol, seed=6)
    r2 = attack_run(attack, protocol, seed=6)
    assert r1.report == r2.report
    assert r1.outcome.adversary_key == r2.outcome.adversary_key
