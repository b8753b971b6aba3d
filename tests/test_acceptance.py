"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Everything is seeded; the whole suite is deterministic.
"""

import random

import pytest

from clakalab import attacks, clsig, harness, keyinfra, wire, xcl12, xcq11
from clakalab.errors import DegenerateDenominatorError
from clakalab.harness import ScenarioConfig
from clakalab.keyinfra import (
    Xcl12PartialKey,
    Xcq11PartialKey,
    identity_hash,
    setup,
)
from clakalab.pairing import get_backend
from clakalab.session import PROTOCOL_VARIANTS

BACKEND_PROFILES = ("t256", "c160")
SESSIONS = 100


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_agreement():
    """100 seeded honest sessions per variant per backend all agree."""
    total = 0
    good = 0
    for profile in BACKEND_PROFILES:
        for protocol in PROTOCOL_VARIANTS:
            for seed in range(SESSIONS):
                run = harness.run_honest_session(
                    ScenarioConfig(protocol=protocol, profile=profile, seed=seed)
                )
                total += 1
                good += harness.agreement_holds(run)
    _report(1, "agreement across 4 variants x 100 sessions x 2 backends", good == total, f"{good}/{total}")


def test_criterion_2_transparent_oracles():
    """Protocol-computed shared values equal direct residue recomputation."""
    backend = get_backend("t1009")
    q = backend.q
    checked = 0
    ok = True
    for seed in range(SESSIONS):
        for protocol in PROTOCOL_VARIANTS:
            run = harness.run_honest_session(
                ScenarioConfig(protocol=protocol, profile="t1009", seed=seed)
            )
            eph = run.ephemerals
            users = run.world.users
            sum_e = sum(eph.values()) % q
            prod_e = 1
            for u in eph.values():
                prod_e = prod_e * u % q
            for identity, key in run.keys.items():
                if protocol == "xcq11":
                    ok &= backend.dlog_g2(key.shared) == sum_e
                elif protocol == "xcq11i":
                    ok &= backend.dlog_g2(key.shared) == prod_e
                else:
                    shared = key.shared
                    ok &= backend.dlog_g1(shared.k1) == sum_e
                    if protocol == "xcl12":
                        prod_x = 1
                        for user in users.values():
                            prod_x = prod_x * user.secret_value.value % q
                        ok &= backend.dlog_g2(shared.k2) == prod_e
                        ok &= backend.dlog_g2(shared.k3) == prod_x
                    else:
                        k2_exp = 1
                        k3_exp = 1
                        for ident, user in users.items():
                            s_inv = pow(user.partial.s_u.value, -1, q)
                            k2_exp = k2_exp * (eph[ident] + s_inv) % q
                            k3_exp = k3_exp * (eph[ident] + user.secret_value.value) % q
                        ok &= backend.dlog_g2(shared.k2) == k2_exp
                        ok &= backend.dlog_g2(shared.k3) == k3_exp
                checked += 1
            if not ok:
                break
    _report(2, "transparent-backend shared values match residue oracles", ok, f"{checked} checks")


ATTACK_MATRIX = [
    ("fs", "xcq11", True),
    ("kci", "xcq11", True),
    ("secrets", "xcq11", True),
    ("kci-kgc", "xcl12", True),
    ("kci-common", "xcl12", True),
    ("fs", "xcq11i", False),
    ("kci", "xcq11i", False),
    ("secrets", "xcq11i", False),
    ("kci-kgc", "xcl12i", False),
    ("kci-common", "xcl12i", False),
]


def test_criterion_3_attack_matrix():
    """Every attack succeeds against the original and fails against the repair."""
    ok = True
    trials = 0
    for attack, protocol, should_succeed in ATTACK_MATRIX:
        for seed in range(SESSIONS):
            run = harness.run_attack_scenario(
                ScenarioConfig(protocol=protocol, profile="t256", seed=seed, attack=attack)
            )
            trials += 1
            ok &= run.outcome.success == should_succeed
            if attack == "kci" and protocol == "xcq11i":
                # the repair must stop this one by abort, not by key mismatch
                ok &= set(run.outcome.aborted) == {b"alice", b"bob"}
                ok &= all(k is None for k in run.outcome.honest_keys.values())
        assert ok, f"{attack} vs {protocol}"
    _report(3, "attack matrix (5 attacks x original/repaired, 100 trials each)", ok, f"{trials} trials")


def test_criterion_4_point_recovery():
    """Recovered ephemeral points match, and hash collisions are reported."""
    backend = get_backend("t256")
    ok = True
    for seed in range(SESSIONS):
        config = ScenarioConfig(protocol="xcq11", profile="t256", seed=seed, attack="secrets")
        world = harness.materialize(config)
        session = harness._drive_session(world)
        secrets = {i: u.secret_value for i, u in world.users.items()}
        points = attacks.recover_ephemeral_points(world.params, secrets, session.view)
        for identity, point in points.items():
            ok &= point == backend.scalar(session.ephemerals[identity]) * backend.P
    # engineered hash collision on the small prime
    small = get_backend("t1009")
    params, _ = setup(small, random.Random(0))
    seen = {}
    colliding = None
    for i in range(5000):
        name = f"d{i}"
        h = identity_hash(params, name.encode()).value
        if h in seen:
            colliding = (seen[h], name)
            break
        seen[h] = name
    degenerate_raised = False
    if colliding is not None:
        config = ScenarioConfig(
            protocol="xcq11",
            profile="t1009",
            seed=0,
            attack="secrets",
            identities=(colliding[0], colliding[1], "zz-unique"),
        )
        world = harness.materialize(config)
        session = harness._drive_session(world)
        secrets = {i: u.secret_value for i, u in world.users.items()}
        try:
            attacks.recover_ephemeral_points(world.params, secrets, session.view)
        except DegenerateDenominatorError:
            degenerate_raised = True
    _report(
        4,
        "ephemeral point recovery exact 100/100; collision raises DegenerateDenominator",
        ok and degenerate_raised,
    )


def test_criterion_5_operation_counts():
    """The repair costs exactly 4 point additions per party; pairings unchanged."""
    report = harness.count_operations(seed=0, profile="t1009")
    ok = True
    for counts in report["parties"].values():
        ok &= counts["delta"]["point_adds"] == 4
        ok &= counts["delta"]["pairings"] == 0
        ok &= counts["delta"]["scalar_muls"] == 0
        ok &= counts["delta"]["g2_exps"] == 0
    _report(5, "repaired shared-values variant costs +4 point additions per party", ok)


def test_criterion_6_key_material_validation():
    """10^4 honest partial keys verify; 10^4 random forgeries are rejected."""
    backend = get_backend("t256")
    rng = random.Random(6)
    params, msk = setup(backend, rng)
    honest_ok = 0
    for i in range(10_000):
        identity = f"u{i}".encode()
        partial = keyinfra.xcq11_extract_partial(params, msk, identity)
        honest_ok += keyinfra.xcq11_verify_partial(params, identity, partial)
    for i in range(10_000):
        identity = f"v{i}".encode()
        partial = keyinfra.xcl12_extract_partial(params, msk, identity, rng)
        honest_ok += keyinfra.xcl12_verify_partial(params, identity, partial)
    forged_accepts = 0
    for _ in range(10_000):
        fake = Xcq11PartialKey(backend.random_scalar(rng) * backend.P)
        forged_accepts += keyinfra.xcq11_verify_partial(params, b"victim", fake)
    for _ in range(10_000):
        fake = Xcl12PartialKey(backend.random_scalar(rng), backend.random_scalar(rng) * backend.P)
        forged_accepts += keyinfra.xcl12_verify_partial(params, b"victim", fake)
    ok = honest_ok == 20_000 and forged_accepts == 0
    _report(6, "key material validation on the 256-bit profile", ok,
            f"{honest_ok}/20000 honest accepted, {forged_accepts} forgeries accepted")


def test_criterion_7_signature_suite():
    """10^3 honest signatures verify; forgeries and transplants are rejected."""
    backend = get_backend("t256")
    rng = random.Random(7)
    params, msk = setup(backend, rng)
    user = keyinfra.make_user("xcq11", params, msk, b"signer", rng)

    honest_ok = 0
    signatures = []
    for i in range(1000):
        message = f"m{i}".encode()
        sig = clsig.sign(params, user, message, rng)
        signatures.append((message, sig))
        honest_ok += clsig.verify(params, user.identity, user.upk, message, sig)

    forged_accepts = 0
    for _ in range(10_000):
        forged = clsig.ClSignature(
            backend.g ** backend.random_scalar(rng),
            backend.random_scalar(rng) * backend.P,
        )
        forged_accepts += clsig.verify(params, user.identity, user.upk, b"forged-target", forged)

    transplant_accepts = 0
    for i in range(100):
        message, sig = signatures[i]
        transplant_accepts += clsig.verify(params, user.identity, user.upk, message + b"!", sig)

    ok = honest_ok == 1000 and forged_accepts == 0 and transplant_accepts == 0
    _report(7, "signature suite on the 256-bit profile", ok,
            f"{honest_ok}/1000 honest, {forged_accepts} forgeries, {transplant_accepts} transplants accepted")


def test_criterion_8_determinism_and_replay():
    """Identical configs give byte-identical reports; stored reports replay."""
    ok = True
    for protocol in PROTOCOL_VARIANTS:
        config = ScenarioConfig(protocol=protocol, profile="t256", seed=13)
        r1 = harness.build_run_report(harness.run_honest_session(config))
        r2 = harness.build_run_report(harness.run_honest_session(config))
        ok &= wire.canonical_json(r1) == wire.canonical_json(r2)
        match, _ = harness.replay_report(r1)
        ok &= match
    for attack, protocol in (("fs", "xcq11"), ("kci", "xcq11i"), ("kci-common", "xcl12i")):
        config = ScenarioConfig(protocol=protocol, profile="t256", seed=13, attack=attack)
        report = harness.run_attack_scenario(config).report
        match, _ = harness.replay_report(report)
        ok &= match
        ok &= harness.run_attack_scenario(config).report == report
    crypto_config = ScenarioConfig(protocol="xcl12i", profile="c160", seed=13)
    c1 = harness.build_run_report(harness.run_honest_session(crypto_config))
    match, _ = harness.replay_report(c1)
    ok &= match
    _report(8, "byte-identical reports and transcript replay", ok)
