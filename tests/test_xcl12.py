"""Shared-values protocol, its repair, and the operation counts."""

import random

import pytest

from clakalab import xcl12
from clakalab.errors import MissingTranscriptFieldError
from clakalab.keyinfra import binding_hash, make_user, masked_base, setup
from clakalab.pairing import OpCounter, get_backend, metered
from clakalab.session import PairwiseFlow, PairwiseView, PartyPublic

IDS = (b"alice", b"bob", b"carol")

# frozen per-party operation counts (round one plus derivation)
ORIGINAL_COUNTS = {"point_adds": 4, "scalar_muls": 7, "pairings": 2, "g2_exps": 2}
IMPROVED_COUNTS = {"point_adds": 8, "scalar_muls": 7, "pairings": 2, "g2_exps": 2}


def make_world(profile="t1009", seed=31):
    backend = get_backend(profile)
    rng = random.Random(seed)
    params, msk = setup(backend, rng)
    users = make_user("xcl12", params, msk, dict.fromkeys(IDS, rng))
    return backend, params, msk, users


def run_session(params, users, improved=False, seed=5, counters=None):
    announcements = [PartyPublic(u.identity, u.upk, u.partial.r_u) for u in users.values()]
    flows = {}
    t = {}
    for identity in users:
        peers = [a for a in announcements if a.identity != identity]
        counter = counters[identity] if counters else None
        with metered(counter):
            flows[identity] = xcl12.round1(params, peers, random.Random(f"{seed}/{identity.decode()}"))
        for recv, point in flows[identity].t_out.items():
            t[(identity, recv)] = point
    view = PairwiseView(tuple(announcements), t)
    derive = xcl12.improved_derive if improved else xcl12.derive
    results = {}
    for identity, user in users.items():
        counter = counters[identity] if counters else None
        with metered(counter):
            results[identity] = derive(params, user, flows[identity], view)
    return flows, view, results


# -- original protocol ---------------------------------------------------------


def test_flow_log_oracle():
    backend, params, msk, users = make_world()
    q = backend.q
    flows, view, _ = run_session(params, users)
    alice, bob = users[b"alice"], users[b"bob"]
    # log T_{B->A} = b * (r_A + h_A * x)
    r_a = backend.dlog_g1(alice.partial.r_u)
    h_a = binding_hash(params, b"alice", alice.partial.r_u).value
    expected = flows[b"bob"].ephemeral.value * (r_a + h_a * msk.x.value) % q
    assert backend.dlog_g1(view.t[(b"bob", b"alice")]) == expected


def test_unmasking_identity():
    backend, params, _, users = make_world()
    flows, view, _ = run_session(params, users)
    for (sender, receiver), point in view.t.items():
        unmasked = users[receiver].partial.s_u * point
        assert unmasked == flows[sender].ephemeral * backend.P


def test_flows_deterministic_under_seed():
    _, params, _, users = make_world()
    f1, _, _ = run_session(params, users, seed=9)
    f2, _, _ = run_session(params, users, seed=9)
    assert f1 == f2


def test_agreement_and_shared_value_oracles():
    backend, params, _, users = make_world()
    q = backend.q
    flows, view, results = run_session(params, users)
    keys = {i: r[1].key for i, r in results.items()}
    assert len(set(keys.values())) == 1
    eph = {i: flows[i].ephemeral.value for i in users}
    sum_e = sum(eph.values()) % q
    prod_e = eph[b"alice"] * eph[b"bob"] * eph[b"carol"] % q
    prod_x = (
        users[b"alice"].secret_value.value
        * users[b"bob"].secret_value.value
        * users[b"carol"].secret_value.value
    ) % q
    for shared, _ in results.values():
        assert backend.dlog_g1(shared.k1) == sum_e
        assert backend.dlog_g2(shared.k2) == prod_e
        assert backend.dlog_g2(shared.k3) == prod_x


def test_kdf_binds_public_keys():
    backend, params, _, users = make_world()
    flows, view, results = run_session(params, users)
    shared, key = results[b"alice"]
    tampered_parties = []
    for ann in view.parties:
        if ann.identity == b"carol":
            ann = PartyPublic(ann.identity, ann.upk + backend.P, ann.r_point)
        tampered_parties.append(ann)
    tampered = PairwiseView(tuple(tampered_parties), view.t)
    assert xcl12.session_key(params, tampered, shared) != key.key


def test_missing_fields_rejected():
    _, params, _, users = make_world()
    flows, view, _ = run_session(params, users)
    a, b, c = sorted(users)
    incomplete = PairwiseView(view.parties, {k: v for k, v in view.t.items() if k != (b, c)})
    with pytest.raises(MissingTranscriptFieldError):
        xcl12.derive(params, users[a], flows[a], incomplete)


# -- repaired variant ------------------------------------------------------------


def test_improved_agreement_and_exponents():
    backend, params, _, users = make_world()
    q = backend.q
    flows, view, results = run_session(params, users, improved=True)
    keys = {i: r[1].key for i, r in results.items()}
    assert len(set(keys.values())) == 1
    k2_exp = 1
    k3_exp = 1
    sum_e = 0
    for identity, user in users.items():
        u = flows[identity].ephemeral.value
        sum_e = (sum_e + u) % q
        k2_exp = k2_exp * (u + pow(user.partial.s_u.value, -1, q)) % q
        k3_exp = k3_exp * (u + user.secret_value.value) % q
    for shared, _ in results.values():
        assert backend.dlog_g1(shared.k1) == sum_e
        assert backend.dlog_g2(shared.k2) == k2_exp
        assert backend.dlog_g2(shared.k3) == k3_exp


def test_improved_unit_ephemeral_exponent():
    # pin the algebra with a = b = c = 1: exponents become products of
    # (1 + s^-1) and (1 + x) computed by plain residue arithmetic
    backend, params, _, users = make_world()
    q = backend.q
    announcements = [PartyPublic(u.identity, u.upk, u.partial.r_u) for u in users.values()]
    one = backend.scalar(1)
    flows = {}
    t = {}
    for identity in users:
        peers = [a for a in announcements if a.identity != identity]
        bases = {a.identity: masked_base(params, a.identity, a.r_point) for a in peers}
        flows[identity] = PairwiseFlow(one, {i: one * b for i, b in bases.items()}, bases)
        for recv, point in flows[identity].t_out.items():
            t[(identity, recv)] = point
    view = PairwiseView(tuple(announcements), t)
    shared, _ = xcl12.improved_derive(params, users[b"alice"], flows[b"alice"], view)
    k2_expected = 1
    k3_expected = 1
    for user in users.values():
        k2_expected = k2_expected * (1 + pow(user.partial.s_u.value, -1, q)) % q
        k3_expected = k3_expected * (1 + user.secret_value.value) % q
    assert backend.dlog_g2(shared.k2) == k2_expected
    assert backend.dlog_g2(shared.k3) == k3_expected


def test_operation_counts_frozen():
    _, params, _, users = make_world()
    for improved, expected in ((False, ORIGINAL_COUNTS), (True, IMPROVED_COUNTS)):
        counters = {i: OpCounter() for i in users}
        run_session(params, users, improved=improved, counters=counters)
        for counter in counters.values():
            assert counter.as_dict() == expected


def test_operation_count_delta_is_four_additions():
    _, params, _, users = make_world()
    base = {i: OpCounter() for i in users}
    run_session(params, users, improved=False, counters=base)
    improved = {i: OpCounter() for i in users}
    run_session(params, users, improved=True, counters=improved)
    for identity in users:
        delta = base[identity].delta(improved[identity])
        assert delta == {"point_adds": 4, "scalar_muls": 0, "pairings": 0, "g2_exps": 0}


@pytest.mark.parametrize("profile", ["t256", "c160"])
def test_agreement_other_backends(profile):
    _, params, _, users = make_world(profile)
    for improved in (False, True):
        _, _, results = run_session(params, users, improved=improved)
        assert len({r[1].key for r in results.values()}) == 1
