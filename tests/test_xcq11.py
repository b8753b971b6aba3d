"""Masked-point protocol and its signature-authenticated repair."""

import random

import pytest

from clakalab import clsig, xcq11
from clakalab.errors import MissingTranscriptFieldError, SignatureInvalidError
from clakalab.keyinfra import (
    combined_public,
    identity_hash,
    make_user,
    public_key_hash,
    setup,
)
from clakalab.pairing import get_backend
from clakalab.session import PairwiseView, PartyPublic

IDS = (b"alice", b"bob", b"carol")


def make_world(profile="t1009", seed=21):
    backend = get_backend(profile)
    rng = random.Random(seed)
    params, msk = setup(backend, rng)
    users = make_user("xcq11", params, msk, dict.fromkeys(IDS, rng))
    return backend, params, msk, users


def run_original(params, users, seed=5):
    publics = [PartyPublic(u.identity, u.upk) for u in users.values()]
    states = {}
    t = {}
    for identity, user in users.items():
        peers = [p for p in publics if p.identity != identity]
        states[identity] = xcq11.round1(params, peers, random.Random(f"{seed}/{identity.decode()}"))
        for recv, point in states[identity].t_out.items():
            t[(identity, recv)] = point
    view = PairwiseView(tuple(publics), t)
    keys = {i: xcq11.derive(params, users[i], states[i], view) for i in users}
    return states, view, keys


def run_improved(params, users, seed=5):
    publics = [PartyPublic(u.identity, u.upk) for u in users.values()]
    states = {
        i: xcq11.improved_round1(params, u, random.Random(f"{seed}/{i.decode()}")) for i, u in users.items()
    }
    view = xcq11.Xcq11ImprovedView(
        tuple(publics),
        {i: s.t_point for i, s in states.items()},
        {i: s.signature for i, s in states.items()},
    )
    keys = {i: xcq11.improved_derive(params, users[i], states[i], view) for i in users}
    return states, view, keys


# -- original protocol -------------------------------------------------------


def test_round1_mask_log_oracle():
    backend, params, msk, users = make_world()
    q = backend.q
    alice, bob = users[b"alice"], users[b"bob"]
    state = xcq11.round1(params, [PartyPublic(bob.identity, bob.upk)], random.Random(1))
    # log T = u * (x_B + H2(upk_B)) * (x + q_B)
    expected = (
        state.ephemeral.value
        * (bob.secret_value.value + public_key_hash(params, bob.upk).value)
        * (msk.x.value + identity_hash(params, b"bob").value)
    ) % q
    assert backend.dlog_g1(state.t_out[b"bob"]) == expected


def test_ephemerals_distinct_across_seeded_sessions():
    backend, params, _, users = make_world("t256")
    peers = [PartyPublic(users[b"bob"].identity, users[b"bob"].upk)]
    seen = {xcq11.round1(params, peers, random.Random(s)).ephemeral.value for s in range(100)}
    assert len(seen) == 100


def test_agreement_and_shared_exponent():
    backend, params, _, users = make_world()
    states, view, keys = run_original(params, users)
    assert len({k.key for k in keys.values()}) == 1
    total = sum(s.ephemeral.value for s in states.values()) % backend.q
    for key in keys.values():
        assert backend.dlog_g2(key.shared) == total


def test_combined_points_never_identity():
    _, params, _, users = make_world()
    for user in users.values():
        assert not combined_public(params, user.identity, user.upk).is_identity()


def test_leak_identity_on_honest_transcripts():
    # the product of three pairings of transcript values with two full keys
    # equals the session's shared value; this is why forward secrecy fails
    backend, params, _, users = make_world()
    for seed in range(10):
        states, view, keys = run_original(params, users, seed=seed)
        a, b, c = sorted(users)
        leak = (
            backend.pair(view.t[(a, b)], users[b].full_key)
            * backend.pair(view.t[(b, a)], users[a].full_key)
            * backend.pair(view.t[(c, a)], users[a].full_key)
        )
        assert leak == keys[a].shared


def test_kdf_binds_t_values():
    _, params, _, users = make_world()
    states, view, keys = run_original(params, users)
    a, b, c = sorted(users)
    tampered_t = dict(view.t)
    tampered_t[(c, b)] = tampered_t[(c, b)] + params.backend.P
    tampered = PairwiseView(view.parties, tampered_t)
    assert xcq11.session_key(params, tampered, keys[a].shared) != keys[a].key


def test_role_permutation_invariant():
    _, params, _, users = make_world()
    states, view, keys = run_original(params, users)
    shuffled = PairwiseView(tuple(reversed(view.parties)), view.t)
    assert xcq11.session_key(params, shuffled, keys[b"alice"].shared) == keys[b"alice"].key


def test_missing_transcript_fields_rejected():
    _, params, _, users = make_world()
    states, view, keys = run_original(params, users)
    a, b, c = sorted(users)
    incomplete = PairwiseView(view.parties, {k: v for k, v in view.t.items() if k != (c, b)})
    with pytest.raises(MissingTranscriptFieldError):
        xcq11.derive(params, users[a], states[a], incomplete)
    two_parties = PairwiseView(view.parties[:2], view.t)
    with pytest.raises(MissingTranscriptFieldError):
        xcq11.derive(params, users[a], states[a], two_parties)


# -- repaired variant ----------------------------------------------------------


def test_improved_round1_signature_and_log():
    backend, params, _, users = make_world()
    alice = users[b"alice"]
    state = xcq11.improved_round1(params, alice, random.Random(2))
    assert backend.dlog_g1(state.t_point) == state.ephemeral.value
    message = xcq11.signed_payload(state.t_point, alice.upk)
    assert clsig.verify(params, alice.identity, alice.upk, message, state.signature)
    # the signature does not transfer to a tampered point
    tampered = xcq11.signed_payload(state.t_point + backend.P, alice.upk)
    assert not clsig.verify(params, alice.identity, alice.upk, tampered, state.signature)


def test_improved_agreement_and_exponent():
    backend, params, _, users = make_world()
    states, view, keys = run_improved(params, users)
    assert len({k.key for k in keys.values()}) == 1
    product = 1
    for state in states.values():
        product = product * state.ephemeral.value % backend.q
    for key in keys.values():
        assert backend.dlog_g2(key.shared) == product


def test_improved_shared_value_ignores_long_term_keys():
    # the shared value is a function of transcript points and one ephemeral
    # alone; recomputing it without touching any private key reproduces it
    backend, params, _, users = make_world()
    states, view, keys = run_improved(params, users)
    a, b, c = sorted(users)
    recomputed = backend.pair(view.t_points[b], view.t_points[c]) ** states[a].ephemeral
    assert recomputed == keys[a].shared


def test_improved_rejects_bad_signature():
    backend, params, _, users = make_world()
    states, view, keys = run_improved(params, users)
    a, b, c = sorted(users)
    bad_sigs = dict(view.signatures)
    bad_sigs[c] = clsig.ClSignature(view.signatures[c].commitment, view.signatures[c].response + backend.P)
    bad_view = xcq11.Xcq11ImprovedView(view.parties, view.t_points, bad_sigs)
    with pytest.raises(SignatureInvalidError) as excinfo:
        xcq11.improved_derive(params, users[a], states[a], bad_view)
    assert excinfo.value.peer == c


def test_improved_missing_signature_rejected():
    _, params, _, users = make_world()
    states, view, keys = run_improved(params, users)
    a, b, c = sorted(users)
    incomplete = xcq11.Xcq11ImprovedView(
        view.parties, view.t_points, {i: s for i, s in view.signatures.items() if i != b}
    )
    with pytest.raises(MissingTranscriptFieldError):
        xcq11.improved_derive(params, users[a], states[a], incomplete)


@pytest.mark.parametrize("profile", ["t256", "c160"])
def test_agreement_other_backends(profile):
    _, params, _, users = make_world(profile)
    _, _, keys = run_original(params, users)
    assert len({k.key for k in keys.values()}) == 1
    _, _, ikeys = run_improved(params, users)
    assert len({k.key for k in ikeys.values()}) == 1
