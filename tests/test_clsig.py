"""Signature scheme: completeness, binding, and forgery rejection."""

import random

import pytest

from clakalab import clsig
from clakalab.keyinfra import combined_public, make_user, setup
from clakalab.pairing import OpCounter, get_backend, metered


@pytest.fixture(scope="module")
def world():
    backend = get_backend("t256")
    rng = random.Random(42)
    params, msk = setup(backend, rng)
    users = {i: make_user("xcq11", params, msk, i, rng) for i in (b"alice", b"bob")}
    return backend, params, users


def _sign(params, user, message, rng):
    return clsig.sign(params, user, message, rng)


def test_completeness(world, rng):
    backend, params, users = world
    alice = users[b"alice"]
    for i in range(100):
        message = f"message-{i}".encode()
        sig = _sign(params, alice, message, rng)
        assert clsig.verify(params, alice.identity, alice.upk, message, sig)


def test_completeness_crypto_backend(c160, rng):
    params, msk = setup(c160, rng)
    user = make_user("xcq11", params, msk, b"alice", rng)
    for i in range(5):
        message = f"m{i}".encode()
        sig = _sign(params, user, message, rng)
        assert clsig.verify(params, user.identity, user.upk, message, sig)


@pytest.mark.parametrize("profile", ("t1009", "c160", "c256"))
def test_commitment_is_the_pairing_it_replaces(profile):
    # the signer forms R = g0^(k*e_U) * g^(k*e_U*q_U) from x_U; a clone of
    # its rng gives the k that the pairing e(k*P, P_U) needs
    backend = get_backend(profile)
    rng = random.Random(f"commitment/{profile}")
    params, msk = setup(backend, rng)
    user = make_user("xcq11", params, msk, b"alice", rng)
    public_point = combined_public(params, user.identity, user.upk)
    for i in range(3):
        clone = random.Random()
        clone.setstate(rng.getstate())
        k = backend.random_scalar(clone)
        counter = OpCounter()
        with metered(counter):
            sig = clsig.sign(params, user, f"m{i}".encode(), rng)
        assert sig.commitment.to_bytes() == backend.pair(k * backend.P, public_point).to_bytes()
        c = clsig._challenge(params, sig.commitment, f"m{i}".encode(), public_point)
        assert sig.response == k * backend.P + c * user.full_key
        # P_U (2 muls, 2 adds), R (2 G2 powers) and z = k*P + c*S_U (2 muls, 1 add)
        assert counter == OpCounter(point_adds=3, scalar_muls=4, pairings=0, g2_exps=2)
        assert clsig.verify(params, user.identity, user.upk, f"m{i}".encode(), sig)


def test_response_log_oracle(rng):
    backend = get_backend("t1009")
    params, msk = setup(backend, random.Random(8))
    user = make_user("xcq11", params, msk, b"alice", rng)
    public_point = combined_public(params, user.identity, user.upk)
    sig = _sign(params, user, b"oracle", rng)
    q = backend.q
    # the commitment exponent is k * log(P_U), so k is recoverable here
    k = backend.dlog_g2(sig.commitment) * pow(backend.dlog_g1(public_point), -1, q) % q
    c = clsig._challenge(params, sig.commitment, b"oracle", public_point)
    expected = (k + c.value * backend.dlog_g1(user.full_key)) % q
    assert backend.dlog_g1(sig.response) == expected


def test_signatures_randomized(world):
    _, params, users = world
    alice = users[b"alice"]
    s1 = _sign(params, alice, b"same", random.Random(1))
    s2 = _sign(params, alice, b"same", random.Random(2))
    assert s1 != s2
    assert clsig.verify(params, alice.identity, alice.upk, b"same", s1)
    assert clsig.verify(params, alice.identity, alice.upk, b"same", s2)


def test_message_binding(world, rng):
    _, params, users = world
    alice = users[b"alice"]
    sig = _sign(params, alice, b"original", rng)
    assert not clsig.verify(params, alice.identity, alice.upk, b"altered", sig)


def test_transplant_rejected(world, rng):
    _, params, users = world
    alice = users[b"alice"]
    for i in range(100):
        sig = _sign(params, alice, f"msg-{i}".encode(), rng)
        assert not clsig.verify(params, alice.identity, alice.upk, f"msg-{i + 1}".encode(), sig)


def test_key_binding(world, rng):
    backend, params, users = world
    alice, bob = users[b"alice"], users[b"bob"]
    sig = _sign(params, alice, b"hello", rng)
    # other identity, other upk: both flip verification to false
    assert not clsig.verify(params, bob.identity, alice.upk, b"hello", sig)
    assert not clsig.verify(params, alice.identity, bob.upk, b"hello", sig)


def test_cross_signing_rejected(world, rng):
    _, params, users = world
    alice, bob = users[b"alice"], users[b"bob"]
    # bob signs with his own full key but claims to be alice
    sig = clsig.sign(params, bob, b"hi", rng)
    assert not clsig.verify(params, alice.identity, alice.upk, b"hi", sig)


def test_random_forgeries_rejected(world, rng):
    backend, params, users = world
    alice = users[b"alice"]
    for _ in range(100):
        forged = clsig.ClSignature(
            backend.g ** backend.random_scalar(rng),
            backend.random_scalar(rng) * backend.P,
        )
        assert not clsig.verify(params, alice.identity, alice.upk, b"target", forged)


def test_signature_bytes(world, rng):
    _, params, users = world
    sig = _sign(params, users[b"alice"], b"enc", rng)
    raw = clsig.signature_to_bytes(sig)
    assert sig.commitment.to_bytes() in raw and sig.response.to_bytes() in raw
