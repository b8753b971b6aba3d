"""Signature scheme for the authenticated protocol variant.

Schnorr-style proof of knowledge of the full private key S_U, carried out
in the pairing groups so that it reuses the key pair the inverse-point
pipeline already provides: the signer holds S_U with
e(S_U, P_U) = e(P, P), where P_U = upk_U + H2(upk_U) * Q_U is computable
from public data alone.

    sign:    k <- Z_q^*,  R = e(k*P, P_U),  c = H("CLSIG", R || m || P_U),
             z = k*P + c*S_U,  signature = (R, z)
    verify:  recompute P_U and c, accept iff e(z, P_U) == R * e(P, P)^c

Completeness: e(k*P + c*S_U, P_U) = e(k*P, P_U) * e(S_U, P_U)^c = R * g^c.

The signer makes no pairing.  It holds x_U, and P_U = e_U * Q_U with
e_U = x_U + H2(upk_U) and Q_U = P0 + q_U * P, q_U = H1(ID_U), so
R = e(P, P0)^(k*e_U) * g^(k*e_U*q_U) = g0^(k*e_U) * g^(k*e_U*q_U): two G2
powers, one of them on g's comb.  R is the same element either way, so
signatures and verification are unchanged; verification still pairs z,
whose Miller walk over q rejects a z outside the order-q subgroup.  Who
lacks x_U, as an adversary standing in for a key it does not hold, pairs
k*P with P_U and shares the challenge and response through ``respond``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .keyinfra import SystemParams, Xcq11UserKeys, combined_public, identity_hash, public_key_hash
from .pairing import G1Point, G2Elem, Scalar, encode_parts

CHALLENGE_TAG = b"CLSIG"


@dataclass(frozen=True)
class ClSignature:
    commitment: G2Elem  # R
    response: G1Point  # z


def _challenge(params: SystemParams, commitment: G2Elem, message: bytes, public_point: G1Point) -> Scalar:
    data = encode_parts([commitment.to_bytes(), message, public_point.to_bytes()])
    return params.backend.hash_to_scalar(CHALLENGE_TAG, data)


def respond(
    params: SystemParams, k: Scalar, commitment: G2Elem, full_key: G1Point, public_point: G1Point, message: bytes
) -> ClSignature:
    """The signature of commitment R = e(k*P, P_U): the challenge c and z = k*P + c*S_U, one walk."""
    c = _challenge(params, commitment, message, public_point)
    return ClSignature(commitment, params.backend.g1_lincomb([(k, params.backend.P), (c, full_key)]))


def sign(params: SystemParams, keys: Xcq11UserKeys, message: bytes, rng) -> ClSignature:
    """Sign ``message`` under the full key of ``keys``, forming R from x_U without a pairing."""
    backend = params.backend
    k = backend.random_scalar(rng)
    h2, q_u = public_key_hash(params, keys.upk), identity_hash(params, keys.identity).value
    ke = k.value * (keys.secret_value.value + h2.value)  # k*e_U, reduced mod q by the powers
    commitment = params.g0**ke * backend.g ** (ke * q_u)
    # P_U as combined_public makes it, from the two hashes R needs as well
    public_point = keys.upk + backend.g1_lincomb([(h2, params.p0), (h2.value * q_u, backend.P)])
    return respond(params, k, commitment, keys.full_key, public_point, message)


def verify(params: SystemParams, identity: bytes, upk: G1Point, message: bytes, sig: ClSignature) -> bool:
    """Check a signature against the signer's public data only."""
    backend = params.backend
    public_point = combined_public(params, identity, upk)
    c = _challenge(params, sig.commitment, message, public_point)
    return backend.pair(sig.response, public_point) == sig.commitment * backend.g**c


def signature_to_bytes(sig: ClSignature) -> bytes:
    return encode_parts([sig.commitment.to_bytes(), sig.response.to_bytes()])
