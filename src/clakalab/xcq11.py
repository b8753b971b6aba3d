"""Tripartite key agreement from masked ephemeral points, and its repair.

Original protocol: party U picks an ephemeral u and sends each peer V the
masked point T_{U->V} = u * (upk_V + H2(upk_V) * Q_V).  Pairing a received
T-value with the receiver's full private key strips the mask, so each party
reaches the shared value e(P, P)^(a+b+c) from its own ephemeral plus the two
T-values addressed to it.  All round-one messages are broadcast: the session
key hashes all six T-values, so every party needs the full set.

Repaired variant: party U broadcasts the bare point T_U = u * P together
with a signature over (T_U, upk_U) under its full private key.  Peers verify
both signatures before deriving; the shared value becomes
e(T_V, T_W)^u = e(P, P)^(abc), which no longer involves long-term keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import clsig
from .errors import SignatureInvalidError
from .keyinfra import XCQ11_H3, SystemParams, Xcq11UserKeys, combined_public
from .pairing import G1Point, G2Elem, Scalar, encode_parts
from .session import PairwiseFlow, PairwiseView, PartyPublic, SessionKey, SessionView


def round1(params: SystemParams, peers: Sequence[PartyPublic], rng) -> PairwiseFlow:
    """Pick one ephemeral and mask it toward each peer.

    Needs no keys of the sender at all, only the peers' public data; the
    repaired variant exists because of exactly this gap.
    """
    u = params.backend.random_scalar(rng)
    t_out = {p.identity: u * combined_public(params, p.identity, p.upk) for p in peers}
    return PairwiseFlow(u, t_out)


def session_key(params: SystemParams, view: SessionView, shared: G2Elem) -> bytes:
    """KDF over identities, public keys, the T-values, and the shared value."""
    return params.backend.kdf(XCQ11_H3, view.kdf_prefix() + [shared.to_bytes()], params.key_bits)


def derive(params: SystemParams, own: Xcq11UserKeys, state: PairwiseFlow, view: PairwiseView) -> SessionKey:
    """Unmask the two incoming T-values with the full key and derive K."""
    backend = params.backend
    shared = backend.g ** state.ephemeral
    for peer in view.peers(own.identity):
        shared = shared * backend.pair(view.t[(peer.identity, own.identity)], own.full_key)
    return SessionKey(session_key(params, view, shared), shared)


# -- repaired variant ---------------------------------------------------------


@dataclass(frozen=True)
class Xcq11SignedOutgoing:
    """Round-one state of the repaired variant: bare point plus signature."""

    ephemeral: Scalar
    t_point: G1Point
    signature: clsig.ClSignature


@dataclass(frozen=True)
class Xcq11ImprovedView(SessionView):
    """The repaired session view: one bare T point and signature per party."""

    t_points: Mapping[bytes, G1Point]
    signatures: Mapping[bytes, clsig.ClSignature]

    def missing(self):
        for p in self.parties:
            if p.identity not in self.t_points:
                yield f"T point of {p.identity!r}"
            if p.identity not in self.signatures:
                yield f"signature of {p.identity!r}"

    def t_values(self) -> list[G1Point]:
        return [self.t_points[p.identity] for p in self.ordered]


def signed_payload(t_point: G1Point, upk: G1Point) -> bytes:
    """Bytes covered by the round-one signature: the T point and the upk."""
    return encode_parts([t_point.to_bytes(), upk.to_bytes()])


def improved_round1(params: SystemParams, own: Xcq11UserKeys, rng) -> Xcq11SignedOutgoing:
    u = params.backend.random_scalar(rng)
    t_point = u * params.backend.P
    sig = clsig.sign(
        params,
        own.full_key,
        combined_public(params, own.identity, own.upk),
        signed_payload(t_point, own.upk),
        rng,
    )
    return Xcq11SignedOutgoing(u, t_point, sig)


def improved_derive(
    params: SystemParams,
    own: Xcq11UserKeys,
    state: Xcq11SignedOutgoing,
    view: Xcq11ImprovedView,
) -> SessionKey:
    """Verify both peers' signatures, then derive e(T_V, T_W)^u.

    Raises ``SignatureInvalidError`` naming the offending peer; no key is
    produced in that case.
    """
    v, w = view.peers(own.identity)
    for peer in (v, w):
        message = signed_payload(view.t_points[peer.identity], peer.upk)
        if not clsig.verify(params, peer.identity, peer.upk, message, view.signatures[peer.identity]):
            raise SignatureInvalidError(peer.identity)
    shared = params.backend.pair(view.t_points[v.identity], view.t_points[w.identity]) ** state.ephemeral
    return SessionKey(session_key(params, view, shared), shared)
