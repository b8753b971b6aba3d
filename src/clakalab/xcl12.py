"""Tripartite key agreement with three shared values, and its repair.

Original protocol: party U announces {ID_U, upk_U, R_U} and sends each peer
V the point T_{U->V} = u * (R_V + H1(ID_V || R_V) * P0).  Multiplying an
incoming T-value by the receiver's partial scalar s_V unmasks the sender's
bare ephemeral point (s_V * T_{U->V} = u * P).  Each party then computes

    k1 = u*P + unmasked_V + unmasked_W            = (a + b + c) * P
    k2 = e(unmasked_V, unmasked_W)^u              = e(P, P)^(abc)
    k3 = e(upk_V, upk_W)^(x_U)                    = e(P, P)^(x_A * x_B * x_C)

and the session key hashes the transcript together with (k1, k2, k3).

Repaired variant: k1 is unchanged while k2 and k3 shift every factor by a
long-term secret, so each shared value depends on all three parties'
ephemerals and long-term scalars at once:

    k2 = e(unmasked_V + base_V, unmasked_W + base_W)^(u + s_U^-1)
       = e(P, P)^((a + s_A^-1)(b + s_B^-1)(c + s_C^-1))
    k3 = e(unmasked_V + upk_V, unmasked_W + upk_W)^(u + x_U)
       = e(P, P)^((a + x_A)(b + x_B)(c + x_C))

where base_V = R_V + H1(ID_V || R_V) * P0 = s_V^-1 * P is already in hand
from round one.  Group operations run inside ``metered(counter)`` and are
counted at the element operators, never in the curve arithmetic, so the
cost of the repair is directly measurable: it is four extra point additions
per party and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import MissingTranscriptFieldError
from .keyinfra import XCL12_H2, SystemParams, Xcl12UserKeys, masked_base
from .pairing import G1Point, G2Elem, OpCounter, Scalar, metered
from .session import PairwiseView, PartyPublic, SessionKey


#: the announcement {ID_U, upk_U, R_U}, with R_U as ``r_point``
Announcement = PartyPublic


@dataclass(frozen=True)
class SharedValues:
    k1: G1Point
    k2: G2Elem
    k3: G2Elem


@dataclass(frozen=True)
class Xcl12Flow:
    """Round-one state: ephemeral, per-peer T-values, and the peer base points.

    ``peer_bases`` caches R_V + H1(ID_V || R_V) * P0, computed anyway while
    building the T-values; the repaired derivation reuses it, which is what
    keeps the repair at four extra additions.
    """

    ephemeral: Scalar
    t_out: Mapping[bytes, G1Point]
    peer_bases: Mapping[bytes, G1Point]


#: the shared-values session view; one T-value per ordered pair of parties
Xcl12View = PairwiseView


def round1(params: SystemParams, peers: Sequence[Announcement], rng, counter: OpCounter | None = None) -> Xcl12Flow:
    """Mask one fresh ephemeral toward each peer's base point."""
    u = params.backend.random_scalar(rng)
    with metered(counter):
        bases = {peer.identity: masked_base(params, peer.identity, peer.r_point) for peer in peers}
        t_out = {identity: u * base for identity, base in bases.items()}
    return Xcl12Flow(u, t_out, bases)


def session_key(params: SystemParams, view: Xcl12View, shared: SharedValues) -> bytes:
    """KDF over identities, upks, all six T-values, and (k1, k2, k3).

    The announcement points R_U are deliberately not part of the list; they
    enter only through the T-values they mask.
    """
    parts = view.kdf_prefix() + [shared.k1.to_bytes(), shared.k2.to_bytes(), shared.k3.to_bytes()]
    return params.backend.kdf(XCL12_H2, parts, params.key_bits)


def _session_inputs(params, own, flow, view):
    """Common prefix of both derivations: unmask peers and build k1."""
    view.require_complete()
    backend = params.backend
    peers = [p for p in view.ordered if p.identity != own.identity]
    if len(peers) != 2:
        raise MissingTranscriptFieldError(f"own identity {own.identity!r} not in the session view")
    own_point = flow.ephemeral * backend.P
    unmasked = {peer.identity: own.partial.s_u * view.t[(peer.identity, own.identity)] for peer in peers}
    k1 = own_point + unmasked[peers[0].identity] + unmasked[peers[1].identity]
    return backend, peers, unmasked, k1


def derive(
    params: SystemParams,
    own: Xcl12UserKeys,
    flow: Xcl12Flow,
    view: Xcl12View,
    counter: OpCounter | None = None,
) -> tuple[SharedValues, SessionKey]:
    with metered(counter):
        backend, (v, w), unmasked, k1 = _session_inputs(params, own, flow, view)
        k2 = backend.pair(unmasked[v.identity], unmasked[w.identity]) ** flow.ephemeral
        k3 = backend.pair(v.upk, w.upk) ** own.secret_value
    shared = SharedValues(k1, k2, k3)
    return shared, SessionKey(session_key(params, view, shared), shared)


def improved_derive(
    params: SystemParams,
    own: Xcl12UserKeys,
    flow: Xcl12Flow,
    view: Xcl12View,
    counter: OpCounter | None = None,
) -> tuple[SharedValues, SessionKey]:
    with metered(counter):
        backend, (v, w), unmasked, k1 = _session_inputs(params, own, flow, view)
        arg_v = unmasked[v.identity] + flow.peer_bases[v.identity]
        arg_w = unmasked[w.identity] + flow.peer_bases[w.identity]
        k2 = backend.pair(arg_v, arg_w) ** (flow.ephemeral + own.partial.s_u.inverse())
        arg_v = unmasked[v.identity] + v.upk
        arg_w = unmasked[w.identity] + w.upk
        k3 = backend.pair(arg_v, arg_w) ** (flow.ephemeral + own.secret_value)
    shared = SharedValues(k1, k2, k3)
    return shared, SessionKey(session_key(params, view, shared), shared)
