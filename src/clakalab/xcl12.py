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
from round one: ``round1`` keeps it in the ``peer_bases`` of its
``session.PairwiseFlow``.  The harness counts each party's group operations
at the element operators, never in the curve arithmetic, so the cost of the
repair is directly measurable: it is four extra point additions per party
and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .keyinfra import XCL12_H2, SystemParams, Xcl12UserKeys, masked_base
from .pairing import G1Point, G2Elem
from .session import PairwiseFlow, PairwiseView, PartyPublic, SessionKey


@dataclass(frozen=True)
class SharedValues:
    k1: G1Point
    k2: G2Elem
    k3: G2Elem


def round1(params: SystemParams, peers: Sequence[PartyPublic], rng) -> PairwiseFlow:
    """Mask one fresh ephemeral toward each peer's base point."""
    u = params.backend.random_scalar(rng)
    bases = {peer.identity: masked_base(params, peer.identity, peer.r_point) for peer in peers}
    t_out = {identity: u * base for identity, base in bases.items()}
    return PairwiseFlow(u, t_out, bases)


def session_key(params: SystemParams, view: PairwiseView, shared: SharedValues) -> bytes:
    """KDF over identities, upks, all six T-values, and (k1, k2, k3).

    The announcement points R_U are deliberately not part of the list; they
    enter only through the T-values they mask.
    """
    parts = view.kdf_prefix() + [shared.k1.to_bytes(), shared.k2.to_bytes(), shared.k3.to_bytes()]
    return params.backend.kdf(XCL12_H2, parts, params.key_bits)


def _session_inputs(params, own, flow, view):
    """Common prefix of both derivations: the peers V and W, u_V*P and u_W*P, and k1."""
    peers = view.peers(own.identity)
    unmasked_v, unmasked_w = [own.partial.s_u * view.t[(peer.identity, own.identity)] for peer in peers]
    k1 = flow.ephemeral * params.backend.P + unmasked_v + unmasked_w
    return peers, unmasked_v, unmasked_w, k1


def derive(
    params: SystemParams,
    own: Xcl12UserKeys,
    flow: PairwiseFlow,
    view: PairwiseView,
) -> tuple[SharedValues, SessionKey]:
    (v, w), unmasked_v, unmasked_w, k1 = _session_inputs(params, own, flow, view)
    k2 = params.backend.pair(unmasked_v, unmasked_w) ** flow.ephemeral
    k3 = params.backend.pair(v.upk, w.upk) ** own.secret_value
    shared = SharedValues(k1, k2, k3)
    return shared, SessionKey(session_key(params, view, shared), shared)


def improved_derive(
    params: SystemParams,
    own: Xcl12UserKeys,
    flow: PairwiseFlow,
    view: PairwiseView,
) -> tuple[SharedValues, SessionKey]:
    (v, w), unmasked_v, unmasked_w, k1 = _session_inputs(params, own, flow, view)
    arg_v = unmasked_v + flow.peer_bases[v.identity]
    arg_w = unmasked_w + flow.peer_bases[w.identity]
    k2 = params.backend.pair(arg_v, arg_w) ** (flow.ephemeral + own.partial.s_u.inverse())
    k3 = params.backend.pair(unmasked_v + v.upk, unmasked_w + w.upk) ** (flow.ephemeral + own.secret_value)
    shared = SharedValues(k1, k2, k3)
    return shared, SessionKey(session_key(params, view, shared), shared)
