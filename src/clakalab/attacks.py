"""Executable adversaries against both protocols and their repairs.

Each attack is written against a knowledge record that contains exactly the
secrets the adversary is assumed to hold, nothing else; public data
(system parameters, announcements, T-values) arrives separately through the
session view.  Five attacks are implemented:

* ``fs``          passive; holds two full private keys, reconstructs the
                  session key of a finished masked-point session.
* ``kci``         live; holds two full private keys, impersonates the third
                  party in a masked-point session.
* ``secrets``     passive; holds all three user secret values, recovers the
                  bare ephemeral points of a finished masked-point session
                  by linear unmasking and rebuilds the shared value.
* ``kci-kgc``     live; the malicious KGC (master key, every partial key,
                  and one victim's full key) impersonates the third party
                  in a shared-values session.
* ``kci-common``  live; holds two full key triples, impersonates the third
                  party in a shared-values session.

Run against the repaired variants, the same strategies are carried to the
first step that needs unavailable knowledge; a fresh random scalar then
stands in for the missing value so the run completes and the key mismatch
(or the honest parties' signature abort) is observable rather than merely
asserted.  Success is judged by the harness as byte equality of keys, never
by the adversary itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import xcl12, xcq11
from . import clsig
from .errors import DegenerateDenominatorError, ScenarioError
from .keyinfra import (
    SystemParams,
    Xcl12UserKeys,
    combined_public,
    identity_hash,
    public_key_hash,
)
from .pairing import G1Point, Scalar
from .session import canonical_identities, family, is_improved

ATTACK_FAMILIES = {
    "fs": "xcq11",
    "kci": "xcq11",
    "secrets": "xcq11",
    "kci-kgc": "xcl12",
    "kci-common": "xcl12",
}

PASSIVE_ATTACKS = ("fs", "secrets")


def attack_applies(attack: str, protocol: str) -> bool:
    return attack in ATTACK_FAMILIES and ATTACK_FAMILIES[attack] == family(protocol)


def expected_success(attack: str, protocol: str) -> bool:
    """The documented outcome: originals fall, repaired variants hold."""
    if not attack_applies(attack, protocol):
        raise ScenarioError(f"attack {attack!r} is not defined for protocol {protocol!r}")
    return not is_improved(protocol)


@dataclass(frozen=True)
class AdversaryKnowledge:
    """Secrets granted to one adversary; fields not granted stay empty.

    ``full_keys`` maps identity to the full private key alone: the point
    S_U for the masked-point protocol, the (s_U, R_U, x_U) user record for
    the shared-values protocol.  The audit tests check that every attack
    receives exactly its documented grant.
    """

    attack: str
    protocol: str
    full_keys: Mapping[bytes, object] = field(default_factory=dict)
    secret_values: Mapping[bytes, Scalar] = field(default_factory=dict)
    partial_keys: Mapping[bytes, object] = field(default_factory=dict)
    master_key: Optional[Scalar] = None

    def declared(self) -> dict:
        """JSON-ready summary of the grant, for reports and audits."""
        return {
            "attack": self.attack,
            "protocol": self.protocol,
            "full_keys": sorted(i.decode("utf-8") for i in self.full_keys),
            "secret_values": sorted(i.decode("utf-8") for i in self.secret_values),
            "partial_keys": sorted(i.decode("utf-8") for i in self.partial_keys),
            "master_key": self.master_key is not None,
        }

    def partial_scalar(self, identity: bytes) -> Optional[Scalar]:
        """s_U from a granted partial key or full key triple, or None."""
        if identity in self.partial_keys:
            return self.partial_keys[identity].s_u
        if identity in self.full_keys:
            return self.full_keys[identity].partial.s_u
        return None


def grant_knowledge(attack: str, protocol: str, msk, users: Mapping[bytes, object]) -> AdversaryKnowledge:
    """Build the minimal knowledge record each attack is documented to need.

    With identities in canonical order (A, B, C): the compromised parties
    are A and B, the impersonated or excluded party is C.
    """
    if not attack_applies(attack, protocol):
        raise ScenarioError(f"attack {attack!r} is not defined for protocol {protocol!r}")
    a, b, c = canonical_identities(users.keys())
    improved = is_improved(protocol)
    if attack in ("fs", "kci"):
        granted = (a, b, c) if attack == "fs" and improved else (a, b)
        return AdversaryKnowledge(
            attack, protocol, full_keys={i: users[i].full_key for i in granted}
        )
    if attack == "secrets":
        return AdversaryKnowledge(
            attack, protocol, secret_values={i: users[i].secret_value for i in (a, b, c)}
        )
    if attack == "kci-kgc":
        return AdversaryKnowledge(
            attack,
            protocol,
            master_key=msk.x,
            partial_keys={i: users[i].partial for i in (a, b, c)},
            full_keys={a: users[a]},
        )
    return AdversaryKnowledge(attack, protocol, full_keys={a: users[a], b: users[b]})


@dataclass(frozen=True)
class AdversaryResult:
    """What the adversary hands back: a key attempt and its working notes."""

    derived_key: Optional[bytes]
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AttackOutcome:
    """Harness verdict on one attack run.

    ``success`` means the adversary's key byte-equals every honest key the
    harness collected; it is computed by the harness, never self-reported.
    """

    success: bool
    adversary_key: Optional[bytes]
    honest_keys: Mapping[bytes, Optional[bytes]]
    aborted: tuple[bytes, ...]
    failure: Optional[str]
    details: Mapping[str, object]


def judge_outcome(
    result: AdversaryResult,
    honest_keys: Mapping[bytes, Optional[bytes]],
    aborted: tuple[bytes, ...],
    failure: Optional[str] = None,
) -> AttackOutcome:
    # an aborted party's key is None, which no derived key equals
    success = result.derived_key is not None and all(k == result.derived_key for k in honest_keys.values())
    if failure is None:
        if aborted:
            failure = "honest parties aborted (signature rejected)"
        elif not success:
            failure = "derived key does not match the honest session key"
    return AttackOutcome(
        success=success,
        adversary_key=result.derived_key,
        honest_keys=dict(honest_keys),
        aborted=aborted,
        failure=None if success else failure,
        details=dict(result.details),
    )


def _dlog_details(backend, **elements) -> dict:
    """Discrete logs of intermediate values; transparent backend only."""
    if not backend.supports_dlog:
        return {}
    out = {}
    for name, elem in elements.items():
        if isinstance(elem, G1Point):
            out[name] = backend.dlog_g1(elem)
        else:
            out[name] = backend.dlog_g2(elem)
    return out


# -- passive attacks ----------------------------------------------------------


def forward_secrecy_attack(params: SystemParams, knowledge: AdversaryKnowledge, view, rng) -> AdversaryResult:
    """Rebuild the session key of a finished session from leaked full keys.

    Original protocol: anyone holding S_A and S_B can strip the masks from
    T_AB, T_BA and T_CA, which multiply out to the full shared value; T_BA
    and T_CA share one pairing with S_A, by bilinearity.
    Repaired variant: even with all three full keys the shared value
    e(P, P)^(abc) is out of reach; the closest computable base e(T_B, T_C)
    is raised to a random guess so the mismatch is demonstrated end to end.
    """
    backend = params.backend
    a, b, c = [p.identity for p in view.ordered]
    if knowledge.protocol == "xcq11":
        keys = knowledge.full_keys
        shared = backend.pair(view.t[(a, b)], keys[b]) * backend.pair(view.t[(b, a)] + view.t[(c, a)], keys[a])
        details = _dlog_details(backend, recovered_shared=shared)
    else:
        shared = backend.pair(view.t_points[b], view.t_points[c]) ** backend.random_scalar(rng)
        details = {"substituted": "exponent of e(T_B, T_C)"}
    return AdversaryResult(xcq11.session_key(params, view, shared), details)


def recover_ephemeral_points(params: SystemParams, secret_values: Mapping[bytes, Scalar], view) -> dict:
    """Strip every mask in a finished masked-point session using only the
    user secret values: for sender X with receivers Y and Z,

        u_X * P = (q_Y - q_Z)^-1 * ((x_Y + H2(upk_Y))^-1 * T_XY
                                    - (x_Z + H2(upk_Z))^-1 * T_XZ)

    Raises ``DegenerateDenominatorError`` when two identity hashes collide.
    """
    weights = {}
    hashes = {}
    for p in view.ordered:
        weights[p.identity] = (secret_values[p.identity] + public_key_hash(params, p.upk)).inverse()
        hashes[p.identity] = identity_hash(params, p.identity)
    recovered = {}
    for sender in view.ordered:
        y, z = [p.identity for p in view.peers(sender.identity)]
        denom = hashes[y] - hashes[z]
        if denom.is_zero():
            raise DegenerateDenominatorError(
                f"identity hashes of {y!r} and {z!r} collide; cannot isolate the ephemeral"
            )
        scale = denom.inverse()
        recovered[sender.identity] = params.backend.g1_lincomb(
            [(scale * weights[y], view.t[(sender.identity, y)]), (scale * weights[z], -view.t[(sender.identity, z)])]
        )
    return recovered


def secret_values_attack(params: SystemParams, knowledge: AdversaryKnowledge, view) -> AdversaryResult:
    """Recover the bare ephemeral points, then pair their sum with P.

    Repaired variant: the broadcast points already are the bare ephemerals,
    but the shared value is multiplicative in them, so the additive
    reconstruction pairs to the wrong value and the derived key mismatches.
    """
    backend = params.backend
    if knowledge.protocol == "xcq11":
        recovered = recover_ephemeral_points(params, knowledge.secret_values, view)
        points = recovered.values()
        details = _dlog_details(backend, **{f"recovered_{i.decode()}": pt for i, pt in recovered.items()})
    else:
        points = view.t_values()
        details = {"substituted": "additive reconstruction of a multiplicative value"}
    total = backend.g1_identity()
    for point in points:
        total = total + point
    shared = backend.pair(total, backend.P)
    return AdversaryResult(xcq11.session_key(params, view, shared), details)


# -- live adversaries -----------------------------------------------------------


class LiveAdversary:
    """Occupies one party's network slot without holding that party's keys.

    The harness drives it like an honest party: ``announcement`` then
    ``flows``, then ``finish`` once the broadcast round is complete.
    """

    def __init__(self, params: SystemParams, knowledge: AdversaryKnowledge, public, rng):
        self.params = params
        self.knowledge = knowledge
        self.public = public  # impersonated party's public record
        self.rng = rng
        self.ephemeral = None

    def announcement(self):
        # the impersonated party's genuine public data is public knowledge
        return self.public


class MaskedPointKciAdversary(LiveAdversary):
    """Impersonates C toward A and B holding only S_A and S_B."""

    def flows(self, peers):
        if self.knowledge.protocol == "xcq11":
            # round one needs no sender keys at all, so the adversary can
            # run it verbatim with its own ephemeral
            state = xcq11.round1(self.params, peers, self.rng)
            self.ephemeral = state.ephemeral
            return state
        # repaired variant: a signature over (T_C, upk_C) is required, and
        # S_C is not available; sign with a fresh random stand-in key.  Nor
        # is x_C, so the commitment pairs k*P with P_C
        backend = self.params.backend
        u = backend.random_scalar(self.rng)
        self.ephemeral = u
        t_point = u * backend.P
        stand_in = backend.random_scalar(self.rng) * backend.P
        public_point = combined_public(self.params, self.public.identity, self.public.upk)
        k = backend.random_scalar(self.rng)
        sig = clsig.respond(
            self.params,
            k,
            backend.pair(k * backend.P, public_point),
            stand_in,
            public_point,
            xcq11.signed_payload(t_point, self.public.upk),
        )
        return xcq11.Xcq11SignedOutgoing(u, t_point, sig)

    def finish(self, view) -> AdversaryResult:
        backend = self.params.backend
        a, b, _ = [p.identity for p in view.ordered]
        if self.knowledge.protocol == "xcq11":
            keys = self.knowledge.full_keys
            unmasked = backend.pair(view.t[(a, b)], keys[b]) * backend.pair(view.t[(b, a)], keys[a])
            shared = backend.g**self.ephemeral * unmasked
            details = _dlog_details(backend, adversary_shared=shared)
        else:
            # repaired variant: the adversary knows its own ephemeral, so it
            # can compute e(T_A, T_B)^c' -- but A and B reject the forged
            # signature and never derive a key to match
            shared = backend.pair(view.t_points[a], view.t_points[b]) ** self.ephemeral
            details = {"note": "honest parties must abort on the forged signature"}
        return AdversaryResult(xcq11.session_key(self.params, view, shared), details)


class SharedValuesAdversary(LiveAdversary):
    """Impersonates C in a shared-values session.

    Round one is identical to an honest round: T-values need only public
    peer data.  Every secret is read through the grant, so the KGC and the
    common adversary run one strategy and differ only in what they hold.
    """

    def flows(self, peers):
        state = xcl12.round1(self.params, peers, self.rng)
        self.ephemeral, self.bases = state.ephemeral, state.peer_bases
        return state

    def shared_values(self, view) -> AdversaryResult:
        backend = self.params.backend
        knowledge = self.knowledge
        parties = {p.identity: p for p in view.ordered}
        a, b, c = parties
        stood_in = []  # the compromised parties' secrets the grant lacks

        def granted(value, what: str, identity: bytes):
            # the granted secret, or a stand-in drawn from the rng
            if value is not None:
                return value
            stood_in.append(f"{what} of {identity.decode('utf-8')}")
            return backend.random_scalar(self.rng)

        # s_B * T_{A->B} = a*P and s_A * T_{B->A} = b*P
        a_point = granted(knowledge.partial_scalar(b), "partial scalar", b) * view.t[(a, b)]
        b_point = granted(knowledge.partial_scalar(a), "partial scalar", a) * view.t[(b, a)]
        k1 = self.ephemeral * backend.P + a_point + b_point
        if knowledge.protocol == "xcl12":
            user_a: Optional[Xcl12UserKeys] = knowledge.full_keys.get(a)
            x_a = granted(None if user_a is None else user_a.secret_value, "secret value", a)
            k2 = backend.pair(a_point, b_point) ** self.ephemeral
            k3 = backend.pair(parties[b].upk, parties[c].upk) ** x_a
            details = _dlog_details(backend, k1=k1, k2=k2, k3=k3)
        else:
            # repaired variant: the bases of k2 and k3 are built from public
            # points plus the recovered a*P and b*P, but the exponents need
            # s_C^-1 and x_C; a random guess stands in for x_C, which no
            # grant holds, and for s_C^-1 when the grant lacks C's partial key
            base2 = backend.pair(a_point + self.bases[a], b_point + self.bases[b])
            base3 = backend.pair(a_point + parties[a].upk, b_point + parties[b].upk)
            s_c = knowledge.partial_scalar(c)
            s_c_inverse = backend.random_scalar(self.rng) if s_c is None else s_c.inverse()
            k2 = base2 ** (self.ephemeral + s_c_inverse)
            k3 = base3 ** (self.ephemeral + backend.random_scalar(self.rng))
            substituted = "secret value" if s_c is not None else "partial scalar and secret value"
            details = {"substituted": f"{substituted} of the impersonated party"}
        if stood_in:
            details["stood_in"] = "; ".join(stood_in)
        shared = xcl12.SharedValues(k1, k2, k3)
        return AdversaryResult(xcl12.session_key(self.params, view, shared), details)


class SharedValuesKgcAdversary(SharedValuesAdversary):
    """Malicious KGC impersonating C: master key, all partials, A's full key."""

    def finish(self, view) -> AdversaryResult:
        return self.shared_values(view)


class SharedValuesCommonAdversary(SharedValuesAdversary):
    """Common adversary impersonating C with the full key triples of A and B."""

    def finish(self, view) -> AdversaryResult:
        return self.shared_values(view)


#: each live attack and the adversary that occupies the impersonated slot
LIVE_ATTACKS = {
    "kci": MaskedPointKciAdversary,
    "kci-kgc": SharedValuesKgcAdversary,
    "kci-common": SharedValuesCommonAdversary,
}


def make_live_adversary(attack: str, params: SystemParams, knowledge: AdversaryKnowledge, public, rng) -> LiveAdversary:
    if attack not in LIVE_ATTACKS:
        raise ScenarioError(f"{attack!r} is not a live attack")
    return LIVE_ATTACKS[attack](params, knowledge, public, rng)
