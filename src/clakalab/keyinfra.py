"""KGC setup and the two certificateless key pipelines.

A key generation centre (KGC) holds a master scalar x and publishes
P0 = x*P.  Users combine a KGC-issued partial private key with a
self-chosen secret value, so neither the KGC nor a certificate authority
ever holds a complete user key.

Two pipelines are implemented:

* inverse-point style: the partial key is the point s_U = (x + q_U)^-1 * P
  with q_U = H1(ID_U).  The user picks x_U, publishes upk_U = x_U * Q_U
  (where Q_U = P0 + q_U * P), and folds both into the full private key
  S_U = (x_U + H2(upk_U))^-1 * s_U.

* inverse-scalar style: the KGC picks r_U, publishes R_U = r_U * P, and
  issues the scalar s_U = (r_U + h*x)^-1 with h = H1(ID_U || R_U).  The
  user key is simply upk_U = x_U * P; the full private key is the triple
  (s_U, R_U, x_U).

Degenerate denominators are resampled where a random input exists and
reported as ``DegenerateScalarError`` where the input is fixed (an identity
whose hash collides with -x).  On the small-prime transparent profile such
collisions are actually reachable, so the guards are tested, not decorative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import DegenerateScalarError, EncodingError, ScenarioError
from .pairing import (
    DEFAULT_KEY_BITS,
    KEY_BITS_RULE,
    PROFILE_NAMES,
    G1Point,
    G2Elem,
    PairingBackend,
    Scalar,
    encode_parts,
    get_backend,
    valid_key_bits,
)
from .session import valid_identity

# domain tags for the protocol hash functions
XCQ11_H1 = b"XCQ11-H1"
XCQ11_H2 = b"XCQ11-H2"
XCQ11_H3 = b"XCQ11-H3"
XCL12_H1 = b"XCL12-H1"
XCL12_H2 = b"XCL12-H2"

KEYRING_SCHEMA = "clakalab-keys/1"

#: teeth of the comb for multiples of P0: each world builds its own table
#: of 2^teeth - 1 points, so it has fewer teeth than the one P keeps
P0_TEETH = 6


@dataclass(frozen=True)
class SystemParams:
    """Public system parameters: the backend (q, P, e, g) plus P0 = x*P and g0 = e(P, P0).

    P0 is made a fixed base of the backend, so its comb table is built by
    its first multiple and kept with these parameters.  g0 is ``g ** x``,
    made by ``master_params`` where x is held; it follows from P0, so it
    takes no part in equality.
    """

    backend: PairingBackend
    p0: G1Point
    key_bits: int = DEFAULT_KEY_BITS
    g0: Optional[G2Elem] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p0", self.backend.fixed_base(self.p0, P0_TEETH))


@dataclass(frozen=True)
class MasterKey:
    """KGC master scalar.  Never appears in transcripts or reports."""

    x: Scalar


def master_params(backend: PairingBackend, x: Scalar, key_bits: int) -> SystemParams:
    """The system parameters of the master scalar x: P0 = x*P and g0 = e(P, P0) = g ** x."""
    return SystemParams(backend, x * backend.P, key_bits, backend.g**x)


def setup(backend: PairingBackend, rng, key_bits: int = DEFAULT_KEY_BITS):
    """Pick a master key and publish the matching system parameters."""
    x = backend.random_scalar(rng)
    return master_params(backend, x, key_bits), MasterKey(x)


# -- hash shorthands ---------------------------------------------------------


def identity_hash(params: SystemParams, identity: bytes) -> Scalar:
    """q_U = H1(ID_U) for the inverse-point pipeline."""
    return params.backend.hash_to_scalar(XCQ11_H1, identity)


def public_key_hash(params: SystemParams, upk: G1Point) -> Scalar:
    """H2(upk_U), the secret-value companion hash."""
    return params.backend.hash_to_scalar(XCQ11_H2, upk.to_bytes())


def identity_point(params: SystemParams, identity: bytes) -> G1Point:
    """Q_U = P0 + q_U * P."""
    return params.p0 + identity_hash(params, identity) * params.backend.P


def identity_terms(params: SystemParams, identity: bytes, k: Scalar) -> list:
    """k * Q_U as the linear-combination terms k * P0 and (k * q_U) * P, both fixed bases.

    k * q_U is left an integer for ``g1_lincomb`` to reduce mod q.
    """
    return [(k, params.p0), (k.value * identity_hash(params, identity).value, params.backend.P)]


def combined_public(params: SystemParams, identity: bytes, upk: G1Point) -> G1Point:
    """upk_U + H2(upk_U) * Q_U, the public point matching the full key S_U."""
    return upk + params.backend.g1_lincomb(identity_terms(params, identity, public_key_hash(params, upk)))


def binding_hash(params: SystemParams, identity: bytes, r_point: G1Point) -> Scalar:
    """h = H1(ID_U || R_U) for the inverse-scalar pipeline."""
    return params.backend.hash_to_scalar(XCL12_H1, encode_parts([identity, r_point.to_bytes()]))


def masked_base(params: SystemParams, identity: bytes, r_point: G1Point) -> G1Point:
    """R_U + H1(ID_U || R_U) * P0; equals s_U^-1 * P for a valid partial key."""
    return r_point + binding_hash(params, identity, r_point) * params.p0


# -- inverse-point pipeline ----------------------------------------------------


@dataclass(frozen=True)
class Xcq11PartialKey:
    s_u: G1Point


@dataclass(frozen=True)
class Xcq11UserKeys:
    identity: bytes
    partial: Xcq11PartialKey
    secret_value: Scalar  # x_U
    upk: G1Point
    full_key: G1Point  # S_U


def xcq11_extract_partials(params: SystemParams, msk: MasterKey, identities) -> dict:
    """s_U = (x + q_U)^-1 * P for each identity, with one inversion.  Deterministic given the master key."""
    denoms = [msk.x + identity_hash(params, identity) for identity in identities]
    inverses = params.backend.inverses(denoms)
    return {identity: Xcq11PartialKey(inv * params.backend.P) for identity, inv in zip(identities, inverses)}


def xcq11_verify_partial(params: SystemParams, identity: bytes, partial: Xcq11PartialKey) -> bool:
    """Check e(s_U, P0 + q_U * P) == e(P, P)."""
    backend = params.backend
    return backend.pair(partial.s_u, identity_point(params, identity)) == backend.g


def xcq11_public_key(params: SystemParams, identity: bytes, x_u: Scalar) -> tuple:
    """(x_U, upk_U, shift): upk_U = x_U * Q_U and the shift x_U + H2(upk_U) that S_U inverts."""
    upk = params.backend.g1_lincomb(identity_terms(params, identity, x_u))
    return x_u, upk, x_u + public_key_hash(params, upk)


def xcq11_draw_secret(params: SystemParams, identity: bytes, rng) -> tuple:
    """``xcq11_public_key`` of a drawn x_U, drawn again while the shift is zero.

    So the combined public point upk_U + H2(upk_U) * Q_U is never the identity.
    """
    while True:
        secret = xcq11_public_key(params, identity, params.backend.random_scalar(rng))
        if not secret[2].is_zero():
            return secret


def xcq11_full_keys(params: SystemParams, partials: dict, secrets: dict) -> dict:
    """S_U = (x_U + H2(upk_U))^-1 * s_U for each identity's nonzero ``xcq11_public_key``, with one inversion."""
    inverses = params.backend.inverses([shift for _, _, shift in secrets.values()])
    return {
        identity: Xcq11UserKeys(identity, partials[identity], x_u, upk, inv * partials[identity].s_u)
        for (identity, (x_u, upk, _)), inv in zip(secrets.items(), inverses)
    }


# -- inverse-scalar pipeline ------------------------------------------------------


@dataclass(frozen=True)
class Xcl12PartialKey:
    s_u: Scalar
    r_u: G1Point


@dataclass(frozen=True)
class Xcl12UserKeys:
    identity: bytes
    partial: Xcl12PartialKey
    secret_value: Scalar  # x_U
    upk: G1Point


def xcl12_draw_partial(params: SystemParams, msk: MasterKey, identity: bytes, rng) -> tuple:
    """Pick r_U and publish R_U = r_U * P; draw again if r_U or r_U + h*x is zero.  (R_U, r_U + h*x)."""
    while True:
        r = params.backend.random_scalar(rng)
        r_point = r * params.backend.P
        denom = r + binding_hash(params, identity, r_point) * msk.x
        if not (r.is_zero() or denom.is_zero()):
            return r_point, denom


def xcl12_verify_partial(params: SystemParams, identity: bytes, partial: Xcl12PartialKey) -> bool:
    """Check s_U * (R_U + H1(ID_U || R_U) * P0) == P, for s_U != 0.

    On the curve this is R_U + H1(ID_U || R_U) * P0 == s_U^-1 * P, whose
    two sides walk P0's and P's combs.
    """
    s, masked = partial.s_u, masked_base(params, identity, partial.r_u)
    return not s.is_zero() and params.backend.g1_scales_to(s, masked, params.backend.P)


def make_user(family: str, params: SystemParams, msk: MasterKey, rngs: Mapping) -> dict:
    """Run one pipeline for every user of a world, identity -> rng; check each partial key on receipt.

    Each user makes all its draws, resamples included, before the next user
    starts, as a run of the pipeline per user would; only the inversions
    wait.  So a world makes one per pass: the KGC's denominators, then, for
    xcq11, the users' shifts.
    """
    backend = params.backend
    if family == "xcq11":
        partials = xcq11_extract_partials(params, msk, list(rngs))
        secrets = {identity: xcq11_draw_secret(params, identity, rng) for identity, rng in rngs.items()}
        users, verify = xcq11_full_keys(params, partials, secrets), xcq11_verify_partial
    elif family == "xcl12":
        # r_U before x_U, user by user
        draws = {i: (*xcl12_draw_partial(params, msk, i, rng), backend.random_scalar(rng)) for i, rng in rngs.items()}
        inverses = backend.inverses([denom for _, denom, _ in draws.values()])
        users = {
            identity: Xcl12UserKeys(identity, Xcl12PartialKey(inv, r_point), x_u, x_u * backend.P)
            for (identity, (r_point, _, x_u)), inv in zip(draws.items(), inverses)
        }
        verify = xcl12_verify_partial
    else:
        raise ScenarioError(f"unknown key pipeline {family!r}")
    if not all(verify(params, identity, user.partial) for identity, user in users.items()):
        raise DegenerateScalarError("freshly extracted partial key failed verification")
    return users


# -- key material import/export ------------------------------------------------


def _user_record(family: str, user) -> dict:
    rec = {
        "id": user.identity.decode("utf-8"),
        "x": user.secret_value.to_bytes().hex(),
        "upk": user.upk.to_bytes().hex(),
    }
    if family == "xcq11":
        rec["partial"] = user.partial.s_u.to_bytes().hex()
        rec["full"] = user.full_key.to_bytes().hex()
    else:
        rec["partial_s"] = user.partial.s_u.to_bytes().hex()
        rec["partial_r"] = user.partial.r_u.to_bytes().hex()
    return rec


def keyring_to_json(family: str, params: SystemParams, msk: MasterKey, users) -> dict:
    """Serialize KGC and user key material as a JSON-ready record."""
    backend = params.backend
    return {
        "schema": KEYRING_SCHEMA,
        "protocol": family,
        "backend": backend.backend_id,
        "profile": backend.profile,
        "key_bits": params.key_bits,
        "params": {"p0": params.p0.to_bytes().hex()},
        "kgc": {"x": msk.x.to_bytes().hex()},
        "users": [_user_record(family, user) for user in users],
    }


def keyring_header(record) -> tuple[str, tuple[str, ...], int]:
    """The profile, user identities and key length a keyring record names.

    Checks the record's shape only, so a scenario can be configured from a
    key file before its key material is decoded.
    """
    if not isinstance(record, Mapping):
        raise EncodingError("malformed keyring record: not a JSON object")
    users = record.get("users")
    if not isinstance(users, list) or not all(isinstance(u, Mapping) and valid_identity(u.get("id")) for u in users):
        raise EncodingError("keyring users must be a list of objects with UTF-8 string ids")
    profile = record.get("profile")
    if profile not in PROFILE_NAMES:
        raise EncodingError(f"unknown keyring profile {profile!r}")
    key_bits = record.get("key_bits")
    if not valid_key_bits(key_bits):
        raise EncodingError(f"keyring key_bits must be {KEY_BITS_RULE}, not {key_bits!r}")
    return profile, tuple(u["id"] for u in users), key_bits


def keyring_from_json(record: Mapping, header: tuple) -> tuple[str, SystemParams, MasterKey, dict]:
    """Rebuild key material from a keyring record whose ``keyring_header`` is ``header``.

    The KGC key x and each user's secret value regenerate every other field,
    except an inverse-scalar user's s_U, which is kept: R_U is rebuilt as
    r*P from the r = s_U^-1 - h*x that s_U stands for.  Inversions are made
    in the same passes as in ``make_user``.  The record is accepted only if
    it is exactly what ``keyring_to_json`` writes for the regenerated keys.
    """
    profile, _, key_bits = header
    try:
        fam = record["protocol"]
        backend = get_backend(profile)
        x = backend.scalar_from_bytes(bytes.fromhex(record["kgc"]["x"]))
        params, msk = master_params(backend, x, key_bits), MasterKey(x)
        records = {rec["id"].encode("utf-8"): rec for rec in record["users"]}
        secrets = {identity: backend.scalar_from_bytes(bytes.fromhex(rec["x"])) for identity, rec in records.items()}
        # a user whose shift or r is zero is left out, so the record is refused
        if fam == "xcq11":
            partials = xcq11_extract_partials(params, msk, list(records))
            secrets = {identity: xcq11_public_key(params, identity, x_u) for identity, x_u in secrets.items()}
            users = xcq11_full_keys(params, partials, {i: v for i, v in secrets.items() if not v[2].is_zero()})
        elif fam == "xcl12":
            s_us = [backend.scalar_from_bytes(bytes.fromhex(rec["partial_s"])) for rec in records.values()]
            r_points = [backend.g1_from_bytes(bytes.fromhex(rec["partial_r"])) for rec in records.values()]
            # r = s_U^-1 - h*x; r*P gives back the stored R_U only if R_U was r*P,
            # and keygen never issues r = 0, whose R_U = O would fit as well
            inverses = backend.inverses(s_us)
            rs = [inv - binding_hash(params, i, r_point) * x for i, r_point, inv in zip(records, r_points, inverses)]
            users = {
                identity: Xcl12UserKeys(identity, Xcl12PartialKey(s_u, r * backend.P), x_u, x_u * backend.P)
                for (identity, x_u), s_u, r in zip(secrets.items(), s_us, rs)
                if not r.is_zero()
            }
        else:
            raise EncodingError(f"unknown keyring protocol {fam!r}")
        if keyring_to_json(fam, params, msk, users.values()) != record:
            raise EncodingError("keyring record is not the one its secret keys regenerate")
        return fam, params, msk, users
    except DegenerateScalarError as exc:
        raise EncodingError(f"keyring record holds a degenerate key: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise EncodingError(f"malformed keyring record: {exc}") from exc
