"""Key pipelines: extraction, verification, user keys, import/export."""

import dataclasses
import json
import random

import pytest

from clakalab import harness, keyinfra, pairing
from clakalab.errors import DegenerateScalarError, EncodingError
from clakalab.keyinfra import (
    Xcl12PartialKey,
    Xcq11PartialKey,
    combined_public,
    identity_hash,
    identity_point,
    keyring_from_json,
    keyring_header,
    keyring_to_json,
    masked_base,
    public_key_hash,
    setup,
    xcl12_verify_partial,
    xcq11_extract_partials,
    xcq11_verify_partial,
)
from clakalab.pairing import FixedBase, G1Point, OpCounter, SupersingularBackend, get_backend, metered
from clakalab.session import family


def make_params(backend, seed=11):
    return setup(backend, random.Random(seed))


# -- setup -----------------------------------------------------------------


def test_setup_deterministic_under_seed(t1009):
    p1, m1 = setup(t1009, random.Random(5))
    p2, m2 = setup(t1009, random.Random(5))
    assert m1.x == m2.x
    assert p1.p0 == p2.p0


def test_setup_publishes_master_point(t1009):
    params, msk = make_params(t1009)
    assert params.p0 == msk.x * t1009.P


def test_setup_seeds_differ(t256):
    _, m1 = setup(t256, random.Random(1))
    _, m2 = setup(t256, random.Random(2))
    assert m1.x != m2.x


@pytest.mark.parametrize("protocol", ["xcq11", "xcq11i", "xcl12", "xcl12i"])
def test_p0_comb_is_built_once_per_world(protocol, monkeypatch):
    builds = []
    build = SupersingularBackend._comb_table

    def counted(backend, a=None, teeth=8):
        builds.append((a, teeth))
        return build(backend, a, teeth)

    monkeypatch.setattr(SupersingularBackend, "_comb_table", counted)
    world = harness.materialize(harness.ScenarioConfig(protocol=protocol, profile="c160", seed=3))
    run = harness._drive_session(world)
    params = world.params
    assert run.keys and all(k is not None for k in run.keys.values())
    assert isinstance(params.p0, FixedBase) and params.p0.comb is not None
    assert builds.count((params.p0.data, keyinfra.P0_TEETH)) == 1
    # the table stays with the parameters' P0, which equals a plain x*P
    assert dataclasses.replace(params, key_bits=128).p0 is params.p0
    plain = world.msk.x * world.backend.P
    assert type(plain) is G1Point and plain == params.p0 and params.p0 == plain
    assert params == keyinfra.SystemParams(world.backend, plain, params.key_bits)
    assert builds.count((params.p0.data, keyinfra.P0_TEETH)) == 1


def test_transparent_p0_stays_a_plain_point(t256):
    params, msk = make_params(t256)
    assert type(params.p0) is G1Point and params.p0 == msk.x * t256.P


# -- inverse-point pipeline ---------------------------------------------------


def test_xcq11_partial_verifies(t1009, t256, c160):
    for backend in (t1009, t256, c160):
        params, msk = make_params(backend)
        partial = xcq11_extract_partials(params, msk, [b"alice"])[b"alice"]
        assert xcq11_verify_partial(params, b"alice", partial)


def test_xcq11_partial_log_oracle(t1009):
    params, msk = make_params(t1009)
    partial = xcq11_extract_partials(params, msk, [b"alice"])[b"alice"]
    q_u = identity_hash(params, b"alice")
    expected = pow((msk.x.value + q_u.value) % t1009.q, -1, t1009.q)
    assert t1009.dlog_g1(partial.s_u) == expected


def test_xcq11_extraction_deterministic(t256):
    params, msk = make_params(t256)
    assert xcq11_extract_partials(params, msk, [b"bob"]) == xcq11_extract_partials(params, msk, [b"bob"])


def test_xcq11_forged_partials_rejected(t256, rng):
    params, msk = make_params(t256)
    for _ in range(100):
        fake = Xcq11PartialKey(t256.random_scalar(rng) * t256.P)
        assert not xcq11_verify_partial(params, b"alice", fake)


def test_xcq11_identity_point_partial_rejected(t256):
    params, _ = make_params(t256)
    assert not xcq11_verify_partial(params, b"alice", Xcq11PartialKey(t256.g1_identity()))


def test_xcq11_degenerate_identity_reported(t1009):
    # on the small prime an identity whose hash lands on -x is findable
    params, msk = make_params(t1009)
    target = (-msk.x.value) % t1009.q
    identity = next(
        f"u{i}".encode() for i in range(20000) if identity_hash(params, f"u{i}".encode()).value == target
    )
    with pytest.raises(DegenerateScalarError):
        xcq11_extract_partials(params, msk, [identity])


@pytest.mark.parametrize("profile", ["t1009", "c160"])
def test_xcq11_master_key_on_the_negated_identity_hash_reported(profile):
    # x = -H1(ID) set directly, on a curve too, where no search can find it
    backend = get_backend(profile)
    params, _ = make_params(backend)
    msk = keyinfra.MasterKey(backend.scalar(-identity_hash(params, b"alice").value))
    with pytest.raises(DegenerateScalarError):
        xcq11_extract_partials(params, msk, [b"alice"])


def test_xcq11_user_keys(t1009, rng):
    params, msk = make_params(t1009)
    user = keyinfra.make_user("xcq11", params, msk, {b"alice": rng})[b"alice"]
    # full key pairs to the group generator against the combined public point
    combined = combined_public(params, b"alice", user.upk)
    assert t1009.pair(user.full_key, combined) == t1009.g
    assert not combined.is_identity()
    # transparent oracle: log(S_U) = ((x_U + H2(upk))(x + q_U))^-1
    q = t1009.q
    shift = (user.secret_value.value + public_key_hash(params, user.upk).value) % q
    denom = (msk.x.value + identity_hash(params, b"alice").value) % q
    assert t1009.dlog_g1(user.full_key) == pow(shift * denom % q, -1, q)
    assert user.upk == user.secret_value * identity_point(params, b"alice")


def test_xcq11_user_keygen_reproducible(t256):
    params, msk = make_params(t256)
    u1 = keyinfra.make_user("xcq11", params, msk, {b"alice": random.Random(3)})
    u2 = keyinfra.make_user("xcq11", params, msk, {b"alice": random.Random(3)})
    assert u1 == u2


# -- inverse-scalar pipeline ----------------------------------------------------


def test_xcl12_partial_verifies(t1009, t256, c160, rng):
    for backend in (t1009, t256, c160):
        params, msk = make_params(backend)
        partial = keyinfra.make_user("xcl12", params, msk, {b"bob": rng})[b"bob"].partial
        assert xcl12_verify_partial(params, b"bob", partial)


def test_xcl12_partial_is_inverse(t1009, rng):
    params, msk = make_params(t1009)
    partial = keyinfra.make_user("xcl12", params, msk, {b"bob": rng})[b"bob"].partial
    q = t1009.q
    r = t1009.dlog_g1(partial.r_u)
    h = keyinfra.binding_hash(params, b"bob", partial.r_u).value
    assert partial.s_u.value * (r + h * msk.x.value) % q == 1
    # the masked base point is exactly s_U^-1 * P
    assert masked_base(params, b"bob", partial.r_u) == partial.s_u.inverse() * t1009.P


def test_xcl12_tampered_partial_rejected(t256, rng):
    params, msk = make_params(t256)
    for _ in range(100):
        partial = keyinfra.make_user("xcl12", params, msk, {b"bob": rng})[b"bob"].partial
        tampered = Xcl12PartialKey(partial.s_u, partial.r_u + t256.P)
        assert not xcl12_verify_partial(params, b"bob", tampered)


def test_xcl12_random_forgeries_rejected(t256, rng):
    params, _ = make_params(t256)
    for _ in range(100):
        fake = Xcl12PartialKey(t256.random_scalar(rng), t256.random_scalar(rng) * t256.P)
        assert not xcl12_verify_partial(params, b"carol", fake)


@pytest.mark.parametrize("profile", ["t256", "c160"])
def test_xcl12_zero_partial_scalar_fails_without_raising(profile):
    # the check compares the masked base with s_U^-1 * P, and 0 has no inverse
    backend = get_backend(profile)
    params, msk = make_params(backend)
    partial = keyinfra.make_user("xcl12", params, msk, {b"bob": random.Random(4)})[b"bob"].partial
    assert not xcl12_verify_partial(params, b"bob", Xcl12PartialKey(backend.scalar(0), partial.r_u))


def test_xcl12_user_keys(t256, rng):
    params, msk = make_params(t256)
    user = keyinfra.make_user("xcl12", params, msk, {b"carol": rng})[b"carol"]
    assert user.upk == user.secret_value * t256.P


# -- keyring import/export --------------------------------------------------------


@pytest.mark.parametrize("fam", ["xcq11", "xcl12"])
def test_keyring_round_trip(fam, t256):
    params, msk = make_params(t256)
    rng = random.Random(99)
    users = list(keyinfra.make_user(fam, params, msk, dict.fromkeys((b"alice", b"bob", b"carol"), rng)).values())
    record = keyring_to_json(fam, params, msk, users)
    # survives a JSON round trip byte-for-byte
    record = json.loads(json.dumps(record))
    fam2, params2, msk2, users2 = keyring_from_json(record, keyring_header(record))
    assert fam2 == fam
    assert params2.p0 == params.p0
    assert msk2.x == msk.x
    for user in users:
        loaded = users2[user.identity]
        assert loaded == user
        if fam == "xcq11":
            assert xcq11_verify_partial(params2, user.identity, loaded.partial)
        else:
            assert xcl12_verify_partial(params2, user.identity, loaded.partial)


@pytest.mark.parametrize("profile", ["t256", "c160"])
@pytest.mark.parametrize("fam", ["xcq11", "xcl12"])
def test_g0_is_the_pairing_of_p_and_p0(profile, fam):
    backend = get_backend(profile)
    params, msk = make_params(backend)
    users = list(keyinfra.make_user(fam, params, msk, {i: random.Random(6) for i in (b"alice", b"bob")}).values())
    record = json.loads(json.dumps(keyring_to_json(fam, params, msk, users)))
    loaded = keyring_from_json(record, keyring_header(record))[1]
    for p in (params, loaded):
        assert p.g0 == backend.pair(backend.P, p.p0)


@pytest.mark.parametrize("fam, muls, adds", [("xcq11", 13, 3), ("xcl12", 7, 0)])
def test_keyring_load_takes_no_pairing_and_no_strict_decode(c160, monkeypatch, fam, muls, adds):
    params, msk = make_params(c160)
    rng = random.Random(3)
    users = list(keyinfra.make_user(fam, params, msk, dict.fromkeys((b"alice", b"bob", b"carol"), rng)).values())
    record = json.loads(json.dumps(keyring_to_json(fam, params, msk, users)))
    strict_flags = []
    decode = SupersingularBackend.g1_from_bytes

    def recording(backend, raw, strict=False):
        strict_flags.append(strict)
        return decode(backend, raw, strict)

    monkeypatch.setattr(SupersingularBackend, "g1_from_bytes", recording)
    counter = OpCounter()
    with metered(counter):
        keyring_from_json(record, keyring_header(record))
    # x*P and g0 = g**x, then per user: xcq11 rebuilds s_U, Q_U (one addition), upk_U and S_U; xcl12 rebuilds R_U and upk_U
    assert counter == OpCounter(point_adds=adds, scalar_muls=muls, pairings=0, g2_exps=1)
    # only xcl12 decodes a stored point, R_U, and not strictly: r*P must give it back
    assert strict_flags == ([False] * 3 if fam == "xcl12" else [])


def test_keyring_rejects_garbage():
    for record in ({"schema": "bogus"}, {"schema": keyinfra.KEYRING_SCHEMA, "protocol": "xcq11"}):
        with pytest.raises(EncodingError):
            keyring_from_json(record, keyring_header(record))


def test_keyring_rejects_invalid_partial(t256):
    params, msk = make_params(t256)
    rng = random.Random(1)
    users = list(keyinfra.make_user("xcq11", params, msk, dict.fromkeys((b"alice", b"bob", b"carol"), rng)).values())
    record = keyring_to_json("xcq11", params, msk, users)
    record["users"][0]["partial"] = (t256.scalar(5) * t256.P).to_bytes().hex()
    with pytest.raises(EncodingError):
        keyring_from_json(record, keyring_header(record))


def test_keyring_rejects_xcl12_partial_key_with_zero_r(t256):
    # R_U = O and s_U = (H1(ID_U || O) * x)^-1 verify, but keygen draws r from [1, q-1]
    params, msk = make_params(t256)
    rng = random.Random(1)
    users = list(keyinfra.make_user("xcl12", params, msk, dict.fromkeys((b"alice", b"bob", b"carol"), rng)).values())
    record = keyring_to_json("xcl12", params, msk, users)
    origin = t256.g1_identity()
    partial = Xcl12PartialKey((keyinfra.binding_hash(params, b"alice", origin) * msk.x).inverse(), origin)
    assert xcl12_verify_partial(params, b"alice", partial)
    record["users"][0].update(partial_s=partial.s_u.to_bytes().hex(), partial_r=partial.r_u.to_bytes().hex())
    with pytest.raises(EncodingError):
        keyring_from_json(record, keyring_header(record))


# -- one inversion per pass ----------------------------------------------------------


def _count_inversions(monkeypatch):
    """Exponents of every ``pow`` call made in ``clakalab.pairing`` from now on."""
    exponents = []

    def counting(base, exp, mod=None):
        exponents.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(pairing, "pow", counting, raising=False)
    return exponents


@pytest.mark.parametrize("protocol, inversions", [("xcq11", 2), ("xcq11i", 2), ("xcl12", 1), ("xcl12i", 1)])
def test_a_t256_world_and_its_keyring_load_make_one_inversion_per_pass(monkeypatch, protocol, inversions):
    # xcq11: the KGC's three denominators x + q_U, then the three shifts x_U + H2(upk_U);
    # xcl12: the three denominators r_U + h*x, and on load the three stored s_U
    exponents = _count_inversions(monkeypatch)
    world = harness.materialize(harness.ScenarioConfig(protocol=protocol, profile="t256", seed=5))
    assert exponents.count(-1) == inversions
    record = json.loads(json.dumps(keyring_to_json(family(protocol), world.params, world.msk, world.users.values())))
    exponents.clear()
    _, _, _, users = keyring_from_json(record, keyring_header(record))
    assert exponents.count(-1) == inversions
    assert users == world.users


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


IDS = (b"alice", b"bob", b"carol")

#: t1009 worlds built on one rng shared by setup and every user, as
#: tests/test_xcq11.py and tests/test_xcl12.py build theirs, in which one
#: user draws again (an xcq11 shift or an xcl12 denominator came out zero):
#: the KGC key and each user's keyring record, taken from the pipeline run
#: user by user, before any inversion was deferred
RESAMPLED_WORLDS = {
    ("xcq11", 136): (
        "024e",
        [
            ("alice", "01b8", "0317", "0167", "0232"),
            ("bob", "021d", "01c4", "01f3", "0095"),
            ("carol", "01bc", "00fd", "0250", "0303"),
        ],
    ),
    ("xcq11", 237): (
        "027e",
        [
            ("alice", "01fb", "021f", "0076", "0112"),
            ("bob", "039f", "02f5", "02a9", "01af"),
            ("carol", "03e2", "0104", "0123", "000f"),
        ],
    ),
    ("xcl12", 97): (
        "00c8",
        [
            ("alice", "033a", "033a", "0127", "01b8"),
            ("bob", "03ab", "03ab", "0224", "017d"),
            ("carol", "0330", "0330", "026b", "0345"),
        ],
    ),
    ("xcl12", 224): (
        "0042",
        [
            ("alice", "01dc", "01dc", "026b", "00c3"),
            ("bob", "0225", "0225", "0023", "004f"),
            ("carol", "00e9", "00e9", "0172", "03e3"),
        ],
    ),
}


@pytest.mark.parametrize("fam, seed", sorted(RESAMPLED_WORLDS))
def test_a_world_on_one_rng_is_the_user_by_user_world(t1009, fam, seed):
    rng = _CountingRandom(seed)
    params, msk = setup(t1009, rng)
    users = keyinfra.make_user(fam, params, msk, dict.fromkeys(IDS, rng))
    # one draw for x, then one per user (xcq11) or two (xcl12), and one more
    assert rng.draws == 1 + len(IDS) * (1 if fam == "xcq11" else 2) + 1
    record = keyring_to_json(fam, params, msk, users.values())
    kgc, pinned = RESAMPLED_WORLDS[fam, seed]
    assert record["kgc"]["x"] == kgc
    assert [tuple(rec.values()) for rec in record["users"]] == pinned
    # the same world made one user at a time
    rng = random.Random(seed)
    params, msk = setup(t1009, rng)
    for identity in IDS:
        assert keyinfra.make_user(fam, params, msk, {identity: rng}) == {identity: users[identity]}
