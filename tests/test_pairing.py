"""Backend algebra: group laws, bilinearity, hashing, serialization."""

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clakalab.errors import (
    BackendMismatchError,
    ClakaError,
    DegenerateScalarError,
    EncodingError,
)
from clakalab.keyinfra import setup
from clakalab.pairing import (
    _COFACTOR_160,
    _COMB_TEETH,
    _GENERATOR_SEARCH,
    _Q_160,
    FixedBase,
    FixedG2,
    G1Point,
    G2Elem,
    OpCounter,
    SupersingularBackend,
    _naf,
    encode_parts,
    get_backend,
    metered,
)

BACKENDS = ("t1009", "t256", "c160")


def backends():
    return [get_backend(name) for name in BACKENDS]


# -- G1/scalar basics -----------------------------------------------------------


def test_identity_is_neutral():
    for b in backends():
        u = b.scalar(7) * b.P
        assert u + b.g1_identity() == u
        assert b.g1_identity() + u == u


def test_group_order_annihilates():
    for b in backends():
        assert (b.scalar(b.q) * b.P).is_identity()
        assert (0 * b.P).is_identity()


def test_small_prime_log_example(t1009):
    # 3P + 5P has discrete log 8
    point = t1009.scalar(3) * t1009.P + t1009.scalar(5) * t1009.P
    assert t1009.dlog_g1(point) == 8
    # and 2*(8P) + 1010*(3P) has discrete log 16 + 3030 mod 1009 = 19
    assert t1009.dlog_g1(t1009.g1_lincomb([(2, point), (1010, t1009.scalar(3) * t1009.P)])) == 19
    with pytest.raises(ClakaError, match="one or more terms"):
        t1009.g1_lincomb([])


def test_scalar_field_ops(t1009):
    q = t1009.q
    a, b = t1009.scalar(400), t1009.scalar(700)
    assert (a + b).value == (400 + 700) % q
    assert (a - b).value == (400 - 700) % q
    assert (a * b).value == (400 * 700) % q
    assert (a.inverse() * a).value == 1
    with pytest.raises(DegenerateScalarError):
        t1009.scalar(0).inverse()


def test_backend_mismatch_rejected(t1009, t256):
    with pytest.raises(BackendMismatchError):
        t1009.P + t256.P
    with pytest.raises(BackendMismatchError):
        t1009.scalar(3) + t256.scalar(3)
    with pytest.raises(BackendMismatchError):
        t256.scalar(3) * t1009.P
    with pytest.raises(BackendMismatchError):
        t1009.pair(t1009.P, t256.P)
    with pytest.raises(BackendMismatchError):
        t1009.g1_lincomb([(1, t1009.P), (1, t256.P)])
    with pytest.raises(BackendMismatchError):
        t1009.g1_lincomb([(t256.scalar(3), t1009.P)])
    with pytest.raises(BackendMismatchError):
        t1009.g ** t256.scalar(3)
    with pytest.raises(BackendMismatchError):
        t1009.scalar(3) * t256.scalar(3)
    with pytest.raises(BackendMismatchError):
        t1009.scalar(3) - t256.scalar(3)
    assert (t1009.scalar(3) == t256.scalar(3)) is False


# -- pairing -----------------------------------------------------------------


def test_pairing_log_example(t1009):
    # a=7, b=11: the pairing exponent is 77
    z = t1009.pair(t1009.scalar(7) * t1009.P, t1009.scalar(11) * t1009.P)
    assert t1009.dlog_g2(z) == 77


def test_pairing_identity_arg():
    for b in backends():
        assert b.pair(b.g1_identity(), b.P).is_identity()
        assert b.pair(b.P, b.g1_identity()).is_identity()


def test_pairing_nondegenerate():
    for b in backends():
        assert not b.g.is_identity()


@pytest.mark.parametrize("profile", BACKENDS)
def test_bilinearity_and_symmetry(profile):
    b = get_backend(profile)
    rng = random.Random(f"bilinearity/{profile}")
    trials = 1000
    for _ in range(trials):
        x = b.random_scalar(rng)
        y = b.random_scalar(rng)
        u = x * b.P
        v = y * b.P
        lhs = b.pair(u, v)
        assert lhs == b.g ** (x * y)
        assert lhs == b.pair(v, u)


def test_transparent_crypto_agreement(t1009, c160):
    # identities that hold in discrete logs on the transparent backend hold
    # for the same scalar choices on the cryptographic one
    rng = random.Random(7)
    for _ in range(25):
        a = rng.randrange(1, t1009.q)
        b = rng.randrange(1, t1009.q)
        c = rng.randrange(1, t1009.q)
        for backend in (t1009, c160):
            pa, pb, pc = (backend.scalar(v) * backend.P for v in (a, b, c))
            assert backend.pair(pa + pc, pb) == backend.g ** ((a + c) * b)
            assert (backend.scalar(a) * (backend.scalar(b) * backend.P)) == backend.scalar(a * b) * backend.P
            assert backend.pair(pa, pb) ** c == backend.pair(pa, pc) ** b


def test_g2_group_ops():
    for b in backends():
        z = b.pair(b.scalar(3) * b.P, b.scalar(4) * b.P)
        w = b.pair(b.scalar(5) * b.P, b.P)
        assert z * w == b.g ** 17
        assert z ** b.scalar(2) == b.g ** 24
        assert (b.g ** b.q).is_identity()


def test_metered_counts_inside_its_own_block_only():
    b = get_backend("t1009")
    P = b.P
    outer, inner = OpCounter(), OpCounter()
    P + P
    with metered(outer):
        P + P
        with metered(inner):
            P - P
            -P  # negation, G2 multiplication and hashing are not counted
            b.g * b.g
            b.hash_to_scalar(b"H", b"x")
            b.pair(3 * P, P) ** 2
        P * 5
        with metered(None):
            P + P
        with pytest.raises(BackendMismatchError), metered(inner):
            P + get_backend("t256").P
        b.pair(P, P)
    b.pair(P, P) ** 3
    assert outer.as_dict() == {"point_adds": 1, "scalar_muls": 1, "pairings": 1, "g2_exps": 0}
    assert inner.as_dict() == {"point_adds": 1, "scalar_muls": 1, "pairings": 1, "g2_exps": 1}


# -- hash_to_scalar ------------------------------------------------------------


def test_hash_to_scalar_deterministic_and_nonzero():
    for b in backends():
        s1 = b.hash_to_scalar(b"H1", b"input")
        s2 = b.hash_to_scalar(b"H1", b"input")
        assert s1 == s2
        assert 1 <= s1.value < b.q
        assert 1 <= b.hash_to_scalar(b"H1", b"").value < b.q


def test_hash_to_scalar_regression_vectors(t1009, t256):
    # frozen on first run; domain tags give independent functions
    assert t1009.hash_to_scalar(b"H1", b"regression-input").value == 892
    assert t1009.hash_to_scalar(b"H2", b"regression-input").value == 151
    assert t1009.hash_to_scalar(b"H1", b"").value == 522
    assert (
        t256.hash_to_scalar(b"H1", b"regression-input").value
        == 109137600301674182756247687531060393964779138368007927180981020211459698283965
    )
    assert (
        t256.hash_to_scalar(b"H2", b"regression-input").value
        == 82765596016749509902336968139480053898225230270752885070741225670631631368305
    )


# -- KDF ---------------------------------------------------------------------


def test_kdf_deterministic_and_length(t256):
    parts = [b"id-a", b"id-b", bytes(32)]
    k1 = t256.kdf(b"TAG", parts)
    assert k1 == t256.kdf(b"TAG", parts)
    assert len(k1) == 32
    assert len(t256.kdf(b"TAG", parts, out_bits=128)) == 16


def test_kdf_part_sensitivity(t256, rng):
    base_parts = [bytes([rng.randrange(256) for _ in range(16)]) for _ in range(5)]
    base = t256.kdf(b"TAG", base_parts)
    for _ in range(100):
        parts = [bytes(p) for p in base_parts]
        i = rng.randrange(len(parts))
        flipped = bytearray(parts[i])
        flipped[rng.randrange(16)] ^= 1 << rng.randrange(8)
        parts[i] = bytes(flipped)
        assert t256.kdf(b"TAG", parts) != base


def test_kdf_concatenation_unambiguous(t256):
    assert t256.kdf(b"TAG", [b"ab", b"c"]) != t256.kdf(b"TAG", [b"a", b"bc"])
    assert encode_parts([b"ab", b"c"]) != encode_parts([b"a", b"bc"])


def test_kdf_tag_separation(t256):
    assert t256.kdf(b"TAG1", [b"x"]) != t256.kdf(b"TAG2", [b"x"])


# -- serialization ---------------------------------------------------------------


def test_g1_round_trip_and_canonical():
    for b in backends():
        rng = random.Random(b.profile)
        for _ in range(20):
            u = b.random_scalar(rng) * b.P
            raw = u.to_bytes()
            assert b.g1_from_bytes(raw) == u
            assert b.g1_from_bytes(raw).to_bytes() == raw
        ident = b.g1_identity()
        assert b.g1_from_bytes(ident.to_bytes()) == ident


def test_g2_round_trip():
    for b in backends():
        rng = random.Random(b.profile)
        for _ in range(10):
            z = b.g ** b.random_scalar(rng)
            assert b.g2_from_bytes(z.to_bytes()) == z


def test_scalar_round_trip(t256):
    s = t256.scalar(12345)
    assert t256.scalar_from_bytes(s.to_bytes()) == s
    assert len(s.to_bytes()) == t256.scalar_width


def test_truncated_encodings_rejected():
    for b in backends():
        u = (b.scalar(5) * b.P).to_bytes()
        z = (b.g ** 3).to_bytes()
        with pytest.raises(EncodingError):
            b.g1_from_bytes(u[:-1])
        with pytest.raises(EncodingError):
            b.g2_from_bytes(z[:-1])
        with pytest.raises(EncodingError):
            b.scalar_from_bytes(b"\x00")


def test_out_of_range_encodings_rejected(t1009):
    too_big = (t1009.q + 1).to_bytes(t1009.scalar_width, "big")
    with pytest.raises(EncodingError):
        t1009.g1_from_bytes(too_big)
    with pytest.raises(EncodingError):
        t1009.scalar_from_bytes(too_big)


def test_crypto_invalid_points_rejected(c160):
    valid = (c160.scalar(9) * c160.P).to_bytes()
    # off-curve: corrupt the y coordinate
    corrupted = bytearray(valid)
    corrupted[-1] ^= 1
    with pytest.raises(EncodingError):
        c160.g1_from_bytes(bytes(corrupted))
    # wrong tag byte
    with pytest.raises(EncodingError):
        c160.g1_from_bytes(b"\x07" + valid[1:])
    # non-unitary G2 encoding
    with pytest.raises(EncodingError):
        c160.g2_from_bytes(b"\x00" * (2 * c160.point_width))


def test_crypto_subgroup_check(c160):
    # a curve point outside the order-q subgroup decodes only without strict
    p = c160.p
    x = 0
    while True:
        x += 1
        t = (x * x * x + x) % p
        if t and pow(t, (p - 1) // 2, p) == 1:
            pt = (x, pow(t, (p + 1) // 4, p))
            if c160._ec_mul(c160.q, pt) is not None:
                break
    w = c160.point_width
    raw = b"\x04" + pt[0].to_bytes(w, "big") + pt[1].to_bytes(w, "big")
    assert c160.g1_from_bytes(raw) is not None
    with pytest.raises(EncodingError):
        c160.g1_from_bytes(raw, strict=True)


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_crypto_decodes_name_each_rejected_form(profile):
    b = get_backend(profile)
    w, p = b.point_width, b.p
    p_y = b.P.to_bytes()[1 + w :]
    cases = [
        (b.g1_from_bytes, bytes(2 * w) + b"\x01", "identity encoding must be all zero"),
        (b.g1_from_bytes, b"\x04" + p.to_bytes(w, "big") + p_y, "G1 coordinate out of range"),
        (b.g2_from_bytes, p.to_bytes(w, "big") + bytes(w), "G2 coefficient out of range"),
        # -1 = (p-1, 0) is unitary, but of order 2
        (b.g2_from_bytes, (p - 1).to_bytes(w, "big") + bytes(w), "G2 element is not in the order-q subgroup"),
    ]
    for decode, raw, message in cases:
        with pytest.raises(EncodingError, match=message):
            decode(raw)


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_crypto_g1_decode_rejects_a_wrong_length(profile):
    b = get_backend(profile)
    w = b.point_width
    raw = b.P.to_bytes()
    # a zero byte put before y would decode to P again without the length check
    for bad in (raw[: 1 + w] + b"\x00" + raw[1 + w :], raw[:-1], raw + b"\x00"):
        with pytest.raises(EncodingError, match="G1 encoding must be"):
            b.g1_from_bytes(bad)


# -- curve arithmetic on the crypto profiles --------------------------------------

# encodings on the crypto profiles: P, g, k*P (k = -1 is q - 1) and
# pair(a*P, b*P); frozen before the curve code moved to Jacobian coordinates
KNOWN_ANSWERS = {
    "c160": {
        "P": "040e79662e692d489de53d262e125071cea7c7cd388b409eed2788ff96fee70de7224770c0e992e76b4687",
        "g": "424ac8c21382f6854e565647a8c33e0d7dd0fb3dac227a5cd1de003b580aeca637ecc819c784a0776dd6",
        "mul": {
            2: "043181ad31b6a5d0af7891bce4d1ec97c998633a76315ca43afa72f56d22e78beac42d791de17af929bb6d",
            0xC1A4A: "0432b4c5747cf00184dba316a814dbb3feb0bc3dc79207f4dab3e68c2a3901a7eef87c44200834271b717e",
            -1: "040e79662e692d489de53d262e125071cea7c7cd388b2b6112d87700690118f218ddb88f3f16d91894e990",
        },
        "pair": {
            (3, 5): "42b9659d860ecc1de8a99fc08a7b4988ff0b38ca245286e130dd8afb908d5383228df4afbf7d024888c1",
            (0xDEADBEEF, 0xC0FFEE): "42dbf1cd15e0ba22f53cf9e0205074c02760d1bf401cf6eaccad45a68c29891bde7f198a4194b6e62233",
        },
    },
    "c256": {
        "P": "0400ab402204f1e2bba0304eb8c001f6f3fd4fe65d7902ae6643bb07c0b06138e8e4c2008898585b9882ca9764ae7327a7cb829ba4bf58edda6a611765f927ab5ab700aca1",
        "g": "013f70b7fbbc80ff2513f8f1a1c15b34188f8af5b8f8e7bbabbf020907f3f143c0c3005f3e9997323b636cea1cff4b6db04fab14642af185dac374725ec8a2dae1092574",
        "mul": {
            2: "04027987544a64b65b473edeb2578bde2ab8ac2f93aa8be6c1a0f2346edf36b5cfeb6e02e99f10e4a64f3b73763b90b804645290024ac28cabdfd9789d60d2d58f16863433",
            0xC1A4A: "0402ae79aa0086fdf8a3f4756b19e76084199d37d8c98cd11d2556f77c93be3c6a1d78026d6d58516b62919d888a4303460c97011614844dc60abfcf1495f97366b66bd2fc",
            -1: "0400ab402204f1e2bba0304eb8c001f6f3fd4fe65d7902ae6643bb07c0b06138e8e4c2029767a7a4677d35689b518cd858347d6062a31963095893a351783fccaff28b3e7e",
        },
        "pair": {
            (3, 5): "017c283c427464b60e135c691ccca47c1e7e487fff5f13c59350bb47792fc15f7d1201b1a4df1754f09c8312536a57d2b7a6dd9b8eda74cf61bfffcfb7a5080814cd578c",
            (0xDEADBEEF, 0xC0FFEE): "00dbf18f0e2e7ee1803fbb355f4389d7de4cc4c18e1942b51b37c7ecd0cdd19b504202a7748d0afb6b31f450d9f45ee456405d6ed995acf8e2628f7237ad7a990b17b90e",
        },
    },
}


@pytest.mark.parametrize("profile", sorted(KNOWN_ANSWERS))
def test_crypto_known_answers(profile):
    b = get_backend(profile)
    expected = KNOWN_ANSWERS[profile]
    assert b.P.to_bytes().hex() == expected["P"]
    assert b.g.to_bytes().hex() == expected["g"]
    for k, encoding in expected["mul"].items():
        assert (b.scalar(k) * b.P).to_bytes().hex() == encoding
    for (x, y), encoding in expected["pair"].items():
        assert b.pair(b.scalar(x) * b.P, b.scalar(y) * b.P).to_bytes().hex() == encoding


def _affine_mul(b, k, a):
    # reference: right-to-left double-and-add on the affine group law
    result = None
    while k:
        if k & 1:
            result = b._ec_add(result, a)
        a = b._ec_add(a, a)
        k >>= 1
    return result


def _off_subgroup_points(b, count):
    # curve points of smallest x outside the order-q subgroup
    p = b.p
    found = []
    x = 0
    while len(found) < count:
        x += 1
        t = (x * x * x + x) % p
        if t and pow(t, (p - 1) // 2, p) == 1:
            pt = (x, pow(t, (p + 1) // 4, p))
            if _affine_mul(b, b.q, pt) is not None:
                found.append(pt)
    return found


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_ec_mul_matches_affine_reference(profile):
    b = get_backend(profile)
    rng = random.Random(f"ec-mul/{profile}")
    q, h = b.q, b.cofactor
    edges = [0, 1, 2, q - 1, q, q + 1, q + 2]
    base = b.P.data
    for k in edges + [rng.randrange(q) for _ in range(20)]:
        assert b._ec_mul(k, base) == _affine_mul(b, k, base), k
    # (0, 0) has order 2; the others leave the subgroup with various orders
    for pt in [(0, 0)] + _off_subgroup_points(b, 4):
        for k in edges + [h, q * h, h + 1, rng.randrange(q * h)]:
            assert b._ec_mul(k, pt) == _affine_mul(b, k, pt), (pt, k)
    assert b._ec_mul(q, None) is None
    # k*P walks the comb: every single bit, columns with no tooth or every
    # tooth set, and scalars past q, which are reduced
    columns = -(-q.bit_length() // _COMB_TEETH)
    width = _COMB_TEETH * columns
    full_column = sum(1 << (i * columns) for i in range(_COMB_TEETH))
    comb_cases = [1 << j for j in range(width)] + [q + (1 << j) for j in range(0, width, columns + 1)]
    comb_cases += [full_column << c for c in range(columns)] + [(1 << (width - 1)) - 1, (1 << width) - 1, q * h]
    for k in comb_cases:
        assert b._ec_mul(k, base) == _affine_mul(b, k, base), k
    decoded = b.g1_from_bytes(b.P.to_bytes()).data
    assert decoded == base and decoded is not base
    for k in [q - 1, full_column, rng.randrange(q)]:
        assert b._ec_mul(k, decoded) == _affine_mul(b, k, base), k
    # the width-4 walk: bases whose multiples 3a, 5a or 7a are O or +-a, and
    # scalars with runs of ones, single bits or every digit +-1 ... +-7
    every_digit = sum(d << (5 * i) for i, d in enumerate((1, -1, 3, -3, 5, -5, 7, -7, 1)))
    assert set(_naf(every_digit, 4)) == {0, 1, -1, 3, -3, 5, -5, 7, -7}
    for order in SMALL_ORDERS[profile]:
        pt = _point_of_order(b, order)
        for k, expected in _walk_cases(b, pt) + [(every_digit, _affine_mul(b, every_digit % order, pt))]:
            assert b._ec_mul(k, pt) == expected, (order, k)
    twice = b._ec_add(base, base)  # order q, but not P, so not the comb
    for k, expected in _walk_cases(b, twice) + [(every_digit, _affine_mul(b, every_digit, twice))]:
        assert b._ec_mul(k, twice) == expected, k


#: orders of the small-order bases of the width-4 walk, whose multiples
#: 3a, 5a or 7a are O or +-a (order 3: 3a = O, 5a = -a, 7a = a; order 4:
#: 3a = -a, 5a = a, 7a = -a); the cofactor is 2^3 * 3^3 on c160 and
#: 2^5 * 5^2 on c256
SMALL_ORDERS = {"c160": (3, 9, 27, 4, 8), "c256": (5, 25)}


def _point_of_order(b, order):
    # a point of exact prime-power order: the smallest-x curve point times
    # #E / order, if (order / prime) times it is not yet O
    prime = next(f for f in range(2, order + 1) if order % f == 0)
    p = b.p
    x = 0
    while True:
        x += 1
        t = (x * x * x + x) % p
        if t and pow(t, (p - 1) // 2, p) == 1:
            pt = _affine_mul(b, b.cofactor * b.q // order, (x, pow(t, (p + 1) // 4, p)))
            if pt is not None and _affine_mul(b, order // prime, pt) is not None:
                assert _affine_mul(b, order, pt) is None
                return pt


def _walk_cases(b, a):
    # (k, k*a) for k = 1 ... 32 and k = 2^j +- 1 up to q's bit length, by
    # affine additions
    cases, multiple = [], None
    for k in range(1, 33):
        multiple = b._ec_add(multiple, a)
        cases.append((k, multiple))
    power = a  # 2^j * a
    for j in range(1, b.q.bit_length() + 1):
        power = b._ec_add(power, power)
        cases += [((1 << j) - 1, b._ec_add(power, b._ec_neg(a))), ((1 << j) + 1, b._ec_add(power, a))]
    return cases


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_comb_table_matches_affine_sums(profile):
    # the table is built in Jacobian form with one batched inversion
    b = get_backend(profile)
    d, table = b._comb_table()
    assert d == -(-b.q.bit_length() // _COMB_TEETH)
    rows = [b.P.data]
    for _ in range(_COMB_TEETH - 1):
        t = rows[-1]
        for _ in range(d):
            t = b._ec_add(t, t)
        rows.append(t)
    expected = [None]
    for j in range(1, 1 << _COMB_TEETH):
        low = j & -j
        expected.append(b._ec_add(expected[j ^ low], rows[low.bit_length() - 1]))
    assert table == expected


def test_signed_digit_chains_are_short():
    # step counts, not clocks: after its starting point, the c256 Miller
    # chain for q makes 256 doublings and 42 additions, where binary digits
    # need 255 and 191
    b = get_backend("c256")
    a = b.P.data
    steps = b._naf_steps(b._q_naf, (a,))
    assert steps[0] == a
    assert steps[1:].count(None) == 256 and len(steps) - 1 - 256 == 42
    assert b.q.bit_length() - 1 == 255 and bin(b.q).count("1") - 1 == 191
    # a random 256-bit k walks its width-4 NAF with about bits/5 additions,
    # where its binary digits need about bits/2: here 51 against 141
    k = random.Random("naf-steps").getrandbits(256) | 1 << 255
    odd = [(b.scalar(m) * b.P).data for m in (1, 3, 5, 7)]
    steps = b._naf_steps(_naf(k, 4), odd)
    additions = len(steps) - 1 - steps.count(None)
    assert (additions, bin(k).count("1") - 1) == (51, 141)


def test_generator_search_is_bounded():
    # a Miller walk that never ends at O, as a broken group law would give,
    # makes the backend's construction fail within the bound, not hang
    walked = []

    class NeverInTheSubgroup(SupersingularBackend):
        def _q_walk(self, a, at=None):
            walked.append(a)
            return (1, 1, 1), None

    with pytest.raises(ClakaError, match="no point of order q"):
        NeverInTheSubgroup(_Q_160, _COFACTOR_160, "c160")
    assert 0 < len(walked) <= _GENERATOR_SEARCH


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_crypto_pair_rejects_points_outside_the_subgroup(profile):
    # the Miller loop computes q*U, so pair checks its first argument
    b = get_backend(profile)
    for data in [(0, 0)] + _off_subgroup_points(b, 4):
        point = G1Point(b, data)
        with pytest.raises(ClakaError, match="order-q subgroup"):
            b.pair(point, b.P)
    assert b.pair(b.P, b.P) == b.g


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_strict_decode_rejects_every_point_outside_the_subgroup(profile):
    b = get_backend(profile)
    outside = [(0, 0)] + _off_subgroup_points(b, 4) + [_point_of_order(b, o) for o in SMALL_ORDERS[profile]]
    for data in outside:
        with pytest.raises(EncodingError, match="order-q subgroup"):
            b.g1_from_bytes(G1Point(b, data).to_bytes(), strict=True)
    k = random.Random(f"strict/{profile}").randrange(1, b.q)
    for point in (b.P, b.scalar(2) * b.P, b.scalar(k) * b.P):
        assert b.g1_from_bytes(point.to_bytes(), strict=True) == point


# -- a reference model of the curve core ------------------------------------------


def _f2_model_mul(p, u, v):
    return ((u[0] * v[0] - u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)


def _model_pair(b, u, v):
    # reference reduced Tate pairing e(U, psi(V)), psi(V) = (-xv, i*yv):
    # Miller's loop over the bits of q on the affine group law, each line
    # divided by the vertical line through the point it leads to, then the
    # final exponentiation (p^2 - 1)/q
    p = b.p
    if u is None or v is None:
        return (1, 0)
    xe, ye = -v[0] % p, v[1]

    def step(f, t, a):
        # f times the line through t and a over the vertical at t + a
        (x1, y1), (x2, y2) = t, a
        if x1 == x2 and (y1 + y2) % p == 0:  # a vertical line, and t + a = O
            return _f2_model_mul(p, f, ((xe - x1) % p, 0)), None
        if t == a:
            lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        vertical_inv = pow(xe - x3, -1, p)
        line = ((-y1 - lam * (xe - x1)) * vertical_inv % p, ye * vertical_inv % p)
        return _f2_model_mul(p, f, line), (x3, (lam * (x1 - x3) - y1) % p)

    f, t = (1, 0), u
    for bit in bin(b.q)[3:]:
        f, t = step(_f2_model_mul(p, f, f), t, t)
        if bit == "1":
            f, t = step(f, t, u)
    assert t is None  # U has order q
    result, e = (1, 0), (p * p - 1) // b.q
    while e:
        if e & 1:
            result = _f2_model_mul(p, result, f)
        f = _f2_model_mul(p, f, f)
        e >>= 1
    return result


@functools.lru_cache(maxsize=None)
def _group_generator(profile):
    # E(F_p) is cyclic of order h*q: its one point of order 2 is (0, 0), as
    # x^2 + 1 has no root when p = 3 mod 4.  So a point generates it when
    # (h*q / l) times the point is not O for any prime l dividing h*q
    b = get_backend(profile)
    n = b.cofactor * b.q
    primes = [l for l in (2, 3, 5) if b.cofactor % l == 0] + [b.q]
    p = b.p
    x = 0
    while True:
        x += 1
        t = (x * x * x + x) % p
        if t and pow(t, (p - 1) // 2, p) == 1:
            pt = (x, pow(t, (p + 1) // 4, p))
            if all(_affine_mul(b, n // l, pt) is not None for l in primes):
                return pt


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(profile=st.sampled_from(("c160", "c256")), data=st.data())
def test_curve_core_matches_the_affine_model(profile, data):
    # a base of any order dividing h*q, or P itself, and a scalar at the
    # edges of q, a multiple of the base's order or a random one; then a
    # second such pair, or one whose base is O, the first base or its
    # negative, for a two-term linear combination
    b = get_backend(profile)
    q, n = b.q, b.cofactor * b.q

    def draw_base():
        if data.draw(st.booleans(), label="base is P"):
            return b.P.data, q
        divisor = data.draw(st.sampled_from([d for d in range(1, b.cofactor + 1) if b.cofactor % d == 0]))
        divisor *= data.draw(st.sampled_from((1, q)), label="q divides the order")
        unit = data.draw(st.integers(1, 2**64), label="multiplier")
        return _affine_mul(b, n // divisor * unit % n, _group_generator(profile)), divisor // math.gcd(unit, divisor)

    def draw_scalar(order):
        return data.draw(
            st.one_of(
                st.sampled_from((0, q - 1, q, q + 1)),
                st.integers(1, 64).map(lambda m: m * order),
                st.integers(1, 2 * n),
            ),
            label="k",
        )

    base, order = draw_base()
    k = draw_scalar(order)
    expected = _affine_mul(b, k, base)
    assert b._ec_mul(k, base) == expected
    point = G1Point(b, base)
    if q % order:
        with pytest.raises(EncodingError, match="order-q subgroup"):
            b.g1_from_bytes(point.to_bytes(), strict=True)
        with pytest.raises(ClakaError, match="order-q subgroup"):
            b.pair(point, b.P)
    else:
        assert b.g1_from_bytes(point.to_bytes(), strict=True) == point
        v = expected or b.P.data
        assert b.pair(point, G1Point(b, v)).data == _model_pair(b, base, v)

    second = data.draw(st.sampled_from(("drawn", "O", "equal", "opposite")), label="second base")
    if second == "drawn":
        base2, order2 = draw_base()
    else:
        base2, order2 = {"O": (None, 1), "equal": (base, order), "opposite": (b._ec_neg(base), order)}[second]
    k2 = draw_scalar(order2)
    assert b._ec_lincomb([(k, base), (k2, base2)]) == b._ec_add(expected, _affine_mul(b, k2, base2))
    # the public operation reduces its scalars mod q and meters n scalar
    # multiplications and n - 1 additions
    counter = OpCounter()
    with metered(counter):
        combination = b.g1_lincomb([(k, point), (b.scalar(k2), G1Point(b, base2))])
    assert combination.data == b._ec_add(_affine_mul(b, k % q, base), _affine_mul(b, k2 % q, base2))
    assert counter.as_dict() == {"point_adds": 1, "scalar_muls": 2, "pairings": 0, "g2_exps": 0}


def _f2_model_pow(p, u, k):
    # reference: right-to-left square-and-multiply on the unreduced k
    result = (1, 0)
    while k:
        if k & 1:
            result = _f2_model_mul(p, result, u)
        u = _f2_model_mul(p, u, u)
        k >>= 1
    return result


#: width-4 NAF digits with every odd digit from -7 to 7, three zeros apart
_ALL_DIGITS = [d for digit in (7, -5, 3, -1, 1, -3, 5, -7) for d in (digit, 0, 0, 0)][:-3]
_ALL_DIGITS_K = functools.reduce(lambda acc, d: 2 * acc + d, _ALL_DIGITS, 0)


@functools.lru_cache(maxsize=None)
def _g2_bases(profile):
    # g with its comb, a pairing value and g0 = e(P, P0), all of order q
    b = get_backend(profile)
    params, _ = setup(b, random.Random(f"g2-bases/{profile}"))
    return {"g": b.g, "pairing value": b.pair(b.scalar(3) * b.P, b.scalar(5) * b.P), "g0": params.g0}


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(profile=st.sampled_from(("c160", "c256")), data=st.data())
def test_g2_powers_match_square_and_multiply(profile, data):
    # g walks its comb and every other element its signed digits, with
    # conjugates for the negative ones; both must be exact for any k
    b = get_backend(profile)
    q = b.q
    assert _naf(_ALL_DIGITS_K, 4) == _ALL_DIGITS and {abs(d) for d in _ALL_DIGITS} == {0, 1, 3, 5, 7}
    name = data.draw(st.sampled_from(sorted(_g2_bases(profile))), label="base")
    base = _g2_bases(profile)[name]
    k = data.draw(
        st.one_of(
            st.sampled_from((0, 1, q - 1, q, q + 1, _ALL_DIGITS_K)),
            st.tuples(st.integers(1, q.bit_length()), st.sampled_from((-1, 1))).map(lambda t: (1 << t[0]) + t[1]),
            st.integers(0, q - 1),
        ),
        label="k",
    )
    counter = OpCounter()
    with metered(counter):
        power = base**k
    assert power.data == _f2_model_pow(b.p, base.data, k)
    assert counter == OpCounter(g2_exps=1)
    assert type(power) is G2Elem and isinstance(b.g, FixedG2)


def test_g_comb_is_built_once_per_backend(monkeypatch):
    builds = []
    build = SupersingularBackend._f2_comb_table

    def counted(backend, u, teeth):
        builds.append((backend, u, teeth))
        return build(backend, u, teeth)

    monkeypatch.setattr(SupersingularBackend, "_f2_comb_table", counted)
    b = SupersingularBackend(_Q_160, _COFACTOR_160, "c160")
    # neither the backend nor a plain element builds a table
    assert builds == [] and isinstance(b.g, FixedG2) and b.g.comb is None
    plain = G2Elem(b, b.g.data)
    assert plain**5 == b.g**5 and b.fixed_base(b.g, _COMB_TEETH) is b.g
    rng = random.Random(2)
    for _ in range(3):
        setup(b, rng)
        b.g ** b.random_scalar(rng)
    assert builds == [(b, b.g.data, _COMB_TEETH)]
    assert b.g.comb[0] == -(-b.q.bit_length() // _COMB_TEETH) and len(b.g.comb[1]) == 1 << _COMB_TEETH
    # the transparent g stays a plain element
    assert type(get_backend("t256").g) is G2Elem


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_g2_decode_rejects_a_norm_other_than_one(profile, monkeypatch):
    # 2*g has norm 4, so its conjugate is not its inverse and the signed
    # walk would be inexact on it: the norm check rejects it before any walk
    b = get_backend(profile)
    w, p = b.point_width, b.p
    c0, c1 = b.g.data

    def no_walk(u, e):
        raise AssertionError("an element of norm other than 1 reached the walk")

    monkeypatch.setattr(b, "_f2_pow", no_walk)
    for z in ((2 * c0 % p, 2 * c1 % p), (2, 0), (0, 3)):
        assert (z[0] * z[0] + z[1] * z[1]) % p != 1
        with pytest.raises(EncodingError, match="order-q subgroup"):
            b.g2_from_bytes(z[0].to_bytes(w, "big") + z[1].to_bytes(w, "big"))


@pytest.mark.parametrize("profile", ("c160", "c256"))
def test_fixed_base_combinations_match_the_affine_model(profile):
    # a 6-teeth KGC key P0 = x*P and the 8-teeth P walk their combs inside
    # g1_lincomb, beside a variable base's NAF chain and the identity
    b = get_backend(profile)
    q = b.q
    rng = random.Random(f"fixed-base/{profile}")
    x = rng.randrange(2, q)
    p0 = b.fixed_base(b.scalar(x) * b.P, 6)
    assert isinstance(p0, FixedBase) and b.fixed_base(p0, 6) is p0 and isinstance(b.P, FixedBase)
    variable = G1Point(b, _affine_mul(b, rng.randrange(2, q), b.P.data))
    identity = b.g1_identity()
    assert b.fixed_base(identity, 6) is identity
    model = {id(p0): _affine_mul(b, x, b.P.data), id(b.P): b.P.data, id(variable): variable.data, id(identity): None}

    def check(terms):
        expected = None
        for k, point in terms:
            expected = b._ec_add(expected, _affine_mul(b, k % q, model[id(point)]))
        assert b.g1_lincomb(terms).data == expected, [(k, type(point).__name__) for k, point in terms]

    # scalars below 2^d leave every comb row but the lowest zero
    below = {}
    for teeth in (6, 8):
        d = -(-q.bit_length() // teeth)
        below[teeth] = [1, (1 << d) - 1, rng.randrange(2, 1 << d)]
    scalars = [1, q - 1, rng.randrange(2, q)]
    for k in scalars + below[6]:
        check([(k, p0)])
        for k2 in scalars + below[8]:
            check([(k, p0), (k2, b.P)])
            check([(k2, variable), (k, p0), (k2, b.P)])
        check([(k, p0), (k, variable), (k, identity)])
        check([(k, identity), (k, p0)])
    # k*P0 + (-k*x)*P is O, alone and beside other terms
    for k in scalars:
        assert b.g1_lincomb([(k, p0), (-k * x, b.P)]).is_identity()
        check([(k, p0), (-k * x, b.P), (k, variable)])
    assert b.g1_lincomb([(q, p0), (0, b.P), (1, identity)]).is_identity()
    assert p0.comb[0] == -(-q.bit_length() // 6) and len(p0.comb[1]) == 1 << 6


def test_equal_points_encode_identically(t256):
    a = t256.scalar(3) * t256.P + t256.scalar(4) * t256.P
    b = t256.scalar(7) * t256.P
    assert a == b
    assert a.to_bytes() == b.to_bytes()


def test_dlog_only_on_transparent(c160):
    from clakalab.errors import ClakaError

    with pytest.raises(ClakaError):
        c160.dlog_g1(c160.P)
    with pytest.raises(ClakaError):
        c160.dlog_g2(c160.g)
    assert not c160.supports_dlog


def test_c256_profile_sound():
    b = get_backend("c256")
    rng = random.Random(256)
    x, y = b.random_scalar(rng), b.random_scalar(rng)
    assert b.pair(x * b.P, y * b.P) == b.g ** (x * y)
    assert not b.g.is_identity()
