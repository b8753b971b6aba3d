"""Symmetric bilinear pairing with a transparent and a cryptographic backend.

Everything in this package is written against an abstract symmetric pairing
e: G1 x G1 -> G2 over groups of prime order q, with G1 additive (generated
by P) and G2 multiplicative (generated by g = e(P, P)).  Two interchangeable
backends provide it:

* ``TransparentBackend`` represents a G1 element by its discrete logarithm
  and a G2 element by its exponent relative to g; the pairing is residue
  multiplication mod q.  Every element's discrete log is exposed, so any
  protocol equation can be checked exactly by residue arithmetic.  This is
  a test and oracle device, not a cryptographic group.

* ``SupersingularBackend`` uses the curve y^2 = x^3 + x over F_p with
  p = h*q - 1 prime and p = 3 (mod 4).  The curve is supersingular with
  #E(F_p) = p + 1, embedding degree 2, and carries the distortion map
  psi(x, y) = (-x, i*y) into E(F_p^2).  e(U, V) is the reduced Tate pairing
  of U with psi(V).  Since psi is a group homomorphism, psi(V) has the same
  discrete log as V, which makes the abstract pairing symmetric and
  bilinear exactly as the protocols assume.

Hashing to scalars and the session KDF also live here because both are
defined in terms of the group order and the canonical encodings.  Every
multi-part hash input is length-prefixed (4-byte big-endian length before
each part) so that part boundaries are unambiguous.

None of this is constant-time and the parameter sizes are laboratory
choices; the point is exact, reproducible protocol algebra.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import struct
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

from .errors import (
    BackendMismatchError,
    ClakaError,
    DegenerateScalarError,
    EncodingError,
)

DEFAULT_KEY_BITS = 256
#: longest session key a scenario or key file may ask for, since the KDF
#: allocates the whole key at once
MAX_KEY_BITS = 4096
KEY_BITS_RULE = f"a positive multiple of 8, at most {MAX_KEY_BITS}"


def valid_key_bits(value) -> bool:
    """Whether ``value`` is an integer (never a bool) that is ``KEY_BITS_RULE``."""
    return type(value) is int and 0 < value <= MAX_KEY_BITS and value % 8 == 0


# Small prime for eyeball-checkable transparent runs.
_Q_SMALL = 1009

# Group order of the secp256k1 curve: a well-known 256-bit prime, shared by
# the 256-bit transparent and cryptographic profiles.
_Q_256 = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141

# 160-bit subgroup order for the default cryptographic profile.  The
# cofactors below were chosen so that p = h*q - 1 is prime with p = 3 mod 4,
# which makes y^2 = x^3 + x over F_p supersingular with #E(F_p) = h*q.
_Q_160 = 0x8000000000000000000000000000000080000039
_COFACTOR_160 = 216
_COFACTOR_256 = 800

#: teeth of the combs for multiples of the generator P and powers of g:
#: 2^teeth - 1 table entries each
_COMB_TEETH = 8
#: x-coordinates the generator search tries; about half give no curve
#: point, so a sound curve runs out of them with chance about 2^-256
_GENERATOR_SEARCH = 256

_H2S_PREFIX = b"CLAKA/H2S"
_KDF_PREFIX = b"CLAKA/KDF"


def encode_parts(parts: Iterable[bytes]) -> bytes:
    """Join byte strings with a 4-byte big-endian length before each part."""
    out = bytearray()
    for part in parts:
        out += struct.pack(">I", len(part))
        out += part
    return bytes(out)


def _scalar_value(owner, k) -> Optional[int]:
    """``k`` as an integer mod q of ``owner``'s backend, or None if it is neither a Scalar nor an int.

    ``owner`` is the Scalar or group element ``k`` is combined with; a Scalar
    of another backend raises.
    """
    if isinstance(k, Scalar):
        if k.backend is not owner.backend:
            raise BackendMismatchError(f"scalar and {type(owner).__name__} belong to different backends")
        return k.value
    if isinstance(k, int):
        return k % owner.backend.q
    return None


def _inverses_mod(values: list[int], m: int) -> list[int]:
    """The inverses mod m of nonzero ``values`` with one ``pow``: Montgomery's trick (Math. Comp. 48, 1987).

    The product of all values is inverted once, and each inverse is peeled
    off it from the last value back, using the prefix products.
    """
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % m)
    inv, out = pow(prefix[-1], -1, m), []
    for v, before in zip(reversed(values), reversed(prefix[:-1])):
        out.append(inv * before % m)
        inv = inv * v % m
    out.reverse()
    return out


def _naf(k: int, w: int) -> list[int]:
    """The width-``w`` non-adjacent form of ``k`` > 0, top digit first.

    Each digit is 0 or odd with absolute value below 2^(w-1), at most one
    of any w adjacent digits is nonzero, and the top digit is positive.
    """
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k & ((1 << w) - 1)
            if d >> (w - 1):
                d -= 1 << w
            k -= d
        digits.append(d)
        k >>= 1
    digits.reverse()
    return digits


class Scalar:
    """Residue mod the group order q, tied to the backend that created it."""

    __slots__ = ("backend", "value")

    def __init__(self, backend: "PairingBackend", value: int):
        self.backend = backend
        self.value = value % backend.q

    def __add__(self, other):
        v = _scalar_value(self, other)
        if v is None:
            return NotImplemented
        return Scalar(self.backend, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = _scalar_value(self, other)
        if v is None:
            return NotImplemented
        return Scalar(self.backend, self.value - v)

    def __mul__(self, other):
        v = _scalar_value(self, other)
        if v is None:
            return NotImplemented
        return Scalar(self.backend, self.value * v)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.backend is other.backend and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.backend.q
        return NotImplemented

    def __hash__(self):
        return hash((id(self.backend), self.value))

    def __repr__(self):
        return f"Scalar({self.value})"

    def is_zero(self) -> bool:
        return self.value == 0

    def inverse(self) -> "Scalar":
        return self.backend.inverses([self])[0]

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.backend.scalar_width, "big")


@dataclass
class OpCounter:
    """Group-operation counts taken by ``metered``."""

    point_adds: int = 0
    scalar_muls: int = 0
    pairings: int = 0
    g2_exps: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def delta(self, other: "OpCounter") -> dict:
        return {k: other.as_dict()[k] - v for k, v in self.as_dict().items()}


#: the counter of the innermost open ``metered`` block; outside every
#: block, a discarding counter that nothing reads
_meter = OpCounter()


@contextlib.contextmanager
def metered(counter: Optional[OpCounter]):
    """Count the group operations run inside the block into ``counter``.

    Counted are G1 additions and subtractions, G1 scalar multiplications and
    G2 exponentiations, at the element operators and ``g1_lincomb``, and
    each ``pair`` call.  A nested block counts toward its own counter only
    (``None``: a fresh discarding one); the outer one resumes when it exits.
    """
    global _meter
    outer, _meter = _meter, OpCounter() if counter is None else counter
    try:
        yield
    finally:
        _meter = outer


class _Element:
    """Group element: the backend it belongs to and its data in that backend."""

    __slots__ = ("backend", "data")

    def __init__(self, backend: "PairingBackend", data):
        self.backend = backend
        self.data = data

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.backend is other.backend and self.data == other.data
        return NotImplemented

    def __hash__(self):
        return hash((id(self.backend), self.data))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_bytes().hex()[:16]}...)"


class G1Point(_Element):
    """Element of the additive source group G1."""

    __slots__ = ()

    def _peer(self, other) -> "G1Point":
        if not isinstance(other, G1Point):
            raise BackendMismatchError(f"cannot combine G1 point with {type(other).__name__}")
        if other.backend is not self.backend:
            raise BackendMismatchError("G1 points belong to different backends")
        return other

    def __add__(self, other):
        other = self._peer(other)
        _meter.point_adds += 1
        return G1Point(self.backend, self.backend._g1_add(self.data, other.data))

    def __sub__(self, other):
        other = self._peer(other)
        _meter.point_adds += 1
        return G1Point(self.backend, self.backend._g1_add(self.data, self.backend._g1_neg(other.data)))

    def __neg__(self):
        return G1Point(self.backend, self.backend._g1_neg(self.data))

    def _scale(self, k) -> "G1Point":
        k = _scalar_value(self, k)
        if k is None:
            return NotImplemented
        _meter.scalar_muls += 1
        return G1Point(self.backend, self.backend._g1_mul(k, self))

    __mul__ = _scale
    __rmul__ = _scale

    def is_identity(self) -> bool:
        return self.data == self.backend.g1_identity().data

    def to_bytes(self) -> bytes:
        return self.backend.g1_to_bytes(self)


class FixedBase(G1Point):
    """A G1 point of order q multiplied by a comb of ``teeth`` rows, made by ``backend.fixed_base``.

    ``comb`` is (columns, table), built by its first multiplication.
    """

    __slots__ = ("teeth", "comb")

    def __init__(self, backend: "PairingBackend", data, teeth: int):
        _Element.__init__(self, backend, data)
        self.teeth = teeth
        self.comb = None


class G2Elem(_Element):
    """Element of the multiplicative target group G2."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, G2Elem):
            return NotImplemented
        if other.backend is not self.backend:
            raise BackendMismatchError("G2 elements belong to different backends")
        return G2Elem(self.backend, self.backend._g2_mul(self.data, other.data))

    def __pow__(self, k):
        k = _scalar_value(self, k)
        if k is None:
            return NotImplemented
        _meter.g2_exps += 1
        return G2Elem(self.backend, self.backend._g2_pow(k, self))

    def is_identity(self) -> bool:
        return self.data == self.backend.g2_identity().data

    def to_bytes(self) -> bytes:
        return self.backend.g2_to_bytes(self)


class FixedG2(G2Elem):
    """A G2 element of order q raised by a comb of ``teeth`` rows, made by ``backend.fixed_base``.

    ``comb`` is (columns, table), built by its first power.
    """

    __slots__ = ("teeth", "comb")
    __init__ = FixedBase.__init__


class PairingBackend:
    """Common interface of both pairing backends.

    Concrete attributes set by subclasses: ``q`` (group order), ``P``
    (generator of G1), ``g`` (= e(P, P), generator of G2), ``backend_id``,
    ``profile``, ``supports_dlog``; the group API ``g1_identity``,
    ``g2_identity``, ``pair``, ``g1_to_bytes``, ``g1_from_bytes``,
    ``g2_to_bytes``, ``g2_from_bytes``; and the group law that the element
    operators and ``g1_lincomb`` call: ``_g1_add``, ``_g1_neg`` and
    ``_g2_mul`` on element data, ``_g1_mul(k, point)``, ``_g2_pow(k, elem)``
    and ``_g1_lincomb`` on (k, point) terms, so that a fixed base can bring
    its comb.
    """

    backend_id = "abstract"
    supports_dlog = False

    def __init__(self, q: int, profile: str):
        self.q = q
        self.profile = profile
        self.scalar_width = (q.bit_length() + 7) // 8

    # -- scalars ----------------------------------------------------------

    def scalar(self, value: int) -> Scalar:
        return Scalar(self, value)

    def random_scalar(self, rng) -> Scalar:
        return Scalar(self, rng.randrange(1, self.q))

    def inverses(self, scalars) -> list[Scalar]:
        """The inverses of ``scalars``, with one inversion mod q for the whole list."""
        if any(k.backend is not self for k in scalars):
            raise BackendMismatchError("scalars to invert belong to a different backend")
        if any(k.value == 0 for k in scalars):
            raise DegenerateScalarError("scalar 0 has no inverse")
        return [Scalar(self, v) for v in _inverses_mod([k.value for k in scalars], self.q)]

    def scalar_from_bytes(self, raw: bytes) -> Scalar:
        return Scalar(self, self._residue(raw, "scalar"))

    def _residue(self, raw: bytes, what: str) -> int:
        """Decode a fixed-width big-endian residue mod q; ``what`` names it in errors."""
        if len(raw) != self.scalar_width:
            raise EncodingError(f"{what} encoding must be {self.scalar_width} bytes")
        value = int.from_bytes(raw, "big")
        if value >= self.q:
            raise EncodingError(f"{what} encoding out of range")
        return value

    # -- hashing ------------------------------------------------------------

    @functools.lru_cache(maxsize=256)
    def hash_to_scalar(self, tag: bytes, data: bytes) -> Scalar:
        """Hash arbitrary bytes into Z_q^* (never zero).

        The digest is reduced mod q-1 and shifted by one, so the output is
        uniform enough for protocol work over [1, q-1]; the small bias is
        irrelevant here.  Distinct tags give independent functions.
        Memoized per backend, tag and data: a world hashes each identity and
        public key in keygen and again in every session.
        """
        width = self.scalar_width + 16
        digest = hashlib.shake_256(_H2S_PREFIX + encode_parts([tag, data])).digest(width)
        return Scalar(self, int.from_bytes(digest, "big") % (self.q - 1) + 1)

    def kdf(self, tag: bytes, parts: Iterable[bytes], out_bits: int = DEFAULT_KEY_BITS) -> bytes:
        """Derive ``out_bits`` of key material from an ordered part list."""
        if out_bits % 8:
            raise ClakaError("KDF output length must be a whole number of bytes")
        material = _KDF_PREFIX + encode_parts([tag, *parts])
        return hashlib.shake_256(material).digest(out_bits // 8)

    def dlog_g1(self, u: G1Point) -> int:
        raise ClakaError("discrete logs are exposed by the transparent backend only")

    def dlog_g2(self, z: G2Elem) -> int:
        raise ClakaError("discrete logs are exposed by the transparent backend only")

    def g1_lincomb(self, terms) -> G1Point:
        """The sum of k*A over the (scalar, G1 point) pairs ``terms``.

        Counted as one scalar multiplication per term and one addition fewer.
        """
        shape = "a linear combination needs one or more terms, each a scalar and a point"
        values = []
        for k, a in terms:
            if not isinstance(a, G1Point) or a.backend is not self:
                raise BackendMismatchError("linear combination points must be G1 points of this backend")
            k = _scalar_value(a, k)
            if k is None:
                raise ClakaError(shape)
            values.append((k, a))
        if not values:
            raise ClakaError(shape)
        _meter.scalar_muls += len(values)
        _meter.point_adds += len(values) - 1
        return G1Point(self, self._g1_lincomb(values))

    def fixed_base(self, point, teeth: int):
        """``point``, of order q in G1 or G2, as a base taken by a comb of ``teeth`` rows; here, itself."""
        return point

    def g1_scales_to(self, k: Scalar, a: G1Point, b: G1Point) -> bool:
        """Whether k*a == b for a nonzero k, at the cost of one scalar multiplication."""
        return k * a == b

    def _check_pair_args(self, u: G1Point, v: G1Point) -> None:
        """Check the arguments of one ``pair`` call, then count the pairing."""
        if not (isinstance(u, G1Point) and isinstance(v, G1Point)):
            raise BackendMismatchError("pairing arguments must be G1 points")
        if u.backend is not self or v.backend is not self:
            raise BackendMismatchError("pairing arguments belong to a different backend")
        _meter.pairings += 1


class TransparentBackend(PairingBackend):
    """Discrete-log-exposed backend: G1 = (Z_q, +), G2 = (Z_q, +) as exponents.

    A G1 point stores its log relative to P; a G2 element stores its
    exponent relative to g = e(P, P).  The pairing multiplies logs mod q.
    """

    backend_id = "transparent"
    supports_dlog = True

    def __init__(self, q: int, profile: str):
        super().__init__(q, profile)
        self.P = G1Point(self, 1 % q)
        self.g = G2Elem(self, 1 % q)

    def g1_identity(self) -> G1Point:
        return G1Point(self, 0)

    def g2_identity(self) -> G2Elem:
        return G2Elem(self, 0)

    def _g1_add(self, a, b):
        return (a + b) % self.q

    def _g1_neg(self, a):
        return -a % self.q

    def _g1_mul(self, k, a):
        return k * a.data % self.q

    def _g1_lincomb(self, terms):
        total = 0
        for k, a in terms:
            total += k * a.data
        return total % self.q

    def pair(self, u, v):
        self._check_pair_args(u, v)
        return G2Elem(self, u.data * v.data % self.q)

    def g1_to_bytes(self, u):
        return u.data.to_bytes(self.scalar_width, "big")

    def g1_from_bytes(self, raw, strict=False):
        return G1Point(self, self._residue(raw, "G1"))

    def g2_from_bytes(self, raw):
        return G2Elem(self, self._residue(raw, "G2"))

    def dlog_g1(self, u):
        return u.data

    # G2 is the same residue group as G1, its elements exponents of g
    _g2_mul, _g2_pow, g2_to_bytes, dlog_g2 = _g1_add, _g1_mul, g1_to_bytes, dlog_g1


class SupersingularBackend(PairingBackend):
    """Tate pairing on the supersingular curve y^2 = x^3 + x over F_p.

    G1 points are stored as affine pairs (x, y) with ``None`` for the
    identity.  Every Jacobian doubling and addition is a step of one loop
    in Jacobian coordinates (X, Y, Z), x = X/Z^2 and y = Y/Z^3, that walks
    a sequence of steps from a start point T, by default O: a doubling, or
    a mixed addition of an affine point.  A variable base k*a and the
    Miller loop over q feed it a signed-digit chain: each digit d of a
    width-w non-adjacent form (NAF) doubles T and then adds d*a, an odd
    multiple of the base or one with y negated.  The Miller loop walks the
    width-2 NAF of q with U and -U, its digits computed once.  A linear
    combination, the sum of k*a over its terms, walks one chain per term,
    all aligned at their last digit on one run of doublings, and k*a is
    its one-term case.  A variable base's chain is the width-4 NAF of k
    with a, 3a, 5a and 7a, made per call.  A ``FixedBase`` (P with 8
    teeth, a KGC key with 6) brings a Lim-Lee comb instead: k mod q is cut
    into ``teeth`` rows, and each of the ceil(bits/teeth) columns, one bit
    (tooth) from each row, adds a point of a table of the 2^teeth - 1 sums
    of the base's row multiples, made on its first multiplication.  Odd
    multiples, comb rows and table entries are walked on the same loop
    from a Jacobian start point, each list made affine together with one
    batched inversion, and one more field inversion leaves Jacobian form
    after the walk.  G2 elements live in the order-q subgroup of
    F_p^2 = F_p[i] (i^2 = -1) and are stored as coefficient pairs (c0, c1).
    Each has norm c0^2 + c1^2 = 1, so its inverse is its conjugate
    (c0, -c1), as -a is a with y negated: a G2 power walks the same chains
    with squarings for doublings and products for additions (Scott and
    Barreto, CRYPTO 2004), the width-4 NAF with u, u^3, u^5 and u^7 or,
    for g, a comb of 8 teeth.
    The second pairing argument is passed through the distortion map
    psi(x, y) = (-x, i*y); because the x-coordinate of a distorted point
    stays in F_p, every vertical line lands in F_p^* and is erased by the
    final exponentiation (p - 1)*h, as is the F_p^* factor each line is
    scaled by to clear its Jacobian denominators.  So the denominators are
    dropped, and so are the vertical lines that a subtraction of U adds to
    the Miller function; the vertical chord of the last step (T = -U) is
    multiplied in and erased, not skipped.  The loop's group law is exact,
    so the walk over q ends at q*U, and this one walk decides subgroup
    membership for ``pair``, strict decoding and the generator search.
    """

    backend_id = "crypto"

    def __init__(self, q: int, cofactor: int, profile: str):
        super().__init__(q, profile)
        self.cofactor = cofactor
        self.p = cofactor * q - 1
        if self.p % 4 != 3:
            raise ClakaError("field prime must be 3 mod 4")
        self.point_width = (self.p.bit_length() + 7) // 8
        self._q_naf = _naf(q, 2)  # the Miller loop's digits
        self.P = self.fixed_base(G1Point(self, self._find_generator()), _COMB_TEETH)
        g = self.pair(self.P, self.P)
        if g.is_identity():
            raise ClakaError("pairing parameters are degenerate")
        self.g = self.fixed_base(g, _COMB_TEETH)

    # -- curve arithmetic ---------------------------------------------------

    def _find_generator(self):
        # deterministic: smallest x >= 1 giving a curve point that clears
        # the cofactor into a point of exact order q
        p = self.p
        for x in range(1, _GENERATOR_SEARCH + 1):
            t = (x * x * x + x) % p
            if not t or pow(t, (p - 1) // 2, p) != 1:
                continue
            candidate = self._ec_mul(self.cofactor, (x, pow(t, (p + 1) // 4, p)))
            if candidate is not None and not self._q_walk(candidate)[0][2]:
                return candidate
        raise ClakaError(f"no point of order q with x <= {_GENERATOR_SEARCH}")

    def _ec_add(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        p = self.p
        x1, y1 = a
        x2, y2 = b
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return (x3, y3)

    def _ec_neg(self, a):
        if a is None:
            return None
        return (a[0], -a[1] % self.p)

    def _ladder(self, steps, at=None, start=(1, 1, 0)):
        """Walk ``steps`` from T = ``start``: ``None`` doubles T, an affine point is added to T.

        ``start`` is a Jacobian point, by default O.  Returns T as
        (X, Y, Z), Z = 0 for the identity, and f.  Given ``at = (xe, yq)``
        the walk is Miller's algorithm, and f is the product of its lines at
        psi(V) = (xe, i*yq); otherwise f is None.
        """
        p = self.p
        X, Y, Z = start
        f = None
        if at is not None:
            xe, yq = at
            f = (1, 0)
        for b in steps:
            if b is not None:
                xa, ya = b
                if not Z:  # T = O restarts at b
                    X, Y, Z = xa, ya, 1
                    continue
                ZZ = Z * Z % p
                H = (xa * ZZ - X) % p
                r = (ya * ZZ * Z - Y) % p
                if H or r:
                    # chord through T and b, scaled by H*Z: its slope is
                    # r / (HZ).  H = 0 (T = -b) gives Z = 0 and the vertical
                    # line (-r*(xe - xa), 0) in F_p^*
                    HZ = H * Z % p
                    if f is not None:
                        f = self._f2_mul(f, (-(ya * HZ + r * (xe - xa)) % p, yq * HZ % p))
                    HH = H * H % p
                    HHH = H * HH % p
                    V = X * HH % p
                    X = (r * r - HHH - 2 * V) % p
                    Y = (r * (V - X) - Y * HHH) % p
                    Z = HZ
                    continue
                # T = b: double it (in a Miller loop, only if b has order < q)
            # tangent at T, scaled by 2Y*Z^3: its slope is M / (2YZ).  Y = 0
            # (order 2) or Z = 0 (T = O) gives Z = 0
            YY = Y * Y % p
            ZZ = Z * Z % p
            M = (3 * X * X + ZZ * ZZ) % p  # 3x^2 + a with a = 1, times Z^4
            Z3 = 2 * Y * Z % p
            if f is not None:
                line = (-(2 * YY + M * (xe * ZZ - X)) % p, yq * Z3 * ZZ % p)
                f = self._f2_mul(self._f2_sqr(f), line)
            S = 4 * X * YY % p
            X = (M * M - 2 * S) % p
            Y = (M * (S - X) - 8 * YY * YY) % p
            Z = Z3
        return (X, Y, Z), f

    def _naf_chain(self, digits, odd):
        # the addend of each digit d, top first: odd[|d| // 2] = |d|*a, with
        # y negated (in G2, conjugated) for d < 0; None for a zero digit or
        # a multiple that is O
        p = self.p
        addend = {}
        for i, m in enumerate(odd):
            if m is not None:
                addend[2 * i + 1] = m
                addend[-2 * i - 1] = (m[0], -m[1] % p)
        return [addend.get(d) for d in digits]

    def _chain_steps(self, chains):
        # the steps of chains of addends, each top first, aligned at their
        # last: each position doubles T (the top one starts it from O) and
        # then adds, chain by chain, the addends that are not None
        length = max(map(len, chains))
        steps = []
        for position in zip(*([None] * (length - len(chain)) + chain for chain in chains)):
            steps.append(None)
            for b in position:
                if b is not None:
                    steps.append(b)
        return steps[1:]  # T = O needs no first doubling

    def _naf_steps(self, digits, odd):
        return self._chain_steps([self._naf_chain(digits, odd)])

    def _q_walk(self, a, at=None):
        # the Miller loop's walk over the width-2 NAF of q: T ends at q*a,
        # which is O exactly when a is in the order-q subgroup
        return self._ladder(self._naf_steps(self._q_naf, (a,)), at)

    def _to_affine(self, points):
        # Jacobian points to affine ones (None for O), with one inversion of all nonzero Z
        p = self.p
        out = []
        for (X, Y, Z), z_inv in zip(points, _inverses_mod([Z or 1 for _, _, Z in points], p)):
            z_inv2 = z_inv * z_inv % p
            out.append((X * z_inv2 % p, Y * z_inv2 * z_inv % p) if Z else None)
        return out

    def _comb_table(self, a=None, teeth=_COMB_TEETH):
        # the comb of ``teeth`` rows for the affine base a, by default P:
        # entry j is the sum of 2^(i*d) * a over the bits i set in j.  Row
        # i + 1 is d doublings on from row i, and entry j adds its lowest
        # row to entry j - low, each walked from a Jacobian start; rows and
        # entries are each made affine together.  Entry 0 is O
        d = -(-self.q.bit_length() // teeth)
        rows = [(*(self.P.data if a is None else a), 1)]
        for _ in range(teeth - 1):
            rows.append(self._ladder([None] * d, start=rows[-1])[0])
        rows = self._to_affine(rows)
        table = [(1, 1, 0)]
        for j in range(1, 1 << teeth):
            low = j & -j
            table.append(self._ladder([rows[low.bit_length() - 1]], start=table[j ^ low])[0])
        return d, self._to_affine(table)

    def _comb_chain(self, k, base):
        # Lim-Lee comb of the fixed base, in G1 or G2, for 0 <= k < 2^(teeth*d):
        # row i holds bits i*d up to i*d + d - 1 of k, and bit c of each row
        # (row i as bit i of the index, so the top row comes first) picks
        # the table entry added after the doubling for column c, so the
        # chain sums 2^c * entry_c = k*base
        if base.comb is None:
            build = self._comb_table if isinstance(base, G1Point) else self._f2_comb_table
            base.comb = build(base.data, base.teeth)
        d, table = base.comb
        width = base.teeth * d
        bits = format(k, f"0{width}b")
        return [table[int("".join(column), 2)] for column in zip(*(bits[i : i + d] for i in range(0, width, d)))]

    def _ec_lincomb(self, terms):
        # the sum of k*a over the (k, a) terms, a an affine point, None or a
        # FixedBase.  A fixed base brings its comb chain for k mod q; one
        # inversion makes the odd multiples a, 3a, 5a, 7a of every other
        # base affine for the width-4 NAF chain of k > 0.  All chains are
        # walked at once, interleaved on one run of doublings (Moeller, SAC
        # 2001), and one more inversion leaves Jacobian form
        chains, variable = [], []
        for k, a in terms:
            if isinstance(a, FixedBase):
                if k % self.q:
                    chains.append(self._comb_chain(k % self.q, a))
            elif k and a is not None:
                variable.append((k, a))
        odd = []
        for _, a in variable:
            odd.append((*a, 1))
            for _ in range(3):  # the next odd multiple adds a twice
                odd.append(self._ladder([a, a], start=odd[-1])[0])
        odd = self._to_affine(odd)
        chains += [self._naf_chain(_naf(k, 4), odd[4 * i : 4 * i + 4]) for i, (k, _) in enumerate(variable)]
        if not chains:
            return None
        return self._to_affine([self._ladder(self._chain_steps(chains))[0]])[0]

    def _ec_mul(self, k, a):
        # k*a for an affine a: the one-term linear combination
        return self._ec_lincomb([(k, a)])

    def _g1_lincomb(self, terms):
        # a fixed base brings its comb; any other point walks as its data
        return self._ec_lincomb([(k, a if isinstance(a, FixedBase) else a.data) for k, a in terms])

    def _g1_mul(self, k, a):
        return self._g1_lincomb([(k, a)])

    # -- F_p^2 arithmetic -----------------------------------------------------

    def _f2_mul(self, u, v):
        p = self.p
        a, b = u
        c, d = v
        ac = a * c
        bd = b * d
        return ((ac - bd) % p, ((a + b) * (c + d) - ac - bd) % p)

    def _f2_sqr(self, u):
        p = self.p
        a, b = u
        return ((a - b) * (a + b) % p, 2 * a * b % p)

    def _f2_inv(self, u):
        p = self.p
        a, b = u
        norm_inv = pow(a * a + b * b, -1, p)
        return (a * norm_inv % p, -b * norm_inv % p)

    def _f2_walk(self, chain, start=(1, 0)):
        # a chain of G2 elements, top first, from start: each entry squares
        # and then multiplies by the entry unless it is None
        sqr, mul = self._f2_sqr, self._f2_mul
        u = start
        for m in chain:
            u = sqr(u)
            if m is not None:
                u = mul(u, m)
        return u

    def _f2_pow(self, u, e):
        # u^e for u of norm 1, whose inverse is its conjugate: the width-4
        # NAF chain of e, with u, u^3, u^5 and u^7
        u2 = self._f2_sqr(u)
        odd = [u]
        for _ in range(3):
            odd.append(self._f2_mul(odd[-1], u2))
        return self._f2_walk(self._naf_chain(_naf(e, 4), odd))

    def _f2_comb_table(self, u, teeth):
        # the comb of ``teeth`` rows for u, as _comb_table's for P: entry j
        # is the product of u^(2^(i*d)) over the bits i set in j; entry 0,
        # the identity, is None
        d = -(-self.q.bit_length() // teeth)
        rows = [u]
        for _ in range(teeth - 1):
            rows.append(self._f2_walk([None] * d, rows[-1]))
        table = [(1, 0)]
        for j in range(1, 1 << teeth):
            low = j & -j
            table.append(self._f2_mul(table[j ^ low], rows[low.bit_length() - 1]))
        table[0] = None
        return d, table

    def _g2_pow(self, k, a):
        # g brings its comb; any other element walks its signed digits
        if isinstance(a, FixedG2):
            return self._f2_walk(self._comb_chain(k, a))
        return self._f2_pow(a.data, k)

    # -- group API ------------------------------------------------------------

    def g1_identity(self):
        return G1Point(self, None)

    def g2_identity(self):
        return G2Elem(self, (1, 0))

    def fixed_base(self, point, teeth):
        if isinstance(point, (FixedBase, FixedG2)) or point.data is None:
            return point
        return (FixedBase if isinstance(point, G1Point) else FixedG2)(self, point.data, teeth)

    def g1_scales_to(self, k, a, b):
        # as a == k^-1 * b, where a fixed base b walks its comb: an inversion
        # costs less than the variable-base walk of k*a
        return a == k.inverse() * b

    _g1_add, _g1_neg, _g2_mul = _ec_add, _ec_neg, _f2_mul

    def pair(self, u, v):
        """Reduced Tate pairing e(U, psi(V)) with denominator elimination.

        The Miller loop computes q*U on the way, so a first argument outside
        the order-q subgroup is rejected at no extra cost.
        """
        self._check_pair_args(u, v)
        if u.data is None or v.data is None:
            return self.g2_identity()
        p = self.p
        xq, yq = v.data
        (_, _, Z), f = self._q_walk(u.data, (-xq % p, yq))  # psi(V) = (-xq, i*yq)
        if Z:
            raise ClakaError("pairing argument is not in the order-q subgroup")
        # final exponentiation: (p^2 - 1)/q = (p - 1) * cofactor, and
        # f^(p-1) = conj(f) / f via the Frobenius map
        frob = (f[0], -f[1] % p)
        reduced = self._f2_mul(frob, self._f2_inv(f))
        return G2Elem(self, self._f2_pow(reduced, self.cofactor))

    # -- serialization ----------------------------------------------------------

    def g1_to_bytes(self, u):
        w = self.point_width
        if u.data is None:
            return b"\x00" * (1 + 2 * w)
        x, y = u.data
        return b"\x04" + x.to_bytes(w, "big") + y.to_bytes(w, "big")

    def g1_from_bytes(self, raw, strict=False):
        w = self.point_width
        if len(raw) != 1 + 2 * w:
            raise EncodingError(f"G1 encoding must be {1 + 2 * w} bytes")
        if raw[0] == 0:
            if any(raw[1:]):
                raise EncodingError("identity encoding must be all zero")
            return G1Point(self, None)
        if raw[0] != 4:
            raise EncodingError("unknown G1 encoding tag")
        x = int.from_bytes(raw[1 : 1 + w], "big")
        y = int.from_bytes(raw[1 + w :], "big")
        if x >= self.p or y >= self.p:
            raise EncodingError("G1 coordinate out of range")
        if (y * y - (x * x * x + x)) % self.p:
            raise EncodingError("point is not on the curve")
        if strict and self._q_walk((x, y))[0][2]:
            raise EncodingError("point is not in the order-q subgroup")
        return G1Point(self, (x, y))

    def g2_to_bytes(self, z):
        w = self.point_width
        c0, c1 = z.data
        return c0.to_bytes(w, "big") + c1.to_bytes(w, "big")

    def g2_from_bytes(self, raw):
        w = self.point_width
        if len(raw) != 2 * w:
            raise EncodingError(f"G2 encoding must be {2 * w} bytes")
        c0 = int.from_bytes(raw[:w], "big")
        c1 = int.from_bytes(raw[w:], "big")
        if c0 >= self.p or c1 >= self.p:
            raise EncodingError("G2 coefficient out of range")
        # the signed walk is exact on norm 1 only, which the subgroup needs anyway
        if (c0 * c0 + c1 * c1) % self.p != 1 or self._f2_pow((c0, c1), self.q) != (1, 0):
            raise EncodingError("G2 element is not in the order-q subgroup")
        return G2Elem(self, (c0, c1))


_PROFILE_BUILDERS = {
    "t1009": lambda: TransparentBackend(_Q_SMALL, "t1009"),
    "t256": lambda: TransparentBackend(_Q_256, "t256"),
    "c160": lambda: SupersingularBackend(_Q_160, _COFACTOR_160, "c160"),
    "c256": lambda: SupersingularBackend(_Q_256, _COFACTOR_256, "c256"),
}

#: default profile for each backend kind
DEFAULT_PROFILES = {"transparent": "t256", "crypto": "c160"}

PROFILE_NAMES = tuple(_PROFILE_BUILDERS)


@functools.lru_cache(maxsize=None)
def get_backend(profile: str) -> PairingBackend:
    """Return the shared backend instance for a named parameter profile."""
    try:
        builder = _PROFILE_BUILDERS[profile]
    except KeyError:
        raise ClakaError(f"unknown backend profile {profile!r}") from None
    return builder()


def default_profile(backend_kind: str) -> str:
    try:
        return DEFAULT_PROFILES[backend_kind]
    except KeyError:
        raise ClakaError(f"unknown backend kind {backend_kind!r}") from None
