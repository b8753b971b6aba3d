"""Session-level types shared by the protocols, attacks, and harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import MissingTranscriptFieldError, ScenarioError
from .pairing import G1Point, Scalar

#: protocol variant tags; the trailing "i" marks the repaired variant
PROTOCOL_VARIANTS = ("xcq11", "xcq11i", "xcl12", "xcl12i")


def family(protocol: str) -> str:
    """Collapse a protocol variant to its key-infrastructure family."""
    if protocol not in PROTOCOL_VARIANTS:
        raise ScenarioError(f"unknown protocol {protocol!r}")
    return protocol.removesuffix("i")


def is_improved(protocol: str) -> bool:
    return family(protocol) != protocol


@dataclass(frozen=True)
class PartyPublic:
    """Public announcement of one participant: identity, upk, and R_U (xcl12 only)."""

    identity: bytes
    upk: G1Point
    r_point: Optional[G1Point] = None


@dataclass(frozen=True)
class PairwiseFlow:
    """Round-one state of a party that masks one ephemeral toward each peer.

    ``t_out`` maps each receiver's identity to its T-value.  xcl12 also
    keeps ``peer_bases``, each peer's R_V + H1(ID_V || R_V) * P0, computed
    anyway while building the T-values; its repaired derivation reuses
    them, which is what keeps the repair at four extra additions.
    """

    ephemeral: Scalar
    t_out: Mapping[bytes, G1Point]
    peer_bases: Mapping[bytes, G1Point] = field(default_factory=dict)


@dataclass(frozen=True)
class SessionKey:
    """Derived k-bit session key.

    ``shared`` keeps the group value(s) that went into the KDF.  It is a
    debugging aid for the transparent oracles and never leaves the process;
    transcripts and reports carry key digests only.
    """

    key: bytes
    shared: object = field(default=None, compare=False)


def valid_identity(value) -> bool:
    """Whether ``value`` can name a party: a string that encodes as UTF-8.

    A lone surrogate, such as JSON's ``"\\ud800"`` or an undecodable byte of
    a command line, makes a string that has no UTF-8 encoding.
    """
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def canonical_identities(identities: Iterable[bytes]) -> tuple[bytes, ...]:
    """Fix the (A, B, C) role slots by sorting identity bytes."""
    ordered = tuple(sorted(identities))
    if len(set(ordered)) != len(ordered):
        raise ScenarioError("participant identities must be distinct")
    return ordered


@dataclass(frozen=True)
class SessionView:
    """Everything public in one session: the announcements plus round one.

    Subclasses add their round-one fields and supply ``missing()``, which
    yields a description of each absent item, and ``t_values()``, the
    T-values in KDF order.
    """

    parties: tuple  # PartyPublic records

    @cached_property
    def ordered(self) -> tuple:
        """The parties in role order (A, B, C): sorted by identity bytes."""
        ordered = tuple(sorted(self.parties, key=lambda p: p.identity))
        canonical_identities(p.identity for p in ordered)
        return ordered

    def require_complete(self) -> None:
        if len(self.parties) != 3:
            raise MissingTranscriptFieldError("a session view needs exactly three parties")
        for item in self.missing():
            raise MissingTranscriptFieldError(f"missing {item}")

    def peers(self, identity: bytes) -> list:
        """The two parties of a complete view other than ``identity``, in role order."""
        self.require_complete()
        peers = [p for p in self.ordered if p.identity != identity]
        if len(peers) != 2:
            raise MissingTranscriptFieldError(f"own identity {identity!r} not in the session view")
        return peers

    def kdf_prefix(self) -> list[bytes]:
        """KDF input every variant starts with: identities, then upks, then T-values."""
        ordered = self.ordered
        parts = [p.identity for p in ordered]
        parts += [p.upk.to_bytes() for p in ordered]
        parts += [t.to_bytes() for t in self.t_values()]
        return parts


@dataclass(frozen=True)
class PairwiseView(SessionView):
    """A session that sends one T-value per ordered pair of parties."""

    t: Mapping[tuple[bytes, bytes], G1Point]  # (sender, receiver) -> T

    def _pairs(self):
        ids = [p.identity for p in self.ordered]
        return [(s, r) for s in ids for r in ids if s != r]

    def missing(self):
        return (f"T-value {s!r} -> {r!r}" for s, r in self._pairs() if (s, r) not in self.t)

    def t_values(self) -> list[G1Point]:
        # sender-major order: T_AB, T_AC, T_BA, T_BC, T_CA, T_CB
        return [self.t[pair] for pair in self._pairs()]
