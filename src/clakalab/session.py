"""Session-level types shared by the protocols, attacks, and harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import MissingTranscriptFieldError, ScenarioError
from .pairing import G1Point

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
    """Public announcement of one participant: identity and user public key."""

    identity: bytes
    upk: G1Point


@dataclass(frozen=True)
class SessionKey:
    """Derived k-bit session key.

    ``shared`` keeps the group value(s) that went into the KDF.  It is a
    debugging aid for the transparent oracles and never leaves the process;
    transcripts and reports carry key digests only.
    """

    key: bytes
    shared: object = field(default=None, compare=False)


def canonical_identities(identities: Iterable[bytes]) -> tuple[bytes, ...]:
    """Fix the (A, B, C) role slots by sorting identity bytes."""
    ordered = tuple(sorted(identities))
    if len(set(ordered)) != len(ordered):
        raise ScenarioError("participant identities must be distinct")
    return ordered


def canonical_parties(parties: Sequence) -> tuple:
    """Sort announcement records (anything with ``.identity``) into role order."""
    ordered = tuple(sorted(parties, key=lambda p: p.identity))
    canonical_identities(p.identity for p in ordered)
    return ordered


def kdf_prefix(ordered: Sequence, t_values: Iterable[G1Point]) -> list[bytes]:
    """KDF input every variant starts with: identities, then upks, then T-values."""
    parts = [p.identity for p in ordered]
    parts += [p.upk.to_bytes() for p in ordered]
    parts += [t.to_bytes() for t in t_values]
    return parts


@dataclass(frozen=True)
class PairwiseView:
    """Everything public in one session that sends a T-value per ordered pair."""

    parties: tuple  # PartyPublic records or shared-values announcements
    t: Mapping[tuple[bytes, bytes], G1Point]  # (sender, receiver) -> T

    @property
    def ordered(self) -> tuple:
        return canonical_parties(self.parties)

    def require_complete(self) -> None:
        if len(self.parties) != 3:
            raise MissingTranscriptFieldError("a session view needs exactly three parties")
        ids = [p.identity for p in self.ordered]
        for sender in ids:
            for receiver in ids:
                if sender != receiver and (sender, receiver) not in self.t:
                    raise MissingTranscriptFieldError(
                        f"missing T-value {sender!r} -> {receiver!r}"
                    )

    def kdf_prefix(self) -> list[bytes]:
        ordered = self.ordered
        ids = [p.identity for p in ordered]
        # sender-major order: T_AB, T_AC, T_BA, T_BC, T_CA, T_CB
        return kdf_prefix(ordered, [self.t[(s, r)] for s in ids for r in ids if s != r])
