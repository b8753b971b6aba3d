"""Wire encodings: message payloads, transcripts, and canonical JSON.

Every broadcast message is a tagged JSON record

    {"session": ..., "protocol": ..., "seq": ..., "sender": ...,
     "type": "announce" | "flows", "payload": {...}}

with group elements and scalars hex-encoded in their canonical byte form.
Reports and transcripts are serialized with sorted keys and fixed
separators, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from . import clsig, xcq11
from .errors import EncodingError
from .keyinfra import SystemParams
from .session import PairwiseView, PartyPublic, family

TRANSCRIPT_SCHEMA = "clakalab-transcript/1"
REPORT_SCHEMA = "clakalab-report/1"


def canonical_json(obj) -> bytes:
    """Stable byte serialization: sorted keys, no whitespace, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def key_digest(key: bytes | None) -> str | None:
    return None if key is None else hashlib.sha256(key).hexdigest()


def message_record(session_id: str, protocol: str, seq: int, sender: bytes, mtype: str, payload: dict) -> dict:
    return {
        "session": session_id,
        "protocol": protocol,
        "seq": seq,
        "sender": sender.decode("utf-8"),
        "type": mtype,
        "payload": payload,
    }


# -- announcements -------------------------------------------------------------


def announce_payload(ann: PartyPublic) -> dict:
    payload = {"id": ann.identity.decode("utf-8"), "upk": ann.upk.to_bytes().hex()}
    if ann.r_point is not None:
        payload["r"] = ann.r_point.to_bytes().hex()
    return payload


def parse_announce(protocol: str, payload: Mapping, backend):
    try:
        if not isinstance(payload["id"], str):
            raise TypeError(f"identity {payload['id']!r} is not a string")
        identity = payload["id"].encode("utf-8")
        upk = backend.g1_from_bytes(bytes.fromhex(payload["upk"]))
        # an xcl12 announcement must carry R_U; an xcq11 one has none
        r_point = backend.g1_from_bytes(bytes.fromhex(payload["r"])) if family(protocol) == "xcl12" else None
        return PartyPublic(identity, upk, r_point)
    except (KeyError, TypeError, ValueError) as exc:
        raise EncodingError(f"malformed announcement payload: {exc}") from exc


# -- round-one flows ------------------------------------------------------------


def flows_payload(protocol: str, outgoing) -> dict:
    if protocol == "xcq11i":
        return {
            "t": outgoing.t_point.to_bytes().hex(),
            "sig": {
                "commitment": outgoing.signature.commitment.to_bytes().hex(),
                "response": outgoing.signature.response.to_bytes().hex(),
            },
        }
    return {"t": {recv.decode("utf-8"): point.to_bytes().hex() for recv, point in outgoing.t_out.items()}}


def build_view(protocol: str, params: SystemParams, announce_payloads: Sequence[Mapping], flows: Sequence[tuple[bytes, Mapping]]):
    """Decode broadcast payloads into the protocol's session view."""
    backend = params.backend
    parties = tuple(parse_announce(protocol, p, backend) for p in announce_payloads)
    try:
        if protocol == "xcq11i":
            t_points = {}
            signatures = {}
            for sender, payload in flows:
                t_points[sender] = backend.g1_from_bytes(bytes.fromhex(payload["t"]))
                signatures[sender] = clsig.ClSignature(
                    backend.g2_from_bytes(bytes.fromhex(payload["sig"]["commitment"])),
                    backend.g1_from_bytes(bytes.fromhex(payload["sig"]["response"])),
                )
            return xcq11.Xcq11ImprovedView(parties, t_points, signatures)
        t = {}
        for sender, payload in flows:
            if not isinstance(payload["t"], dict):
                raise TypeError("pairwise T-values must be an object")
            for recv_str, point_hex in payload["t"].items():
                t[(sender, recv_str.encode("utf-8"))] = backend.g1_from_bytes(bytes.fromhex(point_hex))
        return PairwiseView(parties, t)
    except (KeyError, TypeError, ValueError) as exc:
        raise EncodingError(f"malformed flows payload: {exc}") from exc
