"""Wire decoding: session views rebuilt from broadcast payloads, and malformed payloads."""

import json

import pytest

from clakalab import harness, wire
from clakalab.errors import EncodingError
from clakalab.harness import ScenarioConfig
from clakalab.session import PROTOCOL_VARIANTS


def decoded_session(protocol):
    """An honest t1009 session and its payloads, read back from the transcript bytes."""
    run = harness.run_honest_session(ScenarioConfig(protocol=protocol, profile="t1009", seed=3))
    messages = json.loads(wire.canonical_json(run.transcript))["messages"]
    announces = [m["payload"] for m in messages if m["type"] == "announce"]
    flows = [(m["sender"].encode(), m["payload"]) for m in messages if m["type"] == "flows"]
    return run, announces, flows


def without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize("protocol", PROTOCOL_VARIANTS)
def test_decoded_view_matches_the_session_view(protocol):
    run, announces, flows = decoded_session(protocol)
    view = wire.build_view(protocol, run.world.params, announces, flows)
    view.require_complete()
    assert view.kdf_prefix() == run.view.kdf_prefix()
    assert view.ordered == run.view.ordered
    # R_U goes on the wire exactly when the protocol announces it
    assert [wire.announce_payload(p) for p in view.ordered] == announces
    assert all(("r" in a) == protocol.startswith("xcl12") for a in announces)


@pytest.mark.parametrize("protocol", ["xcl12", "xcl12i"])
def test_xcl12_announcement_without_r_rejected(protocol):
    run, announces, flows = decoded_session(protocol)
    announces[1] = without(announces[1], "r")
    with pytest.raises(EncodingError, match="malformed announcement payload"):
        wire.build_view(protocol, run.world.params, announces, flows)


def test_xcq11i_flows_without_signature_rejected():
    run, announces, flows = decoded_session("xcq11i")
    sender, payload = flows[2]
    flows[2] = (sender, without(payload, "sig"))
    with pytest.raises(EncodingError, match="malformed flows payload"):
        wire.build_view("xcq11i", run.world.params, announces, flows)


@pytest.mark.parametrize("protocol", ["xcq11", "xcl12", "xcl12i"])
def test_non_hex_pairwise_t_value_rejected(protocol):
    run, announces, flows = decoded_session(protocol)
    sender, payload = flows[0]
    receiver = sorted(payload["t"])[0]
    flows[0] = (sender, {"t": {**payload["t"], receiver: "not hex"}})
    with pytest.raises(EncodingError, match="malformed flows payload"):
        wire.build_view(protocol, run.world.params, announces, flows)


@pytest.mark.parametrize("identity", [7, None, ["alice"], {"id": "alice"}], ids=["int", "null", "list", "object"])
def test_non_string_identity_rejected(identity):
    run, announces, flows = decoded_session("xcq11")
    announces[0] = {**announces[0], "id": identity}
    with pytest.raises(EncodingError, match="malformed announcement payload"):
        wire.build_view("xcq11", run.world.params, announces, flows)


@pytest.mark.parametrize("protocol", ["xcq11", "xcl12", "xcl12i"])
@pytest.mark.parametrize("t_values", ["00", 7, None, [["alice", "00"]]], ids=["string", "int", "null", "list"])
def test_pairwise_t_values_that_are_no_object_rejected(protocol, t_values):
    run, announces, flows = decoded_session(protocol)
    sender, payload = flows[1]
    flows[1] = (sender, {**payload, "t": t_values})
    with pytest.raises(EncodingError, match="malformed flows payload"):
        wire.build_view(protocol, run.world.params, announces, flows)
