"""Session views: the peers of a party, and derivation by a party outside the view."""

import dataclasses
import random

import pytest

from clakalab import harness
from clakalab.errors import MissingTranscriptFieldError, ScenarioError
from clakalab.harness import ScenarioConfig
from clakalab.session import PROTOCOL_VARIANTS


def honest_run(protocol, identities=("alice", "bob", "carol")):
    return harness.run_honest_session(ScenarioConfig(protocol, "t1009", seed=3, identities=identities))


@pytest.mark.parametrize("protocol", PROTOCOL_VARIANTS)
def test_peers_are_the_other_two_parties_in_role_order(protocol):
    view = honest_run(protocol).view
    a, b, c = view.ordered
    assert view.peers(b"alice") == [b, c]
    assert view.peers(b"bob") == [a, c]
    assert view.peers(b"carol") == [a, b]
    with pytest.raises(MissingTranscriptFieldError, match="not in the session view"):
        view.peers(b"dave")


@pytest.mark.parametrize("protocol", PROTOCOL_VARIANTS)
def test_derive_against_a_view_without_the_party_is_rejected(protocol):
    # dave runs round one toward alice and bob, then is handed the complete
    # view of the alice-bob-carol session
    theirs = honest_run(protocol)
    ours = honest_run(protocol, ("alice", "bob", "dave"))
    dave = harness.PartyMachine(protocol, ours.world.params, ours.world.users[b"dave"], random.Random(1))
    dave.flows(ours.view.ordered[:2])  # alice and bob sort before dave
    theirs.view.require_complete()
    with pytest.raises(MissingTranscriptFieldError, match="not in the session view"):
        dave.derive(theirs.view)


def test_a_view_with_a_repeated_identity_is_rejected():
    view = honest_run("xcq11").view
    alice, _, carol = view.ordered
    repeated = dataclasses.replace(view, parties=(alice, alice, carol))
    with pytest.raises(ScenarioError, match="distinct"):
        repeated.ordered
