"""Determinism pins: the report bytes of every honest variant and attack cell."""

import hashlib

import pytest

from clakalab import harness, wire
from clakalab.harness import ScenarioConfig

# sha256 of canonical_json(report) on profile t256, seed 0
HONEST_REPORT_DIGESTS = {
    "xcq11": "6c1e9081987866286698ed77a9dedfd521246c911497e21186644da0fcd26198",
    "xcq11i": "9372521e3f26d021bd0cd17d062934833d3e2063c979262507ac8f0862952a90",
    "xcl12": "15b97f1cdf55f75bdda890b8ca4c8b5540961a71880e2d0084d71304acd0067c",
    "xcl12i": "7cba2b313f4b73a7fb235ee8182642ec694234649dc53e92ddf6ab36602ba24f",
}

ATTACK_REPORT_DIGESTS = {
    ("fs", "xcq11"): "4e42b85f038bb1554fdb743065ee872b333dc073052ccd92936ea09fccfecfbd",
    ("fs", "xcq11i"): "f737532beae41a646d96e1ea6581fc02499a05e437bf8075ee218a60b634907d",
    ("kci", "xcq11"): "369fb7bb5296c1fad464c650db5e5edffa75fc90bf2b644c7c5b81b4da3178be",
    ("kci", "xcq11i"): "cb7c23a1d85a18a212cf4ceb33363ff6f33cc99dcf185ce7c16e287247a8904d",
    ("secrets", "xcq11"): "3fb634f7aebc22b0fce56006289d2942932614e8418e7c84bad4891d4cf412b2",
    ("secrets", "xcq11i"): "b40fc9aa322159fd495e71d96ea0ead51b209f54722d92a8ec17080ae564fa99",
    ("kci-kgc", "xcl12"): "ae170258bb4c619695df392a09a5205210c95ac895e6ed993fcfd7da12f7b5ce",
    ("kci-kgc", "xcl12i"): "d629df95a7fd998edd650f2b3350214f7d3f42fddf2eec2b27341fda13292b2f",
    ("kci-common", "xcl12"): "dbfd3f9e97940a4468f185e1f68e677c6ad8e444f68b7e0764ec7a1645273599",
    ("kci-common", "xcl12i"): "aa9d44a1c1af7f48b31cc77d91ec141997273a7f049f920c5fbdfe9072ea8df3",
}

# the same on profile c160, seed 0, where every group operation runs the curve code
C160_HONEST_REPORT_DIGESTS = {
    "xcq11": "d699b4dd17e9d30109a8c329bb1ac61ee6251374c0c40c52d3a80d3887b81080",
    "xcq11i": "c0239c95b81bf0671e09451e71b4334bc809d8f5d39d48149b547d8ef384c8ae",
    "xcl12": "64ca6a9b9e0c21cdc74892f0f01354064e9cff6eecf9ef3f60f298b8372d8f58",
    "xcl12i": "f999f9708c774772c207e3c0a39ade6d3174d17fc8796444f8bb297c3370e0e9",
}

C160_ATTACK_REPORT_DIGESTS = {
    ("fs", "xcq11"): "92f9a9fcb21a67a870e98794e50f1578b62a3e94fe009aeacfd0b7541136c9be",
    ("fs", "xcq11i"): "183134c2f9f7c5536743ac38a18107f13fc7aa3912135abce8db4bcb9ad11a2e",
    ("kci", "xcq11"): "3b547d55deeb5a00d43b5aa7453d3c161431fb4edf741fe2d4e54f746ddbdfb6",
    ("kci", "xcq11i"): "9d95425dd583bb5302af213547b9cea1f561bcd6832909df9cb951583b28fbb8",
    ("secrets", "xcq11"): "39392c2db9f23c28df78b66124052b7a1f58b5e0d1240457db58a7a42c01f591",
    ("secrets", "xcq11i"): "869c6996b760318d9ae00658701635ea20f4b4b19a23bd18c4bf8ceb4fe62dc0",
    ("kci-kgc", "xcl12"): "27891410a9e293d18c39fb8fcaeb95186f3fa735acb33960897716f6750766d8",
    ("kci-kgc", "xcl12i"): "9632b0ffd7ec99b23e6364a21bc21a69a82d068d4f8b95058b125273814f5903",
    ("kci-common", "xcl12"): "3e700cef2132eac9ebfa24f4cdc6a2ad8883a3784aa44faef39c3ab22ae45184",
    ("kci-common", "xcl12i"): "177cbcaa03cac80fb9031355bbbd5e724ba5b8394b5f696ab72ce3795e81a6fb",
}

# sha256 of canonical_json(count_operations(seed=0, profile=...))
COUNT_OPS_DIGESTS = {
    "t256": "de3d70fb9d2ded9b24483f9f006e75701e5926113f9278023035b74d51487d45",
    "c160": "8a7d58e0698a9b08cebec06d2f283350e7213989374fdc46f67dc1c55ada7054",
}


def _digest(report: dict) -> str:
    return hashlib.sha256(wire.canonical_json(report)).hexdigest()


@pytest.mark.parametrize("protocol", sorted(HONEST_REPORT_DIGESTS))
def test_frozen_run_report_digest(protocol):
    run = harness.run_honest_session(ScenarioConfig(protocol=protocol, profile="t256", seed=0))
    assert _digest(harness.build_run_report(run)) == HONEST_REPORT_DIGESTS[protocol]


@pytest.mark.parametrize("attack,protocol", sorted(ATTACK_REPORT_DIGESTS))
def test_frozen_attack_report_digest(attack, protocol):
    config = ScenarioConfig(protocol=protocol, profile="t256", seed=0, attack=attack)
    report = harness.run_attack_scenario(config).report
    assert _digest(report) == ATTACK_REPORT_DIGESTS[(attack, protocol)]


@pytest.mark.parametrize("protocol", sorted(C160_HONEST_REPORT_DIGESTS))
def test_frozen_c160_run_report_digest(protocol):
    run = harness.run_honest_session(ScenarioConfig(protocol=protocol, profile="c160", seed=0))
    assert _digest(harness.build_run_report(run)) == C160_HONEST_REPORT_DIGESTS[protocol]


@pytest.mark.parametrize("attack,protocol", sorted(C160_ATTACK_REPORT_DIGESTS))
def test_frozen_c160_attack_report_digest(attack, protocol):
    config = ScenarioConfig(protocol=protocol, profile="c160", seed=0, attack=attack)
    report = harness.run_attack_scenario(config).report
    assert _digest(report) == C160_ATTACK_REPORT_DIGESTS[(attack, protocol)]


@pytest.mark.parametrize("profile", sorted(COUNT_OPS_DIGESTS))
def test_frozen_count_ops_report_digest(profile):
    assert _digest(harness.count_operations(seed=0, profile=profile)) == COUNT_OPS_DIGESTS[profile]
