"""Stored scenario configs: any JSON in any field ends in a documented exit code.

A replayed run or attack report whose config fields are swapped for valid,
wrong-typed or out-of-range JSON values must match (0), be rejected as a
malformed record (3), abort in the protocol (4) or mismatch (5). It is
never a usage error (2), since no flag was given, and never a traceback.
Exit 4 is possible because a t1009 identity can hash to the negated
master key, which leaves the xcq11 partial key undefined.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clakalab import cli, harness, wire
from clakalab.attacks import ATTACK_FAMILIES
from clakalab.session import PROTOCOL_VARIANTS

#: valid reports without a keyring, on the transparent profiles only
BASE_CONFIGS = (
    harness.ScenarioConfig("xcq11", "t1009", seed=1),
    harness.ScenarioConfig("xcl12i", "t256", seed=2),
    harness.ScenarioConfig("xcq11i", "t256", seed=3, attack="kci"),
    harness.ScenarioConfig("xcl12", "t1009", seed=4, attack="kci-kgc"),
)

#: stands for a JSON integer longer than CPython's 4300-digit int/str limit
HUGE = "<5000-digit integer>"
#: stands for a field left out of the config
ABSENT = "<absent>"

WRONG_TYPED = st.sampled_from([True, False, 1.5, None, [], ["alice"], {}, {"seed": 1}, HUGE, "\ud800"])
VALID = {
    "protocol": st.sampled_from(PROTOCOL_VARIANTS),
    "profile": st.sampled_from(["t1009", "t256"]),
    "seed": st.integers(-(2**64), 2**64),
    "identities": st.lists(st.text(max_size=6), min_size=3, max_size=3, unique=True),
    "attack": st.none() | st.sampled_from(sorted(ATTACK_FAMILIES)),
    "key_bits": st.sampled_from([8, 128, 256, 4096]),
}
OUT_OF_RANGE = {
    "protocol": st.sampled_from(["", "nope", "XCQ11", "xcq11 "]),
    "profile": st.sampled_from(["", "nope", "c999", "T256"]),
    "seed": st.just(10**4000),
    "identities": st.lists(st.text(max_size=3) | WRONG_TYPED, max_size=5)
    | st.sampled_from([["a", "a", "b"], ["a", "b", "a"], ["a", "b"], []]),
    "attack": st.sampled_from(["", "nope", "KCI", "kci-"]),
    "key_bits": st.sampled_from([0, -8, 12, 4104, 2**70]),
}
OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        name: st.one_of(VALID[name], OUT_OF_RANGE[name], WRONG_TYPED, st.just(ABSENT))
        for name in VALID
    },
)


@functools.lru_cache(maxsize=None)
def base_report(index: int) -> bytes:
    config = BASE_CONFIGS[index]
    if config.attack is None:
        report = harness.build_run_report(harness.run_honest_session(config))
    else:
        report = harness.run_attack_scenario(config).report
    return wire.canonical_json(report)


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "report.json"


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    index=st.integers(0, len(BASE_CONFIGS) - 1),
    overrides=OVERRIDES,
    command=st.sampled_from([("replay",), ("run", "--replay")]),
)
def test_stored_config_ends_in_a_documented_exit_code(report_path, index, overrides, command):
    report = json.loads(base_report(index))
    for name, value in overrides.items():
        if value == ABSENT:
            del report["config"][name]
        else:
            report["config"][name] = value
    report_path.write_text(json.dumps(report).replace(json.dumps(HUGE), "7" * 5000))
    assert cli.main([*command, str(report_path)]) in (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_ABORT, cli.EXIT_UNEXPECTED)
