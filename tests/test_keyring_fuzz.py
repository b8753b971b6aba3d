"""Key files: any part of a keyring swapped for bad JSON ends in a documented exit code.

A keyring read by ``run --keys``, or carried in a run report that
``replay`` re-runs, has one leaf or subtree replaced by wrong-typed JSON,
out-of-range or identity hex, a value taken from elsewhere in the keyring
(another user's, say) or an integer past CPython's digit limit. The run
must agree (0), be rejected as a usage error (2, a key file that does not
fit the scenario) or a malformed record (3), abort in the protocol (4) or
mismatch on replay (5); it never ends in a traceback.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clakalab import cli, harness, keyinfra, wire
from clakalab.session import canonical_identities, family

#: valid keyrings of both families, on the transparent profiles only
BASE_CONFIGS = (
    harness.ScenarioConfig("xcq11", "t1009", seed=1),
    harness.ScenarioConfig("xcl12", "t256", seed=2),
    harness.ScenarioConfig("xcq11i", "t256", seed=3),
    harness.ScenarioConfig("xcl12i", "t1009", seed=4),
)

#: stands for a JSON integer longer than CPython's 4300-digit int/str limit
HUGE = "<5000-digit integer>"

WRONG_TYPED = [True, 1.5, None, 7, [], ["00"], {}, {"x": "00"}, "", "zz", "\ud800"]


@functools.lru_cache(maxsize=None)
def base_report(index: int) -> bytes:
    """A run report of the scenario that carries its keyring."""
    config = BASE_CONFIGS[index]
    world = harness.materialize(config)
    users = [world.users[i] for i in canonical_identities(world.users.keys())]
    ring = keyinfra.keyring_to_json(family(config.protocol), world.params, world.msk, users)
    return wire.canonical_json(harness.build_run_report(harness.run_honest_session(config, keyring=ring)))


def paths(tree, prefix=()):
    """Every leaf and subtree of a JSON value, the root included."""
    yield prefix
    children = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in children:
        yield from paths(child, (*prefix, key))


def leaves(tree):
    values = (lookup(tree, path) for path in paths(tree))
    return [value for value in values if not isinstance(value, (dict, list))]


def lookup(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def replaced(tree, path, value):
    if not path:
        return value
    parent = lookup(tree, path[:-1])
    parent[path[-1]] = value
    return tree


def replacements(ring, path):
    """Bad values for the part of ``ring`` at ``path``."""
    old = lookup(ring, path)
    width = len(old) // 2 if isinstance(old, str) and len(old) > 1 else 32
    # on the transparent profiles all-ones hex is past the group order, and zero is the identity
    bad_hex = ["00" * width, "ff" * width, "0" * (2 * width - 1), "00" * (width + 1)]
    # every leaf of the keyring, so also the same field of another user
    return st.sampled_from([*WRONG_TYPED, *bad_hex, HUGE, *leaves(ring)])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("keyring-fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=2000)
@given(index=st.integers(0, len(BASE_CONFIGS) - 1), data=st.data(), via_replay=st.booleans())
def test_mutated_keyring_ends_in_a_documented_exit_code(fuzz_dir, index, data, via_replay):
    report = json.loads(base_report(index))
    ring = report["keyring"]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if not isinstance(ring, (dict, list)):
            break
        path = data.draw(st.sampled_from(list(paths(ring))), label="path")
        ring = replaced(ring, path, data.draw(replacements(ring, path), label="value"))
    protocol = BASE_CONFIGS[index].protocol
    if via_replay:
        report["keyring"] = ring
        path, command = fuzz_dir / "report.json", ["replay"]
        text = json.dumps(report)
    else:
        path, command = fuzz_dir / "keys.json", ["run", "--protocol", protocol, "--keys"]
        text = json.dumps(ring)
    path.write_text(text.replace(json.dumps(HUGE), "7" * 5000))
    assert cli.main([*command, str(path)]) in (
        cli.EXIT_OK,
        cli.EXIT_USAGE,
        cli.EXIT_IO,
        cli.EXIT_ABORT,
        cli.EXIT_UNEXPECTED,
    )
