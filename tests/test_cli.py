"""Command-line front end: subcommands, exit-code contract, determinism."""

import json

import pytest

from clakalab import cli, harness, wire
from clakalab.errors import EncodingError
from clakalab.keyinfra import identity_hash, setup
from clakalab.pairing import OpCounter, get_backend, metered


def run_cli(*argv):
    return cli.main(list(argv))


def test_keygen_deterministic(tmp_path):
    out1 = tmp_path / "k1.json"
    out2 = tmp_path / "k2.json"
    assert run_cli("keygen", "--protocol", "xcl12", "--seed", "7", "--out", str(out1)) == 0
    assert run_cli("keygen", "--protocol", "xcl12", "--seed", "7", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_keygen_then_run(tmp_path, capsys):
    keys = tmp_path / "keys.json"
    report = tmp_path / "run.json"
    assert run_cli("keygen", "--protocol", "xcq11", "--seed", "3", "--out", str(keys)) == 0
    assert run_cli("run", "--protocol", "xcq11", "--keys", str(keys), "--seed", "8", "--out", str(report)) == 0
    stored = json.loads(report.read_text())
    assert stored["agreement"] is True
    out = capsys.readouterr().out
    assert "agreement: yes" in out


def test_run_and_replay(tmp_path):
    report = tmp_path / "run.json"
    assert run_cli("run", "--protocol", "xcl12i", "--seed", "5", "--out", str(report)) == 0
    assert run_cli("replay", str(report)) == 0
    assert run_cli("run", "--replay", str(report)) == 0
    # tampering flips the replay outcome
    record = json.loads(report.read_text())
    record["key_digests"]["alice"] = "00" * 32
    report.write_text(json.dumps(record))
    assert run_cli("replay", str(report)) == cli.EXIT_UNEXPECTED


def test_corrupted_keyfile_gives_io_exit(tmp_path):
    keys = tmp_path / "keys.json"
    assert run_cli("keygen", "--protocol", "xcq11i", "--seed", "2", "--out", str(keys)) == 0
    record = json.loads(keys.read_text())
    # corrupt one user's full key; partial keys still verify, but the secrets regenerate another file
    record["users"][0]["full"] = record["users"][1]["full"]
    keys.write_text(json.dumps(record))
    code = run_cli("run", "--protocol", "xcq11i", "--keys", str(keys), "--seed", "2")
    assert code == cli.EXIT_IO


def test_attack_exit_codes(tmp_path):
    report = tmp_path / "attack.json"
    # expected outcomes exit 0 on both sides of the matrix
    assert run_cli("attack", "--attack", "fs", "--protocol", "xcq11", "--seed", "1") == 0
    assert run_cli("attack", "--attack", "fs", "--protocol", "xcq11i", "--seed", "1") == 0
    assert run_cli("attack", "--attack", "kci", "--protocol", "xcq11i", "--seed", "1", "--out", str(report)) == 0
    stored = json.loads(report.read_text())
    assert stored["success"] is False and stored["expected_success"] is False
    assert stored["aborted"] == ["alice", "bob"]


def test_attack_matrix_usage_errors():
    assert run_cli("attack", "--attack", "kci-kgc", "--protocol", "xcq11") == cli.EXIT_USAGE
    assert run_cli("attack", "--attack", "secrets", "--protocol", "xcl12i") == cli.EXIT_USAGE


def test_unknown_flags_are_usage_errors(capsys):
    assert run_cli("run", "--protocol", "xcq11", "--bogus") == cli.EXIT_USAGE
    assert run_cli("attack", "--protocol", "xcq11") == cli.EXIT_USAGE  # --attack missing
    assert run_cli("run", "--protocol", "nope") == cli.EXIT_USAGE
    capsys.readouterr()


def test_run_without_protocol_or_replay_is_usage_error(capsys):
    assert run_cli("run", "--seed", "1") == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_run_verbose_prints_the_transcript(capsys):
    args = ("run", "--protocol", "xcq11i", "--profile", "t1009", "--seed", "6")
    assert run_cli(*args) == 0
    plain = capsys.readouterr().out
    assert run_cli(*args, "--verbose") == 0
    run = harness.run_honest_session(harness.ScenarioConfig("xcq11i", "t1009", seed=6))
    assert capsys.readouterr().out == wire.canonical_json(run.transcript).decode() + plain


def test_protocol_failure_is_protocol_error(capsys):
    # an identity that hashes to -x leaves the KGC no xcq11 partial key to extract
    params, msk = setup(get_backend("t1009"), harness.rng_for(0, "setup"))
    name = next(f"d{i}" for i in range(5000) if (msk.x + identity_hash(params, f"d{i}".encode())).is_zero())
    args = ("keygen", "--protocol", "xcq11", "--profile", "t1009", "--seed", "0", "--ids", f"{name},b,c")
    assert run_cli(*args) == cli.EXIT_ABORT
    assert "protocol error" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path):
    assert run_cli("replay", str(tmp_path / "absent.json")) == cli.EXIT_IO
    assert run_cli("run", "--protocol", "xcq11", "--keys", str(tmp_path / "absent.json")) == cli.EXIT_IO


def test_count_ops(tmp_path, capsys):
    report = tmp_path / "counts.json"
    assert run_cli("count-ops", "--seed", "2", "--out", str(report)) == 0
    out = capsys.readouterr().out
    assert "delta +4" in out
    stored = json.loads(report.read_text())
    for counts in stored["parties"].values():
        assert counts["delta"]["point_adds"] == 4
        assert counts["delta"]["pairings"] == 0
    assert run_cli("replay", str(report)) == 0


def test_count_ops_takes_no_protocol(capsys):
    # count-ops always compares xcl12 with xcl12i, so a protocol flag is a usage error
    assert run_cli("count-ops", "--protocol", "xcq11", "--seed", "1") == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_keygen_to_stdout(capsys):
    assert run_cli("keygen", "--protocol", "xcl12", "--seed", "1") == 0
    out = capsys.readouterr().out
    record = json.loads(out)
    assert record["schema"] == "clakalab-keys/1"
    assert len(record["users"]) == 3


def test_crypto_backend_run(capsys):
    assert run_cli("run", "--protocol", "xcq11", "--backend", "crypto", "--seed", "1") == 0
    capsys.readouterr()



MALFORMED_REPORTS = {
    "no-protocol": {"kind": "run", "config": {"seed": 0}},
    "seed-not-int": {"kind": "run", "config": {"protocol": "xcq11", "seed": "x"}},
    "top-level-list": [{"kind": "run", "config": {"protocol": "xcq11"}}],
    "identities-not-list": {"kind": "run", "config": {"protocol": "xcq11", "identities": 5}},
    "unknown-profile": {"kind": "run", "config": {"protocol": "xcq11", "profile": "nope"}},
    "count-ops-no-config": {"kind": "count-ops"},
    "identities-not-strings": {"kind": "run", "config": {"protocol": "xcq11", "identities": [1, 2, 3]}},
    "identities-a-string": {"kind": "run", "config": {"protocol": "xcq11", "identities": "abc"}},
    "attack-a-list": {"kind": "attack", "config": {"protocol": "xcq11", "attack": ["kci"]}},
    "protocol-a-list": {"kind": "run", "config": {"protocol": ["xcq11"]}},
    "seed-a-float": {"kind": "run", "config": {"protocol": "xcq11", "seed": 1.5}},
    "key-bits-a-string": {"kind": "run", "config": {"protocol": "xcq11", "key_bits": "256"}},
    "key-bits-huge": {"kind": "run", "config": {"protocol": "xcq11", "key_bits": 2**70}},
    "identity-not-utf8": {"kind": "run", "config": {"protocol": "xcq11", "identities": ["\ud800", "b", "c"]}},
    "no-kind": {"config": {"protocol": "xcq11"}},
    "unknown-kind": {"kind": "foo", "config": {"protocol": "xcq11"}},
    "kind-a-list": {"kind": ["run"], "config": {"protocol": "xcq11"}},
    "unknown-protocol": {"kind": "run", "config": {"protocol": "nope"}},
    "unknown-attack": {"kind": "attack", "config": {"protocol": "xcq11", "attack": "nope"}},
    "attack-not-on-protocol": {"kind": "attack", "config": {"protocol": "xcq11", "attack": "kci-kgc"}},
    "two-identities": {"kind": "run", "config": {"protocol": "xcq11", "identities": ["a", "b"]}},
    "duplicate-identity": {"kind": "run", "config": {"protocol": "xcq11", "identities": ["a", "b", "a"]}},
    "run-with-attack": {"kind": "run", "config": {"protocol": "xcq11", "attack": "fs"}},
    "attack-without-attack": {"kind": "attack", "config": {"protocol": "xcq11"}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
@pytest.mark.parametrize("command", [("replay",), ("run", "--replay")], ids=["replay", "run-replay"])
def test_malformed_report_is_io_error(tmp_path, capsys, case, command):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(MALFORMED_REPORTS[case]))
    assert run_cli(*command, str(path)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def _assert_keyring_rejected(tmp_path, capsys, protocol, corrupt):
    # the corrupted keyring fails as a key file and inside a run report
    good_keys, bad_keys, report = (tmp_path / n for n in ("good.json", "bad.json", "run.json"))
    assert run_cli("keygen", "--protocol", protocol, "--seed", "4", "--out", str(good_keys)) == 0
    assert run_cli("run", "--protocol", protocol, "--keys", str(good_keys), "--out", str(report)) == 0
    keyring = corrupt(json.loads(good_keys.read_text()))
    bad_keys.write_text(json.dumps(keyring))
    capsys.readouterr()
    assert run_cli("run", "--protocol", protocol, "--keys", str(bad_keys)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    stored = json.loads(report.read_text())
    stored["keyring"] = keyring
    report.write_text(json.dumps(stored))
    assert run_cli("replay", str(report)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def _with_first_user(ring, **fields):
    return {**ring, "users": [{**ring["users"][0], **fields}, *ring["users"][1:]]}


MALFORMED_KEYRINGS = {
    "top-level-list": lambda ring: [ring],
    "users-not-objects": lambda ring: {**ring, "users": [5]},
    "users-an-object": lambda ring: {**ring, "users": {u["id"]: u for u in ring["users"]}},
    "key-bits-not-int": lambda ring: {**ring, "key_bits": "x"},
    "key-bits-negative": lambda ring: {**ring, "key_bits": -8},
    "key-bits-not-whole-bytes": lambda ring: {**ring, "key_bits": 12},
    "key-bits-huge": lambda ring: {**ring, "key_bits": 2**70},
    "id-not-string": lambda ring: _with_first_user(ring, id=5),
    "id-not-utf8": lambda ring: _with_first_user(ring, id="\ud800"),
    "unknown-profile": lambda ring: {**ring, "profile": "nope"},
    "backend-true": lambda ring: {**ring, "backend": True},
    "backend-a-list": lambda ring: {**ring, "backend": []},
    "backend-null": lambda ring: {**ring, "backend": None},
    "backend-a-profile-name": lambda ring: {**ring, "backend": ring["profile"]},
    "backend-of-another-profile": lambda ring: {**ring, "backend": "crypto"},
    "no-backend": lambda ring: {k: v for k, v in ring.items() if k != "backend"},
    "full-of-another-user": lambda ring: _with_first_user(ring, full=ring["users"][1]["full"]),
    "upk-upper-case-hex": lambda ring: _with_first_user(ring, upk=ring["users"][0]["upk"].upper()),
    "extra-user-field": lambda ring: _with_first_user(ring, note="hello"),
    "no-key-bits": lambda ring: {k: v for k, v in ring.items() if k != "key_bits"},
    # well-formed users, but not the three distinct identities a scenario needs
    "two-users": lambda ring: {**ring, "users": ring["users"][:2]},
    "four-users": lambda ring: {**ring, "users": [*ring["users"], {**ring["users"][0], "id": "dave"}]},
    "repeated-user": lambda ring: {**ring, "users": [*ring["users"][:2], ring["users"][0]]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_KEYRINGS))
def test_malformed_keyring_is_io_error(tmp_path, capsys, case):
    _assert_keyring_rejected(tmp_path, capsys, "xcq11", MALFORMED_KEYRINGS[case])


#: xcl12 users whose stored partial key is not the one the KGC issued: the
#: loader keeps the stored s_U, so R_U = r*P and the record comparison catch them
MALFORMED_XCL12_KEYRINGS = {
    "partial-r-of-another-user": lambda ring: _with_first_user(ring, partial_r=ring["users"][1]["partial_r"]),
    # the binding hash covers the identity, so the second user's whole partial key does not fit the first
    "partial-key-of-another-user": lambda ring: _with_first_user(
        ring, partial_s=ring["users"][1]["partial_s"], partial_r=ring["users"][1]["partial_r"]
    ),
    "partial-s-zero": lambda ring: _with_first_user(ring, partial_s="0" * len(ring["users"][0]["partial_s"])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_XCL12_KEYRINGS))
def test_malformed_xcl12_keyring_is_io_error(tmp_path, capsys, case):
    _assert_keyring_rejected(tmp_path, capsys, "xcl12", MALFORMED_XCL12_KEYRINGS[case])


@pytest.mark.parametrize("protocol", ["xcq11", "xcl12"])
def test_keyring_with_another_users_secret_value_is_io_error(tmp_path, capsys, protocol):
    # every part still decodes and every partial key verifies
    def copy_x(ring):
        return _with_first_user(ring, x=ring["users"][1]["x"])

    _assert_keyring_rejected(tmp_path, capsys, protocol, copy_x)


@pytest.mark.parametrize("protocol", ["xcq11", "xcl12"])
def test_keyring_whose_kgc_key_does_not_give_p0_is_io_error(tmp_path, capsys, protocol):
    # an in-range scalar that is not the master key of P0: a user's secret value
    def copy_x(ring):
        return {**ring, "kgc": {"x": ring["users"][0]["x"]}}

    _assert_keyring_rejected(tmp_path, capsys, protocol, copy_x)


#: a stored run report whose keyring does not fit its own config: the
#: record is inconsistent, and no flag of the command line is at fault
MISMATCHED_KEYRING_REPORTS = {
    "keyring-of-the-other-family": lambda report, other: {**report, "keyring": other},
    "other-key-bits": lambda report, other: {**report, "config": {**report["config"], "key_bits": 128}},
    "other-identities": lambda report, other: {**report, "config": {**report["config"], "identities": ["x", "y", "z"]}},
    "other-profile": lambda report, other: {**report, "config": {**report["config"], "profile": "t1009"}},
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_KEYRING_REPORTS))
@pytest.mark.parametrize("command", [("replay",), ("run", "--replay")], ids=["replay", "run-replay"])
def test_report_whose_keyring_does_not_fit_its_config_is_io_error(tmp_path, capsys, case, command):
    keys, other, report = (tmp_path / n for n in ("keys.json", "other.json", "run.json"))
    assert run_cli("keygen", "--protocol", "xcq11", "--seed", "4", "--out", str(keys)) == 0
    assert run_cli("keygen", "--protocol", "xcl12", "--seed", "4", "--out", str(other)) == 0
    assert run_cli("run", "--protocol", "xcq11", "--keys", str(keys), "--out", str(report)) == 0
    stored = MISMATCHED_KEYRING_REPORTS[case](json.loads(report.read_text()), json.loads(other.read_text()))
    report.write_text(json.dumps(stored))
    capsys.readouterr()
    assert run_cli(*command, str(report)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["300-other-users", "alice-300-more-times"])
def test_report_whose_keyring_lists_extra_users_is_refused_before_any_key_is_rebuilt(tmp_path, capsys, extra):
    keys, report = tmp_path / "keys.json", tmp_path / "run.json"
    assert run_cli("keygen", "--protocol", "xcq11", "--seed", "4", "--out", str(keys)) == 0
    assert run_cli("run", "--protocol", "xcq11", "--keys", str(keys), "--out", str(report)) == 0
    stored = json.loads(report.read_text())
    users = stored["keyring"]["users"]
    users += [{**users[0], "id": f"user{i}"} if extra == "300-other-users" else users[0] for i in range(300)]
    report.write_text(json.dumps(stored))
    capsys.readouterr()
    assert run_cli("replay", str(report)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    counter = OpCounter()
    with pytest.raises(EncodingError), metered(counter):
        harness.regenerate_report(stored)
    assert counter == OpCounter()


def test_key_file_of_the_other_family_is_usage_error(tmp_path, capsys):
    # here the --protocol flag names the other family
    keys = tmp_path / "keys.json"
    assert run_cli("keygen", "--protocol", "xcl12", "--seed", "4", "--out", str(keys)) == 0
    capsys.readouterr()
    assert run_cli("run", "--protocol", "xcq11", "--keys", str(keys)) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_identity_that_is_not_utf8_is_usage_error(capsys):
    # an undecodable byte of the command line reaches argv as a lone surrogate
    for command in (("run", "--protocol", "xcq11"), ("keygen", "--protocol", "xcl12"), ("count-ops",)):
        assert run_cli(*command, "--ids", "\udcff,b,c") == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err


#: a JSON integer longer than CPython's default limit of 4300 digits for int/str conversion
TOO_MANY_DIGITS = "7" * 5000


@pytest.mark.parametrize("command", [("replay",), ("run", "--replay")], ids=["replay", "run-replay"])
def test_report_with_an_integer_past_the_digit_limit_is_io_error(tmp_path, capsys, command):
    path = tmp_path / "report.json"
    path.write_text('{"kind": "run", "config": {"protocol": "xcq11", "seed": %s}}' % TOO_MANY_DIGITS)
    assert run_cli(*command, str(path)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_report_nested_past_the_recursion_limit_is_io_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli("replay", str(path)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_keyring_with_an_integer_past_the_digit_limit_is_io_error(tmp_path, capsys):
    keys = tmp_path / "keys.json"
    assert run_cli("keygen", "--protocol", "xcq11", "--seed", "4", "--out", str(keys)) == 0
    ring = json.dumps({**json.loads(keys.read_text()), "key_bits": 0})
    keys.write_text(ring.replace('"key_bits": 0', '"key_bits": ' + TOO_MANY_DIGITS))
    capsys.readouterr()
    assert run_cli("run", "--protocol", "xcq11", "--keys", str(keys)) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err
