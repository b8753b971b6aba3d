"""Command-line front end: keygen, run, attack, count-ops, replay.

Exit codes:
    0  expected outcome (agreement held, attack matched its documented result)
    2  usage error (unknown flags, attack/protocol combination not defined)
    3  I/O or encoding error (unreadable files, malformed records)
    4  protocol abort (signature rejection and other protocol failures)
    5  unexpected outcome (attack result or replay differs from expectation)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import attacks, harness, keyinfra, wire
from .errors import ClakaError, EncodingError, ScenarioError, SignatureInvalidError
from .pairing import PROFILE_NAMES, default_profile
from .session import PROTOCOL_VARIANTS, canonical_identities, family

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ABORT = 4
EXIT_UNEXPECTED = 5


def _add_protocol(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--protocol",
        choices=PROTOCOL_VARIANTS,
        required=required,
        help="protocol variant (trailing 'i' marks the repaired variant)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("transparent", "crypto"),
        default="transparent",
        help="backend kind; selects the default parameter profile",
    )
    parser.add_argument(
        "--profile",
        choices=PROFILE_NAMES,
        default=None,
        help="explicit parameter profile (overrides --backend's default)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed; all randomness derives from it")
    parser.add_argument(
        "--ids",
        default=",".join(harness.DEFAULT_IDENTITIES),
        help="comma-separated participant identities (exactly three)",
    )
    parser.add_argument("--out", default=None, help="write the JSON report/record to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clakalab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate KGC and user key material")
    _add_protocol(p)
    _add_common(p)

    p = sub.add_parser("run", help="run one honest session")
    _add_protocol(p, required=False)
    _add_common(p)
    p.add_argument("--keys", default=None, help="key file from 'keygen' instead of seed-derived keys")
    p.add_argument("--replay", default=None, help="verify that a stored run report reproduces exactly")
    p.add_argument("--verbose", action="store_true", help="print the transcript as well")

    p = sub.add_parser("attack", help="run one attack scenario")
    _add_protocol(p)
    _add_common(p)
    p.add_argument("--attack", choices=sorted(attacks.ATTACK_FAMILIES), required=True)

    p = sub.add_parser("count-ops", help="compare group-operation counts of the shared-values variants")
    _add_common(p)

    p = sub.add_parser("replay", help="re-run a stored report and compare byte-for-byte")
    p.add_argument("report", help="path of a stored JSON report")

    return parser


def _config_from_args(args, protocol=None) -> harness.ScenarioConfig:
    identities = tuple(i for i in args.ids.split(",") if i)
    profile = args.profile or default_profile(args.backend)
    return harness.ScenarioConfig(protocol=protocol or args.protocol, profile=profile, seed=args.seed, identities=identities)


def _write_out(path: str | None, record: dict) -> None:
    data = wire.canonical_json(record)
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _load_json(path: str) -> dict:
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, huge integers, deep nesting
            raise EncodingError(f"{path}: {exc}") from exc


def _cmd_keygen(args) -> int:
    config = _config_from_args(args)
    world = harness.materialize(config)
    fam = family(config.protocol)
    ids = canonical_identities(world.users.keys())
    record = keyinfra.keyring_to_json(fam, world.params, world.msk, [world.users[i] for i in ids])
    _write_out(args.out, record)
    if args.out:
        print(f"wrote {fam} key material for {len(ids)} users to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.replay:
        return _replay(args.replay)
    if args.protocol is None:
        raise ScenarioError("run needs --protocol (or --replay)")

    config = _config_from_args(args)
    keyring = None
    if args.keys:
        keyring = _load_json(args.keys)
        profile, identities, key_bits = keyinfra.keyring_header(keyring)
        try:
            config = replace(config, profile=profile, identities=identities, key_bits=key_bits)
        except ScenarioError as exc:  # the key file names no runnable scenario
            raise EncodingError(f"{args.keys}: {exc}") from exc
    run = harness.run_honest_session(config, keyring=keyring)
    report = harness.build_run_report(run)
    if args.out:
        _write_out(args.out, report)
    if args.verbose:
        sys.stdout.write(wire.canonical_json(run.transcript).decode())
    for party, digest in sorted(report["key_digests"].items()):
        print(f"{party}: {digest}")
    agreement = report["agreement"]
    print(f"agreement: {'yes' if agreement else 'NO'}")
    return EXIT_OK if agreement else EXIT_UNEXPECTED


def _cmd_attack(args) -> int:
    config = _config_from_args(args)
    config = replace(config, attack=args.attack)
    run = harness.run_attack_scenario(config)
    if args.out:
        _write_out(args.out, run.report)
    outcome = run.outcome
    expected = run.report["expected_success"]
    print(f"attack {args.attack} vs {args.protocol}: success={outcome.success} (expected {expected})")
    if outcome.aborted:
        print("aborted honest parties: " + ", ".join(i.decode() for i in outcome.aborted))
    if outcome.failure:
        print(f"failure: {outcome.failure}")
    return EXIT_OK if outcome.success == expected else EXIT_UNEXPECTED


def _cmd_count_ops(args) -> int:
    config = _config_from_args(args, protocol="xcl12")
    report = harness.count_operations(config.seed, config.profile, config.identities)
    if args.out:
        _write_out(args.out, report)
    for party, counts in sorted(report["parties"].items()):
        delta = counts["delta"]
        print(
            f"{party}: point_adds {counts['xcl12']['point_adds']} -> {counts['xcl12i']['point_adds']} "
            f"(delta {delta['point_adds']:+d}), pairings delta {delta['pairings']:+d}, "
            f"scalar_muls delta {delta['scalar_muls']:+d}, g2_exps delta {delta['g2_exps']:+d}"
        )
    return EXIT_OK


def _replay(path: str) -> int:
    match, _ = harness.replay_report(_load_json(path))
    print(f"replay of {path}: {'match' if match else 'MISMATCH'}")
    return EXIT_OK if match else EXIT_UNEXPECTED


_COMMANDS = {
    "keygen": _cmd_keygen,
    "run": _cmd_run,
    "attack": _cmd_attack,
    "count-ops": _cmd_count_ops,
    "replay": lambda args: _replay(args.report),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, EncodingError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SignatureInvalidError as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except ClakaError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
