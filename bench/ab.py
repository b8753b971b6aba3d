"""In-process A/B of two clakalab trees: whole honest sessions per profile and variant.

Loads the package twice in one interpreter, once from a git revision (the
parent, unpacked with ``git archive``) and once from a source directory (by
default this checkout's ``src/``), as two packages under different names.
Both run the same seeds; within each round the variants come in shuffled
order, and a coin decides which tree runs each pair first.  A pair's two
reports must be byte-identical, or the script stops.

Usage, from the root of the repository, once the change is committed
(``--parent HEAD`` compares an uncommitted ``src/`` with the last commit):

    python3 bench/ab.py --parent HEAD~1 --out BENCH_NN.json

Figures per profile and variant: the median ms per session of each side,
the parent's quartiles, change/parent as a ratio of medians, the share of
pairs the change won, the median pair ratio for each run order, and each
side's group operations in one whole session (seed 1, keygen and report
included), as ``OpCounter`` counts them, beside its field inversions: the
``pow(v, -1, m)`` calls of the backend module, counted by a stand-in for
``pow`` put into that module from here.

When t256 is among the profiles, an A/A row measures the parent against a
second load of itself by the same method: t256 sessions take well under a
millisecond, and its pair counts stray from even on identical code.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

VARIANTS = ("xcq11", "xcq11i", "xcl12", "xcl12i")

#: (profile, rounds, sessions per sample): a t256 session takes under a
#: millisecond, so its samples are batches
PLANS = (("c160", 30, 1), ("c256", 12, 1), ("t256", 40, 25))


def load_tree(name: str, src_dir: str):
    """Import ``src_dir/clakalab`` as the package ``name``; return the modules the runs use."""
    pkg_dir = os.path.join(src_dir, "clakalab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("harness", "pairing", "wire")}


def unpack_revision(rev: str, into: str) -> str:
    archive = subprocess.run(["git", "archive", rev, "src/clakalab"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return os.path.join(into, "src")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def session_sample(tree, profile: str, protocol: str, seeds) -> tuple[float, list[bytes]]:
    """Mean ms per honest session (keygen and report included) over ``seeds``, and the reports."""
    harness, wire = tree["harness"], tree["wire"]
    reports = []
    gc.collect()
    start = time.perf_counter()
    for seed in seeds:
        config = harness.ScenarioConfig(protocol=protocol, profile=profile, seed=seed)
        reports.append(harness.build_run_report(harness.run_honest_session(config)))
    elapsed = time.perf_counter() - start
    return elapsed * 1000 / len(seeds), [wire.canonical_json(r) for r in reports]


def session_ops(tree, profile: str, protocol: str, seed: int) -> dict:
    """Group operations of one whole honest session and its report.

    An inner ``metered`` block counts toward its own counter only, so the
    parties' counters are added to the outer block's.
    """
    harness, pairing = tree["harness"], tree["pairing"]
    outer = pairing.OpCounter()
    with pairing.metered(outer):
        run = harness.run_honest_session(harness.ScenarioConfig(protocol=protocol, profile=profile, seed=seed))
        harness.build_run_report(run)
    total = outer.as_dict()
    for counter in run.op_counts.values():
        for name, count in counter.as_dict().items():
            total[name] += count
    return total


def session_inversions(tree, profile: str, protocol: str, seed: int) -> int:
    """Field inversions of one whole honest session and its report."""
    harness, pairing = tree["harness"], tree["pairing"]
    count = 0

    def counting_pow(base, exp, mod=None):
        nonlocal count
        count += exp == -1
        return pow(base, exp, mod)

    pairing.pow = counting_pow  # module globals come before builtins
    try:
        config = harness.ScenarioConfig(protocol=protocol, profile=profile, seed=seed)
        harness.build_run_report(harness.run_honest_session(config))
    finally:
        del pairing.pow
    return count


def quartiles(values) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def compare_sessions(trees, profile: str, rounds: int, batch: int, rng) -> dict:
    pairs = {v: [] for v in VARIANTS}
    for r in range(rounds):
        seeds = range(1000 * r + 1, 1000 * r + 1 + batch)
        for protocol in rng.sample(VARIANTS, len(VARIANTS)):
            order = rng.sample(("parent", "change"), 2)
            timed = {side: session_sample(trees[side], profile, protocol, seeds) for side in order}
            if timed["parent"][1] != timed["change"][1]:
                raise SystemExit(f"{profile} {protocol} seeds {seeds}: the two trees' reports differ")
            pairs[protocol].append((timed["parent"][0], timed["change"][0], order[0]))
    out = {}
    for protocol, samples in pairs.items():
        parent = [p for p, _, _ in samples]
        change = [c for _, c, _ in samples]
        by_order = {
            first: statistics.median(c / p for p, c, f in samples if f == first) if any(f == first for *_, f in samples) else None
            for first in ("parent", "change")
        }
        out[protocol] = {
            "pairs": len(samples),
            "sessions_per_sample": batch,
            "parent_median_ms": statistics.median(parent),
            "parent_quartiles_ms": quartiles(parent),
            "change_median_ms": statistics.median(change),
            "change_quartiles_ms": quartiles(change),
            "ratio_of_medians": statistics.median(change) / statistics.median(parent),
            "change_better_in": sum(c < p for p, c, _ in samples),
            "median_pair_ratio": statistics.median(c / p for p, c, _ in samples),
            "median_pair_ratio_parent_first": by_order["parent"],
            "median_pair_ratio_change_first": by_order["change"],
            "ops_per_session": {side: session_ops(trees[side], profile, protocol, 1) for side in ("parent", "change")},
            "inversions_per_session": {
                side: session_inversions(trees[side], profile, protocol, 1) for side in ("parent", "change")
            },
        }
    parent_all = sum(o["parent_median_ms"] for o in out.values())
    change_all = sum(o["change_median_ms"] for o in out.values())
    out["all_four"] = {"ratio_of_summed_medians": change_all / parent_all}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent tree")
    parser.add_argument("--change", default="src", help="source directory of the changed tree")
    parser.add_argument("--seed", type=int, default=23, help="seed of the run order")
    parser.add_argument("--profiles", default="c160,c256,t256", help="comma-separated profiles of the session A/B")
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    plans = [plan for plan in PLANS if plan[0] in args.profiles.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        parent_src = unpack_revision(args.parent, tmp)
        trees = {
            "parent": load_tree("clakalab_parent", parent_src),
            "change": load_tree("clakalab_change", args.change),
        }
        aa_plans = [plan for plan in plans if plan[0] == "t256"]
        if aa_plans:  # the A/A row's "change" is a second load of the parent tree
            trees["parent_again"] = load_tree("clakalab_parent_again", parent_src)
        for tree in trees.values():  # backends and P's comb are built once per process
            for profile, _, _ in plans:
                session_sample(tree, profile, "xcq11", [0])
        result = {
            "meta": {
                "what": "change/parent in one interpreter, same seeds, shuffled order",
                "parent": git("rev-parse", args.parent),
                "change": args.change,
                "head": git("rev-parse", "HEAD"),
                "src_differs_from_head": bool(git("status", "--porcelain", "--", "src")),
                "python": platform.python_version(),
                "cpu_model": cpu_model(),
                "nproc": os.cpu_count(),
                "date": time.strftime("%Y-%m-%d", time.gmtime()),
                "seed": args.seed,
            },
            "sessions": {profile: compare_sessions(trees, profile, rounds, batch, rng) for profile, rounds, batch in plans},
        }
        if aa_plans:
            twin = {"parent": trees["parent"], "change": trees["parent_again"]}
            result["aa_sessions"] = {p: compare_sessions(twin, p, rounds, batch, rng) for p, rounds, batch in aa_plans}
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
