#!/usr/bin/env python3
"""CI gate over apres_explore output.

Validates the two report documents the tool emits:

  explore REPORT.json   schema apres-explore-report-v1 — structural
                        check of every field the exploration loop
                        promises, plus the smoke assertion that the
                        campaign made progress: >= MIN_NEW_BINS fresh
                        coverage bins (cold corpus must discover
                        behavior, or the coverage map is broken).

  compare REPORT.json   schema apres-compare-report-v2 — every ordered
                        policy pair on every kernel exactly once, each
                        (kernel, policy) cell accounted for once as a
                        simulation or a cache hit, finite positive
                        IPCs, and speedup == ipcCandidate / ipcBaseline
                        within 1e-12 relative.

  compare COLD.json --warm WARM.json
                        additionally checks the result-cache contract:
                        WARM is the same comparison rerun on COLD's
                        --cache-dir, so it must simulate nothing, hit
                        the cache for every cell, and report pairs
                        identical to COLD's.

usage:
    check_explore.py explore REPORT.json [--min-new-bins 1]
    check_explore.py compare REPORT.json [--warm WARM.json]

Exit 0 when the report is well-formed and the assertions hold, 1
otherwise.
"""

import argparse
import json
import math
import sys
from collections import Counter


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return 1


def require(doc, key, types, where):
    if key not in doc:
        raise ValueError(f"{where}: missing key '{key}'")
    if not isinstance(doc[key], types):
        raise ValueError(
            f"{where}: '{key}' is {type(doc[key]).__name__}, "
            f"want {types}"
        )
    return doc[key]


def check_explore(doc, min_new_bins):
    if require(doc, "schema", str, "report") != "apres-explore-report-v1":
        raise ValueError(f"unexpected schema {doc['schema']!r}")
    require(doc, "seed", int, "report")
    budget = require(doc, "budget", int, "report")
    probes = require(doc, "probes", list, "report")
    if not probes:
        raise ValueError("no probes in report")
    for i, probe in enumerate(probes):
        require(probe, "label", str, f"probes[{i}]")
        require(probe, "overrides", dict, f"probes[{i}]")
    initial = require(doc, "initialCoverage", int, "report")
    final = require(doc, "finalCoverage", int, "report")
    new_bins = require(doc, "newBins", int, "report")
    if final != initial + new_bins:
        raise ValueError(
            f"coverage books don't balance: initial {initial} + new "
            f"{new_bins} != final {final}"
        )
    rounds = require(doc, "rounds", list, "report")
    if len(rounds) != budget:
        raise ValueError(f"{len(rounds)} rounds recorded, budget {budget}")
    for i, rnd in enumerate(rounds):
        require(rnd, "mode", str, f"rounds[{i}]")
        require(rnd, "name", str, f"rounds[{i}]")
        require(rnd, "accepted", bool, f"rounds[{i}]")
        require(rnd, "newBins", list, f"rounds[{i}]")
    corpus = require(doc, "corpus", list, "report")
    for i, entry in enumerate(corpus):
        require(entry, "name", str, f"corpus[{i}]")
        require(entry, "signature", str, f"corpus[{i}]")
        require(entry, "kept", bool, f"corpus[{i}]")
    coverage = require(doc, "coverage", dict, "report")
    total = require(coverage, "total", int, "coverage")
    if total != final:
        raise ValueError(
            f"coverage.total {total} != finalCoverage {final}"
        )
    bins = require(coverage, "bins", list, "coverage")
    if len(bins) != total:
        raise ValueError(f"{len(bins)} bins listed, total says {total}")

    if new_bins < min_new_bins:
        raise ValueError(
            f"campaign found {new_bins} new bins, need >= {min_new_bins}"
        )
    kept = sum(1 for e in corpus if e["kept"])
    print(
        f"ok: explore report valid — {len(rounds)} rounds, "
        f"{new_bins} new bins, coverage {initial} -> {final}, "
        f"{kept}/{len(corpus)} corpus entries kept"
    )


def positive_number(doc, key, where):
    value = require(doc, key, (int, float), where)
    if isinstance(value, bool) or not math.isfinite(value) or value <= 0:
        raise ValueError(f"{where}: {key}={value!r} not finite > 0")
    return value


def check_compare(doc):
    if require(doc, "schema", str, "report") != "apres-compare-report-v2":
        raise ValueError(f"unexpected schema {doc['schema']!r}")
    policies = [require(p, "label", str, "policies[]")
                for p in require(doc, "policies", list, "report")]
    if len(policies) < 2:
        raise ValueError("need >= 2 policies for a comparison")
    kernels = [require(k, "label", str, "kernels[]")
               for k in require(doc, "kernels", list, "report")]
    if not kernels:
        raise ValueError("no kernels in report")
    pairs = require(doc, "pairs", list, "report")
    expected = Counter(
        (k, policies[a], policies[b])
        for k in kernels
        for a in range(len(policies))
        for b in range(a + 1, len(policies))
    )
    seen = Counter()
    for i, pair in enumerate(pairs):
        where = f"pairs[{i}]"
        seen[(require(pair, "kernel", str, where),
              require(pair, "baseline", str, where),
              require(pair, "candidate", str, where))] += 1
        base = positive_number(pair, "ipcBaseline", where)
        cand = positive_number(pair, "ipcCandidate", where)
        speedup = positive_number(pair, "speedup", where)
        if abs(speedup - cand / base) > 1e-12 * (cand / base):
            raise ValueError(
                f"{where}: speedup {speedup!r} != ipcCandidate / "
                f"ipcBaseline = {cand / base!r}"
            )
    if seen != expected:
        missing = sorted((expected - seen).elements())
        extra = sorted((seen - expected).elements())
        raise ValueError(
            f"pairs do not cover every (kernel, baseline, candidate) "
            f"exactly once: missing {missing}, unexpected {extra}"
        )
    sims = require(doc, "simulations", int, "report")
    hits = require(doc, "cacheHits", int, "report")
    cells = len(kernels) * len(policies)
    if sims + hits != cells:
        raise ValueError(
            f"{sims} simulations + {hits} cache hits != {cells} cells "
            f"({len(kernels)} kernels x {len(policies)} policies)"
        )
    print(
        f"ok: compare report valid — {len(pairs)} pairs over {cells} "
        f"cells ({sims} simulations, {hits} cache hits)"
    )


def check_warm(cold, warm):
    check_compare(warm)
    cells = cold["simulations"] + cold["cacheHits"]
    if warm["simulations"] != 0 or warm["cacheHits"] != cells:
        raise ValueError(
            f"warm rerun ran {warm['simulations']} simulations with "
            f"{warm['cacheHits']} cache hits; want 0 and {cells}"
        )
    if warm["pairs"] != cold["pairs"]:
        raise ValueError("warm rerun reports pairs that differ from cold")
    print(f"ok: warm rerun served all {cells} cells from the cache")


def load(path):
    with open(path) as f:
        return json.load(f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("explore", "compare"))
    parser.add_argument("report", help="report JSON from apres_explore")
    parser.add_argument("--min-new-bins", type=int, default=1)
    parser.add_argument("--warm", help="compare: warm rerun report JSON")
    args = parser.parse_args()

    try:
        doc = load(args.report)
        warm = load(args.warm) if args.warm else None
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read report: {e}")

    try:
        if args.mode == "explore":
            check_explore(doc, args.min_new_bins)
        else:
            check_compare(doc)
            if warm is not None:
                check_warm(doc, warm)
    except ValueError as e:
        return fail(str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
