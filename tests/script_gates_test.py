#!/usr/bin/env python3
"""ctest smoke tests for the repo's gate scripts.

Three modes, registered as separate ctest entries so failures localize:

  regen       scripts/regen_golden_traces.py must be idempotent: a run
              redirected into a scratch directory (--golden-dir) exits
              0 and reproduces the checked-in tests/golden files
              byte-for-byte. Any mismatch means the simulator and the
              committed goldens have drifted apart — exactly what the
              golden suite exists to catch — or that the regen script
              writes something other than what the tests compare.

  paper       scripts/check_paper.py must accept a synthetic
              bench_paper output on which every paper claim holds,
              and reject it with each claim flipped in turn, naming
              the flipped claim as failed.

  explore     scripts/check_explore.py must accept a healthy synthetic
              explore report, a healthy v2 compare report and its warm
              cache rerun, and reject unbalanced coverage books, a
              missing pair, a zero IPC, a doctored speedup and a warm
              rerun that simulated.

usage: script_gates_test.py REPO_ROOT BUILD_DIR {regen|paper|explore}
"""

import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile


def run_regen(repo_root: str, build_dir: str) -> int:
    script = os.path.join(repo_root, "scripts", "regen_golden_traces.py")
    golden = os.path.join(repo_root, "tests", "golden")
    committed = sorted(
        name for name in os.listdir(golden) if name.endswith(".txt")
    )
    if not committed:
        print(f"FAIL: no committed golden files under {golden}")
        return 1

    with tempfile.TemporaryDirectory(prefix="apres_regen_") as scratch:
        for attempt in (1, 2):  # second run proves idempotence
            result = subprocess.run(
                [
                    sys.executable,
                    script,
                    "--build-dir",
                    build_dir,
                    "--golden-dir",
                    scratch,
                ],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                print(f"FAIL: regen run {attempt} exited "
                      f"{result.returncode}\n{result.stdout}"
                      f"{result.stderr}")
                return 1
            produced = sorted(os.listdir(scratch))
            if produced != committed:
                print(f"FAIL: run {attempt} produced {produced}, "
                      f"committed set is {committed}")
                return 1
            for name in committed:
                a = os.path.join(golden, name)
                b = os.path.join(scratch, name)
                if not filecmp.cmp(a, b, shallow=False):
                    print(f"FAIL: run {attempt}: regenerated {name} "
                          "differs from the checked-in golden — "
                          "simulator and goldens have drifted")
                    return 1
            print(f"ok: run {attempt} reproduced "
                  f"{len(committed)} golden files exactly")
    return 0


def paper_output(flips):
    """A bench_paper output in its own layout, with every paper claim
    holding except where @p flips overrides a cell: (table, row,
    column) -> value, or "total" -> Table II's total."""

    def tab(key, title, columns, rows):
        lines = [f"=== {title} ===", "",
                 f"{'app':<8}" + "".join(f"{c:>12}" for c in columns)]
        for label, row in rows:
            lines.append(f"{label:<8}" + "".join(
                f"{flips.get((key, label, c), v):>12.3f}"
                for c, v in zip(columns, row)))
        return "\n".join(lines) + "\n"

    fig10 = ["CCWS", "LAWS", "CCWS+STR", "LAWS+STR", "APRES"]
    fig03 = ["PA+STR", "PA+SLD", "GTO+STR", "GTO+SLD", "MASCAR+STR",
             "MASCAR+SLD", "CCWS+STR", "CCWS+SLD"]
    return "\n".join([
        tab("fig10", "Figure 10: IPC normalized to baseline (LRR)", fig10,
            [("KM", [1.633, 1.001, 1.658, 0.990, 0.977]),
             ("GM-all", [1.023, 1.013, 1.065, 1.041, 1.100]),
             ("GM-mem", [1.047, 1.030, 1.104, 1.066, 1.148])]),
        tab("fig03", "Figure 3: existing scheduling x prefetching combos",
            fig03, [("GM", [1.031, 1.024, 1.039, 1.027, 0.995, 0.996,
                            1.065, 1.036])]),
        tab("fig12", "Figure 12: early eviction ratio",
            ["CCWS+STR", "APRES"], [("AVG", [0.127, 0.047])]),
        "=== Table II: hardware cost of APRES ===\n\n"
        f"Total         = {flips.get('total', 724)} B  (paper: 724 B)\n",
    ])


def run_paper(repo_root: str) -> int:
    script = os.path.join(repo_root, "scripts", "check_paper.py")

    def check(label, flips, failed_claim):
        with tempfile.TemporaryDirectory(prefix="apres_paper_") as d:
            path = os.path.join(d, "bench_output.txt")
            with open(path, "w") as f:
                f.write(paper_output(flips))
            result = subprocess.run([sys.executable, script, path],
                                    capture_output=True, text=True)
        failed = set(re.findall(r"^FAIL\s+(\S+)", result.stdout, re.M))
        want = {failed_claim} if failed_claim else set()
        if (result.returncode != 0) != bool(failed_claim) or \
                not want <= failed:
            print(f"FAIL: {label}: exit {result.returncode}, failed "
                  f"claims {sorted(failed)}\n{result.stdout}"
                  f"{result.stderr}")
            return 1
        print(f"ok: {label}: exit {result.returncode}, failed "
              f"{sorted(failed)}")
        return 0

    rc = check("healthy output passes", {}, None)
    for claim, flips in [
        ("fig10-gm-all", {("fig10", "GM-all", "CCWS+STR"): 1.2}),
        ("fig10-gm-mem", {("fig10", "GM-mem", "LAWS+STR"): 1.2}),
        ("fig10-km", {("fig10", "KM", "APRES"): 1.64}),
        ("fig10-km", {("fig10", "KM", "CCWS"): 0.9}),
        ("fig03-best", {("fig03", "GM", "MASCAR+STR"): 1.1}),
        ("fig03-pa", {("fig03", "GM", "PA+SLD"): 1.032}),
        ("fig03-gto", {("fig03", "GM", "GTO+SLD"): 1.04}),
        ("fig03-ccws", {("fig03", "GM", "CCWS+SLD"): 1.07}),
        ("fig12-avg", {("fig12", "AVG", "APRES"): 0.2}),
        ("table02-total", {"total": 725}),
    ]:
        rc |= check(f"flipped {claim} trips the gate", flips, claim)
    return rc


def run_explore(repo_root: str) -> int:
    script = os.path.join(repo_root, "scripts", "check_explore.py")
    explore = {
        "schema": "apres-explore-report-v1",
        "seed": 1,
        "budget": 2,
        "probes": [{"label": "apres", "overrides": {"scheduler": "laws"}}],
        "initialCoverage": 3,
        "finalCoverage": 5,
        "newBins": 2,
        "rounds": [
            {"mode": "fresh", "name": "x000", "accepted": True,
             "newBins": ["apres:status=ok", "apres:l1-miss@2^4"]},
            {"mode": "mutate", "name": "x001", "accepted": False,
             "newBins": []},
        ],
        "corpus": [{"name": "x000", "signature": "sig v1", "kept": True}],
        "coverage": {"total": 5, "bins": ["a", "b", "c", "d", "e"]},
    }

    def pair(kernel, ipc_base, ipc_cand):
        return {"kernel": kernel, "baseline": "lrr+none",
                "candidate": "laws+sap", "ipcBaseline": ipc_base,
                "ipcCandidate": ipc_cand, "speedup": ipc_cand / ipc_base}

    compare = {
        "tool": "apres_explore",
        "schema": "apres-compare-report-v2",
        "mode": "compare",
        "policies": [{"label": "lrr+none"}, {"label": "laws+sap"}],
        "kernels": [{"label": "KM"}, {"label": "BFS"}],
        "pairs": [pair("KM", 3.7321648052156253, 3.686363516402312),
                  pair("BFS", 7.80562027483239, 8.034849003964563)],
        "simulations": 4,
        "cacheHits": 0,
    }
    warm = dict(compare, simulations=0, cacheHits=4)

    def doctored(doc, edit):
        copy = json.loads(json.dumps(doc))
        edit(copy)
        return copy

    def check(label, mode, doc, failure, warm_doc=None):
        """@p failure: None to expect a pass, else a fragment the
        rejection message must contain (the gate failed for the right
        reason)."""
        with tempfile.TemporaryDirectory(prefix="apres_explore_") as d:
            path = os.path.join(d, "report.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            cmd = [sys.executable, script, mode, path]
            if warm_doc is not None:
                warm_path = os.path.join(d, "warm.json")
                with open(warm_path, "w") as f:
                    json.dump(warm_doc, f)
                cmd += ["--warm", warm_path]
            result = subprocess.run(cmd, capture_output=True, text=True)
        if failure is None:
            ok = result.returncode == 0
        else:
            ok = result.returncode != 0 and failure in result.stderr
        if not ok:
            want = "a pass" if failure is None else f"FAIL: ...{failure}"
            print(f"FAIL: {label}: expected {want}, got exit "
                  f"{result.returncode}\n{result.stdout}{result.stderr}")
            return 1
        print(f"ok: {label}: exit {result.returncode} as expected")
        return 0

    def set_key(key, value):
        return lambda doc: doc.__setitem__(key, value)

    def set_pair(key, value):
        return lambda doc: doc["pairs"][0].__setitem__(key, value)

    rc = check("healthy explore report passes", "explore", explore, None)
    rc |= check("healthy compare report passes", "compare", compare, None)
    rc |= check("healthy warm rerun passes", "compare", compare, None,
                warm)
    rc |= check("unbalanced coverage books trip the gate", "explore",
                doctored(explore, set_key("newBins", 3)),
                "coverage books don't balance")
    rc |= check("a missing pair trips the gate", "compare",
                doctored(compare, lambda doc: doc["pairs"].pop()),
                "missing [('BFS', 'lrr+none', 'laws+sap')]")
    rc |= check("a zero IPC trips the gate", "compare",
                doctored(compare, set_pair("ipcBaseline", 0)),
                "ipcBaseline=0 not finite > 0")
    rc |= check("a doctored speedup trips the gate", "compare",
                doctored(compare, set_pair("speedup", 0.99)),
                "speedup 0.99 != ipcCandidate / ipcBaseline")
    rc |= check("a warm rerun that simulated trips the gate", "compare",
                compare, "warm rerun ran 1 simulations",
                doctored(warm, lambda doc: doc.update(simulations=1,
                                                      cacheHits=3)))
    return rc


def main() -> int:
    modes = ("regen", "paper", "explore")
    if len(sys.argv) != 4 or sys.argv[3] not in modes:
        print(__doc__, file=sys.stderr)
        return 2
    repo_root, build_dir, mode = sys.argv[1:4]
    if mode == "regen":
        return run_regen(repo_root, build_dir)
    if mode == "paper":
        return run_paper(repo_root)
    return run_explore(repo_root)


if __name__ == "__main__":
    sys.exit(main())
