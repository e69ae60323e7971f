#!/usr/bin/env python3
"""Run the repository benchmark, one workload or all three.

    python3 perfbench/run.py --workload fullchip-apres --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

Builds the simulator and the harness from source (Release) under
.bench_build/ in the checkout, runs the harness in a scratch directory
there, records the full result with its provenance under
.bench_build/results/, and prints a readable report followed by one
JSON line with "correct", "attempted", "failed" and "metrics" (the
end-to-end metrics, or with --trace 1 the per-layer metrics) per
workload. Exits non-zero when any output was wrong, and
without a result when the simulator cannot be built.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"
WORKLOADS = ("fullchip-apres", "paper-suite", "serve-mixed")
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (re)build the harness, daemon and tests."""
    log_path = OUT_DIR / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench_harness", "apres_serve", "perfbench_tests",
                      "-j", str(len(os.sched_getaffinity(0)))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")


def run_group(cmd, cwd, timeout):
    """Run @cmd in its own process group; kill the whole group if it
    outlives @timeout, so no daemon it spawned survives."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s", 1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def provenance(build_info, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    # The checkout may not be a git repository: a digest of the sources
    # identifies the code either way.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpuModel": cpu,
        "compiler": build_info["compiler"],
        "buildType": build_info["type"],
        "optimized": build_info["optimized"],
        "gitCommit": commit,
        "sourceDigest": digest.hexdigest(),
        "seed": seed,
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def print_report(result):
    print(f"== perfbench {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])}")
    prov = result["provenance"]
    print(f"   host: {prov['nproc']} CPUs, {prov['cpuModel']}; "
          f"{prov['compiler']} {prov['buildType']}; "
          f"commit {prov['gitCommit'] or 'n/a'}")
    for note in result["notes"]:
        print(f"   note: {note['note']}")
    section = "layers" if result["trace"] else "report"
    for name, m in result[section].items():
        print(f"   {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"   {'failed_frac':36s} {result['failedFrac']:.6g} frac "
          f"({result['failed']} of {result['attempted']})")
    for f in result["failures"]:
        print(f"   FAILED: {f['what']}")


def run_workload(workload, seed, seconds, trace):
    """Run one workload; print its report and result line.
    @return whether every output was correct."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = OUT_DIR / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench_harness"),
           "--workload", workload,
           "--seed", str(seed),
           "--seconds", str(seconds),
           "--trace", str(trace),
           "--serve-bin", str(BUILD_DIR / "apres" / "tools" / "apres_serve")]
    if trace:
        cmd += ["--span-file", str(results_dir / f"{tag}.spans.json")]
    code, out = run_group(cmd, work, HARNESS_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail(f"harness exited with {code}", 1)

    result = json.loads(out)
    result["provenance"] = provenance(result.pop("build"), seed)
    if not result["provenance"]["optimized"]:
        fail("refusing to record from a non-optimised build", 1)
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=2))
    print_report(result)

    end_to_end, per_layer = declared_metrics()
    metrics = result["layers"] if trace else result["endToEnd"]
    wanted = per_layer if trace else end_to_end
    missing = [n for n in wanted if n not in metrics]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}", 1)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in wanted},
    }), flush=True)
    return bool(result["correct"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "checkout of the repository")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
    if args.self_test:
        return subprocess.run([str(BUILD_DIR / "perfbench_tests")]).returncode

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [run_workload(w, args.seed, args.seconds, args.trace)
               for w in workloads]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
