#!/usr/bin/env python3
"""End-to-end checks of the apres_sim binary's batch path.

usage: apres_sim_cli_test.py APRES_SIM CASE

CASE is one of:
  unknown-workload   --workload BOGUS exits 1 with a ConfigError
  deadlock-rows      a watchdog of one cycle gives one DeadlockError row
                     per workload under --json, and exit code 1
  trace-one-job      --trace with more than one job is a ConfigError
                     before any run; with one job it writes the trace
  timeline-workload  every --timeline row names its workload, in
                     submission order

Exits 0 when the case holds, 1 with a message otherwise.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile

# Table IV order: the order `--workload all` submits and prints.
ALL = ["BFS", "MUM", "NW", "SPMV", "KM", "LUD", "SRAD", "PA", "HISTO",
       "BP", "PF", "CS", "ST", "HS", "SP"]


def run(sim, *args):
    return subprocess.run([sim, *args], capture_output=True, text=True,
                          timeout=600)


def expect(ok, what, result=None):
    if ok:
        return
    print("FAIL: " + what)
    if result is not None:
        print("exit code:", result.returncode)
        print("stdout:", result.stdout[:2000])
        print("stderr:", result.stderr[:2000])
    sys.exit(1)


def case_unknown_workload(sim):
    r = run(sim, "--workload", "BOGUS")
    expect(r.returncode == 1, "exit code 1", r)
    expect('ConfigError: unknown workload "BOGUS"' in r.stderr,
           "a ConfigError naming the workload", r)
    expect(r.stdout == "", "nothing on stdout", r)


def case_deadlock_rows(sim):
    r = run(sim, "--workload", "all", "--scale", "0.01",
            "--set", "sim.watchdogCycles=1", "--json")
    expect(r.returncode == 1, "exit code 1", r)
    runs = json.loads(r.stdout)["runs"]
    expect([row["workload"] for row in runs] == ALL,
           "one row per workload, in order", r)
    for row in runs:
        expect(row["status"] == "error" and
               row["error"]["kind"] == "DeadlockError",
               row["workload"] + " is a DeadlockError row", r)


def case_trace_one_job(sim):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        r = run(sim, "--workload", "all", "--scale", "0.01",
                "--trace", path)
        expect(r.returncode == 1, "exit code 1 for 15 jobs", r)
        expect("ConfigError" in r.stderr and "sim.traceFile" in r.stderr,
               "a ConfigError naming sim.traceFile", r)
        expect(r.stdout == "" and not os.path.exists(path),
               "no run and no trace file", r)

        r = run(sim, "--workload", "KM", "--scale", "0.01",
                "--trace", path, "--quiet")
        expect(r.returncode == 0, "one job traces", r)
        with open(path) as f:
            expect("traceEvents" in json.load(f), "a Chrome trace", r)


def case_timeline_workload(sim):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "timeline.csv")
        r = run(sim, "--workload", "all", "--scale", "0.01",
                "--timeline", path, "--interval", "20000", "--quiet")
        expect(r.returncode == 0, "exit code 0", r)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        expect(rows[0][0] == "workload", "first column is workload", r)
        expect("cycleEnd" in rows[0], "samples keep cycleEnd", r)
        order = []
        for row in rows[1:]:
            expect(row[0] in ALL, "row names a workload: %s" % row, r)
            if not order or order[-1] != row[0]:
                order.append(row[0])
        expect(order == ALL, "rows grouped in submission order: %s" % order,
               r)


CASES = {
    "unknown-workload": case_unknown_workload,
    "deadlock-rows": case_deadlock_rows,
    "trace-one-job": case_trace_one_job,
    "timeline-workload": case_timeline_workload,
}


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in CASES:
        print(__doc__)
        return 2
    CASES[sys.argv[2]](sys.argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
