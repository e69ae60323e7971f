#!/usr/bin/env python3
"""Gate the paper's qualitative claims on bench_paper's output.

Reads the stdout of a full `bench_paper` run (the file EXPERIMENTS.md
calls bench_output.txt), prints the measured and the paper's values
for every claim below, and exits 1 when any claim fails or a table it
needs is missing:

  fig10-gm-all    APRES has the highest Fig. 10 GM over all 15 apps
  fig10-gm-mem    ... and over the memory-intensive apps
  fig10-km        on KM, CCWS and CCWS+STR both beat APRES
  fig03-best      CCWS+STR has the highest Fig. 3 GM of the eight
  fig03-pa, fig03-gto, fig03-ccws
                  STR beats SLD under PA, GTO and CCWS (MASCAR is a
                  documented deviation and not gated)
  fig12-avg       APRES's mean early-eviction ratio is below CCWS+STR's
  table02-total   APRES's storage totals exactly 724 B

The claims are measured at APRES_BENCH_SCALE=1.0. At reduced scale
some do not hold; the KM claim needs the longest runs.

usage: check_paper.py BENCH_OUTPUT
"""

import re
import sys

KM_SCALE_HINT = (
    "KM's CCWS gain needs long runs: CCWS/LRR on KM measured 0.61 at "
    "APRES_BENCH_SCALE=0.2, 1.13 at 0.5 and 1.63 at 1.0; gate a "
    "scale-1.0 run"
)


def sections(text):
    """Map each '=== <name>: ...' title (e.g. 'Figure 10') to its lines."""
    out = {}
    current = None
    for line in text.splitlines():
        m = re.match(r"=== ([^:]+):", line)
        if m:
            current = out.setdefault(m.group(1), [])
        elif current is not None:
            current.append(line)
    return out


def parse_table(lines):
    """Rows of a bench table as {row label: {column: value}}."""
    columns = None
    rows = {}
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "app" and columns is None:
            columns = tokens[1:]
            continue
        if columns is None or len(tokens) != len(columns) + 1:
            continue
        try:
            values = [float(t) for t in tokens[1:]]
        except ValueError:
            continue
        rows[tokens[0]] = dict(zip(columns, values))
    return rows


class Gate:
    def __init__(self, text):
        self.sections = sections(text)
        self.failed = 0

    def table(self, name):
        rows = parse_table(self.sections.get(name, []))
        if not rows:
            raise LookupError(f"no '{name}' table in the output")
        return rows

    def claim(self, key, ok, measured, paper, hint=None):
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {key:<14} measured: {measured}  |  paper: {paper}")
        if not ok:
            self.failed += 1
            if hint:
                print(f"      {hint}")


def best_other(row, name):
    """The highest column of @p row other than @p name."""
    return max((v, k) for k, v in row.items() if k != name)


def check_fig10(gate):
    fig = gate.table("Figure 10")
    for key, label, paper in (
        ("fig10-gm-all", "GM-all", "APRES 1.242 vs LAWS+STR 1.188"),
        ("fig10-gm-mem", "GM-mem", "APRES 1.317, best"),
    ):
        row = fig[label]
        other, other_name = best_other(row, "APRES")
        gate.claim(key, row["APRES"] > other,
                   f"{label} APRES {row['APRES']:.3f} vs "
                   f"{other_name} {other:.3f}", paper)
    km = fig["KM"]
    gate.claim("fig10-km",
               km["CCWS"] > km["APRES"] and km["CCWS+STR"] > km["APRES"],
               f"KM CCWS {km['CCWS']:.3f}, CCWS+STR {km['CCWS+STR']:.3f}, "
               f"APRES {km['APRES']:.3f}",
               "CCWS 2.32, CCWS+STR 2.45, APRES 2.20", KM_SCALE_HINT)


def check_fig03(gate):
    gm = gate.table("Figure 3")["GM"]
    other, other_name = best_other(gm, "CCWS+STR")
    gate.claim("fig03-best", gm["CCWS+STR"] > other,
               f"GM CCWS+STR {gm['CCWS+STR']:.3f} vs "
               f"{other_name} {other:.3f}", "CCWS+STR 1.175, best")
    for sched, paper in (("PA", "SLD ahead (the one exception)"),
                         ("GTO", "STR ahead"), ("CCWS", "STR ahead")):
        s, d = gm[f"{sched}+STR"], gm[f"{sched}+SLD"]
        gate.claim(f"fig03-{sched.lower()}", s > d,
                   f"GM {sched}+STR {s:.3f} vs {sched}+SLD {d:.3f}", paper)


def check_fig12(gate):
    avg = gate.table("Figure 12")["AVG"]
    gate.claim("fig12-avg", avg["APRES"] < avg["CCWS+STR"],
               f"AVG APRES {avg['APRES']:.3f} vs CCWS+STR "
               f"{avg['CCWS+STR']:.3f}", "APRES 0.086 vs CCWS+STR 0.130")


def check_table02(gate):
    text = "\n".join(gate.sections.get("Table II", []))
    m = re.search(r"^Total\s*=\s*(\d+) B", text, re.MULTILINE)
    if not m:
        raise LookupError("no 'Table II' total in the output")
    total = int(m.group(1))
    gate.claim("table02-total", total == 724, f"{total} B", "724 B")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        gate = Gate(f.read())
    for check in (check_fig10, check_fig03, check_fig12, check_table02):
        try:
            check(gate)
        except LookupError as e:
            print(f"FAIL  {check.__name__[6:]:<14} missing data: {e}")
            gate.failed += 1
    if gate.failed:
        print(f"{gate.failed} paper claim(s) failed")
        return 1
    print("all paper claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
