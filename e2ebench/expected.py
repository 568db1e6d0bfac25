#!/usr/bin/env python3
"""Maintains the benchmark's committed expected outputs.

    python3 e2ebench/expected.py write <spirec> <spire_e2e>
        Regenerates expected/report.json (spirec --report figures of every
        program at its benchmark size) and expected/digests.json (SHA-256
        of every MCX-level .qc and .qasm3 artifact). Only for a deliberate
        change of spirec's output; review the diff.

    python3 e2ebench/expected.py check-table1 <bench_table1>
        Checks expected/report.json against bench_table1's exact
        polynomial fits, evaluated at the benchmark sizes.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the source directory clean.
import run  # noqa: E402

EXPECTED = os.path.join(HERE, "expected")


def programs(spire_e2e, inputs):
    subprocess.check_call([spire_e2e, "gen", inputs])
    table1, scale = run.read_programs(inputs)
    return table1 + [scale]


def write(spirec, spire_e2e):
    run.SPIREC = spirec
    report, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for prog in programs(spire_e2e, tmp):
            text = subprocess.check_output(run.Unit("report", prog).argv(),
                                           text=True)
            report[prog.name] = dict(size=prog.size,
                                     **run.parse_report(text))
            for fmt in ("qc", "qasm3"):
                out = os.path.join(tmp, "%s.%s" % (prog.name, fmt))
                subprocess.check_call(run.Unit("emit", prog, out,
                                               fmt=fmt).argv())
                digests["%s.%s" % (prog.name, fmt)] = run.sha256_file(out)
    for name, data in (("report.json", report), ("digests.json", digests)):
        with open(os.path.join(EXPECTED, name), "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")


TERM_RE = re.compile(r"([+-]?)(\(\d+/\d+\)|\d+)?([a-z])?(?:\^(\d+))?")


def evaluate(poly, x):
    """Value of a bench_table1 polynomial such as `(276199/3)d^3+283094d^2`
    at x."""
    total = Fraction(0)
    for sign, coef, var, power in TERM_RE.findall(poly):
        if not coef and not var:
            continue
        c = Fraction(coef.strip("()")) if coef else Fraction(1)
        term = c * (Fraction(x) ** (int(power or 1) if var else 0))
        total += -term if sign == "-" else term
    return total


def check_table1(bench_table1):
    text = subprocess.check_output([bench_table1], text=True)
    with open(os.path.join(EXPECTED, "report.json")) as f:
        report = json.load(f)
    bad = 0
    rows = 0
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 6 or parts[0] != "-":
            continue
        name, mcx, t_before, t_after = parts[1:5]
        want = report[name]
        x = want["size"] or 1
        got = dict(mcx_before=evaluate(mcx, x),
                   t_before=evaluate(t_before, x),
                   t_after=evaluate(t_after, x))
        rows += 1
        for key, value in got.items():
            if value != want[key]:
                bad += 1
                print("%s: %s is %s in bench_table1's fit at %d, %d in "
                      "report.json" % (name, key, value, x, want[key]))
    print("%d programs checked against bench_table1, %d mismatches"
          % (rows, bad))
    return 0 if rows == len(report) - 1 and bad == 0 else 1


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "write":
        sys.exit(write(sys.argv[2], sys.argv[3]))
    if len(sys.argv) == 3 and sys.argv[1] == "check-table1":
        sys.exit(check_table1(sys.argv[2]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
