#!/usr/bin/env python3
"""Pretty-print and compare the JSON reports emitted by the spire
toolchain: BENCH_*.json from the scale benches (schema
"spire-bench-v1") and `spirec --metrics-json` dumps (schema
"spire-metrics-v1"). Both carry the same unified "metrics" object — a
name -> {kind, value | count/sum/min/max} map from obs::Registry — plus
per-point arrays: "<name>_points" for benches (keyed by "size" or
"gates") and "stages" for metrics dumps (keyed by "stage").

Usage:
  tools/bench_report.py BENCH_qopt.json            # pretty-print one run
  tools/bench_report.py old.json new.json          # compare two runs
  tools/bench_report.py --format markdown run.json # GitHub-ready tables

Comparison prints the per-point delta of every *_seconds field (negative
is faster) and flips the exit code to 1 when any shared series regressed
by more than the --threshold factor (default 1.5x), so CI can use it as
a coarse run-over-run guard. Points or fields present on only one side
are reported and skipped, never fatal. A file with any other schema
(or none) is rejected with exit code 2.
"""

import argparse
import json
import sys

SCHEMAS = ("spire-bench-v1", "spire-metrics-v1")


def point_series(data):
    """All per-point arrays in the file, keyed by series name:
    "<name>_points" arrays from the benches plus the "stages" array of a
    spire-metrics-v1 dump."""
    series = {}
    for key, value in data.items():
        if key.endswith("_points") and isinstance(value, list):
            series[key[: -len("_points")]] = value
    if isinstance(data.get("stages"), list):
        series["stages"] = data["stages"]
    return series


def point_key_field(points):
    """The field identifying a point within its series: "size" for the
    pipeline bench (whose points also carry a non-identifying "gates"
    count — zero for the whole nesting sweep), "gates" for the qopt and
    sim benches, "stage" for a metrics dump's stage table."""
    for field in ("size", "gates", "stage"):
        if points and field in points[0]:
            return field
    return None


def metric_value(sample):
    """The headline number of one unified-metrics entry: counters and
    gauges carry "value"; histograms carry count/sum and reduce to the
    sum here."""
    if "value" in sample:
        return sample["value"]
    return sample.get("sum")


def fmt(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:,.3f}" if abs(value) < 1e6 else f"{value:,.0f}"
    if isinstance(value, (int,)):
        return f"{value:,}"
    return str(value)


def union_columns(points):
    """Column order: first point's keys, then any keys later points
    add."""
    columns = []
    for p in points:
        for key in p:
            if key not in columns:
                columns.append(key)
    return columns


class Table:
    """One table, rendered either as aligned plain text or as a GitHub
    markdown table."""

    def __init__(self, columns):
        self.columns = columns
        self.rows = []

    def row(self, cells):
        self.rows.append([str(c) for c in cells])

    def emit(self, markdown):
        if markdown:
            print("| " + " | ".join(self.columns) + " |")
            print("|" + "|".join(" ---: " for _ in self.columns) + "|")
            for r in self.rows:
                print("| " + " | ".join(r) + " |")
            return
        widths = [
            max([len(c)] + [len(r[i]) for r in self.rows])
            for i, c in enumerate(self.columns)
        ]
        print("  ".join(c.rjust(w) for c, w in zip(self.columns, widths)))
        for r in self.rows:
            print("  ".join(v.rjust(w) for v, w in zip(r, widths)))


def heading(text, markdown, level=2):
    if markdown:
        print(f"\n{'#' * level} {text}\n")
    else:
        print(f"\n[{text}]" if level > 2 else f"== {text} ==")


# Guards in a bench's "linear" object that are not scaling checks, with
# their pass/fail wording; every other key is a superlinear-collapse guard.
RATIO_GUARDS = {
    "speedup_2x": (">=2x vs seed", "BELOW 2x VS SEED"),
    "cost_beats_compile_at_100k": ("estimate faster than compile",
                                   "ESTIMATE SLOWER THAN COMPILE"),
}


def guard_verdict(key, passed):
    ok, failed = RATIO_GUARDS.get(key, ("linear", "SUPERLINEAR COLLAPSE"))
    return ok if passed else failed


def print_one(path, data, markdown=False, show_metrics=True):
    heading(path, markdown)
    name = data.get("bench", data.get("schema", "?"))
    scalars = {
        k: v
        for k, v in data.items()
        if not isinstance(v, (list, dict)) and k != "bench"
    }
    line = f"bench: {name}   " + "  ".join(
        f"{k}={fmt(v)}" for k, v in sorted(scalars.items()))
    print(line)
    for series, points in sorted(point_series(data).items()):
        if not points:
            continue
        columns = union_columns(points)
        heading(series, markdown, level=3)
        table = Table(columns)
        for p in points:
            table.row([fmt(p[c]) if c in p else "" for c in columns])
        table.emit(markdown)
    checks = data.get("linear")
    if isinstance(checks, dict):
        verdicts = "  ".join(
            f"{k}: {guard_verdict(k, v)}" for k, v in sorted(checks.items()))
        print(f"\nscaling guards: {verdicts}")
    qopt = data.get("qopt_stats")
    if isinstance(qopt, dict) and qopt:
        print("\nqopt stats: " + "  ".join(
            f"{k}={fmt(v)}" for k, v in sorted(qopt.items())))
    metrics = data["metrics"]
    if show_metrics and metrics:
        heading("metrics", markdown, level=3)
        table = Table(["metric", "kind", "value"])
        for key in sorted(metrics):
            sample = metrics[key]
            kind = sample.get("kind", "?")
            value = metric_value(sample)
            table.row([key, kind, fmt(value) if value is not None else ""])
        table.emit(markdown)
    print()


def compare(old_path, old, new_path, new, threshold, min_seconds,
            markdown=False):
    heading(f"{old_path} -> {new_path}", markdown)
    regressed = False
    old_series, new_series = point_series(old), point_series(new)
    for series in sorted(set(old_series)):
        if series not in new_series:
            print(f"\n[{series}] dropped from {new_path} (skipped)")
    for series in sorted(new_series):
        if series not in old_series:
            print(f"\n[{series}] new in {new_path} (no baseline)")
            continue
        key_field = point_key_field(new_series[series]) or "gates"
        old_by_key = {p.get(key_field): p for p in old_series[series]}
        heading(series, markdown, level=3)
        for p in new_series[series]:
            key = p.get(key_field)
            q = old_by_key.get(key)
            if q is None:
                print(f"  {key_field}={fmt(key)}: new point (no baseline)")
                continue
            deltas = []
            for field, value in p.items():
                if not field.endswith("_seconds"):
                    continue
                if not isinstance(value, (int, float)) or \
                        isinstance(value, bool):
                    continue
                base = q.get(field)
                if not isinstance(base, (int, float)) or \
                        isinstance(base, bool) or base <= 0:
                    continue
                ratio = value / base
                # Sub-millisecond baselines are pure scheduler noise on a
                # shared runner; report them but never fail on them.
                gate = base >= min_seconds
                deltas.append(f"{field} {base:.3f}s -> {value:.3f}s "
                              f"({ratio:.2f}x{'' if gate else ', ignored'})")
                if gate and ratio > threshold:
                    regressed = True
            if deltas:
                print(f"  {key_field}={fmt(key)}: " + "; ".join(deltas))

    # Guard verdicts that flipped: informational, the bench's own exit
    # code already failed the run that recorded them.
    old_checks, new_checks = old.get("linear"), new.get("linear")
    if isinstance(old_checks, dict) and isinstance(new_checks, dict):
        for key in sorted(new_checks):
            if key in old_checks and old_checks[key] != new_checks[key]:
                print(f"  guard {key}: {guard_verdict(key, old_checks[key])}"
                      f" -> {guard_verdict(key, new_checks[key])}")

    # Unified-metrics delta: informational only — counter totals shift
    # with workload shape, so this never gates the exit code.
    old_metrics, new_metrics = old["metrics"], new["metrics"]
    changed = []
    for key in sorted(set(old_metrics) & set(new_metrics)):
        a = metric_value(old_metrics[key])
        b = metric_value(new_metrics[key])
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and a != b:
            changed.append(f"{key} {fmt(a)} -> {fmt(b)}")
    if changed:
        heading("metrics (informational)", markdown, level=3)
        for line in changed:
            print(f"  {line}")

    print()
    if regressed:
        print(f"REGRESSION: some series slowed by more than "
              f"{threshold:.2f}x")
    else:
        print(f"ok: no series slowed by more than {threshold:.2f}x")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+",
                        help="one json to print, or two to compare")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="comparison regression factor (default 1.5)")
    parser.add_argument("--min-seconds", type=float, default=0.01,
                        help="ignore regressions on baseline timings "
                             "below this many seconds (default 0.01; "
                             "tiny timings are scheduler noise)")
    parser.add_argument("--format", choices=("text", "markdown"),
                        default="text",
                        help="table style for single-file reports "
                             "(default text)")
    parser.add_argument("--no-metrics", action="store_true",
                        help="omit the unified metrics table")
    args = parser.parse_args()
    markdown = args.format == "markdown"

    loaded = []
    for path in args.files:
        try:
            with open(path) as f:
                loaded.append((path, json.load(f)))
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read {path}: {err}", file=sys.stderr)
            return 2
        data = loaded[-1][1]
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema not in SCHEMAS or not isinstance(data.get("metrics"), dict):
            print(f"error: {path}: schema {schema!r} is not one of "
                  f"{', '.join(SCHEMAS)} with a metrics object",
                  file=sys.stderr)
            return 2

    if len(loaded) == 1:
        print_one(*loaded[0], markdown=markdown,
                  show_metrics=not args.no_metrics)
        return 0
    if len(loaded) == 2:
        (old_path, old), (new_path, new) = loaded
        return 1 if compare(old_path, old, new_path, new,
                            args.threshold, args.min_seconds,
                            markdown=markdown) else 0
    print("error: pass one file to print or two to compare",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # report | head is fine
        sys.exit(0)
