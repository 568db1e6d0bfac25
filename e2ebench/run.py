#!/usr/bin/env python3
"""End-to-end benchmark of spirec over the paper's two workflows.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload report --seed 1 --seconds 30 --trace 0

It builds spirec, the in-process helper spire_e2e and the reference
workload e2e_ref from source (into $CARGO_TARGET_DIR, default
.bench_build), materializes the workload's inputs, measures for
--seconds, checks every output, prints a table of the metrics and, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 times spirec processes from outside and reports
the end-to-end metrics; --trace 1 adds an in-process traced run over the
same inputs and reports the per-layer metrics. The seed only sets the order of the serve requests. README.md
beside this file maps every metric to its layer and workload.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the source directory clean.
import benchlib  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
SPIREC = os.path.join(BUILD, "spire", "tools", "spirec")
HELPER = os.path.join(BUILD, "spire_e2e")
REFERENCE = os.path.join(BUILD, "e2e_ref")
EXPECTED = os.path.join(HERE, "expected")

WORKLOADS = ("report", "emit", "circuit-opt", "serve")
# Table-1 sizes: n=10 for lists, queues and strings, d=6 for sets.
TABLE1_SIZE = 10
SET_SIZE = 6
# The bench_pipeline_scale size program and its flags.
SCALE_SIZE = 100000
SCALE_FLAGS = ("--word-bits", "4", "--max-inline-instances", "1000000",
               "--max-inline-depth", "1000000")
# The Section 8.3 baselines run on `length` at n=10.
BASELINES = ("cliffordt-cancel", "toffoli-cancel", "rotation", "peephole")
SETUP_REPEATS = 15
WARM_PASSES = 10
UNIT_TIMEOUT_S = 60
# e2e_ref runs between spirec runs for this share of their wall-clock, at
# least REF_BATCH repetitions at a time.
REF_SHARE = 0.15
REF_BATCH = 2
# Seconds of one e2e_ref repetition at the reference machine speed, the
# speed every reported time is scaled to.
REF_REP_S = 0.2

END_TO_END = (("setup_s", "s"), ("paper_s", "s"), ("scale_s", "s"),
              ("max_rss_mb", "MB"), ("artifact_mb", "MB"), ("t_count", "count"))

# Per-layer metrics: layer name in spire_e2e's units.jsonl -> metric name.
LAYER_SPANS = (
    ("support.read", "support.read_s"),
    ("frontend.parse", "frontend.parse_s"),
    ("sema.typecheck", "sema.typecheck_s"),
    ("lowering.lower", "lowering.lower_s"),
    ("opt.spire", "opt.spire_s"),
    ("costmodel.analyze", "costmodel.analyze_s"),
    ("circuit.compile", "circuit.compile_s"),
    ("interchange.render_qc", "interchange.render_qc_s"),
    ("interchange.render_qasm3", "interchange.render_qasm3_s"),
    ("support.write", "support.write_s"),
    ("decompose.cliffordt", "decompose.cliffordt_s"),
    ("decompose.toffoli", "decompose.toffoli_s"),
    ("qopt.cancel", "qopt.cancel_s"),
    ("qopt.phase_fold", "qopt.phase_fold_s"),
    ("cache.key", "cache.key_s"),
    ("cache.lookup", "cache.lookup_s"),
    ("cache.store", "cache.store_s"),
    ("driver.service", "driver.service_s"),
)
LAYER_COUNTS = ("lowering.allocs", "lowering.inline_instances",
                "costmodel.profile_hits", "costmodel.profile_misses",
                "circuit.gates", "qopt.cancelled_pairs",
                "qopt.merged_rotations", "qopt.worklist_visits")
PER_LAYER_UNITS = dict(
    [(m, "s") for _, m in LAYER_SPANS] +
    [(c, "count") for c in LAYER_COUNTS] +
    [("costmodel.profile_lookups", "count"),
     ("costmodel.profile_hit_ratio", "ratio"),
     ("cache.lookups", "count"), ("cache.hit_ratio", "ratio"),
     ("circuit.rss_delta_mb", "MB"), ("interchange.rss_delta_mb", "MB"),
     ("interchange.render_mb_per_s", "MB/s"),
     ("process.unattributed_s", "s"), ("trace.overhead_s", "s")])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fatal(msg):
    log("e2ebench: error: " + msg)
    sys.exit(1)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_json(name):
    with open(os.path.join(EXPECTED, name)) as f:
        return json.load(f)


# -- Build and set-up -----------------------------------------------------

def build():
    """Configures (once) and builds spirec, spire_e2e and e2e_ref from
    source."""
    os.makedirs(WORK, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "spirec",
                  "spire_e2e", "e2e_ref"])
    with open(os.path.join(WORK, "build.log"), "wb") as out:
        for argv in steps:
            if subprocess.call(argv, stdout=out, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                fatal("build failed: %s (see %s)" % (" ".join(argv),
                                                      out.name))


class Reference:
    """Measures the machine's speed during a run. The machine is shared,
    and its speed drifts by a quarter within minutes, moving the compiles
    alike. So e2e_ref, a fixed workload that links nothing from the
    repository, runs between spirec runs, REF_SHARE of their time, and
    the run's times are scaled by REF_REP_S over its median repetition."""

    def __init__(self):
        self.reps = []
        self.owed = 0.0

    def pace(self, seconds):
        """Records `seconds` of spirec time, and runs the reference
        repetitions that time is owed."""
        self.owed += REF_SHARE * seconds
        count = int(self.owed / REF_REP_S)
        if count < REF_BATCH:
            return
        self.owed -= count * REF_REP_S
        out = subprocess.run([REFERENCE, str(count)], stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, check=True,
                             timeout=UNIT_TIMEOUT_S).stdout
        self.reps += [float(x) for x in out.split()]

    def scale(self):
        """The factor that turns this run's seconds into seconds at the
        reference speed."""
        return REF_REP_S / benchlib.median(self.reps) if self.reps else 1.0


@dataclass
class Program:
    name: str
    entry: str
    size: object  # int, or None for an unsized entry
    src: str
    scale: bool = False


def setup(work, ref):
    """Materializes the workload inputs, then warms up SETUP_REPEATS
    times: one cost-only compile of every Table-1 program, so the binary
    and the inputs are paged in before anything is timed. Returns the
    programs and the set-up seconds: the sum over the programs of each
    warm-up compile's median wall-clock."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    if subprocess.call([HELPER, "gen", inputs],
                       stdin=subprocess.DEVNULL) != 0:
        fatal("spire_e2e gen failed")
    programs, scale = read_programs(inputs)
    walls = defaultdict(list)
    for _ in range(SETUP_REPEATS):
        for prog in programs:
            argv = Unit("report", prog).argv()
            start = time.perf_counter()
            code = subprocess.call(argv, stdout=subprocess.DEVNULL,
                                   stdin=subprocess.DEVNULL)
            walls[prog.name].append(time.perf_counter() - start)
            ref.pace(walls[prog.name][-1])
            if code != 0:
                fatal("set-up compile failed: " + " ".join(argv))
    return programs, scale, sum(benchlib.median(w) for w in walls.values())


def read_programs(inputs):
    """The Table-1 programs at their benchmark sizes, and the scale
    program, from the sources spire_e2e gen wrote to `inputs`."""
    programs = []
    with open(os.path.join(inputs, "programs.tsv")) as f:
        for line in f:
            name, group, entry, sized = line.rstrip("\n").split("\t")
            size = None
            if sized == "1":
                size = SET_SIZE if group == "Set" else TABLE1_SIZE
            programs.append(Program(name, entry, size,
                                    os.path.join(inputs, name + ".tower")))
    scale = Program("f", "f", SCALE_SIZE, os.path.join(inputs, "f.tower"),
                    scale=True)
    return programs, scale


# -- Units ----------------------------------------------------------------

@dataclass
class Unit:
    """One spirec invocation (or serve request), timed from outside and
    replayed in-process by the traced run."""
    kind: str  # report | emit | copt | request
    prog: Program
    out: str = None
    fmt: str = None
    copt: str = None

    @property
    def key(self):
        return ":".join(x for x in (self.kind, self.prog.name, self.fmt,
                                    self.copt) if x)

    def argv(self):
        a = [SPIREC, self.prog.src, "--entry", self.prog.entry]
        if self.prog.size is not None:
            a += ["--size", str(self.prog.size)]
        if self.prog.scale:
            a += SCALE_FLAGS
        if self.kind == "report":
            a.append("--report")
        elif self.kind == "emit":
            a += ["--emit", self.fmt, "-o", self.out]
        elif self.kind == "copt":
            a += ["--circuit-opt", self.copt, "--emit", "qc", "-o", self.out]
        return a

    def request_line(self):
        size = "" if self.prog.size is None else " %d" % self.prog.size
        return "compile %s %s %s%s" % (self.prog.src, self.out,
                                       self.prog.entry, size)

    def plan_line(self):
        # Word bits, inline instances, inline depth: SCALE_FLAGS' values.
        flags = SCALE_FLAGS[1::2] if self.prog.scale else ("-",) * 3
        fields = (self.kind, self.key, self.prog.src, self.out or "-",
                  self.prog.entry,
                  "-" if self.prog.size is None else str(self.prog.size),
                  *flags, self.fmt or "-", self.copt or "-")
        return " ".join(fields)


def serve_passes(programs, rng, warm_passes):
    """A serve session's request order: one cold pass over every program,
    then `warm_passes` passes, each shuffled by the seeded generator."""
    passes = []
    for _ in range(1 + warm_passes):
        order = list(programs)
        rng.shuffle(order)
        passes.append(order)
    return passes


# -- Output checks --------------------------------------------------------

REPORT_RE = re.compile(
    r"unoptimized: MCX-complexity (\d+), T-complexity (\d+)\s+"
    r"optimized:\s+MCX-complexity (\d+), T-complexity (\d+)")


def parse_report(text):
    m = REPORT_RE.search(text)
    if not m:
        return None
    return dict(zip(("mcx_before", "t_before", "mcx_after", "t_after"),
                    map(int, m.groups())))


class Checker:
    """Output checks against the committed expected figures and digests."""

    def __init__(self):
        self.report = load_json("report.json")
        self.digests = load_json("digests.json")
        self.qc = {}  # MCX-level artifact name -> its qc_counts
        self.copt = {}  # circuit-opt baseline -> qc_counts, digest, kept

    def report_figures(self, name, figures):
        want = self.report[name]
        if figures is None:
            return ["%s: no cost report in output" % name]
        return ["%s: %s %d, expected %d" % (name, k, figures[k], want[k])
                for k in figures if figures[k] != want[k]]

    def artifact(self, name, fmt, path):
        """Digest check of an MCX-level artifact; the first time a .qc is
        seen, also Thm 5.1 (gate lines == the cost model's MCX figure)
        and Thm 5.2 (priced gate lines == its T figure)."""
        art = "%s.%s" % (name, fmt)
        if sha256_file(path) != self.digests[art]:
            return ["%s: digest differs from expected" % art]
        if fmt == "qc" and art not in self.qc:
            self.qc[art] = benchlib.qc_counts(path)
            want = self.report[name]
            got = self.qc[art]
            if got["gates"] != want["mcx_after"]:
                return ["%s: %d gate lines, cost model says MCX %d"
                        % (art, got["gates"], want["mcx_after"])]
            if got["t_complexity"] != want["t_after"]:
                return ["%s: T-complexity %d, cost model says %d"
                        % (art, got["t_complexity"], want["t_after"])]
        return []


# -- Timed workloads ------------------------------------------------------

class Tally:
    """Samples and failure counts of one run. Wall-clocks are kept per
    unit key (a serve request's key ends in :hit or :miss); paper_s and
    scale_s sum the per-key medians of the keys filed under them."""

    def __init__(self, ref):
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rounds = 0
        self.samples = defaultdict(list)  # metric -> per-round samples
        self.unit_walls = defaultdict(list)  # unit key -> seconds
        self.role = {}  # unit key -> "paper_s" | "scale_s"

    def unit(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def wall(self, key, role, seconds):
        self.unit_walls[key].append(seconds)
        self.role[key] = role

    def summed_medians(self, role):
        keys = [k for k, r in self.role.items() if r == role]
        return (sum(benchlib.median(self.unit_walls[k]) for k in keys),
                min((len(self.unit_walls[k]) for k in keys), default=0))


def discard(path):
    """Deletes a checked artifact. Its pages are then dropped instead of
    written back, so the disk traffic of one unit does not stall the
    next."""
    os.unlink(path)


def spawn(unit, tally, workdir, role):
    res = benchlib.run_timed(unit.argv(), os.path.join(workdir, "stdout"),
                             os.path.join(workdir, "stderr"), UNIT_TIMEOUT_S)
    errors = []
    if not res.ok:
        with open(os.path.join(workdir, "stderr"), errors="replace") as f:
            detail = f.read().strip().splitlines()[-1:] or ["no stderr"]
        errors.append("%s: exit %s%s: %s" % (
            unit.key, res.code, " (timeout)" if res.timed_out else "",
            detail[0]))
    tally.wall(unit.key, role, res.wall_s)
    tally.ref.pace(res.wall_s)
    return res, errors


def report_round(tally, checker, programs, scale, workdir):
    rss = out_bytes = t_sum = 0
    for prog in programs + [scale]:
        unit = Unit("report", prog)
        res, errors = spawn(unit, tally, workdir,
                            "scale_s" if prog.scale else "paper_s")
        with open(os.path.join(workdir, "stdout")) as f:
            text = f.read()
        figures = parse_report(text) if res.ok else None
        if res.ok:
            errors += checker.report_figures(prog.name, figures)
        tally.unit(errors)
        rss = max(rss, res.max_rss_kb)
        out_bytes += len(text.encode())
        t_sum += figures["t_after"] if figures else 0
    tally.samples["max_rss_mb"].append(rss / 1024)
    tally.samples["artifact_mb"].append(out_bytes / 1e6)
    tally.samples["t_count"].append(t_sum)


def emit_round(tally, checker, programs, scale, workdir):
    rss = out_bytes = 0
    for prog in programs + [scale]:
        for fmt in ("qc", "qasm3"):
            unit = Unit("emit", prog, os.path.join(workdir, "%s.%s" % (
                prog.name, fmt)), fmt=fmt)
            res, errors = spawn(unit, tally, workdir,
                                "scale_s" if prog.scale else "paper_s")
            if res.ok:
                errors += checker.artifact(prog.name, fmt, unit.out)
                out_bytes += os.path.getsize(unit.out)
                discard(unit.out)
            tally.unit(errors)
            rss = max(rss, res.max_rss_kb)
    tally.samples["max_rss_mb"].append(rss / 1024)
    tally.samples["artifact_mb"].append(out_bytes / 1e6)
    tally.samples["t_count"].append(sum(
        c["t_complexity"] for c in checker.qc.values()))


def circuit_opt_round(tally, checker, programs, scale, workdir):
    length = next(p for p in programs if p.name == "length")
    rss = out_bytes = t_sum = 0
    for copt in BASELINES:
        unit = Unit("copt", length, os.path.join(workdir, copt + ".qc"),
                    copt=copt)
        # cliffordt-cancel, the heaviest baseline, is the scale unit.
        res, errors = spawn(unit, tally, workdir, "scale_s"
                            if copt == "cliffordt-cancel" else "paper_s")
        if res.ok:
            digest = sha256_file(unit.out)
            seen = checker.copt.get(copt)
            out_bytes += os.path.getsize(unit.out)
            if seen is None:
                # First round: count its T gates, and keep it for the
                # reparse check after the timed rounds.
                seen = checker.copt[copt] = benchlib.qc_counts(unit.out)
                seen["digest"] = digest
                seen["kept"] = unit.out + ".first"
                os.rename(unit.out, seen["kept"])
            else:
                if digest != seen["digest"]:
                    errors.append("%s: artifact changed between rounds"
                                  % unit.key)
                discard(unit.out)
            t_sum += seen["t_gates"]
        tally.unit(errors)
        rss = max(rss, res.max_rss_kb)
    tally.samples["max_rss_mb"].append(rss / 1024)
    tally.samples["artifact_mb"].append(out_bytes / 1e6)
    tally.samples["t_count"].append(t_sum)


def reparse_checks(tally, checker, workdir):
    """Each circuit-opt artifact must load back through spirec's own
    reader (`--qc-in`). Run once, after the timed rounds."""
    for copt, seen in checker.copt.items():
        back = benchlib.run_timed(
            [SPIREC, "--qc-in", seen["kept"], "-o", os.devnull],
            os.path.join(workdir, "reparse.out"),
            os.path.join(workdir, "reparse.err"), UNIT_TIMEOUT_S)
        tally.unit([] if back.ok else ["copt:%s: --qc-in reparse failed"
                                       % copt])
        discard(seen["kept"])


def serve_session(tally, checker, programs, workdir, rng, deadline):
    """One server on a fresh cache: a cold pass (every request a miss),
    then warm passes (every request a hit) until WARM_PASSES or the
    deadline."""
    session = tally.rounds
    cache = os.path.join(workdir, "cache-%d" % session)
    fifo = os.path.join(workdir, "fifo-%d" % session)
    server = benchlib.ServeSession(
        [SPIREC, "--serve", fifo, "--cache-dir", cache], fifo,
        os.path.join(workdir, "serve-%d.err" % session), UNIT_TIMEOUT_S)
    try:
        serve_requests(tally, checker, server, programs, workdir, rng,
                       deadline)
    finally:
        rss_kb, code = server.close()
    if code != 0:
        tally.unit(["serve session %d: exit %d" % (session, code)])
    tally.samples["max_rss_mb"].append(rss_kb / 1024)
    tally.samples["t_count"].append(sum(
        checker.qc[p.name + ".qc"]["t_complexity"] for p in programs
        if p.name + ".qc" in checker.qc))


def serve_requests(tally, checker, server, programs, workdir, rng, deadline):
    """Sends a session's passes, one request at a time, and checks every
    response: ok, a hit or miss as expected, and an artifact
    byte-identical to emit's .qc. Stops at the first server failure."""
    for i, order in enumerate(serve_passes(programs, rng, WARM_PASSES)):
        if i > 1 and time.monotonic() > deadline:
            return
        outcome = "miss" if i == 0 else "hit"
        out_bytes = 0
        for prog in order:
            unit = Unit("request", prog,
                        os.path.join(workdir, prog.name + ".qc"))
            try:
                response, latency = server.request(unit.request_line())
            except benchlib.ServeError as e:
                tally.unit(["serve %s: %s" % (prog.name, e)])
                return
            errors = []
            if not response.startswith("spirec: serve: ok") or \
                    "(%s," % outcome not in response:
                errors.append("serve %s: %r, expected ok (%s)" % (
                    prog.name, response, outcome))
            else:
                errors += checker.artifact(prog.name, "qc", unit.out)
                out_bytes += os.path.getsize(unit.out)
                discard(unit.out)
            tally.unit(errors)
            tally.wall("%s:%s" % (unit.key, outcome),
                       "scale_s" if outcome == "miss" else "paper_s", latency)
            tally.ref.pace(latency)
        if outcome == "hit":
            tally.samples["artifact_mb"].append(out_bytes / 1e6)


ROUNDS = {"report": report_round, "emit": emit_round,
          "circuit-opt": circuit_opt_round}


def run_timed_workload(workload, programs, scale, seconds, rng, workdir,
                       checker, ref):
    tally = Tally(ref)
    start = time.monotonic()
    deadline = start + seconds
    last = 0.0
    # A round starts only if a round as long as the last one still ends by
    # the deadline, so a run ends close to it, not up to a round after.
    while tally.rounds == 0 or time.monotonic() + last < deadline:
        began = time.monotonic()
        if workload == "serve":
            serve_session(tally, checker, programs, workdir, rng, deadline)
        else:
            ROUNDS[workload](tally, checker, programs, scale, workdir)
        tally.rounds += 1
        last = time.monotonic() - began
    tally.elapsed = time.monotonic() - start
    if workload == "circuit-opt":
        reparse_checks(tally, checker, workdir)
    return tally


def end_to_end_metrics(tally, setup_s):
    """Metric name -> (value, sample count, value as measured). The times
    are scaled to the reference speed; the other metrics are as
    measured."""
    values = {"setup_s": (setup_s, SETUP_REPEATS)}
    for name in ("paper_s", "scale_s"):
        values[name] = tally.summed_medians(name)
    for name in ("max_rss_mb", "artifact_mb", "t_count"):
        values[name] = (benchlib.median(tally.samples[name]),
                        len(tally.samples[name]))
    scale = tally.ref.scale()
    units = dict(END_TO_END)
    return {name: (value * scale if units[name] == "s" else value, count,
                   value)
            for name, (value, count) in values.items()}


def print_end_to_end(workload, tally, values):
    print("workload %s: %d rounds in %.1f s; fail_ratio %.4f (%d failed of "
          "%d attempted)" % (workload, tally.rounds, tally.elapsed,
                             tally.failed / max(tally.attempted, 1),
                             tally.failed, tally.attempted))
    reps = tally.ref.reps
    print("reference speed: e2e_ref median %.4f ms per repetition over %d; "
          "times scaled by %.4f" % (
              benchlib.median(reps) * 1e3, len(reps), tally.ref.scale()))
    print("%-12s %-6s %14s %8s %14s" % ("metric", "unit", "median", "samples",
                                        "as measured"))
    for name, unit in END_TO_END:
        value, count, raw = values[name]
        print("%-12s %-6s %14.6g %8d %14.6g" % (name, unit, value, count, raw))
    def latency(label, walls):
        ms = [w * 1e3 for w in walls]
        t = benchlib.tail(ms)
        print("  %-32s p50 %10.4g  %-16s %5d samples" % (
            label, benchlib.median(ms), "p%g %.4g" % t if t else "-", len(ms)))

    print("latency of each invocation or request (ms, as measured):")
    for key, walls in sorted(tally.unit_walls.items()):
        latency(key, walls)
    for outcome, label in (("hit", "all hits"), ("miss", "all misses")):
        walls = [w for k, ws in tally.unit_walls.items()
                 if k.endswith(":" + outcome) for w in ws]
        if walls:
            latency(label, walls)
    for e in tally.errors[:20]:
        print("FAILED: " + e)


# -- Traced run -----------------------------------------------------------

def trace_plan(workload, programs, scale, workdir, rng):
    """One round of the workload's units, for spire_e2e trace."""
    if workload == "report":
        return [Unit("report", p) for p in programs + [scale]]
    if workload == "emit":
        return [Unit("emit", p, os.path.join(workdir, "%s.%s" % (p.name, f)),
                     fmt=f)
                for p in programs + [scale] for f in ("qc", "qasm3")]
    if workload == "circuit-opt":
        length = next(p for p in programs if p.name == "length")
        return [Unit("copt", length, os.path.join(workdir, c + ".qc"), copt=c)
                for c in BASELINES]
    return [Unit("request", p, os.path.join(workdir, p.name + ".qc"))
            for order in serve_passes(programs, rng, WARM_PASSES)
            for p in order]


def run_traced(workload, programs, scale, seconds, rng, workdir, tally,
               checker):
    """Runs spire_e2e trace over one round of the workload's units and
    checks its outputs against `checker`, the timed run's: the report
    figures of every traced unit, and the files of the last traced round,
    which must be byte-identical to the timed run's."""
    os.makedirs(workdir, exist_ok=True)
    plan = trace_plan(workload, programs, scale, workdir, rng)
    lines = [u.plan_line() for u in plan]
    if workload == "serve":
        lines.insert(0, " ".join(["session"] + ["-"] * 10))
    plan_path = os.path.join(workdir, "plan.txt")
    with open(plan_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    units_path = os.path.join(workdir, "units.jsonl")
    trace_path = os.path.join(workdir, "trace.json")
    start = time.monotonic()
    res = benchlib.run_timed(
        [HELPER, "trace", plan_path, str(seconds), units_path, trace_path,
         workdir], os.path.join(workdir, "stdout"),
        os.path.join(workdir, "stderr"), seconds + 2 * UNIT_TIMEOUT_S)
    if not res.ok:
        tally.unit(["traced run: exit %s" % res.code])
        return []
    with open(units_path) as f:
        units = [json.loads(line) for line in f]
    log("traced run: %d units in %.1f s, trace in %s"
        % (len(units), time.monotonic() - start, trace_path))
    by_key = {u.key: u for u in plan}
    for rec in units:
        errors = [] if rec["ok"] else ["traced %s: %s" % (
            rec["name"], rec.get("error", "failed"))]
        kind, name = rec["kind"], rec["name"].split(":")[1]
        if rec["ok"] and kind == "report":
            figures = {k: rec["counts"][k] for k in
                       ("mcx_before", "t_before", "mcx_after", "t_after")}
            errors += checker.report_figures(name, figures)
        tally.unit(errors)
    # The files of the last round are on disk: check them once.
    for unit in by_key.values():
        if unit.out is None:
            continue
        if not os.path.exists(unit.out):
            tally.unit(["traced %s: no artifact" % unit.key])
            continue
        if unit.kind == "copt":
            seen = checker.copt.get(unit.copt)
            errors = [] if seen and sha256_file(unit.out) == seen["digest"] \
                else ["traced %s: artifact differs from spirec's" % unit.key]
        else:
            errors = checker.artifact(unit.prog.name, unit.fmt or "qc",
                                      unit.out)
        if errors:
            tally.unit(errors)
        discard(unit.out)
    return units


def per_layer_metrics(units, tally):
    rounds = defaultdict(list)
    for rec in units:
        rounds[rec["round"]].append(rec)
    layer_names = [s for s, _ in LAYER_SPANS]

    def per_round(fn, median=benchlib.median):
        return median([fn(recs) for recs in rounds.values()])

    def per_round_count(fn):
        # An observed count, not the mean of two middle ones.
        return per_round(fn, statistics.median_low)

    def span_sum(recs, span):
        return sum(r["self_s"].get(span, 0.0) for r in recs)

    def count_sum(recs, name):
        return sum(r["counts"].get(name, 0) for r in recs)

    values = {}
    for span, metric in LAYER_SPANS:
        values[metric] = per_round(lambda recs: span_sum(recs, span))
    for name in LAYER_COUNTS:
        values[name] = per_round_count(lambda recs: count_sum(recs, name))
    hits = values["costmodel.profile_hits"]
    values["costmodel.profile_lookups"] = hits + values[
        "costmodel.profile_misses"]
    values["costmodel.profile_hit_ratio"] = (
        hits / values["costmodel.profile_lookups"]
        if values["costmodel.profile_lookups"] else 0.0)
    cache_hits = per_round_count(lambda recs: count_sum(recs, "cache.hits"))
    values["cache.lookups"] = cache_hits + per_round_count(
        lambda recs: count_sum(recs, "cache.misses"))
    values["cache.hit_ratio"] = (cache_hits / values["cache.lookups"]
                                 if values["cache.lookups"] else 0.0)
    for layer in ("circuit", "interchange"):
        values[layer + ".rss_delta_mb"] = max(
            [r["counts"].get(layer + ".rss_delta_kb", 0) for r in units]
            or [0]) / 1024
    render_s = values["interchange.render_qc_s"] + values[
        "interchange.render_qasm3_s"]
    render_mb = per_round(
        lambda recs: count_sum(recs, "interchange.render_bytes")) / 1e6
    values["interchange.render_mb_per_s"] = (render_mb / render_s
                                             if render_s else 0.0)

    # Per invocation: timed wall-clock versus traced layer time and
    # traced wall-clock, by unit key (serve requests split hit/miss),
    # summed over one round of the plan.
    def unit_key(rec):
        if rec["kind"] != "request":
            return rec["name"]
        return rec["name"] + (":hit" if rec["counts"].get("cache.hits")
                              else ":miss")

    layer_s = defaultdict(list)
    traced_wall = defaultdict(list)
    for rec in units:
        layer_s[unit_key(rec)].append(
            sum(rec["self_s"].get(s, 0.0) for s in layer_names))
        traced_wall[unit_key(rec)].append(rec["wall_s"])
    unattributed = overhead = 0.0
    for rec in rounds[0]:
        key = unit_key(rec)
        if key not in tally.unit_walls:  # Not reached by the timed rounds.
            continue
        timed = benchlib.median(tally.unit_walls[key])
        unattributed += timed - benchlib.median(layer_s[key])
        overhead += benchlib.median(traced_wall[key]) - timed
    values["process.unattributed_s"] = unattributed
    values["trace.overhead_s"] = overhead
    return values, len(rounds)


def print_per_layer(workload, values, rounds):
    print("workload %s traced: per-layer figures are medians over %d "
          "rounds of the plan" % (workload, rounds))
    for name in PER_LAYER_UNITS:
        print("%-30s %-6s %14.6g" % (name, PER_LAYER_UNITS[name],
                                     values[name]))
    print("costmodel.profile_hit_ratio %.4f of %d lookups; cache.hit_ratio "
          "%.4f of %d lookups" % (
              values["costmodel.profile_hit_ratio"],
              values["costmodel.profile_lookups"],
              values["cache.hit_ratio"], values["cache.lookups"]))


# -- Main -----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ref = Reference()
    programs, scale, setup_s = setup(workdir, ref)
    rng = random.Random(args.seed)

    timed_seconds = args.seconds / 2 if args.trace else args.seconds
    checker = Checker()
    tally = run_timed_workload(args.workload, programs, scale, timed_seconds,
                               rng, workdir, checker, ref)
    e2e = end_to_end_metrics(tally, setup_s)
    print_end_to_end(args.workload, tally, e2e)
    printed = min(len(tally.errors), 20)
    units = {name: unit for name, unit in END_TO_END}
    if args.trace:
        records = run_traced(args.workload, programs, scale, args.seconds / 2,
                             rng, os.path.join(workdir, "traced"), tally,
                             checker)
        if records:
            values, rounds = per_layer_metrics(records, tally)
            print_per_layer(args.workload, values, rounds)
        else:
            values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        units = PER_LAYER_UNITS
    else:
        values = {name: value for name, (value, _, _) in e2e.items()}
    for e in tally.errors[printed:]:
        log("FAILED: " + e)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
