#!/usr/bin/env python3
"""Self-tests of the benchmark's own code: percentile selection, the .qc
gate-line counter, the reference-speed pacing and the serve client's
handling of a server that dies or hangs. Needs no build:

    python3 e2ebench/selftest.py
"""

import os
import random
import shutil
import stat
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Keep the source directory clean.
import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        random.Random(0).shuffle(values)
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail(list(range(19))))
        self.assertEqual(benchlib.tail(list(range(1, 21))), (50, 10))
        self.assertEqual(benchlib.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(benchlib.tail(list(range(1, 200))), (90, 180))
        self.assertEqual(benchlib.tail(list(range(1, 201))), (95, 190))
        self.assertEqual(benchlib.tail(list(range(1, 1001))), (99, 990))
        self.assertEqual(benchlib.tail(list(range(1, 10001))), (99.9, 9990))


QC = b""".v q0 q1 q2 q3 q4
.i q0 q1
.o q4

BEGIN
tof q0
tof q0 q1
tof q0 q1 q2
tof q0 q1 q2 q3
tof q0 q1 q2 q3 q4
T q1
T* q2
H q3
CH q0 q3
CH q0 q1 q3
S* q1
Z q0 q1
END
"""


class QcCountTest(unittest.TestCase):
    def count(self, text, block=1 << 22):
        with tempfile.NamedTemporaryFile() as f:
            f.write(text)
            f.flush()
            return benchlib.qc_counts(f.name, block)

    def test_counts(self):
        want = {"gates": 12, "t_gates": 2,
                # MCX: NOT 0, CNOT 0, Toffoli 7, 3 controls 21,
                # 4 controls 35; T and T* 1 each; H 0, CH 8,
                # doubly controlled H 22.
                "t_complexity": 7 + 21 + 35 + 2 + 8 + 22}
        self.assertEqual(self.count(QC), want)
        # Blocks that split lines, BEGIN and END anywhere.
        for block in (1, 2, 3, 5, 7, 64):
            self.assertEqual(self.count(QC, block), want, block)

    def test_prices_match_the_paper(self):
        self.assertEqual([benchlib.t_cost_mcx(c) for c in range(5)],
                         [0, 0, 7, 21, 35])

    def test_rejects_malformed_files(self):
        for text in (b".v a b\n\nBEGIN\ntof a b\nEND\n",
                     b".v q0\n\ntof q0\nEND\n",
                     b".v q0\n\nBEGIN\ntof q0\n"):
            with self.assertRaises(ValueError):
                self.count(text, 3)

    def test_empty_body(self):
        self.assertEqual(self.count(b".v q0\n\nBEGIN\nEND\n", 2),
                         {"gates": 0, "t_gates": 0, "t_complexity": 0})


# A stand-in for e2e_ref that prints the same time for every repetition.
FAKE_REFERENCE = """#!/bin/sh
for _ in $(seq "$1"); do echo %s; done
"""


class ReferenceTest(unittest.TestCase):
    def test_paces_in_batches_and_scales(self):
        tmp = tempfile.mkdtemp()
        saved = run.REFERENCE
        run.REFERENCE = os.path.join(tmp, "fake_ref")
        try:
            # Half the reference time: the machine runs twice as fast.
            rep_s = run.REF_REP_S / 2
            with open(run.REFERENCE, "w") as f:
                f.write(FAKE_REFERENCE % rep_s)
            os.chmod(run.REFERENCE, stat.S_IRWXU)
            ref = run.Reference()
            self.assertEqual(ref.scale(), 1.0)
            # The spirec seconds that owe the reference one batch.
            batch_s = run.REF_BATCH * run.REF_REP_S / run.REF_SHARE
            ref.pace(0.9 * batch_s)
            self.assertEqual(ref.reps, [])
            ref.pace(0.2 * batch_s)
            self.assertEqual(ref.reps, [rep_s] * run.REF_BATCH)
            self.assertAlmostEqual(ref.scale(), 2.0)
        finally:
            run.REFERENCE = saved
            shutil.rmtree(tmp)


# A stand-in for `spirec --serve <fifo> ...`: answers the first
# $FAKE_ANSWERS requests with `ok`, writing a (wrong) artifact, then
# behaves as $FAKE_MODE says: `die` exits without answering, `hang`
# keeps reading and never answers.
FAKE_SERVER = """#!%s
import os, sys, time
answers, mode = int(os.environ["FAKE_ANSWERS"]), os.environ["FAKE_MODE"]
with open(sys.argv[2]) as requests:
    for n, line in enumerate(requests):
        if n >= answers:
            if mode == "die":
                sys.exit(3)
            time.sleep(3600)
        with open(line.split()[2], "w") as out:
            out.write("not a circuit")
        print("spirec: serve: ok     x (miss, 0.001 s)", flush=True)
"""


class ServeClientTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.server = os.path.join(self.tmp, "fake_spirec")
        with open(self.server, "w") as f:
            f.write(FAKE_SERVER % sys.executable)
        os.chmod(self.server, os.stat(self.server).st_mode | stat.S_IXUSR)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def session(self, answers, mode, timeout_s):
        os.environ["FAKE_ANSWERS"], os.environ["FAKE_MODE"] = str(answers), mode
        fifo = os.path.join(self.tmp, "fifo")
        return benchlib.ServeSession([self.server, "--serve", fifo], fifo,
                                     os.path.join(self.tmp, "err"), timeout_s)

    def test_server_dies_mid_run(self):
        start = time.monotonic()
        s = self.session(2, "die", 30)
        for _ in range(2):
            response, latency = s.request("compile a %s c" % os.devnull)
            self.assertIn("ok", response)
            self.assertGreater(latency, 0)
        with self.assertRaises(benchlib.ServeError):
            s.request("compile a b c")
        with self.assertRaises(benchlib.ServeError):
            s.request("compile a b c")
        _, code = s.close()
        self.assertEqual(code, 3)
        self.assertLess(time.monotonic() - start, 10)

    def test_server_hangs(self):
        start = time.monotonic()
        s = self.session(0, "hang", 1)
        with self.assertRaises(benchlib.ServeError):
            s.request("compile a b c")
        s.close()  # Kills the server after the timeout.
        self.assertLess(time.monotonic() - start, 5)

    def test_session_records_failures(self):
        """A server that answers one request wrongly and dies on the next
        fails both requests and its session, and the run goes on."""
        os.environ["FAKE_ANSWERS"], os.environ["FAKE_MODE"] = "1", "die"
        saved = run.SPIREC, run.UNIT_TIMEOUT_S
        run.SPIREC, run.UNIT_TIMEOUT_S = self.server, 5
        try:
            progs = [run.Program(name, name, 10,
                                 os.path.join(self.tmp, name + ".tower"))
                     for name in ("length", "sum")]
            tally = run.Tally(run.Reference())
            start = time.monotonic()
            run.serve_session(tally, run.Checker(), progs, self.tmp,
                              random.Random(1), start + 1)
        finally:
            run.SPIREC, run.UNIT_TIMEOUT_S = saved
        self.assertLess(time.monotonic() - start, 5)
        # Two requests and the session's exit code.
        self.assertEqual(tally.attempted, 3)
        self.assertEqual(tally.failed, 3)
        self.assertIn("digest differs", tally.errors[0])
        self.assertIn("server exited", tally.errors[1])
        self.assertIn("exit 3", tally.errors[2])


if __name__ == "__main__":
    unittest.main()
