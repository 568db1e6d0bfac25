"""Building blocks of the end-to-end benchmark: sample statistics, the
independent .qc gate-line counter, timed child processes with rusage,
and the closed-loop client of `spirec --serve`."""

import errno
import math
import os
import select
import signal
import statistics
import subprocess
import threading
import time
from collections import Counter

# Percentiles the tail figure is chosen from, lowest first.
PERCENTILES = (50, 90, 95, 99, 99.9)


def median(values):
    """Median of `values`; 0 when there are none, which only happens in a
    run that also counts a failure."""
    return statistics.median(values) if values else 0.0


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples (rounded
    before the ceiling, so 99.9% of 10000 is rank 9990)."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in (0, 100])."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values, min_beyond=10):
    """The highest percentile in PERCENTILES that has at least `min_beyond`
    samples above its nearest rank, as (p, value); None when even the
    median has fewer than `min_beyond` samples beyond it."""
    n = len(values)
    best = None
    for p in PERCENTILES:
        if n - _rank(p, n) >= min_beyond:
            best = (p, percentile(values, p))
    return best


# -- .qc gate lines ------------------------------------------------------

def t_cost_mcx(controls):
    """T-complexity of a multiply-controlled X (paper Section 5)."""
    return 0 if controls <= 1 else 7 * (2 * (controls - 2) + 1)


def t_cost_controlled_h(controls):
    return 0 if controls == 0 else 8 + 14 * (controls - 1)


# Bytes that tell gate lines apart: the mnemonics' distinguishing letters
# (`tof` keeps its `t`; `T*` and `S*` lose the star), the operand
# separator and the line break. Everything else, qubit names included,
# is deleted before lines are compared.
_SHAPE_BYTES = b" \ntTHCSZ"
_DELETE = bytes(c for c in range(256) if c not in _SHAPE_BYTES)


def qc_counts(path, block=1 << 20):
    """Counts the gate lines of a .qc file between BEGIN and END.

    Returns a dict: `gates` (every gate line), `t_gates` (T and T* lines)
    and `t_complexity` (MCX and controlled-H lines priced by their
    control counts, plus one per T/T*). Operands are space-separated,
    controls first, so a line with k operands has k - 1 controls.

    The file is read in blocks, so this process stays small: a child's
    peak RSS as wait4 reports it is at least its parent's. Lines are
    reduced to their shape (mnemonic letter plus one space per operand)
    and the shapes counted, about a second for 100 MB. That needs every
    operand to be a `q<N>` name, as spirec writes them; anything else is
    rejected."""
    shapes = Counter()
    with open(path, "rb") as f:
        buf = b""
        while b"\nBEGIN\n" not in buf:
            chunk = f.read(block)
            if not chunk:
                raise ValueError("%s: no BEGIN line" % path)
            buf += chunk
        # From here on buf starts with the newline that ended the previous
        # line, so the END line is always found as b"\nEND\n".
        buf = buf[buf.index(b"\nBEGIN\n") + len(b"\nBEGIN"):]
        while True:
            end = buf.find(b"\nEND\n")
            last = end if end >= 0 else buf.rfind(b"\n")
            body = buf[1:last]
            if body.count(b" q") != body.count(b" "):
                raise ValueError("%s: gate operands other than q<N>" % path)
            shapes.update(body.translate(None, _DELETE).split(b"\n"))
            if end >= 0:
                break
            chunk = f.read(block)
            if not chunk:
                raise ValueError("%s: no END line" % path)
            buf = buf[last:] + chunk
    gates = t_gates = t_complexity = 0
    for shape, count in shapes.items():
        if not shape:
            continue
        gates += count
        controls = shape.count(b" ") - 1
        if shape.startswith(b"t"):
            t_complexity += count * t_cost_mcx(controls)
        elif shape.startswith((b"H", b"CH")):
            t_complexity += count * t_cost_controlled_h(controls)
        elif shape.startswith(b"T"):
            t_gates += count
            t_complexity += count
    return {"gates": gates, "t_gates": t_gates, "t_complexity": t_complexity}


# -- Timed child processes -----------------------------------------------

class Timed:
    """Outcome of one child process: exit status, process wall-clock and
    peak RSS (from wait4)."""

    def __init__(self, code, wall_s, max_rss_kb, timed_out):
        self.code = code
        self.wall_s = wall_s
        self.max_rss_kb = max_rss_kb
        self.timed_out = timed_out

    @property
    def ok(self):
        return self.code == 0 and not self.timed_out


def _kill(proc):
    try:
        proc.kill()
    except OSError:
        pass


def run_timed(argv, stdout_path, stderr_path, timeout_s):
    """Runs `argv` to completion with stdout and stderr in files. The wall
    clock spans spawn to reap; a child still running after `timeout_s`
    is killed and reported as timed out."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout_s, _kill, (proc,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    return Timed(proc.returncode, wall, usage.ru_maxrss, timed_out)


# -- Closed-loop serve client --------------------------------------------

class ServeError(Exception):
    pass


class ServeSession:
    """One long-lived `spirec --serve <fifo>` child and a single client
    that writes a request, waits for its response line, and only then
    sends the next (a closed loop). A child that dies or stops answering
    turns the pending and every later request into a failure within
    `timeout_s`; it never blocks the caller longer than that."""

    def __init__(self, argv, fifo, stderr_path, timeout_s):
        self.timeout_s = timeout_s
        self.fifo_fd = None
        self.buf = b""
        self.dead = False
        os.mkfifo(fifo)
        self.err = open(stderr_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.err,
                                     stdin=subprocess.DEVNULL)
        self.out_fd = self.proc.stdout.fileno()
        os.set_blocking(self.out_fd, False)
        # Opening a FIFO for writing without blocking fails with ENXIO
        # until the server has opened it for reading.
        deadline = time.monotonic() + timeout_s
        while self.fifo_fd is None:
            try:
                self.fifo_fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as e:
                if e.errno != errno.ENXIO:
                    raise
                if self._exited() or time.monotonic() > deadline:
                    self.dead = True
                    return
                time.sleep(0.0005)
        os.set_blocking(self.fifo_fd, True)

    def _exited(self):
        """Whether the server has exited, without reaping it: close()
        reaps it with wait4 for its rusage."""
        info = os.waitid(os.P_PID, self.proc.pid,
                         os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return info is not None

    def _read_line(self, deadline):
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ServeError("no response within %.0f s" % self.timeout_s)
            ready, _, _ = select.select([self.out_fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(self.out_fd, 65536)
            if not chunk:
                raise ServeError("server exited")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode(errors="replace")

    def request(self, line):
        """Sends one request line; returns (response line, latency in
        seconds from the write to the response). Raises ServeError when
        the server is gone or silent."""
        if self.dead:
            raise ServeError("server not running")
        start = time.perf_counter()
        try:
            os.write(self.fifo_fd, (line + "\n").encode())
            response = self._read_line(time.monotonic() + self.timeout_s)
        except (OSError, ServeError) as e:
            self.dead = True
            raise ServeError(str(e)) from e
        return response, time.perf_counter() - start

    def close(self):
        """Shuts the server down (killing it if it does not exit within
        the timeout) and returns its peak RSS in KiB and exit code."""
        if self.fifo_fd is not None:
            if not self.dead:
                try:
                    os.write(self.fifo_fd, b"shutdown\n")
                except OSError:
                    pass
            os.close(self.fifo_fd)
            self.fifo_fd = None
        watchdog = threading.Timer(self.timeout_s, _kill, (self.proc,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
            self.proc.stdout.close()
            self.err.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss, self.proc.returncode
