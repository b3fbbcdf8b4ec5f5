"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by 10-25 % within a minute, and
every timing made meanwhile drifts with it.  The benchmark runs a fixed
kernel of its own between measured calls and scales each measured interval by
NOMINAL_NS / (median kernel time within a quarter second of it), so a timing
reads as if made on a machine where the kernel takes NOMINAL_NS.  The kernel
does the two kinds of work the program does: pure-Python Fraction arithmetic,
like its hot loops, and argparse and JSON, like a verb's fixed cost.  It
shares no code with twistedgl: a change to the program moves the scaled
timings just as it moves the raw ones.  The raw timings are written next to
each result.

Import time is calibrated apart, against the import of a fixed set of
standard modules in a fresh interpreter (import_scale).
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

NOMINAL_NS = 13_000_000
SAMPLE_EVERY_NS = 100_000_000
RUNS_PER_SAMPLE = 2
WINDOW_NS = 250_000_000
SIZE = 8
PARSES = 12

REFERENCE_IMPORT_S = 0.1
REFERENCE_PROBE = ("import time; t = time.perf_counter(); "
                   "import asyncio, csv, email.parser, http.client, logging.handlers, "
                   "sqlite3, unittest, xml.dom.minidom, zipfile; "
                   "print(repr(time.perf_counter() - t))")


def kernel() -> None:
    fraction_kernel()
    parse_kernel()


def fraction_kernel() -> None:
    """Gauss-Jordan inverse of I + H, H the 8x8 Hilbert matrix, in Fractions."""
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(SIZE)]
         + [Fraction(int(i == j)) for j in range(SIZE)] for i in range(SIZE)]
    for c in range(SIZE):
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(SIZE):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def parse_kernel() -> None:
    """A parser of twelve subcommands, and twelve parses of a JSON document."""
    ap = argparse.ArgumentParser(prog="kernel")
    sub = ap.add_subparsers(dest="command")
    for i in range(PARSES):
        sp = sub.add_parser(f"c{i}")
        sp.add_argument("--p", type=int)
        sp.add_argument("--json")
        sp.add_argument("rest", nargs="*")
    doc = {"p": 7, "gram": [[str(Fraction(7 * i + 1, j + 3)) for j in range(SIZE)]
                            for i in range(SIZE)]}
    for i in range(PARSES):
        args = ap.parse_args([f"c{i}", "--p", "7", "--json", json.dumps(doc), "--", "1/3"])
        json.loads(json.dumps(json.loads(args.json), sort_keys=True, indent=1))


def probe(code: str, *args: str) -> float:
    """Run code in a fresh interpreter; it prints a number of seconds."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def import_scale() -> float:
    """REFERENCE_IMPORT_S / the time a fresh interpreter takes to import the
    reference modules: an import time scaled by it reads as if made where the
    reference import takes REFERENCE_IMPORT_S.  File-system and loader speed
    drift apart from the speed of arithmetic, so imports get their own scale."""
    return REFERENCE_IMPORT_S / probe(REFERENCE_PROBE)


class Calibration:
    """Kernel times, sampled after each 100 ms of measured time."""

    def __init__(self):
        self.starts = []
        self.samples = []
        self.pending_ns = 0
        self.sample()

    def sample(self) -> None:
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.perf_counter_ns()
            kernel()
            self.starts.append(t0)
            self.samples.append(time.perf_counter_ns() - t0)

    def tick(self, measured_ns: int) -> None:
        self.pending_ns += measured_ns
        if self.pending_ns >= SAMPLE_EVERY_NS:
            self.sample()
            self.pending_ns = 0

    def factor_at(self, t0: int, t1: int) -> float:
        """The scale for an interval: from kernel runs within WINDOW_NS of it,
        or from the six nearest when fewer than three lie there."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_NS)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.starts, (t0 + t1) // 2)
            lo, hi = max(0, mid - 3), mid + 3
        return NOMINAL_NS / statistics.median(self.samples[lo:hi])

    def scaled(self, t0: int, t1: int) -> float:
        """The calibrated length of the interval, in ns."""
        return (t1 - t0) * self.factor_at(t0, t1)

    @property
    def factor(self) -> float:
        """The scale of the whole run, for reporting."""
        return NOMINAL_NS / statistics.median(self.samples)
