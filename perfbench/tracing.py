"""The traced run: spans around the benchmark's own calls into each layer.

No code under src/ is touched.  Spans are kept in memory as
[name, start ns, end ns, parent index, record id] and written out when the
run ends.  Three passes share the run's seconds:

* the workload itself, untraced, with each operation replayed twice, once
  under spans and once without, in alternating order: corpus records through
  the constancy stages, verb calls through cli.main; a verb call is also
  timed through the library call that does the same work;
* kernel calls on matrices and forms captured from that workload, at the
  sizes 2, 4, 6 and 12;
* for the corpus workloads, a verb mix shaped like their records.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

from twistedgl import cli
from twistedgl.endoscopy import transfer_factor_whittaker
from twistedgl.gsnorm import make_ambient, random_config, rigidify
from twistedgl.linalg import charpoly, det, inverse, mat_mul
from twistedgl.localfield import hilbert_qp, square_class
from twistedgl.qform import diagonalize, invariants, quad_form, scale
from twistedgl.weil import weil_index

import workloads as wl

STAGES = ("endoscopy.quasisplit_space", "gsnorm.make_ambient",
          "gsnorm.random_config", "gsnorm.rigidify",
          "endoscopy.transfer_factor_whittaker", "weil.weil_index",
          "cli.config_doc")
KERNEL_SIZES = (2, 4, 6, 12)
KERNELS = ("linalg.det", "linalg.inverse", "linalg.charpoly", "linalg.mat_mul",
           "qform.diagonalize", "qform.invariants")
SCALAR_KERNELS = ("localfield.hilbert_qp", "localfield.square_class")
# shares of the run's seconds: workload pass, kernel pass, verb pass
SHARES = (0.25, 0.15, 0.15)
BUILD_PARSER_CALLS = 30
# the share of a corpus record's untraced time that the stage spans must cover
COVERAGE_FLOOR = 0.9


class NullTracer:
    """The Tracer interface, recording nothing: the untraced side of a replay."""

    def begin(self, name, parent=None, rid=None):
        return None

    def end(self, index) -> None:
        pass

    def run(self, name, parent, rid, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans = []

    def begin(self, name, parent=None, rid=None) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, parent, rid])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()

    def run(self, name, parent, rid, fn, *args):
        index = self.begin(name, parent, rid)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def add(self, name, t0, t1, parent=None, rid=None) -> None:
        self.spans.append([name, t0, t1, parent, rid])

    def durations(self, cal) -> dict:
        """Calibrated span lengths in ns, by span name."""
        out = defaultdict(list)
        for name, t0, t1, _, _ in self.spans:
            out[name].append(cal.scaled(t0, t1))
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "record"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# operands captured from the workload


class Pool:
    """The first matrices and forms of each size a workload handles."""

    CAP = 24

    def __init__(self):
        self.items = defaultdict(list)

    def _keep(self, key, item) -> None:
        if len(self.items[key]) < self.CAP:
            self.items[key].append(item)

    def add(self, forms, matrices) -> None:
        """(symmetric Gram, p) pairs, which also count as matrices, and matrices."""
        for gram, p in forms:
            self._keep(("form", len(gram)), (gram, int(p)))
            self._keep(("matrix", len(gram)), gram)
        for m in matrices:
            self._keep(("matrix", len(m)), m)

    def _at(self, kind, size):
        """Operands of one size; leading blocks of larger ones fill a gap."""
        own = list(self.items[(kind, size)])
        if len(own) >= 4:
            return own
        for key, bucket in sorted(self.items.items(), key=lambda kv: kv[0][1]):
            if key[0] != kind or key[1] <= size:
                continue
            for item in bucket:
                if kind == "form":
                    own.append((tuple(row[:size] for row in item[0][:size]), item[1]))
                else:
                    own.append(tuple(row[:size] for row in item[:size]))
        return own

    def matrices(self, size):
        return self._at("matrix", size)

    def invertible(self, size):
        return [m for m in self.matrices(size) if det(m) != 0]

    def forms(self, size):
        return [(g, p) for g, p in self._at("form", size) if det(g) != 0]


# ---------------------------------------------------------------------------
# the constancy stages of one record


def replay_record(tr, rid, p, n, k, c, seed, gram=None):
    """One constancy record through public calls, each stage under a span
    of tr (a Tracer or a NullTracer).

    Returns (lhs, rhs, inputs digest, forms, matrices).  The square-class
    lookups of K and c, and for a verb document the space in the basis of its
    Gram, count toward the quasisplit_space stage.
    """
    root = tr.begin("record", None, rid)
    q_v = tr.run(STAGES[0], root, rid, wl.record_space, p, n, k, c, gram)
    amb = tr.run(STAGES[1], root, rid, make_ambient, q_v, 1)
    config = tr.run(STAGES[2], root, rid, random_config, amb, seed)
    delta = tr.run(STAGES[3], root, rid, rigidify, config)[0]
    lhs = tr.run(STAGES[4], root, rid, transfer_factor_whittaker, amb.q_V, delta, n)
    rhs = tr.run(STAGES[5], root, rid, lambda: weil_index(scale(2 * (-1) ** n, amb.q_V)))
    digest = tr.run(STAGES[6], root, rid, lambda: cli.digest(cli.config_doc(config)))
    tr.end(root)
    sym = tuple(tuple((delta[i][j] + delta[j][i]) / 2 for j in range(len(delta)))
                for i in range(len(delta)))
    forms = [(q_v.gram, p), (sym, p), (amb.gram_q1, p)]
    return str(lhs), str(rhs), digest, forms, [config.X, config.Y]


# ---------------------------------------------------------------------------
# passes


class TracedRun:
    def __init__(self, workload, seed, seconds, smoke, cal):
        self.workload, self.seed, self.seconds, self.smoke = workload, seed, seconds, smoke
        self.cal = cal
        self.tr = Tracer()
        self.null = NullTracer()
        self.pool = Pool()
        self.rid = 0
        self.cli_lib_times = []
        # (start ns, end ns, operations) of each replay, without and with spans
        self.replays = {"untraced": [], "traced": []}
        # the program's own untraced time for the records replayed under spans
        self.program_ns = []
        self.extra_attempted = 0
        self.extra_failed = 0

    def next_rid(self) -> int:
        self.rid += 1
        return self.rid

    def paired(self, rid, fn, count):
        """Runs fn(tracer) without and with spans, in alternating order, timing
        each whole replay from outside; returns both results, untraced first."""
        results = {}
        for side in (("untraced", "traced") if rid % 2 else ("traced", "untraced")):
            t0 = time.perf_counter_ns()
            results[side] = fn(self.tr if side == "traced" else self.null)
            t1 = time.perf_counter_ns()
            self.replays[side].append((t0, t1, count))
            self.cal.tick(t1 - t0)
        return results["untraced"], results["traced"]

    def replay_corpus(self, records, t0, t1) -> int:
        """Replays a call's records; returns how many disagree with the manifest."""
        self.program_ns.append((t0, t1))
        bad = 0
        for r in records:
            rid = self.next_rid()
            plain, traced = self.paired(rid, lambda tr: replay_record(
                tr, rid, r["p"], r["n"], r["K"], r["c"], r["seed"]), 1)
            want = (r["lhs"], r["rhs"], r["inputs_digest"])
            bad += plain[:3] != want or traced[:3] != want
            self.pool.add(*traced[3:])
        return bad

    def traced_calls(self, tr, op: wl.Op, rid):
        """The operation's calls through cli.main, each under a span of tr."""
        return [tr.run("cli." + op.kind, None, rid, wl.call_cli, argv)[:2]
                for argv, _ in op.calls]

    def lib_calls(self, op: wl.Op, first_span: int) -> None:
        """Times the library call behind each verb call, for cli.overhead."""
        for i, (_, lib) in enumerate(op.calls):
            if lib is not None:
                l0 = time.perf_counter_ns()
                lib()
                l1 = time.perf_counter_ns()
                _, t0, t1, _, rid = self.tr.spans[first_span + i]
                self.tr.add("lib." + op.kind, l0, l1, None, rid)
                self.cli_lib_times.append((t0, t1, l0, l1))

    def checked(self, op: wl.Op, *outputs) -> bool:
        try:
            return all(op.check(out) for out in outputs)
        except (ValueError, KeyError, TypeError):
            return False

    def workload_verb(self, op: wl.Op, times) -> bool:
        """Replays an operation of the verbs workload without and with spans;
        True if it went wrong.  An endo check document is also replayed
        through the constancy stages."""
        rid = self.next_rid()
        first = len(self.tr.spans)  # the untraced replay adds no spans
        plain, traced = self.paired(rid, lambda tr: self.traced_calls(tr, op, rid),
                                    len(op.calls))
        self.lib_calls(op, first)
        ok = self.checked(op, plain, traced)
        if op.record is not None:
            p, n, k, c, seed, gram, digest = op.record
            lhs, rhs, got, forms, matrices = replay_record(self.tr, rid, p, n, k, c, seed, gram)
            ok = ok and lhs == rhs and got == digest
            self.program_ns += op.made + times
            self.pool.add(forms, matrices)
        self.pool.add(op.forms, op.matrices)
        return not ok

    def extra_verb(self, op: wl.Op) -> int:
        """Runs an operation under spans only; returns its span time in ns."""
        rid = self.next_rid()
        first = len(self.tr.spans)
        outputs = self.traced_calls(self.tr, op, rid)
        spent = sum(t1 - t0 for _, t0, t1, _, _ in self.tr.spans[first:])
        self.cal.tick(spent)
        self.lib_calls(op, first)
        self.pool.add(op.forms, op.matrices)
        self.extra_attempted += len(op.calls)
        self.extra_failed += 0 if self.checked(op, outputs) else len(op.calls)
        return spent

    def workload_pass(self):
        budget = self.seconds * SHARES[0]
        if self.workload in wl.CORPUS:
            return wl.run_corpus(self.workload, self.seed, budget, self.smoke, self.cal,
                                 on_call=self.replay_corpus)
        # four of each kind: twelve forms, so the deck of Gram dimensions has
        # dealt each size, 12 included, at least once
        return wl.run_verbs(self.seed, budget, self.cal, min_per_kind=4,
                            on_op=self.workload_verb)

    def kernel_pass(self) -> None:
        cells = []
        for size in KERNEL_SIZES:
            mats, inv, forms = (self.pool.matrices(size), self.pool.invertible(size),
                                self.pool.forms(size))
            pairs = [(a, mats[(i + 1) % len(mats)]) for i, a in enumerate(mats)]
            cells += [
                (f"linalg.det.n{size}", [(m,) for m in mats], det, None),
                (f"linalg.inverse.n{size}", [(m,) for m in inv], inverse, None),
                (f"linalg.charpoly.n{size}", [(m,) for m in mats], charpoly, None),
                (f"linalg.mat_mul.n{size}", pairs, mat_mul, None),
                (f"qform.diagonalize.n{size}", forms, diagonalize, quad_form),
                (f"qform.invariants.n{size}", forms, invariants, quad_form),
            ]
        scalars = []
        for size in KERNEL_SIZES:
            for gram, p in self.pool.forms(size)[:8]:
                diag, _ = diagonalize(quad_form(gram, p))
                scalars += [(a, b, p) for a, b in zip(diag, diag[1:])]
        cells += [("localfield.hilbert_qp", scalars, hilbert_qp, None),
                  ("localfield.square_class", [(a, p) for a, _, p in scalars],
                   square_class, None)]
        budget_ns = self.seconds * SHARES[1] * 1e9 / len(cells)
        for name, operands, fn, make in cells:
            if not operands:
                raise RuntimeError(f"no operands captured for {name}")
            spent, i = 0, 0
            while spent < budget_ns or i < 3:
                args = operands[i % len(operands)]
                if make is not None:
                    # a fresh form object per call, built outside the timed span
                    args = (make(*args),)
                t0 = time.perf_counter_ns()
                fn(*args)
                t1 = time.perf_counter_ns()
                self.tr.add(name, t0, t1, None, i % len(operands))
                spent += t1 - t0
                i += 1
                self.cal.tick(t1 - t0)

    def verb_pass(self) -> None:
        """A verb mix shaped like the corpus records, every kind in turn."""
        rng = wl.Draws(self.seed)
        shape = wl.CORPUS_SHAPES[self.workload]
        budget, spent = self.seconds * SHARES[2] * 1e9, 0
        while True:
            for kind in wl.VERB_KINDS:
                spent += self.extra_verb(wl.make_op(rng, shape, kind))
            if spent >= budget:
                return

    def build_parser_pass(self) -> None:
        for i in range(BUILD_PARSER_CALLS):
            self.tr.run("cli.build_parser", None, i, cli.build_parser)


def below_floor(workload: str, coverage) -> bool:
    """True for a corpus run whose stage spans miss the coverage floor.  It is
    flagged, not failed: a faster program can lower coverage on its own."""
    return workload in wl.CORPUS and coverage is not None and coverage < COVERAGE_FLOOR


def traced_run(workload: str, seed: int, seconds: float, smoke: bool, cal):
    """Returns (tally, per-layer metrics as (value, unit), tracer); times calibrated."""
    run = TracedRun(workload, seed, seconds, smoke, cal)
    tally = run.workload_pass()
    run.kernel_pass()
    if workload in wl.CORPUS:
        run.verb_pass()
    run.build_parser_pass()
    tally.attempted += run.extra_attempted
    tally.failed += run.extra_failed

    durations = run.tr.durations(cal)
    metrics = {}
    records = durations["record"]
    stage_total = 0
    for stage in STAGES:
        d = durations[stage]
        stage_total += sum(d)
        metrics[f"{stage}.us"] = (statistics.median(d) / 1e3, "us")
        metrics[f"{stage}.share"] = (sum(d) / sum(records), "ratio")
    metrics["record.us"] = (statistics.median(records) / 1e3, "us")
    # the stages against the program's own untraced time for the same records:
    # their corpus run calls, or the generation and endo check of a document
    coverage = stage_total / sum(cal.scaled(t0, t1) for t0, t1 in run.program_ns)
    metrics["stage.coverage"] = (coverage, "ratio")
    if below_floor(workload, coverage):
        print(f"perfbench: the stage spans cover {coverage:.3f} of a corpus record's "
              f"untraced time, below {COVERAGE_FLOOR}", file=sys.stderr)
    for size in KERNEL_SIZES:
        for kernel in KERNELS:
            name = f"{kernel}.n{size}"
            metrics[f"{name}.us"] = (statistics.median(durations[name]) / 1e3, "us")
    for name in SCALAR_KERNELS:
        metrics[f"{name}.us"] = (statistics.median(durations[name]) / 1e3, "us")
    for kind in wl.VERB_KINDS:
        metrics[f"cli.{kind}.ms"] = (statistics.median(durations["cli." + kind]) / 1e6, "ms")
    metrics["cli.build_parser.us"] = (statistics.median(durations["cli.build_parser"]) / 1e3, "us")
    overhead = [cal.scaled(t0, t1) - cal.scaled(l0, l1) for t0, t1, l0, l1 in run.cli_lib_times]
    metrics["cli.overhead.us"] = (statistics.median(overhead) / 1e3, "us")
    # tracing overhead: the same replays of pass 1, without and with spans
    for side in ("untraced", "traced"):
        replays = run.replays[side]
        seconds_spent = sum(cal.scaled(t0, t1) for t0, t1, _ in replays) / 1e9
        metrics[f"trace.{side}_ops_per_s"] = (sum(n for _, _, n in replays) / seconds_spent,
                                              "1/s")
    return tally, metrics, run.tr, coverage
