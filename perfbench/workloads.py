"""Seeded workload inputs, the untraced measurement loop and the output checks.

Every input is made here from the benchmark seed; the program only receives
the generated argv lists and JSON documents.  Each operation carries its own
check, so a wrong answer counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from twistedgl import cli
from twistedgl.endoscopy import gs_constancy_check, quasisplit_space
from twistedgl.etale import trace_form_quadratic
from twistedgl.classes import class_invariant
from twistedgl.gsnorm import GSConfiguration, make_ambient, random_config
from twistedgl.localfield import hilbert_qp, square_class, square_class_table
from twistedgl.qform import diag_form, invariants, quad_form, witt_decompose
from twistedgl.weil import weil_index

DEFAULT_SEED = 0

# primes, ns, records per (p, n) cell, and the same count in smoke mode.
# corpus-large uses 8 per cell so that a cell reuses at most 8 distinct q_V.
CORPUS = {
    "corpus-small": ((2, 3, 5, 7), "1,2", 16, 2),
    "corpus-large": ((2, 3, 5, 7), "6", 8, 1),
}

# the latency tail of each workload: the highest usual percentile with about
# twenty calls beyond it in a 20 s run (about 2500 verb calls, 120 corpus-small
# calls and 25 corpus-large calls; p90 on corpus-small, with twelve, spread
# about twice as much across seeds)
TAIL_PERCENTILE = {"verbs": 99, "corpus-small": 85, "corpus-large": 75}

WIDE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
               61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)
SPARE_PRIMES = (137, 139, 149, 151, 157)

VERB_KINDS = ("hilbert", "sqclass", "qform.invariants", "qform.witt",
              "weil.index", "endo.check", "gs.verify", "etale.traceform",
              "class.invariant")


@dataclass(frozen=True)
class Shape:
    """Which primes, config sizes and Gram dimensions a verb mix draws from."""

    primes: tuple
    config_primes: tuple
    config_ns: tuple
    gram_dims: tuple


VERBS_SHAPE = Shape(WIDE_PRIMES, (2, 3, 5, 7, 11, 13), (1, 2, 3), tuple(range(2, 13)))
# the verb mix that the traced run of a corpus workload drives, shaped like its records
CORPUS_SHAPES = {
    "corpus-small": Shape((2, 3, 5, 7), (2, 3, 5, 7), (1, 2), (2, 4)),
    "corpus-large": Shape((2, 3, 5, 7), (2, 3, 5, 7), (6,), (12,)),
}


# ---------------------------------------------------------------------------
# calling the program


def call_cli(argv):
    """Run one verb in-process through cli.main with its output captured.

    Returns (exit code, stdout, start ns, end ns); an exception escaping the
    CLI gives exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback out of the CLI is a failed operation
            code = None
            traceback.print_exc(file=err)
        t1 = time.perf_counter_ns()
    if code is None:
        print(f"perfbench: {' '.join(argv)[:200]} raised\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), t0, t1


def rat(x) -> str:
    return cli.rat_str(Fraction(x))


# ---------------------------------------------------------------------------
# corpus workloads


def corpus_argv(workload: str, primes, corpus_seed: int, smoke: bool) -> list:
    _, ns, count, smoke_count = CORPUS[workload]
    return ["corpus", "run", "--p", ",".join(map(str, primes)), "--n", ns,
            "--count", str(smoke_count if smoke else count), "--seed", str(corpus_seed)]


def corpus_records_per_call(workload: str, smoke: bool) -> int:
    _, ns, count, smoke_count = CORPUS[workload]
    return len(ns.split(",")) * (smoke_count if smoke else count)


def corpus_calls(workload: str, seed: int, smoke: bool):
    """Endless seeded stream of corpus calls, one prime per call in turn.

    Round k of benchmark seed s uses corpus seed s * 1000003 + k + 1 for
    every prime, so a round checks the records of one corpus run over all the
    primes, and no measured call repeats the reference call (corpus seed 0).
    """
    k = 0
    while True:
        for p in CORPUS[workload][0]:
            yield corpus_argv(workload, (p,), seed * 1_000_003 + k + 1, smoke)
        k += 1


def reference_argv(workload: str, smoke: bool) -> list:
    return corpus_argv(workload, CORPUS[workload][0], DEFAULT_SEED, smoke)


# the manifest fields present when the reference was recorded; fields added
# later (timings, stamps) are left out of the digest, elapsed_seconds always
MANIFEST_FIELDS = ("tool_version", "generator_version", "seed", "primes", "ns",
                   "count", "failures")
RECORD_FIELDS = ("seed", "p", "n", "K", "c", "index", "inputs_digest", "lhs",
                 "rhs", "pass")


def manifest_digest(manifest: dict) -> str | None:
    try:
        doc = {k: manifest[k] for k in MANIFEST_FIELDS}
        doc["records"] = [{k: r[k] for k in RECORD_FIELDS} for r in manifest["records"]]
    except (KeyError, TypeError):
        return None
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def read_manifest(code, out, expected: int):
    """(records, failed) for one corpus call; a call that crashed fails all."""
    if code not in (0, 1):
        return [], expected
    try:
        records = json.loads(out)["records"]
    except (ValueError, KeyError, TypeError):
        return [], expected
    failed = sum(1 for r in records if r.get("pass") is not True or r["lhs"] != r["rhs"])
    failed += max(0, expected - len(records))
    return records, max(failed, int(code != 0))


# ---------------------------------------------------------------------------
# independent p-adic facts used by the checks


def _split_p(x: Fraction, p: int) -> tuple[int, int]:
    """(valuation, an integer p-unit in the square class of the unit part)."""
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * den


def is_padic_square(x: Fraction, p: int) -> bool:
    v, u = _split_p(x, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def canonical_reps(p: int) -> tuple:
    if p == 2:
        return (1, -1, 2, -2, 5, -5, 10, -10)
    u = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
    return (1, u, p, u * p)


def support(x: Fraction) -> set:
    out = set()
    for n in (abs(x.numerator), x.denominator):
        q = 2
        while q * q <= n:
            while n % q == 0:
                out.add(q)
                n //= q
            q += 1
        if n > 1:
            out.add(n)
    return out


# ---------------------------------------------------------------------------
# random inputs


class Draws(random.Random):
    """A seeded generator that also deals from shuffled decks, so that each
    pass through a deck holds every item once: the mix of verb kinds, Gram
    dimensions and config sizes then varies little from seed to seed."""

    def __init__(self, seed):
        super().__init__(seed)
        self.decks = {}

    def deal(self, name, items):
        deck = self.decks.setdefault(name, [])
        if not deck:
            deck.extend(items)
            self.shuffle(deck)
        return deck.pop()


def rand_rat(rng: random.Random, primes, p_bias: int | None = None) -> Fraction:
    """A nonzero rational whose prime support lies in primes."""
    x = Fraction(rng.choice((1, -1)))
    for _ in range(rng.randint(0, 3)):
        q = rng.choice(primes)
        x = x * q ** rng.randint(1, 2) if rng.random() < 0.6 else x / q
    if p_bias is not None and rng.random() < 0.5:
        x *= Fraction(p_bias) ** rng.choice((-1, 1, 2))
    return x


def unimodular(rng: random.Random, d: int, fractions: bool) -> list:
    """A random matrix of determinant +-1: unit-triangular factors, then a column swap."""
    choices = (-2, -1, 0, 0, 1, 2) + ((Fraction(1, 2), Fraction(-1, 3)) if fractions else ())
    lo = [[Fraction(int(i == j)) if j >= i else Fraction(rng.choice(choices))
           for j in range(d)] for i in range(d)]
    up = [[Fraction(int(i == j)) if j <= i else Fraction(rng.choice(choices))
           for j in range(d)] for i in range(d)]
    m = [[sum(lo[i][k] * up[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    i, j = rng.sample(range(d), 2)
    for row in m:
        row[i], row[j] = row[j], row[i]
    return m


def congruence(gram, pm) -> list:
    """P^T G P."""
    d = len(gram)
    gp = [[sum(gram[i][k] * pm[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return [[sum(pm[k][i] * gp[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def nonnorm(k: int, p: int) -> int:
    return next(x.representative for x in square_class_table(p)
                if hilbert_qp(k, x.representative, p) == -1)


# ---------------------------------------------------------------------------
# verb operations


@dataclass
class Op:
    """One checked operation: one or more CLI calls and their check.

    calls pairs each argv with the library call that does the same work on
    already-parsed inputs (None where the verb has no single library call).
    record names the constancy pipeline behind a config document, for replay.
    forms ((Gram, p) pairs) and matrices are the operands it hands the program.
    made holds the (start, end) ns intervals in which the program generated
    the operation's document.
    """

    kind: str
    calls: list
    check: Callable[[list], bool]
    record: tuple | None = None
    forms: list = field(default_factory=list)
    matrices: list = field(default_factory=list)
    made: list = field(default_factory=list)


def _json_out(outputs, i=0):
    code, out = outputs[i]
    return json.loads(out) if code == 0 else None


def op_hilbert(rng, shape):
    a, b = rand_rat(rng, shape.primes), rand_rat(rng, shape.primes)
    places = sorted({2} | support(a) | support(b))
    spare = next(q for q in shape.primes + SPARE_PRIMES if q not in places)
    calls = [(["hilbert", "--p", str(q), "--", rat(a), rat(b)],
              lambda q=q: hilbert_qp(a, b, q)) for q in places + [spare]]

    def check(outputs):
        values = [_json_out(outputs, i)["hilbert"] for i in range(len(outputs))]
        real = -1 if a < 0 and b < 0 else 1
        prod = real
        for v in values[:-1]:
            prod *= v
        # Hilbert reciprocity over all places, and triviality away from 2ab
        return prod == 1 and values[-1] == 1
    return Op("hilbert", calls, check)


def op_sqclass(rng, shape):
    p = rng.choice(shape.primes)
    a = rand_rat(rng, shape.primes, p)

    def check(outputs):
        c = _json_out(outputs)["class"]
        return c in canonical_reps(p) and is_padic_square(a / c, p)
    return Op("sqclass", [(["sqclass", "--p", str(p), "--", rat(a)],
                           lambda: square_class(a, p))], check)


def op_form(rng: Draws, shape, kind):
    """A Gram P^T diag(a) P; its invariants are those of diag(a)."""
    d, p = rng.deal("dim", shape.gram_dims), rng.choice(shape.primes)
    diag = [rand_rat(rng, shape.primes, p) for _ in range(d)]
    gram = tuple(tuple(row) for row in congruence(
        [[diag[i] if i == j else Fraction(0) for j in range(d)] for i in range(d)],
        unimodular(rng, d, True)))
    argv = kind.split(".") + ["--json", json.dumps({"p": p, "gram": cli.mat_doc(gram)})]
    if kind == "qform.invariants":
        lib = lambda: invariants(quad_form(gram, p))

        def check(outputs):
            got, inv = _json_out(outputs), invariants(diag_form(diag, p))
            return got == {"dim": inv.dim, "det": inv.det.representative,
                           "dpm": inv.dpm.representative, "hasse": inv.hasse,
                           "witt_index": inv.witt_index, "aniso_dim": inv.aniso_dim}
    elif kind == "qform.witt":
        lib = lambda: witt_decompose(quad_form(gram, p))

        def check(outputs):
            got = _json_out(outputs)
            witt, kernel = witt_decompose(diag_form(diag, p))
            return got == {"witt_index": witt,
                           "kernel": {"aniso_dim": kernel.aniso_dim,
                                      "det": kernel.det.representative,
                                      "hasse": kernel.hasse}}
    else:
        lib = lambda: weil_index(quad_form(gram, p))

        def check(outputs):
            return _json_out(outputs) == {"weil_index": str(weil_index(diag_form(diag, p)))}
    return Op(kind, [(argv, lib)], check, forms=[(gram, p)])


def make_record(rng: Draws, shape):
    """The inputs of a constancy record on a fresh basis: (p, n, K, c, seed, P)."""
    p, n = rng.deal("config_p", shape.config_primes), rng.deal("config_n", shape.config_ns)
    ks = [k.representative for k in square_class_table(p) if n > 1 or k.representative != 1]
    k = rng.choice(ks)
    c = 1 if k == 1 or rng.random() < 0.5 else nonnorm(k, p)
    return p, n, k, c, rng.randrange(2 ** 31), unimodular(rng, 2 * n, False)


def record_space(p, n, k, c, gram=None):
    """The program's quasisplit space, or the same space in the basis of gram."""
    q = quasisplit_space(2 * n, square_class(k, p), square_class(c, p), p)
    return q if gram is None else quad_form(gram, p)


def config_document(inputs):
    """The program generates a config document from a record's inputs.

    Returns (config, document, Gram of V, the (start, end) ns intervals of
    the program's calls).  The change of basis is the benchmark's own work
    and lies outside the intervals.
    """
    p, n, k, c, seed, pm = inputs
    t0 = time.perf_counter_ns()
    q = quasisplit_space(2 * n, square_class(k, p), square_class(c, p), p)
    t1 = time.perf_counter_ns()
    gram = tuple(tuple(row) for row in congruence(q.gram, pm))
    t2 = time.perf_counter_ns()
    config = random_config(make_ambient(quad_form(gram, p), 1), seed)
    doc = cli.config_doc(config)
    t3 = time.perf_counter_ns()
    return config, doc, gram, [(t0, t1), (t2, t3)]


def op_config(rng, shape, kind):
    p, n, k, c, seed, pm = make_record(rng, shape)
    config, doc, gram, made = config_document((p, n, k, c, seed, pm))
    x, y = config.X, config.Y
    operands = {"forms": [(gram, p)], "matrices": [x, y], "made": made}
    if kind == "endo.check":
        argv = ["endo", "check", "--n", str(n), "--json", json.dumps(doc)]
        lib = lambda: gs_constancy_check(
            GSConfiguration(make_ambient(quad_form(gram, p), 1), x, y), n)

        def check(outputs):
            return _json_out(outputs) == {"constancy": True}
        return Op(kind, [(argv, lib)], check, (p, n, k, c, seed, gram, cli.digest(doc)),
                  **operands)
    argv = ["gs", "verify", "--json", json.dumps(doc)]

    def check(outputs):
        got = _json_out(outputs)
        return got is not None and got["all_pass"] is True
    return Op(kind, [(argv, None)], check, **operands)


def _tower(rng, p):
    """A random tower over Q_p: split, or Q_p(sqrt d) with d a non-square."""
    if rng.random() < 0.4:
        return {"base": {"p": p}, "step": "split"}, None
    d = rng.choice(canonical_reps(p)[1:]) * rng.randint(1, 5) ** 2
    return {"base": {"p": p}, "step": {"d": str(d)}}, Fraction(d)


def op_traceform(rng, shape):
    """Trace form of a fixed twist c: [[0,c],[c,0]] split, diag(2c, -2dc) otherwise."""
    p = rng.choice(shape.primes)
    towers = [_tower(rng, p) for _ in range(rng.choice((1, 1, 2)))]
    cs = [rand_rat(rng, shape.primes) for _ in towers]
    doc = {"algebra": [t for t, _ in towers],
           "c": [[rat(c), rat(c)] if d is None else [rat(c), "0"]
                 for (_, d), c in zip(towers, cs)]}
    dim = 2 * len(towers)
    expect = [[Fraction(0)] * dim for _ in range(dim)]
    for i, ((_, d), c) in enumerate(zip(towers, cs)):
        if d is None:
            expect[2 * i][2 * i + 1] = expect[2 * i + 1][2 * i] = c
        else:
            expect[2 * i][2 * i], expect[2 * i + 1][2 * i + 1] = 2 * c, -2 * d * c
    algebra = cli.parse_algebra(doc["algebra"])
    element = cli.parse_element(algebra, doc["c"])

    def check(outputs):
        return _json_out(outputs) == {"p": p, "gram": cli.mat_doc(expect)}
    return Op("etale.traceform",
              [(["etale", "traceform", "--json", json.dumps(doc)],
                lambda: trace_form_quadratic(algebra, element))], check)


def op_class_invariant(rng, shape):
    """tGL-even class of x = (a, b): char poly of x / tau(x) is T^2 - t T + 1."""
    p = rng.choice(shape.primes)
    tower, d = _tower(rng, p)
    while True:
        a, b = rand_rat(rng, shape.primes), rand_rat(rng, shape.primes)
        if a * a != b * b:
            break
    t = a / b + b / a if d is None else 2 * (a * a + d * b * b) / (a * a - d * b * b)
    doc = {"kind": "tGL-even", "algebra": [tower], "x": [[rat(a), rat(b)]]}
    param = cli.parse_param(doc)

    def check(outputs):
        return _json_out(outputs) == {"char_poly": ["1", rat(-t), "1"],
                                      "kind": "tGL-even", "aux": []}
    return Op("class.invariant",
              [(["class", "invariant", "--json", json.dumps(doc)],
                lambda: class_invariant(param))], check)


def make_op(rng, shape, kind) -> Op:
    if kind == "hilbert":
        return op_hilbert(rng, shape)
    if kind == "sqclass":
        return op_sqclass(rng, shape)
    if kind in ("qform.invariants", "qform.witt", "weil.index"):
        return op_form(rng, shape, kind)
    if kind in ("endo.check", "gs.verify"):
        return op_config(rng, shape, kind)
    if kind == "etale.traceform":
        return op_traceform(rng, shape)
    return op_class_invariant(rng, shape)


def verb_ops(seed: int, shape=VERBS_SHAPE):
    """Endless seeded stream of verb operations; each block of nine holds
    every kind once.  Equal weights: no record of real traffic says otherwise."""
    rng = Draws(seed)
    while True:
        yield make_op(rng, shape, rng.deal("kind", VERB_KINDS))


def run_op(op: Op):
    """Run an operation's calls untraced; returns (outputs, [(start, end) ns], ok)."""
    outputs, times = [], []
    for argv, _ in op.calls:
        code, out, t0, t1 = call_cli(argv)
        outputs.append((code, out))
        times.append((t0, t1))
    try:
        ok = op.check(outputs)
    except (ValueError, KeyError, TypeError):
        ok = False
    return outputs, times, ok


# ---------------------------------------------------------------------------
# set-up: the work done before the first measured call


SETUP_DOCS = 12


def setup_inputs(workload: str, seed: int, smoke: bool):
    """What set-up hands the program, made before its clock starts: the argv
    of the first corpus plan, or the inputs of the first config documents."""
    if workload in CORPUS:
        argv = next(corpus_calls(workload, seed, smoke))
        argv[1] = "generate"
        return argv
    rng = Draws(seed)
    return [make_record(rng, VERBS_SHAPE) for _ in range(1 if smoke else SETUP_DOCS)]


def generate(workload: str, inputs) -> list:
    """Plan or document generation by the program; returns the (start, end)
    ns intervals of its calls."""
    if workload in CORPUS:
        code, _, t0, t1 = call_cli(inputs)
        if code != 0:
            raise RuntimeError(f"corpus generate exited {code}")
        return [(t0, t1)]
    return [interval for record in inputs for interval in config_document(record)[3]]


# ---------------------------------------------------------------------------
# untraced runs


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    busy_ns: int = 0
    calls: list = field(default_factory=list)

    def add_call(self, t0: int, t1: int) -> None:
        self.busy_ns += t1 - t0
        self.calls.append((t0, t1))


def check_reference(workload: str, smoke: bool, reference: dict) -> tuple[int, int]:
    """Run the default-seed reference call and compare its manifest digest.

    This is also the warm-up call: it runs before anything is timed.  Returns
    (records checked, records failed); a digest mismatch fails them all.
    """
    argv = reference_argv(workload, smoke)
    records = len(CORPUS[workload][0]) * corpus_records_per_call(workload, smoke)
    code, out, _, _ = call_cli(argv)
    try:
        digest = manifest_digest(json.loads(out)) if code == 0 else None
    except ValueError:
        digest = None
    ok = digest is not None and digest == reference.get(" ".join(argv))
    return records, 0 if ok else records


def run_corpus(workload: str, seed: int, seconds: float, smoke: bool, cal,
               on_call=None) -> Tally:
    """Corpus calls until seconds of call time, sampling the calibration between.

    on_call sees each call's records and (start, end) ns, and returns how
    many of the records it found wrong.
    """
    tally, expected = Tally(), corpus_records_per_call(workload, smoke)
    for argv in corpus_calls(workload, seed, smoke):
        code, out, t0, t1 = call_cli(argv)
        tally.add_call(t0, t1)
        cal.tick(t1 - t0)
        records, failed = read_manifest(code, out, expected)
        if on_call is not None:
            failed += on_call(records, t0, t1)
        tally.attempted += expected
        tally.failed += min(failed, expected)
        # stop at the end of a round, so that every prime weighs the same
        if tally.busy_ns >= seconds * 1e9 and len(tally.calls) % len(CORPUS[workload][0]) == 0:
            return tally


def run_verbs(seed: int, seconds: float, cal, on_op=None, min_per_kind: int = 0) -> Tally:
    """Verb operations until seconds of call time and min_per_kind of each kind,
    sampling the calibration between.

    on_op sees each operation and the (start, end) ns of its untraced calls,
    and returns whether it found the operation wrong.
    """
    tally, seen = Tally(), dict.fromkeys(VERB_KINDS, 0)
    for op in verb_ops(seed):
        outputs, times, ok = run_op(op)
        for t0, t1 in times:
            tally.add_call(t0, t1)
            cal.tick(t1 - t0)
        if on_op is not None and on_op(op, times):
            ok = False
        tally.attempted += len(op.calls)
        tally.failed += 0 if ok else len(op.calls)
        seen[op.kind] += 1
        if tally.busy_ns >= seconds * 1e9 and min(seen.values()) >= min_per_kind:
            return tally


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
