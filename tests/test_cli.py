"""Command-line surface: verbs, literals, exit codes, determinism."""

import argparse
import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import count_eliminations, reference_transfer_factor, symmetrized_rows
from twistedgl import endoscopy, etale
from twistedgl.cli import (_corpus_entries, _run_entries, build_parser, config_doc,
                           digest, main, rat_json, rat_str)
from twistedgl.endoscopy import quasisplit_space, transfer_factor_whittaker
from twistedgl.gsnorm import make_ambient, random_config, rigidify
from twistedgl.linalg import det, inverse, mat, mat_mul, transpose
from twistedgl.localfield import square_class, square_class_table
from twistedgl.qform import QuadForm, alternating_form, diag_form, quad_form, scale
from twistedgl.weil import Mu8, epsilon_half, weil_index

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_process(*argv, **kwargs) -> subprocess.Popen:
    """python -m twistedgl.cli argv in a fresh process, run from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.Popen([sys.executable, "-m", "twistedgl.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            **kwargs)


def test_hilbert_verb(capsys):
    code, doc = run(capsys, "hilbert", "5", "2", "--p", "5")
    assert code == 0 and doc["hilbert"] == -1


def test_hilbert_with_oracle(capsys):
    code, doc = run(capsys, "hilbert", "5", "2", "--p", "5", "--oracle")
    assert code == 0 and doc["oracle"] == "insoluble"


def test_hilbert_oracle_inconclusive_exit(capsys):
    code, doc = run(capsys, "hilbert", "-1", "-1", "--p", "2", "--oracle",
                    "--depth", "1")
    assert code == 3 and doc["oracle"] == "inconclusive"


def test_hilbert_oracle_refuses_work_above_its_bound(capsys):
    # the budget depth 4 at p = 101, and a depth-1 search's 101^3 triples,
    # are both charged above oracles.MAX_TRIPLES and refused before any search
    for extra in ((), ("--depth", "1")):
        started = time.perf_counter()
        code, doc = run(capsys, "hilbert", "101", "2", "--p", "101", "--oracle", *extra)
        assert code == 2 and doc is None
        assert time.perf_counter() - started < 1


def test_hilbert_oracle_refuses_a_depth_below_one(capsys):
    for depth in ("0", "-1"):
        code, doc = run(capsys, "hilbert", "5", "2", "--p", "5", "--oracle",
                        "--depth", depth)
        assert code == 2 and doc is None


@pytest.mark.parametrize("literal", ["1e9999999", "0.5", "1_0"])
def test_a_rational_is_an_integer_or_num_den_only(capsys, literal):
    # Fraction accepts all three, and builds 10^9999999 in time quadratic
    # in the exponent
    started = time.perf_counter()
    code, doc = run(capsys, "sqclass", "--p", "2", "--", literal)
    assert code == 2 and doc is None
    assert time.perf_counter() - started < 1


def test_signed_integer_and_num_den_literals_parse(capsys):
    code, doc = run(capsys, "sqclass", "--p", "2", "--", "-3/4")
    assert code == 0
    assert doc["class"] == run(capsys, "sqclass", "--p", "2", "--", "-3")[1]["class"]
    code, doc = run(capsys, "sqclass", "--p", "2", "--", "12")
    assert code == 0 and doc["class"] == run(capsys, "sqclass", "3", "--p", "2")[1]["class"]


def test_a_deeply_nested_document_exits_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    proc = cli_process("qform", "invariants", "--in", str(deep))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2 and out == ""
    assert err.startswith("malformed input: RecursionError(")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("argv, path", [
    (("qform", "invariants", "--in"), "missing.json"),
    (("sqclass", "3", "--p", "5", "--out"), "missing/x.json"),
])
def test_an_unreadable_or_unwritable_file_exits_2(argv, path, tmp_path):
    proc = cli_process(*argv, str(tmp_path / path))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2 and out == ""
    assert err.startswith("I/O error: [Errno 2] No such file or directory")
    assert err.count("\n") == 1  # one line, no traceback


def test_a_closed_stdout_exits_2(tmp_path):
    # corpus run ... | head -1: the manifest, about 90 kB, overfills the pipe,
    # so emit writes to a pipe whose reader has gone
    proc = cli_process("corpus", "run", "--p", "3", "--n", "1,2", "--count", "200")
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == "I/O error: [Errno 32] Broken pipe\n"  # nothing at shutdown


def test_sqclass_verb(capsys):
    code, doc = run(capsys, "sqclass", "18", "--p", "3")
    assert code == 0 and doc["class"] == 2


def test_qform_invariants(capsys):
    payload = json.dumps({"p": 3, "diag": ["1", "-3"]})
    code, doc = run(capsys, "qform", "invariants", "--json", payload)
    assert code == 0
    assert doc["dim"] == 2 and doc["hasse"] in (1, -1)
    assert doc["witt_index"] == 0


def test_qform_equiv_and_witt(capsys):
    payload = json.dumps({"q1": {"p": 5, "diag": ["1", "1"]},
                          "q2": {"p": 5, "diag": ["2", "2"]}})
    code, doc = run(capsys, "qform", "equiv", "--json", payload)
    assert code == 0 and doc["equivalent"] is True
    payload = json.dumps({"p": 3, "gram": [["0", "1"], ["1", "0"]]})
    code, doc = run(capsys, "qform", "witt", "--json", payload)
    assert code == 0 and doc["witt_index"] == 1


def test_weil_verbs(capsys):
    payload = json.dumps({"p": 3, "diag": ["1", "-1"]})
    code, doc = run(capsys, "weil", "index", "--json", payload)
    assert code == 0 and doc["weil_index"] == "zeta8^0"
    code, doc = run(capsys, "weil", "epsilon", "--p", "3", "--d", "3")
    assert code == 0 and doc["epsilon_half"] == "zeta8^6"
    code, doc = run(capsys, "weil", "oracle", "--p", "3", "--a", "1/9", "--k", "1")
    assert code == 0 and doc["snapped"] == "zeta8^0"


def test_etale_verbs(capsys):
    algebra = [{"base": {"p": 3}, "step": {"d": "2"}}]
    code, doc = run(capsys, "etale", "build", "--json", json.dumps(algebra))
    assert code == 0 and doc["dim_over_Qp"] == 2
    payload = json.dumps({"algebra": algebra, "c": [["1", "0"]]})
    code, doc = run(capsys, "etale", "traceform", "--json", payload)
    assert code == 0 and doc["gram"] == [["2", "0"], ["0", "-4"]]


def test_class_verbs(capsys):
    param = {"kind": "tGL-even",
             "algebra": [{"base": {"p": 5}, "step": "split"}],
             "x": [["3", "7"]]}
    code, doc = run(capsys, "class", "build", "--json", json.dumps(param))
    assert code == 0 and doc["delta"] == [["0", "7"], ["3", "0"]]
    code, doc = run(capsys, "class", "invariant", "--json", json.dumps(param))
    assert code == 0 and len(doc["char_poly"]) == 3
    code, doc = run(capsys, "class", "elliptic", "--json", json.dumps(param))
    assert code == 0 and doc["elliptic"] is False


SPLIT5 = [{"base": {"p": 5}, "step": "split"}]
SPLIT3 = [{"base": {"p": 3}, "step": "split"}]
# y = (1 + s)/(1 - s) = -3 - 2s in Q_3(sqrt 2) has norm one
QUAD3 = [{"base": {"p": 3}, "step": {"d": "2"}}]
ROTATION = {"algebra": QUAD3, "x": [["-3", "-2"]], "c": [["1", "0"]]}


@pytest.mark.parametrize("param, want", [
    ({"kind": "tGL-even", "algebra": SPLIT5, "x": [["3", "7"]]},
     {"delta": [["0", "7"], ["3", "0"]]}),
    ({"kind": "tGL-odd", "algebra": SPLIT3, "x": [["2", "7"]], "xD": "1"},
     {"delta": [["0", "7", "0"], ["2", "0", "0"], ["0", "0", "1"]]}),
    ({"kind": "SO-even", **ROTATION},
     {"q": {"p": 3, "gram": [["2", "0"], ["0", "-4"]]},
      "gamma": [["-3", "-4"], ["-2", "-3"]]}),
    ({"kind": "SO-odd", **ROTATION, "a": "1"},
     {"q": {"p": 3, "gram": [["2", "0", "0"], ["0", "-4", "0"], ["0", "0", "1"]]},
      "gamma": [["-3", "-4", "0"], ["-2", "-3", "0"], ["0", "0", "1"]]}),
    ({"kind": "Sp", "algebra": SPLIT5, "x": [["2", "1/2"]], "c": [["1", "-1"]]},
     {"q": {"p": 5, "gram": [["0", "-1"], ["1", "0"]]},
      "gamma": [["2", "0"], ["0", "1/2"]]}),
])
def test_class_build_document_of_each_buildable_kind(capsys, param, want):
    assert run(capsys, "class", "build", "--json", json.dumps(param)) == (0, want)


@pytest.mark.parametrize("param", [
    {"kind": "U", **ROTATION},
    {"kind": "tGL-E", "algebra": SPLIT5, "x": [["3", "7"]]}])
def test_class_build_refuses_the_unitary_kinds(capsys, param):
    assert main(["class", "build", "--json", json.dumps(param)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"usage error: build does not surface kind {param['kind']}\n")


def test_rational_output_literals():
    assert [rat_str(x) for x in (F(-6, 4), F(7), 3, "5/10")] == ["-3/2", "7", "3", "1/2"]
    assert [rat_json(x) for x in (F(-6, 4), F(7), -2)] == ["-3/2", 7, -2]
    for fmt in (rat_str, rat_json):
        with pytest.raises(TypeError):
            fmt(0.5)  # a float has already lost the exact value


def test_gs_random_refuses_an_odd_orthogonal_ambient_at_once(capsys):
    # an isometry of an odd-dimensional quadratic space has eigenvalue +-1,
    # so no very regular norm exists: exit 2 before any sampling
    for diag in (["1"], ["1", "-2", "3"], ["1", "2", "-3", "5", "7"]):
        spec = {"qV": {"p": 3, "diag": diag}, "epsilon": 1}
        start = time.perf_counter()
        code = main(["gs", "random", "--seed", "1", "--json", json.dumps(spec)])
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "odd orthogonal" in err


def test_corpus_run_takes_no_rational_determinant(capsys, monkeypatch):
    _, dets = count_eliminations(monkeypatch)
    code, doc = run(capsys, "corpus", "run", "--p", "2,3", "--n", "1,2,3",
                    "--count", "2", "--seed", "1")
    assert code == 0 and doc["failures"] == 0 and dets == []


def test_corpus_run_eliminates_once_per_record(capsys, monkeypatch):
    grams, _ = count_eliminations(monkeypatch)
    for p in (2, 3, 5):
        del grams[:]
        code, doc = run(capsys, "corpus", "run", "--p", str(p), "--n", "2,3",
                        "--count", "6", "--seed", "1")
        assert code == 0 and doc["failures"] == 0
        for cell in doc["cells"]:
            n = cell["n"]
            space = quasisplit_space(2 * n, square_class(cell["K"], p),
                                     square_class(cell["c"], p), p)
            # the space is built with its diagonal, and the rhs reads the Weil
            # index of 2 (-1)^n q off q's scaled diagonal
            assert grams.count(space.rows) == 0
            assert grams.count(scale(2 * (-1) ** n, space).rows) == 0
        # per record its q_delta and nothing per cell: the target (-1)^n N_K
        # is built with its diagonal too
        assert len(grams) == sum(cell["records"] for cell in doc["cells"])


# SHA-256 of the manifest with sorted keys and elapsed_seconds dropped, first
# 16 hex digits: a change of any output of these plans changes its digest
MANIFEST_DIGESTS = [
    ((), "9f833e50e769f269"),
    (("--p", "2,3,5,7", "--n", "6", "--count", "8", "--seed", "0"), "189e2efb28600431"),
    (("--p", "2,3,5,7", "--n", "1,2", "--count", "16"), "81f4778b1ea21bc3"),
]


@pytest.mark.parametrize("plan, want", MANIFEST_DIGESTS)
def test_corpus_manifest_is_pinned(capsys, plan, want):
    code, doc = run(capsys, "corpus", "run", *plan)
    assert code == 0
    del doc["elapsed_seconds"]
    doc_bytes = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(doc_bytes).hexdigest()[:16] == want


def test_gs_round_trip_through_cli(capsys):
    spec = {"qV": {"p": 3, "diag": ["1", "-2", "2", "3"]}, "epsilon": 1}
    code, cfg = run(capsys, "gs", "random", "--seed", "5", "--json", json.dumps(spec))
    assert code == 0
    code, doc = run(capsys, "gs", "verify", "--json", json.dumps(cfg))
    assert code == 0 and doc["all_pass"] is True
    code, doc = run(capsys, "gs", "norm", "--json", json.dumps(cfg))
    assert code == 0 and len(doc["gamma"]) == 4
    # corrupting Y must fail verification with exit 1
    cfg_bad = json.loads(json.dumps(cfg))
    row = cfg_bad["Y"][0]
    row[0] = str(int(json.loads('"1"')) + 100)
    code, doc = run(capsys, "gs", "verify", "--json", json.dumps(cfg_bad))
    assert code == 1 and doc["all_pass"] is False


def test_gs_verbs_on_an_alternating_ambient(capsys):
    # epsilon = -1 reads qV as an alternating form; each verb is fed the
    # output of the one before
    spec = {"qV": {"p": 3, "gram": [["0", "1"], ["-1", "0"]]}, "epsilon": -1}
    code, cfg = run(capsys, "gs", "random", "--seed", "2", "--json", json.dumps(spec))
    assert code == 0 and cfg["ambient"] == spec
    code, norm = run(capsys, "gs", "norm", "--json", json.dumps(cfg))
    assert code == 0 and len(norm["gamma"]) == 2
    section_in = {"ambient": cfg["ambient"], "X": cfg["X"], "gamma": norm["gamma"]}
    code, section = run(capsys, "gs", "section", "--json", json.dumps(section_in))
    assert code == 0
    verify_in = {"ambient": cfg["ambient"], "X": cfg["X"], "Y": section["Y"]}
    code, doc = run(capsys, "gs", "verify", "--json", json.dumps(verify_in))
    assert code == 0 and doc["all_pass"] is True
    # an alternating Gram is not a form for epsilon = +1, nor a diagonal one
    # for epsilon = -1
    for bad in ({**spec, "epsilon": 1},
                {"qV": {"p": 3, "diag": ["1", "1"]}, "epsilon": -1}):
        assert main(["gs", "random", "--json", json.dumps(bad)]) == 2
    capsys.readouterr()


def test_gs_section_and_norm_refuse_what_they_cannot_answer(capsys):
    ambient = {"qV": {"p": 3, "diag": ["1", "1"]}}
    eye, rot = [["1", "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]
    code, good = run(capsys, "gs", "section", "--json",
                     json.dumps({"ambient": ambient, "X": eye, "gamma": rot}))
    assert code == 0
    # an X or gamma that is not n x n is refused, not cut down to n x n
    eye3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    for x, gamma in ((eye, [["0", "1", "5"], ["-1", "0", "7"], ["9", "9", "9"]]),
                     (eye, [["0", "1", "5"], ["-1", "0", "7"]]), (eye, [["0", "1"]]),
                     (eye3, rot), ([["1", "0", "0"], ["0", "1", "0"]], rot)):
        code, doc = run(capsys, "gs", "section", "--json",
                        json.dumps({"ambient": ambient, "X": x, "gamma": gamma}))
        assert code == 2 and doc is None, (x, gamma)
    # X = Y = I fails the closure condition, so its gamma = 2I is no isometry:
    # gs norm refuses it as endo check does, and gs verify reports it
    unclosed = json.dumps({"ambient": ambient, "X": eye, "Y": eye})
    code, doc = run(capsys, "gs", "norm", "--json", unclosed)
    assert code == 2 and doc is None
    code, doc = run(capsys, "endo", "check", "--n", "1", "--json", unclosed)
    assert code == 2 and doc is None
    code, doc = run(capsys, "gs", "verify", "--json", unclosed)
    assert code == 1 and doc["checks"] == {"xy_condition": False}
    closed = json.dumps({"ambient": ambient, "X": eye, "Y": good["Y"]})
    code, doc = run(capsys, "gs", "norm", "--json", closed)
    assert code == 0 and doc["gamma"] == rot
    # gamma = 2I is no isometry of diag(1, 1), so it has no section
    code, doc = run(capsys, "gs", "section", "--json", json.dumps(
        {"ambient": ambient, "X": eye, "gamma": [["2", "0"], ["0", "2"]]}))
    assert code == 2 and doc is None
    # gs param refuses an unclosed pair too, here GS_PARAM with one entry of
    # Y moved
    unclosed_param = copy.deepcopy(GS_PARAM)
    unclosed_param["config"]["Y"][0][0] = "1/2"
    code, doc = run(capsys, "gs", "param", "--json", json.dumps(unclosed_param))
    assert code == 2 and doc is None


def _rational(rng, span):
    """A seeded rational literal: an integer in [-span, span] over 1, 1, 2 or 3."""
    return F(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def _invertible(rng, n, span=4):
    while True:
        m = mat([[_rational(rng, span) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m


def _gs_sweep(p, eps):
    """(ambient document, X, Y, a second X) for closed pairs over Q_p with
    this epsilon, two for each dimension in 2..6 (the even ones when
    eps = -1): Q and X rational and seeded, Y = -1/2 X Q^-1 X^T + (R - eps R^T)
    for a seeded integer R with det Y != 0, by Fraction products.  The odd
    orthogonal dimensions, which gs random refuses, are included."""
    rng = random.Random(1000 * p + eps)
    for n in range(2, 7):
        if eps == -1 and n % 2:
            continue
        for _ in range(2):
            while True:
                if eps == 1:
                    diag = [_rational(rng, 5) or F(1) for _ in range(n)]
                    q = diag_form(diag, p)
                    q_doc = {"p": p, "diag": [str(d) for d in diag]}
                else:
                    g = [[F(0)] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(i + 1, n):
                            g[i][j] = _rational(rng, 3)
                            g[j][i] = -g[i][j]
                    if det(mat(g)) == 0:
                        continue
                    q = alternating_form(g, p)
                    q_doc = {"p": p, "gram": [[str(v) for v in row] for row in g]}
                try:
                    make_ambient(q, eps)
                except ValueError:  # the isotropic binary V
                    continue
                break
            x = _invertible(rng, n)
            half = mat_mul(x, mat_mul(inverse(q.gram), transpose(x)))
            while True:
                r = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                y = mat([[r[i][j] - eps * r[j][i] - half[i][j] / 2 for j in range(n)]
                         for i in range(n)])
                if det(y) != 0:
                    break
            yield {"qV": q_doc, "epsilon": eps}, x, y, _invertible(rng, n)


def _literal(m):
    return [[str(v) for v in row] for row in m]


# SHA-256 of the exit codes and stdout of every gs norm, gs section and
# gs verify call of _gs_sweep's documents, first 16 hex digits
GS_DIGESTS = {
    (2, 1): {"norm": "8bb03e98517f37db", "section": "05c57d7d0442d06b",
            "verify": "b8ffc939428cad5a"},
    (2, -1): {"norm": "dc237925a652bb0a", "section": "a2375469c0e7c3e3",
             "verify": "341faf9a5d6436d0"},
    (3, 1): {"norm": "b616a1a843950fe6", "section": "5b32ab0a693e8915",
            "verify": "0c82cf2374cc349e"},
    (3, -1): {"norm": "410894dc56ca01db", "section": "1036fc2b2138a7c0",
             "verify": "341faf9a5d6436d0"},
    (5, 1): {"norm": "9ba800961ce3e8be", "section": "4769731a94c1948a",
            "verify": "b8ffc939428cad5a"},
    (5, -1): {"norm": "d203ad7580b1945c", "section": "645e58fa37f99ad2",
             "verify": "341faf9a5d6436d0"},
    (7, 1): {"norm": "f19d7d207a45088f", "section": "e886a14f5d05c345",
            "verify": "b8ffc939428cad5a"},
    (7, -1): {"norm": "39c7979b50abd527", "section": "885aec5378a0f513",
             "verify": "341faf9a5d6436d0"},
}


@pytest.mark.parametrize("p, eps", list(GS_DIGESTS))
def test_gs_verbs_output_is_pinned(p, eps):
    # per configuration: its norm gamma, the sections of gamma at X and at a
    # second X, verify of the configuration, of the second section, and of
    # the configuration with one entry of Y moved, whose all_pass is false;
    # then norm and verify of a closed pair with X = 0
    hashes = {verb: hashlib.sha256() for verb in ("norm", "section", "verify")}
    rng = random.Random(p * eps)

    def call(verb, doc):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["gs", verb, "--json", json.dumps(doc)])
        hashes[verb].update(f"{code}\n{out.getvalue()}".encode())
        return code, json.loads(out.getvalue()) if out.getvalue() else None

    for ambient, x, y, x2 in _gs_sweep(p, eps):
        config = {"ambient": ambient, "X": _literal(x), "Y": _literal(y)}
        code, norm = call("norm", config)
        assert code == 0
        code, section = [call("section", {"ambient": ambient, "X": _literal(xs),
                                          "gamma": norm["gamma"]}) for xs in (x, x2)][1]
        assert call("verify", config) == (0, {"checks": dict.fromkeys(
            ("xy_condition", "u_isometry", "rigidify_isometry", "norm_isometry",
             "section_round_trip"), True), "all_pass": True})
        if code == 0:
            call("verify", {"ambient": ambient, "X": _literal(x2), "Y": section["Y"]})
        broken = copy.deepcopy(config)
        broken["Y"][0][1] = str(F(broken["Y"][0][1]) + 1)
        code, doc = call("verify", broken)
        assert code == 1 and doc["all_pass"] is False
        # X = 0 with Y = R - eps R^T is closed and not invertible: the norm
        # is refused, and verify stops at rigidify
        n = len(x)
        r = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        skew = mat([[r[i][j] - eps * r[j][i] for j in range(n)] for i in range(n)])
        if det(skew) != 0:
            singular = {"ambient": ambient, "X": [["0"] * n] * n, "Y": _literal(skew)}
            assert call("norm", singular) == (2, None)
            assert call("verify", singular) == (2, None)
    assert {verb: h.hexdigest()[:16] for verb, h in hashes.items()} == GS_DIGESTS[p, eps]


def _form_rational(rng, p):
    """A seeded rational whose numerator and denominator may carry p."""
    return F(rng.randint(-4, 4) * rng.choice((1, 1, p, p * p)),
             rng.choice((1, 1, 2, 3, p)))


def _form_sweep(p):
    """(Gram, form document) over Q_p, eight for each dimension in 1..6:
    four seeded symmetric gram literals (one with an all-zero diagonal, the
    others with zero diagonal entries where the draw gives them; degenerate
    ones included) and four diag literals (a zero entry now and then)."""
    rng = random.Random(2800 + p)
    for n in range(1, 7):
        for k in range(4):
            g = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if i != j or k:
                        g[i][j] = g[j][i] = _form_rational(rng, p)
            yield mat(g), {"p": p, "gram": _literal(g)}
            diag = [_form_rational(rng, p) or F(rng.choice((1, 0, 0, 0))) for _ in range(n)]
            g = [[diag[i] if i == j else F(0) for j in range(n)] for i in range(n)]
            yield mat(g), {"p": p, "diag": [str(a) for a in diag]}


def _so_odd_sweep(p):
    """SO-odd class parameters over Q_p: one or two quadratic or split towers
    on Q_p, y = z / tau(z) for a seeded z, a seeded tau-fixed c and a."""
    rng = random.Random(2900 + p)
    nonsquares = [c.representative for c in square_class_table(p)[1:]]
    for _ in range(6):
        algebra, x, c = [], [], []
        for _ in range(rng.choice((1, 1, 2))):
            a, b = (rng.randint(-5, 5) or 1 for _ in range(2))
            c0 = str(_form_rational(rng, p) or 1)
            if rng.random() < 0.7:
                d = rng.choice(nonsquares)
                algebra.append({"base": {"p": p}, "step": {"d": str(d)}})
                norm = a * a - d * b * b
                x.append([str(F(a * a + d * b * b, norm)), str(F(2 * a * b, norm))])
                c.append([c0, "0"])
            else:
                algebra.append({"base": {"p": p}, "step": "split"})
                x.append([str(F(a, b)), str(F(b, a))])
                c.append([c0, c0])
        yield {"kind": "SO-odd", "algebra": algebra, "x": x, "c": c,
               "a": str(_form_rational(rng, p) or 1)}


# SHA-256 of the exit codes and stdout of the qform, weil index, endo eta
# --kind so and class build calls of test_form_verbs_output_is_pinned, first
# 16 hex digits
FORM_DIGESTS = {
    2: {"qform": "0527b7ee40e123bb", "weil": "51c04250dbfd5ef7",
        "endo": "f49d81ea3212635f", "class": "e1c4b32c505d476d"},
    3: {"qform": "0690fc91ec3182a7", "weil": "5af9bc6892025a46",
        "endo": "f1a77fdbe9d7dc66", "class": "be2b31ee9edda93c"},
    5: {"qform": "c82d4f6ba0659f18", "weil": "22fd396b6caae447",
        "endo": "a46bdffd2c90f9e0", "class": "e660c39fbd759046"},
    7: {"qform": "eab6a8f95e35d704", "weil": "cd9494090a9a70b8",
        "endo": "8a40ebc9867262ef", "class": "93f799b09064fbf7"},
    11: {"qform": "470618c3b4a04fe3", "weil": "99ed4af565e46425",
         "endo": "94da4ecf828868a4", "class": "8714f868a93e95c7"},
}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_form_verbs_output_is_pinned(p):
    # per form document: qform invariants, witt and isotropic and weil index;
    # qform equiv of each document with the next one of its dimension and
    # with a congruent Gram P^T G P; endo eta --kind so of each binary form
    # at a value it represents and at a seeded one; class build of SO-odd
    # parameters, whose q is a direct sum
    hashes = {verb: hashlib.sha256() for verb in ("qform", "weil", "endo", "class")}
    rng = random.Random(3000 + p)

    def call(group, *argv, doc):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([group, *argv, "--json", json.dumps(doc)])
        hashes[group].update(f"{code}\n{out.getvalue()}".encode())

    previous = {}
    for g, doc in _form_sweep(p):
        n = len(g)
        for action in ("invariants", "witt", "isotropic"):
            call("qform", action, doc=doc)
        call("weil", "index", doc=doc)
        if n in previous:
            call("qform", "equiv", doc={"q1": previous[n], "q2": doc})
        previous[n] = doc
        pm = _invertible(rng, n, 3)
        moved = {"p": p, "gram": _literal(mat_mul(transpose(pm), mat_mul(g, pm)))}
        call("qform", "equiv", doc={"q1": doc, "q2": moved})
        if n == 2:
            v = [rng.randint(-3, 3) for _ in range(2)]
            value = sum(v[i] * g[i][j] * v[j] for i in range(2) for j in range(2))
            for y in (value or 1, _form_rational(rng, p) or 1):
                call("endo", "eta", "--kind", "so", "--n", str(rng.randint(1, 3)),
                     doc={"binary": doc, "y": str(y)})
    for param in _so_odd_sweep(p):
        call("class", "build", doc=param)
    assert {verb: h.hexdigest()[:16] for verb, h in hashes.items()} == FORM_DIGESTS[p]


def test_endo_delta_eliminates_q_delta_once(capsys, monkeypatch):
    space = {"p": 3, "diag": ["1", "1"]}
    delta = [["1", "2"], ["0", "3"]]
    grams, _ = count_eliminations(monkeypatch)
    code, doc = run(capsys, "endo", "delta", "--n", "1", "--json",
                    json.dumps({"space": space, "delta": delta}))
    assert code == 0 and doc == {"delta": -1, "delta_lambda": "zeta8^4"}
    d = mat(delta)
    assert grams.count(symmetrized_rows(d)) == 1


def test_endo_verbs(capsys):
    code, doc = run(capsys, "endo", "enumerate", "--n", "2", "--p", "3")
    assert code == 0 and doc["count"] == 8
    code, doc = run(capsys, "endo", "eta", "--kind", "sp", "--n", "3")
    assert code == 0 and doc["eta"] == 1
    payload = json.dumps({"binary": {"p": 3, "diag": ["1", "1"]}, "y": "1"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                    "--json", payload)
    assert code == 0 and doc["eta"] == -1


def test_endo_eta_value_and_class(capsys):
    payload = json.dumps({"binary": {"p": 3, "diag": ["1", "-1"]}, "y": "1/3"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                    "--json", payload)
    assert code == 0 and doc == {"eta": "-1/3", "eta_class": 6}
    payload = json.dumps({"binary": {"p": 3, "diag": ["1", "1"]}, "y": "1"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                    "--json", payload)
    assert code == 0 and doc == {"eta": -1, "eta_class": 2}
    payload = json.dumps({"binary": {"p": 2, "diag": ["1", "-1"]}, "y": "1"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                    "--json", payload)
    assert code == 0 and doc["eta"] == doc["eta_class"] == -1
    code, doc = run(capsys, "endo", "eta", "--kind", "sp", "--n", "3", "--p", "5")
    assert code == 0 and doc == {"eta": 1, "eta_class": 1}


def test_float_and_bool_literals_are_usage_errors(capsys):
    for y in ("0.1", "true"):
        payload = '{"binary":{"p":3,"diag":["1","-1"]},"y":%s}' % y
        code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                        "--json", payload)
        assert code == 2 and doc is None
    code, doc = run(capsys, "qform", "invariants", "--json",
                    '{"p": 5, "diag": [1.5, "2"]}')
    assert code == 2 and doc is None
    for p in ("3.7", "3.0", "true"):
        code, doc = run(capsys, "qform", "invariants", "--json",
                        '{"p": %s, "diag": ["1", "2"]}' % p)
        assert code == 2 and doc is None
    qv = {"p": 3, "gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                           ["0", "0", "1", "0"], ["0", "0", "0", "-3"]]}
    for eps in (1.0, True):
        code, doc = run(capsys, "gs", "random", "--json",
                        json.dumps({"qV": qv, "epsilon": eps}))
        assert code == 2 and doc is None
    code, cfg = run(capsys, "gs", "random", "--seed", "3",
                    "--json", json.dumps({"qV": qv, "epsilon": 1}))
    assert code == 0
    cfg["ambient"]["epsilon"] = 1.0
    code, doc = run(capsys, "endo", "check", "--n", "2", "--json", json.dumps(cfg))
    assert code == 2 and doc is None
    payload = json.dumps({"p": 3, "constituents": [
        {"dim": 4.0, "sign": "+1", "det": "3"}]})
    code, doc = run(capsys, "param", "classify", "--json", payload)
    assert code == 2 and doc is None


def test_endo_eta_so_prime_must_match_the_form(capsys):
    payload = json.dumps({"binary": {"p": 3, "diag": ["1", "-1"]}, "y": "1/3"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                    "--p", "7", "--json", payload)
    assert code == 2 and doc is None
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                    "--p", "3", "--json", payload)
    assert code == 0 and doc == {"eta": "-1/3", "eta_class": 6}
    payload = json.dumps({"binary": {"diag": ["1", "-1"]}, "y": "1/3"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "2",
                    "--p", "3", "--json", payload)
    assert code == 0 and doc == {"eta": "-1/3", "eta_class": 6}


def test_weil_index_prime_must_match_the_form(capsys):
    payload = json.dumps({"p": 3, "diag": ["1", "2"]})
    code, doc = run(capsys, "weil", "index", "--p", "5", "--json", payload)
    assert code == 2 and doc is None
    code, doc = run(capsys, "weil", "index", "--p", "3", "--json", payload)
    assert code == 0 and doc == {"weil_index": "zeta8^0"}
    code, doc = run(capsys, "weil", "index", "--p", "3", "--json",
                    json.dumps({"diag": ["1", "2"]}))
    assert code == 0 and doc == {"weil_index": "zeta8^0"}


def test_endo_delta_must_match_the_space(capsys):
    space = {"p": 3, "diag": ["1", "1"]}
    for delta in ([["1", "2", "3"], ["4", "5", "6"]],
                  [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "10"]],
                  [["1"]], [["1", "2"], ["3"]]):
        code, doc = run(capsys, "endo", "delta", "--n", "1", "--json",
                        json.dumps({"space": space, "delta": delta}))
        assert code == 2 and doc is None, delta
    code, doc = run(capsys, "endo", "delta", "--n", "1", "--json",
                    json.dumps({"space": space, "delta": [["1", "2"], ["0", "3"]]}))
    assert code == 0 and doc["delta"] in (1, -1)


def test_endo_check_through_cli(capsys):
    spec = {"qV": {"p": 3, "gram": None}}
    # build a quasisplit space by hand: Hy + <1, -3>
    qv = {"p": 3, "gram": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
                           ["0", "0", "1", "0"], ["0", "0", "0", "-3"]]}
    code, cfg = run(capsys, "gs", "random", "--seed", "3",
                    "--json", json.dumps({"qV": qv, "epsilon": 1}))
    assert code == 0
    code, doc = run(capsys, "endo", "check", "--n", "2", "--json", json.dumps(cfg))
    assert code == 0 and doc["constancy"] is True


def test_gs_param_verb_exit_codes(capsys):
    code, doc = run(capsys, "gs", "param", "--json", json.dumps(GS_PARAM))
    assert code == 0 and doc == {"param_match": True}
    # x = 2 + i: -tau(x)/x = (-3 + 4i)/5, not an eigenvalue of gamma
    other = copy.deepcopy(GS_PARAM)
    other["param"]["x"] = [["2", "1"]]
    code, doc = run(capsys, "gs", "param", "--json", json.dumps(other))
    assert code == 1 and doc == {"param_match": False}
    # a tGL-odd parameter on the even orthogonal ambient is refused
    wrong = copy.deepcopy(GS_PARAM)
    wrong["param"].update(kind="tGL-odd", xD="1")
    code, doc = run(capsys, "gs", "param", "--json", json.dumps(wrong))
    assert code == 2 and doc is None


def test_repeated_eigenvalues_of_x_over_tau_x_are_not_very_regular(capsys):
    # x = ((1, 2), (3, 6)) over split x split Q_3: r = x / tau(x) = (1/2, 2,
    # 1/2, 2), so r - 1 and r + 1 are invertible but r's eigenvalues repeat
    algebra = [{"base": {"p": 3}, "step": "split"}] * 2
    param = {"kind": "tGL-even", "algebra": algebra, "x": [["1", "2"], ["3", "6"]]}
    gamma = {"kind": "SO-even", "algebra": algebra, "x": [["2", "1/2"], ["3", "1/3"]],
             "c": [["1", "1"], ["1", "1"]]}
    code, doc = run(capsys, "class", "build", "--json", json.dumps(param))
    assert code == 0 and doc is not None
    for action in ("invariant", "elliptic"):
        assert run(capsys, "class", action, "--json", json.dumps(param)) == (2, None)
    code, doc = run(capsys, "class", "corresponds", "--json",
                    json.dumps({"delta": param, "gamma": gamma}))
    assert (code, doc) == (2, None)
    ambient = make_ambient(diag_form([1, 1, 1, 1], 3), 1)
    payload = {"config": config_doc(random_config(ambient, 0)), "param": param}
    assert run(capsys, "gs", "param", "--json", json.dumps(payload)) == (2, None)


def test_class_corresponds_takes_three_characteristic_polynomials(capsys, monkeypatch):
    # x = ((1, 2), (3, 15)) over split x split Q_3 has r = x / tau(x) =
    # (1/2, 2, 1/5, 5); y is -r, tau(-r) or an element that does not
    # correspond.  The polynomials are those of x (x's generator test), r
    # (very-regularity) and y (y's generator test): char_poly(-r) is read
    # off r's, and y's is not taken again
    algebra = [{"base": {"p": 3}, "step": "split"}] * 2
    delta = {"kind": "tGL-even", "algebra": algebra, "x": [["1", "2"], ["3", "15"]]}
    gamma = {"kind": "SO-even", "algebra": algebra,
             "x": [["-1/2", "-2"], ["-1/5", "-5"]], "c": [["1", "1"], ["1", "1"]]}
    polys, charpoly_of = [], etale.charpoly

    def counted(m):
        polys.append(m)
        return charpoly_of(m)

    monkeypatch.setattr(etale, "charpoly", counted)
    for y, expected in ((gamma["x"], True), ([["-2", "-1/2"], ["-1/5", "-5"]], True),
                        ([["-1/3", "-3"], ["-1/5", "-5"]], False)):
        del polys[:]
        code, doc = run(capsys, "class", "corresponds", "--json",
                        json.dumps({"delta": delta, "gamma": dict(gamma, x=y)}))
        assert (code, doc) == (0, {"corresponds": expected})
        assert len(polys) == 3


def test_etale_build_refuses_an_empty_defining_polynomial(capsys):
    algebra = [{"base": {"p": 3, "poly": []}, "step": "split"}]
    assert run(capsys, "etale", "build", "--json", json.dumps(algebra)) == (2, None)


def test_param_verbs(capsys):
    payload = json.dumps({"p": 3, "constituents": [
        {"dim": 4, "sign": "+1", "det": "3"}]})
    code, doc = run(capsys, "param", "classify", "--json", payload)
    assert code == 0 and doc == {"nO": 4, "nS": 0, "chi": 3, "simple": True}
    code, doc = run(capsys, "param", "hypothesis", "--json", payload)
    assert code == 0 and doc["comes_from_even_SO"] is True


def test_corpus_generate_and_run_determinism(capsys, tmp_path):
    args = ["corpus", "run", "--seed", "9", "--p", "3", "--n", "1", "--count", "6"]
    code1, doc1 = run(capsys, *args)
    code2, doc2 = run(capsys, *args)
    assert code1 == code2 == 0
    doc1.pop("elapsed_seconds")
    doc2.pop("elapsed_seconds")
    assert doc1 == doc2
    assert doc1["failures"] == 0
    assert all(r["pass"] for r in doc1["records"])
    code, plan = run(capsys, "corpus", "generate", "--seed", "9", "--p", "3",
                     "--n", "1", "--count", "6")
    assert code == 0 and len(plan["entries"]) == 6


def test_corpus_rejects_an_empty_or_negative_plan(capsys):
    for action in ("generate", "run"):
        for count in ("0", "-1"):
            code, doc = run(capsys, "corpus", action, "--p", "2", "--n", "1",
                            "--count", count)
            assert code == 2 and doc is None


def test_corpus_rejects_a_rank_below_one(capsys):
    # generate refuses what run would refuse, before any plan is emitted
    for action in ("generate", "run"):
        for ns in ("0", "-1", "1,0", "2,-3"):
            code, doc = run(capsys, "corpus", action, "--p", "3", "--n", ns,
                            "--count", "1")
            assert code == 2 and doc is None, (action, ns)


def test_corpus_rejects_a_repeated_prime_or_rank(capsys):
    # a repeated value would emit every record of its cells twice, seeds included
    for action in ("generate", "run"):
        for flag, values in (("--p", "3,3"), ("--p", "2,3,2"), ("--n", "1,1")):
            args = {"--p": "3", "--n": "1", flag: values}
            code, doc = run(capsys, "corpus", action, "--count", "1",
                            *(x for kv in args.items() for x in kv))
            assert code == 2 and doc is None
    assert main(["corpus", "--help"]) == 0
    assert " ".join(capsys.readouterr().out.split()).count("at most once") == 2


def _cell_key(r):
    return r["p"], r["n"], r["K"], r["c"]


def test_corpus_run_builds_each_cell_once(capsys, monkeypatch):
    # the rhs of a cell is one rank-1 product over the classes its space
    # holds, taken once per cell
    calls = {"quasisplit_space": 0, "_weil": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(endoscopy, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(endoscopy, name, counted)
    code, doc = run(capsys, "corpus", "run", "--p", "2,3", "--n", "1,2",
                    "--count", "8", "--seed", "4")
    cells = {_cell_key(r) for r in doc["records"]}
    assert code == 0 and len(doc["records"]) == 32 and len(cells) < 32
    assert calls == {"quasisplit_space": len(cells), "_weil": len(cells)}


def test_a_corpus_run_builds_no_fraction_gram(capsys, monkeypatch):
    # every form of the run is built on integer rows: none is checked from a
    # Mat, and no form's Gram view is read
    built = {"checked": 0, "gram": 0}
    init, gram = QuadForm.__init__, QuadForm.gram

    def counted_init(self, *args):
        built["checked"] += 1
        init(self, *args)

    def counted_gram(self):
        built["gram"] += 1
        return gram.func(self)

    view = cached_property(counted_gram)
    view.__set_name__(QuadForm, "gram")
    monkeypatch.setattr(QuadForm, "__init__", counted_init)
    monkeypatch.setattr(QuadForm, "gram", view)
    code, doc = run(capsys, "corpus", "run", "--p", "2,3,5,7", "--n", "1,2",
                    "--count", "16")
    assert code == 0 and len(doc["records"]) == 128
    assert built == {"checked": 0, "gram": 0}
    # both counters count: one checked form, and one view read once
    q = scale(2, quad_form([[1, 1], [1, 3]], 5))
    assert q.gram == q.gram == mat([[2, 2], [2, 6]])
    assert built == {"checked": 1, "gram": 1}


def test_corpus_records_equal_a_computation_from_scratch(capsys):
    # every record against a fresh space, ambient, sample and both sides, and
    # the plain factor against the Fraction reference of the Witt comparison
    code, doc = run(capsys, "corpus", "run", "--p", "2,3,5,7", "--n", "1,2,3",
                    "--count", "8")
    assert code == 0 and len(doc["records"]) == 96
    for r in doc["records"]:
        p, n = r["p"], r["n"]
        q_v = quasisplit_space(2 * n, square_class(r["K"], p), square_class(r["c"], p), p)
        config = random_config(make_ambient(q_v, 1), r["seed"])
        assert digest(config_doc(config)) == r["inputs_digest"]
        delta = rigidify(config)[0]
        lhs = transfer_factor_whittaker(q_v, delta, n)
        plain = Mu8.from_sign(reference_transfer_factor(q_v, delta, n))
        assert lhs == epsilon_half(square_class(r["K"], p), p).inverse() * plain
        assert (r["lhs"], r["rhs"]) == (str(lhs), str(weil_index(scale(2 * (-1) ** n, q_v))))


def test_a_record_digest_is_the_digest_of_its_configuration_document():
    # the digest text a run builds from each record's rows and its cell's
    # tail, on every cell of the plan (split K included at n > 1)
    cells = {}
    records = _run_entries(_corpus_entries(4, (2, 3, 5, 7), (1, 2, 3, 6), 16), cells)
    keys = {(r["p"], r["n"], r["K"], r["c"]) for r in records}
    # every (p, n, K, c) cell: 6 at n = 1 and 7 at n > 1 for odd p, 14 and 15 at p = 2
    assert len(keys) == 3 * (6 + 3 * 7) + 14 + 3 * 15
    assert any(r["n"] == 6 and r["K"] == 1 for r in records)
    for r in records:
        cell = cells[r["p"], r["n"], r["K"], r["c"]][0]
        config = random_config(cell.ambient, r["seed"])
        assert r["inputs_digest"] == digest(config_doc(config))


def test_corpus_cell_summary_recounts_the_records(capsys):
    code, doc = run(capsys, "corpus", "run", "--p", "2,5", "--n", "1,2,3",
                    "--count", "10", "--seed", "3")
    assert code == 0
    expected = {}
    for r in doc["records"]:
        cell = expected.setdefault(_cell_key(r), {"records": 0, "failures": 0,
                                                  "rhs": set(), "lhs": set()})
        cell["records"] += 1
        cell["failures"] += 0 if r["pass"] else 1
        cell["rhs"].add(r["rhs"])
        cell["lhs"].add(r["lhs"])
    assert [_cell_key(c) for c in doc["cells"]] == sorted(expected)
    for c in doc["cells"]:
        e = expected[_cell_key(c)]
        assert (c["records"], c["failures"], {c["rhs"]}, c["lhs"]) == \
            (e["records"], e["failures"], e["rhs"], sorted(e["lhs"]))
    assert sum(c["records"] for c in doc["cells"]) == len(doc["records"])


def _plan(capsys, *flags):
    code, plan = run(capsys, "corpus", "generate", *flags)
    assert code == 0
    return plan


def test_corpus_run_runs_the_plan_it_is_given(capsys, tmp_path):
    flags = ("--seed", "1", "--p", "3", "--n", "1,2", "--count", "4")
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(_plan(capsys, *flags)))
    code1, from_flags = run(capsys, "corpus", "run", *flags)
    code2, from_plan = run(capsys, "corpus", "run", "--in", str(path))
    assert code1 == code2 == 0 and len(from_plan["records"]) == 8
    from_flags.pop("elapsed_seconds")
    from_plan.pop("elapsed_seconds")
    assert from_plan == from_flags


def test_corpus_run_of_a_one_entry_plan(capsys):
    flags = ("--seed", "2", "--p", "5", "--n", "2", "--count", "6")
    plan = _plan(capsys, *flags)
    _, full = run(capsys, "corpus", "run", *flags)
    plan["entries"] = plan["entries"][4:5]
    code, doc = run(capsys, "corpus", "run", "--json", json.dumps(plan))
    assert code == 0 and doc["records"] == full["records"][4:5]
    # the header describes the plan the entry came from, not the records run
    assert (doc["seed"], doc["primes"], doc["ns"], doc["count"]) == (2, [5], [2], 6)
    assert [c["records"] for c in doc["cells"]] == [1] and doc["failures"] == 0


def test_corpus_run_refuses_a_malformed_plan(capsys):
    good = _plan(capsys, "--seed", "1", "--p", "3", "--n", "1,2", "--count", "2")
    entry = good["entries"][0]

    def with_(**changes):
        plan = copy.deepcopy(good)
        plan.update(changes)
        return plan

    def entries(*edits):
        return with_(entries=[dict(entry, **e) for e in edits])
    extra = dict(entry, x=1)
    missing = {k: v for k, v in entry.items() if k != "seed"}
    bad = ["not a plan", [], {}, with_(generator_version=2),
           with_(generator_version=True), with_(generator_version="1"),
           {k: v for k, v in good.items() if k != "generator_version"},
           with_(entries=[]), with_(entries={}), with_(entries=[[1]]),
           with_(entries=[extra]), with_(entries=[missing]),
           entries({"seed": 1.5}), entries({"K": "3"}), entries({"c": True}),
           entries({"n": 0}), entries({"n": 3}), entries({"p": 5}),
           entries({"p": 9}), entries({}, {}), entries({"K": 0}),
           entries({"n": 1, "K": 1}),
           with_(seed="1"), with_(count=0), with_(primes=[]), with_(primes=[3, 3]),
           with_(primes=[4], entries=[dict(entry, p=4)]), with_(ns=[1, 2, 0]),
           with_(ns=[1.0, 2])]
    for plan in bad:
        code, doc = run(capsys, "corpus", "run", "--json", json.dumps(plan))
        assert code == 2 and doc is None, plan
    assert run(capsys, "corpus", "run", "--json", json.dumps(good))[0] == 0
    for flag in (("--seed", "1"), ("--p", "3"), ("--n", "1"), ("--count", "2")):
        code, doc = run(capsys, "corpus", "run", "--json", json.dumps(good), *flag)
        assert code == 2 and doc is None, flag


DOCUMENT_FREE = (("hilbert", "2", "3", "--p", "5"), ("sqclass", "50", "--p", "5"),
                 ("weil", "epsilon", "--d", "3", "--p", "5"),
                 ("weil", "oracle", "--p", "3", "--a", "1/9", "--k", "1"),
                 ("endo", "enumerate", "--n", "1"), ("endo", "eta", "--kind", "sp"),
                 ("corpus", "generate", "--p", "3", "--n", "1", "--count", "2"))


@pytest.mark.parametrize("argv", DOCUMENT_FREE)
def test_actions_that_read_no_document_refuse_one(capsys, argv):
    assert main(list(argv)) == 0
    capsys.readouterr()
    for doc in (("--json", "not json at all"), ("--json", '{"x": 1}'),
                ("--in", "/nonexistent.json")):
        code = main(list(argv) + list(doc))
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err, doc


def test_usage_errors(capsys):
    code = main(["qform", "invariants", "--json", "{not json"])
    assert code == 2
    code = main(["weil", "epsilon"])
    assert code == 2
    code = main(["nonsense"])
    assert code == 2


# ---------------------------------------------------------------------------
# the parser's help, usage and error texts

VERBS = ("hilbert", "sqclass", "qform", "weil", "etale", "class", "gs", "endo",
         "param", "corpus")
# one argv per verb that its parser refuses
BAD_ARGUMENTS = (("hilbert", "1", "2", "--p", "two"), ("sqclass", "5"),
                 ("qform", "bogus"), ("weil", "index", "--k", "x"), ("etale",),
                 ("class", "build", "--bogus"), ("gs", "random", "--seed", "1/2"),
                 ("endo", "eta", "--kind", "su"), ("param", "classify", "extra"),
                 ("corpus", "run", "--count", "x"))
USAGE_ARGV = ((), ("-h",), ("bogus",), ("--",), ("--p", "5"), ("-h", "hilbert"),
              *((verb, "--help") for verb in VERBS), *BAD_ARGUMENTS)
# what main printed and returned for each argv of USAGE_ARGV at COLUMNS=80,
# keyed by the argv joined with spaces; argparse's layout moves between
# Python versions, so the file names the version it was written under
USAGE_TEXTS = json.loads(Path(__file__).with_name("cli_usage.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != tuple(USAGE_TEXTS["python"]),
                    reason="help texts pinned under another Python version")
@pytest.mark.parametrize("argv", USAGE_ARGV, ids=" ".join)
def test_help_usage_and_error_texts_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert {"code": code, "out": out, "err": err} == USAGE_TEXTS["cases"][" ".join(argv)]


def test_a_verb_s_parser_fills_in_that_verb_alone():
    def subparsers(ap):
        (action,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    for verb in (None, "sqclass"):
        choices = subparsers(build_parser(verb))
        assert tuple(choices) == VERBS  # -h and a bad verb list all ten
        for name, sub in choices.items():
            options = [a.option_strings for a in sub._actions]
            filled = verb in (None, name)
            assert (options != [["-h", "--help"]]) == filled, (verb, name)
            assert ("func" in sub._defaults) == filled, (verb, name)


def test_output_file_round_trip(capsys, tmp_path):
    out = tmp_path / "doc.json"
    code = main(["sqclass", "50", "--p", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["class"] == 2


def test_endo_eta_closed_forms_at_large_n(capsys):
    code, doc = run(capsys, "endo", "eta", "--kind", "sp", "--n", "5000")
    assert code == 0 and doc == {"eta": 1, "eta_class": 1}
    payload = json.dumps({"binary": {"p": 3, "diag": ["1", "1"]}, "y": "1"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "5000",
                    "--json", payload)
    assert code == 0 and doc == {"eta": -1, "eta_class": 2}
    payload = json.dumps({"binary": {"p": 3, "diag": ["1", "-1"]}, "y": "1/3"})
    code, doc = run(capsys, "endo", "eta", "--kind", "so", "--n", "5001",
                    "--json", payload)
    assert code == 0 and doc == {"eta": "1/3", "eta_class": 3}


def test_weil_oracle_work_is_bounded(capsys):
    # k = 12 overflowed numpy's int64 (period 7^26); at k = 8 the first level
    # alone, period 7^16, is about 8M numpy chunks
    for k in ("12", "8"):
        code, doc = run(capsys, "weil", "oracle", "--p", "7", "--a", "1", "--k", k)
        assert code == 2 and doc is None


def test_weil_oracle_without_numpy_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    code, doc = run(capsys, "weil", "oracle", "--p", "3", "--a", "1/9", "--k", "1")
    assert code == 2 and doc is None



def test_endo_delta_n_must_match_the_space(capsys):
    # transfer_factor reads n only through (-1)^n; a space of dimension other
    # than 2n names no endoscopic comparison
    payload = json.dumps({"space": {"p": 3, "diag": ["1", "1"]},
                          "delta": [["1", "2"], ["0", "3"]]})
    for n in ("2", "7", "0", "-1"):
        code, doc = run(capsys, "endo", "delta", "--n", n, "--json", payload)
        assert code == 2 and doc is None, n
    code, doc = run(capsys, "endo", "delta", "--n", "1", "--json", payload)
    assert code == 0 and doc["delta"] in (1, -1)


def test_endo_delta_refuses_rank_zero(capsys):
    # the zero space is 2n-dimensional for n = 0, which is still no rank
    code, doc = run(capsys, "endo", "delta", "--n", "0", "--json",
                    json.dumps({"space": {"p": 3, "diag": []}, "delta": []}))
    assert code == 2 and doc is None


# ---------------------------------------------------------------------------
# fuzz: well-formed documents with one subtree replaced by arbitrary JSON,
# through every verb and action

VERB_ACTIONS = (
    ("qform", "invariants"), ("qform", "equiv"), ("qform", "witt"),
    ("qform", "isotropic"), ("weil", "index"), ("weil", "epsilon"),
    ("weil", "oracle"), ("etale", "build"), ("etale", "traceform"),
    ("class", "build"), ("class", "invariant"), ("class", "corresponds"),
    ("class", "elliptic"), ("gs", "random"), ("gs", "norm"), ("gs", "section"),
    ("gs", "verify"), ("gs", "param"), ("endo", "enumerate"), ("endo", "eta"), ("endo", "delta"),
    ("endo", "check"), ("param", "classify"), ("param", "hypothesis"),
    ("corpus", "generate"), ("corpus", "run"), ("hilbert", None),
    ("sqclass", None))
FORM = {"p": 3, "diag": ["1", "1"]}
PARAM = {"kind": "tGL-even", "algebra": [{"base": {"p": 5}, "step": "split"}],
         "x": [["3", "7"]]}
# Y = -1/2 X Q^-1 X^T + S with S skew: the closure condition holds, and the
# norm is the very regular rotation gamma below
CONFIG = {"ambient": {"qV": FORM, "epsilon": 1}, "X": [["1", "0"], ["0", "1"]],
          "Y": [["-1/2", "1"], ["-1", "-1/2"]]}
# x = 1 + 2i in Q_3(i): -tau(x)/x = (3 + 4i)/5 has the eigenvalues of gamma
GS_PARAM = {"config": CONFIG,
            "param": {"kind": "tGL-even", "algebra": [{"base": {"p": 3}, "step": {"d": "-1"}}],
                      "x": [["1", "2"]]}}
SEED_DOCS = {
    "qform": FORM, "weil": FORM, "class": PARAM, "gs": CONFIG, "endo": CONFIG,
    "param": {"p": 3, "constituents": [{"dim": 4, "sign": "+1", "det": "3"}]},
    # a one-entry plan of corpus generate --p 3 --n 1 --count 1
    "corpus": {"generator_version": 1, "seed": 0, "primes": [3], "ns": [1],
               "count": 1, "entries": [{"seed": 3000019000030, "p": 3, "n": 1,
                                        "K": 2, "c": 1, "index": 0}]},
    ("qform", "equiv"): {"q1": FORM, "q2": {"p": 3, "diag": ["2", "2"]}},
    ("etale", "build"): PARAM["algebra"],
    ("etale", "traceform"): {"algebra": PARAM["algebra"], "c": [["1", "1"]]},
    ("class", "corresponds"): {"delta": PARAM, "gamma": PARAM},
    ("gs", "random"): CONFIG["ambient"],
    ("gs", "param"): GS_PARAM,
    ("gs", "section"): {"ambient": CONFIG["ambient"], "X": CONFIG["X"],
                        "gamma": [["3/5", "-4/5"], ["4/5", "3/5"]]},
    ("endo", "eta"): {"binary": FORM, "y": "1"},
    ("endo", "delta"): {"space": FORM, "delta": [["1", "2"], ["0", "3"]]},
}
# string-for-list literals, on the seed documents above
SPLIT_C = {"algebra": [{"base": {"p": 3}, "step": "split"}], "c": [["1", "1"]]}


@pytest.mark.parametrize("argv, doc", [
    (("qform", "invariants"), {"p": 5, "gram": ["12", "21"]}),
    (("qform", "invariants"), {"p": 5, "gram": "1"}),
    (("qform", "invariants"), {"p": 5, "diag": "12"}),
    (("gs", "norm"), {**CONFIG, "X": ["10", "01"]}),
    (("gs", "norm"), {**CONFIG, "Y": "1"}),
    (("gs", "section"), {**SEED_DOCS[("gs", "section")], "gamma": ["34", "43"]}),
    (("endo", "delta", "--n", "1"), {"space": FORM, "delta": ["12", "03"]}),
    (("etale", "traceform"), {**SPLIT_C, "c": ["11"]}),
    (("class", "build"), {**PARAM, "x": ["37"]}),
    (("etale", "build"), [{"base": {"p": 3, "poly": "01"}, "step": "split"}]),
])
def test_a_string_where_a_list_belongs_is_a_usage_error(capsys, argv, doc):
    # each was once read one character at a time, and answered
    assert main([*argv, "--json", json.dumps(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "must be a list, not str" in err


# the keys the verbs read, for the replacement documents
DOC_KEYS = ("p", "diag", "gram", "label", "q1", "q2", "qV", "epsilon",
            "ambient", "X", "Y", "gamma", "space", "delta", "binary", "y",
            "algebra", "base", "step", "d", "poly", "certificate", "x", "c",
            "xD", "a", "kind", "constituents", "dim", "sign", "det", "mult")
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-9, 9) | st.just(0.5)
                | st.sampled_from(("1", "-1/2", "3", "0", "1/0", "x", "split",
                                   "tGL-even", "tGL-odd", "SO-even", "Sp", "U",
                                   "+1", "none", "eisenstein")))
JSON_DOCS = st.recursive(
    JSON_SCALARS | st.just(FORM),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(DOC_KEYS), inner, max_size=4)),
    max_leaves=10)
SMALL_VALUES = ("-1", "0", "1", "2", "3", "4", "7")
SMALL_ARGS = st.sampled_from(SMALL_VALUES)


@st.composite
def mutated(draw, doc):
    """doc with the subtree at a random path replaced by an arbitrary document."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict)
                                   else range(len(doc))))
        out = copy.copy(doc)
        out[key] = draw(mutated(doc[key]))
        return out
    return draw(JSON_DOCS)


def _fuzz_argv(verb, action, doc, n, p):
    """The argv, and whether its action reads no document and so refuses one."""
    if action is None:  # hilbert a b, sqclass a
        operands = [n, p] if verb == "hilbert" else [n]
        return [verb, *operands, "--p", p, "--json", json.dumps(doc)], True
    argv = [verb, action, "--json", json.dumps(doc)]
    kind = "so" if int(n) % 2 else "sp"
    if verb == "endo":
        argv += ["--n", n, "--p", p, "--kind", kind]
    if verb == "weil":
        argv += ["--p", p, "--d", n, "--a", n, "--k", "1"]
    # corpus takes no flags beside its plan, which bounds the work: at most a
    # few records of small cells; its flags alone have the test below
    reads_none = (action in ("epsilon", "oracle", "enumerate", "generate")
                  or (action, kind) == ("eta", "sp"))
    return argv, reads_none


@pytest.mark.parametrize("verb, action", VERB_ACTIONS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), n=SMALL_ARGS, p=SMALL_ARGS)
def test_cli_fuzz_exits_with_a_documented_code(verb, action, data, n, p):
    seed = SEED_DOCS.get((verb, action), SEED_DOCS.get(verb))
    argv, reads_none = _fuzz_argv(verb, action, data.draw(mutated(seed)), n, p)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 if reads_none else code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


# tokens after the first; no corpus action, so no default-sized corpus runs
TAIL_TOKENS = st.sampled_from(("5", "1/2", "--p", "3", "--n", "--seed", "invariants",
                               "index", "epsilon", "enumerate", "build", "classify",
                               "--json", "{}", "-h", "--", "--bogus"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(first=st.sampled_from(VERBS + ("bogus", "-h", "--", "--p")) | st.none(),
       tail=st.lists(TAIL_TOKENS, max_size=5))
def test_any_first_token_exits_with_a_documented_code(first, tail):
    # main builds one verb's parser when argv[0] names it, every verb's otherwise
    argv = ([] if first is None else [first]) + tail
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("action", ("generate", "run"))
def test_corpus_flags_exit_with_a_documented_code(action):
    # every small --p and --n with no document, one record of one cell each:
    # a prime and a rank n >= 1 give one entry, anything else exit 2
    for p, n in itertools.product(SMALL_VALUES, SMALL_VALUES):
        argv = ["corpus", action, "--p", p, "--n", n, "--count", "1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert "Traceback" not in err.getvalue(), argv
        if p in ("2", "3", "7") and int(n) >= 1:
            doc = json.loads(out.getvalue())
            rows = doc["records"] if action == "run" else doc["entries"]
            assert code == 0 and len(rows) == 1, argv
        else:
            assert code == 2 and out.getvalue() == "", argv
