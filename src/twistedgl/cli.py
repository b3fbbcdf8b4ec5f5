"""Command-line surface: exact queries, seeded corpus generation and batch checks.

Documents are JSON with rationals as "num/den" strings and eighth roots of
unity as "zeta8^k"; a matrix, its rows, a "diag", a "poly" and an element's
coefficient arrays are lists, and a string in their place is a usage error.
Exit codes: 0 pass, 1 check failure, 2 usage or I/O error, 3 oracle
inconclusive.  An unreadable --in, an unwritable --out and a closed stdout
(`| head -1`) are I/O errors: one line on stderr.

`endo eta` prints {"eta": value, "eta_class": class}: "eta" is the exact
value of the regular-nilpotent construction ((-1)^(n-1) y for --kind so, 1
for --kind sp), a JSON integer when integral and a "num/den" string
otherwise; "eta_class" is the canonical representative of its square class,
a JSON integer like every other class field.

`gs param` reads {"config": configuration, "param": class parameter} and
prints {"param_match": bool}: whether the parameter's x corresponds to the
configuration along the norm (gsnorm.gs_param_check).  It exits 0 on a match
and 1 otherwise; an unclosed or singular pair (as for `gs norm` and
`endo check`), a parameter whose kind does not fit the ambient (tGL-odd on
an odd orthogonal ambient, tGL-even on the others), or that is not very
regular, or a norm that is not very regular, is a usage error, exit 2.
`gs section` refuses a gamma that is no isometry of q_V, exit 2.

Importing this module loads no library module: each handler and helper
imports what it runs when called, and a corpus run once per run, not once
per record.  So `sqclass`, `hilbert` and `corpus generate` load localfield
and linalg; `qform` adds qform, and `weil` qform and weil; `etale` loads
etale and qform, and `class` also classes; `gs` loads gsnorm and qform, and
`gs param` also classes and etale; `endo`, `corpus run` and `param` load
endoscopy with gsnorm, qform and weil, and `param` also params.
`hilbert --oracle` and `weil oracle` load the oracles module on demand, and
nothing else imports it; `weil oracle` needs the `oracle` extra.  Both
refuse work above oracles.MAX_TRIPLES or MAX_PERIOD before any search.

`corpus run --in|--json` runs the entries of a plan that `corpus generate`
emitted, whole or cut down, and gives the manifest of `corpus run` with the
plan's flags.  The manifest's "seed", "primes", "ns" and "count" describe the
plan its entries came from, so a cut-down plan has fewer records than
"count" per (p, n).  The manifest's "cells" list gives, per (p, n, K, c) cell, its
records, failures, rhs and the distinct lhs values seen.  An action that
reads no document (hilbert, sqclass, weil epsilon and oracle, endo enumerate,
endo eta --kind sp, corpus generate) refuses one with exit 2.

A call to `main` builds the parser of the verb its first word names: all ten
verbs are registered, so help and errors list them, but only that verb gets
its arguments and handler.  Any other first word, or none, builds every
verb's parser, which prints the same help and errors.  Nothing is cached
between calls.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .classes import ClassParameter
    from .gsnorm import AmbientSpace, GSConfiguration
    from .linalg import Mat
    from .localfield import LocalFieldDescriptor
    from .params import FormalParameter
    from .qform import QuadForm

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_INCONCLUSIVE = 0, 1, 2, 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# literals


def rat_str(x) -> str:
    from .linalg import fr
    return str(fr(x))


def rat_json(x):
    """An integral rational as a JSON integer, any other as a "num/den" string."""
    from .linalg import fr
    x = fr(x)
    return x.numerator if x.denominator == 1 else str(x)


def mat_doc(m) -> list[list[str]]:
    return [[rat_str(x) for x in row] for row in m]


def _entry_str(den: int):
    """The function writing the integer x as rat_str(x / den) (den > 0),
    without a Fraction."""
    if den == 1:
        return str

    def entry(x):
        g = math.gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"
    return entry


def rows_doc(rows, den: int) -> list[list[str]]:
    """mat_doc of the integer rows / den (den > 0), without Fractions."""
    entry = _entry_str(den)
    return [list(map(entry, row)) for row in rows]


def rows_json(rows, den: int) -> str:
    """json.dumps(rows_doc(rows, den)) for nonempty rows, none of them empty,
    written directly: each entry is a string of digits, "-" and "/", which
    JSON quotes as it is."""
    entry = _entry_str(den)
    return '[["' + '"], ["'.join(['", "'.join(map(entry, row)) for row in rows]) + '"]]'


def poly_doc(p) -> list[str]:
    return [rat_str(c) for c in p]


RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rat(s) -> Fraction:
    """An integer, or a string of an optional sign, digits and optionally
    "/digits".  Floats, booleans and decimal or exponent strings are refused:
    a float has already lost the exact value it was meant to be, and Fraction
    would build "1e9999999" at any cost."""
    if isinstance(s, (bool, float)) or isinstance(s, str) and not RATIONAL.fullmatch(s):
        raise UsageError(f"bad rational literal {s!r}: write an integer or a "
                         f'"num/den" string')
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational literal {s!r}: {exc}") from exc


def parse_int(x) -> int:
    """An integer or a decimal string; JSON floats and booleans are refused,
    as in parse_rat, instead of being truncated."""
    if isinstance(x, (bool, float)):
        raise UsageError(f"bad integer literal {x!r}")
    return int(x)


def parse_list(doc, what: str) -> list:
    """A JSON list.  Anything else is refused: a string would otherwise be
    read one character at a time."""
    if not isinstance(doc, list):
        raise UsageError(f"{what} must be a list, not {type(doc).__name__}")
    return doc


def parse_mat(rows) -> Mat:
    """A matrix literal: a list of rows, each a list of rational literals, as
    in parse_rat."""
    from .linalg import mat
    return mat([[parse_rat(v) for v in parse_list(row, "matrix row")]
                for row in parse_list(rows, "matrix literal")])


def parse_form(doc, p=None, alternating=False) -> QuadForm:
    """A symmetric form from 'diag' or 'gram', or with alternating set an
    alternating form from 'gram'."""
    from .localfield import as_prime
    from .qform import alternating_form, diag_form, quad_form
    if not isinstance(doc, dict):
        raise UsageError("form literal must be an object")
    prime = as_prime(doc.get("p", p))
    label = doc.get("label")
    if "diag" in doc and not alternating:
        return diag_form([parse_rat(x) for x in parse_list(doc["diag"], "diag")],
                         prime, label)
    if "gram" in doc:
        g = parse_mat(doc["gram"])
        return (alternating_form if alternating else quad_form)(g, prime, label)
    raise UsageError("alternating form literal needs 'gram'" if alternating
                     else "form literal needs 'diag' or 'gram'")


def form_doc(q: QuadForm) -> dict:
    doc = {"p": q.p, "gram": rows_doc(q.rows, q.den)}
    if q.label:
        doc["label"] = q.label
    return doc


def parse_field(doc) -> LocalFieldDescriptor:
    from .localfield import LocalFieldDescriptor, as_prime
    prime = as_prime(doc["p"])
    poly = [parse_rat(c) for c in parse_list(doc.get("poly", [0, 1]), "poly")]
    if len(poly) == 2:
        return LocalFieldDescriptor(prime, tuple(poly), "degree-one")
    cert = doc.get("certificate")
    candidates = [cert] if cert else [
        "quadratic-nonsquare-disc", "eisenstein", "unramified-irreducible-mod-p"]
    last = None
    for c in candidates:
        try:
            return LocalFieldDescriptor(prime, tuple(poly), c)
        except ValueError as exc:
            last = exc
    raise UsageError(f"no certificate applies to the polynomial: {last}")


def parse_algebra(doc):
    from .etale import make_algebra, quadratic_tower, split_tower
    if not isinstance(doc, list) or not doc:
        raise UsageError("algebra literal must be a nonempty list of towers")
    towers = []
    for tower in doc:
        base = parse_field(tower["base"])
        step = tower["step"]
        if step == "split":
            towers.append(split_tower(base))
        elif isinstance(step, dict) and "d" in step:
            d = step["d"]
            coeffs = [parse_rat(c) for c in (d if isinstance(d, list) else [d])]
            coeffs += [Fraction(0)] * (base.degree - len(coeffs))
            towers.append(quadratic_tower(base, base.element(coeffs)))
        else:
            raise UsageError("tower step must be 'split' or {'d': ...}")
    return make_algebra(towers)


def parse_element(algebra, doc):
    if not isinstance(doc, list) or len(doc) != len(algebra.factors):
        raise UsageError("element literal: one coefficient array per factor")
    parts = []
    for f, coeffs in zip(algebra.factors, doc):
        d = f.base.degree
        vals = [parse_rat(c) for c in parse_list(coeffs, "coefficient array")]
        if len(vals) != 2 * d:
            raise UsageError(f"factor needs 2*{d} coefficients")
        parts.append((f.base.element(vals[:d]), f.base.element(vals[d:])))
    return algebra.element(parts)


def parse_param(doc) -> ClassParameter:
    from .classes import ClassParameter
    from .localfield import square_class
    algebra = parse_algebra(doc["algebra"])
    p = algebra.p
    x = parse_element(algebra, doc["x"])
    c = parse_element(algebra, doc["c"]) if "c" in doc else None
    xd = square_class(parse_rat(doc["xD"]), p) if "xD" in doc else None
    a = square_class(parse_rat(doc["a"]), p) if "a" in doc else None
    return ClassParameter(doc["kind"], algebra, x, c, xd, a)


def parse_ambient(doc) -> AmbientSpace:
    """{"qV": form, "epsilon": 1 or -1}, epsilon 1 when absent; qV is read as
    an alternating form when epsilon is -1."""
    from .gsnorm import make_ambient
    q_doc, epsilon = doc["qV"], parse_int(doc.get("epsilon", 1))
    return make_ambient(parse_form(q_doc, alternating=epsilon == -1), epsilon)


def parse_config(doc) -> GSConfiguration:
    from .gsnorm import GSConfiguration
    ambient = parse_ambient(doc["ambient"])
    return GSConfiguration(ambient, parse_mat(doc["X"]), parse_mat(doc["Y"]))


def config_doc(config: GSConfiguration) -> dict:
    """The configuration document."""
    amb = config.ambient
    return {
        "ambient": {"qV": form_doc(amb.q_V), "epsilon": amb.epsilon},
        "X": rows_doc(*config.x_scaled),
        "Y": rows_doc(*config.y_scaled),
    }


def parse_formal(doc) -> FormalParameter:
    from .localfield import as_prime, square_class
    from .params import FormalConstituent, FormalParameter
    p = as_prime(doc["p"])
    cs = []
    for c in doc["constituents"]:
        if not isinstance(c, dict):
            raise UsageError("constituent literal must be an object")
        sign = c.get("sign")
        sign = {"+1": 1, "-1": -1, 1: 1, -1: -1, "none": None, None: None}[sign]
        det = c.get("det")
        detc = square_class(parse_rat(det), p) if det is not None else None
        cs.append(FormalConstituent(parse_int(c["dim"]), sign is not None, sign,
                                    detc, parse_int(c.get("mult", 1))))
    return FormalParameter(tuple(cs))


def read_input(args) -> dict:
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if getattr(args, "json", None):
        return json.loads(args.json)
    data = sys.stdin.read()
    if not data.strip():
        raise UsageError("no input document (use --in, --json or stdin)")
    return json.loads(data)


def refuse_document(args, action: str) -> None:
    """An action that reads no document refuses one instead of ignoring it."""
    if args.infile is not None or args.json is not None:
        raise UsageError(f"{action} reads no input document")


def emit(doc, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)  # a closed stdout fails here, inside main


def digest(doc) -> str:
    import hashlib
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verb implementations


def cmd_hilbert(args) -> int:
    from .localfield import QP, hilbert_qp
    refuse_document(args, "hilbert")
    a, b = parse_rat(args.a), parse_rat(args.b)
    value = hilbert_qp(a, b, args.p)
    doc = {"a": rat_str(a), "b": rat_str(b), "p": args.p, "hilbert": value}
    if args.oracle:
        from .oracles import Solubility, solubility_budget, solubility_oracle
        depth = (solubility_budget(a, b, QP(args.p)) if args.depth is None
                 else args.depth)
        verdict = solubility_oracle(a, b, QP(args.p), depth)
        doc["oracle"] = verdict.value
        doc["oracle_depth"] = depth
        emit(doc, args)
        if verdict is Solubility.INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        agree = (verdict is Solubility.SOLUBLE) == (value == 1)
        return EXIT_OK if agree else EXIT_CHECK_FAILED
    emit(doc, args)
    return EXIT_OK


def cmd_sqclass(args) -> int:
    from .localfield import square_class
    refuse_document(args, "sqclass")
    cls = square_class(parse_rat(args.a), args.p)
    emit({"a": args.a, "p": args.p, "class": cls.representative}, args)
    return EXIT_OK


def cmd_qform(args) -> int:
    from .qform import equivalent, invariants, is_isotropic, witt_decompose
    doc = read_input(args)
    if args.action == "equiv":
        q1, q2 = parse_form(doc["q1"]), parse_form(doc["q2"])
        emit({"equivalent": equivalent(q1, q2)}, args)
        return EXIT_OK
    q = parse_form(doc)
    if args.action == "invariants":
        inv = invariants(q)
        emit({"dim": inv.dim, "det": inv.det.representative,
              "dpm": inv.dpm.representative, "hasse": inv.hasse,
              "witt_index": inv.witt_index, "aniso_dim": inv.aniso_dim}, args)
    elif args.action == "witt":
        witt, kernel = witt_decompose(q)
        emit({"witt_index": witt,
              "kernel": {"aniso_dim": kernel.aniso_dim,
                         "det": kernel.det.representative,
                         "hasse": kernel.hasse}}, args)
    elif args.action == "isotropic":
        emit({"isotropic": is_isotropic(q)}, args)
    return EXIT_OK


def cmd_weil(args) -> int:
    from .weil import epsilon_half, weil_index
    if args.action == "index":
        q = parse_form(read_input(args), args.p)
        if args.p is not None and q.p != args.p:
            raise UsageError(f"--p {args.p} disagrees with the form's prime {q.p}")
        emit({"weil_index": str(weil_index(q))}, args)
        return EXIT_OK
    refuse_document(args, f"weil {args.action}")
    if args.action == "epsilon":
        if args.d is None or args.p is None:
            raise UsageError("epsilon needs --d and --p")
        value = epsilon_half(parse_rat(args.d), args.p)
        emit({"d": args.d, "p": args.p, "epsilon_half": str(value)}, args)
        return EXIT_OK
    if args.a is None or args.k is None or args.p is None:
        raise UsageError("oracle needs --a, --k and --p")
    from .oracles import OracleError, gauss_oracle
    try:
        res = gauss_oracle(parse_rat(args.a), args.p, args.k)
    except ModuleNotFoundError as exc:
        raise UsageError(f"weil oracle needs the 'oracle' extra: {exc}") from exc
    except OracleError as exc:
        emit({"error": str(exc)}, args)
        return EXIT_INCONCLUSIVE
    emit({"value": [res.value.real, res.value.imag],
          "snapped": str(res.snapped),
          "snap_distance": res.snap_distance}, args)
    return EXIT_OK


def cmd_etale(args) -> int:
    from .etale import trace_form_quadratic
    doc = read_input(args)
    if args.action == "build":
        algebra = parse_algebra(doc)
        emit({"dim_over_Qp": algebra.dim_over_qp,
              "factors": [{"base_degree": f.base.degree,
                           "step": f.step_kind} for f in algebra.factors]}, args)
        return EXIT_OK
    algebra = parse_algebra(doc["algebra"])
    c = parse_element(algebra, doc["c"])
    q = trace_form_quadratic(algebra, c)
    emit(form_doc(q), args)
    return EXIT_OK


def cmd_class(args) -> int:
    from .classes import (TWISTED, build_SO_even, build_SO_odd, build_Sp,
                          build_tGL_even, build_tGL_odd, class_invariant,
                          corresponds, is_elliptic)
    doc = read_input(args)
    if args.action == "corresponds":
        dparam = parse_param(doc["delta"])
        gparam = parse_param(doc["gamma"])
        emit({"corresponds": corresponds(dparam, gparam)}, args)
        return EXIT_OK
    param = parse_param(doc)
    if args.action == "build":
        # the twisted kinds build a Gram delta, the others (q, gamma)
        build = {"tGL-even": build_tGL_even, "tGL-odd": build_tGL_odd,
                 "SO-even": build_SO_even, "SO-odd": build_SO_odd,
                 "Sp": build_Sp}.get(param.kind)
        if build is None:
            raise UsageError(f"build does not surface kind {param.kind}")
        built = build(param)
        emit({"delta": mat_doc(built)} if param.kind in TWISTED
             else {"q": form_doc(built[0]), "gamma": mat_doc(built[1])}, args)
    elif args.action == "invariant":
        inv = class_invariant(param)
        emit({"char_poly": poly_doc(inv.char_poly), "kind": inv.kind,
              "aux": [c.representative for c in inv.aux]}, args)
    elif args.action == "elliptic":
        emit({"elliptic": is_elliptic(param)}, args)
    return EXIT_OK


def cmd_gs(args) -> int:
    from .gsnorm import (GSConfiguration, check_rigidifiable, gs_norm,
                         gs_param_check, gs_section, phi_scaled, random_config,
                         u_of_xy)
    from .linalg import clear_denominators, int_mul, is_isometry, transpose
    if args.action == "random":
        config = random_config(parse_ambient(read_input(args)), args.seed)
        emit(config_doc(config), args)
        return EXIT_OK
    doc = read_input(args)
    if args.action == "section":
        ambient = parse_ambient(doc["ambient"])
        x, gamma = (clear_denominators(parse_mat(doc[k])) for k in ("X", "gamma"))
        emit({"Y": rows_doc(*gs_section(ambient, x, gamma))}, args)
        return EXIT_OK
    if args.action == "param":
        ok = gs_param_check(parse_config(doc["config"]), parse_param(doc["param"]))
        emit({"param_match": ok}, args)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    config = parse_config(doc)
    if args.action == "norm":
        if not config.closed:  # gamma would not be an isometry
            raise ValueError("closure condition violated")
        emit({"gamma": rows_doc(*gs_norm(config))}, args)
        return EXIT_OK
    # verify: the invariant battery, on integer rows
    checks = {"xy_condition": config.closed}
    if checks["xy_condition"]:
        amb = config.ambient
        q, s = amb.q_V.rows, amb.q_V.den
        checks["u_isometry"] = is_isometry(u_of_xy(config), amb.gram_q1_scaled[0])
        # phi^T (-eps q) phi = delta + eps delta^T, for phi = P / e and
        # delta = Y_n / d_Y, multiplied through by e^2 s d_Y
        check_rigidifiable(config)
        p_rows, e = phi_scaled(config)
        (y, dy), eps = config.y_scaled, amb.epsilon
        lhs = int_mul(transpose(p_rows), int_mul(q, p_rows))
        checks["rigidify_isometry"] = all(
            -eps * dy * v == e * e * s * (y[i][j] + eps * y[j][i])
            for i, row in enumerate(lhs) for j, v in enumerate(row))
        gamma = gs_norm(config)
        checks["norm_isometry"] = is_isometry(gamma, q)
        # gs_section refuses a gamma that is no isometry
        checks["section_round_trip"] = checks["norm_isometry"] and gs_norm(
            GSConfiguration.from_rows(amb, config.x_scaled,
                                      gs_section(amb, config.x_scaled, gamma))) == gamma
    emit({"checks": checks, "all_pass": all(checks.values())}, args)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_endo(args) -> int:
    from .endoscopy import (ConstancyCell, enumerate_elliptic_data, eta_so_value,
                            eta_sp_value, gs_constancy_check, transfer_factor)
    from .localfield import as_prime, square_class
    from .weil import Mu8
    p = 2 if args.p is None else args.p  # enumerate and eta --kind sp
    if args.action == "enumerate":
        refuse_document(args, "endo enumerate")
        data = enumerate_elliptic_data(args.n, p)
        emit({"count": len(data),
              "data": [{"nO": d.n_O, "nS": d.n_S,
                        "chi": d.chi.representative,
                        "simple": d.simple} for d in data]}, args)
        return EXIT_OK
    if args.action == "eta":
        if args.kind == "sp":
            refuse_document(args, "endo eta --kind sp")
            prime = as_prime(p)
            value = eta_sp_value(args.n)
        else:
            doc = read_input(args)
            vp = parse_form(doc["binary"], args.p)
            if args.p is not None and vp.p != args.p:
                raise UsageError(f"--p {args.p} disagrees with the binary "
                                 f"form's prime {vp.p}")
            prime = vp.p
            value = eta_so_value(vp, parse_rat(doc["y"]), args.n)
        emit({"eta": rat_json(value),
              "eta_class": square_class(value, prime).representative}, args)
        return EXIT_OK
    doc = read_input(args)
    if args.action == "delta":
        space = parse_form(doc["space"])
        delta = parse_mat(doc["delta"])
        plain = transfer_factor(space, delta, args.n)
        # transfer_factor_whittaker too would eliminate q_delta a second time
        lam = ConstancyCell(space, args.n).epsilon_inverse * Mu8.from_sign(plain)
        emit({"delta": plain, "delta_lambda": str(lam)}, args)
        return EXIT_OK
    # check
    config = parse_config(doc)
    ok = gs_constancy_check(config, args.n)
    emit({"constancy": ok}, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_param(args) -> int:
    from .params import classify, hypothesis_even_SO
    doc = read_input(args)
    phi = parse_formal(doc)
    if args.action == "classify":
        datum = classify(phi)
        emit({"nO": datum.n_O, "nS": datum.n_S,
              "chi": datum.chi.representative, "simple": datum.simple}, args)
    else:
        emit({"comes_from_even_SO": hypothesis_even_SO(phi)}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# corpus


def _corpus_entries(seed: int, primes, ns, count: int):
    """The deterministic corpus plan: per (p, n), count configurations cycling
    through every discriminant class (split included) and both twist cosets."""
    from .localfield import square_class_table
    entries = []
    for p in primes:
        table = square_class_table(p)
        # the twists of each K: 1, and for a field K the first class of the
        # table that is not a norm from K
        twists = {kclass: [1] if kclass.is_trivial() else
                  [1, next(x for x in table if kclass.hilbert(x) == -1).representative]
                  for kclass in table}
        for n in ns:
            # the split K at 2n = 2 would make V the isotropic binary space,
            # which names no endoscopic group and is excluded
            kclasses = [k for k in table if n > 1 or not k.is_trivial()]
            for i in range(count):
                kclass = kclasses[i % len(kclasses)]
                c_choices = twists[kclass]
                entries.append({
                    "seed": ((seed * 1000003 + p) * 1000003 + n) * 1000003 + i,
                    "p": p, "n": n, "K": kclass.representative,
                    "c": c_choices[(i // len(kclasses)) % len(c_choices)], "index": i,
                })
    return entries


def _run_entries(entries, cells: dict) -> list[dict]:
    """The records of a run's entries, in order.  cells maps the raw (p, n, K,
    c) of the entries to their ConstancyCell and the digest tail of its
    configurations, which the first entry of a cell builds; a cell computes
    its target, epsilon factor and rhs from square classes and shares
    nothing with another.  The library is imported once per run, not once
    per record.

    A record's inputs_digest is digest(config_doc(config)), hashed from text
    built here: json.dumps with sorted keys writes "X", "Y", then "ambient",
    and the ambient is the cell's, so its text, the tail, is rendered once
    per cell and each record renders only its X and Y rows (rows_json)."""
    from hashlib import sha256
    from .endoscopy import constancy_cell, constancy_record
    from .gsnorm import random_config
    records = []
    for entry in entries:
        key = (entry["p"], entry["n"], entry["K"], entry["c"])
        if key not in cells:
            cell = constancy_cell(*key)
            ambient = {"qV": form_doc(cell.space), "epsilon": cell.ambient.epsilon}
            cells[key] = (cell, ', "ambient": ' + json.dumps(ambient, sort_keys=True) + "}")
        cell, tail = cells[key]
        config = random_config(cell.ambient, entry["seed"])
        result = constancy_record(cell, config)
        text = ('{"X": ' + rows_json(*config.x_scaled) + ', "Y": '
                + rows_json(*config.y_scaled) + tail)
        record = dict(entry)
        record["inputs_digest"] = sha256(text.encode()).hexdigest()[:16]
        record["lhs"] = str(result.lhs)
        record["rhs"] = str(result.rhs)
        record["pass"] = result.passed
        records.append(record)
    return records


def _cell_summary(records) -> list[dict]:
    """Per (p, n, K, c) cell: its records, failures, rhs and the distinct lhs
    values seen, which are one unless a lemma of endoscopy is broken."""
    cells = {}
    for r in records:
        key = (r["p"], r["n"], r["K"], r["c"])
        cell = cells.setdefault(key, dict(zip(("p", "n", "K", "c"), key), records=0,
                                          failures=0, rhs=r["rhs"], lhs=[]))
        cell["records"] += 1
        cell["failures"] += not r["pass"]
        if r["lhs"] not in cell["lhs"]:
            cell["lhs"].append(r["lhs"])
    for cell in cells.values():
        cell["lhs"].sort()
    return [cells[key] for key in sorted(cells)]


# the corpus flags and their defaults; a plan document replaces all four
CORPUS_FLAGS = {"seed": 0, "p": "2,3,5,7", "n": "1,2,3", "count": 1000}
# the fields of a plan entry, each a JSON integer
ENTRY_KEYS = ("seed", "p", "n", "K", "c", "index")


def _check_plan(primes, ns, count: int, names=("--p", "--n", "--count")) -> None:
    """Distinct primes, distinct ranks n >= 1 and a count >= 1, each named
    in a refusal by its flag or plan field."""
    from .localfield import as_prime
    for name, values in zip(names, (primes, ns)):
        if len(set(values)) != len(values):
            raise UsageError(f"{name} lists a value twice: {values}")
    for p in primes:
        as_prime(p)
    if min(ns) < 1:
        raise UsageError(f"{names[1]} values must be at least 1: {ns}")
    if count < 1:
        raise UsageError(f"{names[2]} must be at least 1, not {count}")


def _read_plan(doc) -> tuple[dict, list]:
    """The header (seed, primes, ns, count) and the entries of a plan that
    corpus generate emitted, possibly cut down to some of its entries."""
    if not isinstance(doc, dict):
        raise UsageError("a corpus plan must be an object")
    version = doc.get("generator_version")
    if type(version) is not int or version != 1:
        raise UsageError(f"plan generator_version must be 1, not {version!r}")
    header = {k: doc.get(k) for k in ("seed", "primes", "ns", "count")}
    if not (all(type(header[k]) is int for k in ("seed", "count"))
            and all(isinstance(header[k], list) and header[k]
                    and all(type(v) is int for v in header[k])
                    for k in ("primes", "ns"))):
        raise UsageError("a plan needs an integer seed and count and nonempty "
                         "integer lists primes and ns")
    _check_plan(header["primes"], header["ns"], header["count"],
                ("primes", "ns", "count"))
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        raise UsageError("a plan needs a nonempty list of entries")
    seen = set()
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and set(e) == set(ENTRY_KEYS)
                and all(type(v) is int for v in e.values())):
            raise UsageError(f"plan entry {i} must have exactly the integer "
                             f"fields {', '.join(ENTRY_KEYS)}")
        if e["p"] not in header["primes"] or e["n"] not in header["ns"]:
            raise UsageError(f"plan entry {i} lies outside the plan's primes and ns")
        key = (e["p"], e["n"], e["index"])
        if key in seen:
            raise UsageError(f"plan entry {i} repeats (p, n, index) = {key}")
        seen.add(key)
    return header, entries


def cmd_corpus(args) -> int:
    if args.action == "generate":
        refuse_document(args, "corpus generate")
    given = {k: getattr(args, k) for k in CORPUS_FLAGS if getattr(args, k) is not None}
    if args.infile is not None or args.json is not None:
        if given:
            raise UsageError("a plan document replaces --" + ", --".join(given))
        header, entries = _read_plan(read_input(args))
    else:
        flags = {**CORPUS_FLAGS, **given}
        header = {"seed": flags["seed"], "primes": [int(x) for x in flags["p"].split(",")],
                  "ns": [int(x) for x in flags["n"].split(",")], "count": flags["count"]}
        _check_plan(header["primes"], header["ns"], header["count"])
        entries = _corpus_entries(header["seed"], header["primes"], header["ns"],
                                  header["count"])
    if args.action == "generate":
        emit({"tool_version": __version__, "generator_version": 1, **header,
              "entries": entries}, args)
        return EXIT_OK
    started = time.time()
    records = _run_entries(entries, {})
    records.sort(key=lambda r: (r["p"], r["n"], r["index"]))
    failures = sum(1 for r in records if not r["pass"])
    manifest = {
        "tool_version": __version__, "generator_version": 1, **header,
        "records": records, "failures": failures, "cells": _cell_summary(records),
        "elapsed_seconds": round(time.time() - started, 3),
    }
    emit(manifest, args)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def _add_io(sub):
    sub.add_argument("--in", dest="infile", help="input document path")
    sub.add_argument("--json", help="inline input document")
    sub.add_argument("--out", help="output document path")


def _hilbert_args(s):
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--oracle", action="store_true",
                   help="cross-check with the solubility oracle")
    s.add_argument("--depth", type=int, default=None)


def _sqclass_args(s):
    s.add_argument("a")
    s.add_argument("--p", type=int, required=True)


def _action_args(*actions):
    return lambda s: s.add_argument("action", choices=actions)


def _weil_args(s):
    s.add_argument("action", choices=["index", "epsilon", "oracle"])
    s.add_argument("--p", type=int,
                   help="the prime of Q_p for epsilon and oracle; for index "
                        "the form's prime (used when the form names none), "
                        "and a --p that differs from it is a usage error")
    s.add_argument("--d", help="discriminant class for epsilon")
    s.add_argument("--a", help="coefficient for the oracle")
    s.add_argument("--k", type=int, help="oracle truncation level")


def _gs_args(s):
    s.add_argument("action", choices=["random", "norm", "section", "verify", "param"])
    s.add_argument("--seed", type=int, default=0)


def _endo_args(s):
    s.add_argument("action", choices=["enumerate", "eta", "delta", "check"],
                   help='eta prints {"eta": value, "eta_class": canonical class '
                        'representative}; the value is a JSON integer when '
                        'integral, else a "num/den" string')
    s.add_argument("--n", type=int, default=1)
    s.add_argument("--p", type=int, default=None,
                   help="the prime of Q_p for enumerate and eta --kind sp "
                        "(default 2); for eta --kind so the binary form's "
                        "prime, and a --p that differs from it is a usage "
                        "error; delta and check take the prime from their forms")
    s.add_argument("--kind", choices=["sp", "so"], default="sp")


def _corpus_args(s):
    s.description = ("run with --in or --json runs the entries of a plan that "
                     "generate emitted, in place of the four flags")
    s.add_argument("action", choices=["generate", "run"])
    s.add_argument("--seed", type=int, help=f"default {CORPUS_FLAGS['seed']}")
    s.add_argument("--p", help="comma-separated primes, each at most once "
                               f"(default {CORPUS_FLAGS['p']})")
    s.add_argument("--n", help="comma-separated ranks n, each at most once "
                               f"(default {CORPUS_FLAGS['n']})")
    s.add_argument("--count", type=int,
                   help=f"records per (p, n) (default {CORPUS_FLAGS['count']})")


# verb -> (help, the function that adds its arguments, handler), in the
# order -h lists them
VERBS = {
    "hilbert": ("Hilbert symbol (a,b)_p", _hilbert_args, cmd_hilbert),
    "sqclass": ("canonical square class", _sqclass_args, cmd_sqclass),
    "qform": ("quadratic form queries",
              _action_args("invariants", "equiv", "witt", "isotropic"), cmd_qform),
    "weil": ("Weil index queries", _weil_args, cmd_weil),
    "etale": ("etale algebra operations", _action_args("build", "traceform"), cmd_etale),
    "class": ("class parameter operations",
              _action_args("build", "invariant", "corresponds", "elliptic"), cmd_class),
    "gs": ("norm-correspondence operations", _gs_args, cmd_gs),
    "endo": ("endoscopic data and transfer factors", _endo_args, cmd_endo),
    "param": ("formal parameter combinatorics",
              _action_args("classify", "hypothesis"), cmd_param),
    "corpus": ("seeded corpus generation and batch checks", _corpus_args, cmd_corpus),
}


def build_parser(verb=None) -> argparse.ArgumentParser:
    """The parser of the verb named, or of every verb when none is.

    All ten verbs are registered with their help, so -h and an unknown verb
    list them alike; only the named verb's subparser gets its arguments,
    description and handler, which is most of the cost of building.
    """
    ap = argparse.ArgumentParser(
        prog="twistedgl",
        description="exact geometric invariants of twisted general linear spaces")
    sp = ap.add_subparsers(dest="verb", required=True)
    for name, (help_, add_args, handler) in VERBS.items():
        s = sp.add_parser(name, help=help_)
        if verb in (None, name):
            add_args(s)
            _add_io(s)
            s.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, TypeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"malformed input: {exc!r}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
