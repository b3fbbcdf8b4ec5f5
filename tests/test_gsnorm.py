"""The block formalism: closure condition, unipotents, norms, sections."""

import contextlib
import io
import json
import random
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace
from fractions import Fraction as F

import pytest

from helpers import (count_eliminations, hilbert90_x, random_algebra,
                     random_antifixed_invertible, random_fixed_invertible,
                     random_generator,
                     random_norm_one_generator, reference_gs_norm,
                     reference_is_very_regular, reference_phi,
                     reference_fraction_random_config,
                     reference_random_config, reference_transfer_factor,
                     reference_xy_condition)
from twistedgl import cli, gsnorm, linalg
from twistedgl.cli import _corpus_entries, config_doc, main
from twistedgl.endoscopy import constancy_cell, transfer_factor
from twistedgl.classes import (ClassParameter, build_SO_even, build_SO_odd,
                               build_Sp, corresponds, is_elliptic,
                               twist_invariant)
from twistedgl.etale import is_generator, make_algebra, quadratic_tower, tau
from twistedgl.gsnorm import (ELL, GSConfiguration, gs_norm, gs_param_check,
                              gs_section, make_ambient, random_config, rigidify,
                              u_of_xy)
from twistedgl.linalg import (block_diag, charpoly, det, identity, int_det,
                              int_inverse, int_mul, inverse, mat, mat_add, mat_mul,
                              mat_scale, mat_sub, poly_squarefree_mod, to_mat,
                              transpose)
from twistedgl.localfield import QP, square_class
from twistedgl.qform import alternating_form, diag_form, hyperbolic, quad_form

RNG = random.Random(7)


def rand_invertible(n, rng, span=6):
    while True:
        x = mat([[rng.randint(-span, span) for _ in range(n)] for _ in range(n)])
        if det(x) != 0:
            return x


def even_fixture(p, rng):
    """(ambient, gamma, y, x, algebra, c) for the even orthogonal case."""
    while True:
        alg = random_algebra(p, rng)
        y = random_norm_one_generator(alg, rng)
        c = random_fixed_invertible(alg, rng)
        q_c, gamma = build_SO_even(ClassParameter("SO-even", alg, y, c=c))
        try:
            ambient = make_ambient(q_c, 1)
        except ValueError:
            continue  # the isotropic binary space is excluded
        for _ in range(40):
            x_alg = hilbert90_x(y, random_generator(alg, rng, require_very_regular=False))
            if x_alg.is_invertible() and is_generator(x_alg) and is_generator(x_alg * tau(x_alg).inverse()):
                return ambient, gamma, y, x_alg, alg, c


def test_make_ambient_shapes():
    q = diag_form([1, -2], 3)
    amb = make_ambient(q, 1)
    assert len(amb.gram_q1) == 6
    assert amb.gram_q1 == transpose(amb.gram_q1)
    sym = alternating_form([[0, 1], [-1, 0]], 3)
    amb2 = make_ambient(sym, -1)
    assert transpose(amb2.gram_q1) == mat_scale(-1, amb2.gram_q1)
    with pytest.raises(ValueError):
        make_ambient(hyperbolic(1, 3), 1)  # excluded isotropic binary V
    with pytest.raises(ValueError):
        make_ambient(q, -1)  # symmetric Gram with epsilon -1


def test_ambient_stores_only_q_and_epsilon():
    q = diag_form([1, -2, 3], 5)
    amb = make_ambient(q, 1)
    assert [f.name for f in fields(amb)] == ["q_V", "epsilon"]
    assert amb.n == 3 and "gram_q1" not in vars(amb)
    assert amb.gram_q1 is amb.gram_q1  # built on the first read, then kept
    assert amb == make_ambient(q, 1)


def test_a_configuration_is_its_integer_rows():
    amb = make_ambient(diag_form([1, -2, 3], 5), 1)
    x = mat([[F(1, 2), 0, 1], [0, 3, 0], [1, 0, F(2, 3)]])
    y = mat([[1, F(1, 4), 0], [0, 2, 0], [5, 0, 1]])
    cfg = GSConfiguration(amb, x, y)
    assert [f.name for f in fields(cfg)] == ["ambient", "x_scaled", "y_scaled"]
    assert cfg.x_scaled == ([[3, 0, 6], [0, 18, 0], [6, 0, 4]], 6)
    assert cfg.y_scaled == ([[4, 1, 0], [0, 8, 0], [20, 0, 4]], 4)
    assert "X" not in vars(cfg) and "Y" not in vars(cfg)
    assert cfg.X == x and cfg.Y == y
    assert cfg.X is cfg.X  # built on the first read, then kept
    with pytest.raises(FrozenInstanceError):
        cfg.X = y
    for bad in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(ValueError, match="Y must be 3 x 3"):
            GSConfiguration(amb, x, mat(bad))
    # a sampled configuration comes with its checks, and without its Mats
    sampled = random_config(make_ambient(diag_form([1, -2, 3, 5], 3), 1), 0)
    assert vars(sampled).keys() == {"ambient", "x_scaled", "y_scaled",
                                    "invertible", "closed"}


def test_a_corpus_record_builds_no_fraction_x_or_y(monkeypatch):
    # a corpus record reads only the rows of its configuration: sampling it,
    # checking the constancy identity and digesting its document build
    # neither the Mat X nor the Mat Y
    sampled, sample = [], gsnorm.random_config
    built, to_mat_of = [], gsnorm.to_mat

    def recorded(ambient, seed):
        sampled.append(sample(ambient, seed))
        return sampled[-1]

    def counted(rows, den=1):
        built.append((rows, den))
        return to_mat_of(rows, den)

    monkeypatch.setattr(gsnorm, "random_config", recorded)
    monkeypatch.setattr(gsnorm, "to_mat", counted)
    records = cli._run_entries(_corpus_entries(0, (2, 3, 5, 7), (6,), 8), {})
    assert len(records) == 32 and all(r["pass"] for r in records)
    assert len(sampled) == 32
    for cfg in sampled:
        assert "X" not in vars(cfg) and "Y" not in vars(cfg)
        assert cfg.x_scaled not in built and cfg.y_scaled not in built


def test_a_quasisplit_ambient_inverts_its_gram_without_elimination(monkeypatch):
    # (n - 1)H + c N_K is made of 2 x 2 blocks, each inverted by its
    # adjugate: Q^-1 of every cell of a run runs no elimination and is the
    # inverse of the Gram
    eliminated, eliminate = [], linalg._eliminate

    def counted(rows, jordan):
        eliminated.append(len(rows))
        return eliminate(rows, jordan)

    keys = {(e["p"], e["n"], e["K"], e["c"])
            for e in _corpus_entries(0, (2, 3, 5, 7), (1, 2, 6), 8)}
    for key in sorted(keys):
        ambient = constancy_cell(*key).ambient
        monkeypatch.setattr(linalg, "_eliminate", counted)
        q_inv = ambient.q_inverse
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        assert eliminated == [] and q_inv == inverse(ambient.q_V.gram)


def test_random_config_gives_up_after_the_retry_budget(monkeypatch):
    amb = make_ambient(diag_form([1, 1], 3), 1)
    monkeypatch.setattr(gsnorm, "RETRY_BUDGET", 0)
    with pytest.raises(RuntimeError, match="retry budget exhausted for seed 4"):
        random_config(amb, 4)


def test_random_config_refuses_a_very_regular_norm_on_odd_orthogonal():
    # an isometry of an odd-dimensional quadratic space has eigenvalue +-1
    for diag in ([3], [1, -2, 3], [1, 2, 5, -7, 3]):
        amb = make_ambient(diag_form(diag, 5), 1)
        with pytest.raises(ValueError, match="odd orthogonal"):
            random_config(amb, 1)
        for seed in range(3):
            config = reference_random_config(amb, seed, require_very_regular=False)
            assert not reference_is_very_regular(gs_norm(config))


def test_ambient_gram_determinant_is_that_of_q():
    # the block Gram [[0,0,I],[0,Q,0],[eps I,0,0]] has determinant
    # (-eps)^n det Q, so a nondegenerate Q never gives a degenerate ambient
    forms = [(diag_form([1, -2], 3), 1), (diag_form([1, 2, -1, 3], 5), 1),
             (diag_form([F(1, 2), 3, 7], 7), 1),
             (alternating_form([[0, 1], [-1, 0]], 3), -1),
             (alternating_form([[0, 2, 1, 0], [-2, 0, 0, F(1, 3)], [-1, 0, 0, 5],
                                [0, F(-1, 3), -5, 0]], 5), -1)]
    for q, eps in forms:
        amb = make_ambient(q, eps)
        assert det(amb.gram_q1) == (-eps) ** q.dim * det(q.gram) != 0


def test_xy_condition_symmetric_solution_and_perturbation():
    for p in (2, 3, 5):
        q = diag_form([1, -2, 2, 1], p) if p != 2 else diag_form([1, 1, 1, 1], 2)
        amb = make_ambient(q, 1)
        from twistedgl.linalg import inverse
        for seed in range(5):
            cfg = reference_random_config(amb, seed, require_very_regular=False)
            assert cfg.closed
            y = [list(r) for r in cfg.Y]
            y[0][0] += 1
            assert not GSConfiguration(amb, cfg.X, mat(y)).closed


def test_u_isometry_and_nilpotency():
    for p in (2, 3, 5):
        for eps in (1, -1):
            if eps == 1:
                q = diag_form([1, 2, -1, 3], p)
            else:
                q = alternating_form(block_diag(((F(0), F(1)), (F(-1), F(0))),
                                                ((F(0), F(2)), (F(-2), F(0)))), p)
            amb = make_ambient(q, eps)
            for seed in range(4):
                cfg = reference_random_config(amb, seed, require_very_regular=False)
                u = u_of_xy(cfg)
                g1 = amb.gram_q1
                assert mat_mul(transpose(u), mat_mul(g1, u)) == g1
                nil = mat_sub(u, identity(len(u)))
                assert mat_mul(nil, mat_mul(nil, nil)) == \
                    tuple(tuple(F(0) for _ in row) for row in nil)


def norm_very_regular(y, eps, monkeypatch):
    """gsnorm._norm_very_regular(y, eps) and whether its exact branch ran."""
    exact, int_inverse_of = [], gsnorm.int_inverse

    def recorded(rows):
        exact.append(rows)
        return int_inverse_of(rows)

    monkeypatch.setattr(gsnorm, "int_inverse", recorded)
    answer = gsnorm._norm_very_regular(y, eps)
    monkeypatch.setattr(gsnorm, "int_inverse", int_inverse_of)
    return answer, bool(exact)


def reference_rule(y, eps):
    """det Y != 0 and -eps Y^T Y^-1, similar to the norm of a closed pair with
    this Y, very regular by sympy."""
    y = mat(y)
    if det(y) == 0:
        return False
    return reference_is_very_regular(mat_scale(-eps, mat_mul(transpose(y), inverse(y))))


def random_rows(rng, n):
    """Integer rows: dense with entries in [-9, 9], or sparse with entries in
    [-2, 2], where repeated eigenvalues, eigenvalues +-1 and det 0 are common."""
    if rng.random() < 0.5:
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    return [[0 if rng.random() < 0.5 else rng.randint(-2, 2) for _ in range(n)]
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_is_very_regular_is_the_rational_test(seed, monkeypatch):
    # the rule of the sampler on any integer Y_n: residues mod ELL may only
    # accept, and the rational test decides everything else
    rng = random.Random(9100 + seed)
    decided = undecided = 0
    for _ in range(40):
        n, eps = rng.randint(1, 8), rng.choice((1, -1))
        y = random_rows(rng, n)
        expected = reference_rule(y, eps)
        answer, exact = norm_very_regular(y, eps, monkeypatch)
        assert answer == expected
        if exact:
            undecided += 1
        elif n % 2:
            assert not expected  # decided by parity, without a certificate
        else:
            assert expected  # the certificate never proves a false claim
            decided += 1
    assert decided and undecided  # both branches are exercised


def test_is_very_regular_falls_back_where_the_certificate_cannot_decide(monkeypatch):
    # for n = 2, Z = -eps Y^-1 Y^T has f = T^2 + eps t T + 1 with
    # t = (2ad - b^2 - c^2) / det Y: very regular exactly when t != +-2
    cases = [
        ([[ELL, 1], [0, 1]], -1),      # ELL divides det Y_n, t = 2 - 1/ELL
        ([[1, ELL], [0, 1]], -1),      # t = 2 - ELL^2: (T - 1)^2 mod ELL
        ([[1, ELL + 2], [0, 1]], -1),  # t = 2 - (ELL + 2)^2: f(-1) = 0 mod ELL
        ([[1, ELL], [0, 1]], 1),       # (T + 1)^2 mod ELL
    ]
    for y, eps in cases:
        assert reference_rule(y, eps)
        assert norm_very_regular(y, eps, monkeypatch) == (True, True)
    assert int_det(cases[0][0]) == ELL


@pytest.mark.parametrize("ell", (ELL, 7, 3))
def test_the_rule_decides_very_regularity_of_the_norm(ell, monkeypatch):
    # on closed pairs of any norm, the rule on Y_n and eps gives sympy's answer
    # on the norm itself, whichever prime the residues are taken at
    monkeypatch.setattr(gsnorm, "ELL", ell)
    rng = random.Random(9500 + ell)
    answers = []
    for n, eps in ((1, 1), (2, 1), (3, 1), (4, 1), (2, -1), (4, -1)):
        amb = random_ambient(rng, n, eps)
        for seed in range(6):
            cfg = reference_random_config(amb, seed, require_very_regular=False)
            expected = reference_is_very_regular(gs_norm(cfg))
            assert gsnorm._norm_very_regular(cfg.y_scaled[0], eps) == expected
            answers.append(expected)
    assert set(answers) == {True, False}


def test_u_isometry_fails_without_closure():
    q = diag_form([1, 2], 5)
    amb = make_ambient(q, 1)
    cfg = reference_random_config(amb, 0, require_very_regular=False)
    y = [list(r) for r in cfg.Y]
    y[0][1] += 1
    bad = GSConfiguration(amb, cfg.X, mat(y))
    with pytest.raises(ValueError):
        u_of_xy(bad)
    # and the raw matrix genuinely fails the isometry identity
    from twistedgl.gsnorm import inverse as _inv  # noqa: F401  (import guard)


def test_norm_and_rigidify_need_invertible_x_and_y():
    amb = make_ambient(diag_form([1, 1], 3), 1)
    # X = 0 with a skew invertible Y meets the closure condition
    cfg = GSConfiguration(amb, mat([[0, 0], [0, 0]]), mat([[0, 1], [-1, 0]]))
    assert cfg.closed and not cfg.invertible
    with pytest.raises(ValueError, match="norm needs invertible X and Y"):
        gs_norm(cfg)
    with pytest.raises(ValueError, match="rigidification needs invertible X and Y"):
        rigidify(cfg)
    assert reference_random_config(amb, 0, require_very_regular=False).invertible


def test_rigidify_isometry_identity():
    for p in (2, 3, 5):
        for eps in (1, -1):
            if eps == 1:
                q = diag_form([1, 2, -1, 3], p)
            else:
                q = alternating_form(block_diag(((F(0), F(1)), (F(-1), F(0))),
                                                ((F(0), F(2)), (F(-2), F(0)))), p)
            amb = make_ambient(q, eps)
            for seed in range(4):
                cfg = reference_random_config(amb, seed, require_very_regular=False)
                if det(cfg.X) == 0 or det(cfg.Y) == 0:
                    continue
                delta, phi = rigidify(cfg)
                lhs = mat_mul(transpose(phi), mat_mul(mat_scale(-eps, q.gram), phi))
                rhs = mat_add(delta, mat_scale(eps, transpose(delta)))
                assert lhs == rhs
                assert det(rhs) != 0  # invertibility comes for free


def test_gs_norm_isometry_and_determinant():
    for p in (2, 3, 5):
        amb, gamma, y, x_alg, alg, c = even_fixture(p, RNG)
        for seed in range(6):
            cfg = random_config(amb, seed)
            g = gs_norm(cfg)
            q = amb.q_V.gram
            assert mat_mul(transpose(g), mat_mul(q, g)) == q
            assert det(g) == 1  # even orthogonal norms land in SO


def test_gs_norm_g_invariance():
    q = diag_form([1, 2, -1, 3], 5)
    amb = make_ambient(q, 1)
    for seed in range(3):
        cfg = random_config(amb, seed)
        base = gs_norm(cfg)
        for _ in range(20):
            g = rand_invertible(amb.n, RNG, span=4)
            x2 = mat_mul(g, cfg.X)
            y2 = mat_mul(g, mat_mul(cfg.Y, transpose(g)))
            cfg2 = GSConfiguration(amb, x2, y2)
            assert cfg2.closed
            assert gs_norm(cfg2) == base


def test_gs_section_round_trip_parametrized():
    for p in (2, 3, 5):
        amb, gamma, y, x_alg, alg, c = even_fixture(p, RNG)
        for _ in range(5):
            x = rand_invertible(amb.n, RNG)
            ysec = gs_section(amb, x, gamma)
            cfg = GSConfiguration(amb, x, ysec)
            assert cfg.closed
            assert gs_norm(cfg) == gamma


def test_gs_section_rejects_unipotent_eigenvalue():
    q = diag_form([1, 2], 5)
    amb = make_ambient(q, 1)
    x = identity(2)
    with pytest.raises(ValueError):
        gs_section(amb, x, identity(2))


def test_gs_section_eliminates_gamma_minus_one_once(monkeypatch):
    rng = random.Random(9)
    amb, gamma = even_fixture(3, rng)[:2]
    x = rand_invertible(amb.n, rng)
    _, dets = count_eliminations(monkeypatch)
    gs_section(amb, x, gamma)
    # the inverse of gamma - 1 is its one elimination: det is not asked first
    assert mat_sub(gamma, identity(amb.n)) not in dets
    with pytest.raises(ValueError, match="gamma - 1 must be invertible"):
        gs_section(make_ambient(diag_form([1, 2], 5), 1), identity(2), identity(2))


def test_twist_invariant_independent_of_x():
    amb, gamma, y, x_alg, alg, c = even_fixture(3, RNG)
    fingerprints = set()
    for _ in range(10):
        x = rand_invertible(amb.n, RNG)
        ysec = gs_section(amb, x, gamma)
        fingerprints.add(twist_invariant(ysec))
    assert len(fingerprints) == 1


def test_gs_param_check_even_orthogonal():
    for p in (2, 3, 5):
        amb, gamma, y, x_alg, alg, c = even_fixture(p, RNG)
        x = rand_invertible(amb.n, RNG)
        ysec = gs_section(amb, x, gamma)
        cfg = GSConfiguration(amb, x, ysec)
        param = ClassParameter("tGL-even", alg, x_alg)
        assert gs_param_check(cfg, param)
        # a corrupted Y breaks the closure condition, and is refused
        bad = [list(r) for r in ysec]
        bad[0][0] += 1
        if det(mat(bad)) != 0:
            with pytest.raises(ValueError):
                gs_param_check(GSConfiguration(amb, x, mat(bad)), param)


def symplectic_case(rng):
    """(configuration, tGL-even parameter) on a symplectic ambient over Q_3,
    the configuration a section of the norm of a very regular Sp class."""
    p = 3
    while True:
        alg = random_algebra(p, rng)
        y = random_norm_one_generator(alg, rng)
        c = random_antifixed_invertible(alg, rng)
        q_c, gamma = build_Sp(ClassParameter("Sp", alg, y, c=c))
        # x with tau(x)/x = y (epsilon = -1 flips the sign in the lemma)
        for _ in range(40):
            x_alg = hilbert90_x(-y, random_generator(alg, rng, require_very_regular=False))
            if x_alg.is_invertible() and is_generator(x_alg) and is_generator(x_alg * tau(x_alg).inverse()):
                break
        else:
            continue
        break
    amb = make_ambient(q_c, -1)
    x = rand_invertible(amb.n, rng)
    ysec = gs_section(amb, x, gamma)
    cfg = GSConfiguration(amb, x, ysec)
    assert gs_norm(cfg) == gamma
    return cfg, ClassParameter("tGL-even", alg, x_alg)


def odd_orthogonal_case(rng):
    """(configuration, tGL-odd parameter) on a 3-dim orthogonal ambient over
    Q_3, the configuration a section of minus a very regular SO-odd class."""
    p = 3
    while True:
        alg = make_algebra([quadratic_tower(QP(p), 2)])
        y = random_norm_one_generator(alg, rng)
        c = random_fixed_invertible(alg, rng)
        a = square_class(1, p)
        q, g = build_SO_odd(ClassParameter("SO-odd", alg, y, c=c, a=a))
        gamma = mat_scale(-1, g)  # norms carry -1 times the special orthogonal group
        if det(mat_sub(gamma, identity(3))) == 0:
            continue
        for _ in range(40):
            x_alg = hilbert90_x(-y, random_generator(alg, rng, require_very_regular=False))
            if x_alg.is_invertible() and is_generator(x_alg) and is_generator(x_alg * tau(x_alg).inverse()):
                break
        else:
            continue
        break
    amb = make_ambient(q, 1)
    x = rand_invertible(amb.n, rng)
    ysec = gs_section(amb, x, gamma)
    cfg = GSConfiguration(amb, x, ysec)
    assert gs_norm(cfg) == gamma
    return cfg, ClassParameter("tGL-odd", alg, x_alg, x_D=square_class(1, p))


def test_gs_param_check_symplectic():
    assert gs_param_check(*symplectic_case(RNG))


def test_gs_param_check_odd_orthogonal():
    assert gs_param_check(*odd_orthogonal_case(RNG))


def param_doc(param):
    """The class-parameter document of a parameter over Q_p bases."""
    doc = {"kind": param.kind,
           "algebra": [{"base": {"p": f.base.p},
                        "step": "split" if f.step_kind == "split"
                        else {"d": str(f.d.coeffs[0])}}
                       for f in param.algebra.factors],
           "x": [[str(v) for v in (a + b).coeffs + (a - b).coeffs] if f.step_kind == "split"
                 else [str(v) for v in a.coeffs + b.coeffs]
                 for f, (a, b) in zip(param.algebra.factors, param.x.parts)]}
    if param.x_D is not None:
        doc["xD"] = param.x_D.representative
    return doc


def gs_param_verb(cfg, param):
    """gs param on (cfg, param) through the CLI: (exit code, document)."""
    out = io.StringIO()
    payload = json.dumps({"config": config_doc(cfg), "param": param_doc(param)})
    with contextlib.redirect_stdout(out):
        code = main(["gs", "param", "--json", payload])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("p", (2, 3, 5))
def test_gs_param_verb_even_orthogonal(p):
    amb, gamma, y, x_alg, alg, c = even_fixture(p, random.Random(7100 + p))
    x = rand_invertible(amb.n, random.Random(7200 + p))
    cfg = GSConfiguration(amb, x, gs_section(amb, x, gamma))
    assert gs_param_verb(cfg, ClassParameter("tGL-even", alg, x_alg)) == (0, {"param_match": True})


def test_gs_param_verb_symplectic():
    cfg, param = symplectic_case(random.Random(7300))
    assert cfg.ambient.epsilon == -1
    assert gs_param_verb(cfg, param) == (0, {"param_match": True})


def test_gs_param_verb_odd_orthogonal():
    cfg, param = odd_orthogonal_case(random.Random(7400))
    assert cfg.ambient.n == 3 and param.kind == "tGL-odd"
    assert gs_param_verb(cfg, param) == (0, {"param_match": True})


def test_ellipticity_transfer_and_endoscopic_compatibility():
    for p in (2, 3, 5):
        amb, gamma, y, x_alg, alg, c = even_fixture(p, RNG)
        dparam = ClassParameter("tGL-even", alg, x_alg)
        gparam = ClassParameter("SO-even", alg, y, c=c)
        assert is_elliptic(dparam) == is_elliptic(gparam)
        # delta corresponds to gamma^-1 (same O(V,q)-stable class as gamma)
        inv_param = ClassParameter("SO-even", alg, tau(y), c=c)
        assert corresponds(dparam, inv_param)
        assert corresponds(dparam, gparam)


def test_random_config_deterministic():
    q = diag_form([1, 2, -1, 3], 5)
    amb = make_ambient(q, 1)
    c1 = random_config(amb, 42)
    c2 = random_config(amb, 42)
    assert c1.X == c2.X and c1.Y == c2.Y
    c3 = random_config(amb, 43)
    assert (c3.X, c3.Y) != (c1.X, c1.Y)


# ---------------------------------------------------------------------------
# the integer-row pipeline against the Fraction reference


def random_ambient(rng, n, eps, p=None):
    """make_ambient on a random nondegenerate rational Gram of size n:
    symmetric for eps = 1, alternating for eps = -1 (n even), over p or a
    random prime of 2, 3, 5, 7."""
    p = rng.choice((2, 3, 5, 7)) if p is None else p
    while True:
        g = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if eps == 1 else i + 1, n):
                v = F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4)))
                g[i][j], g[j][i] = v, eps * v
        if det(mat(g)) == 0:
            continue
        q = quad_form(g, p) if eps == 1 else alternating_form(g, p)
        try:
            return make_ambient(q, eps)
        except ValueError:
            continue  # the isotropic binary space is excluded


def rational_config(rng, amb):
    """A configuration with rational X and S, off the sampler's integer path:
    Y = -1/2 X Q^-1 X^T + S, S + eps S^T = 0, and sometimes one entry of Y
    moved so that the closure condition fails."""
    n, eps = amb.n, amb.epsilon
    x = mat([[F(rng.randint(-6, 6), rng.choice((1, 2, 5))) for _ in range(n)]
             for _ in range(n)])
    r = mat([[F(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(n)]
             for _ in range(n)])
    s = mat_sub(r, mat_scale(eps, transpose(r)))
    y = [list(row) for row in mat_add(
        mat_scale(F(-1, 2), mat_mul(x, mat_mul(amb.q_inverse, transpose(x)))), s)]
    if rng.random() < 0.3:
        y[rng.randrange(n)][rng.randrange(n)] += F(1, 7)
    return GSConfiguration(amb, x, mat(y))


class RecordingRandom(random.Random):
    """random.Random that keeps every instance made, to read its state."""

    made = []

    def __init__(self, seed):
        super().__init__(seed)
        RecordingRandom.made.append(self)


def check_against_reference(amb, cfg):
    """gs_norm, closed, rigidify and transfer_factor of cfg equal the
    Fraction reference (or both refuse)."""
    x, y = cfg.X, cfg.Y
    closed = reference_xy_condition(amb, x, y)
    assert cfg.closed == closed
    invertible = det(x) != 0 and det(y) != 0
    assert cfg.invertible == invertible
    if invertible:
        assert gs_norm(cfg) == reference_gs_norm(amb, x, y)
    if closed and invertible:
        assert rigidify(cfg) == (y, reference_phi(amb, x))
    else:
        with pytest.raises(ValueError):
            rigidify(cfg)
    if amb.epsilon == 1 and amb.n % 2 == 0:
        try:
            expected = reference_transfer_factor(amb.q_V, y, amb.n // 2)
        except ValueError:
            with pytest.raises(ValueError, match="singular symmetrization"):
                transfer_factor(amb.q_V, y, amb.n // 2)
        else:
            assert transfer_factor(amb.q_V, y, amb.n // 2) == expected


@pytest.mark.parametrize("n, eps", [(n, 1) for n in range(1, 7)]
                         + [(n, -1) for n in (2, 4, 6)])
def test_pipeline_equals_the_fraction_reference(n, eps, monkeypatch):
    rng = random.Random(4100 + 10 * n + eps)
    monkeypatch.setattr(gsnorm, "random", SimpleNamespace(Random=RecordingRandom))
    for _ in range(2):
        amb = random_ambient(rng, n, eps)
        for seed in range(2):
            # an isometry of an odd orthogonal space has eigenvalue 1 or -1
            for very_regular in (False,) if eps == 1 and n % 2 else (True, False):
                RecordingRandom.made.clear()
                ref_rng = random.Random(seed)
                expected = reference_fraction_random_config(amb, ref_rng, very_regular)
                if very_regular:
                    cfg = random_config(amb, seed)
                    # the same draws, so the seeded stream ends where it did
                    (used,) = RecordingRandom.made
                    assert used.getstate() == ref_rng.getstate()
                else:
                    cfg = reference_random_config(amb, seed, very_regular)
                assert (cfg.X, cfg.Y) == expected
                check_against_reference(amb, cfg)
        for _ in range(3):
            check_against_reference(amb, rational_config(rng, amb))


def reduce_mod(poly, ell):
    """A polynomial with ell-integral rational coefficients, reduced mod ell."""
    return [c.numerator * pow(c.denominator, -1, ell) % ell for c in poly]


def certifies(f, ell):
    """The certificate on residues: f squarefree mod ell, f(1), f(-1) nonzero."""
    return (poly_squarefree_mod(f, ell) and sum(f) % ell != 0
            and (sum(f[::2]) - sum(f[1::2])) % ell != 0)


@pytest.mark.parametrize("eps, n", [(1, 2), (1, 4), (1, 6), (-1, 2), (-1, 4)])
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_random_config_equals_the_norm_certificate_sampler(p, eps, n, monkeypatch):
    # the sampler decides a draw on Z = -eps Y_n^-1 Y_n^T mod ELL, similar to
    # the norm, and falls back to the exact -eps Y_n^T Y_n^-1 over Q; the
    # reference builds the norm and decides on it
    amb = random_ambient(random.Random(9100 + 10 * n + eps + p), n, eps, p)
    solved, decided = [], []
    solve, charpoly_of = gsnorm.int_solve_mod, gsnorm.charpoly

    def recorded_solve(a, b, ell):
        solved.append(solve(a, b, ell))
        return solved[-1]

    def recorded(m):
        decided.append(m)
        return charpoly_of(m)

    monkeypatch.setattr(gsnorm, "int_solve_mod", recorded_solve)
    monkeypatch.setattr(gsnorm, "charpoly", recorded)
    for seed in range(20):
        ref = reference_random_config(amb, seed)
        del solved[:], decided[:]  # the reference's rational fallbacks
        cfg = random_config(amb, seed)
        assert (cfg.X, cfg.Y) == (ref.X, ref.Y)
        assert to_mat(*cfg.x_scaled) == cfg.X and to_mat(*cfg.y_scaled) == cfg.Y
        norm_poly = charpoly(gs_norm(cfg))
        y, _ = cfg.y_scaled
        y_inv, pi = int_inverse(y)
        yt = [[-eps * v for v in col] for col in zip(*y)]
        assert charpoly(to_mat(int_mul(yt, y_inv), pi)) == norm_poly
        # the residues of the accepted draw: Z = Y_n^-1 (-eps Y_n^T) mod
        # ELL, with the norm's characteristic polynomial reduced mod ELL
        z, accepted_on_residues = solved[-1], False
        if pi % ELL:
            inv_pi = pow(pi, -1, ELL)
            assert z == [[v * inv_pi % ELL for v in row] for row in int_mul(y_inv, yt)]
            f = reduce_mod(norm_poly, ELL)
            assert linalg.int_charpoly_mod(z, 1, ELL) == f
            accepted_on_residues = certifies(f, ELL)
        else:
            assert z is None
        # the exact rows over their denominator decide the accepted draw
        # just when its residues could not accept it
        exact = bool(decided) and decided[-1] == to_mat(int_mul(yt, y_inv), pi)
        assert exact == (not accepted_on_residues)


def test_an_accepted_draw_eliminates_x_once_and_y_only_on_fallback(monkeypatch):
    amb = make_ambient(diag_form([1, -2, 3, 5], 3), 1)
    amb.q_inverse_scaled  # the ambient's own inverse, taken once
    calls, eliminate = [], linalg._eliminate

    def counted(rows, jordan):
        calls.append([list(row) for row in rows])
        return eliminate(rows, jordan)

    first_draws, fallbacks = {ELL: 0, 7: 0}, {ELL: 0, 7: 0}
    for ell in (ELL, 7):
        monkeypatch.setattr(gsnorm, "ELL", ell)
        for seed in range(20):
            monkeypatch.setattr(linalg, "_eliminate", counted)
            del calls[:]
            cfg = random_config(amb, seed)
            monkeypatch.setattr(linalg, "_eliminate", eliminate)
            x, y = cfg.x_scaled[0], cfg.y_scaled[0]
            # the residues fail to accept when ell divides det Y_n or the
            # norm's characteristic polynomial mod ell does not certify
            fallback = int_det(y) % ell == 0 or not certifies(
                reduce_mod(charpoly(gs_norm(cfg)), ell), ell)
            fallbacks[ell] += fallback
            # a draw eliminates its X over Z (n columns); its Y only on
            # the fallback, as the inverse [Y | I], and after it at most
            # the Sylvester matrix of the rational squarefree test
            ys = [c for c in calls if [row[:4] for row in c] == y]
            assert calls.count(x) == 1
            after = calls[calls.index(x) + 1:]
            if fallback:
                assert ys == [[row + [int(i == j) for j in range(4)]
                               for i, row in enumerate(y)]]
                assert after[0] == ys[0]
                assert all(len(c) == len(c[0]) == 7 for c in after[1:])
            else:
                assert ys == [] and after == []
            if sum(len(c[0]) == 4 for c in calls) == 1:
                first_draws[ell] += 1
                assert calls[0] == x  # nothing of an earlier draw
    assert first_draws[ELL] >= 10 and fallbacks[ELL] <= 2
    assert fallbacks[7] >= 5  # 7 of the 20 draws here


@pytest.mark.parametrize("ell", (3, 7))
@pytest.mark.parametrize("eps, n", [(1, 2), (1, 4), (-1, 2), (-1, 4)])
def test_residues_that_cannot_accept_fall_back_to_the_exact_sampler(eps, n, ell,
                                                                    monkeypatch):
    # at a small prime the residues often cannot accept; the draws still
    # equal the reference's, which decides every draw on the norm
    amb = random_ambient(random.Random(9300 + 10 * n + eps + ell), n, eps)
    inverses, int_inverse_of = [], gsnorm.int_inverse

    def recorded(rows):
        inverses.append(rows)
        return int_inverse_of(rows)

    monkeypatch.setattr(gsnorm, "ELL", ell)
    for seed in range(10):
        ref = reference_random_config(amb, seed)
        monkeypatch.setattr(gsnorm, "int_inverse", recorded)
        cfg = random_config(amb, seed)
        monkeypatch.setattr(gsnorm, "int_inverse", int_inverse_of)
        assert (cfg.X, cfg.Y) == (ref.X, ref.Y)
    assert inverses  # the exact path ran


def test_sampled_configurations_are_closed_on_every_corpus_large_cell():
    # the sampler presets the closure it builds; the closure formula,
    # recomputed on each sampled configuration, and the Fraction reference agree
    cells = {}
    for e in _corpus_entries(0, (2, 3, 5, 7), (6,), 8):
        key = (e["p"], e["n"], e["K"], e["c"])
        cell = cells.setdefault(key, constancy_cell(*key))
        cfg = random_config(cell.ambient, e["seed"])
        assert vars(cfg)["closed"] is True
        assert GSConfiguration.closed.func(cfg)
        assert GSConfiguration(cfg.ambient, cfg.X, cfg.Y).closed
        assert reference_xy_condition(cell.ambient, cfg.X, cfg.Y)
    assert {p for p, *_ in cells} == {2, 3, 5, 7}


@pytest.mark.parametrize("eps", (1, -1))
def test_xax_is_the_dense_product(eps):
    # half of X A X^T over A's nonzeros, mirrored with the sign eps, on
    # dense random ambients and on the sparse Q^-1 of quasisplit cells
    rng = random.Random(9500 + eps)
    sizes = (2, 4, 6) if eps == -1 else (1, 2, 3, 4)
    ambients = [random_ambient(rng, rng.choice(sizes), eps) for _ in range(12)]
    if eps == 1:
        ambients += [constancy_cell(p, n, k, 1).ambient
                     for p, n, k in ((2, 6, 3), (3, 6, 1), (5, 3, 2), (7, 1, 3))]
    for amb in ambients:
        a_rows, _ = amb.q_inverse_scaled
        n = amb.n
        for _ in range(5):
            x = [[rng.randint(-9, 9) if rng.random() < 0.8 else 0 for _ in range(n)]
                 for _ in range(n)]
            assert gsnorm._xax(a_rows, x, eps) == int_mul(x, int_mul(a_rows, transpose(x)))


def test_one_call_draw_consumes_the_stream_of_randint():
    # _draw rests on how CPython's randint consumes 32-bit words: a change
    # there must fail here rather than silently change the sampled corpus
    for seed in range(1000):
        for n in (1, 2, 4, 12):
            drawn, expected = random.Random(seed), random.Random(seed)
            for lo, hi in ((-9, 9), (-4, 4)):
                assert gsnorm._draw(drawn, n, lo, hi) == \
                    [[expected.randint(lo, hi) for _ in range(n)] for _ in range(n)]
                assert drawn.getstate() == expected.getstate()
