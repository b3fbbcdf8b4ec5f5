"""Endoscopic data, eta invariants, transfer factors, the constancy identity."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from helpers import (count_eliminations, gs_norm_mat, mat_add, mat_scale,
                     random_algebra, random_fixed_invertible,
                     reference_diagonalize, reference_is_very_regular,
                     reference_quasisplit_space, reference_random_config,
                     reference_rhs)
from twistedgl.cli import _corpus_entries, _run_entries, form_doc
from twistedgl.endoscopy import (ConstancyCell, EndoscopicDatum, constancy_cell,
                                 constancy_record, enumerate_elliptic_data,
                                 eta_so_value, eta_sp_value, gs_constancy_check,
                                 is_quasisplit_even, quasisplit_space,
                                 transfer_factor, transfer_factor_whittaker)
from twistedgl.etale import trace_form_quadratic
from twistedgl.gsnorm import (GSConfiguration, gs_norm, gs_section, make_ambient,
                              random_config, rigidify)
from twistedgl.linalg import clear_denominators, det, identity, mat, mat_mul, transpose
from twistedgl.localfield import QP, hilbert_qp, square_class, square_class_table
from twistedgl.oracles import (_rank_one_value, eta_so_reference, eta_sp_reference,
                               regular_nilpotent_so, regular_nilpotent_sp,
                               split_odd_space, theta_space)
from twistedgl.qform import (_eliminate_symmetric, diag_form, diagonal, equivalent,
                             hyperbolic, invariants, norm_form, quad_form, scale,
                             witt_decompose)
from twistedgl.weil import Mu8, epsilon_half, weil_index

RNG = random.Random(11)


def test_datum_constraints():
    p3 = square_class(1, 3)
    EndoscopicDatum(0, 4, p3)
    with pytest.raises(ValueError):
        EndoscopicDatum(2, 2, p3)  # chi must be nontrivial when n_O = 2
    with pytest.raises(ValueError):
        EndoscopicDatum(0, 2, square_class(3, 3))
    with pytest.raises(ValueError):
        EndoscopicDatum(1, 3, p3)


def test_enumeration_counts():
    assert len(enumerate_elliptic_data(1, 3)) == 4
    data = enumerate_elliptic_data(2, 3)
    assert len(data) == 8
    by_no = {}
    for d in data:
        by_no.setdefault(d.n_O, []).append(d)
    assert len(by_no[0]) == 1 and len(by_no[2]) == 3 and len(by_no[4]) == 4
    assert len(enumerate_elliptic_data(1, 2)) == 8
    for n, p in ((1, 3), (2, 3), (1, 2), (3, 5)):
        data = enumerate_elliptic_data(n, p)
        assert len(set(data)) == len(data)
        for d in data:
            assert d.n_O + d.n_S == 2 * n


def test_quasisplit_space():
    for p in (2, 3, 5):
        for kcls in square_class_table(p):
            for c in square_class_table(p):
                for n_o in (2, 4, 6):
                    q = quasisplit_space(n_o, kcls, c, p)
                    assert q.dim == n_o
                    assert invariants(q).dpm == kcls
                    assert is_quasisplit_even(q)
                if kcls.is_trivial():
                    _, kernel = witt_decompose(quasisplit_space(4, kcls, c, p))
                    assert kernel.aniso_dim == 0


# (n_O, K, c, p) over every class K and c: 1,008 spaces
QUASISPLIT_SWEEP = [(n_o, k, c, p) for p in (2, 3, 5, 7, 11, 13)
                    for k in square_class_table(p) for c in square_class_table(p)
                    for n_o in range(4, 17, 2)]


def test_quasisplit_space_holds_the_diagonal_of_its_elimination():
    for args in QUASISPLIT_SWEEP:
        q, ref = quasisplit_space(*args), reference_quasisplit_space(*args)
        # the same form, Gram and document as the checked sum of its blocks
        assert q == ref and (q.rows, q.den) == (ref.rows, ref.den)
        assert (q.gram, q.label, form_doc(q)) == (ref.gram, ref.label, form_doc(ref))
        # the rhs read off the held diagonal is the Weil index of the scaled form
        n = args[0] // 2
        assert ConstancyCell(q, n).rhs == reference_rhs(q, n)
        # and the diagonal of the kernel and of the Fraction reference
        rows, d = clear_denominators(q.gram)
        assert diagonal(q) == _eliminate_symmetric(rows, d, transform=False)[0]
        assert diagonal(q) == reference_diagonalize(q.gram)[0]


def test_quasisplit_space_eliminates_nothing(monkeypatch):
    grams, dets = count_eliminations(monkeypatch)
    for args in QUASISPLIT_SWEEP:
        quasisplit_space(*args)
    assert grams == [] and dets == []


def test_quasisplit_space_c_changes_hasse_only():
    p = 3
    kcls = square_class(3, 3)
    q1 = quasisplit_space(4, kcls, square_class(1, p), p)
    nonnorm = next(x for x in square_class_table(p)
                   if hilbert_qp(kcls.representative, x.representative, p) == -1)
    q2 = quasisplit_space(4, kcls, nonnorm, p)
    i1, i2 = invariants(q1), invariants(q2)
    assert i1.dpm == i2.dpm and i1.hasse != i2.hasse


def test_theta_space():
    for n in (1, 2, 3):
        th = theta_space(n)
        assert len(th.theta_gram) == 2 * n
        assert transpose(th.theta_gram) == mat_scale(-1, th.theta_gram)
        assert det(th.theta_gram) != 0


def test_regular_nilpotent_sp_base_case():
    nil = regular_nilpotent_sp(1)
    # basis (e_1, e_-1): N e_1 = 0, N e_-1 = e_1
    assert nil == ((F(0), F(1)), (F(0), F(0)))


def test_regular_nilpotent_sp_top_power():
    for n in (1, 2, 3, 4):
        nil = regular_nilpotent_sp(n)
        power = identity(2 * n)
        for _ in range(2 * n - 1):
            power = mat_mul(power, nil)
        # N^(2n-1) sends e_-1 (last basis vector) to e_1 (first), kills others
        cols = list(zip(*power))
        assert cols[-1][0] == 1
        assert all(v == 0 for v in cols[-1][1:])
        for col in cols[:-1]:
            assert all(v == 0 for v in col)
        assert mat_mul(power, nil) == tuple(tuple(F(0) for _ in range(2 * n))
                                            for _ in range(2 * n))


def test_eta_sp_is_one():
    for n in range(1, 7):
        assert eta_sp_value(n) == eta_sp_reference(n) == 1
        for p in (2, 3, 5):
            assert square_class(eta_sp_value(n), p).is_trivial()


def test_eta_closed_forms_keep_their_errors():
    for n in (0, -1):
        with pytest.raises(ValueError):
            eta_sp_value(n)
        with pytest.raises(ValueError):
            eta_so_value(hyperbolic(1, 3), 1, n)
    with pytest.raises(ValueError):
        eta_so_value(diag_form([1, 1, 1], 3), 1, 2)  # not binary


def test_eta_sp_scaling_invariance():
    nil = regular_nilpotent_sp(2)
    theta = theta_space(2).theta_gram
    power = identity(4)
    for _ in range(3):
        power = mat_mul(power, nil)
    scaled = tuple(tuple(4 * v for v in row) for row in mat_mul(theta, power))
    assert square_class(_rank_one_value(scaled), QP(3).p).is_trivial()


def test_regular_nilpotent_so_powers():
    for m in (1, 2, 3):
        for y in (1, 2, -3):
            q = split_odd_space(m, y, 5)
            nil = regular_nilpotent_so(q)
            power = identity(2 * m + 1)
            for _ in range(2 * m):
                power = mat_mul(power, nil)
            # N^(2m) e_1 = (-1)^m y e_-1; e_-1 sits at index m
            col0 = [power[r][0] for r in range(2 * m + 1)]
            assert col0[m] == F((-1) ** m * y)
            assert all(v == 0 for i, v in enumerate(col0) if i != m)
            assert mat_mul(power, nil) == tuple(tuple(F(0) for _ in row) for row in power)


def test_eta_so_example_and_closed_form():
    # n = 2, y = 1, split binary part: eta = -1
    vp = hyperbolic(1, 3)
    assert square_class(eta_so_value(vp, 1, 2), 3) == square_class(-1, 3)
    assert eta_so_value(vp, 1, 2) == -1
    for p in (2, 3, 5):
        reps = [c.representative for c in square_class_table(p)]
        # the value is exact, so also try values that are not canonical
        for n in range(1, 7):
            for y in reps + [F(r, p * p) for r in reps]:
                vprime = diag_form([y, 1], p)
                value = eta_so_value(vprime, y, n)
                assert value == (-1) ** (n - 1) * F(y) == eta_so_reference(y, n, p)


def test_eta_so_requires_represented_value():
    vp = diag_form([1, -3], 3)  # anisotropic: does not represent 3
    with pytest.raises(ValueError):
        eta_so_value(vp, 3, 2)


def test_eta_so_n1_is_represented_class():
    vp = diag_form([2, 5], 7)
    assert square_class(eta_so_value(vp, 2, 1), 7) == square_class(2, 7)


# ---------------------------------------------------------------------------
# transfer factors


def pipeline_fixture(p, n, kcls, c, seed):
    q_v = quasisplit_space(2 * n, kcls, c, p)
    amb = make_ambient(q_v, 1)
    return amb, random_config(amb, seed)


def test_transfer_factor_pipeline_and_invariance():
    p, n = 3, 2
    kcls = square_class(3, p)
    amb, cfg = pipeline_fixture(p, n, kcls, square_class(1, p), 5)
    delta, _ = rigidify(cfg)
    value = transfer_factor(amb.q_V, delta, n)
    assert value in (1, -1)
    # q_delta is equivalent to -1/2 q by the rigidify identity
    half = F(-1, 2)
    from twistedgl.qform import equivalent, quad_form
    sym = mat_scale(F(1, 2), mat_add(delta, transpose(delta)))
    assert equivalent(quad_form(sym, p), scale(half, amb.q_V))
    # invariance under the twisted conjugation orbit of delta
    for _ in range(10):
        while True:
            g = mat([[RNG.randint(-4, 4) for _ in range(2 * n)] for _ in range(2 * n)])
            if det(g) != 0:
                break
        moved = mat_mul(transpose(g), mat_mul(delta, g))
        assert transfer_factor(amb.q_V, moved, n) == value


def test_transfer_factor_eliminates_q_delta_once(monkeypatch):
    for p, n, k in ((3, 2, 3), (5, 1, 2), (2, 3, 5)):
        amb, cfg = pipeline_fixture(p, n, square_class(k, p), square_class(1, p), 7)
        delta, _ = rigidify(cfg)
        invariants(amb.q_V)
        grams, dets = count_eliminations(monkeypatch)
        value = transfer_factor(amb.q_V, delta, n)
        sym = mat_scale(F(1, 2), mat_add(delta, transpose(delta)))
        assert value in (1, -1) and grams.count(sym) == 1 and dets == []
        monkeypatch.undo()


def test_transfer_factor_split_trivial_case():
    p, n = 5, 2
    kcls = square_class(1, p)
    q_v = quasisplit_space(2 * n, kcls, square_class(1, p), p)
    amb = make_ambient(q_v, 1)
    cfg = random_config(amb, 1)
    delta, _ = rigidify(cfg)
    # K split and n even: q_delta ~ -1/2 q is Witt-trivial, target is too
    assert transfer_factor(amb.q_V, delta, n) == 1


def test_transfer_factor_refuses_a_singular_symmetrization():
    q_v = quasisplit_space(2, square_class(3, 3), square_class(1, 3), 3)
    for delta in ([[0, 1], [-1, 0]], [[1, 3], [-1, 1]]):  # det(sym) = 0
        with pytest.raises(ValueError, match="singular symmetrization"):
            transfer_factor(q_v, mat(delta), 1)


def test_transfer_factor_whittaker_values():
    p, n = 3, 1
    for kcls in square_class_table(p):
        if kcls.is_trivial():
            continue
        amb, cfg = pipeline_fixture(p, n, kcls, square_class(1, p), 2)
        delta, _ = rigidify(cfg)
        lam = transfer_factor_whittaker(amb.q_V, delta, n)
        plain = transfer_factor(amb.q_V, delta, n)
        assert lam == epsilon_half(kcls, p).inverse() * Mu8.from_sign(plain)
        assert (lam ** 8) == Mu8(0)
    # split K: the epsilon factor is trivial
    amb, cfg = pipeline_fixture(5, 2, square_class(1, 5), square_class(1, 5), 3)
    delta, _ = rigidify(cfg)
    assert transfer_factor_whittaker(amb.q_V, delta, 2) == \
        Mu8.from_sign(transfer_factor(amb.q_V, delta, 2))


def test_gs_constancy_moderate_sweep():
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            for kcls in square_class_table(p):
                if kcls.is_trivial() and n == 1:
                    continue
                amb, cfg = pipeline_fixture(p, n, kcls, square_class(1, p), 9)
                assert gs_constancy_check(cfg, n), (p, n, kcls)


def test_constancy_record_sides():
    for p, n, k, seed in ((3, 2, 3, 6), (2, 1, 5, 1), (5, 3, 2, 2)):
        amb, cfg = pipeline_fixture(p, n, square_class(k, p), square_class(1, p), seed)
        rec = constancy_record(ConstancyCell(amb.q_V, n), cfg)
        delta, _ = rigidify(cfg)
        assert rec.lhs == transfer_factor_whittaker(amb.q_V, delta, n)
        assert rec.rhs == weil_index(scale(2 * (-1) ** n, amb.q_V))
        assert rec.passed and gs_constancy_check(cfg, n)
    with pytest.raises(FrozenInstanceError):
        rec.lhs = rec.rhs


def test_constancy_cell_keeps_the_sides_of_its_space():
    for p, n, k, c in ((3, 2, 3, 2), (2, 1, 5, 1), (5, 3, 1, 1), (7, 2, 7, 3)):
        cell = constancy_cell(p, n, k, c)
        q_v = quasisplit_space(2 * n, square_class(k, p), square_class(c, p), p)
        assert cell.space == q_v and cell.ambient == make_ambient(q_v, 1)
        assert cell.rhs == weil_index(scale(2 * (-1) ** n, q_v))
        assert cell.epsilon_inverse == epsilon_half(square_class(k, p), p).inverse()
        target = scale((-1) ** n, norm_form(square_class(k, p), p))
        assert cell.target == witt_decompose(target)[1]
        for seed in range(3):
            cfg = random_config(cell.ambient, seed)
            delta = rigidify(cfg)[0]
            rec = constancy_record(cell, cfg)
            assert rec.lhs == transfer_factor_whittaker(q_v, delta, n) == cell.lhs(delta)
            assert rec.rhs == cell.rhs and rec.passed


def test_corpus_cells_share_what_a_fresh_cell_computes():
    cells = {}
    _run_entries(_corpus_entries(2, [2, 3, 5, 7], [1, 2, 3, 4], 4), cells)
    run_cells = [v[0] for key, v in cells.items() if len(key) == 4]
    for cell in run_cells:
        fresh = ConstancyCell(cell.space, cell.n)
        assert cell.target == fresh.target
        assert cell.epsilon_inverse == fresh.epsilon_inverse
        assert cell.rhs == fresh.rhs
    # one target per (p, n mod 2, K), held by every cell over it
    firsts = [cell for key, cell in cells.items() if len(key) == 3]
    assert len(firsts) < len(run_cells)
    assert len({id(cell.target) for cell in run_cells}) == len(firsts)


def test_constancy_record_refuses_a_configuration_on_another_space():
    cell = constancy_cell(3, 2, 3, 1)
    other = constancy_cell(3, 2, 3, 2)
    cfg = random_config(other.ambient, 1)
    with pytest.raises(ValueError, match="another space"):
        constancy_record(cell, cfg)
    for n, space in ((0, diag_form([], 3)), (2, quad_form([[1, 0], [0, 1]], 3))):
        with pytest.raises(ValueError):
            ConstancyCell(space, n)


def test_constancy_record_takes_its_space_under_another_label():
    cell = constancy_cell(3, 2, 3, 2)
    renamed = quad_form(cell.space.gram, 3, "a library caller's name")
    assert renamed.label != cell.space.label
    assert constancy_record(cell, random_config(make_ambient(renamed, 1), 1)).passed


def one_record_per_cell(primes, ns):
    """The first corpus entry of every (p, n, K, c) cell of the plan."""
    cells = {}
    for e in _corpus_entries(5, primes, ns, 16):
        cells.setdefault((e["p"], e["n"], e["K"], e["c"]), e)
    return cells


def test_constancy_and_the_lhs_lemma_on_every_cell():
    # p = 17 stands for p = 1 mod 8, which the default corpus plan lacks
    cells = one_record_per_cell((2, 3, 5, 7, 17), (1, 2, 3))
    assert len(cells) == 124
    for (p, n, k, c), entry in cells.items():
        cell = constancy_cell(p, n, k, c)
        q_v = cell.space
        cfg = random_config(cell.ambient, entry["seed"])
        assert constancy_record(cell, cfg).passed, (p, n, k, c)
        # the lhs lemma: q_delta = 1/2 (delta + delta^T) is -2 q_V, up to squares
        delta, _ = rigidify(cfg)
        sym = mat_scale(F(1, 2), mat_add(delta, transpose(delta)))
        assert equivalent(quad_form(sym, p), scale(-2, q_v)), (p, n, k, c)


def test_gs_constancy_check_rejects_a_norm_that_is_not_very_regular():
    amb = make_ambient(quasisplit_space(4, square_class(3, 3), square_class(1, 3), 3), 1)
    for seed in range(40):
        cfg = reference_random_config(amb, seed, require_very_regular=False)
        if not reference_is_very_regular(gs_norm_mat(cfg)):
            break
    else:
        pytest.fail("every sampled norm was very regular")
    with pytest.raises(ValueError, match="very regular"):
        gs_constancy_check(cfg, 2)


def test_gs_constancy_independent_of_x():
    p, n = 3, 2
    amb, cfg = pipeline_fixture(p, n, square_class(3, p), square_class(1, p), 4)
    gamma = gs_norm(cfg)
    for _ in range(6):
        while True:
            x = mat([[RNG.randint(-6, 6) for _ in range(2 * n)] for _ in range(2 * n)])
            if det(x) != 0:
                break
        y = gs_section(amb, clear_denominators(x), gamma)
        cfg2 = GSConfiguration.from_rows(amb, clear_denominators(x), y)
        assert gs_constancy_check(cfg2, n)


def test_gs_constancy_flips_under_witt_corruption():
    p, n = 3, 2
    amb, cfg = pipeline_fixture(p, n, square_class(3, p), square_class(1, p), 6)
    delta, _ = rigidify(cfg)
    lhs = transfer_factor_whittaker(amb.q_V, delta, n)
    rhs = weil_index(scale(2 * (-1) ** n, amb.q_V))
    assert lhs == rhs
    # corrupt the Witt comparison with the wrong sign of the norm form target
    kclass = invariants(amb.q_V).dpm
    from twistedgl.qform import quad_form
    sym = mat_scale(F(1, 2), mat_add(delta, transpose(delta)))
    wrong_target = scale((-1) ** (n + 1), norm_form(kclass, p))
    corrupted = 1 if witt_decompose(quad_form(sym, p))[1] == witt_decompose(wrong_target)[1] else -1
    wrong_lhs = epsilon_half(kclass, p).inverse() * Mu8.from_sign(corrupted)
    assert wrong_lhs != rhs


def test_gs_constancy_rejects_nonquasisplit():
    # the quaternion norm form <1, -u, -p, up> is the 4-dim anisotropic space
    q = diag_form([1, -3, -7, 21], 7)
    assert witt_decompose(q)[1].aniso_dim == 4
    assert not is_quasisplit_even(q)
    cfgq = make_ambient(q, 1)
    cfg = random_config(cfgq, 0)
    with pytest.raises(ValueError):
        gs_constancy_check(cfg, 2)


def test_separation_check():
    for p in (2, 3, 5):
        for _ in range(12):
            alg = random_algebra(p, RNG, allow_split=False)
            c1 = random_fixed_invertible(alg, RNG)
            c2 = random_fixed_invertible(alg, RNG)
            # twists over one algebra give trace forms of one dim and det
            # class: equivalent spaces or Hasse twins
            i1 = invariants(trace_form_quadratic(alg, c1))
            i2 = invariants(trace_form_quadratic(alg, c2))
            assert i1.det == i2.det and i1.dim == i2.dim
