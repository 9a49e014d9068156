import json
import operator
import pathlib
from fractions import Fraction
from functools import partial, reduce

import pytest

import genform.connection as conn
from genform import cli
from genform.connection import (
    GenConnection,
    bianchi_residual,
    case_i_curvature_formula,
    case_ii_curvature_formula,
    cov_deriv_vf,
    cov_deriv_vf_along,
    cov_d_tensor_ordinary,
    cov_deriv_vf_expansion,
    cov_ext_d_tensor,
    curvature,
    curvature_expansion,
    levi_civita_connection,
    metric_connection_eps,
    metric_connection_eps0,
    metric_inverse,
    metric_validate,
    nonmetricity,
    nonmetricity_expansion,
    ordinary_curvature,
    torsion,
    transform_connection,
)
from genform.exterior import OrdinaryForm, VectorField, ext_d, wedge_dot
from genform.gform import GenForm, gd, gwedge, gwedge_dot
from genform.gvector import GenVectorField
from genform.randgen import FormRandom
from genform.ring import ConstructionError, InputError, Polynomial

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
EPSILONS = [Fraction(0), Fraction(1), Fraction(-1, 2)]


def elementary_alpha(n, up, down, form):
    rows = [[OrdinaryForm.zero(n, 1)] * n for _ in range(n)]
    rows[up - 1][down - 1] = form
    return tuple(map(tuple, rows))


def flat_parts(A: GenConnection) -> tuple[bool, bool]:
    """Whether the body F_cal + eps beta and the soul D beta of the curvature
    expansion vanish."""
    F = [x for row in curvature_expansion(A) for x in row]
    return all(x.body.is_zero() for x in F), all(x.soul.is_zero() for x in F)


def zero_connection(n: int, eps: Fraction) -> GenConnection:
    """The connection whose every entry is the zero 1-form."""
    return GenConnection.build([[GenForm.zero(n, eps, 1)] * n for _ in range(n)], eps)


def test_zero_connection_is_flat():
    A = zero_connection(2, Fraction(1))
    assert conn.mat_is_zero(curvature(A))
    assert flat_parts(A) == (True, True)


def test_constant_pure_soul_connection():
    # A = beta m with constant beta: F = eps beta (body), soul zero
    n = 2
    eps = Fraction(3)
    beta = tuple(tuple(OrdinaryForm(n, 2, {(1, 2): Polynomial.const(n, i + j + 1)})
                       for j in range(n)) for i in range(n))
    alpha = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    A = GenConnection.from_parts(alpha, beta, eps)
    F = curvature(A)
    for i in range(n):
        for j in range(n):
            assert F[i][j].body == beta[i][j].scale(eps)
            assert F[i][j].soul.is_zero()


def test_curvature_dual_path_random():
    for eps in EPSILONS:
        rnd = FormRandom(1, 2, eps)
        for _ in range(10):
            A = rnd.connection()
            assert conn.mat_is_zero(conn.mat_map(operator.sub, curvature(A),
                                                 curvature_expansion(A)))


@pytest.mark.parametrize("dim", [2, 3])
def test_bianchi_identity(dim):
    for eps in EPSILONS:
        rnd = FormRandom(2 + dim, dim, eps)
        for _ in range(6):
            A = rnd.connection()
            assert conn.mat_is_zero(bianchi_residual(A, curvature_expansion(A)))
    # pure-soul connection
    rnd = FormRandom(50, dim, Fraction(1))
    beta = tuple(tuple(rnd.form(2) for _ in range(dim)) for _ in range(dim))
    alpha = tuple(tuple(OrdinaryForm.zero(dim, 1) for _ in range(dim)) for _ in range(dim))
    A = GenConnection.from_parts(alpha, beta, Fraction(1))
    assert conn.mat_is_zero(bianchi_residual(A, curvature_expansion(A)))


def flipped_fs_alpha(A, P):
    """bianchi_residual(A, P) with the sign of its F_s alpha term flipped."""
    got = bianchi_residual(A, P)
    bodies = tuple(tuple(e.body for e in row) for row in got)
    twice = conn._scale_matrix(conn.mat_mul(souls(P), conn._split(A.entries)[0], wedge_dot), 2)
    return conn.mat_map(partial(GenForm, A.dim, A.epsilon, 3), bodies,
                        conn.mat_map(operator.sub, souls(got), twice))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bianchi_component_path_equals_the_gform_path(dim):
    """The body/soul expansion of dF + AF - FA against the matrix path
    ``cov_ext_d_tensor`` on random degree-2 matrices, where neither is zero,
    and on the curvature, where both are.  The degree-4 soul terms such as
    F_s alpha live at dim 4 only, where a flipped sign must show."""
    for eps in EPSILONS:
        rnd = FormRandom(60 + dim, dim, eps)
        A = rnd.connection()
        P = tuple(tuple(rnd.genform(2) for _ in range(dim)) for _ in range(dim))
        want = cov_ext_d_tensor(A, P)
        assert bianchi_residual(A, P) == want
        assert (flipped_fs_alpha(A, P) == want) is (dim < 4)
        assert conn.mat_is_zero(bianchi_residual(A, curvature_expansion(A)))
        assert conn.mat_is_zero(cov_ext_d_tensor(A, curvature(A)))


def test_bianchi_via_cov_ext_d():
    rnd = FormRandom(3, 2, Fraction(1))
    A = rnd.connection()
    F = curvature(A)
    assert conn.mat_is_zero(cov_ext_d_tensor(A, F))


def test_cov_ext_d_degree_zero_sign():
    # p = 0: DP = dP + AP - PA
    n = 2
    rnd = FormRandom(4, n, Fraction(1))
    A = rnd.connection()
    P = tuple(tuple(GenForm(n, Fraction(1), 0, OrdinaryForm.from_scalar(rnd.poly()),
                            rnd.form(1)) for _ in range(n)) for _ in range(n))
    got = cov_ext_d_tensor(A, P)
    want = conn.mat_map(operator.add, conn.mat_map(gd, P),
                        conn.mat_map(operator.sub, conn.mat_mul(A.entries, P, gwedge_dot),
                                     conn.mat_mul(P, A.entries, gwedge_dot)))
    assert conn.mat_is_zero(conn.mat_map(operator.sub, got, want))


def test_cov_ext_d_rejects_mixed_degrees():
    n = 2
    rnd = FormRandom(5, n, Fraction(1))
    A = rnd.connection()
    P = [[GenForm.one(n, Fraction(1)), GenForm.from_ordinary(OrdinaryForm.basis(n, (1,)), Fraction(1))],
         [GenForm.one(n, Fraction(1)), GenForm.one(n, Fraction(1))]]
    with pytest.raises(ConstructionError):
        cov_ext_d_tensor(A, tuple(map(tuple, P)))


def test_identity_transform_is_noop():
    n = 2
    rnd = FormRandom(6, n, Fraction(1))
    A = rnd.connection()
    eye = tuple(tuple(Polynomial.one(n) if i == j else Polynomial.zero(n)
                      for j in range(n)) for i in range(n))
    A2 = transform_connection(A, eye, eye)
    assert conn.mat_is_zero(conn.mat_map(operator.sub, A2.entries, A.entries))


def test_flat_transform_of_zero_connection():
    # A = 0, unipotent G: A' = G^-1 dG has zero curvature
    n = 2
    x1 = Polynomial.var(n, 1)
    one, zero = Polynomial.one(n), Polynomial.zero(n)
    G = ((one, x1), (zero, one))
    G_inv = ((one, -x1), (zero, one))
    A = zero_connection(n, Fraction(1))
    A2 = transform_connection(A, G, G_inv)
    assert not conn.mat_is_zero(A2.entries)
    assert conn.mat_is_zero(curvature(A2))


@pytest.mark.parametrize("wrong", ["G itself", "one entry"])
def test_transform_rejects_bad_inverse(wrong):
    n = 2
    x1 = Polynomial.var(n, 1)
    one, zero = Polynomial.one(n), Polynomial.zero(n)
    G = ((one, x1), (zero, one))
    # the exact inverse is ((one, -x1), (zero, one))
    G_inv = G if wrong == "G itself" else ((one, -x1), (zero, one + x1))
    with pytest.raises(ConstructionError):
        transform_connection(zero_connection(n, Fraction(0)), G, G_inv)


def test_curvature_conjugation_random():
    for eps in (Fraction(0), Fraction(2)):
        rnd = FormRandom(7, 2, eps)
        for _ in range(6):
            A = rnd.connection()
            G, G_inv = rnd.unipotent()
            A2 = transform_connection(A, G, G_inv)
            assert conn.mat_is_zero(conn.mat_map(
                operator.sub, curvature(A2), conn.conjugate_matrix(curvature(A), G, G_inv)))


def test_cov_deriv_examples():
    n = 2
    eps = Fraction(1)
    # A = 0, constant ordinary V: gradient vanishes
    A = zero_connection(n, eps)
    V = GenVectorField.ordinary(VectorField([Polynomial.const(n, 2),
                                             Polynomial.const(n, 3)]), eps)
    assert all(c.is_zero() for c in cov_deriv_vf(A, V))
    # A = 0, pure V with v^1_2 = 1: Dv^1 = -dx2 (body), zero soul
    rows = [[Polynomial.zero(n)] * n for _ in range(n)]
    rows[0][1] = Polynomial.one(n)
    Vp = GenVectorField.pure(rows, eps)
    dv = cov_deriv_vf(A, Vp)
    assert dv[0].body == -OrdinaryForm.basis(n, (2,))
    assert dv[0].soul.is_zero()
    assert dv[1].is_zero()


def test_cov_deriv_dual_path_random():
    for eps in EPSILONS:
        rnd = FormRandom(8, 2, eps)
        for _ in range(8):
            A = rnd.connection()
            V = rnd.gen_vector_field()
            direct = cov_deriv_vf(A, V)
            expanded = cov_deriv_vf_expansion(A, V)
            assert all((d - e).is_zero() for d, e in zip(direct, expanded))


def test_cov_deriv_along_contracts():
    n = 2
    eps = Fraction(1)
    rnd = FormRandom(9, n, eps)
    A = rnd.connection()
    V, W = rnd.gen_vector_field(), rnd.gen_vector_field()
    got = cov_deriv_vf_along(A, W, V)
    comps = cov_deriv_vf(A, V)
    from genform.gvector import gv_interior

    for m in range(n):
        contracted = gv_interior(W, comps[m])
        assert contracted.body.components.get((), Polynomial.zero(n)) == got.v.component(m + 1)


def test_flatness_certificate():
    n = 2
    eps = Fraction(0)
    # constant beta, alpha = 0, eps = 0: flat
    beta = tuple(tuple(OrdinaryForm(n, 2, {(1, 2): Polynomial.const(n, 1)})
                       for _ in range(n)) for _ in range(n))
    alpha0 = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    A = GenConnection.from_parts(alpha0, beta, eps)
    assert flat_parts(A) == (True, True)
    # alpha = x1 dx2 E11: curvature body nonzero
    a_form = OrdinaryForm.basis(n, (2,), Polynomial.var(n, 1))
    A2 = GenConnection.from_parts(elementary_alpha(n, 1, 1, a_form), alpha0, eps)
    assert flat_parts(A2) == (False, True)


def test_metric_inverse_examples():
    n = 2
    one, zero = Polynomial.one(n), Polynomial.zero(n)
    # gamma = identity, chi = 0
    chi0 = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    eye = ((one, zero), (zero, one))
    g = metric_validate(eye, chi0, eye, Fraction(1))
    inv = metric_inverse(g)
    for i in range(n):
        for j in range(n):
            want = GenForm.one(n, Fraction(1)) if i == j else GenForm.zero(n, Fraction(1))
            assert inv[i][j] == want
    # gamma = diag(1, 2) -> inverse diag(1, 1/2)
    g2 = metric_validate(((one, zero), (zero, one * 2)), chi0,
                         ((one, zero), (zero, one * Fraction(1, 2))), Fraction(1))
    inv2 = metric_inverse(g2)
    assert inv2[1][1].body == OrdinaryForm.constant(n, Fraction(1, 2))
    # gamma = identity with chi12 = chi21 = dx1: product is exactly delta
    dx1 = OrdinaryForm.basis(n, (1,))
    chi = ((OrdinaryForm.zero(n, 1), dx1), (dx1, OrdinaryForm.zero(n, 1)))
    g3 = metric_validate(eye, chi, eye, Fraction(1))
    inv3 = metric_inverse(g3)
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                term = gwedge(inv3[i][k], g3.entries[k][j])
                acc = term if acc is None else acc + term
            want = GenForm.one(n, Fraction(1)) if i == j else GenForm.zero(n, Fraction(1))
            assert acc == want


def test_metric_validate_rejects_asymmetry_and_bad_inverse():
    n = 2
    one, zero = Polynomial.one(n), Polynomial.zero(n)
    chi0 = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    with pytest.raises(InputError):
        metric_validate(((one, one), (zero, one)), chi0,
                        ((one, zero), (zero, one)), Fraction(0))
    with pytest.raises(InputError):
        metric_validate(((one, zero), (zero, one * 2)), chi0,
                        ((one, zero), (zero, one)), Fraction(0))


_ONE, _ZERO, _ZERO_FORM = Polynomial.one(2), Polynomial.zero(2), OrdinaryForm.zero(2, 1)
_EYE = ((_ONE, _ZERO), (_ZERO, _ONE))
_ZEROS, _DX1 = ((_ZERO_FORM,) * 2,) * 2, OrdinaryForm.basis(2, (1,))
_EYE_OF_DIM_3 = ((Polynomial.one(3), Polynomial.zero(3)), (Polynomial.zero(3), Polynomial.one(3)))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: metric_validate(_EYE, ((_ZERO_FORM,),), _EYE, 0),
                 "chi must be 2 x 2", id="chi 1x1"),
    pytest.param(lambda: metric_validate(_EYE, ((_ZERO_FORM,) * 3,) * 2, _EYE, 0),
                 "chi must be 2 x 2", id="chi 2x3"),
    pytest.param(lambda: metric_validate(_EYE, ((_ZERO_FORM,) * 2, (_ZERO_FORM,)), _EYE, 0),
                 "chi must be 2 x 2", id="chi ragged"),
    # its 2 x 2 block is symmetric, so only the shape is wrong
    pytest.param(lambda: metric_validate(((_ONE, _ZERO, _ONE), (_ZERO, _ONE, _ZERO)),
                                         ((_ZERO_FORM,) * 2,) * 2, _EYE, 0),
                 "gamma must be 2 x 2", id="gamma 2x3"),
    pytest.param(lambda: metric_validate(_EYE, ((_ZERO_FORM,) * 2,) * 2,
                                         ((_ONE, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO)), 0),
                 "gamma_inv must be 2 x 2", id="gamma_inv 2x3"),
    pytest.param(lambda: metric_connection_eps(((_ONE, _ZERO, _ONE), (_ZERO, _ONE, _ZERO)),
                                               None, _EYE, 1),
                 "gamma must be 2 x 2", id="case ii gamma 2x3"),
    pytest.param(lambda: metric_connection_eps0(_EYE, _ZEROS, ((_ZERO_FORM,) * 3,) * 2, _EYE),
                 "alpha_lc must be 2 x 2", id="case i alpha 2x3"),
    pytest.param(lambda: metric_connection_eps(_EYE, ((_ZERO_FORM,),), _EYE, 1),
                 "alpha must be 2 x 2", id="case ii alpha 1x1"),
    pytest.param(lambda: metric_connection_eps(_EYE, ((OrdinaryForm.basis(3, (1,)),) * 2,) * 2,
                                               _EYE, 1),
                 r"alpha entries must be 1-forms on R\^2", id="case ii alpha of dim-3 forms"),
    pytest.param(lambda: metric_connection_eps(_EYE, _ZEROS, _EYE, 1,
                                               ((OrdinaryForm.zero(2, 2),) * 3,) * 2),
                 "beta_tilde must be 2 x 2", id="case ii beta_tilde 2x3"),
    pytest.param(lambda: metric_connection_eps0(_EYE, _ZEROS, None, _EYE, ((_DX1,) * 2,) * 2),
                 r"beta_tilde entries must be 2-forms on R\^2", id="case i beta_tilde of 1-forms"),
    # gamma = gamma^-1 = I of polynomials in 3 variables, with a 2 x 2 chi
    pytest.param(lambda: metric_validate(_EYE_OF_DIM_3, _ZEROS, _EYE_OF_DIM_3, 0),
                 "gamma entries must have dim 2", id="gamma of dim-3 entries"),
    pytest.param(lambda: metric_connection_eps0(_EYE_OF_DIM_3, _ZEROS, None, _EYE_OF_DIM_3),
                 "gamma entries must have dim 2", id="case i gamma of dim-3 entries"),
    pytest.param(lambda: metric_connection_eps(_EYE_OF_DIM_3, None, _EYE_OF_DIM_3, 1),
                 "gamma entries must have dim 2", id="case ii gamma of dim-3 entries"),
    pytest.param(lambda: metric_validate(_EYE, ((OrdinaryForm.zero(3, 0),) * 2,) * 2, _EYE, 0),
                 "chi entries must have dim 2", id="chi of dim-3 entries"),
])
def test_metric_matrices_of_the_wrong_shape_are_rejected(build, message):
    """gamma, gamma^-1 and chi must each be n x n, n = len(gamma), with
    entries of dim n, and so must alpha (alpha_lc) and beta_tilde, with
    one-forms and two-forms on R^n for entries: a matrix of another shape is
    bad input, not cut to size, an IndexError or a ValueError from a
    product."""
    with pytest.raises(InputError, match=message):
        build()


def test_nonmetricity_examples():
    n = 2
    eps = Fraction(1)
    one, zero = Polynomial.one(n), Polynomial.zero(n)
    eye = ((one, zero), (zero, one))
    chi0 = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    g = metric_validate(eye, chi0, eye, eps)
    # antisymmetric ordinary alpha is metric for the identity
    a = OrdinaryForm.basis(n, (1,), Polynomial.var(n, 2))
    alpha = ((OrdinaryForm.zero(n, 1), a), (-a, OrdinaryForm.zero(n, 1)))
    beta0 = tuple(tuple(OrdinaryForm.zero(n, 2) for _ in range(n)) for _ in range(n))
    A = GenConnection.from_parts(alpha, beta0, eps)
    assert conn.mat_is_zero(nonmetricity(A, g))
    # A = 0 on a position-dependent unimodular gamma: Q = d gamma
    x1 = Polynomial.var(n, 1)
    gm = ((one, x1), (x1, one + x1 * x1))
    gm_inv = ((one + x1 * x1, -x1), (-x1, one))
    g2 = metric_validate(gm, chi0, gm_inv, eps)
    A0 = zero_connection(n, eps)
    Q = nonmetricity(A0, g2)
    from genform.exterior import ext_d

    for i in range(n):
        for j in range(n):
            assert Q[i][j].body == ext_d(OrdinaryForm.from_scalar(gm[i][j]))


def test_nonmetricity_dual_path_random():
    for eps in EPSILONS:
        rnd = FormRandom(10, 2, eps)
        for _ in range(8):
            A = rnd.connection()
            gamma, gamma_inv = rnd.metric_pieces()
            chi = rnd.symmetric_one_forms()
            g = metric_validate(gamma, chi, gamma_inv, eps)
            assert conn.mat_is_zero(conn.mat_map(operator.sub, nonmetricity(A, g),
                                                 nonmetricity_expansion(A, g)))


def test_levi_civita_properties():
    rnd = FormRandom(11, 2, Fraction(0))
    for _ in range(6):
        gamma, gamma_inv = rnd.metric_pieces()
        alpha = levi_civita_connection(gamma, gamma_inv)
        assert all(t.is_zero() for t in torsion(alpha))
        gamma_forms = conn.mat_map(OrdinaryForm.from_scalar, gamma)
        assert conn.mat_is_zero(conn.cov_d_lowered(alpha, gamma_forms))


def christoffel_reference(gamma, gamma_inv):
    """alpha^m_nu = Gamma^m_{nu lam} dx^lam, one index at a time:
    Gamma^m_{nu lam} = gamma^{ms} (d_nu gamma_{s lam} + d_lam gamma_{s nu}
    - d_s gamma_{nu lam}) / 2."""
    n = len(gamma)
    rows = []
    for m in range(1, n + 1):
        row = []
        for nu in range(1, n + 1):
            comps = {}
            for lam in range(1, n + 1):
                acc = Polynomial.zero(n)
                for s in range(1, n + 1):
                    term = (gamma[s - 1][lam - 1].partial(nu)
                            + gamma[s - 1][nu - 1].partial(lam)
                            - gamma[nu - 1][lam - 1].partial(s))
                    acc = acc + gamma_inv[m - 1][s - 1] * term
                acc = acc * Fraction(1, 2)
                if not acc.is_zero():
                    comps[(lam,)] = acc
            row.append(OrdinaryForm(n, 1, comps))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_levi_civita_matches_the_christoffel_index_loop(dim):
    rnd = FormRandom(70 + dim, dim, Fraction(0))
    for _ in range(3 if dim < 4 else 1):
        # a symmetric metric, and an unsymmetric matrix (no step may assume symmetry)
        for gamma, gamma_inv in (rnd.metric_pieces(), rnd.unipotent()):
            assert levi_civita_connection(gamma, gamma_inv) == christoffel_reference(gamma, gamma_inv)


def test_case_i_construction_and_curvature():
    rnd = FormRandom(12, 2, Fraction(0))
    for _ in range(5):
        gamma, gamma_inv = rnd.metric_pieces()
        alpha = levi_civita_connection(gamma, gamma_inv)
        chi = rnd.symmetric_one_forms()
        mc = metric_connection_eps0(gamma, chi, alpha, gamma_inv)
        assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))
        assert conn.mat_is_zero(conn.mat_map(operator.sub, curvature(mc.A),
                                             case_i_curvature_formula(mc)))


def test_case_i_trivial_examples():
    n = 2
    one, zero = Polynomial.one(n), Polynomial.zero(n)
    eye = ((one, zero), (zero, one))
    chi0 = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    alpha0 = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    A = metric_connection_eps0(eye, chi0, alpha0, eye).A
    assert conn.mat_is_zero(A.entries)
    assert conn.mat_is_zero(curvature(A))
    # constant symmetric chi: D chi = 0 so A = 0 still
    dx1 = OrdinaryForm.basis(n, (1,))
    chi_const = ((dx1, OrdinaryForm.zero(n, 1)), (OrdinaryForm.zero(n, 1), dx1))
    mc = metric_connection_eps0(eye, chi_const, alpha0, eye)
    assert conn.mat_is_zero(mc.A.entries)
    assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))


def test_case_i_free_antisymmetric_part():
    # adding an antisymmetric-lowered beta-tilde keeps Q = 0
    n = 2
    rnd = FormRandom(13, n, Fraction(0))
    gamma, gamma_inv = rnd.metric_pieces()
    alpha = levi_civita_connection(gamma, gamma_inv)
    chi = rnd.symmetric_one_forms()
    bt = rnd.form(2)
    beta_tilde = ((OrdinaryForm.zero(n, 2), bt), (-bt, OrdinaryForm.zero(n, 2)))
    mc = metric_connection_eps0(gamma, chi, alpha, gamma_inv, beta_tilde)
    assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))


def _nonzero_two_form(rnd: FormRandom) -> OrdinaryForm:
    while (bt := rnd.form(2)).is_zero():
        pass
    return bt


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eps", [Fraction(1), Fraction(-1, 2), Fraction(2)])
def test_case_ii_free_antisymmetric_part(n, eps):
    # an antisymmetric-lowered beta-tilde keeps Q = 0 and changes A; a
    # diagonal one breaks metricity, which the construction refuses
    rnd = FormRandom(17, n, eps)
    gamma, gamma_inv = rnd.metric_pieces()
    alpha = rnd.torsion_free_alpha()
    base = metric_connection_eps(gamma, alpha, gamma_inv, eps)
    zero = OrdinaryForm.zero(n, 2)
    skew = [[zero] * n for _ in range(n)]
    skew[0][n - 1], skew[n - 1][0] = (bt := _nonzero_two_form(rnd)), -bt
    mc = metric_connection_eps(gamma, alpha, gamma_inv, eps, skew)
    assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))
    assert mc.A.entries != base.A.entries
    diagonal = [[zero] * n for _ in range(n)]
    diagonal[0][0] = _nonzero_two_form(rnd)
    with pytest.raises(ConstructionError):
        metric_connection_eps(gamma, alpha, gamma_inv, eps, diagonal)


def test_case_i_rejects_non_metric_alpha():
    n = 2
    rnd = FormRandom(14, n, Fraction(0))
    gamma, gamma_inv = rnd.metric_pieces()
    chi = rnd.symmetric_one_forms()
    bad_alpha = rnd.torsion_free_alpha()
    if conn.mat_is_zero(conn.cov_d_lowered(bad_alpha,
                                           conn.mat_map(OrdinaryForm.from_scalar, gamma))):
        pytest.skip("random alpha happened to be metric")
    with pytest.raises(InputError):
        metric_connection_eps0(gamma, chi, bad_alpha, gamma_inv)


def test_case_ii_construction_and_curvature():
    for eps in (Fraction(1), Fraction(2), Fraction(-1, 2)):
        rnd = FormRandom(15, 2, eps)
        for _ in range(5):
            gamma, gamma_inv = rnd.metric_pieces()
            alpha = rnd.torsion_free_alpha()
            mc = metric_connection_eps(gamma, alpha, gamma_inv, eps)
            assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))
            assert conn.mat_is_zero(conn.mat_map(operator.sub, curvature(mc.A),
                                                 case_ii_curvature_formula(mc)))


def test_case_ii_requires_nonzero_epsilon_and_torsion_free():
    n = 2
    rnd = FormRandom(16, n, Fraction(1))
    gamma, gamma_inv = rnd.metric_pieces()
    alpha = rnd.torsion_free_alpha()
    with pytest.raises(InputError):
        metric_connection_eps(gamma, alpha, gamma_inv, Fraction(0))
    skew = OrdinaryForm.basis(n, (1,), Polynomial.var(n, 1))
    bad = elementary_alpha(n, 1, 2, skew)
    if all(t.is_zero() for t in torsion(bad)):
        pytest.skip("alpha unexpectedly torsion free")
    with pytest.raises(InputError):
        metric_connection_eps(gamma, bad, gamma_inv, Fraction(1))


def test_case_ii_ordinary_metric_corollary():
    # q = 0 (alpha = Levi-Civita): A = alpha and F = ordinary curvature
    rnd = FormRandom(17, 2, Fraction(2))
    for _ in range(4):
        gamma, gamma_inv = rnd.metric_pieces()
        alpha = levi_civita_connection(gamma, gamma_inv)
        mc = metric_connection_eps(gamma, alpha, gamma_inv, Fraction(2))
        A, g = mc.A, mc.g
        assert all(e.soul.is_zero() for row in A.entries for e in row)
        assert all(e.soul.is_zero() for row in g.entries for e in row)
        F = curvature(A)
        fcal = ordinary_curvature(alpha)
        for i in range(2):
            for j in range(2):
                assert F[i][j].soul.is_zero()
                assert F[i][j].body == fcal[i][j]


def test_trivial_flat_case_ii():
    n = 2
    one, zero = Polynomial.one(n), Polynomial.zero(n)
    eye = ((one, zero), (zero, one))
    alpha0 = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    A = metric_connection_eps(eye, alpha0, eye, Fraction(1)).A
    assert conn.mat_is_zero(A.entries)
    assert conn.mat_is_zero(curvature(A))


def test_bundled_fixtures_load_and_verify():
    with open(FIXTURES / "connection_case_i.json") as fh:
        mc = cli.connection_from_json(json.load(fh), "i")
    assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))

    with open(FIXTURES / "connection_case_ii.json") as fh:
        mc = cli.connection_from_json(json.load(fh), "ii")
    assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))
    assert not conn.mat_is_zero(mc.q)


# -- the pieces a construction returns --------------------------------------------


def _fixture_construction(name):
    """The construction of ``fixtures/<name>.json``, read as ``connection-thm`` reads it."""
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    return cli.connection_from_json(data, data["case"])


def _random_constructions():
    rnd = FormRandom(21, 2, Fraction(0))
    for _ in range(3):
        gamma, gamma_inv = rnd.metric_pieces()
        yield metric_connection_eps0(gamma, rnd.symmetric_one_forms(),
                                     levi_civita_connection(gamma, gamma_inv), gamma_inv)
    for eps in (Fraction(1), Fraction(-1, 2)):
        rnd = FormRandom(22, 2, eps)
        for _ in range(3):
            gamma, gamma_inv = rnd.metric_pieces()
            yield metric_connection_eps(gamma, rnd.torsion_free_alpha(), gamma_inv, eps)


def scale_fold(scalars, forms):
    """sum_k f_k x_k for 0-forms f_k, as the left fold of + over the scalings
    of x_k by f_k's polynomial: a matrix of 0-forms times a matrix of forms
    without ``wedge_sum``."""
    return reduce(operator.add, (x.scale(f.components.get((), Polynomial.zero(f.dim)))
                                 for f, x in zip(scalars, forms, strict=True)))


@pytest.mark.parametrize("name", ["connection_case_i", "connection_case_ii",
                                  "connection_case_ii_ordinary", "random"])
def test_construction_pieces_are_what_they_claim(name):
    results = (list(_random_constructions()) if name == "random"
               else [_fixture_construction(name)])
    for mc in results:
        alpha, gamma = conn._split(mc.A.entries)[0], mc.g.gamma()
        assert mc.fcal == ordinary_curvature(alpha)
        assert mc.q == composed_nonmetricity_ordinary(alpha, gamma)
        assert conn.mat_is_zero(nonmetricity(mc.A, mc.g))
        if mc.A.epsilon == 0:
            assert mc.fcal_low is None and mc.fcal_adj is None
        else:
            assert mc.fcal_low == conn.mat_mul(gamma, mc.fcal, scale_fold)
            # gamma^{ml} F_cal_{nl} = (gamma^-1 F_cal^T gamma)^m_n
            assert mc.fcal_adj == conn.mat_mul(
                conn.mat_mul(mc.g.gamma_inv, conn.transpose(mc.fcal), scale_fold), gamma,
                lambda forms, scalars: scale_fold(scalars, forms))


def _broken_construction(monkeypatch, case: str) -> None:
    """Make the soul of the constructed connection wrong: D chi doubled for
    case i, F_cal doubled inside the beta of case ii."""
    if case == "i":
        cov_d_lowered = conn.cov_d_lowered
        monkeypatch.setattr(conn, "cov_d_lowered",
                            lambda alpha, t: conn._scale_matrix(cov_d_lowered(alpha, t), 2))
    else:
        ordinary = conn.ordinary_curvature
        monkeypatch.setattr(conn, "ordinary_curvature",
                            lambda alpha: conn._scale_matrix(ordinary(alpha), 2))


@pytest.mark.parametrize("case, name", [("i", "connection_case_i"),
                                        ("ii", "connection_case_ii")])
def test_nonzero_residual_still_raises_and_fails_the_command(case, name, monkeypatch, tmp_path):
    _broken_construction(monkeypatch, case)
    with pytest.raises(ConstructionError, match="non-metricity residual nonzero"):
        _fixture_construction(name)
    out = tmp_path / "report.json"
    assert cli.main(["connection-thm", "--fixture", str(FIXTURES / f"{name}.json"),
                     "--case", case, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert "non-metricity residual nonzero" in report["error"]


# -- the folded signed sums against the matrix compositions they replace --------------


def composed_cov_d_tensor_ordinary(alpha, t, degree):
    second = conn.mat_mul(t, alpha, wedge_dot)
    if degree % 2 == 0:
        second = conn.mat_map(operator.neg, second)
    return conn.mat_map(lambda d, a, b: d + a + b, conn.mat_map(ext_d, t),
                        conn.mat_mul(alpha, t, wedge_dot), second)


def composed_cov_ext_d_tensor(A, P, p):
    second = conn.mat_mul(P, A.entries, gwedge_dot)
    if p % 2 == 0:
        second = conn.mat_map(operator.neg, second)
    return conn.mat_map(lambda d, a, b: d + a + b, conn.mat_map(gd, P),
                        conn.mat_mul(A.entries, P, gwedge_dot), second)


def composed_nonmetricity(A, g):
    gA = conn.mat_mul(g.entries, A.entries, gwedge_dot)
    gtA = conn.mat_mul(conn.transpose(g.entries), A.entries, gwedge_dot)
    return conn.mat_map(lambda d, a, b: d - a - b, conn.mat_map(gd, g.entries), gA,
                        conn.transpose(gtA))


def composed_nonmetricity_ordinary(alpha, gamma):
    """q = d gamma - gamma alpha - (gamma^T alpha)^T for gamma's 0-forms."""
    gamma_alpha = conn.mat_mul(gamma, alpha, wedge_dot)
    gammat_alpha = conn.mat_mul(conn.transpose(gamma), alpha, wedge_dot)
    return conn.mat_map(lambda d, a, b: d - a - b, conn.mat_map(ext_d, gamma), gamma_alpha,
                        conn.transpose(gammat_alpha))


def composed_cov_d_lowered(alpha, t):
    alpha_t = conn.transpose(alpha)
    first = conn.mat_mul(alpha_t, t, wedge_dot)
    second = conn.mat_mul(alpha_t, conn.transpose(t), wedge_dot)
    return conn.mat_map(lambda d, a, b: d - a - b, conn.mat_map(ext_d, t), first,
                        conn.transpose(second))


def composed_cov_deriv_vf_expansion(A, V):
    v = conn.transpose((V.v.component_forms(),))
    theta = conn.transpose((V.row_forms(),))
    alpha, beta = conn._split(A.entries)
    body = conn.mat_map(lambda d, a, t: d + a - t, conn.mat_map(ext_d, v),
                        conn.mat_mul(alpha, v, wedge_dot), conn._scale_matrix(theta, A.epsilon))
    soul = conn.mat_map(lambda d, a, b: d + a + b, conn.mat_map(ext_d, theta),
                        conn.mat_mul(alpha, theta, wedge_dot), conn.mat_mul(beta, v, wedge_dot))
    return conn.transpose(conn.mat_map(partial(GenForm, A.dim, A.epsilon, 1), body, soul))[0]


def composed_case_i_soul(mc):
    chi_up = conn.mat_mul(mc.g.gamma_inv, mc.g.chi(), wedge_dot)
    soul = conn.mat_map(operator.sub, conn.mat_mul(mc.fcal, chi_up, wedge_dot),
                        conn.mat_mul(chi_up, mc.fcal, wedge_dot))
    return conn._scale_matrix(soul, Fraction(1, 2))


def composed_raise_both(gamma_inv, x):
    """gamma^-1 x gamma^-T as two full matrix products."""
    return conn.mat_mul(conn.mat_mul(gamma_inv, x, wedge_dot), conn.transpose(gamma_inv),
                        wedge_dot)


def composed_case_ii_soul(mc):
    gamma_inv = mc.g.gamma_inv
    fcal_up = conn.mat_mul(mc.fcal, gamma_inv, wedge_dot)
    soul = conn.mat_map(operator.sub, conn.transpose(conn.mat_mul(mc.q, fcal_up, wedge_dot)),
                        conn.mat_mul(composed_raise_both(gamma_inv, mc.q),
                                     conn.transpose(mc.fcal_low), wedge_dot))
    return conn._scale_matrix(soul, Fraction(-1, 2) / mc.A.epsilon)


def souls(m):
    return tuple(tuple(e.soul for e in row) for row in m)


@pytest.mark.parametrize("dim", [2, 3])
def test_raise_both_equals_the_full_product_on_a_symmetric_x(dim):
    rnd = FormRandom(70 + dim, dim, Fraction(1))
    for _ in range(3):
        gamma_inv = conn.mat_map(OrdinaryForm.from_scalar, rnd.metric_pieces()[1])
        chi = rnd.symmetric_one_forms()
        raised = conn._raise_both(gamma_inv, chi)
        assert not conn.mat_is_zero(raised)
        assert raised == composed_raise_both(gamma_inv, chi)


def test_raise_both_mirrors_the_upper_triangle():
    """On a non-symmetric x, outside ``_raise_both``'s precondition, the
    entries i <= j are still those of gamma^-1 x gamma^-T and each is
    mirrored below the diagonal.  A triangle mirrored the other way equals
    this one on every symmetric x; here it does not."""
    for dim in (2, 3):
        rnd = FormRandom(75 + dim, dim, Fraction(1))
        gamma_inv = conn.mat_map(OrdinaryForm.from_scalar, rnd.metric_pieces()[1])
        x = tuple(tuple(rnd.form(1) for _ in range(dim)) for _ in range(dim))
        full = composed_raise_both(gamma_inv, x)
        assert full != conn.transpose(full)
        raised = conn._raise_both(gamma_inv, x)
        for i in range(dim):
            for j in range(i, dim):
                assert raised[i][j] == raised[j][i] == full[i][j]


def test_nonmetricities_transpose_a_non_symmetric_metric():
    """Neither non-metricity assumes a symmetric metric: on non-symmetric
    gamma and g, built without ``metric_validate``, q = D gamma and Q each
    equal their matrix composition, in which g and g^T differ."""
    for dim in (2, 3):
        for eps in EPSILONS:
            rnd = FormRandom(85 + dim, dim, eps)
            A = rnd.connection()
            gamma = conn.mat_map(OrdinaryForm.from_scalar,
                                 [[rnd.poly() for _ in range(dim)] for _ in range(dim)])
            chi = tuple(tuple(rnd.form(1) for _ in range(dim)) for _ in range(dim))
            assert gamma != conn.transpose(gamma) and chi != conn.transpose(chi)
            g = conn.GenMetric(dim, eps, conn.mat_map(partial(GenForm, dim, eps, 0), gamma, chi),
                               gamma)
            alpha = conn._split(A.entries)[0]
            assert (conn.cov_d_lowered(alpha, gamma)
                    == composed_nonmetricity_ordinary(alpha, gamma))
            assert nonmetricity(A, g) == composed_nonmetricity(A, g)


@pytest.mark.parametrize("dim", [2, 3])
def test_folded_sums_equal_their_matrix_compositions(dim):
    for eps in EPSILONS:
        rnd = FormRandom(80 + dim, dim, eps)
        for trial in range(2):
            A = rnd.connection()
            p = trial if dim == 2 else 2 * trial + 1  # even and odd degrees
            t = tuple(tuple(rnd.form(p) for _ in range(dim)) for _ in range(dim))
            P = tuple(tuple(rnd.genform(p) for _ in range(dim)) for _ in range(dim))
            alpha = conn._split(A.entries)[0]
            gamma, gamma_inv = rnd.metric_pieces()
            g = metric_validate(gamma, rnd.symmetric_one_forms(), gamma_inv, eps)
            V = rnd.gen_vector_field()
            assert (cov_d_tensor_ordinary(alpha, t, p)
                    == composed_cov_d_tensor_ordinary(alpha, t, p))
            assert cov_ext_d_tensor(A, P) == composed_cov_ext_d_tensor(A, P, p)
            assert (bianchi_residual(A, curvature_expansion(A))
                    == composed_cov_ext_d_tensor(A, curvature(A), 2))
            assert nonmetricity(A, g) == composed_nonmetricity(A, g)
            assert (conn.cov_d_lowered(alpha, g.gamma())
                    == composed_nonmetricity_ordinary(alpha, g.gamma()))
            assert conn.cov_d_lowered(alpha, t) == composed_cov_d_lowered(alpha, t)
            assert cov_deriv_vf_expansion(A, V) == composed_cov_deriv_vf_expansion(A, V)
    rnd = FormRandom(90 + dim, dim, Fraction(0))
    gamma, gamma_inv = rnd.metric_pieces()
    mc = metric_connection_eps0(gamma, rnd.symmetric_one_forms(),
                                levi_civita_connection(gamma, gamma_inv), gamma_inv)
    assert souls(case_i_curvature_formula(mc)) == composed_case_i_soul(mc)
    rnd = FormRandom(95 + dim, dim, Fraction(-1, 2))
    gamma, gamma_inv = rnd.metric_pieces()
    mc = metric_connection_eps(gamma, rnd.torsion_free_alpha(), gamma_inv, Fraction(-1, 2))
    assert not conn.mat_is_zero(mc.q)
    assert souls(case_ii_curvature_formula(mc)) == composed_case_ii_soul(mc)
