"""Degree-extended affine connections, curvature and metric compatibility.

A connection is an n x n matrix A of degree-1 extended forms, A = alpha +
beta m with alpha ordinary one-forms and beta two-forms.  Everything here is
computed twice where a closed-form expansion exists: once from the matrix
definition (F = dA + A A, Q = dg - gA - Ag, ...) and once from the expanded
body/soul component formulas, and the two paths must agree exactly.

A single matrix product on either path is one ``exterior.mat_mul`` under a
row-times-column sum that accumulates each entry's coefficients once:
``gform.gwedge_dot`` on the matrix path, ``exterior.wedge_dot`` on the
component path, and ``ring.poly_dot`` for polynomial matrices.  A signed sum
of matrix products, such as D t = d t + alpha t -+ t alpha or
Q = dg - gA - (g^T A)^T, is one ``_signed_sum``: it gives each entry's
products to one ``gform.gwedge_sum`` or ``exterior.wedge_sum`` and adds the
derivative term once.  A product enters as X Y or, marked, as (X Y)^T, and
the caller passes a transposed factor as ``transpose(X)``, so the summed
index is chosen in that one helper.  ``mat_mul`` and the matrix
compositions that the tests compare the signed sums with do not use it, so
they stay an independent path.  A polynomial matrix that multiplies forms
is lifted once to its matrix of 0-forms, ordinary or extended, and goes
through the same sums.  The two paths share that summation and the ring
kernel ``Polynomial.sum_products`` under it, which their own tests compare
with one product at a time.  No transpose assumes a symmetric metric.
A ``GenMetric`` holds gamma (the bodies of g) and gamma^-1 as 0-forms, which
``metric_validate`` lifts once.  The ordinary non-metricity q = D gamma is
``cov_d_lowered`` on gamma's 0-forms, so the lowered-index rule is written
once per level: ``cov_d_lowered`` and the extended ``nonmetricity``.

The compatibility solver realizes both branches of the extended
Levi-Civita construction: for eps = 0 the soul of the connection is fixed by
the metric soul (beta_sym = D chi / 2), for eps != 0 the metric soul is fixed
by the connection (chi = q / eps) and the symmetric part of beta by the
ordinary curvature.  Supplied base connections must be torsion free; bundled
fixtures use metrics whose inverse is polynomial so everything stays exact.
Both constructions return a ``MetricConnection``: A and g together with the
pieces they computed on the way, the ordinary curvature F_cal, the ordinary
non-metricity q, gamma F_cal and its gamma-adjoint (eps != 0) and the
non-metricity Q of the result, which they verified to be zero.  The closed-form curvature formulas
and the ``connection-thm`` command read these pieces instead of computing
them again; the mechanical ``curvature(A)`` that the formulas are compared
with is still computed from A alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .exterior import (OrdinaryForm, Tensor11, VectorField, _json_rows, coordinate_partial, ext_d,
                       form_from_json, mat_add, mat_identity, mat_is_zero, mat_mul, mat_neg,
                       mat_sub, transpose, wedge_dot, wedge_sum)
from .gform import GenForm, gd, gwedge_dot, gwedge_sum
from .gvector import GenVectorField, gv_interior
from .ring import Polynomial, Scalar, poly_dot

FormMatrix = tuple[tuple[OrdinaryForm, ...], ...]
GenMatrix = tuple[tuple[GenForm, ...], ...]
PolyMatrix = tuple[tuple[Polynomial, ...], ...]


class ConnectionError(ValueError):
    pass


# -- matrix helpers ---------------------------------------------------------------


def _as_tuple(matrix) -> tuple:
    return tuple(tuple(row) for row in matrix)


def mat_gd(a: GenMatrix) -> GenMatrix:
    return tuple(tuple(gd(x) for x in row) for row in a)


def mat_ext_d(a: FormMatrix) -> FormMatrix:
    return tuple(tuple(ext_d(x) for x in row) for row in a)


def _scale_matrix(m, factor):
    return tuple(tuple(x.scale(factor) for x in row) for row in m)


def _scalar_forms(m: PolyMatrix) -> FormMatrix:
    """m lifted entrywise to 0-forms."""
    return tuple(tuple(OrdinaryForm.from_scalar(x) for x in row) for row in m)


def _gen_scalars(m: PolyMatrix, epsilon: Scalar) -> GenMatrix:
    """m lifted entrywise to extended 0-forms."""
    return tuple(tuple(GenForm.from_scalar(x, epsilon) for x in row) for row in m)


def _split(m: GenMatrix) -> tuple[FormMatrix, FormMatrix]:
    """The bodies and the souls of m, as two matrices."""
    return (tuple(tuple(e.body for e in row) for row in m),
            tuple(tuple(e.soul for e in row) for row in m))


def _gen_matrix(n: int, epsilon: Scalar, degree: int,
                body: FormMatrix, soul: FormMatrix) -> GenMatrix:
    return tuple(tuple(GenForm(n, epsilon, degree, b, s) for b, s in zip(rb, rs))
                 for rb, rs in zip(body, soul))


def _signed_sum(total: Callable, products: Sequence[tuple],
                plus: Sequence[Sequence] | None = None) -> tuple[tuple, ...]:
    """The n x n matrix whose entry (i, j) is plus[i][j] plus one call of
    ``total`` (``wedge_sum`` or ``gwedge_sum``) on the triples of every
    product (s, X, Y) in the order given: those of s (X Y)_ij, or of
    s (X Y)_ji for a product (s, X, Y, True).  The caller passes transposed
    factors as ``transpose(X)``; this is the one place that picks the
    summed index."""
    products = [(s, x, transpose(y), any(flipped)) for s, x, y, *flipped in products]
    n = len(products[0][1])

    def entry(i: int, j: int):
        sums = total([(s, a, b) for s, x, cols, flipped in products
                      for a, b in (zip(x[j], cols[i]) if flipped else zip(x[i], cols[j]))])
        return sums if plus is None else plus[i][j] + sums

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def _raise_both(gamma_inv: FormMatrix, x: FormMatrix) -> FormMatrix:
    """x^{mn} = gamma^{mr} x_{rs} gamma^{ns}, i.e. gamma^-1 x gamma^-T, for
    gamma^-1 lifted to 0-forms."""
    return mat_mul(mat_mul(gamma_inv, x, wedge_dot), transpose(gamma_inv), wedge_dot)


# -- connection -------------------------------------------------------------------


@dataclass(frozen=True)
class GenConnection:
    dim: int
    epsilon: Fraction
    entries: GenMatrix  # degree-1 extended forms

    @classmethod
    def build(cls, entries, epsilon: Scalar | None = None) -> "GenConnection":
        entries = _as_tuple(entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ConnectionError("connection matrix must be square")
        eps = Fraction(epsilon) if epsilon is not None else entries[0][0].epsilon
        A = cls(n, eps, entries)
        for row in entries:
            for e in row:
                GenForm._require_compatible(A, e, ConnectionError)
                if not e.is_zero() and e.degree != 1:
                    raise ConnectionError("entries must have degree 1")
        return A

    @classmethod
    def from_parts(cls, alpha: FormMatrix, beta: FormMatrix, epsilon: Scalar) -> "GenConnection":
        return cls.build(_gen_matrix(len(alpha), epsilon, 1, alpha, beta), epsilon)

    @classmethod
    def zero(cls, dim: int, epsilon: Scalar) -> "GenConnection":
        z = GenForm.zero(dim, epsilon, 1)
        return cls.build([[z] * dim for _ in range(dim)], epsilon)

    def alpha(self) -> FormMatrix:
        return _split(self.entries)[0]

    def beta(self) -> FormMatrix:
        return _split(self.entries)[1]


def curvature(A: GenConnection) -> GenMatrix:
    """F = dA + A A."""
    return mat_add(mat_gd(A.entries), mat_mul(A.entries, A.entries, gwedge_dot))


def ordinary_curvature(alpha: FormMatrix) -> FormMatrix:
    """F_cal = d alpha + alpha alpha."""
    return mat_add(mat_ext_d(alpha), mat_mul(alpha, alpha, wedge_dot))


def cov_d_tensor_ordinary(alpha: FormMatrix, t: FormMatrix, degree: int) -> FormMatrix:
    """D t = d t + alpha t - (-1)^p t alpha on (1,1)-valued ordinary p-forms."""
    s = 1 if degree % 2 else -1
    return _signed_sum(wedge_sum, [(1, alpha, t), (s, t, alpha)], mat_ext_d(t))


def curvature_expansion(A: GenConnection) -> GenMatrix:
    """Component path: F = F_cal + eps beta + (D beta) m."""
    alpha, beta = _split(A.entries)
    body = mat_add(ordinary_curvature(alpha), _scale_matrix(beta, A.epsilon))
    return _gen_matrix(A.dim, A.epsilon, 2, body, cov_d_tensor_ordinary(alpha, beta, 2))


def bianchi_residual(A: GenConnection, F: GenMatrix) -> GenMatrix:
    """Component path of dF + A F - F A for a degree-2 F = F_b + F_s m and
    A = alpha + beta m:

        body  dF_b - eps F_s + alpha F_b - F_b alpha
        soul  dF_s + alpha F_s + beta F_b - F_b beta + F_s alpha

    The matrix path is ``cov_ext_d_tensor(A, F)``.  For the curvature of A,
    such as ``curvature_expansion(A)``, both are identically zero (Bianchi).
    """
    eps, (alpha, beta), (fb, fs) = A.epsilon, _split(A.entries), _split(F)
    dfb = mat_ext_d(fb)
    body = _signed_sum(wedge_sum, [(1, alpha, fb), (-1, fb, alpha)],
                       mat_sub(dfb, _scale_matrix(fs, eps)) if eps else dfb)
    soul = _signed_sum(wedge_sum, [(1, alpha, fs), (1, beta, fb), (-1, fb, beta), (1, fs, alpha)],
                       mat_ext_d(fs))
    return _gen_matrix(A.dim, eps, 3, body, soul)


def cov_ext_d_tensor(A: GenConnection, P: GenMatrix) -> GenMatrix:
    """DP = dP + A P + (-1)^(p+1) P A for homogeneous (1,1)-valued degree p."""
    degrees = {e.degree for row in P for e in row if not e.is_zero()}
    if len(degrees) > 1:
        raise ConnectionError(f"mixed degrees {sorted(degrees)}")
    p = degrees.pop() if degrees else 0
    a, s = A.entries, 1 if p % 2 else -1
    return _signed_sum(gwedge_sum, [(1, a, P), (s, P, a)], mat_gd(P))


def transform_connection(A: GenConnection, G: PolyMatrix, G_inv: PolyMatrix) -> GenConnection:
    """Gauge transport A -> G^-1 dG + G^-1 A G; the caller supplies the exact
    inverse, which is verified."""
    G, G_inv = _as_tuple(G), _as_tuple(G_inv)
    eye = mat_identity(A.dim, 1, 0)
    if mat_mul(G, G_inv, poly_dot) != eye or mat_mul(G_inv, G, poly_dot) != eye:
        raise ConnectionError("G_inv is not an exact inverse of G")
    G, G_inv = _gen_scalars(G, A.epsilon), _gen_scalars(G_inv, A.epsilon)
    AG = mat_mul(A.entries, G, gwedge_dot)
    return GenConnection.build(mat_mul(G_inv, mat_add(mat_gd(G), AG), gwedge_dot), A.epsilon)


def conjugate_matrix(F: GenMatrix, G: PolyMatrix, G_inv: PolyMatrix) -> GenMatrix:
    """G^-1 F G, with G and G^-1 lifted to extended 0-forms."""
    eps = F[0][0].epsilon
    return mat_mul(_gen_scalars(G_inv, eps), mat_mul(F, _gen_scalars(G, eps), gwedge_dot),
                   gwedge_dot)


# -- covariant derivatives of fields ------------------------------------------------


def _column(entries: Sequence) -> tuple[tuple, ...]:
    """The n x 1 matrix with the given entries."""
    return transpose((tuple(entries),))


def field_components(V: GenVectorField) -> tuple[GenForm, ...]:
    """The degree-0 extended components v^m + theta^m m, with theta^m =
    v^m_n dx^n the row one-forms of the tensor part."""
    return tuple(GenForm(V.dim, V.epsilon, 0, c, theta)
                 for c, theta in zip(V.v.component_forms(), V.vt.row_forms()))


def field_from_components(comps: Sequence[GenForm], epsilon: Scalar) -> GenVectorField:
    """Inverse of field_components; the inputs must be degree-0."""
    for comp in comps:
        if not comp.is_zero() and comp.degree != 0:
            raise ConnectionError(f"component of degree {comp.degree}, expected 0")
    zero = Polynomial.zero(comps[0].dim)
    v = VectorField([comp.body.components.get((), zero) for comp in comps])
    return GenVectorField(v.dim, epsilon, v, Tensor11.from_row_forms([c.soul for c in comps]))


def cov_deriv_vf(A: GenConnection, V: GenVectorField) -> tuple[GenForm, ...]:
    """Dv^m = d v^m + A^m_n v^n, one degree-1 extended form per index."""
    GenForm._require_compatible(A, V, ConnectionError)
    comps = _column(field_components(V))
    return transpose(mat_add(mat_gd(comps), mat_mul(A.entries, comps, gwedge_dot)))[0]


def cov_deriv_vf_expansion(A: GenConnection, V: GenVectorField) -> tuple[GenForm, ...]:
    """Component path, with theta^m = v^m_n dx^n:
    body = D v^m - eps theta^m,  soul = D theta^m + beta^m_n v^n,
    where D is covariant with respect to alpha; the soul's products
    alpha^m_n theta^n and beta^m_n v^n are one dot."""
    v, theta = V.v.component_forms(), V.vt.row_forms()
    alpha, beta = _split(A.entries)
    return tuple(GenForm(A.dim, A.epsilon, 1,
                         ext_d(v[m]) + wedge_dot(alpha[m], v) - theta[m].scale(A.epsilon),
                         ext_d(theta[m]) + wedge_dot(alpha[m] + beta[m], theta + v))
                 for m in range(A.dim))


def cov_deriv_vf_along(A: GenConnection, W: GenVectorField, V: GenVectorField) -> GenVectorField:
    """nabla_W V: contract each Dv^m with W, reassemble as a field."""
    contracted = [gv_interior(W, comp) for comp in cov_deriv_vf(A, V)]
    return field_from_components(contracted, A.epsilon)


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    body_residual_zero: bool  # F_cal + eps beta = 0
    soul_residual_zero: bool  # D beta = 0


def flatness_check(A: GenConnection) -> FlatnessReport:
    body, soul = _split(curvature_expansion(A))
    body_zero, soul_zero = mat_is_zero(body), mat_is_zero(soul)
    return FlatnessReport(body_zero and soul_zero, body_zero, soul_zero)


# -- metrics -----------------------------------------------------------------------


@dataclass(frozen=True)
class GenMetric:
    dim: int
    epsilon: Fraction
    entries: GenMatrix  # degree-0 extended forms gamma + chi m, symmetric
    gamma_inv: FormMatrix  # 0-forms

    def gamma(self) -> FormMatrix:
        return _split(self.entries)[0]

    def chi(self) -> FormMatrix:
        return _split(self.entries)[1]


def metric_validate(gamma: PolyMatrix, chi: FormMatrix, gamma_inv: PolyMatrix,
                    epsilon: Scalar) -> GenMetric:
    """Symmetry in both parts plus an exact two-sided inverse for gamma, then
    gamma and gamma^-1 lifted to 0-forms once.  gamma^-1 gamma = I suffices:
    for square matrices over a commutative ring it gives det gamma
    det gamma^-1 = 1, so the left inverse is also the right one."""
    gamma, chi, gamma_inv = _as_tuple(gamma), _as_tuple(chi), _as_tuple(gamma_inv)
    n = len(gamma)
    for i in range(n):
        for j in range(n):
            if gamma[i][j] != gamma[j][i]:
                raise ConnectionError(f"gamma not symmetric at ({i + 1},{j + 1})")
            if chi[i][j] != chi[j][i]:
                raise ConnectionError(f"chi not symmetric at ({i + 1},{j + 1})")
    if mat_mul(gamma_inv, gamma, poly_dot) != mat_identity(n, 1, 0):
        raise ConnectionError("gamma_inv is not an exact inverse")
    entries = _gen_matrix(n, epsilon, 0, _scalar_forms(gamma), chi)
    return GenMetric(n, Fraction(epsilon), entries, _scalar_forms(gamma_inv))


def metric_inverse(g: GenMetric) -> GenMatrix:
    """g^{mn} = gamma^{mn} - chi^{mn} m with indices raised by gamma."""
    return _gen_matrix(g.dim, g.epsilon, 0, g.gamma_inv,
                       mat_neg(_raise_both(g.gamma_inv, g.chi())))


def nonmetricity(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Q_{mn} = d g_{mn} - g_{ml} A^l_n - g_{ln} A^l_m."""
    GenForm._require_compatible(A, g, ConnectionError)
    a, gm = A.entries, g.entries
    return _signed_sum(gwedge_sum, [(-1, gm, a), (-1, transpose(gm), a, True)], mat_gd(gm))


def cov_d_lowered(alpha: FormMatrix, t: FormMatrix) -> FormMatrix:
    """D t_{mn} = d t_{mn} - alpha^l_m t_{ln} - alpha^l_n t_{ml} for
    (0,2)-valued forms of any homogeneous degree; q = D gamma on gamma's 0-forms."""
    alpha_t = transpose(alpha)
    return _signed_sum(wedge_sum, [(-1, alpha_t, t), (-1, alpha_t, transpose(t), True)],
                       mat_ext_d(t))


def nonmetricity_expansion(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Component path: Q = (q - eps chi) + [D chi - (beta_{mn} + beta_{nm})] m
    with beta_{mn} = gamma_{ml} beta^l_n."""
    (alpha, beta), (gamma, chi) = _split(A.entries), _split(g.entries)
    body = mat_sub(cov_d_lowered(alpha, gamma), _scale_matrix(chi, A.epsilon))
    beta_low = mat_mul(gamma, beta, wedge_dot)
    soul = mat_sub(mat_sub(cov_d_lowered(alpha, chi), beta_low), transpose(beta_low))
    return _gen_matrix(A.dim, A.epsilon, 1, body, soul)


def torsion(alpha: FormMatrix) -> tuple[OrdinaryForm, ...]:
    """T^m = alpha^m_n ^ dx^n; zero in the coordinate frame iff the
    Christoffel array is symmetric in its lower indices."""
    n = len(alpha)
    dx = _column(OrdinaryForm.basis(n, (j,)) for j in range(1, n + 1))
    return transpose(mat_mul(alpha, dx, wedge_dot))[0]


def levi_civita_connection(gamma: PolyMatrix, gamma_inv: PolyMatrix) -> FormMatrix:
    """Christoffel one-forms alpha = gamma^{-1} Gamma_low of gamma, where

        Gamma_low_{s nu} = (d_nu theta_s + d gamma_{s nu} - d_s theta_nu) / 2

    are those of the first kind and theta_s = gamma_{sl} dx^l are the row
    one-forms of gamma; polynomial whenever gamma_inv is."""
    n = len(gamma)
    # (s, nu): d_nu theta_s, so its transpose holds d_s theta_nu
    grad = tuple(tuple(coordinate_partial(theta, axis) for axis in range(1, n + 1))
                 for theta in Tensor11(gamma).row_forms())
    low = mat_sub(mat_add(grad, mat_ext_d(_scalar_forms(gamma))), transpose(grad))
    return mat_mul(_scalar_forms(gamma_inv), _scale_matrix(low, Fraction(1, 2)), wedge_dot)


# -- the compatibility constructions -------------------------------------------------


class MetricConnection(NamedTuple):
    """A compatibility construction's result with the pieces it computed on
    the way, for the curvature formulas and the CLI to read instead of
    recomputing."""

    A: GenConnection
    g: GenMetric
    fcal: FormMatrix  # F_cal = d alpha + alpha alpha
    q: FormMatrix  # ordinary non-metricity of alpha, zero for eps = 0
    Q: GenMatrix  # non-metricity of A in g, verified zero
    fcal_low: FormMatrix | None  # F_cal_{nl} = gamma_{ns} F_cal^s_l; eps != 0 only
    fcal_adj: FormMatrix | None  # gamma^{ml} F_cal_{nl}, F_cal's gamma-adjoint; eps != 0 only


def _verified(A: GenConnection, g: GenMetric, fcal: FormMatrix, q: FormMatrix,
              fcal_low: FormMatrix | None, fcal_adj: FormMatrix | None) -> MetricConnection:
    Q = nonmetricity(A, g)
    if not mat_is_zero(Q):
        raise ConnectionError("construction failed: non-metricity residual nonzero")
    return MetricConnection(A, g, fcal, q, Q, fcal_low, fcal_adj)


def metric_connection_eps0(gamma: PolyMatrix, chi: FormMatrix, alpha_lc: FormMatrix,
                           gamma_inv: PolyMatrix,
                           beta_tilde: FormMatrix | None = None) -> MetricConnection:
    """eps = 0 branch: A = alpha + (beta_tilde^m_n + D chi^m_n / 2) m.

    alpha_lc must be torsion free with q = 0 (the Levi-Civita connection of
    gamma); beta_tilde is the free antisymmetric-lowered part, zero for the
    canonical choice.  The result is verified to have exactly zero
    non-metricity.
    """
    g = metric_validate(gamma, chi, gamma_inv, 0)
    alpha_lc = _as_tuple(alpha_lc)
    if not all(t.is_zero() for t in torsion(alpha_lc)):
        raise ConnectionError("alpha_lc has torsion")
    q = cov_d_lowered(alpha_lc, g.gamma())
    if not mat_is_zero(q):
        raise ConnectionError("alpha_lc is not metric for gamma")
    dchi = cov_d_lowered(alpha_lc, g.chi())
    beta = mat_mul(g.gamma_inv, _scale_matrix(dchi, Fraction(1, 2)), wedge_dot)
    if beta_tilde is not None:
        beta = mat_add(beta, mat_mul(g.gamma_inv, _as_tuple(beta_tilde), wedge_dot))
    A = GenConnection.from_parts(alpha_lc, beta, 0)
    return _verified(A, g, ordinary_curvature(alpha_lc), q, None, None)


def metric_connection_eps(gamma: PolyMatrix, alpha: FormMatrix,
                          gamma_inv: PolyMatrix, epsilon: Scalar,
                          beta_tilde: FormMatrix | None = None) -> MetricConnection:
    """eps != 0 branch: chi is forced to q / eps and

        A^m_n = alpha^m_n + [beta_tilde^m_n
                - (F_cal^m_n + gamma^{ml} F_cal_{n l}) / (2 eps)] m,

    with F_cal the ordinary curvature of alpha and F_cal_{nl} =
    gamma_{ns} F_cal^s_l.  alpha must be torsion free.  Non-metricity of the
    result is verified to vanish exactly; for q = 0 the construction
    reduces to A = alpha, F = F_cal.
    """
    eps = Fraction(epsilon)
    if eps == 0:
        raise ConnectionError("this branch needs eps != 0")
    alpha = _as_tuple(alpha)
    if not all(t.is_zero() for t in torsion(alpha)):
        raise ConnectionError("alpha has torsion")
    q = cov_d_lowered(alpha, _scalar_forms(gamma))
    chi = _scale_matrix(q, 1 / eps)
    g = metric_validate(gamma, chi, gamma_inv, eps)
    fcal = ordinary_curvature(alpha)
    fcal_low = mat_mul(g.gamma(), fcal, wedge_dot)
    fcal_adj = mat_mul(g.gamma_inv, transpose(fcal_low), wedge_dot)
    beta = _scale_matrix(mat_add(fcal, fcal_adj), Fraction(-1, 2) / eps)
    if beta_tilde is not None:
        beta = mat_add(beta, mat_mul(g.gamma_inv, _as_tuple(beta_tilde), wedge_dot))
    A = GenConnection.from_parts(alpha, beta, eps)
    return _verified(A, g, fcal, q, fcal_low, fcal_adj)


def case_i_curvature_formula(mc: MetricConnection) -> GenMatrix:
    """Claimed curvature of the eps = 0 canonical construction:
    F = F_cal + (F_cal^m_l chi^l_n - chi^m_l F_cal^l_n) m / 2."""
    A, g, fcal = mc.A, mc.g, mc.fcal
    chi_up = mat_mul(g.gamma_inv, g.chi(), wedge_dot)
    soul = _signed_sum(wedge_sum, [(1, fcal, chi_up), (-1, chi_up, fcal)])
    return _gen_matrix(A.dim, A.epsilon, 2, fcal, _scale_matrix(soul, Fraction(1, 2)))


def case_ii_curvature_formula(mc: MetricConnection) -> GenMatrix:
    """Claimed curvature of the eps != 0 canonical construction:

        body = (F_cal^m_n - gamma^{ml} F_cal_{n l}) / 2
        soul = -(q_{nl} F_cal^{lm} - q^{ml} F_cal_{nl}) / (2 eps)

    where F_cal^{lm} = F_cal^l_s gamma^{sm} and q^{ml} raises both q indices.
    The soul sign on the second term follows from expanding D beta with
    D gamma = q; the verification suite pins it against the mechanical F.
    """
    A, fcal, fcal_low, q, gamma_inv = mc.A, mc.fcal, mc.fcal_low, mc.q, mc.g.gamma_inv
    fcal_up = mat_mul(fcal, gamma_inv, wedge_dot)  # F_cal^{lm} = F_cal^l_s gamma^{sm}
    body = mat_sub(fcal, mc.fcal_adj)
    q_up = _raise_both(gamma_inv, q)
    soul = _signed_sum(wedge_sum, [(1, q, fcal_up, True), (-1, q_up, transpose(fcal_low))])
    return _gen_matrix(A.dim, A.epsilon, 2, _scale_matrix(body, Fraction(1, 2)),
                       _scale_matrix(soul, Fraction(-1, 2) / A.epsilon))


# -- fixture loading -------------------------------------------------------------------


def matrix_of_forms_from_json(dim: int, data) -> FormMatrix:
    forms = tuple(tuple(form_from_json(cell) for cell in row) for row in _json_rows(dim, data))
    if any(f.dim != dim for row in forms for f in row):
        raise ValueError(f"matrix entries must be forms on R^{dim}")
    return forms


def poly_matrix_from_json(dim: int, data) -> PolyMatrix:
    return tuple(tuple(Polynomial.parse(dim, cell) for cell in row)
                 for row in _json_rows(dim, data))
