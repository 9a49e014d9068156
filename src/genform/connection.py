"""Degree-extended affine connections, curvature and metric compatibility.

A connection is an n x n matrix A of degree-1 extended forms, A = alpha +
beta m with alpha ordinary one-forms and beta two-forms.  Everything here is
computed twice where a closed-form expansion exists: once from the matrix
definition (F = dA + A A, Q = dg - gA - Ag, ...) and once from the expanded
body/soul component formulas, and the two paths must agree exactly.

Every matrix contraction on both paths is one ``exterior.mat_mul`` (with
``transpose`` and ``mat_add``/``mat_sub``), so the only code the two paths
share is that product's summation, which its own test pins.  Their entry
products differ: ``gwedge`` on the matrix path, ``wedge`` or scaling by a
polynomial on the component path.  No transpose assumes a symmetric metric.

The compatibility solver realizes both branches of the extended
Levi-Civita construction: for eps = 0 the soul of the connection is fixed by
the metric soul (beta_sym = D chi / 2), for eps != 0 the metric soul is fixed
by the connection (chi = q / eps) and the symmetric part of beta by the
ordinary curvature.  Supplied base connections must be torsion free; bundled
fixtures use metrics whose inverse is polynomial so everything stays exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exterior import (OrdinaryForm, Tensor11, VectorField, _json_rows, ext_d, form_from_json,
                       mat_mul, transpose, wedge)
from .gform import GenForm, gd, gwedge
from .gvector import GenVectorField, gv_interior
from .ring import Polynomial, Scalar

FormMatrix = tuple[tuple[OrdinaryForm, ...], ...]
GenMatrix = tuple[tuple[GenForm, ...], ...]
PolyMatrix = tuple[tuple[Polynomial, ...], ...]


class ConnectionError(ValueError):
    pass


# -- matrix helpers ---------------------------------------------------------------


def _as_tuple(matrix) -> tuple:
    return tuple(tuple(row) for row in matrix)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_gd(a: GenMatrix) -> GenMatrix:
    return tuple(tuple(gd(x) for x in row) for row in a)


def mat_ext_d(a: FormMatrix) -> FormMatrix:
    return tuple(tuple(ext_d(x) for x in row) for row in a)


def _is_identity(m: PolyMatrix) -> bool:
    return all(x == (1 if i == j else 0) for i, row in enumerate(m) for j, x in enumerate(row))


def _scale_matrix(m, factor):
    return tuple(tuple(x.scale(factor) for x in row) for row in m)


def _scalar_forms(m: PolyMatrix) -> FormMatrix:
    return tuple(tuple(OrdinaryForm.from_scalar(x) for x in row) for row in m)


def _gen_matrix(n: int, epsilon: Scalar, degree: int,
                body: FormMatrix, soul: FormMatrix) -> GenMatrix:
    return tuple(tuple(GenForm(n, epsilon, degree, b, s) for b, s in zip(rb, rs))
                 for rb, rs in zip(body, soul))


# Entry products for a polynomial matrix on the left or on the right of a
# matrix of (extended) forms.
def _left_scale(p: Polynomial, x):
    return x.scale(p)


def _right_scale(x, p: Polynomial):
    return x.scale(p)


def _raise_both(gamma_inv: PolyMatrix, x: FormMatrix) -> FormMatrix:
    """x^{mn} = gamma^{mr} x_{rs} gamma^{ns}, i.e. gamma^-1 x gamma^-T."""
    return mat_mul(mat_mul(gamma_inv, x, _left_scale), transpose(gamma_inv), _right_scale)


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
        for row in entries:
            for e in row:
                if e.dim != n or e.epsilon != eps:
                    raise ConnectionError("entry dimension/epsilon mismatch")
                if not e.is_zero() and e.degree != 1:
                    raise ConnectionError("entries must have degree 1")
        return cls(n, eps, entries)

    @classmethod
    def from_parts(cls, alpha: FormMatrix, beta: FormMatrix, epsilon: Scalar) -> "GenConnection":
        return cls.build(_gen_matrix(len(alpha), epsilon, 1, alpha, beta), epsilon)

    @classmethod
    def zero(cls, dim: int, epsilon: Scalar) -> "GenConnection":
        z = GenForm.zero(dim, epsilon, 1)
        return cls.build([[z] * dim for _ in range(dim)], epsilon)

    def alpha(self) -> FormMatrix:
        return tuple(tuple(e.body for e in row) for row in self.entries)

    def beta(self) -> FormMatrix:
        return tuple(tuple(e.soul for e in row) for row in self.entries)


def curvature(A: GenConnection) -> GenMatrix:
    """F = dA + A A."""
    return mat_add(mat_gd(A.entries), mat_mul(A.entries, A.entries, gwedge))


def ordinary_curvature(alpha: FormMatrix) -> FormMatrix:
    """F_cal = d alpha + alpha alpha."""
    return mat_add(mat_ext_d(alpha), mat_mul(alpha, alpha, wedge))


def cov_d_tensor_ordinary(alpha: FormMatrix, t: FormMatrix, degree: int) -> FormMatrix:
    """D t = d t + alpha t - (-1)^p t alpha on (1,1)-valued ordinary p-forms."""
    sign_flip = degree % 2 == 0
    second = mat_mul(t, alpha, wedge)
    if sign_flip:
        second = mat_neg(second)
    return mat_add(mat_add(mat_ext_d(t), mat_mul(alpha, t, wedge)), second)


def curvature_expansion(A: GenConnection) -> GenMatrix:
    """Component path: F = F_cal + eps beta + (D beta) m."""
    alpha, beta = A.alpha(), A.beta()
    body = mat_add(ordinary_curvature(alpha), _scale_matrix(beta, A.epsilon))
    return _gen_matrix(A.dim, A.epsilon, 2, body, cov_d_tensor_ordinary(alpha, beta, 2))


def bianchi_residual(A: GenConnection) -> GenMatrix:
    """dF + A F - F A; identically zero for every connection."""
    F = curvature(A)
    return mat_add(mat_gd(F),
                   mat_sub(mat_mul(A.entries, F, gwedge), mat_mul(F, A.entries, gwedge)))


def cov_ext_d_tensor(A: GenConnection, P: GenMatrix) -> GenMatrix:
    """DP = dP + A P + (-1)^(p+1) P A for homogeneous (1,1)-valued degree p."""
    degrees = {e.degree for row in P for e in row if not e.is_zero()}
    if len(degrees) > 1:
        raise ConnectionError(f"mixed degrees {sorted(degrees)}")
    p = degrees.pop() if degrees else 0
    second = mat_mul(P, A.entries, gwedge)
    if p % 2 == 0:
        second = mat_neg(second)
    return mat_add(mat_add(mat_gd(P), mat_mul(A.entries, P, gwedge)), second)


def transform_connection(A: GenConnection, G: PolyMatrix, G_inv: PolyMatrix) -> GenConnection:
    """Gauge transport A -> G^-1 dG + G^-1 A G; the caller supplies the exact
    inverse, which is verified."""
    G, G_inv = _as_tuple(G), _as_tuple(G_inv)
    if not (_is_identity(mat_mul(G, G_inv, operator.mul))
            and _is_identity(mat_mul(G_inv, G, operator.mul))):
        raise ConnectionError("G_inv is not an exact inverse of G")
    dG = tuple(tuple(GenForm.from_ordinary(dg, A.epsilon) for dg in row)
               for row in mat_ext_d(_scalar_forms(G)))
    AG = mat_mul(A.entries, G, _right_scale)
    return GenConnection.build(mat_mul(G_inv, mat_add(dG, AG), _left_scale), A.epsilon)


def conjugate_matrix(F: GenMatrix, G: PolyMatrix, G_inv: PolyMatrix) -> GenMatrix:
    """G^-1 F G entrywise (polynomial scaling)."""
    return mat_mul(G_inv, mat_mul(F, G, _right_scale), _left_scale)


# -- covariant derivatives of fields ------------------------------------------------


def field_components(V: GenVectorField) -> tuple[GenForm, ...]:
    """The degree-0 extended components v^m + v^m_n dx^n m."""
    n = V.dim
    comps = []
    for m in range(1, n + 1):
        soul = OrdinaryForm(n, 1, {(s,): V.vt.entry(m, s) for s in range(1, n + 1)
                                   if not V.vt.entry(m, s).is_zero()})
        comps.append(GenForm(n, V.epsilon, 0,
                             OrdinaryForm.from_scalar(V.v.component(m)), soul))
    return tuple(comps)


def field_from_components(comps: Sequence[GenForm], epsilon: Scalar) -> GenVectorField:
    """Inverse of field_components; the inputs must be degree-0."""
    n = comps[0].dim
    v = []
    rows = []
    for comp in comps:
        if not comp.is_zero() and comp.degree != 0:
            raise ConnectionError(f"component of degree {comp.degree}, expected 0")
        v.append(comp.body.components.get((), Polynomial.zero(n)))
        rows.append([comp.soul.components.get((s,), Polynomial.zero(n))
                     for s in range(1, n + 1)])
    return GenVectorField(n, epsilon, VectorField(v), Tensor11(rows))


def cov_deriv_vf(A: GenConnection, V: GenVectorField) -> tuple[GenForm, ...]:
    """Dv^m = d v^m + A^m_n v^n, one degree-1 extended form per index."""
    if A.dim != V.dim or A.epsilon != V.epsilon:
        raise ConnectionError("dimension/epsilon mismatch")
    comps = field_components(V)
    out = []
    for m in range(A.dim):
        acc = gd(comps[m])
        for nn in range(A.dim):
            acc = acc + gwedge(A.entries[m][nn], comps[nn])
        out.append(acc)
    return tuple(out)


def cov_deriv_vf_expansion(A: GenConnection, V: GenVectorField) -> tuple[GenForm, ...]:
    """Component path:
    body = D v^m - eps v^m_n dx^n,  soul = D(v^m_n dx^n) + beta^m_n v^n,
    where D is covariant with respect to alpha."""
    n, eps = A.dim, A.epsilon
    alpha, beta = A.alpha(), A.beta()
    out = []
    for m in range(1, n + 1):
        body = ext_d(OrdinaryForm.from_scalar(V.v.component(m)))
        tensor_row = OrdinaryForm(n, 1, {(s,): V.vt.entry(m, s) for s in range(1, n + 1)
                                         if not V.vt.entry(m, s).is_zero()})
        body = body - tensor_row.scale(eps)
        soul = ext_d(tensor_row)
        for k in range(1, n + 1):
            body = body + alpha[m - 1][k - 1].scale(V.v.component(k))
            soul = soul + beta[m - 1][k - 1].scale(V.v.component(k))
            k_row = OrdinaryForm(n, 1, {(s,): V.vt.entry(k, s) for s in range(1, n + 1)
                                        if not V.vt.entry(k, s).is_zero()})
            soul = soul + wedge(alpha[m - 1][k - 1], k_row)
        out.append(GenForm(n, eps, 1, body, soul))
    return tuple(out)


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
    F = curvature_expansion(A)
    body_zero = all(e.body.is_zero() for row in F for e in row)
    soul_zero = all(e.soul.is_zero() for row in F for e in row)
    return FlatnessReport(body_zero and soul_zero, body_zero, soul_zero)


# -- metrics -----------------------------------------------------------------------


@dataclass(frozen=True)
class GenMetric:
    dim: int
    epsilon: Fraction
    entries: GenMatrix  # degree-0 extended forms, symmetric
    gamma_inv: PolyMatrix

    def gamma(self) -> PolyMatrix:
        return tuple(tuple(e.body.components.get((), Polynomial.zero(self.dim))
                           for e in row) for row in self.entries)

    def chi(self) -> FormMatrix:
        return tuple(tuple(e.soul for e in row) for row in self.entries)


def metric_validate(gamma: PolyMatrix, chi: FormMatrix, gamma_inv: PolyMatrix,
                    epsilon: Scalar) -> GenMetric:
    """Symmetry in both parts plus an exact two-sided inverse for gamma."""
    gamma, chi, gamma_inv = _as_tuple(gamma), _as_tuple(chi), _as_tuple(gamma_inv)
    n = len(gamma)
    product = mat_mul(gamma_inv, gamma, operator.mul)
    for i in range(n):
        for j in range(n):
            if gamma[i][j] != gamma[j][i]:
                raise ConnectionError(f"gamma not symmetric at ({i + 1},{j + 1})")
            if chi[i][j] != chi[j][i]:
                raise ConnectionError(f"chi not symmetric at ({i + 1},{j + 1})")
            if product[i][j] != (1 if i == j else 0):
                raise ConnectionError("gamma_inv is not an exact inverse")
    entries = _gen_matrix(n, epsilon, 0, _scalar_forms(gamma), chi)
    return GenMetric(n, Fraction(epsilon), entries, gamma_inv)


def metric_inverse(g: GenMetric) -> GenMatrix:
    """g^{mn} = gamma^{mn} - chi^{mn} m with indices raised by gamma."""
    return _gen_matrix(g.dim, g.epsilon, 0, _scalar_forms(g.gamma_inv),
                       mat_neg(_raise_both(g.gamma_inv, g.chi())))


def nonmetricity(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Q_{mn} = d g_{mn} - g_{ml} A^l_n - g_{ln} A^l_m."""
    if A.dim != g.dim or A.epsilon != g.epsilon:
        raise ConnectionError("dimension/epsilon mismatch")
    gA = mat_mul(g.entries, A.entries, gwedge)
    gtA = mat_mul(transpose(g.entries), A.entries, gwedge)
    return mat_sub(mat_sub(mat_gd(g.entries), gA), transpose(gtA))


def nonmetricity_ordinary(alpha: FormMatrix, gamma: PolyMatrix) -> FormMatrix:
    """q_{mn} = d gamma_{mn} - gamma_{ml} alpha^l_n - gamma_{ln} alpha^l_m."""
    gamma_alpha = mat_mul(gamma, alpha, _left_scale)
    gammat_alpha = mat_mul(transpose(gamma), alpha, _left_scale)
    return mat_sub(mat_sub(mat_ext_d(_scalar_forms(gamma)), gamma_alpha), transpose(gammat_alpha))


def cov_d_lowered(alpha: FormMatrix, t: FormMatrix) -> FormMatrix:
    """D t_{mn} = d t_{mn} - alpha^l_m t_{ln} - alpha^l_n t_{ml} for
    (0,2)-valued forms of any homogeneous degree."""
    alpha_t = transpose(alpha)
    first = mat_mul(alpha_t, t, wedge)  # (m, n): alpha^l_m t_{ln}
    second = mat_mul(alpha_t, transpose(t), wedge)  # (n, m): alpha^l_n t_{ml}
    return mat_sub(mat_sub(mat_ext_d(t), first), transpose(second))


def nonmetricity_expansion(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Component path: Q = (q - eps chi) + [D chi - (beta_{mn} + beta_{nm})] m
    with beta_{mn} = gamma_{ml} beta^l_n."""
    alpha = A.alpha()
    gamma, chi = g.gamma(), g.chi()
    body = mat_sub(nonmetricity_ordinary(alpha, gamma), _scale_matrix(chi, A.epsilon))
    beta_low = mat_mul(gamma, A.beta(), _left_scale)
    soul = mat_sub(mat_sub(cov_d_lowered(alpha, chi), beta_low), transpose(beta_low))
    return _gen_matrix(A.dim, A.epsilon, 1, body, soul)


def torsion(alpha: FormMatrix) -> tuple[OrdinaryForm, ...]:
    """T^m = alpha^m_n ^ dx^n; zero in the coordinate frame iff the
    Christoffel array is symmetric in its lower indices."""
    n = len(alpha)
    out = []
    for i in range(n):
        acc = OrdinaryForm.zero(n, 2)
        for j in range(1, n + 1):
            acc = acc + wedge(alpha[i][j - 1], OrdinaryForm.basis(n, (j,)))
        out.append(acc)
    return tuple(out)


def levi_civita_connection(gamma: PolyMatrix, gamma_inv: PolyMatrix) -> FormMatrix:
    """Christoffel one-forms of gamma; polynomial whenever gamma_inv is."""
    gamma, gamma_inv = _as_tuple(gamma), _as_tuple(gamma_inv)
    n = len(gamma)
    half = Fraction(1, 2)
    rows = []
    for m in range(1, n + 1):
        row = []
        for nu in range(1, n + 1):
            comps: dict[tuple[int, ...], Polynomial] = {}
            for lam in range(1, n + 1):
                acc = Polynomial.zero(n)
                for s in range(1, n + 1):
                    term = (gamma[s - 1][lam - 1].partial(nu)
                            + gamma[s - 1][nu - 1].partial(lam)
                            - gamma[nu - 1][lam - 1].partial(s))
                    acc = acc + gamma_inv[m - 1][s - 1] * term
                acc = acc * half
                if not acc.is_zero():
                    comps[(lam,)] = acc
            row.append(OrdinaryForm(n, 1, comps))
        rows.append(tuple(row))
    return tuple(rows)


# -- the compatibility constructions -------------------------------------------------


def metric_connection_eps0(gamma: PolyMatrix, chi: FormMatrix, alpha_lc: FormMatrix,
                           gamma_inv: PolyMatrix,
                           beta_tilde: FormMatrix | None = None
                           ) -> tuple[GenConnection, GenMetric]:
    """eps = 0 branch: A = alpha + (beta_tilde^m_n + D chi^m_n / 2) m.

    alpha_lc must be torsion free with q = 0 (the Levi-Civita connection of
    gamma); beta_tilde is the free antisymmetric-lowered part, zero for the
    canonical choice.  The result is verified to have exactly zero
    non-metricity.
    """
    g = metric_validate(gamma, chi, gamma_inv, 0)
    n = g.dim
    alpha_lc = _as_tuple(alpha_lc)
    if not all(t.is_zero() for t in torsion(alpha_lc)):
        raise ConnectionError("alpha_lc has torsion")
    if not mat_is_zero(nonmetricity_ordinary(alpha_lc, g.gamma())):
        raise ConnectionError("alpha_lc is not metric for gamma")
    dchi = cov_d_lowered(alpha_lc, g.chi())
    beta = mat_mul(g.gamma_inv, _scale_matrix(dchi, Fraction(1, 2)), _left_scale)
    if beta_tilde is not None:
        beta = mat_add(beta, mat_mul(g.gamma_inv, _as_tuple(beta_tilde), _left_scale))
    A = GenConnection.from_parts(alpha_lc, beta, 0)
    if not mat_is_zero(nonmetricity(A, g)):
        raise ConnectionError("construction failed: non-metricity residual nonzero")
    return A, g


def metric_connection_eps(gamma: PolyMatrix, alpha: FormMatrix,
                          gamma_inv: PolyMatrix, epsilon: Scalar,
                          beta_tilde: FormMatrix | None = None
                          ) -> tuple[GenConnection, GenMetric]:
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
    q = nonmetricity_ordinary(alpha, _as_tuple(gamma))
    chi = _scale_matrix(q, 1 / eps)
    g = metric_validate(gamma, chi, gamma_inv, eps)
    fcal = ordinary_curvature(alpha)
    fcal_low = mat_mul(_as_tuple(gamma), fcal, _left_scale)
    sym = mat_add(fcal, mat_mul(g.gamma_inv, transpose(fcal_low), _left_scale))
    beta = _scale_matrix(sym, Fraction(-1, 2) / eps)
    if beta_tilde is not None:
        beta = mat_add(beta, mat_mul(g.gamma_inv, _as_tuple(beta_tilde), _left_scale))
    A = GenConnection.from_parts(alpha, beta, eps)
    if not mat_is_zero(nonmetricity(A, g)):
        raise ConnectionError("construction failed: non-metricity residual nonzero")
    return A, g


def case_i_curvature_formula(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Claimed curvature of the eps = 0 canonical construction:
    F = F_cal + (F_cal^m_l chi^l_n - chi^m_l F_cal^l_n) m / 2."""
    fcal = ordinary_curvature(A.alpha())
    chi_up = mat_mul(g.gamma_inv, g.chi(), _left_scale)
    soul = mat_sub(mat_mul(fcal, chi_up, wedge), mat_mul(chi_up, fcal, wedge))
    return _gen_matrix(A.dim, A.epsilon, 2, fcal, _scale_matrix(soul, Fraction(1, 2)))


def case_ii_curvature_formula(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Claimed curvature of the eps != 0 canonical construction:

        body = (F_cal^m_n - gamma^{ml} F_cal_{n l}) / 2
        soul = -(q_{nl} F_cal^{lm} - q^{ml} F_cal_{nl}) / (2 eps)

    where F_cal^{lm} = F_cal^l_s gamma^{sm} and q^{ml} raises both q indices.
    The soul sign on the second term follows from expanding D beta with
    D gamma = q; the verification suite pins it against the mechanical F.
    """
    eps = A.epsilon
    gamma, gamma_inv = g.gamma(), g.gamma_inv
    alpha = A.alpha()
    fcal = ordinary_curvature(alpha)
    fcal_low = mat_mul(gamma, fcal, _left_scale)  # F_cal_{nl} = gamma_{ns} F_cal^s_l
    fcal_up = mat_mul(fcal, gamma_inv, _right_scale)  # F_cal^{lm} = F_cal^l_s gamma^{sm}
    q = nonmetricity_ordinary(alpha, gamma)
    body = mat_sub(fcal, mat_mul(gamma_inv, transpose(fcal_low), _left_scale))
    # entry (m, n) of q F_cal^.. is q_{ml} F_cal^{ln}, hence the transpose
    soul = mat_sub(transpose(mat_mul(q, fcal_up, wedge)),
                   mat_mul(_raise_both(gamma_inv, q), transpose(fcal_low), wedge))
    return _gen_matrix(A.dim, eps, 2, _scale_matrix(body, Fraction(1, 2)),
                       _scale_matrix(soul, Fraction(-1, 2) / eps))


# -- fixture loading -------------------------------------------------------------------


def matrix_of_forms_from_json(dim: int, data) -> FormMatrix:
    forms = tuple(tuple(form_from_json(cell) for cell in row) for row in _json_rows(dim, data))
    if any(f.dim != dim for row in forms for f in row):
        raise ValueError(f"matrix entries must be forms on R^{dim}")
    return forms


def poly_matrix_from_json(dim: int, data) -> PolyMatrix:
    return tuple(tuple(Polynomial.parse(dim, cell) for cell in row)
                 for row in _json_rows(dim, data))
