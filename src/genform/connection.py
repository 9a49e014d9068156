"""Degree-extended affine connections, curvature and metric compatibility.

A connection is an n x n matrix A of degree-1 extended forms, A = alpha +
beta m with alpha ordinary one-forms and beta two-forms.  Everything here is
computed twice where a closed-form expansion exists: once from the matrix
definition (F = dA + A A, Q = dg - gA - Ag, ...) and once from the expanded
body/soul component formulas, and the two paths must agree exactly.

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

from .exterior import OrdinaryForm, Tensor11, VectorField, ext_d, form_from_json, mat_mul, wedge
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
        n = len(alpha)
        entries = tuple(
            tuple(GenForm(n, epsilon, 1, alpha[i][j], beta[i][j]) for j in range(n))
            for i in range(n))
        return cls.build(entries, epsilon)

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
    n, eps = A.dim, A.epsilon
    alpha, beta = A.alpha(), A.beta()
    fcal = ordinary_curvature(alpha)
    dbeta = cov_d_tensor_ordinary(alpha, beta, 2)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            body = fcal[i][j] + beta[i][j].scale(eps)
            row.append(GenForm(n, eps, 2, body, dbeta[i][j]))
        rows.append(tuple(row))
    return tuple(rows)


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
    n = A.dim
    G, G_inv = _as_tuple(G), _as_tuple(G_inv)
    if not (_is_identity(mat_mul(G, G_inv, operator.mul))
            and _is_identity(mat_mul(G_inv, G, operator.mul))):
        raise ConnectionError("G_inv is not an exact inverse of G")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = GenForm.zero(n, A.epsilon, 1)
            for k in range(n):
                # G^-1 dG part (ordinary one-forms)
                dg = ext_d(OrdinaryForm.from_scalar(G[k][j]))
                acc = acc + GenForm.from_ordinary(dg, A.epsilon).scale(G_inv[i][k])
                for m in range(n):
                    acc = acc + A.entries[k][m].scale(G_inv[i][k] * G[m][j])
            row.append(acc)
        rows.append(tuple(row))
    return GenConnection.build(tuple(rows), A.epsilon)


def conjugate_matrix(F: GenMatrix, G: PolyMatrix, G_inv: PolyMatrix) -> GenMatrix:
    """G^-1 F G entrywise (polynomial scaling)."""
    n = len(F)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                for m in range(n):
                    term = F[k][m].scale(G_inv[i][k] * G[m][j])
                    acc = term if acc is None else acc + term
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


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
    entries = tuple(
        tuple(GenForm(n, epsilon, 0, OrdinaryForm.from_scalar(gamma[i][j]), chi[i][j])
              for j in range(n)) for i in range(n))
    return GenMetric(n, Fraction(epsilon), entries, gamma_inv)


def metric_inverse(g: GenMetric) -> GenMatrix:
    """g^{mn} = gamma^{mn} - chi^{mn} m with indices raised by gamma."""
    n = g.dim
    chi = g.chi()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            soul = OrdinaryForm.zero(n, 1)
            for r in range(n):
                for s in range(n):
                    factor = g.gamma_inv[i][r] * g.gamma_inv[j][s]
                    if not factor.is_zero():
                        soul = soul + chi[r][s].scale(factor)
            row.append(GenForm(n, g.epsilon, 0,
                               OrdinaryForm.from_scalar(g.gamma_inv[i][j]), -soul))
        rows.append(tuple(row))
    return tuple(rows)


def nonmetricity(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Q_{mn} = d g_{mn} - g_{ml} A^l_n - g_{ln} A^l_m."""
    if A.dim != g.dim or A.epsilon != g.epsilon:
        raise ConnectionError("dimension/epsilon mismatch")
    n = A.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = gd(g.entries[i][j])
            for k in range(n):
                acc = acc - gwedge(g.entries[i][k], A.entries[k][j])
                acc = acc - gwedge(g.entries[k][j], A.entries[k][i])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def nonmetricity_ordinary(alpha: FormMatrix, gamma: PolyMatrix) -> FormMatrix:
    """q_{mn} = d gamma_{mn} - gamma_{ml} alpha^l_n - gamma_{ln} alpha^l_m."""
    n = len(gamma)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ext_d(OrdinaryForm.from_scalar(gamma[i][j]))
            for k in range(n):
                acc = acc - alpha[k][j].scale(gamma[i][k])
                acc = acc - alpha[k][i].scale(gamma[k][j])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def cov_d_lowered(alpha: FormMatrix, t: FormMatrix) -> FormMatrix:
    """D t_{mn} = d t_{mn} - alpha^l_m t_{ln} - alpha^l_n t_{ml} for
    (0,2)-valued forms of any homogeneous degree."""
    n = len(t)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ext_d(t[i][j])
            for k in range(n):
                acc = acc - wedge(alpha[k][i], t[k][j])
                acc = acc - wedge(alpha[k][j], t[i][k])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def nonmetricity_expansion(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Component path: Q = (q - eps chi) + [D chi - (beta_{mn} + beta_{nm})] m
    with beta_{mn} = gamma_{ml} beta^l_n."""
    n, eps = A.dim, A.epsilon
    alpha, beta = A.alpha(), A.beta()
    gamma, chi = g.gamma(), g.chi()
    q = nonmetricity_ordinary(alpha, gamma)
    dchi = cov_d_lowered(alpha, chi)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            body = q[i][j] - chi[i][j].scale(eps)
            soul = dchi[i][j]
            for k in range(n):
                soul = soul - beta[k][j].scale(gamma[i][k])
                soul = soul - beta[k][i].scale(gamma[j][k])
            row.append(GenForm(n, eps, 1, body, soul))
        rows.append(tuple(row))
    return tuple(rows)


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
    beta = _contract_first_index(g.gamma_inv, _scale_matrix(dchi, Fraction(1, 2)))
    if beta_tilde is not None:
        beta = mat_add(beta, _contract_first_index(g.gamma_inv, _as_tuple(beta_tilde)))
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
    n = len(alpha)
    if not all(t.is_zero() for t in torsion(alpha)):
        raise ConnectionError("alpha has torsion")
    q = nonmetricity_ordinary(alpha, _as_tuple(gamma))
    chi = _scale_matrix(q, 1 / eps)
    g = metric_validate(gamma, chi, gamma_inv, eps)
    fcal = ordinary_curvature(alpha)
    fcal_low = _contract_first_index(_as_tuple(gamma), fcal)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            sym = fcal[i][j]
            for k in range(n):
                sym = sym + fcal_low[j][k].scale(g.gamma_inv[i][k])
            row.append(sym.scale(Fraction(-1, 2) / eps))
        rows.append(tuple(row))
    beta = tuple(rows)
    if beta_tilde is not None:
        beta = mat_add(beta, _contract_first_index(g.gamma_inv, _as_tuple(beta_tilde)))
    A = GenConnection.from_parts(alpha, beta, eps)
    if not mat_is_zero(nonmetricity(A, g)):
        raise ConnectionError("construction failed: non-metricity residual nonzero")
    return A, g


def case_i_curvature_formula(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Claimed curvature of the eps = 0 canonical construction:
    F = F_cal + (F_cal^m_l chi^l_n - chi^m_l F_cal^l_n) m / 2."""
    n = A.dim
    fcal = ordinary_curvature(A.alpha())
    chi_up = _contract_first_index(g.gamma_inv, g.chi())
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            soul = OrdinaryForm.zero(n, 3)
            for k in range(n):
                soul = soul + wedge(fcal[i][k], chi_up[k][j])
                soul = soul - wedge(chi_up[i][k], fcal[k][j])
            row.append(GenForm(n, A.epsilon, 2, fcal[i][j],
                               soul.scale(Fraction(1, 2))))
        rows.append(tuple(row))
    return tuple(rows)


def case_ii_curvature_formula(A: GenConnection, g: GenMetric) -> GenMatrix:
    """Claimed curvature of the eps != 0 canonical construction:

        body = (F_cal^m_n - gamma^{ml} F_cal_{n l}) / 2
        soul = -(q_{nl} F_cal^{lm} - q^{ml} F_cal_{nl}) / (2 eps)

    where F_cal^{lm} = F_cal^l_s gamma^{sm} and q^{ml} raises both q indices.
    The soul sign on the second term follows from expanding D beta with
    D gamma = q; the verification suite pins it against the mechanical F.
    """
    n, eps = A.dim, A.epsilon
    gamma, gamma_inv = g.gamma(), g.gamma_inv
    alpha = A.alpha()
    fcal = ordinary_curvature(alpha)
    fcal_low = _contract_first_index(gamma, fcal)  # F_cal_{nl} = gamma_{ns} F_cal^s_l
    q = nonmetricity_ordinary(alpha, gamma)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            body = fcal[i][j]
            for k in range(n):
                body = body - fcal_low[j][k].scale(gamma_inv[i][k])
            body = body.scale(Fraction(1, 2))
            soul = OrdinaryForm.zero(n, 3)
            for k in range(n):
                fcal_up = OrdinaryForm.zero(n, 2)
                for s in range(n):
                    fcal_up = fcal_up + fcal[k][s].scale(gamma_inv[s][i])
                soul = soul + wedge(q[j][k], fcal_up)
                for r in range(n):
                    for s in range(n):
                        factor = gamma_inv[i][r] * gamma_inv[k][s]
                        if not factor.is_zero():
                            soul = soul - wedge(q[r][s].scale(factor), fcal_low[j][k])
            soul = soul.scale(Fraction(-1, 2) / eps)
            row.append(GenForm(n, eps, 2, body, soul))
        rows.append(tuple(row))
    return tuple(rows)


# -- small matrix utilities ----------------------------------------------------------


def _scale_matrix(m, factor):
    return tuple(tuple(x.scale(factor) for x in row) for row in m)


def _contract_first_index(metric: PolyMatrix, forms: FormMatrix) -> FormMatrix:
    """sum_k metric_ik forms_kj: raises the first index with gamma_inv and
    lowers it with gamma."""
    n = len(metric)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = OrdinaryForm.zero(n, forms[0][0].degree)
            for k in range(n):
                if not metric[i][k].is_zero():
                    acc = acc + forms[k][j].scale(metric[i][k])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


# -- fixture loading -------------------------------------------------------------------


def matrix_of_forms_from_json(dim: int, data) -> FormMatrix:
    return tuple(tuple(form_from_json(cell) for cell in row) for row in data)


def poly_matrix_from_json(dim: int, data) -> PolyMatrix:
    return tuple(tuple(Polynomial.parse(dim, cell) for cell in row) for row in data)
