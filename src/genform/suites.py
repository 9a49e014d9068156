"""Randomized identity suites.

Every suite is a family of exact identities: a failure at any trial is an
implementation bug, never statistical noise.  Trials are pure functions of
(seed, trial index), epsilon cycles through a fixed pool starting from the
requested base value, and the principal form degree sweeps -1..n, so a single
run covers every degree and every sign regime deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import connection as conn
from .exterior import interior, mat_mul, vf_bracket
from .gform import (
    GenForm,
    gd,
    ginterior_ordinary,
    glie_componentwise,
    glie_ordinary,
    gpullback,
    gwedge,
)
from .gvector import (
    GenVectorField,
    d_split,
    embed_generalized,
    gv_anticommutator,
    gv_anticommutator_closed_form,
    gv_bracket,
    gv_interior,
    gv_lie,
    gv_lie_expansion,
    modified_lie,
    xi_type_pair,
)
from .randgen import EPSILON_POOL, FormRandom
from .superspace import (
    SuperFunction,
    from_super,
    super_d,
    super_interior,
    super_lie,
    super_lie_expansion,
    to_super,
)

SCHEMA_VERSION = 1
SUITE_NAMES = ("cartan", "gform", "super", "gvector", "connection")


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "pass": self.passed,
            "wall_time": self.wall_time,
        }


def _epsilon_pool(base: Fraction) -> list[Fraction]:
    pool = [Fraction(base)]
    pool.extend(e for e in EPSILON_POOL if e != pool[0])
    return pool


def _trial_setup(dim: int, epsilon: Fraction, seed: int, trial: int) -> tuple[FormRandom, int]:
    pool = _epsilon_pool(epsilon)
    eps = pool[trial % len(pool)]
    rnd = FormRandom(seed * 1_000_003 + trial, dim, eps)
    degree = (trial % (dim + 2)) - 1
    return rnd, degree


def _record(report: SuiteReport, case: str, trial: int, rnd: FormRandom, residual) -> None:
    report.failures.append({
        "case": case,
        "trial": trial,
        "inputs": {"epsilon": str(rnd.epsilon), "dim": rnd.dim},
        "residual": str(residual),
    })


def _check(report: SuiteReport, case: str, trial: int, rnd: FormRandom, residual) -> None:
    zero = residual.is_zero() if hasattr(residual, "is_zero") else conn.mat_is_zero(residual)
    if not zero:
        _record(report, case, trial, rnd, residual)


# -- suites ------------------------------------------------------------------------


def suite_cartan(dim: int, epsilon: Fraction, trials: int, seed: int) -> SuiteReport:
    """The four commutation identities for ordinary fields v, w acting on
    degree-extended forms."""
    report = SuiteReport("cartan", trials)
    start = time.perf_counter()
    for trial in range(trials):
        rnd, degree = _trial_setup(dim, epsilon, seed, trial)
        a = rnd.genform(degree)
        v, w = rnd.vector_field(), rnd.vector_field()
        vw = vf_bracket(v, w)
        _check(report, "interior_anticommute", trial, rnd,
               ginterior_ordinary(v, ginterior_ordinary(w, a))
               + ginterior_ordinary(w, ginterior_ordinary(v, a)))
        _check(report, "d_lie_commute", trial, rnd,
               gd(glie_ordinary(v, a)) - glie_ordinary(v, gd(a)))
        _check(report, "lie_lie_bracket", trial, rnd,
               glie_ordinary(v, glie_ordinary(w, a))
               - glie_ordinary(w, glie_ordinary(v, a)) - glie_ordinary(vw, a))
        _check(report, "lie_interior_bracket", trial, rnd,
               glie_ordinary(v, ginterior_ordinary(w, a))
               - ginterior_ordinary(w, glie_ordinary(v, a)) - ginterior_ordinary(vw, a))
    report.wall_time = time.perf_counter() - start
    return report


def suite_gform(dim: int, epsilon: Fraction, trials: int, seed: int) -> SuiteReport:
    """Algebra and derivative laws of the extended forms themselves."""
    report = SuiteReport("gform", trials)
    start = time.perf_counter()
    for trial in range(trials):
        rnd, degree = _trial_setup(dim, epsilon, seed, trial)
        a = rnd.genform(degree)
        b = rnd.genform()
        c = rnd.genform()
        v = rnd.vector_field()
        _check(report, "d_squared", trial, rnd, gd(gd(a)))
        lhs = gd(gwedge(a, b)) - gwedge(gd(a), b)
        rhs = gwedge(a, gd(b))
        if a.degree % 2:
            rhs = -rhs
        _check(report, "antiderivation", trial, rnd, lhs - rhs)
        ba = gwedge(b, a)
        if (a.degree * b.degree) % 2:
            ba = -ba
        _check(report, "graded_commutativity", trial, rnd, gwedge(a, b) - ba)
        _check(report, "associativity", trial, rnd,
               gwedge(gwedge(a, b), c) - gwedge(a, gwedge(b, c)))
        _check(report, "lie_componentwise", trial, rnd,
               glie_ordinary(v, a) - glie_componentwise(v, a))
        _check(report, "lie_leibniz", trial, rnd,
               glie_ordinary(v, gwedge(a, b))
               - gwedge(glie_ordinary(v, a), b) - gwedge(a, glie_ordinary(v, b)))
        a0 = rnd.genform(0)
        diff = ginterior_ordinary(v, gd(a0)) - glie_ordinary(v, a0)
        expected_body = interior(v, a0.soul).scale(-rnd.epsilon)
        _check(report, "degree0_interior_vs_lie", trial, rnd, diff.body - expected_body)
        phi = [rnd.poly() for _ in range(dim)]
        _check(report, "pullback_morphism", trial, rnd,
               gpullback(phi, gwedge(a, b)) - gwedge(gpullback(phi, a), gpullback(phi, b)))
        _check(report, "pullback_d_commute", trial, rnd,
               gpullback(phi, gd(a)) - gd(gpullback(phi, a)))
        m = GenForm.minus_one(dim, rnd.epsilon)
        _check(report, "pullback_preserves_m", trial, rnd, gpullback(phi, m) - m)
        _check(report, "unit", trial, rnd, gwedge(a, GenForm.one(dim, rnd.epsilon)) - a)
        _check(report, "m_squared", trial, rnd, gwedge(m, m))
        _check(report, "interior_kills_m", trial, rnd, ginterior_ordinary(v, m))
        _check(report, "lie_kills_m", trial, rnd, glie_ordinary(v, m))
    report.wall_time = time.perf_counter() - start
    return report


def suite_super(dim: int, epsilon: Fraction, trials: int, seed: int) -> SuiteReport:
    """Round-trip soundness of the Grassmann representation for all six
    operations, plus the internal algebra of the representation itself."""
    report = SuiteReport("super", trials)
    start = time.perf_counter()
    for trial in range(trials):
        rnd, degree = _trial_setup(dim, epsilon, seed, trial)
        a = rnd.genform(degree)
        b = rnd.genform()
        v = rnd.vector_field()
        V = rnd.gen_vector_field()
        V_ord = GenVectorField.ordinary(v, rnd.epsilon)
        _check(report, "roundtrip", trial, rnd, from_super(to_super(a)) - a)
        _check(report, "dict_product", trial, rnd,
               from_super(to_super(a).mul(to_super(b))) - gwedge(a, b))
        _check(report, "dict_d", trial, rnd, from_super(super_d(to_super(a))) - gd(a))
        _check(report, "dict_interior_ordinary", trial, rnd,
               from_super(super_interior(V_ord, to_super(a))) - ginterior_ordinary(v, a))
        _check(report, "dict_lie_ordinary", trial, rnd,
               from_super(super_lie(V_ord, to_super(a))) - glie_ordinary(v, a))
        _check(report, "dict_gv_interior", trial, rnd,
               from_super(super_interior(V, to_super(a))) - gv_interior(V, a))
        _check(report, "dict_gv_lie", trial, rnd,
               from_super(super_lie(V, to_super(a))) - gv_lie(V, a))
        f = rnd.superfunction()
        _check(report, "lie_expansion", trial, rnd,
               super_lie(V, f) - super_lie_expansion(V, f))
        _check(report, "lie_expansion_ordinary", trial, rnd,
               super_lie(V_ord, f) - super_lie_expansion(V_ord, f))
        g = rnd.superfunction()
        h = rnd.superfunction()
        _check(report, "grassmann_associativity", trial, rnd,
               f.mul(g).mul(h) - f.mul(g.mul(h)))
        fe = _even_part(f)
        go = _odd_part(g)
        _check(report, "grassmann_commutativity", trial, rnd,
               fe.mul(go) - go.mul(fe))
        fo = _odd_part(f)
        _check(report, "grassmann_anticommutativity", trial, rnd,
               fo.mul(go) + go.mul(fo))
    report.wall_time = time.perf_counter() - start
    return report


def _even_part(f):
    return SuperFunction(f.dim, f.epsilon,
                         {m: c for m, c in f.terms.items() if bin(m).count("1") % 2 == 0})


def _odd_part(f):
    return SuperFunction(f.dim, f.epsilon,
                         {m: c for m, c in f.terms.items() if bin(m).count("1") % 2 == 1})


def suite_gvector(dim: int, epsilon: Fraction, trials: int, seed: int) -> SuiteReport:
    """Interior, Lie and bracket laws for degree-extended vector fields."""
    report = SuiteReport("gvector", trials)
    start = time.perf_counter()
    for trial in range(trials):
        rnd, degree = _trial_setup(dim, epsilon, seed, trial)
        a = rnd.genform(degree)
        b = rnd.genform()
        V = rnd.gen_vector_field()
        W = rnd.gen_vector_field()
        U = rnd.gen_vector_field()
        lhs = gv_interior(V, gwedge(a, b)) - gwedge(gv_interior(V, a), b)
        rhs = gwedge(a, gv_interior(V, b))
        if a.degree % 2:
            rhs = -rhs
        _check(report, "interior_leibniz", trial, rnd, lhs - rhs)
        _check(report, "anticommutator_closed_form", trial, rnd,
               gv_anticommutator(V, W, a) - gv_anticommutator_closed_form(V, W, a))
        xi = [rnd.form(2) for _ in range(dim)]
        Vx, Wx = xi_type_pair(rnd.vector_field(), rnd.vector_field(), xi, rnd.epsilon)
        _check(report, "xi_pair_anticommute", trial, rnd, gv_anticommutator(Vx, Wx, a))
        _check(report, "bracket_defining_relation", trial, rnd,
               gv_lie(V, gv_lie(W, a)) - gv_lie(W, gv_lie(V, a))
               - gv_lie(gv_bracket(V, W), a))
        jac = (gv_bracket(U, gv_bracket(V, W)) + gv_bracket(V, gv_bracket(W, U))
               + gv_bracket(W, gv_bracket(U, V)))
        if not jac.is_zero():
            _record(report, "jacobi", trial, rnd, jac)
        _check(report, "lie_leibniz", trial, rnd,
               gv_lie(V, gwedge(a, b)) - gwedge(gv_lie(V, a), b) - gwedge(a, gv_lie(V, b)))
        _check(report, "lie_expansion", trial, rnd, gv_lie(V, a) - gv_lie_expansion(V, a))
        v = rnd.vector_field()
        V_ord = GenVectorField.ordinary(v, rnd.epsilon)
        _check(report, "reduces_to_ordinary_interior", trial, rnd,
               gv_interior(V_ord, a) - ginterior_ordinary(v, a))
        _check(report, "reduces_to_ordinary_lie", trial, rnd,
               gv_lie(V_ord, a) - glie_ordinary(v, a))
        w = rnd.vector_field()
        W_ord = GenVectorField.ordinary(w, rnd.epsilon)
        bracket = gv_bracket(V_ord, W_ord)
        if not (bracket.vt.is_zero() and bracket.v == vf_bracket(v, w)):
            _record(report, "reduces_to_ordinary_bracket", trial, rnd, bracket)
        d0, d1 = d_split(a)
        _check(report, "d_split_recomposition", trial, rnd,
               gd(a) - d0 - d1.scale(rnd.epsilon))
        Ve = embed_generalized(v, rnd.poly(), rnd.epsilon)
        _check(report, "modified_lie_scalar_case", trial, rnd,
               modified_lie(Ve, a)
               - (gv_lie(Ve, a) - _cartan_d0(Ve.pure_part(), a)))
        V0 = embed_generalized(v, 0, rnd.epsilon)
        _check(report, "embed_zero_reduces", trial, rnd,
               modified_lie(V0, a) - glie_ordinary(v, a))
    report.wall_time = time.perf_counter() - start
    return report


def _cartan_d0(pure: GenVectorField, a: GenForm) -> GenForm:
    d0a = d_split(a)[0]
    inner = gv_interior(pure, a)
    return d_split(inner)[0] + gv_interior(pure, d0a)


def suite_connection(dim: int, epsilon: Fraction, trials: int, seed: int) -> SuiteReport:
    """Curvature, Bianchi, covariant-derivative and metric-compatibility
    identities, each computed along two independent paths."""
    report = SuiteReport("connection", trials)
    start = time.perf_counter()
    for trial in range(trials):
        rnd, _ = _trial_setup(dim, epsilon, seed, trial)
        A = rnd.connection()
        F = conn.curvature(A)
        _check(report, "curvature_expansion", trial, rnd,
               conn.mat_sub(F, conn.curvature_expansion(A)))
        _check(report, "bianchi", trial, rnd, conn.bianchi_residual(A))
        _check(report, "bianchi_via_cov_d", trial, rnd, conn.cov_ext_d_tensor(A, F))
        G, G_inv = rnd.unipotent()
        A2 = conn.transform_connection(A, G, G_inv)
        _check(report, "curvature_conjugation", trial, rnd,
               conn.mat_sub(conn.curvature(A2), conn.conjugate_matrix(F, G, G_inv)))
        V = rnd.gen_vector_field()
        direct = conn.cov_deriv_vf(A, V)
        expanded = conn.cov_deriv_vf_expansion(A, V)
        residual = [d - e for d, e in zip(direct, expanded)]
        if any(not r.is_zero() for r in residual):
            _record(report, "cov_deriv_expansion", trial, rnd,
                    [str(r) for r in residual])
        gamma, gamma_inv = rnd.metric_pieces()
        chi = rnd.symmetric_one_forms()
        g = conn.metric_validate(gamma, chi, gamma_inv, rnd.epsilon)
        _check(report, "nonmetricity_expansion", trial, rnd,
               conn.mat_sub(conn.nonmetricity(A, g), conn.nonmetricity_expansion(A, g)))
        g_up = conn.metric_inverse(g)
        one, zero = GenForm.one(dim, rnd.epsilon), GenForm.zero(dim, rnd.epsilon)
        eye = tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))
        for left, right in ((g_up, g.entries), (g.entries, g_up)):
            _check(report, "metric_inverse_two_sided", trial, rnd,
                   conn.mat_sub(mat_mul(left, right, gwedge), eye))
    report.wall_time = time.perf_counter() - start
    return report


SUITES = {
    "cartan": suite_cartan,
    "gform": suite_gform,
    "super": suite_super,
    "gvector": suite_gvector,
    "connection": suite_connection,
}


def run_suites(names, dim: int, epsilon: Fraction, trials: int, seed: int) -> list[SuiteReport]:
    return [SUITES[name](dim, epsilon, trials, seed) for name in names]
