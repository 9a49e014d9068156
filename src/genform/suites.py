"""Randomized identity suites.

Every suite is a family of exact identities: a failure at any trial is an
implementation bug, never statistical noise.  A suite is a per-trial body
``body(rnd, degree, check)`` that draws its inputs from ``rnd`` and hands each
identity to ``check``: its two sides as ``check(case, lhs, rhs)``, or its
residual as ``check(case, residual)`` where the identity says an expression
vanishes (d d a, m m, i_v m, the Jacobi sum, an anticommutator, a Bianchi
residual).  A trial is ``run_trial(name, dim, epsilon, seed, trial)``: the
list of its failure records, a function of those arguments alone.
``run_suite`` concatenates the records of trials 0..trials-1 in trial order
into the suite's report.  Epsilon cycles through a fixed pool starting from
the requested base value, and the principal form degree sweeps -1..n, so a
single run covers every degree and every sign regime deterministically.

One rule decides every check.  Two sides hold when they are structurally
equal; only sides that differ are subtracted, to give the residual lhs - rhs
of the failure record.  A residual holds when it is zero: a matrix (a tuple
of rows) when every entry is, anything else by its own ``.is_zero()``.  An
exception raised by an engine call, such as the dimension or epsilon mismatch
of a subtraction, ends its trial with a failure record of case
``"exception"``; the later trials still run.

A trial computes each value once: a value that more than one check reads
(i_w a, L_v a, d a, a b, the pullback of a, [V, W], to_super(a), the
curvature and its component path) is bound to one local and read from there.
Two rules keep the checks what they were: the draws from ``rnd`` and the
checks keep their order, and no intermediate that an identity is about is
shared between the two sides of one check, so each side is still computed on
its own path.  The connection suite deletes its curvatures and its
transformed connection after their last check, so that they are not held
through the metric products, where a dim-4 trial peaks in memory.
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction
from typing import Callable

from . import connection as conn
from .exterior import interior, mat_identity, mat_is_zero, mat_map, mat_mul, transpose, vf_bracket
from .gform import (
    GenForm,
    gd,
    ginterior_ordinary,
    glie_componentwise,
    glie_ordinary,
    gpullback,
    gwedge,
    gwedge_dot,
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


def _record(failures: list[dict], case: str, trial: int, rnd: FormRandom, residual) -> None:
    failures.append({
        "case": case,
        "trial": trial,
        "inputs": {"epsilon": str(rnd.epsilon), "dim": rnd.dim},
        "residual": str(residual),
    })


def _check(failures: list[dict], case: str, trial: int, rnd: FormRandom, lhs,
           rhs=None) -> None:
    """Record the residual of one identity unless it holds.  Given two sides,
    the identity holds when they are structurally equal, and no residual is
    built; sides that differ give the residual lhs - rhs (``mat_map(operator.sub, ...)``
    for a matrix, a tuple of rows).  Given one, lhs is the residual.  A residual is
    recorded unless it is zero: a matrix when every entry is, anything else by
    its own ``.is_zero()``."""
    if rhs is not None:
        if lhs == rhs:
            return
        lhs = mat_map(operator.sub, lhs, rhs) if isinstance(lhs, tuple) else lhs - rhs
    if not (mat_is_zero(lhs) if isinstance(lhs, tuple) else lhs.is_zero()):
        _record(failures, case, trial, rnd, lhs)


def run_trial(name: str, dim: int, epsilon: Fraction, seed: int, trial: int) -> list[dict]:
    """The failure records of one trial of suite ``name``, in check order; a
    function of its arguments alone.  An exception raised by the suite's body
    ends the trial with one record of case ``"exception"``."""
    body = SUITES[name]
    failures: list[dict] = []
    rnd, degree = _trial_setup(dim, epsilon, seed, trial)

    def check(case: str, lhs, rhs=None) -> None:
        _check(failures, case, trial, rnd, lhs, rhs)

    try:
        body(rnd, degree, check)
    except Exception as exc:
        _record(failures, "exception", trial, rnd, f"{type(exc).__name__}: {exc}")
    return failures


def run_suite(name: str, dim: int, epsilon: Fraction, trials: int, seed: int) -> dict:
    """The report of trials 0..trials-1 of suite ``name``: their failure
    records concatenated in trial order."""
    start = time.perf_counter()
    failures = [f for trial in range(trials) for f in run_trial(name, dim, epsilon, seed, trial)]
    return {
        "schema": SCHEMA_VERSION,
        "suite": name,
        "trials": trials,
        "failures": failures,
        "pass": not failures,
        "wall_time": time.perf_counter() - start,
    }


# -- suites ------------------------------------------------------------------------


def suite_cartan(rnd: FormRandom, degree: int, check: Callable) -> None:
    """The four commutation identities for ordinary fields v, w acting on
    degree-extended forms."""
    a = rnd.genform(degree)
    v, w = rnd.vector_field(), rnd.vector_field()
    vw = vf_bracket(v, w)
    iw_a, lv_a = ginterior_ordinary(w, a), glie_ordinary(v, a)
    check("interior_anticommute",
          ginterior_ordinary(v, iw_a) + ginterior_ordinary(w, ginterior_ordinary(v, a)))
    check("d_lie_commute", gd(lv_a), glie_ordinary(v, gd(a)))
    check("lie_lie_bracket",
          glie_ordinary(v, glie_ordinary(w, a)) - glie_ordinary(w, lv_a), glie_ordinary(vw, a))
    check("lie_interior_bracket",
          glie_ordinary(v, iw_a) - ginterior_ordinary(w, lv_a), ginterior_ordinary(vw, a))


def suite_gform(rnd: FormRandom, degree: int, check: Callable) -> None:
    """Algebra and derivative laws of the extended forms themselves."""
    dim = rnd.dim
    a = rnd.genform(degree)
    b = rnd.genform()
    c = rnd.genform()
    v = rnd.vector_field()
    da, ab, lv_a = gd(a), gwedge(a, b), glie_ordinary(v, a)
    check("d_squared", gd(da))
    lhs = gd(ab) - gwedge(da, b)
    rhs = gwedge(a, gd(b))
    if a.degree % 2:
        rhs = -rhs
    check("antiderivation", lhs, rhs)
    ba = gwedge(b, a)
    if (a.degree * b.degree) % 2:
        ba = -ba
    check("graded_commutativity", ab, ba)
    check("associativity", gwedge(ab, c), gwedge(a, gwedge(b, c)))
    check("lie_componentwise", lv_a, glie_componentwise(v, a))
    check("lie_leibniz", glie_ordinary(v, ab) - gwedge(lv_a, b), gwedge(a, glie_ordinary(v, b)))
    a0 = rnd.genform(0)
    diff = ginterior_ordinary(v, gd(a0)) - glie_ordinary(v, a0)
    expected_body = interior(v, a0.soul).scale(-rnd.epsilon)
    check("degree0_interior_vs_lie", diff.body, expected_body)
    phi = [rnd.poly() for _ in range(dim)]
    phi_a = gpullback(phi, a)
    check("pullback_morphism", gpullback(phi, ab), gwedge(phi_a, gpullback(phi, b)))
    check("pullback_d_commute", gpullback(phi, da), gd(phi_a))
    m = GenForm.minus_one(dim, rnd.epsilon)
    check("pullback_preserves_m", gpullback(phi, m), m)
    check("unit", gwedge(a, GenForm.one(dim, rnd.epsilon)), a)
    check("m_squared", gwedge(m, m))
    check("interior_kills_m", ginterior_ordinary(v, m))
    check("lie_kills_m", glie_ordinary(v, m))


def suite_super(rnd: FormRandom, degree: int, check: Callable) -> None:
    """Round-trip soundness of the Grassmann representation for all six
    operations, plus the internal algebra of the representation itself."""
    a = rnd.genform(degree)
    b = rnd.genform()
    v = rnd.vector_field()
    V = rnd.gen_vector_field()
    V_ord = GenVectorField.ordinary(v, rnd.epsilon)
    sa = to_super(a)
    check("roundtrip", from_super(sa), a)
    check("dict_product", from_super(sa.mul(to_super(b))), gwedge(a, b))
    check("dict_d", from_super(super_d(sa)), gd(a))
    check("dict_interior_ordinary",
          from_super(super_interior(V_ord, sa)), ginterior_ordinary(v, a))
    check("dict_lie_ordinary", from_super(super_lie(V_ord, sa)), glie_ordinary(v, a))
    check("dict_gv_interior", from_super(super_interior(V, sa)), gv_interior(V, a))
    check("dict_gv_lie", from_super(super_lie(V, sa)), gv_lie(V, a))
    f = rnd.superfunction()
    check("lie_expansion", super_lie(V, f), super_lie_expansion(V, f))
    check("lie_expansion_ordinary", super_lie(V_ord, f), super_lie_expansion(V_ord, f))
    g = rnd.superfunction()
    h = rnd.superfunction()
    check("grassmann_associativity", f.mul(g).mul(h), f.mul(g.mul(h)))
    fe = _part(f, 0)
    go = _part(g, 1)
    check("grassmann_commutativity", fe.mul(go), go.mul(fe))
    fo = _part(f, 1)
    check("grassmann_anticommutativity", fo.mul(go) + go.mul(fo))


def _part(f: SuperFunction, parity: int) -> SuperFunction:
    """The even (parity 0) or odd (parity 1) monomials of f."""
    return SuperFunction(f.dim, f.epsilon,
                         {m: c for m, c in f.terms.items() if bin(m).count("1") % 2 == parity})


def suite_gvector(rnd: FormRandom, degree: int, check: Callable) -> None:
    """Interior, Lie and bracket laws for degree-extended vector fields."""
    a = rnd.genform(degree)
    b = rnd.genform()
    V = rnd.gen_vector_field()
    W = rnd.gen_vector_field()
    U = rnd.gen_vector_field()
    ab = gwedge(a, b)
    lhs = gv_interior(V, ab) - gwedge(gv_interior(V, a), b)
    rhs = gwedge(a, gv_interior(V, b))
    if a.degree % 2:
        rhs = -rhs
    check("interior_leibniz", lhs, rhs)
    check("anticommutator_closed_form",
          gv_anticommutator(V, W, a), gv_anticommutator_closed_form(V, W, a))
    xi = [rnd.form(2) for _ in range(rnd.dim)]
    Vx, Wx = xi_type_pair(rnd.vector_field(), rnd.vector_field(), xi, rnd.epsilon)
    check("xi_pair_anticommute", gv_anticommutator(Vx, Wx, a))
    LV_a, VW = gv_lie(V, a), gv_bracket(V, W)
    check("bracket_defining_relation",
          gv_lie(V, gv_lie(W, a)) - gv_lie(W, LV_a), gv_lie(VW, a))
    check("jacobi",
          gv_bracket(U, VW) + gv_bracket(V, gv_bracket(W, U)) + gv_bracket(W, gv_bracket(U, V)))
    check("lie_leibniz", gv_lie(V, ab) - gwedge(LV_a, b), gwedge(a, gv_lie(V, b)))
    check("lie_expansion", LV_a, gv_lie_expansion(V, a))
    v = rnd.vector_field()
    V_ord = GenVectorField.ordinary(v, rnd.epsilon)
    lv_a = glie_ordinary(v, a)
    check("reduces_to_ordinary_interior", gv_interior(V_ord, a), ginterior_ordinary(v, a))
    check("reduces_to_ordinary_lie", gv_lie(V_ord, a), lv_a)
    w = rnd.vector_field()
    W_ord = GenVectorField.ordinary(w, rnd.epsilon)
    check("reduces_to_ordinary_bracket",
          gv_bracket(V_ord, W_ord), GenVectorField.ordinary(vf_bracket(v, w), rnd.epsilon))
    d0, d1 = d_split(a)
    check("d_split_recomposition", gd(a) - d0, d1.scale(rnd.epsilon))
    # closed form for vt = v0 * identity: L^hat_V a = L_v a - eps v0 (p body
    # + (p + 1) soul m), from linearity in V and dx^r ^ i_{d/dx^r} rho = deg(rho) rho
    v0 = rnd.poly()
    p = a.degree
    weighted = GenForm(rnd.dim, rnd.epsilon, p, a.body.scale(p), a.soul.scale(p + 1))
    check("modified_lie_scalar_case",
          modified_lie(embed_generalized(v, v0, rnd.epsilon), a),
          lv_a - weighted.scale(v0 * rnd.epsilon))
    V0 = embed_generalized(v, 0, rnd.epsilon)
    check("embed_zero_reduces", modified_lie(V0, a), lv_a)


def suite_connection(rnd: FormRandom, degree: int, check: Callable) -> None:
    """Curvature, Bianchi, covariant-derivative and metric-compatibility
    identities, each computed along two independent paths; every residual is
    a matrix."""
    dim = rnd.dim
    A = rnd.connection()
    F, F_parts = conn.curvature(A), conn.curvature_expansion(A)
    check("curvature_expansion", F, F_parts)
    check("bianchi", conn.bianchi_residual(A, F_parts))
    del F_parts
    check("bianchi_via_cov_d", conn.cov_ext_d_tensor(A, F))
    G, G_inv = rnd.unipotent()
    A2 = conn.transform_connection(A, G, G_inv)
    check("curvature_conjugation", conn.curvature(A2), conn.conjugate_matrix(F, G, G_inv))
    del F, A2
    V = rnd.gen_vector_field()
    check("cov_deriv_expansion",
          (conn.cov_deriv_vf(A, V),), (conn.cov_deriv_vf_expansion(A, V),))
    gamma, gamma_inv = rnd.metric_pieces()
    chi = rnd.symmetric_one_forms()
    g = conn.metric_validate(gamma, chi, gamma_inv, rnd.epsilon)
    check("nonmetricity_expansion", conn.nonmetricity(A, g), conn.nonmetricity_expansion(A, g))
    g_up = conn.metric_inverse(g)
    eye = mat_identity(dim, GenForm.one(dim, rnd.epsilon), GenForm.zero(dim, rnd.epsilon))
    # g is symmetric and its degree-0 entries commute, so g_up = g_up^T makes
    # g g_up = (g_up g)^T: the one product g_up g = I checks both sides
    check("metric_inverse_two_sided", mat_mul(g_up, g.entries, gwedge_dot), eye)
    check("metric_inverse_symmetric", g_up, transpose(g_up))


SUITES = {"cartan": suite_cartan, "gform": suite_gform, "super": suite_super,
          "gvector": suite_gvector, "connection": suite_connection}
SUITE_NAMES = tuple(SUITES)
