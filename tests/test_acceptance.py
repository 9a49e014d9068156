"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  All symbolic checks are exact; the numeric integrator checks carry the
stated tolerances."""

import json
import math
import operator
import pathlib
from fractions import Fraction

from genform.cli import connection_from_json, cover_from_json, hamiltonian_from_json, poly_matrix_from_json
from genform.cover import canonicalize, glue_validate, ideal_residual
from genform.gform import gd, gwedge
from genform.gvector import GenVectorField, gv_bracket, gv_interior, gv_lie, quaternion_triple, validate_quaternion_triple
from genform.hamiltonian import (
    gauge_shift,
    hamiltonian_vf,
    integrate_hamilton,
    max_abs_error,
    oscillator_closed_form,
    rk4_order_estimate,
)
from genform.randgen import FormRandom
from genform.exterior import mat_map
from genform.suites import run_suite
import genform.connection as conn

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SEED = 20240817


def _report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_d_squared_and_antiderivation():
    failures = 0
    trials_per_cell = 4
    for dim in (2, 3, 4):
        for eps in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)):
            for degree in range(-1, dim + 1):
                rnd = FormRandom(SEED + dim * 100 + degree, dim, eps)
                for _ in range(trials_per_cell):
                    a = rnd.genform(degree)
                    b = rnd.genform()
                    if not gd(gd(a)).is_zero():
                        failures += 1
                    rhs = gwedge(a, gd(b))
                    if a.degree % 2:
                        rhs = -rhs
                    if gd(gwedge(a, b)) != gwedge(gd(a), b) + rhs:
                        failures += 1
    _report(1, "d^2 = 0 and anti-derivation, all degrees and epsilons",
            failures == 0)


def test_criterion_02_cartan_suite():
    ok = True
    for dim in (2, 3):
        ok = ok and run_suite("cartan", dim, Fraction(1), 50, SEED)["pass"]
    _report(2, "H. Cartan identities, 4 x 50 trials", ok)


def test_criterion_03_dictionary_soundness():
    report = run_suite("super", 3, Fraction(1), 50, SEED)
    _report(3, "direct path equals superspace path for all six operations",
            report["pass"])


def test_criterion_04_extended_vector_suite():
    report = run_suite("gvector", 2, Fraction(1), 50, SEED)
    _report(4, "extended-field Leibniz/anticommutator/bracket/Jacobi laws",
            report["pass"])


def test_criterion_05_so3_example():
    js = quaternion_triple()
    validate_quaternion_triple(js)

    def scaled(j, c):
        return mat_map(lambda x: x * c, j)

    ok = True
    for eps in (Fraction(1), Fraction(2), Fraction(-1, 2)):
        vs = [GenVectorField.pure(scaled(j, Fraction(1, 2) / eps), eps) for j in js]
        table = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        for (i, j), k in table.items():
            ok = ok and gv_bracket(vs[i], vs[j]) == vs[k]
            ok = ok and (gv_bracket(vs[j], vs[i]) + vs[k]).is_zero()
    vs0 = [GenVectorField.pure(scaled(j, Fraction(1, 2)), Fraction(0)) for j in js]
    for a in vs0:
        for b in vs0:
            ok = ok and gv_bracket(a, b).is_zero()
    _report(5, "quaternionic triple: so(3) brackets / commuting at eps = 0", ok)


def test_criterion_06_hamiltonian_fixtures():
    ok = True
    for name in ("hamiltonian_n2.json", "hamiltonian_n4.json"):
        with open(FIXTURES / name) as fh:
            prob = hamiltonian_from_json(json.load(fh))
        field = hamiltonian_vf(prob)
        s = prob.symplectic.s
        ok = ok and (gv_interior(field, s) + gd(prob.hamiltonian)).is_zero()
        ok = ok and gv_lie(field, s).is_zero()
        from genform.ring import Polynomial

        shifted = gauge_shift(prob, Polynomial.var(prob.symplectic.dim, 1))
        ok = ok and (gv_interior(field, s) + gd(shifted.hamiltonian)).is_zero()
    _report(6, "Hamiltonian defining relation, invariance of s, gauge shift", ok)


def test_criterion_07_oscillator():
    traj = integrate_hamilton(Fraction(0), Fraction(1), 1, [1.0], [0.0], 5.0, 1e-3)
    err0 = max_abs_error(traj, math.cos)
    ref = oscillator_closed_form(Fraction(1, 2), Fraction(1), 1.0, 0.0)
    traj2 = integrate_hamilton(Fraction(1, 2), Fraction(1), 1, [1.0], [0.0], 5.0, 1e-3)
    err1 = max_abs_error(traj2, ref)
    order = rk4_order_estimate(Fraction(1, 2), Fraction(1), 1.0, 0.0, 5.0, 8e-3)
    ok = err0 < 1e-6 and err1 < 1e-6 and order >= 3.8
    print(f"  oscillator errors: eps=0 {err0:.2e}, damped {err1:.2e}, order {order:.3f}")
    _report(7, "oscillator trajectories within 1e-6, RK4 order >= 3.8", ok)


def test_criterion_08_connection_suite():
    report = run_suite("connection", 2, Fraction(1), 50, SEED)
    _report(8, "Bianchi, conjugation and dual-path connection identities", report["pass"])


def test_criterion_09_fundamental_theorem():
    ok = True
    with open(FIXTURES / "connection_case_i.json") as fh:
        mc = connection_from_json(json.load(fh), "i")
    ok = ok and conn.mat_is_zero(conn.nonmetricity(mc.A, mc.g))
    ok = ok and conn.mat_is_zero(conn.mat_map(operator.sub, conn.curvature(mc.A),
                                              conn.case_i_curvature_formula(mc)))

    with open(FIXTURES / "connection_case_ii.json") as fh:
        mc2 = connection_from_json(json.load(fh), "ii")
    ok = ok and conn.mat_is_zero(conn.nonmetricity(mc2.A, mc2.g))

    with open(FIXTURES / "connection_case_ii_ordinary.json") as fh:
        data = json.load(fh)
    mc3 = connection_from_json(data, "ii")
    A3, n = mc3.A, data["dim"]
    ok = ok and conn.mat_is_zero(conn.nonmetricity(A3, mc3.g))
    ok = ok and all(e.soul.is_zero() for row in A3.entries for e in row)
    F = conn.curvature(A3)
    fcal = conn.ordinary_curvature(conn.levi_civita_connection(
        poly_matrix_from_json(n, data["gamma"]), poly_matrix_from_json(n, data["gamma_inv"])))
    ok = ok and all(F[i][j].soul.is_zero() and F[i][j].body == fcal[i][j]
                    for i in range(n) for j in range(n))
    _report(9, "compatibility theorem: zero non-metricity, ordinary corollary", ok)


def test_criterion_10_appendix():
    ok = True
    with open(FIXTURES / "two_chart.json") as fh:
        cover = cover_from_json(json.load(fh))
    for chart in cover.charts:
        r1, r2 = ideal_residual(chart.theta(), chart.phi())
        ok = ok and r1.is_zero() and r2.is_zero()
    report = glue_validate(cover)
    ok = ok and report.ok and report.case == "ii"
    canon = canonicalize(cover, report, Fraction(2))  # raises unless the basis glues
    ok = ok and canon.dm_tilde == Fraction(2)
    with open(FIXTURES / "broken_triple.json") as fh:
        broken = cover_from_json(json.load(fh))
    ok = ok and not glue_validate(broken).ok
    _report(10, "ideal residuals, cocycle accept/reject, canonical dm", ok)


def test_criterion_11_determinism():
    ok = True
    for name in ("cartan", "gform"):
        ja, jb = (run_suite(name, 2, Fraction(1), 10, SEED) for _ in range(2))
        ja.pop("wall_time")
        jb.pop("wall_time")
        ok = ok and ja == jb
    _report(11, "identical seeds give identical reports", ok)
