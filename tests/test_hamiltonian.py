import json
import math
import pathlib
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genform.cli import hamiltonian_from_json
from genform.exterior import OrdinaryForm, VectorField, ext_d, mat_identity, mat_is_zero
from genform.gform import GenForm, gd
from genform.gvector import GenVectorField, gv_bracket, gv_interior, gv_lie
from genform.hamiltonian import (
    GenHamiltonianProblem,
    gauge_shift,
    hamiltonian_vf,
    integrate_hamilton,
    max_abs_error,
    oscillator_closed_form,
    recover_hamiltonian,
    rk4_order_estimate,
    step_count,
    symplectic_validate,
)
from genform.randgen import FormRandom
from genform.ring import InputError, Polynomial
from test_exterior import coordinate_field
from test_ring import eval_float

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def standard_omega(n=2):
    """dp ^ dq with x1 = q, x2 = p: components {(1,2): -1}."""
    return OrdinaryForm(n, 2, {(1, 2): Polynomial.const(n, -1)})


def standard_inverse(n=2):
    z, o = Polynomial.zero(n), Polynomial.one(n)
    return [[z, -o], [o, z]]


def oscillator_h(l):
    """h = sum over a of ((q^a)^2 + (p_a)^2) / 2 on q1..ql, p1..pl."""
    n = 2 * l
    return Polynomial(n, {tuple(2 * (j == i) for j in range(n)): Fraction(1, 2)
                          for i in range(n)})


def make_problem(eps, h, k_comps):
    n = 2
    s = GenForm(n, eps, 2, standard_omega(n), OrdinaryForm.zero(n, 3))
    sympl = symplectic_validate(s, standard_inverse(n))
    soul = OrdinaryForm(n, 1, {(i,): c for i, c in enumerate(k_comps, start=1)
                               if not c.is_zero()})
    H = GenForm(n, eps, 0, OrdinaryForm.from_scalar(h), soul)
    return GenHamiltonianProblem(sympl, H)


def test_validate_accepts_constant_omega():
    n = 2
    for eps in (Fraction(0), Fraction(1)):
        s = GenForm(n, eps, 2, standard_omega(n), OrdinaryForm.zero(n, 3))
        sympl = symplectic_validate(s, standard_inverse(n))
        assert sympl.dim == 2


def test_validate_rejects_upsilon_off_closure():
    # eps = 1 with d(omega) = 0 forces Upsilon = 0; a nonzero soul fails
    n = 4
    omega = OrdinaryForm(n, 2, {(1, 3): Polynomial.const(n, -1),
                                (2, 4): Polynomial.const(n, -1)})
    upsilon = OrdinaryForm(n, 3, {(1, 2, 3): Polynomial.one(n)})
    s = GenForm(n, Fraction(1), 2, omega, upsilon)
    z, o = Polynomial.zero(n), Polynomial.one(n)
    w = [[z, z, -o, z], [z, z, z, -o], [o, z, z, z], [z, o, z, z]]
    with pytest.raises(InputError):
        symplectic_validate(s, w)


def test_validate_rejects_odd_dim_and_bad_inverse():
    n = 3
    s = GenForm(n, Fraction(0), 2, OrdinaryForm(n, 2, {(1, 2): Polynomial.one(n)}),
                OrdinaryForm.zero(n, 3))
    with pytest.raises(InputError):
        symplectic_validate(s, [[Polynomial.zero(n)] * n] * n)
    n = 2
    s2 = GenForm(n, Fraction(0), 2, standard_omega(n), OrdinaryForm.zero(n, 3))
    with pytest.raises(InputError):
        symplectic_validate(s2, [[Polynomial.one(n)] * n] * n)


def test_validate_rejects_omega_inv_entries_of_another_dim():
    # a 2 x 2 omega_inv of polynomials in 3 variables is bad input, not a
    # dimension mismatch in the product of the inverse check
    n = 2
    s = GenForm(n, Fraction(0), 2, standard_omega(n), OrdinaryForm.zero(n, 3))
    z, o = Polynomial.zero(3), Polynomial.one(3)
    with pytest.raises(InputError, match="omega_inv entries must have dim 2"):
        symplectic_validate(s, [[z, o], [-o, z]])


def test_validate_rejects_not_closed():
    n = 4
    x4 = Polynomial.var(n, 4)
    omega = OrdinaryForm(n, 2, {(1, 2): x4, (1, 3): Polynomial.one(n),
                                (2, 4): Polynomial.one(n)})
    s = GenForm(n, Fraction(0), 2, omega, OrdinaryForm.zero(n, 3))  # d omega != 0
    with pytest.raises(InputError):
        symplectic_validate(s, [[Polynomial.zero(n)] * n] * n)


def is_kernel_field(W: GenVectorField, s: GenForm) -> bool:
    """A pure field (v = 0) that annihilates s under the interior product."""
    return W.v.is_zero() and gv_interior(W, s).is_zero()


def test_kernel_fields():
    n = 2
    eps = Fraction(1)
    s = GenForm(n, eps, 2, standard_omega(n), OrdinaryForm.zero(n, 3))
    sympl = symplectic_validate(s, standard_inverse(n))
    zero = GenVectorField.pure(mat_identity(n, Polynomial.zero(n), Polynomial.zero(n)), eps)
    assert is_kernel_field(zero, s)
    ordinary = GenVectorField.ordinary(coordinate_field(n, 1), eps)
    assert not is_kernel_field(ordinary, s)
    # build a nonzero kernel field from a symmetric S: w^a_b = W^{ag} S_{bg}
    rnd = FormRandom(5, n, eps)
    w_inv = sympl.omega_inv
    sym = [[rnd.poly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            sym[i][j] = sym[j][i]
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            acc = Polynomial.zero(n)
            for g in range(n):
                acc = acc + w_inv[a][g] * sym[b][g]
            row.append(acc)
        rows.append(row)
    W = GenVectorField.pure(rows, eps)
    assert not W.is_zero() and is_kernel_field(W, s)


def test_classical_hamiltonian_field():
    h = oscillator_h(1)
    prob = make_problem(Fraction(0), h, [Polynomial.zero(2), Polynomial.zero(2)])
    field = hamiltonian_vf(prob)
    # V = p d/dq - q d/dp
    assert field.v == VectorField([Polynomial.var(2, 2), -Polynomial.var(2, 1)])
    assert mat_is_zero(field.vt)
    assert gv_lie(field, prob.symplectic.s).is_zero()


def test_constant_hamiltonian_gives_zero_field():
    prob = make_problem(Fraction(1), Polynomial.const(2, 5),
                        [Polynomial.zero(2), Polynomial.zero(2)])
    assert hamiltonian_vf(prob).is_zero()


def test_defining_relation_random():
    for eps in (Fraction(0), Fraction(1), Fraction(-2)):
        rnd = FormRandom(11, 2, eps)
        for _ in range(10):
            prob = make_problem(eps, rnd.poly(), [rnd.poly(), rnd.poly()])
            field = hamiltonian_vf(prob)
            assert (gv_interior(field, prob.symplectic.s)
                    + gd(prob.hamiltonian)).is_zero()
            assert gv_lie(field, prob.symplectic.s).is_zero()


def test_defining_relation_random_dim4():
    n = 4
    omega = OrdinaryForm(n, 2, {(1, 3): Polynomial.const(n, -1),
                                (2, 4): Polynomial.const(n, -1)})
    z, o = Polynomial.zero(n), Polynomial.one(n)
    w_inv = [[z, z, -o, z], [z, z, z, -o], [o, z, z, z], [z, o, z, z]]
    for eps in (Fraction(0), Fraction(1)):
        s = GenForm(n, eps, 2, omega, OrdinaryForm.zero(n, 3))
        sympl = symplectic_validate(s, w_inv)
        rnd = FormRandom(29, n, eps)
        for _ in range(5):
            soul = OrdinaryForm(n, 1, {(i,): rnd.poly() for i in range(1, n + 1)})
            H = GenForm(n, eps, 0, OrdinaryForm.from_scalar(rnd.poly()), soul)
            prob = GenHamiltonianProblem(sympl, H)
            field = hamiltonian_vf(prob)
            assert (gv_interior(field, s) + gd(H)).is_zero()
            assert gv_lie(field, s).is_zero()


def test_gauge_shift():
    eps = Fraction(1)
    rnd = FormRandom(13, 2, eps)
    prob = make_problem(eps, rnd.poly(), [rnd.poly(), rnd.poly()])
    field = hamiltonian_vf(prob)
    l = rnd.poly()
    shifted = gauge_shift(prob, l)
    # (h, k) -> (h + eps*l, k + dl)
    assert shifted.hamiltonian.body == prob.hamiltonian.body + OrdinaryForm.from_scalar(l * eps)
    assert shifted.hamiltonian.soul == prob.hamiltonian.soul + ext_d(OrdinaryForm.from_scalar(l))
    # the same field still solves the shifted problem
    assert (gv_interior(field, shifted.symplectic.s)
            + gd(shifted.hamiltonian)).is_zero()


def test_embedded_simplification_case():
    # Omega ordinary, v0 constant, k = 2 v0 p dq: V_H is the embedded field
    eps = Fraction(1)
    v0 = Fraction(1)
    h = oscillator_h(1)
    k1 = Polynomial.var(2, 2) * (2 * v0)  # 2 v0 p dq
    prob = make_problem(eps, h, [k1, Polynomial.zero(2)])
    s = prob.symplectic.s
    assert s.soul.is_zero() and ext_d(prob.hamiltonian.soul) == s.body.scale(2 * v0)
    field = hamiltonian_vf(prob)
    v0_found = field.scalar_extension()
    assert v0_found == Polynomial.const(2, v0)
    # v = dh/dp d_q - (dh/dq - 2 eps v0 p) d_p
    q, p = Polynomial.var(2, 1), Polynomial.var(2, 2)
    assert field.v == VectorField([p, -q + p * (2 * eps * v0)])


def test_embedded_consistency_rejects_bad_k():
    # k = q dq is closed, so dk != 2 v0 Omega and V_H is not the v0 = 1 field
    eps = Fraction(1)
    prob = make_problem(eps, oscillator_h(1),
                        [Polynomial.var(2, 1), Polynomial.zero(2)])
    assert ext_d(prob.hamiltonian.soul) != prob.symplectic.s.body.scale(2)
    assert hamiltonian_vf(prob).scalar_extension() != Polynomial.const(2, 1)


def test_embedded_consistency_requires_constant_v0_in_higher_dim():
    # dk = 2 v0 Omega needs d(v0 Omega) = dv0 ^ Omega = 0: for v0 = x1 that
    # holds at dim 2 and fails at dim 4
    minus = Polynomial.const(4, -1)
    for omega in (standard_omega(2), OrdinaryForm(4, 2, {(1, 3): minus, (2, 4): minus})):
        v0 = Polynomial.var(omega.dim, 1)
        assert ext_d(omega.scale(2 * v0)).is_zero() == (omega.dim == 2)


def test_bracket_of_hamiltonian_fields_is_hamiltonian():
    # recover the zero-form for [V_H, V_G] by explicit integration
    for eps in (Fraction(0), Fraction(1)):
        rnd = FormRandom(17, 2, eps)
        for _ in range(5):
            prob_h = make_problem(eps, rnd.poly(), [rnd.poly(), rnd.poly()])
            prob_g = make_problem(eps, rnd.poly(), [rnd.poly(), rnd.poly()])
            vh = hamiltonian_vf(prob_h)
            vg = hamiltonian_vf(prob_g)
            bracket = gv_bracket(vh, vg)
            K = recover_hamiltonian(prob_h.symplectic, bracket)
            assert (gv_interior(bracket, prob_h.symplectic.s) + gd(K)).is_zero()


def test_fixture_n2_and_n4():
    for name in ("hamiltonian_n2.json", "hamiltonian_n4.json"):
        with open(FIXTURES / name) as fh:
            prob = hamiltonian_from_json(json.load(fh))
        field = hamiltonian_vf(prob)
        assert (gv_interior(field, prob.symplectic.s) + gd(prob.hamiltonian)).is_zero()
        assert gv_lie(field, prob.symplectic.s).is_zero()


def test_oscillator_trajectory_epsilon_zero():
    traj = integrate_hamilton(Fraction(0), Fraction(1), 1, [1.0], [0.0], 5.0, 1e-3)
    assert max_abs_error(traj, math.cos) < 1e-6


def test_oscillator_trajectory_damped():
    ref = oscillator_closed_form(Fraction(1, 2), Fraction(1), 1.0, 0.0)
    traj = integrate_hamilton(Fraction(1, 2), Fraction(1), 1, [1.0], [0.0], 5.0, 1e-3)
    assert max_abs_error(traj, ref) < 1e-6


def test_rk4_convergence_order():
    order = rk4_order_estimate(Fraction(1, 2), Fraction(1), 1.0, 0.0, 5.0, 8e-3)
    assert order >= 3.8


def test_damping_sign_controls_energy():
    grow = integrate_hamilton(Fraction(1), Fraction(1, 4), 1, [1.0], [0.0], 5.0, 1e-2)
    decay = integrate_hamilton(Fraction(-1), Fraction(1, 4), 1, [1.0], [0.0], 5.0, 1e-2)

    def energy(traj, index):  # h = (q^2 + p^2) / 2
        return sum(x * x for x in traj.states[index]) / 2

    assert energy(grow, -1) > energy(grow, 0)
    assert energy(decay, -1) < energy(decay, 0)


def test_multi_dof_and_csv():
    traj = integrate_hamilton(Fraction(0), Fraction(0), 2, [1.0, 0.5], [0.0, 0.0],
                              1.0, 1e-2)
    lines = traj.csv_lines()
    assert lines[0] == "t,q1,q2,p1,p2"
    assert len(lines) == 102


def test_integration_argument_errors():
    with pytest.raises(ValueError):
        integrate_hamilton(Fraction(0), Fraction(0), 1, [1.0], [0.0], 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate_hamilton(Fraction(0), Fraction(0), 2, [1.0], [0.0], 1.0, 0.1)


# -- the RK4 loop against per-component evaluation of h's partials -----------------


def integrate_hamilton_reference(epsilon, v0, l, q0, p0, t_end, dt):
    """RK4 on the whole state with the slopes read from h itself: every stage
    calls ``eval_float`` (test_ring.py) on h's partials once per component,
    so the oracle shares nothing with the integrator's written-out slopes."""
    steps = step_count(t_end, dt)
    n = 2 * l
    damping = 2.0 * float(Fraction(epsilon)) * float(Fraction(v0))
    dh = [oscillator_h(l).partial(i) for i in range(1, n + 1)]

    def rhs(state):
        dq = [eval_float(dh[l + a], state) for a in range(l)]
        dp = [-eval_float(dh[a], state) + damping * state[l + a] for a in range(l)]
        return dq + dp

    state = list(q0) + list(p0)
    times = [0.0]
    states = [tuple(state)]
    for step in range(steps):
        k1 = rhs(state)
        k2 = rhs([s + 0.5 * dt * d for s, d in zip(state, k1)])
        k3 = rhs([s + 0.5 * dt * d for s, d in zip(state, k2)])
        k4 = rhs([s + dt * d for s, d in zip(state, k3)])
        state = [s + dt / 6.0 * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        if not all(math.isfinite(x) for x in state):
            raise InputError(f"integration failed: state overflow at t = {(step + 1) * dt:.6g}")
        times.append((step + 1) * dt)
        states.append(tuple(state))
    return times, states


def _outcome(integrate, *args):
    """Times and the exact bits of every state (the sign of zero included),
    or the exception's type and message."""
    try:
        times, states = integrate(*args)
    except InputError as exc:
        return type(exc), str(exc)
    return times, [struct.pack(f"<{len(s)}d", *s) for s in states]


def _integrate(*args):
    traj = integrate_hamilton(*args)
    return traj.times, traj.states


# Starts near the largest float overflow within the drawn runs (damping up to
# 8 grows a state by up to e^24 over t <= 3), so the error message is compared too.
coords = st.one_of(st.sampled_from((0, 0.0, -0.0)), st.integers(-2, 2),
                   st.floats(-2, 2, allow_nan=False),
                   st.sampled_from((1e300, -1e300, sys.float_info.max)))
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def _assert_bit_identical(*args):
    outcome = _outcome(_integrate, *args)
    assert outcome == _outcome(integrate_hamilton_reference, *args)
    return outcome


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rk4_is_bit_identical_to_per_component_reference(data):
    l = data.draw(st.sampled_from((1, 2, 3)))
    epsilon, v0 = data.draw(small_rationals), data.draw(small_rationals)
    q0 = data.draw(st.lists(coords, min_size=l, max_size=l))
    p0 = data.draw(st.lists(coords, min_size=l, max_size=l))
    dt = data.draw(st.sampled_from((0.01, 0.05, 0.1, 0.25)))
    t_end = data.draw(st.integers(1, 12)) * dt
    _assert_bit_identical(epsilon, v0, l, q0, p0, t_end, dt)


def test_overflow_is_reported_at_the_first_step_of_any_pair():
    """The pairs run one after another: the first, from 1e300, overflows at
    t = 2.5 and the second, from 1e307, at t = 0.5, which the error names."""
    outcome = _assert_bit_identical(Fraction(2), Fraction(2), 3, [1e300, 1e307, 1.0],
                                    [0.0, 0.0, 0.0], 3.0, 0.25)
    assert outcome == (InputError, "integration failed: state overflow at t = 0.5")
    assert _outcome(_integrate, 2, 2, 1, [1e300], [0.0], 3.0, 0.25) == (
        InputError, "integration failed: state overflow at t = 2.5")
