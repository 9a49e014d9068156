"""Degree-extended symplectic structures and their Hamiltonian fields.

s = Omega + Upsilon m is a closed, non-degenerate two-form (closure forces
Upsilon = d(Omega)/eps when eps != 0).  For a zero-form H = h + k m the field
V_H solves  i_{V_H} s = -dH  modulo kernel fields; in components

    v^a   = W^{ab} (eps k_b - d_b h)
    v^a_b = W^{ag} S_{bg},   S_{bg} = (v^m Y_{mbg} + d_b k_g - d_g k_b) / 2

with W the inverse of Omega (convention W^{ag} Omega_{bg} = delta^a_b) and
Y the totally antisymmetric coefficient array of Upsilon.  So eps k - dh is
the body of -dH, and S is the antisymmetric coefficient matrix of the two-form
(i_v Upsilon + dk) / 2.  The returned representative has zero kernel
component (v^a_b Omega_{ag} antisymmetric in b, g); the defining relation is
re-verified exactly after construction.  ``cli.hamiltonian_from_json``
reads a problem from a fixture.

The numeric side integrates the reduced equations of the scalar-extension
example,  dq/dt = dh/dp,  dp/dt = -(dh/dq - 2 eps v0 p),  with classical RK4
for the oscillator h = sum over a of ((q^a)^2 + (p_a)^2) / 2, whose slopes are
dq_a = p_a and dp_a = -q_a + 2 eps v0 p_a.  The l pairs (q^a, p_a) evolve
independently: each runs over all steps on its own (``_rk4_pair``), and the
columns are zipped into the (q1..ql, p1..pl) states.  ``max_l`` bounds l by
the memory of the longest l = 1 run.  The order estimate compares the
errors of two step sizes and gives no order when the finer error is below
that run's rounding floor (steps times the ulp of its largest |state|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exterior import (
    OrdinaryForm,
    VectorField,
    _hooks,
    ext_d,
    from_row_forms,
    interior,
    inverse_defect,
    mat_mul,
    poincare_antiderivative,
    square_matrix,
    transpose,
)
from .gform import GenForm, gd
from .gvector import GenVectorField, gv_interior
from .ring import ConstructionError, InputError, Polynomial, Scalar, poly_dot


@dataclass(frozen=True)
class GenSymplectic:
    """Validated symplectic structure with its exact inverse matrix."""

    s: GenForm
    omega_inv: tuple[tuple[Polynomial, ...], ...]

    @property
    def dim(self) -> int:
        return self.s.dim

    @property
    def epsilon(self) -> Fraction:
        return self.s.epsilon


def symplectic_validate(s: GenForm, omega_inv: Sequence[Sequence[Polynomial]]) -> GenSymplectic:
    """Check degree, even dimension, omega_inv's shape and entry dim, closure
    and the inverse convention W^{ag} Omega_{bg} = delta^a_b; raise
    InputError otherwise."""
    n = s.dim
    if n % 2:
        raise InputError(f"dimension {n} is odd")
    if s.degree != 2:
        raise InputError(f"degree {s.degree} != 2")
    inv = square_matrix(omega_inv, "omega_inv", InputError, n)
    if any(c.dim != n for row in inv for c in row):
        raise InputError(f"omega_inv entries must have dim {n}")
    if not gd(s).is_zero():
        raise InputError("form is not closed")
    omega = from_row_forms(_hooks(s.body))  # hook a of T is T_ab dx^b
    defect = inverse_defect(inv, transpose(omega))  # W^{ag} Omega_{bg}
    if defect is not None:
        raise InputError("inverse check failed at entry ({},{})".format(*defect))
    return GenSymplectic(s, inv)


@dataclass(frozen=True)
class GenHamiltonianProblem:
    symplectic: GenSymplectic
    hamiltonian: GenForm  # degree-0: h + k m

    def __post_init__(self):
        if self.hamiltonian.degree != 0:
            raise InputError("hamiltonian must be a degree-0 extended form")
        GenForm._require_compatible(self.symplectic, self.hamiltonian, InputError)


def hamiltonian_vf(prob: GenHamiltonianProblem) -> GenVectorField:
    """Construct the kernel-free representative of V_H and re-verify the
    defining relation i_{V_H} s + dH = 0 exactly."""
    s = prob.symplectic
    n = s.dim
    dH = gd(prob.hamiltonian)  # body dh - eps k, soul dk
    zero = Polynomial.zero(n)
    minus_dh = [-dH.body.components.get((b,), zero) for b in range(1, n + 1)]
    v = VectorField([poly_dot(row, minus_dh) for row in s.omega_inv])
    half = (interior(v, s.s.soul) + dH.soul).scale(Fraction(1, 2))  # hook b is S_bg dx^g
    S = from_row_forms(_hooks(half))
    vt = mat_mul(s.omega_inv, transpose(S), poly_dot)  # W^{ag} S_{bg}
    field = GenVectorField(n, s.epsilon, v, vt)

    residual = gv_interior(field, s.s) + dH
    if not residual.is_zero():
        raise ConstructionError(f"defining relation violated: residual {residual}")
    return field


def gauge_shift(prob: GenHamiltonianProblem, l: Polynomial) -> GenHamiltonianProblem:
    """Replace H by H + d(l m); shifts (h, k) -> (h + eps l, k + dl)."""
    shift = gd(GenForm(prob.hamiltonian.dim, prob.hamiltonian.epsilon, -1,
                       soul=OrdinaryForm.from_scalar(l)))
    return GenHamiltonianProblem(prob.symplectic, prob.hamiltonian + shift)


def recover_hamiltonian(s: GenSymplectic, field: GenVectorField) -> GenForm:
    """Invert  i_X s = -dK  for K = h' + k' m by explicit integration on the
    star-shaped chart (homotopy inverse of d); raises if i_X s is not exact."""
    w = gv_interior(field, s.s)
    n, eps = s.dim, s.epsilon
    soul_target = -w.soul
    if not ext_d(soul_target).is_zero():
        raise ConstructionError("soul of i_X s is not closed")
    k_prime = poincare_antiderivative(soul_target)
    body_target = -w.body + k_prime.scale(eps)
    if not ext_d(body_target).is_zero():
        raise ConstructionError("body candidate is not closed")
    h_prime = poincare_antiderivative(body_target)
    K = GenForm(n, eps, 0, h_prime, k_prime)
    if not (w + gd(K)).is_zero():
        raise ConstructionError("recovered zero-form fails the defining relation")
    return K


# -- numeric integration ---------------------------------------------------------


MAX_STEPS = 1_000_000  # steps of one integration, every state kept in memory


def step_count(t_end: float, dt: float) -> int:
    """round(t_end / dt), the number of fixed steps: InputError unless t_end
    and dt are positive and finite and the count is in 1..MAX_STEPS."""
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise InputError("dt and t_end must be positive and finite")
    ratio = t_end / dt
    if not 0.5 < ratio <= MAX_STEPS + 0.5:  # round: 0.5 -> 0, MAX_STEPS + 0.5 -> even MAX_STEPS
        raise InputError(f"t_end / dt = {ratio:.6g} does not round to 1..{MAX_STEPS} steps")
    return round(ratio)


def max_l(steps: int) -> int:
    """The largest l of an oscillator run of ``steps`` steps that fits the
    memory of the longest l = 1 run, 2 * (MAX_STEPS + 1) floats: the run
    keeps (steps + 1) states of 2l floats."""
    return (MAX_STEPS + 1) // (steps + 1)


@dataclass
class Trajectory:
    l: int
    times: list[float]
    states: list[tuple[float, ...]]  # (q1..ql, p1..pl)

    def csv_lines(self) -> list[str]:
        header = "t," + ",".join(f"q{i + 1}" for i in range(self.l)) \
            + "," + ",".join(f"p{i + 1}" for i in range(self.l))
        row = "%.10g" + ",%.12g" * (2 * self.l)
        return [header] + [row % (t, *state) for t, state in zip(self.times, self.states)]


def _rk4_pair(q: float, p: float, steps: int, dt: float,
              damping: float) -> tuple[list[float], list[float]]:
    """The q and p columns of one pair over ``steps`` classical RK4 steps of
    dq = p, dp = -q + damping p, ending at the first state that is not
    finite.  Each slope is summed from 0.0, so a -0.0 slope reads +0.0: the
    ``0.0 +`` keeps the bits of the golden oscillator CSVs."""
    half, sixth = 0.5 * dt, dt / 6.0  # 0.5 * dt * d is (0.5 * dt) * d
    qs, ps = [q], [p]
    for _ in range(steps):
        a0, a1 = 0.0 + p, -(0.0 + q) + damping * p
        y0, y1 = q + half * a0, p + half * a1
        b0, b1 = 0.0 + y1, -(0.0 + y0) + damping * y1
        y0, y1 = q + half * b0, p + half * b1
        c0, c1 = 0.0 + y1, -(0.0 + y0) + damping * y1
        y0, y1 = q + dt * c0, p + dt * c1
        d0, d1 = 0.0 + y1, -(0.0 + y0) + damping * y1
        q = q + sixth * (a0 + 2 * b0 + 2 * c0 + d0)
        p = p + sixth * (a1 + 2 * b1 + 2 * c1 + d1)
        qs.append(q)
        ps.append(p)
        if not (math.isfinite(q) and math.isfinite(p)):
            break
    return qs, ps


def integrate_hamilton(epsilon: Scalar, v0: Scalar, l: int,
                       q0: Sequence[float], p0: Sequence[float],
                       t_end: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 for the oscillator h = sum of (q_a^2 + p_a^2) / 2:
    dq_a = p_a, dp_a = -q_a + 2 eps v0 p_a (see the module docstring).  The
    first step whose state leaves the float range raises InputError."""
    steps = step_count(t_end, dt)
    if len(q0) != l or len(p0) != l:
        raise ValueError("initial state length mismatch")
    damping = 2.0 * float(Fraction(epsilon)) * float(Fraction(v0))
    columns, overflow = [], False  # q1, p1, q2, p2, ..
    for q, p in zip(q0, p0):
        columns += _rk4_pair(float(q), float(p), steps, dt, damping)
        if not (math.isfinite(columns[-2][-1]) and math.isfinite(columns[-1][-1])):
            steps, overflow = len(columns[-1]) - 1, True  # later pairs need not run past it
    if overflow:
        raise InputError(f"integration failed: state overflow at t = {steps * dt:.6g}")
    states = list(zip(*columns[::2], *columns[1::2]))
    columns.clear()  # free the columns before the times are built
    return Trajectory(l, [count * dt for count in range(steps + 1)], states)


def oscillator_closed_form(epsilon: Scalar, v0: Scalar,
                           q0: float, p0: float) -> Callable[[float], float]:
    """Solution of q'' - 2 a q' + q = 0, a = eps*v0, with q(0) = q0,
    q'(0) = p0: underdamped for |a| < 1, critical for |a| = 1 (decided
    exactly) and overdamped for |a| > 1."""
    a_exact = abs(Fraction(epsilon) * Fraction(v0))
    a = float(Fraction(epsilon)) * float(Fraction(v0))
    if a_exact == 1:
        return lambda t: math.exp(a * t) * (q0 + (p0 - a * q0) * t)
    if a_exact > 1:
        omega = math.sqrt(a * a - 1.0)
        return lambda t: math.exp(a * t) * (q0 * math.cosh(omega * t)
                                            + (p0 - a * q0) / omega * math.sinh(omega * t))
    omega = math.sqrt(1.0 - a * a)
    return lambda t: math.exp(a * t) * (q0 * math.cos(omega * t)
                                        + (p0 - a * q0) / omega * math.sin(omega * t))


def max_abs_error(traj: Trajectory, reference: Callable[[float], float],
                  component: int = 0) -> float:
    return max(abs(state[component] - reference(t))
               for t, state in zip(traj.times, traj.states))


def rk4_order_estimate(epsilon: Scalar, v0: Scalar, q0: float, p0: float,
                       t_end: float, dt: float) -> float | None:
    """log2 of the error ratio between steps dt and dt / 2, ~4 for RK4.

    None when the fine run's error is below its rounding floor, its step
    count times the ulp of its largest |state| (subnormal states included):
    errors that small are rounding, not truncation, and their ratio says
    nothing about the order.  An exactly zero error, or a zero coarse one,
    leaves no ratio either."""
    ref = oscillator_closed_form(epsilon, v0, q0, p0)
    err_coarse = max_abs_error(
        integrate_hamilton(epsilon, v0, 1, [q0], [p0], t_end, dt), ref)
    fine = integrate_hamilton(epsilon, v0, 1, [q0], [p0], t_end, dt / 2)
    err_fine = max_abs_error(fine, ref)
    floor = (len(fine.times) - 1) * math.ulp(max(abs(x) for state in fine.states for x in state))
    if err_fine < floor or err_coarse == 0:
        return None
    return math.log2(err_coarse / err_fine)

