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
re-verified exactly after construction.

The numeric side integrates the reduced equations of the scalar-extension
example,  dq/dt = dh/dp,  dp/dt = -(dh/dq - 2 eps v0 p),  with classical RK4.
One step is straight-line Python generated from the float plans
(``Polynomial.float_plan``) of the 2l partials of h and compiled once per h
(``_rk4_step``): one statement per term in ``eval_float``'s arithmetic, so the
states are bit for bit those of per-component evaluation.  The loop calls it
once per step with the constants dt / 2 and dt / 6.  ``oscillator_hamiltonian``
is built once per l, and ``max_l`` bounds l by the memory of the longest
l = 1 run.  The order estimate compares the errors of two step sizes and
gives no order when the finer error is below that run's rounding floor
(steps times the ulp of its largest |state|).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exterior import (
    OrdinaryForm,
    Tensor11,
    VectorField,
    _json_dim,
    _json_field,
    _json_rows,
    ext_d,
    form_from_json,
    interior,
    mat_mul,
    poincare_antiderivative,
    transpose,
)
from .gform import GenForm, gd
from .gvector import GenVectorField, gv_interior
from .ring import Polynomial, Scalar, parse_rational, poly_dot


class SymplecticError(ValueError):
    pass


def _antisymmetric_matrix(form: OrdinaryForm) -> list[list[Polynomial]]:
    """The coefficient matrix T_ab of a 2-form stored on the increasing basis,
    extended antisymmetrically."""
    n = form.dim
    rows = [[Polynomial.zero(n)] * n for _ in range(n)]
    for (a, b), coeff in form.components.items():
        rows[a - 1][b - 1], rows[b - 1][a - 1] = coeff, -coeff
    return rows


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
    """Check degree, even dimension, closure and the inverse convention
    W^{ag} Omega_{bg} = delta^a_b; raise SymplecticError otherwise."""
    n = s.dim
    if n % 2:
        raise SymplecticError(f"dimension {n} is odd")
    if s.degree != 2:
        raise SymplecticError(f"degree {s.degree} != 2")
    if not gd(s).is_zero():
        raise SymplecticError("form is not closed")
    inv = tuple(tuple(row) for row in omega_inv)
    if len(inv) != n or any(len(row) != n for row in inv):
        raise SymplecticError("inverse matrix has wrong shape")
    omega = _antisymmetric_matrix(s.body)
    product = mat_mul(inv, transpose(omega), poly_dot)  # W^{ag} Omega_{bg}
    for a, row in enumerate(product, start=1):
        for b, entry in enumerate(row, start=1):
            if entry != (1 if a == b else 0):
                raise SymplecticError(f"inverse check failed at entry ({a},{b})")
    return GenSymplectic(s, inv)


@dataclass(frozen=True)
class GenHamiltonianProblem:
    symplectic: GenSymplectic
    hamiltonian: GenForm  # degree-0: h + k m

    def __post_init__(self):
        if self.hamiltonian.degree != 0:
            raise SymplecticError("hamiltonian must be a degree-0 extended form")
        if (self.hamiltonian.dim != self.symplectic.dim
                or self.hamiltonian.epsilon != self.symplectic.epsilon):
            raise SymplecticError("dimension/epsilon mismatch")


def is_kernel_field(W: GenVectorField, s: GenSymplectic) -> bool:
    """Pure fields annihilating s under the interior product."""
    if not W.is_pure():
        return False
    return gv_interior(W, s.s).is_zero()


def hamiltonian_vf(prob: GenHamiltonianProblem) -> GenVectorField:
    """Construct the kernel-free representative of V_H and re-verify the
    defining relation i_{V_H} s + dH = 0 exactly."""
    s = prob.symplectic
    n = s.dim
    dH = gd(prob.hamiltonian)  # body dh - eps k, soul dk
    zero = Polynomial.zero(n)
    v = Tensor11(s.omega_inv).apply(
        VectorField([-dH.body.components.get((b,), zero) for b in range(1, n + 1)]))
    S = _antisymmetric_matrix((interior(v, s.s.soul) + dH.soul).scale(Fraction(1, 2)))
    vt = mat_mul(s.omega_inv, transpose(S), poly_dot)  # W^{ag} S_{bg}
    field = GenVectorField(n, s.epsilon, v, Tensor11(vt))

    residual = gv_interior(field, s.s) + dH
    if not residual.is_zero():
        raise SymplecticError(f"defining relation violated: residual {residual}")
    return field


def gauge_shift(prob: GenHamiltonianProblem, l: Polynomial) -> GenHamiltonianProblem:
    """Replace H by H + d(l m); shifts (h, k) -> (h + eps l, k + dl)."""
    shift = gd(GenForm(prob.hamiltonian.dim, prob.hamiltonian.epsilon, -1,
                       soul=OrdinaryForm.from_scalar(l)))
    return GenHamiltonianProblem(prob.symplectic, prob.hamiltonian + shift)


def embedded_consistency_check(s: GenSymplectic, H: GenForm, v0: Polynomial) -> None:
    """Precondition for V_H to be a scalar-extended field on an ordinary
    symplectic form: requires s pure-body, dk = 2 v0 Omega, and v0 constant
    when dim > 2."""
    if not s.s.soul.is_zero():
        raise SymplecticError("embedded case needs an ordinary symplectic form")
    dk = ext_d(H.soul)
    if dk != s.s.body.scale(v0 * 2):
        raise SymplecticError("dk != 2 v0 Omega")
    if s.dim > 2 and not v0.is_constant():
        raise SymplecticError("v0 must be constant in dimension > 2")


def recover_hamiltonian(s: GenSymplectic, field: GenVectorField) -> GenForm:
    """Invert  i_X s = -dK  for K = h' + k' m by explicit integration on the
    star-shaped chart (homotopy inverse of d); raises if i_X s is not exact."""
    w = gv_interior(field, s.s)
    n, eps = s.dim, s.epsilon
    soul_target = -w.soul
    if not ext_d(soul_target).is_zero():
        raise SymplecticError("soul of i_X s is not closed")
    k_prime = poincare_antiderivative(soul_target)
    body_target = -w.body + k_prime.scale(eps)
    if not ext_d(body_target).is_zero():
        raise SymplecticError("body candidate is not closed")
    h_prime = poincare_antiderivative(body_target)
    K = GenForm(n, eps, 0, h_prime, k_prime)
    if not (w + gd(K)).is_zero():
        raise SymplecticError("recovered zero-form fails the defining relation")
    return K


# -- numeric integration ---------------------------------------------------------


class IntegrationError(RuntimeError):
    pass


MAX_STEPS = 1_000_000  # steps of one integration, every state kept in memory


def step_count(t_end: float, dt: float) -> int:
    """round(t_end / dt), the number of fixed steps: ValueError unless t_end
    and dt are positive and finite and the count is in 1..MAX_STEPS."""
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    ratio = t_end / dt
    if not 0.5 < ratio <= MAX_STEPS + 0.5:  # round: 0.5 -> 0, MAX_STEPS + 0.5 -> even MAX_STEPS
        raise ValueError(f"t_end / dt = {ratio:.6g} does not round to 1..{MAX_STEPS} steps")
    return round(ratio)


def max_l(steps: int) -> int:
    """The largest l of an oscillator run of ``steps`` steps that fits the
    memory of the longest l = 1 run, 2 * (MAX_STEPS + 1) floats.  The run
    keeps (steps + 1) states of 2l floats; h and its 2l partials keep 4l
    monomials packing 2l 16-bit exponents each, at most the size of 2 l^2
    floats, so l is also at most isqrt(MAX_STEPS + 1)."""
    return min((MAX_STEPS + 1) // (steps + 1), math.isqrt(MAX_STEPS + 1))


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


@functools.cache
def oscillator_hamiltonian(l: int) -> Polynomial:
    """h = sum over a of ((q^a)^2 + (p_a)^2) / 2 in coordinates q1..ql,p1..pl,
    built once per l (a Polynomial is immutable)."""
    n = 2 * l
    h = Polynomial.zero(n)
    for i in range(1, n + 1):
        h = h + Polynomial.var(n, i) * Polynomial.var(n, i) * Fraction(1, 2)
    return h


def _row_lines(target: str, plan, x: str, dq: bool, row: int) -> list[str]:
    """Statements that bind ``target`` to one row of the right-hand side at
    the point named x0, x1, ... (prefix ``x``): ``float_plan``'s sum from 0.0,
    one accumulate statement per term, each term its coefficient times x[i]
    (e = 1) or x[i] ** e left to right; a dp row is then -total +
    damping * x[row]."""
    total = target if dq else "t"
    lines, partial_sum = [], "0.0"
    for value, powers in plan:
        factors = "".join(f" * {x}{i}" if e == 1 else f" * {x}{i} ** {e}" for i, e in powers)
        lines.append(f"{total} = {partial_sum} + {value!r}{factors}")
        partial_sum = total
    if not lines:
        lines.append(f"{total} = 0.0")
    if not dq:
        lines.append(f"{target} = -t + damping * {x}{row}")
    return lines


def _rk4_source(h: Polynomial) -> str:
    """Source of ``step(x0, .., x{n-1}, half, dt, sixth, damping)``, one
    classical RK4 step of dq = dh/dp, dp = -(dh/dq - damping p) written out
    from the float plans of h's partials: the dq rows dh/dp_a first, then the
    dp rows dh/dq_a.  Stage k's slopes are k0, k1, .. (k in a, b, c, d); each
    stage input s + half * k or s + dt * k is bound once, to y0, y1, .."""
    n = h.dim
    l = n // 2
    plans = [h.partial(i).float_plan for i in (*range(l + 1, n + 1), *range(1, l + 1))]
    args = ", ".join(f"x{i}" for i in range(n))
    lines = [f"def step({args}, half, dt, sixth, damping):"]
    point = "x"
    for stage, scale in (("a", "half"), ("b", "half"), ("c", "dt"), ("d", None)):
        for row, plan in enumerate(plans):
            lines += _row_lines(f"{stage}{row}", plan, point, row < l, row)
        if scale:
            lines += [f"y{i} = x{i} + {scale} * {stage}{i}" for i in range(n)]
            point = "y"
    updates = ", ".join(f"x{i} + sixth * (a{i} + 2 * b{i} + 2 * c{i} + d{i})" for i in range(n))
    lines.append(f"return ({updates},)")
    return "\n    ".join(lines) + "\n"


@functools.cache
def _rk4_step(h: Polynomial) -> Callable[..., tuple[float, ...]]:
    """The RK4 step of ``_rk4_source(h)``, compiled once per h."""
    namespace: dict = {}
    exec(compile(_rk4_source(h), "<rk4 step>", "exec"), namespace)
    return namespace["step"]


def integrate_hamilton(epsilon: Scalar, v0: Scalar, l: int,
                       q0: Sequence[float], p0: Sequence[float],
                       t_end: float, dt: float,
                       h: Polynomial | None = None) -> Trajectory:
    """Classical fixed-step RK4 for dq = dh/dp, dp = -(dh/dq - 2 eps v0 p),
    each step one call of h's compiled step (see the module docstring).  A
    step whose state, or a power inside it, leaves the float range raises
    IntegrationError."""
    steps = step_count(t_end, dt)
    if len(q0) != l or len(p0) != l:
        raise ValueError("initial state length mismatch")
    n = 2 * l
    if h is None:
        h = oscillator_hamiltonian(l)
    if h.dim != n:
        raise ValueError(f"hamiltonian dimension {h.dim} != {n}")
    damping = 2.0 * float(Fraction(epsilon)) * float(Fraction(v0))
    step = _rk4_step(h)
    half, sixth = 0.5 * dt, dt / 6.0  # 0.5 * dt * d is (0.5 * dt) * d
    state = tuple(float(x) for x in (*q0, *p0))
    times = [0.0]
    states = [state]
    for count in range(1, steps + 1):
        try:
            state = step(*state, half, dt, sixth, damping)
            finite = all(map(math.isfinite, state))
        except OverflowError:  # x ** e past the float range, for e >= 2
            finite = False
        if not finite:
            raise IntegrationError(f"state overflow at t = {count * dt:.6g}")
        times.append(count * dt)
        states.append(state)
    return Trajectory(l, times, states)


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


def energy(traj: Trajectory, index: int) -> float:
    state = traj.states[index]
    return 0.5 * sum(x * x for x in state)


# -- fixture loading -------------------------------------------------------------


def problem_from_json(data: dict) -> GenHamiltonianProblem:
    """Schema: dim, epsilon, omega (form JSON), upsilon (form JSON),
    omega_inv (matrix of poly strings), h (poly string), k (list of poly
    strings)."""
    n = _json_dim(data)
    eps = parse_rational(_json_field(data, "epsilon", str))
    omega = form_from_json(_json_field(data, "omega", dict))
    upsilon = form_from_json(data["upsilon"]) if "upsilon" in data else OrdinaryForm.zero(n, 3)
    s = GenForm(n, eps, 2, omega, upsilon)
    inv = [[Polynomial.parse(n, t) for t in row]
           for row in _json_rows(n, _json_field(data, "omega_inv", list))]
    sympl = symplectic_validate(s, inv)
    h = Polynomial.parse(n, _json_field(data, "h", str))
    k = _json_field(data, "k", list)
    if len(k) != n:
        raise ValueError(f"k must list {n} polynomials")
    soul = OrdinaryForm(n, 1, {(b,): Polynomial.parse(n, t) for b, t in enumerate(k, start=1)})
    hamiltonian = GenForm(n, eps, 0, OrdinaryForm.from_scalar(h), soul)
    return GenHamiltonianProblem(sympl, hamiltonian)
