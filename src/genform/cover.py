"""Global structure of the exterior derivative: dm = theta - phi m.

d squares to zero iff the pair (theta, phi) satisfies the closed ideal
d theta + theta phi = 0, d phi = 0.  On a chart every solution is
phi = d xi, theta = tau exp(-xi) for a constant tau, so a cover is described
by per-chart data (xi_I, tau_I) plus overlap constants tau_IJ with

    xi_I - xi_J = tau_IJ,   tau_I = tau_J exp(tau_IJ),
    tau_IJ + tau_JK + tau_KI = 0  on triples.

Charts here share one global coordinate system (every overlap is everywhere),
which keeps each gluing condition an exact identity in the exponential-
polynomial ring: the content of the construction is the combinatorics of the
constants, not chart topology.  tau values are restricted to r * e^s with
rational r, s, for which syntactic ExpPoly equality is also analytically
faithful.

Rescaling m by c_I^-1 exp(xi_I) produces a single global basis: d m-tilde = 0
when every tau_I vanishes (case i), and with c_I = tau_I / eps it equals the
constant eps (case ii), recovering the constant-derivative calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exterior import OrdinaryForm, _json_dim, _json_field, ext_d, wedge
from .gform import GenForm
from .ring import ExpPoly, Polynomial, Scalar, format_rational, parse_rational


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class ExpConstant:
    """r * e^s with rational r, s; the exact constants the gluing needs."""

    r: Fraction
    s: Fraction

    def is_zero(self) -> bool:
        return self.r == 0

    def times_exp(self, shift: Fraction) -> "ExpConstant":
        return ExpConstant(self.r, self.s + shift)

    def scale(self, factor: Fraction) -> "ExpConstant":
        return ExpConstant(self.r * factor, self.s)

    def inverse(self) -> "ExpConstant":
        if self.r == 0:
            raise CoverError("zero constant has no inverse")
        return ExpConstant(1 / self.r, -self.s)

    def __eq__(self, other):
        if not isinstance(other, ExpConstant):
            return NotImplemented
        if self.r == 0 and other.r == 0:
            return True
        return self.r == other.r and self.s == other.s

    def __str__(self):
        if self.r == 0:
            return "0"
        if self.s == 0:
            return format_rational(self.r)
        return f"{format_rational(self.r)}*e^{format_rational(self.s)}"


@dataclass(frozen=True)
class ChartData:
    id: str
    xi: Polynomial
    tau: ExpConstant

    def theta(self) -> ExpPoly:
        """tau exp(-xi)."""
        if self.tau.r == 0:
            return ExpPoly.zero(self.xi.dim)
        return ExpPoly.exp(Polynomial.const(self.xi.dim, self.tau.s) - self.xi,
                           Polynomial.const(self.xi.dim, self.tau.r))

    def phi(self) -> OrdinaryForm:
        """d xi as a one-form over ExpPoly coefficients."""
        return lift_form(ext_d(OrdinaryForm.from_scalar(self.xi)))


@dataclass(frozen=True)
class CoverData:
    dim: int
    charts: tuple[ChartData, ...]
    overlaps: tuple[tuple[str, str, Fraction], ...]
    triples: tuple[tuple[str, str, str], ...] = ()

    def chart(self, chart_id: str) -> ChartData:
        for chart in self.charts:
            if chart.id == chart_id:
                return chart
        raise CoverError(f"unknown chart {chart_id!r}")

    def overlap_constant(self, i: str, j: str) -> Fraction:
        for a, b, value in self.overlaps:
            if (a, b) == (i, j):
                return value
            if (a, b) == (j, i):
                return -value
        raise CoverError(f"no overlap listed for ({i}, {j})")


def lift_form(form: OrdinaryForm) -> OrdinaryForm:
    """Re-coefficient a polynomial form over ExpPoly."""
    comps = {}
    for idxs, coeff in form.components.items():
        comps[idxs] = coeff if isinstance(coeff, ExpPoly) else ExpPoly.from_poly(coeff)
    return OrdinaryForm(form.dim, form.degree, comps)


def lift_genform(a: GenForm) -> GenForm:
    return GenForm(a.dim, a.epsilon, a.degree, lift_form(a.body), lift_form(a.soul))


# -- the differential ideal ------------------------------------------------------


def ideal_residual(theta: ExpPoly, phi: OrdinaryForm) -> tuple[OrdinaryForm, OrdinaryForm]:
    """(d theta + theta phi, d phi); both vanish iff d^2 m = 0."""
    dim = theta.dim
    phi = lift_form(phi)
    dtheta = OrdinaryForm(dim, 1, {(axis,): theta.partial(axis)
                                   for axis in range(1, dim + 1)
                                   if not theta.partial(axis).is_zero()})
    return dtheta + phi.scale(theta), ext_d(phi)


def general_gd(a: GenForm, theta: ExpPoly, phi: OrdinaryForm) -> GenForm:
    """d a = [d body + (-1)^(p+1) theta soul] + [d soul - phi soul] m for the
    general derivative dm = theta - phi m; requires the ideal to close."""
    res1, res2 = ideal_residual(theta, phi)
    if not (res1.is_zero() and res2.is_zero()):
        raise CoverError("theta/phi violate the integrability ideal")
    a = lift_genform(a)
    phi = lift_form(phi)
    theta_term = a.soul.scale(theta)
    if (a.degree + 1) % 2:
        theta_term = -theta_term
    body = ext_d(a.body) + theta_term
    soul = ext_d(a.soul) - wedge(phi, a.soul)
    return GenForm(a.dim, a.epsilon, a.degree + 1, body, soul)


# -- gluing -----------------------------------------------------------------------


@dataclass
class GlueReport:
    ok: bool = True
    case: str = ""
    overlap_failures: list[dict] = field(default_factory=list)
    cocycle_failures: list[dict] = field(default_factory=list)
    classification_failure: dict | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "case": self.case,
            "overlap_failures": self.overlap_failures,
            "cocycle_failures": self.cocycle_failures,
            "classification_failure": self.classification_failure,
        }


def glue_validate(cover: CoverData) -> GlueReport:
    """Check every listed overlap and triple, then classify the cover."""
    report = GlueReport()
    for i, j, tau_ij in cover.overlaps:
        ci, cj = cover.chart(i), cover.chart(j)
        diff = ci.xi - cj.xi
        if diff != Polynomial.const(cover.dim, tau_ij):
            report.overlap_failures.append(
                {"pair": [i, j], "reason": "xi_I - xi_J is not the listed constant",
                 "difference": str(diff)})
        if ci.tau != cj.tau.times_exp(tau_ij):
            report.overlap_failures.append(
                {"pair": [i, j], "reason": "tau_I != tau_J exp(tau_IJ)",
                 "tau_I": str(ci.tau), "tau_J": str(cj.tau)})
    for i, j, k in cover.triples:
        total = (cover.overlap_constant(i, j) + cover.overlap_constant(j, k)
                 + cover.overlap_constant(k, i))
        if total != 0:
            report.cocycle_failures.append(
                {"triple": [i, j, k], "sum": format_rational(total)})
    zero_charts = [c.id for c in cover.charts if c.tau.is_zero()]
    nonzero_charts = [c.id for c in cover.charts if not c.tau.is_zero()]
    if zero_charts and nonzero_charts:
        report.classification_failure = {
            "reason": "mixed zero/nonzero tau across the cover",
            "pair": [zero_charts[0], nonzero_charts[0]],
        }
    else:
        report.case = "i" if zero_charts else "ii"
    report.ok = not (report.overlap_failures or report.cocycle_failures
                     or report.classification_failure)
    return report


@dataclass
class CanonReport:
    case: str
    glued: bool
    dm_tilde: Fraction
    constants: dict[str, str]
    scaling_factors: dict[str, str]

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "glued": self.glued,
            "dm_tilde": format_rational(self.dm_tilde),
            "constants": self.constants,
            "scalings": self.scaling_factors,
        }


def _propagate_case_i_constants(cover: CoverData) -> dict[str, ExpConstant]:
    """Pick c on the first chart and walk the overlap graph; the cocycle
    condition makes the result independent of the path."""
    constants: dict[str, ExpConstant] = {cover.charts[0].id: ExpConstant(Fraction(1), Fraction(0))}
    pending = True
    while pending:
        pending = False
        for i, j, tau_ij in cover.overlaps:
            if i in constants and j not in constants:
                constants[j] = constants[i].times_exp(-tau_ij)
                pending = True
            elif j in constants and i not in constants:
                constants[i] = constants[j].times_exp(tau_ij)
                pending = True
    for chart in cover.charts:
        if chart.id not in constants:
            # isolated chart: any constant works
            constants[chart.id] = ExpConstant(Fraction(1), Fraction(0))
    return constants


def canonicalize(cover: CoverData, epsilon: Scalar) -> CanonReport:
    """Rescale m chart by chart and verify the result is a single global
    basis with constant derivative (0 in case i, epsilon in case ii)."""
    eps = Fraction(epsilon)
    glue = glue_validate(cover)
    if not glue.ok:
        raise CoverError(f"cover does not glue: {glue.to_json()}")
    if glue.case == "ii":
        if eps == 0:
            raise CoverError("case (ii) needs a non-zero epsilon")
        constants = {c.id: c.tau.scale(1 / eps) for c in cover.charts}
        dm_tilde = eps
    else:
        constants = _propagate_case_i_constants(cover)
        dm_tilde = Fraction(0)
    # consistency of the chosen constants: c_I = c_J exp(tau_IJ)
    for i, j, tau_ij in cover.overlaps:
        if constants[i] != constants[j].times_exp(tau_ij):
            raise CoverError(f"constants fail gluing on ({i}, {j})")
    # scaling factor u_I with m-tilde = u_I m must be one global object
    scalings: dict[str, ExpPoly] = {}
    for chart in cover.charts:
        c_inv = constants[chart.id].inverse()
        scalings[chart.id] = ExpPoly.exp(
            chart.xi + Polynomial.const(cover.dim, c_inv.s),
            Polynomial.const(cover.dim, c_inv.r))
    values = list(scalings.values())
    glued = all(u == values[0] for u in values[1:])
    if not glued:
        raise CoverError("rescaled basis does not glue")
    # d m-tilde = tau_I c_I^-1 must be the announced constant on every chart
    for chart in cover.charts:
        observed = (chart.tau.scale(constants[chart.id].inverse().r)
                    .times_exp(constants[chart.id].inverse().s))
        if observed != ExpConstant(dm_tilde, Fraction(0)):
            raise CoverError(f"d m-tilde on chart {chart.id} is {observed}, "
                             f"expected {dm_tilde}")
    return CanonReport(glue.case, glued, dm_tilde,
                       {k: str(v) for k, v in constants.items()},
                       {k: str(v) for k, v in scalings.items()})


def rescaled_soul(a: GenForm, chart: ChartData, c: ExpConstant) -> OrdinaryForm:
    """alpha-tilde = c exp(-xi) alpha', the soul re-expressed in the rescaled
    basis m-tilde."""
    factor = ExpPoly.exp(Polynomial.const(a.dim, c.s) - chart.xi,
                         Polynomial.const(a.dim, c.r))
    return lift_form(a.soul).scale(factor)


# -- fixture loading ----------------------------------------------------------------


def _string_triples(data, key: str) -> list[tuple[str, str, str]]:
    """The optional array ``data[key]`` of three-string arrays."""
    rows = _json_field(data, key, list, [])
    if not all(isinstance(row, list) and len(row) == 3
               and all(isinstance(x, str) for x in row) for row in rows):
        raise ValueError(f"{key!r} must be an array of three-string arrays")
    return [tuple(row) for row in rows]


def cover_from_json(data: dict) -> CoverData:
    """Schema: {"dim": n, "charts": [{"id", "xi", "tau": {"r", "s"}}],
    "overlaps": [[I, J, rational]], "triples": [[I, J, K]]}, every leaf a
    string; overlaps and triples may be left out."""
    dim = _json_dim(data)
    charts = []
    for c in _json_field(data, "charts", list):
        tau = _json_field(c, "tau", dict)
        charts.append(ChartData(
            _json_field(c, "id", str), Polynomial.parse(dim, _json_field(c, "xi", str)),
            ExpConstant(parse_rational(_json_field(tau, "r", str)),
                        parse_rational(_json_field(tau, "s", str)))))
    if not charts:
        raise CoverError("a cover needs at least one chart")
    ids = [c.id for c in charts]
    if len(set(ids)) != len(ids):
        raise CoverError("chart ids must be distinct")
    overlaps = tuple((i, j, parse_rational(t)) for i, j, t in _string_triples(data, "overlaps"))
    triples = tuple(_string_triples(data, "triples"))
    return CoverData(dim, tuple(charts), overlaps, triples)
