"""Batch verification harness.

Subcommands run the randomized identity suites, the oscillator integration,
and the fixture-driven symbolic constructions, each filling in the JSON report
that ``main`` alone writes and turns into the exit code: 0 all residuals zero
/ within tolerance, 1 a failed suite, check or ``ConstructionError`` (with its
report), 2 a usage error or an ``InputError`` (no report).  Any other
exception is an engine fault and propagates.  All outside input is read
here: argv, ``GENFORM_SEED`` and the fixtures, by the ``*_from_json`` readers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import sys
from fractions import Fraction
from typing import Callable

from . import connection as conn
from .cover import ChartData, CoverData, ExpConstant, canonicalize, glue_validate, ideal_residual
from .exterior import OrdinaryForm, mat_identity, mat_is_zero, mat_map, square_matrix
from .gform import GenForm, gd
from .gvector import gv_interior
from .hamiltonian import (
    GenHamiltonianProblem,
    gauge_shift,
    hamiltonian_vf,
    integrate_hamilton,
    max_abs_error,
    max_l,
    oscillator_closed_form,
    rk4_order_estimate,
    step_count,
    symplectic_validate,
)
from .ring import ConstructionError, InputError, Polynomial, format_rational, parse_rational
from .suites import SCHEMA_VERSION, SUITE_NAMES, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _finish(report: dict, out: str | None) -> int:
    """Write the report to ``out`` (stdout when None); EXIT_PASS if it passed."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _read_fixture(path: str):
    """The JSON document at path; InputError when it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise InputError(f"cannot read fixture: {exc}") from None


def _rational(flag: str, text: str) -> Fraction:
    """parse_rational(text), its InputError naming ``flag``."""
    try:
        return parse_rational(text)
    except InputError as exc:
        raise InputError(f"{flag}: {exc}") from None


def _default_seed(value: int | None) -> int:
    """value, else the integer in GENFORM_SEED, else 0; an InputError names
    GENFORM_SEED."""
    if value is not None:
        return value
    env = os.environ.get("GENFORM_SEED")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise InputError(f"GENFORM_SEED: {exc}") from None


# -- fixture readers: the JSON schema of every fixture -----------------------------


_REQUIRED = object()
_JSON_TYPES = {int: "integer", str: "string", list: "array", dict: "object"}


def json_field(data, key: str, kind: type, default=_REQUIRED):
    """``data[key]`` of a JSON object, checked to be a ``kind`` (a JSON
    integer is an ``int`` but not a boolean).  InputError when data is not an
    object, a key without default is missing or the value has another type."""
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object, got {data!r}")
    if key not in data:
        if default is _REQUIRED:
            raise InputError(f"missing key {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(f"{key!r} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def json_dim(data) -> int:
    """The positive integer ``data["dim"]``."""
    dim = json_field(data, "dim", int)
    if dim < 1:
        raise InputError(f"dim must be positive, got {dim}")
    return dim


def _json_matrix(dim: int, data, cell: Callable) -> tuple[tuple, ...]:
    """A JSON dim x dim matrix, each entry read by ``cell``; InputError for
    anything but a list of rows and for any other shape."""
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise InputError("matrix must be a JSON list of rows")
    return mat_map(cell, square_matrix(data, "matrix", InputError, dim))


def poly_matrix_from_json(dim: int, data) -> tuple[tuple[Polynomial, ...], ...]:
    """A JSON dim x dim matrix of polynomial strings in dim variables."""
    return _json_matrix(dim, data, functools.partial(Polynomial.parse, dim))


def form_from_json(data: dict, shape: tuple[int, int] | None = None) -> OrdinaryForm:
    """The form of a JSON {"dim", "degree", "components"}; InputError unless it
    is well formed and, where ``shape`` = (dim, degree) is given, of that shape."""
    dim = json_dim(data)
    degree = json_field(data, "degree", int)
    if shape not in (None, (dim, degree)):
        raise InputError(f"expected a {shape[1]}-form on R^{shape[0]}, "
                         f"got a {degree}-form on R^{dim}")
    comps = {}
    for key, text in json_field(data, "components", dict).items():
        try:
            idxs = json.loads(key)
        except ValueError:
            idxs = None
        if not (isinstance(idxs, list)
                and all(isinstance(i, int) and not isinstance(i, bool) for i in idxs)):
            raise InputError(f"component key {key!r} is not an array of integers")
        comps[tuple(idxs)] = Polynomial.parse(dim, text)
    return OrdinaryForm(dim, degree, comps)


def hamiltonian_from_json(data: dict) -> GenHamiltonianProblem:
    """Schema: dim, epsilon, omega (form JSON), upsilon (form JSON),
    omega_inv (matrix of poly strings), h (poly string), k (list of poly
    strings)."""
    n = json_dim(data)
    eps = parse_rational(json_field(data, "epsilon", str))
    omega = form_from_json(json_field(data, "omega", dict), (n, 2))
    upsilon = (form_from_json(data["upsilon"], (n, 3)) if "upsilon" in data
               else OrdinaryForm.zero(n, 3))
    s = GenForm(n, eps, 2, omega, upsilon)
    inv = poly_matrix_from_json(n, json_field(data, "omega_inv", list))
    sympl = symplectic_validate(s, inv)
    h = Polynomial.parse(n, json_field(data, "h", str))
    k = json_field(data, "k", list)
    if len(k) != n:
        raise InputError(f"k must list {n} polynomials")
    soul = OrdinaryForm(n, 1, {(b,): Polynomial.parse(n, t) for b, t in enumerate(k, start=1)})
    hamiltonian = GenForm(n, eps, 0, OrdinaryForm.from_scalar(h), soul)
    return GenHamiltonianProblem(sympl, hamiltonian)


def connection_from_json(data: dict, case: str) -> conn.MetricConnection:
    """The construction of ``case``.  Schema: dim, gamma, gamma_inv; optional
    case (must be ``case``), epsilon ("0"), alpha (Levi-Civita) and, in case i
    only, chi (zero).  Matrices are of poly strings or one-form JSON."""
    n = json_dim(data)
    given = json_field(data, "case", str, case)
    if given != case:
        raise InputError(f"fixture is for case {given!r}, not --case {case}")
    epsilon = parse_rational(json_field(data, "epsilon", str, "0"))
    if case == "i" and epsilon != 0:
        raise InputError(f"case i needs epsilon 0 in the fixture, got {format_rational(epsilon)}")
    gamma = poly_matrix_from_json(n, json_field(data, "gamma", list))
    gamma_inv = poly_matrix_from_json(n, json_field(data, "gamma_inv", list))
    one_form = functools.partial(form_from_json, shape=(n, 1))
    alpha = _json_matrix(n, data["alpha"], one_form) if "alpha" in data else None
    if case == "ii":
        if "chi" in data:
            raise InputError("case ii sets chi = q/eps: its fixture gives no chi")
        return conn.metric_connection_eps(gamma, alpha, gamma_inv, epsilon)
    zero = OrdinaryForm.zero(n, 1)
    chi = _json_matrix(n, data["chi"], one_form) if "chi" in data else mat_identity(n, zero, zero)
    return conn.metric_connection_eps0(gamma, chi, alpha, gamma_inv)


def _string_triples(data, key: str) -> list[tuple[str, str, str]]:
    """The optional array ``data[key]`` of three-string arrays."""
    rows = json_field(data, key, list, [])
    if not all(isinstance(row, list) and len(row) == 3
               and all(isinstance(x, str) for x in row) for row in rows):
        raise InputError(f"{key!r} must be an array of three-string arrays")
    return [tuple(row) for row in rows]


def cover_from_json(data: dict) -> CoverData:
    """Schema: {"dim": n, "charts": [{"id", "xi", "tau": {"r", "s"}}],
    "overlaps": [[I, J, rational]], "triples": [[I, J, K]]}, every leaf a
    string; overlaps and triples may be left out."""
    dim = json_dim(data)
    charts = []
    for c in json_field(data, "charts", list):
        tau = json_field(c, "tau", dict)
        charts.append(ChartData(
            json_field(c, "id", str), Polynomial.parse(dim, json_field(c, "xi", str)),
            ExpConstant(parse_rational(json_field(tau, "r", str)),
                        parse_rational(json_field(tau, "s", str)))))
    if not charts:
        raise InputError("a cover needs at least one chart")
    ids = [c.id for c in charts]
    if len(set(ids)) != len(ids):
        raise InputError("chart ids must be distinct")
    overlaps = tuple((i, j, parse_rational(t)) for i, j, t in _string_triples(data, "overlaps"))
    triples = tuple(_string_triples(data, "triples"))
    return CoverData(dim, tuple(charts), overlaps, triples)


def cmd_identities(args, report: dict) -> None:
    for flag, value in (("--dim", args.dim), ("--trials", args.trials)):
        if value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}")
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    seed = _default_seed(args.seed)
    epsilon = _rational("--epsilon", args.epsilon)
    reports = [run_suite(name, args.dim, epsilon, args.trials, seed) for name in names]
    report.update({
        "dim": args.dim,
        "epsilon": args.epsilon,
        "trials": args.trials,
        "seed": seed,
        "suites": reports,
        "pass": all(r["pass"] for r in reports),
    })


def _initial_values(flag: str, text: str | None, default: float, l: int) -> list[float]:
    """--q0/--p0: one finite number per component or one for all; else ``default``."""
    if text is None:
        return [default] * l
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not (values and all(map(math.isfinite, values))):
        raise InputError(f"{flag} must be comma-separated finite numbers, got {text!r}")
    if len(values) not in (1, l):
        raise InputError(f"{flag} must list 1 or --l = {l} numbers, got {len(values)}")
    return values * l if len(values) == 1 else values


def cmd_oscillator(args, report: dict) -> None:
    if args.l < 1:
        raise InputError(f"--l must be at least 1, got {args.l}")
    for flag, value in (("--t-end", args.t_end), ("--dt", args.dt), ("--tol", args.tol)):
        if not 0 < value < math.inf:
            raise InputError(f"{flag} must be positive and finite, got {value}")
    if args.t_end <= 4 * args.dt:
        raise InputError("--t-end must be more than 4 * --dt: a shorter run checks "
                         "too few steps against the closed form")
    steps = step_count(args.t_end, args.dt)
    if args.l > max_l(steps):
        raise InputError(f"--l must be at most {max_l(steps)} for {steps} steps, got {args.l}")
    epsilon, v0 = _rational("--epsilon", args.epsilon), _rational("--v0", args.v0)
    q0 = _initial_values("--q0", args.q0, 1.0, args.l)
    p0 = _initial_values("--p0", args.p0, 0.0, args.l)
    traj = integrate_hamilton(epsilon, v0, args.l, q0, p0, args.t_end, args.dt)
    # at least 16 coarse steps, so that the estimate sees the asymptotic regime
    order = rk4_order_estimate(epsilon, v0, q0[0], p0[0], args.t_end,
                               min(args.dt * 8, args.t_end / 16))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(traj.csv_lines()) + "\n")
    report.update({
        "epsilon": args.epsilon,
        "v0": args.v0,
        "l": args.l,
        "dt": args.dt,
        "t_end": args.t_end,
        "steps": len(traj.times) - 1,
    })
    # every component against the closed form from its own initial values
    max_err = max(max_abs_error(traj, oscillator_closed_form(epsilon, v0, q0[c], p0[c]), c)
                  for c in range(args.l))
    report["max_err"] = max_err
    report["order_estimate"] = order
    # no order when an error is exactly 0: the run then stands on max_err alone
    report["pass"] = max_err < args.tol and (order is None or order >= 3.8)


def cmd_hamiltonian(args, report: dict) -> None:
    prob = hamiltonian_from_json(_read_fixture(args.fixture))
    report["fixture"] = args.fixture
    field = hamiltonian_vf(prob)
    # hamiltonian_vf verified i_V s = -dH, so L_V s = d i_V s + i_V ds = d(-dH) + i_V ds
    dH = gd(prob.hamiltonian)
    lie_s = gd(-dH) + gv_interior(field, gd(prob.symplectic.s))
    shifted = gauge_shift(prob, Polynomial.var(prob.symplectic.dim, 1))
    # the shift keeps s, so i_V s + dH' = dH' - dH by the same relation
    gauge_residual = gd(shifted.hamiltonian) - dH
    report["defining_relation_zero"] = True  # hamiltonian_vf verified i_V s + dH = 0
    report["lie_derivative_of_s_zero"] = lie_s.is_zero()
    report["gauge_shift_ok"] = gauge_residual.is_zero()
    report["field"] = {
        "v": [str(c) for c in field.v.components],
        "vt": mat_map(str, field.vt),
    }
    report["pass"] = (report["defining_relation_zero"]
                      and report["lie_derivative_of_s_zero"]
                      and report["gauge_shift_ok"])


def cmd_connection_thm(args, report: dict) -> None:
    data = _read_fixture(args.fixture)
    report.update({"fixture": args.fixture, "case": args.case})
    mc = connection_from_json(data, args.case)
    formula = (conn.case_i_curvature_formula(mc) if args.case == "i"
               else conn.case_ii_curvature_formula(mc))
    curv = conn.curvature(mc.A)
    report["nonmetricity_zero"] = True  # the construction verified nonmetricity(A, g) = 0
    report["curvature_formula_match"] = curv == formula
    if args.case == "ii" and mat_is_zero(mc.q):
        # an ordinary metric: A = alpha and F = F_cal, neither with a soul
        souls = operator.attrgetter("soul")
        report["ordinary_metric_corollary"] = (
            mat_is_zero(mat_map(souls, curv)) and mat_is_zero(mat_map(souls, mc.A.entries))
            and mat_map(operator.attrgetter("body"), curv) == mc.fcal)
    report["pass"] = (report["nonmetricity_zero"]
                      and report["curvature_formula_match"]
                      and report.get("ordinary_metric_corollary", True))


def cmd_cover(args, report: dict) -> None:
    epsilon = _rational("--epsilon", args.epsilon)
    cover = cover_from_json(_read_fixture(args.fixture))
    report["fixture"] = args.fixture
    ideal_ok = True
    for chart in cover.charts:
        res1, res2 = ideal_residual(chart.theta(), chart.phi())
        if not (res1.is_zero() and res2.is_zero()):
            ideal_ok = False
    report["ideal_residual_zero"] = ideal_ok
    glue = glue_validate(cover)
    report["glue"] = glue.to_json()
    report["pass"] = glue.ok and ideal_ok
    if report["pass"]:
        canon = canonicalize(cover, glue, epsilon)  # it raises unless the basis glues
        report["case"] = canon.case
        report["dm_tilde"] = format_rational(canon.dm_tilde)
        report["glued"] = True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state in it and
    returns a fresh Namespace per call."""
    parser = argparse.ArgumentParser(
        prog="genform",
        description="exact verification harness for the extended-form calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run randomized identity suites")
    p_id.add_argument("--dim", type=int, required=True)
    p_id.add_argument("--epsilon", default="1")
    p_id.add_argument("--trials", type=int, default=50)
    p_id.add_argument("--seed", type=int, default=None)
    p_id.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    p_id.add_argument("--out", default=None)
    p_id.set_defaults(func=cmd_identities)

    p_osc = sub.add_parser("oscillator", help="integrate the damped oscillator")
    p_osc.add_argument("--epsilon", required=True)
    p_osc.add_argument("--v0", required=True)
    p_osc.add_argument("--l", type=int, default=1)
    p_osc.add_argument("--t-end", type=float, required=True)
    p_osc.add_argument("--dt", type=float, required=True)
    p_osc.add_argument("--q0", default=None, help="comma-separated initial q")
    p_osc.add_argument("--p0", default=None, help="comma-separated initial p")
    p_osc.add_argument("--tol", type=float, default=1e-6)
    p_osc.add_argument("--out", dest="csv", metavar="OUT", help="CSV trajectory path")
    p_osc.add_argument("--report", dest="out", metavar="REPORT", help="JSON report path")
    p_osc.set_defaults(func=cmd_oscillator)

    p_ham = sub.add_parser("hamiltonian", help="construct a Hamiltonian field from a fixture")
    p_ham.add_argument("--fixture", required=True)
    p_ham.add_argument("--out", default=None)
    p_ham.set_defaults(func=cmd_hamiltonian)

    p_conn = sub.add_parser("connection-thm", help="run a compatibility construction")
    p_conn.add_argument("--fixture", required=True)
    p_conn.add_argument("--case", required=True, choices=("i", "ii"))
    p_conn.add_argument("--out", default=None)
    p_conn.set_defaults(func=cmd_connection_thm)

    p_cov = sub.add_parser("cover", help="validate and canonicalize a chart cover")
    p_cov.add_argument("--fixture", required=True)
    p_cov.add_argument("--epsilon", required=True)
    p_cov.add_argument("--out", default=None)
    p_cov.set_defaults(func=cmd_cover)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    report: dict = {"schema": SCHEMA_VERSION, "command": args.command}
    try:
        args.func(args, report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionError as exc:
        report["pass"] = False
        report["error"] = str(exc)
    return _finish(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
