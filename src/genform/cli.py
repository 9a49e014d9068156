"""Batch verification harness.

Subcommands run the randomized identity suites, the oscillator integration,
and the fixture-driven symbolic constructions, and emit JSON reports.  Exit
codes: 0 all residuals zero / within tolerance, 1 suite or residual failure,
2 usage or fixture errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import connection as conn
from .cover import CoverError, canonicalize, cover_from_json, glue_validate, ideal_residual
from .exterior import OrdinaryForm, _json_dim, _json_field, mat_is_zero, mat_sub
from .gform import gd
from .gvector import gv_interior
from .hamiltonian import (
    IntegrationError,
    SymplecticError,
    gauge_shift,
    hamiltonian_vf,
    integrate_hamilton,
    max_abs_error,
    max_l,
    oscillator_closed_form,
    problem_from_json,
    rk4_order_estimate,
    step_count,
)
from .ring import Polynomial, format_rational, parse_rational
from .suites import SCHEMA_VERSION, SUITE_NAMES, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _rational(flag: str, text: str) -> Fraction:
    """parse_rational(text), its ValueError naming ``flag``."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _default_seed(value: int | None) -> int:
    """value, else the integer in GENFORM_SEED, else 0; a ValueError names
    GENFORM_SEED."""
    if value is not None:
        return value
    env = os.environ.get("GENFORM_SEED")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise ValueError(f"GENFORM_SEED: {exc}") from None


def cmd_identities(args) -> int:
    for flag, value in (("--dim", args.dim), ("--trials", args.trials)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    seed = _default_seed(args.seed)
    reports = run_suites(names, args.dim, _rational("--epsilon", args.epsilon), args.trials, seed)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "identities",
        "dim": args.dim,
        "epsilon": args.epsilon,
        "trials": args.trials,
        "seed": seed,
        "suites": [r.to_json() for r in reports],
        "pass": all(r.passed for r in reports),
    }
    _emit(report, args.out)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _initial_values(flag: str, text: str | None, default: float, l: int) -> list[float]:
    """--q0/--p0: one finite number per component or one for all; else ``default``."""
    if text is None:
        return [default] * l
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not (values and all(map(math.isfinite, values))):
        raise ValueError(f"{flag} must be comma-separated finite numbers, got {text!r}")
    if len(values) not in (1, l):
        raise ValueError(f"{flag} must list 1 or --l = {l} numbers, got {len(values)}")
    return values * l if len(values) == 1 else values


def cmd_oscillator(args) -> int:
    if args.l < 1:
        raise ValueError(f"--l must be at least 1, got {args.l}")
    for flag, value in (("--t-end", args.t_end), ("--dt", args.dt), ("--tol", args.tol)):
        if not 0 < value < math.inf:
            raise ValueError(f"{flag} must be positive and finite, got {value}")
    if args.t_end <= 4 * args.dt:
        raise ValueError("--t-end must be more than 4 * --dt: the order estimate's run "
                         "at 8 * --dt would take no step")
    steps = step_count(args.t_end, args.dt)
    if args.l > max_l(steps):
        raise ValueError(f"--l must be at most {max_l(steps)} for {steps} steps, got {args.l}")
    epsilon, v0 = _rational("--epsilon", args.epsilon), _rational("--v0", args.v0)
    q0 = _initial_values("--q0", args.q0, 1.0, args.l)
    p0 = _initial_values("--p0", args.p0, 0.0, args.l)
    try:
        traj = integrate_hamilton(epsilon, v0, args.l, q0, p0, args.t_end, args.dt)
        order = rk4_order_estimate(epsilon, v0, q0[0], p0[0], args.t_end, args.dt * 8)
    except (IntegrationError, ValueError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(traj.csv_lines()) + "\n")
    report: dict = {
        "schema": SCHEMA_VERSION,
        "command": "oscillator",
        "epsilon": args.epsilon,
        "v0": args.v0,
        "l": args.l,
        "dt": args.dt,
        "t_end": args.t_end,
        "steps": len(traj.times) - 1,
    }
    # every component against the closed form from its own initial values
    max_err = max(max_abs_error(traj, oscillator_closed_form(epsilon, v0, q0[c], p0[c]), c)
                  for c in range(args.l))
    report["max_err"] = max_err
    report["order_estimate"] = order
    # no order when an error is exactly 0: the run then stands on max_err alone
    ok = max_err < args.tol and (order is None or order >= 3.8)
    report["pass"] = ok
    _emit(report, args.report)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_hamiltonian(args) -> int:
    try:
        with open(args.fixture) as fh:
            prob = problem_from_json(json.load(fh))
    except (OSError, KeyError, ValueError, SymplecticError) as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report: dict = {"schema": SCHEMA_VERSION, "command": "hamiltonian",
                    "fixture": args.fixture}
    try:
        field = hamiltonian_vf(prob)
    except SymplecticError as exc:
        report["pass"] = False
        report["error"] = str(exc)
        _emit(report, args.out)
        return EXIT_FAIL
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
        "vt": [[str(c) for c in row] for row in field.vt.components],
    }
    report["pass"] = (report["defining_relation_zero"]
                      and report["lie_derivative_of_s_zero"]
                      and report["gauge_shift_ok"])
    _emit(report, args.out)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_connection_thm(args) -> int:
    try:
        with open(args.fixture) as fh:
            data = json.load(fh)
        n = _json_dim(data)
        case = _json_field(data, "case", str, args.case)
        if case != args.case:
            raise ValueError(f"fixture is for case {case!r}, not --case {args.case}")
        epsilon = parse_rational(_json_field(data, "epsilon", str, "0"))
        gamma = conn.poly_matrix_from_json(n, data["gamma"])
        gamma_inv = conn.poly_matrix_from_json(n, data["gamma_inv"])
        if "alpha" in data:
            alpha = conn.matrix_of_forms_from_json(n, data["alpha"])
        else:
            alpha = conn.levi_civita_connection(gamma, gamma_inv)
        if "chi" in data:
            chi = conn.matrix_of_forms_from_json(n, data["chi"])
        else:
            chi = tuple(tuple(OrdinaryForm.zero(n, 1) for _ in range(n)) for _ in range(n))
    except (OSError, KeyError, ValueError) as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report: dict = {"schema": SCHEMA_VERSION, "command": "connection-thm",
                    "fixture": args.fixture, "case": args.case}
    try:
        if args.case == "i":
            mc = conn.metric_connection_eps0(gamma, chi, alpha, gamma_inv)
            formula = conn.case_i_curvature_formula(mc)
        else:
            if epsilon == 0:
                print("case ii needs a nonzero epsilon in the fixture", file=sys.stderr)
                return EXIT_USAGE
            mc = conn.metric_connection_eps(gamma, alpha, gamma_inv, epsilon)
            formula = conn.case_ii_curvature_formula(mc)
    except conn.ConnectionError as exc:
        report["pass"] = False
        report["error"] = str(exc)
        _emit(report, args.out)
        return EXIT_FAIL
    curv = conn.curvature(mc.A)
    # Q, q and F_cal as the construction computed (and, for Q, verified) them
    report["nonmetricity_zero"] = mat_is_zero(mc.Q)
    report["curvature_formula_match"] = mat_is_zero(mat_sub(curv, formula))
    if args.case == "ii" and mat_is_zero(mc.q):
        body_only = all(e.soul.is_zero() for row in curv for e in row)
        bodies_match = all(curv[i][j].body == mc.fcal[i][j]
                           for i in range(n) for j in range(n))
        alpha_match = all(mc.A.entries[i][j].soul.is_zero()
                          for i in range(n) for j in range(n))
        report["ordinary_metric_corollary"] = body_only and bodies_match and alpha_match
    report["pass"] = (report["nonmetricity_zero"]
                      and report["curvature_formula_match"]
                      and report.get("ordinary_metric_corollary", True))
    _emit(report, args.out)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_cover(args) -> int:
    epsilon = _rational("--epsilon", args.epsilon)
    try:
        with open(args.fixture) as fh:
            cover = cover_from_json(json.load(fh))
    except (OSError, KeyError, ValueError) as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report: dict = {"schema": SCHEMA_VERSION, "command": "cover",
                    "fixture": args.fixture}
    ideal_ok = True
    for chart in cover.charts:
        res1, res2 = ideal_residual(chart.theta(), chart.phi())
        if not (res1.is_zero() and res2.is_zero()):
            ideal_ok = False
    report["ideal_residual_zero"] = ideal_ok
    glue = glue_validate(cover)
    report["glue"] = glue.to_json()
    if not (glue.ok and ideal_ok):
        report["pass"] = False
        _emit(report, args.out)
        return EXIT_FAIL
    try:
        canon = canonicalize(cover, epsilon)
    except CoverError as exc:
        report["pass"] = False
        report["error"] = str(exc)
        _emit(report, args.out)
        return EXIT_FAIL
    report["case"] = canon.case
    report["dm_tilde"] = format_rational(canon.dm_tilde)
    report["glued"] = canon.glued
    report["pass"] = canon.glued
    _emit(report, args.out)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


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
    p_osc.add_argument("--out", default=None, help="CSV trajectory path")
    p_osc.add_argument("--report", default=None, help="JSON report path")
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
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
