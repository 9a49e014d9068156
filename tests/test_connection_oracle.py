"""Differential tests of the Levi-Civita connection and its curvature against
``sympy.diffgeom``.

sympy is an outside oracle here and nowhere else: genform never imports it.
Both paths of each ``connection`` check share genform's index conventions
(which lower index of Gamma a form carries, which side gamma^-1 multiplies,
the sign of F), and a symmetric metric hides a transpose.  sympy has its own:
``metric_to_Christoffel_2nd`` gives ch[m, n, k] = Gamma^m_{nk}, the dx^k
coefficient of alpha^m_n from ``levi_civita_connection``, and
``metric_to_Riemann_components`` gives R^m_{nkl}, the dx^k ^ dx^l coefficient
(k < l) of ``ordinary_curvature(alpha)^m_n``.

sympy inverts the metric symbolically, which is slow past dim 2, so the
metrics are the case-i fixture's and two seeded unipotent draws at dim 2,
each with all four entries of alpha and of its curvature nonzero.
"""

import json
import pathlib
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.diffgeom import (CoordSystem, Manifold, Patch, TensorProduct,  # noqa: E402
                            metric_to_Christoffel_2nd, metric_to_Riemann_components)

from genform.connection import levi_civita_connection, ordinary_curvature  # noqa: E402
from genform.cli import poly_matrix_from_json  # noqa: E402
from genform.randgen import FormRandom  # noqa: E402
from genform.ring import Polynomial  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _case_i_metric():
    data = json.loads((FIXTURES / "connection_case_i.json").read_text())
    return tuple(poly_matrix_from_json(data["dim"], data[key]) for key in ("gamma", "gamma_inv"))


METRICS = {
    "case_i_fixture": _case_i_metric,
    "random_seed_0": lambda: FormRandom(0, 2, Fraction(1)).metric_pieces(),
    "random_seed_1": lambda: FormRandom(1, 2, Fraction(1)).metric_pieces(),
}


def _expr(p: Polynomial, xs) -> "sympy.Expr":
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                       for exps, c in p.terms.items()))


def _coefficient(form, idxs, xs) -> "sympy.Expr":
    return _expr(form.components.get(idxs, Polynomial.zero(form.dim)), xs)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_levi_civita_connection_and_curvature_match_sympy_diffgeom(name):
    gamma, gamma_inv = METRICS[name]()
    n = len(gamma)
    xs = sympy.symbols(f"x1:{n + 1}")
    coords = CoordSystem("C", Patch("P", Manifold("M", n)), xs)
    fields, dx = coords.coord_functions(), coords.base_oneforms()
    metric = sympy.Add(*(_expr(gamma[i][j], fields) * TensorProduct(dx[i], dx[j])
                         for i in range(n) for j in range(n)))
    plain = dict(zip(fields, xs))
    christoffel = metric_to_Christoffel_2nd(metric)
    riemann = metric_to_Riemann_components(metric)

    alpha = levi_civita_connection(gamma, gamma_inv)
    fcal = ordinary_curvature(alpha)
    wrong = []
    for m in range(n):
        for k in range(n):
            for l in range(n):
                ours = _coefficient(alpha[m][k], (l + 1,), xs)
                if sympy.cancel(christoffel[m, k, l].subs(plain) - ours) != 0:
                    wrong.append(("Gamma", m + 1, k + 1, l + 1))
            for a in range(n):
                for b in range(a + 1, n):
                    ours = _coefficient(fcal[m][k], (a + 1, b + 1), xs)
                    if sympy.cancel(riemann[m, k, a, b].subs(plain) - ours) != 0:
                        wrong.append(("R", m + 1, k + 1, a + 1, b + 1))
    assert not wrong, wrong
