"""Differential tests of ``genform.ring`` against ``sympy.Poly`` over QQ.

sympy is an outside oracle here and nowhere else: genform never imports it.
Hypothesis draws the polynomials; every operation is computed by both and the
results compared term by term, so a ring kernel that miscounts a coefficient,
an exponent or a sign on any drawn input fails.  ``eval_float`` is compared
with a reference loop that decodes each coefficient to a Fraction; the two
must give the same float, not merely a close one.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from genform.ring import ExpPoly, Polynomial  # noqa: E402

QQ = sympy.QQ
ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def _poly(dim: int):
    keys = st.tuples(*[st.integers(0, 3)] * dim)
    return st.dictionaries(keys, rationals, max_size=5).map(lambda t: Polynomial(dim, t))


@st.composite
def same_dim(draw, count: int):
    dim = draw(st.integers(1, 3))
    return [draw(_poly(dim)) for _ in range(count)]


def _gens(dim: int, name: str = "x"):
    return sympy.symbols(f"{name}1:{dim + 1}")


def to_sympy(p: Polynomial, name: str = "x") -> "sympy.Poly":
    rep = {e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(rep, *_gens(p.dim, name), domain=QQ)


def terms_of(poly: "sympy.Poly") -> dict:
    return {e: Fraction(int(c.numerator), int(c.denominator))
            for e, c in poly.as_dict().items() if c != 0}


def assert_same(ours: Polynomial, oracle: "sympy.Poly") -> None:
    assert dict(ours.terms) == terms_of(oracle)


@ORACLE
@given(same_dim(2))
def test_add_sub_mul_match_sympy(pair):
    a, b = pair
    sa, sb = to_sympy(a), to_sympy(b)
    assert_same(a + b, sa + sb)
    assert_same(a - b, sa - sb)
    assert_same(a * b, sa * sb)
    assert_same(-a, -sa)


@ORACLE
@given(same_dim(1), rationals)
def test_scalar_mul_matches_sympy(single, scalar):
    (p,) = single
    sp = to_sympy(p)
    assert_same(p * scalar, sp * QQ(scalar.numerator, scalar.denominator))
    assert_same(scalar * p, sp * QQ(scalar.numerator, scalar.denominator))
    assert_same(p * scalar.numerator, sp * scalar.numerator)


@ORACLE
@given(same_dim(1), st.integers(1, 3))
def test_partial_matches_sympy(single, axis):
    (p,) = single
    axis = min(axis, p.dim)
    sp = to_sympy(p)
    assert_same(p.partial(axis), sp.diff(sp.gens[axis - 1]))


@ORACLE
@given(same_dim(1), st.integers(1, 2), st.data())
def test_compose_matches_sympy(single, target_dim, data):
    (p,) = single
    args = [data.draw(_poly(target_dim)) for _ in range(p.dim)]
    ys = _gens(target_dim, "y")
    image = to_sympy(p).as_expr().xreplace(
        {x: to_sympy(a, "y").as_expr() for x, a in zip(_gens(p.dim), args)})
    assert_same(p.compose(args), sympy.Poly(image, *ys, domain=QQ))


@ORACLE
@given(same_dim(1), st.data())
def test_eval_exact_matches_sympy(single, data):
    (p,) = single
    point = [data.draw(rationals) for _ in range(p.dim)]
    want = to_sympy(p).as_expr().xreplace(
        {x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(_gens(p.dim), point)})
    want = sympy.Rational(want)
    assert p.eval_exact(point) == Fraction(int(want.p), int(want.q))


@ORACLE
@given(same_dim(1))
def test_str_parse_round_trip(single):
    (p,) = single
    back = Polynomial.parse(p.dim, str(p))
    assert back == p
    assert hash(back) == hash(p)


@ORACLE
@given(same_dim(2), rationals.filter(bool))
def test_equal_values_hash_equal(pair, scalar):
    """Values reached along different denominators compare and hash equal."""
    p, q = pair
    for other in ((p * Fraction(3, 2)) * Fraction(2, 3),
                  (p * scalar) * (1 / scalar),
                  (p + q) - q,
                  (p * 7 + q) - (q + p * 6)):
        assert other == p
        assert hash(other) == hash(p)


def eval_float_reference(p: Polynomial, point) -> float:
    """Per term float(coefficient) times float(x) ** e in variable order,
    summed in term order."""
    total = 0.0
    for exps, coeff in p.terms.items():
        value = float(coeff)
        for x, e in zip(point, exps):
            if e:
                value *= float(x) ** e
        total += value
    return total


@ORACLE
@given(st.data())
def test_eval_float_is_bit_identical_to_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    coeffs = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    keys = st.tuples(*[st.integers(0, 3)] * dim)
    p = Polynomial(dim, data.draw(st.dictionaries(keys, coeffs, max_size=6)))
    coords = st.floats(min_value=-5, max_value=5, allow_nan=False)
    for _ in range(3):  # the first call builds the cached plan, the others reuse it
        point = data.draw(st.lists(coords, min_size=dim, max_size=dim))
        assert p.eval_float(point) == eval_float_reference(p, point)


@ORACLE
@given(same_dim(4), st.integers(1, 3))
def test_exppoly_partial_matches_sympy(polys, axis):
    q1, p1, q2, p2 = polys
    axis = min(axis, q1.dim)
    f = ExpPoly(q1.dim, {q1: p1}) + ExpPoly(q1.dim, {q2: p2})
    gens = _gens(q1.dim)

    def expr(e: ExpPoly):
        return sum((to_sympy(p).as_expr() * sympy.exp(to_sympy(q).as_expr())
                    for q, p in e.terms.items()), sympy.Integer(0))

    residual = sympy.diff(expr(f), gens[axis - 1]) - expr(f.partial(axis))
    assert sympy.expand(residual) == 0
