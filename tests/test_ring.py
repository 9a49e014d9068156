import itertools
import math
import random
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

import pytest

from genform import ring
from genform.ring import (MAX_EXPONENT, ExpPoly, Polynomial, compose_all, format_rational,
                          parse_rational)


def eval_exact(p: Polynomial, point) -> Fraction:
    """p at a rational point, exactly: the reference evaluator of the
    homomorphism test below, term by term from ``Polynomial.terms``."""
    if len(point) != p.dim:
        raise ValueError(f"point length {len(point)} != dim {p.dim}")
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= Fraction(x) ** e
        total += value
    return total


def nonzero_poly(rnd) -> Polynomial:
    """The next nonzero polynomial that ``rnd.poly()`` draws."""
    while (p := rnd.poly()).is_zero():
        pass
    return p


def eval_float(f: Polynomial | ExpPoly, point) -> float:
    """f at a float point: per term of a polynomial, float(coefficient) times
    float(x) ** e over its nonzero exponents in variable order, summed from
    0.0; an ExpPoly sums p * exp(q) over its terms.  The float reference of
    the ExpPoly checks below and of the RK4 oracle in test_hamiltonian.py."""
    if isinstance(f, ExpPoly):
        return sum(eval_float(p, point) * math.exp(eval_float(q, point))
                   for q, p in f.terms.items())
    total = 0.0
    for exps, coeff in f.terms.items():
        value = float(coeff)
        for x, e in zip(point, exps, strict=True):
            if e:
                value *= float(x) ** e
        total += value
    return total


def test_difference_of_squares():
    x1, one = Polynomial.var(2, 1), Polynomial.one(2)
    assert (x1 + one) * (x1 - one) == x1 * x1 - one


def test_additive_identity():
    p = Polynomial.parse(3, "3/2*x1^2*x2 + -1*x3")
    assert p + Polynomial.zero(3) == p


def test_exp_product_collapses_to_constant():
    x = Polynomial.var(1, 1)
    a = ExpPoly.exp(x, 2)
    b = ExpPoly.exp(-x, 3)
    product = a * b
    assert product == ExpPoly.from_poly(Polynomial.const(1, 6))
    # float cross-check at 3 rational points
    for point in ([Fraction(1, 3)], [Fraction(-2)], [Fraction(5, 7)]):
        got = eval_float(product, [float(point[0])])
        want = eval_float(a, [float(point[0])]) * eval_float(b, [float(point[0])])
        assert abs(got - want) < 1e-9
        assert abs(got - 6.0) < 1e-9


def test_equal_values_hash_alike():
    # a constant polynomial equals its value, so it hashes as that; an
    # ExpPoly without exponentials equals its coefficient, but is not hashed
    for dim in (1, 3):
        for value in (0, 3, Fraction(-5, 2)):
            p = Polynomial.const(dim, value)
            values = (value, Fraction(value), p)
            for x, y in itertools.combinations(values, 2):
                assert x == y and hash(x) == hash(y)
            assert len(set(values)) == 1
            assert ExpPoly.from_poly(p) == p and ExpPoly.from_poly(p) == value
        x1 = Polynomial.var(dim, 1)
        assert ExpPoly.from_poly(x1) == x1


def test_partial_power_rule():
    p = Polynomial.parse(2, "1*x1^2*x2")
    assert p.partial(1) == Polynomial.parse(2, "2*x1*x2")
    assert Polynomial.var(2, 1).partial(2).is_zero()


def test_partial_exp_chain_rule_vs_finite_difference():
    x = Polynomial.var(1, 1)
    theta = ExpPoly.exp(-x)
    assert theta.partial(1) == -theta
    h = 1e-6
    fd = (eval_float(theta, [1 + h]) - eval_float(theta, [1 - h])) / (2 * h)
    assert abs(fd - eval_float(theta.partial(1), [1.0])) < 1e-6


def test_partial_out_of_range():
    with pytest.raises(ValueError):
        Polynomial.var(2, 1).partial(3)
    with pytest.raises(ValueError):
        Polynomial.var(2, 1).partial(0)


def test_eval_examples():
    p = Polynomial.parse(2, "1*x1 + 2*x2")
    assert eval_float(p, [1.0, 2.0]) == 5.0
    assert eval_float(Polynomial.zero(2), [3.0, 4.0]) == 0.0
    q = Polynomial.parse(2, "1*x1^2 + -1")
    assert eval_float(q, [3.0, 0.0]) == 8.0
    assert eval_exact(q, [Fraction(3), Fraction(0)]) == 8


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Polynomial.var(2, 1) + Polynomial.var(3, 1)


def _random_poly(rng: random.Random, dim: int) -> Polynomial:
    coeffs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    terms = {}
    for _ in range(4):
        exps = tuple(rng.randint(0, 2) for _ in range(dim))
        terms[exps] = rng.choice(coeffs)
    return Polynomial(dim, {e: c for e, c in terms.items() if c})


def _random_exppoly(rng: random.Random, dim: int) -> ExpPoly:
    return ExpPoly(dim, {_random_poly(rng, dim): _random_poly(rng, dim)
                         for _ in range(2)})


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(100):
        a, b, c = (_random_poly(rng, 3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_exppoly_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (_random_exppoly(rng, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_partials_commute():
    rng = random.Random(3)
    for _ in range(50):
        p = _random_poly(rng, 3)
        assert p.partial(1).partial(2) == p.partial(2).partial(1)
        e = _random_exppoly(rng, 3)
        assert e.partial(1).partial(3) == e.partial(3).partial(1)


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(50):
        a, b = _random_poly(rng, 2), _random_poly(rng, 2)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)]
        assert eval_exact(a + b, point) == eval_exact(a, point) + eval_exact(b, point)
        assert eval_exact(a * b, point) == eval_exact(a, point) * eval_exact(b, point)


def test_eval_exact_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)

    def ratio() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    for _ in range(60):
        dim = rng.randint(1, 3)
        p = Polynomial(dim, {tuple(rng.randint(0, 3) for _ in range(dim)): ratio()
                             for _ in range(rng.randint(0, 5))})
        point = [ratio() for _ in range(dim)]
        xs = sympy.symbols(f"x1:{dim + 1}")
        expr = sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[x ** e for x, e in zip(xs, exps)])
                    for exps, c in p.terms.items()), sympy.Integer(0))
        want = sympy.Rational(expr.subs({x: sympy.Rational(v.numerator, v.denominator)
                                         for x, v in zip(xs, point)}))
        assert eval_exact(p, point) == Fraction(int(want.p), int(want.q))


def test_grammar_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        p = _random_poly(rng, 3)
        assert Polynomial.parse(3, str(p)) == p
    assert str(Polynomial.zero(2)) == "0"
    assert Polynomial.parse(2, "0") == Polynomial.zero(2)


def test_grammar_examples():
    p = Polynomial.parse(3, "3/2*x1^2*x2 + -1*x3")
    assert p.terms == {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert format_rational(Fraction(10, 4)) == "5/2"


def test_exppoly_constant_stays_inside_exponent():
    # r * e^c is a single term with polynomial exponent c
    x = Polynomial.var(1, 1)
    tau = ExpPoly.exp(Polynomial.const(1, 3))  # e^3
    theta = tau * ExpPoly.exp(-x)
    assert theta == ExpPoly.exp(Polynomial.const(1, 3) - x)


def test_exppoly_compose_partial():
    # d/dx (x * e^(x^2)) = (1 + 2x^2) e^(x^2)
    x = Polynomial.var(1, 1)
    f = ExpPoly.exp(x * x, x)
    expected = ExpPoly.exp(x * x, Polynomial.one(1) + x * x * 2)
    assert f.partial(1) == expected


def test_compose():
    p = Polynomial.parse(2, "1*x1^2 + 1*x2")
    t = Polynomial.var(1, 1)
    assert compose_all((p,), [t, t * t]) == [Polynomial.parse(1, "2*x1^2")]


def test_scalar_minus_polynomial():
    # a scalar enters a sum as its constant polynomial
    x1, half = Polynomial.var(2, 1), Polynomial.const(2, Fraction(1, 2))
    assert Polynomial.one(2) - x1 == Polynomial.parse(2, "1 + -1*x1")
    assert half - x1 == -(x1 - half)
    assert Polynomial.const(2, 3) - Polynomial.const(2, 3) == Polynomial.zero(2)
    assert (Polynomial.const(2, Fraction(2, 3)) - Polynomial.zero(2)
            == Polynomial.const(2, Fraction(2, 3)))
    for scalar in ("1", 1, Fraction(1, 2)):
        with pytest.raises(TypeError):
            scalar - x1
        with pytest.raises(TypeError):
            x1 + scalar


def test_parse_rational_grammar_is_strict():
    assert parse_rational(" +3/6 ") == Fraction(1, 2)
    assert parse_rational("0/7") == 0
    for bad in ("1.5", "1e3", "1/0", "-2/0", "1/-2", "", " ", "1_000", "x1",
                None, 3, Fraction(1, 2)):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_polynomial_parse_rejects_non_strings_and_bad_coefficients():
    for bad in (3, None, ["1*x1"]):
        with pytest.raises(ValueError):
            Polynomial.parse(2, bad)
    for bad in ("1/0*x1", "1.5*x1*x1"):
        with pytest.raises(ValueError):
            Polynomial.parse(2, bad)


def test_terms_is_a_read_only_mapping_view():
    p = Polynomial.parse(3, "3/2*x1^2*x2 + -1*x3")
    assert isinstance(p.terms, Mapping)
    assert len(p.terms) == 2
    assert len(Polynomial.zero(3).terms) == 0
    x1, one = Polynomial.var(3, 1), Polynomial.one(3)
    assert len(((x1 + one) * (x1 - one)).terms) == 2
    with pytest.raises(TypeError):
        p.terms[(0, 0, 2)] = Fraction(1)
    assert p.terms == {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}
    assert p == Polynomial.parse(3, "3/2*x1^2*x2 + -1*x3")


def test_bad_exponents_are_rejected():
    for exps in ((-1, 0), (0, -2), (1.5, 0), (0, "1")):
        with pytest.raises(ValueError):
            Polynomial(2, {exps: 1})


def test_exponent_limit():
    top = Polynomial(2, {(MAX_EXPONENT, 0): 1})
    assert top == Polynomial.parse(2, f"1*x1^{MAX_EXPONENT}")
    assert Polynomial.parse(2, f"1*x1^{MAX_EXPONENT - 1}") * Polynomial.var(2, 1) == top
    # an overflow raises; it never carries into x2's field
    with pytest.raises(ValueError):
        top * Polynomial.var(2, 1)
    with pytest.raises(ValueError):
        (top + Polynomial.var(2, 2)) * (Polynomial.var(2, 1) + Polynomial.one(2))
    half = Polynomial.parse(2, f"1*x1^{MAX_EXPONENT // 2 + 1}")
    with pytest.raises(ValueError):
        half * half
    # in a sum of products too, even when the overflowing terms cancel
    x1 = Polynomial.var(2, 1)
    with pytest.raises(ValueError):
        Polynomial.sum_products([(1, x1, x1), (1, top, x1), (-1, x1, top)])
    for text in (f"1*x1^{MAX_EXPONENT + 1}", f"1*x2^{MAX_EXPONENT}*x2"):
        with pytest.raises(ValueError):
            Polynomial.parse(2, text)
    with pytest.raises(ValueError):
        Polynomial(2, {(0, MAX_EXPONENT + 1): 1})


def _same_polynomial(p: Polynomial, q: Polynomial) -> None:
    assert (p.dim, p.den, p._nums) == (q.dim, q.den, q._nums)
    assert all(type(n) is int for n in p._nums.values()) and type(p.den) is int
    assert p == q and hash(p) == hash(q)


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("value", [0, 1, -1, 7, -12, True, False, Fraction(0), Fraction(4),
                                   Fraction(-3, 4), Fraction(10, 6)])
def test_direct_constants_equal_the_validating_constructor(dim, value):
    _same_polynomial(Polynomial.const(dim, value), Polynomial(dim, {(0,) * dim: value}))
    _same_polynomial(Polynomial.zero(dim), Polynomial(dim, {}))
    _same_polynomial(Polynomial.one(dim), Polynomial(dim, {(0,) * dim: 1}))
    assert Polynomial.const(dim, value).den == Fraction(value).denominator


@pytest.mark.parametrize("value, exact", [(0.5, Fraction(1, 2)), (-0.75, Fraction(-3, 4)),
                                          (Decimal("1.25"), Fraction(5, 4)), (0.0, Fraction(0))])
def test_a_constant_of_another_type_converts_as_before(value, exact):
    for dim in (1, 3):
        _same_polynomial(Polynomial.const(dim, value), Polynomial(dim, {(0,) * dim: value}))
        _same_polynomial(Polynomial.const(dim, value), Polynomial.const(dim, exact))


@pytest.mark.parametrize("dim", [0, -1])
def test_constants_of_a_dimension_below_one_raise(dim):
    for build in (Polynomial.zero, Polynomial.one, lambda d: Polynomial.const(d, 3),
                  lambda d: Polynomial.const(d, Fraction(1, 2)), lambda d: Polynomial.const(d, 0.5)):
        with pytest.raises(ValueError):
            build(dim)


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("stride", [3, 5])
def test_encode_is_its_docstring_formula(width, stride):
    """Each fiber, keyed by its monomial in x3..xn, is the integer sum of
    num * 2**(width * (e1 + stride * e2)) over its terms, slot 0 lowest on
    any host: negative numerators and the largest that a slot holds too."""
    big = (1 << (width - 1)) - 1
    terms = {(0, 0, 0, 0): -3, (2, 1, 0, 0): big, (1, 2, 0, 0): -big, (0, 0, 1, 0): 7,
             (2, 0, 1, 0): -1, (1, 1, 0, 2): -5, (0, 2, 0, 2): 2}
    want: dict[int, int] = {}
    for (e1, e2, *rest), num in terms.items():
        key = ring._pack((0, 0, *rest))
        want[key] = want.get(key, 0) + num * 2 ** (width * (e1 + stride * e2))
    assert ring._encode(Polynomial(4, terms), stride, width) == want
