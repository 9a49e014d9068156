"""Differential tests of ``genform.ring`` against ``sympy.Poly`` over QQ.

sympy is an outside oracle here and nowhere else: genform never imports it.
Hypothesis draws the polynomials; every operation is computed by both and the
results compared term by term, so a ring kernel that miscounts a coefficient,
an exponent or a sign on any drawn input fails.

``Polynomial.sum_products`` has two branches, schoolbook and fiber (Kronecker
substitution dense in x1 and x2, sparse in the other variables), chosen by a
size rule on module constants; the kernel tests force the rule each way by
patching those constants and require both branches to give the oracle's
result with the same den and numerators.

The text boundary, ``Polynomial.parse`` and ``str``, works on the packed
integers; it is compared with the Fraction-based reader and printer that the
ring used before, kept here as the reference.
"""

import contextlib
import math
import random
import re
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from genform import ring  # noqa: E402
from genform.exterior import OrdinaryForm, ext_d, pullback, wedge  # noqa: E402
from genform.randgen import FormRandom  # noqa: E402
from genform.ring import (MAX_EXPONENT, ExpPoly, InputError, Polynomial, compose_all,  # noqa: E402
                          parse_rational)

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


@st.composite
def signed_triples(draw):
    """1-6 triples (s, a, b) of one dimension with s = +-1, zero operands
    mixed in."""
    dim = draw(st.integers(1, 3))
    operand = st.one_of(st.just(Polynomial.zero(dim)), _poly(dim))
    return [(draw(st.sampled_from((1, -1))), draw(operand), draw(operand))
            for _ in range(draw(st.integers(1, 6)))]


@ORACLE
@given(signed_triples())
def test_sum_products_matches_sympy(terms):
    got = Polynomial.sum_products(terms)
    want = sympy.Poly(0, *_gens(got.dim), domain=QQ)
    for s, a, b in terms:
        want += to_sympy(a) * to_sympy(b) * s
    assert_same(got, want)
    # canonical: structurally equal to the sum built one product at a time
    folded = Polynomial.zero(got.dim)
    for s, a, b in terms:
        folded = folded + (a * b if s > 0 else -(a * b))
    assert (got.den, got._nums) == (folded.den, folded._nums)


# The size rule forced each way: no call passes the schoolbook one's minimum,
# and every call with a product and a coefficient bound below 2**63 passes the
# fiber one's.
RULES = {
    "schoolbook": {"_FIBER_MIN_PRODUCTS": math.inf},
    "fiber": {"_FIBER_MIN_PRODUCTS": 1, "_FIBER_MAX_SLOTS": 1 << 16},
    "default": {},
}


@contextlib.contextmanager
def forced(rule: str):
    """Run under the rule forced one way, or as it stands; yields the list of
    slot widths of the calls that took the fiber branch."""
    widths: list[int] = []
    fiber_sum = ring._fiber_sum

    def recorded(terms, den, box, width):
        widths.append(width)
        return fiber_sum(terms, den, box, width)

    with pytest.MonkeyPatch.context() as mp:
        for name, value in RULES[rule].items():
            mp.setattr(ring, name, value)
        mp.setattr(ring, "_fiber_sum", recorded)
        yield widths


def both_branches(terms) -> Polynomial:
    """The kernel's result, after checking that both branches give the same
    den and numerators and that the schoolbook one took no other branch."""
    with forced("schoolbook") as widths:
        school = Polynomial.sum_products(terms)
    assert widths == []
    with forced("fiber"):
        fiber = Polynomial.sum_products(terms)
    assert (fiber.den, fiber._nums) == (school.den, school._nums)
    return fiber


def sympy_sum(terms, dim: int) -> "sympy.Poly":
    want = sympy.Poly(0, *_gens(dim), domain=QQ)
    for s, a, b in terms:
        want += to_sympy(a) * to_sympy(b) * s
    return want


@st.composite
def kernel_calls(draw):
    """1-17 triples (s, a, b) at dims 1-4 with numerators up to 6, 2**15,
    2**27 or 2**30 over denominators up to 6, about one operand in five zero;
    one time in three followed by the same products negated, so that
    everything cancels.  The numerator sizes lead to 32-bit slots, 64-bit slots and
    bounds above 2**63."""
    dim = draw(st.integers(1, 4))
    top = draw(st.sampled_from((6, 1 << 15, 1 << 27, 1 << 30)))
    nums = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, top - 1, 1 - top)))
    keys = st.tuples(*[st.integers(0, 3)] * dim)
    coeffs = st.builds(Fraction, nums, st.integers(1, 6))
    nonzero = st.dictionaries(keys, coeffs, min_size=1, max_size=6).map(lambda t: Polynomial(dim, t))
    operand = st.one_of(nonzero, nonzero, nonzero, nonzero, st.just(Polynomial.zero(dim)))
    terms = [(draw(st.sampled_from((1, -1))), draw(operand), draw(operand))
             for _ in range(draw(st.integers(1, 17)))]
    if draw(st.sampled_from((False, False, True))):
        terms += [(-s, b, a) for s, a, b in terms]
    return terms


@ORACLE
@given(kernel_calls())
def test_sum_products_branches_match_sympy(terms):
    got = both_branches(terms)
    assert_same(got, sympy_sum(terms, got.dim))


@pytest.mark.parametrize("num, pairs, width", [
    ((1 << 15) - 1, 1, 32),   # bound 2 * num**2 just below 2**31
    (1 << 15, 1, 64),         # ... at 2**31
    (1 << 30, 3, 64),         # 3 * 2**61, below 2**63
    (1 << 30, 4, None),       # 2**63: the schoolbook loop
])
@pytest.mark.parametrize("sign", [1, -1])
def test_slot_width_follows_the_coefficient_bound(num, pairs, width, sign):
    """The middle coefficient of each (num*x1 + num*x2)**2 is 2 * num**2, the
    bound of its pair, so the sum reaches the bound in one slot."""
    a = Polynomial(2, {(1, 0): num, (0, 1): num})
    terms = [(sign, a, a)] * pairs
    with forced("fiber") as widths:
        got = Polynomial.sum_products(terms)
    assert widths == ([width] if width else [])
    assert got._nums[1 + (1 << 16)] == sign * pairs * 2 * num * num
    assert_same(both_branches(terms), sympy_sum(terms, 2))


def test_exponent_overflow_raises_on_the_fiber_branch():
    top, x1 = Polynomial(2, {(MAX_EXPONENT, 0): 1}), Polynomial.var(2, 1)
    with forced("fiber") as widths:
        for terms in ([(1, top, x1)], [(1, x1, x1), (1, top, x1), (-1, x1, top)]):
            with pytest.raises(ValueError, match="exponent overflow"):
                Polynomial.sum_products(terms)
        assert widths == []
        assert Polynomial(2, {(MAX_EXPONENT - 1, 0): 1}) * x1 == top
        assert widths == [32]


def test_exponent_overflow_in_a_sparse_variable_raises_on_the_fiber_branch():
    """The box that raises covers x3..xn too, not only the dense x1 and x2."""
    top, x3 = Polynomial(3, {(1, 0, MAX_EXPONENT): 1}), Polynomial.var(3, 3)
    with forced("fiber") as widths:
        with pytest.raises(ValueError, match="exponent overflow"):
            Polynomial.sum_products([(1, x3, x3), (1, top, x3)])
        assert widths == []
        assert Polynomial(3, {(1, 0, MAX_EXPONENT - 1): 1}) * x3 == top
        assert widths == [32]


def _spread(dim: int, count: int, top: int, seed: int) -> Polynomial:
    """count draws of a term with exponents 0..top and an integer numerator in
    -99..99 (zero draws dropped)."""
    rnd = random.Random(seed)
    return Polynomial(dim, {tuple(rnd.randint(0, top) for _ in range(dim)): rnd.randint(-99, 99)
                            for _ in range(count)})


def _lift(p: Polynomial, dim: int, first: int) -> Polynomial:
    """p in two variables, put at x_first and x_(first + 1) of dim variables."""
    pad = (0,) * (first - 1), (0,) * (dim - first - 1)
    return Polynomial(dim, {(*pad[0], *e, *pad[1]): c for e, c in p.terms.items()})


def _fibers(p: Polynomial) -> int:
    """The number of distinct exponents of x3..xn among p's terms."""
    return len({key >> 32 for key in p._nums})


@pytest.mark.parametrize("dim", [3, 4])
def test_operands_of_several_fibers_take_the_fiber_branch(dim):
    terms = [(1, _spread(dim, 60, 3, 1), _spread(dim, 60, 3, 2)),
             (-1, _spread(dim, 50, 3, 3), _spread(dim, 40, 3, 4))]
    assert sum(len(a._nums) * len(b._nums) for _, a, b in terms) >= ring._FIBER_MIN_PRODUCTS
    assert all(_fibers(p) > 2 for _, a, b in terms for p in (a, b))
    with forced("default") as widths:
        got = Polynomial.sum_products(terms)
    assert widths == [32]
    assert _fibers(got) > 4
    checked = both_branches(terms)
    assert (got.den, got._nums) == (checked.den, checked._nums)
    assert_same(got, sympy_sum(terms, dim))


def test_an_output_fiber_that_cancels_to_zero_writes_nothing():
    """(q + x3 p) b - (x3 p) b: the x3 fiber of the sum is exactly zero, the
    x3-free fiber is q b."""
    q, p, b = (_lift(_spread(2, 40, 5, seed), 3, 1) for seed in (5, 6, 7))
    x3p = Polynomial.var(3, 3) * p
    terms = [(1, q + x3p, b), (-1, x3p, b)]
    assert sum(len(a._nums) * len(b._nums) for _, a, b in terms) >= ring._FIBER_MIN_PRODUCTS
    with forced("default") as widths:
        got = Polynomial.sum_products(terms)
    assert widths == [32]
    assert _fibers(got) == 1 and not got.is_zero()
    with forced("schoolbook"):
        assert (got.den, got._nums) == ((q * b).den, (q * b)._nums)
    assert_same(both_branches(terms), sympy_sum(terms, 3))


@pytest.mark.parametrize("top, width", [(32, 32), (33, None)])
def test_a_fiber_box_above_the_cap_falls_back_to_the_schoolbook_loop(top, width):
    """x1 and x2 reach 31 in a and top in b: a box of 64 x 64 = 4096 slots
    takes the fiber branch, 65 x 64 = 4160 the schoolbook loop.  Moved to x3
    and x4, the same exponents are sparse and do not count."""
    a = Polynomial(2, {(k, k): k + 1 for k in range(32)})
    b = Polynomial(2, {(k, 32 - k): 1 for k in range(33)} | {(top, 0): 1})
    with forced("default") as widths:
        got = a * b
    assert widths == ([width] if width else [])
    assert_same(both_branches([(1, a, b)]), sympy_sum([(1, a, b)], 2))
    with forced("default") as widths:
        assert _lift(a, 4, 3) * _lift(b, 4, 3) == _lift(got, 4, 3)
    assert widths == [32]


# Each polynomial keeps its extent and its fiber encodings, one per (stride,
# width), across kernel calls.  These calls reuse the same operand objects, so
# an encoding read under the wrong stride or width gives a wrong sum here.


def fiber_call(terms, width: int) -> Polynomial:
    """One call forced onto the fiber branch, after checking its slot width
    and that it gives the schoolbook branch's den and numerators and sympy's
    sum."""
    with forced("fiber") as widths:
        got = Polynomial.sum_products(terms)
    assert widths == [width]
    with forced("schoolbook"):
        school = Polynomial.sum_products(terms)
    assert (got.den, got._nums) == (school.den, school._nums)
    assert_same(got, sympy_sum(terms, got.dim))
    return got


def test_kept_encodings_follow_the_slot_width():
    """a in a 32-bit call, a 64-bit one at the same stride, and a 32-bit one
    again: big has b's exponents, so only the width tells the calls apart."""
    a, b = _spread(3, 12, 3, 11), _spread(3, 12, 3, 12)
    big = b * (1 << 24)
    first = fiber_call([(1, a, b)], 32)
    fiber_call([(1, a, big), (-1, b, a)], 64)
    assert fiber_call([(1, a, b)], 32) == first


def test_kept_encodings_follow_the_stride():
    """a against operands whose x1 reaches 1 and 6: three calls at strides
    5, 10 and 5 again."""
    a, narrow = _spread(3, 12, 3, 21), _spread(3, 12, 1, 22)
    wide = narrow + Polynomial(3, {(6, 1, 0): 5, (6, 0, 2): -7})
    first = fiber_call([(1, a, narrow)], 32)
    fiber_call([(1, a, wide), (1, narrow, a)], 32)
    assert fiber_call([(1, narrow, a)], 32) == first


def test_one_operand_in_several_triples_of_one_call():
    a, b, c = (_spread(3, 10, 2, seed) for seed in (31, 32, 33))
    fiber_call([(1, a, b), (-1, c, a), (1, a, a), (1, b, c), (-1, a, c)], 32)


def test_kept_kernel_data_leaves_value_hash_and_terms_alone():
    a, b = _spread(3, 12, 3, 41), _spread(3, 12, 2, 42)
    twins = [Polynomial(3, dict(p.terms)) for p in (a, b)]
    fiber_call([(1, a, b)], 32)
    fiber_call([(1, a, a * (1 << 24))], 64)
    assert a._kernel is not None and b._kernel is not None
    for p, twin in zip((a, b), twins):
        assert twin._kernel is None
        assert p == twin and hash(p) == hash(twin)
        assert dict(p.terms) == dict(twin.terms)


def test_sum_products_rejects_no_terms_and_mixed_dimensions():
    x = Polynomial.var(2, 1)
    with pytest.raises(ValueError):
        Polynomial.sum_products([])
    with pytest.raises(ValueError):
        Polynomial.sum_products([(1, x, x), (1, x, Polynomial.var(3, 1))])
    with pytest.raises(ValueError):
        Polynomial.sum_products([(1, Polynomial.zero(3), x)])


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
    assert_same(compose_all((p,), args)[0], sympy.Poly(image, *ys, domain=QQ))


def composed_by_sympy(p: Polynomial, args) -> "sympy.Poly":
    """p(args) by sympy's own arithmetic: per term, the coefficient times
    the product of each argument's power, summed."""
    target = args[0].dim
    image = sympy.Poly(0, *_gens(target, "y"), domain=QQ)
    for exps, coeff in p.terms.items():
        term = sympy.Poly(QQ(coeff.numerator, coeff.denominator), *_gens(target, "y"),
                          domain=QQ)
        for arg, e in zip(args, exps):
            term *= to_sympy(arg, "y") ** e
        image += term
    return image


@st.composite
def compositions(draw):
    """(p, args): p in 1-4 variables with exponents up to 6, shared between
    terms as often as not, and one argument per variable in 1-4 variables,
    any of them zero; coefficients with denominators up to 6 on both sides."""
    source, target = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # each variable's exponents come from a pool of one or two, so terms share powers
    pools = [draw(st.lists(st.integers(0, 6), min_size=1, max_size=2)) for _ in range(source)]
    keys = st.tuples(*map(st.sampled_from, pools))
    p = Polynomial(source, draw(st.dictionaries(keys, rationals, max_size=4)))
    arg_keys = st.tuples(*[st.integers(0, 2)] * target)
    args = [Polynomial(target, draw(st.dictionaries(arg_keys, rationals, max_size=3)))
            for _ in range(source)]
    return p, args


@ORACLE
@given(compositions())
def test_compose_of_any_dimensions_matches_sympy(case):
    p, args = case
    assert_same(compose_all((p,), args)[0], composed_by_sympy(p, args))


COMPOSE_CASES = {
    "zero polynomial": ("0", 2, ["1*x1 + 1", "1/2*x2"]),
    "zero argument": ("1*x1^3*x2 + 2*x2^2 + 1/3", 3, ["0", "1*x1 + -1*x3"]),
    "all arguments zero": ("1*x1^2 + 5/2", 1, ["0", "0"]),
    "repeated powers": ("1*x1^4 + 1*x1^4*x2 + -1/5*x1^4*x2^4 + 1*x2^4", 2,
                        ["1/2*x1 + 1*x2", "1*x1*x2 + -2/3"]),
    "high exponents": ("1*x1^12*x2^9 + -3/7*x1^9", 1, ["1/2*x1 + 1", "1*x1^2 + -1"]),
    "dim 4 to dim 1": ("1*x1*x2*x3*x4 + 1*x4^5 + 2/3*x1^2*x3", 1,
                       ["1*x1", "1/3", "1*x1^2 + 1/2", "-1*x1 + 3"]),
    "dim 1 to dim 4": ("1*x1^6 + -1/2*x1^3 + 7", 4, ["1/2*x1 + 1*x2*x3 + -1*x4^2"]),
}


@pytest.mark.parametrize("text, target, arg_texts", COMPOSE_CASES.values(),
                         ids=COMPOSE_CASES.keys())
def test_compose_edge_cases_match_sympy(text, target, arg_texts):
    args = [Polynomial.parse(target, a) for a in arg_texts]
    p = Polynomial.parse(len(args), text)
    assert_same(compose_all((p,), args)[0], composed_by_sympy(p, args))


def pullback_by_compose(phi, a):
    """The pullback of a with each coefficient composed on its own: the sum
    over components of compose(coefficient) d phi^i1 ^ ... ^ d phi^ip."""
    dphi = [ext_d(OrdinaryForm.from_scalar(p)) for p in phi]
    result = OrdinaryForm.zero(phi[0].dim, a.degree)
    for idxs, coeff in a.components.items():
        term = OrdinaryForm.from_scalar(compose_all((coeff,), list(phi))[0])
        for i in idxs:
            term = wedge(term, dphi[i - 1])
        result = result + term
    return result


@ORACLE
@given(st.data())
def test_pullback_equals_per_coefficient_compose(data):
    p, phi = data.draw(compositions())
    degree = data.draw(st.integers(0, p.dim))
    indices = st.lists(st.integers(1, p.dim), min_size=degree, max_size=degree, unique=True)
    comps = {tuple(sorted(data.draw(indices))): q
             for q in [p, p * p, Polynomial.var(p.dim, 1)]}
    a = OrdinaryForm(p.dim, degree, comps)
    assert pullback(phi, a) == pullback_by_compose(phi, a)


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


@st.composite
def partial_cases(draw):
    dim = draw(st.integers(1, 4))
    return draw(st.one_of(st.just(Polynomial.zero(dim)), _poly(dim)))


@ORACLE
@given(partial_cases())
@example(Polynomial.zero(1))
@example(Polynomial.zero(4))
@example(Polynomial.parse(1, "5/3*x1^3 + -1/2"))
@example(Polynomial.parse(2, "3/4*x1^2*x2 + 1/6*x2^3 + 7"))
@example(Polynomial.parse(3, "-2/9*x1*x2*x3^2 + 1/3*x3"))
@example(Polynomial.parse(4, "5/2*x1^3*x4 + -7/4*x2^2*x3 + 1/8*x4^2"))
def test_every_first_and_second_partial_matches_sympy(p):
    sp = to_sympy(p)
    axes = range(1, p.dim + 1)
    for i in axes:
        first = p.partial(i)
        assert_same(first, sp.diff(sp.gens[i - 1]))
        for j in axes:
            assert_same(first.partial(j), sp.diff(sp.gens[i - 1], sp.gens[j - 1]))
    # the kept partials: a repeated call returns the object formed first
    assert all(p.partial(i) is p.partial(i) for i in axes)
    assert all(p.partial(i).partial(j) is p.partial(i).partial(j) for i in axes for j in axes)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_an_axis_out_of_range_raises_before_and_after_the_partials_are_kept(dim):
    p = Polynomial.parse(dim, f"3/2*x{dim}^2 + 1*x1")
    for axis in (0, dim + 1, -1):
        with pytest.raises(ValueError):
            p.partial(axis)
    assert p._partials is None
    kept = [p.partial(axis) for axis in range(1, dim + 1)]
    assert p._partials == kept
    for axis in (0, dim + 1, -1):
        with pytest.raises(ValueError):
            p.partial(axis)
    assert p._partials == kept


# -- the text boundary against the Fraction-based reference --------------------


def reference_parse(dim: int, text) -> tuple[int, dict]:
    """The Fraction-based reader: (den, {exponents: numerator}),
    or InputError with the message of the ring's own reader."""
    if not isinstance(text, str):
        raise InputError(f"polynomial must be a string, got {text!r}")
    text = text.strip()
    if not text:
        raise InputError("empty polynomial string")
    terms: dict = {}
    for raw_term in text.split("+"):
        raw_term = raw_term.strip()
        if not raw_term:
            raise InputError(f"empty term in {text!r}")
        factors = [f.strip() for f in raw_term.split("*")]
        coeff = parse_rational(factors[0])
        exps = [0] * dim
        for factor in factors[1:]:
            m = re.match(r"^x(\d+)(?:\^(\d+))?$", factor)
            if not m:
                raise InputError(f"bad factor {factor!r} in {text!r}")
            index = int(m.group(1))
            if not 1 <= index <= dim:
                raise InputError(f"variable x{index} out of range for dim {dim}")
            exps[index - 1] += int(m.group(2) or 1)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    if dim < 1:
        raise InputError(f"dim must be positive, got {dim}")
    live = {exps: c for exps, c in terms.items() if c}
    for exps in live:
        for e in exps:
            if e > MAX_EXPONENT:
                raise InputError(f"exponent {e!r} in {exps} is not an int in 0..{MAX_EXPONENT}")
    den = math.lcm(*(c.denominator for c in live.values()))
    return den, {exps: int(c * den) for exps, c in live.items()}


def reference_str(p: Polynomial) -> str:
    """The Fraction-based printer: str(Fraction) per coefficient."""
    terms = p.terms
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        factors = [str(terms[exps])]
        factors += [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]
        parts.append("*".join(factors))
    return " + ".join(parts)


_COEFFS = ["0", "1", "-1", "+2", "4/6", "-3/9", "1/0", "0/5", " 7 ", "-12/8", "1.5", "", "x1"]
_FACTORS = ["x1", "x2", "x3", "x4", "x0", "x9", "x1^32767", "x1^16384", "x2^2", "x1^0",
            "x01", "x3^32767", "", "y", "x1^", "2"]


def random_text(rng: random.Random) -> str:
    """A text of atoms such as 0, 4/6, 1/0, x0, x9 and x1^32767, with repeated
    factors and terms, empty terms and stray + and *."""
    terms = []
    for _ in range(rng.randint(0, 4)):
        factors = [rng.choice(_COEFFS)]
        factors += [rng.choice(_FACTORS) for _ in range(rng.randint(0, 3))]
        terms.append("*".join(factors))
    for _ in range(rng.randint(0, 2)):  # a repeated term, as written or negated
        if terms:
            term = rng.choice(terms)
            terms.append(term if rng.random() < 0.5 else "-" + term.lstrip("+-"))
    text = rng.choice([" + ", "+", " +  "]).join(terms)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):  # a stray + or *
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice("+*") + text[at:]
    return text


def _outcome(read, dim: int, text):
    try:
        return read(dim, text)
    except InputError as error:
        return "InputError", str(error)


def _packed_parse(dim: int, text) -> tuple[int, dict]:
    p = Polynomial.parse(dim, text)
    return p.den, {ring._unpack(key, dim): num for key, num in p._nums.items()}


_TEXTS = [
    "1*x1^40000 + -1*x1^40000",  # past the limit, but cancelled before the check
    "1*x1^32767*x1 + 1",
    "1*x1^16384*x1^16384 + -1*x1^16384*x1^16384 + 1*x2",
    "1/2*x1 + 1/3*x1 + 1/6*x1 + -1*x1",
    "4/6*x2 + 2/9*x2*x2 + 0*x1 + 0/7",
    "3/2*x1^2*x2 + -1*x3",
    "1*x1^32767*x1 + -1*x1^32768 + 1*x2^99999",
    "",
    "+",
    "1 + + 2",
    "1*",
    "*x1",
    "1/0",
    "0",
    None,
    3,
]


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
def test_parse_matches_the_fraction_reference(dim):
    rng = random.Random(dim)
    texts = _TEXTS + [random_text(rng) for _ in range(1500)]
    for text in texts:
        assert _outcome(_packed_parse, dim, text) == _outcome(reference_parse, dim, text), text


def test_the_reference_texts_reach_every_outcome():
    """The drawn texts parse, cancel to zero and fail in each way the reader knows."""
    rng = random.Random(0)
    seen = set()
    for text in [random_text(rng) for _ in range(1500)]:
        got = _outcome(_packed_parse, 3, text)
        seen.add(got[1].split()[0] if got[0] == "InputError" else "zero" if not got[1] else
                 "den > 1" if got[0] > 1 else "den 1")
    assert seen >= {"zero", "den 1", "den > 1", "empty", "bad", "variable", "exponent"}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_str_matches_the_fraction_reference(dim):
    draw = FormRandom(dim, dim, Fraction(1))
    polys = [draw.poly() for _ in range(40)]
    polys += [a * b * Fraction(3, 14) + c for a, b, c in zip(polys, polys[1:], polys[2:])]
    assert any(p.den > 1 for p in polys[40:])
    for p in polys + [Polynomial.zero(dim), Polynomial.const(dim, Fraction(-4, 6))]:
        assert str(p) == reference_str(p)
        assert Polynomial.parse(dim, str(p)) == p
