from fractions import Fraction

import pytest

from genform.exterior import OrdinaryForm
from genform.gform import GenForm, gd, ginterior_ordinary, glie_ordinary, gwedge
from genform.gvector import GenVectorField, gv_interior, gv_lie
from genform.randgen import FormRandom
from genform.ring import Polynomial
from genform.superspace import (
    SuperFunction,
    blade_mul,
    from_super,
    super_d,
    super_interior,
    super_lie,
    super_lie_expansion,
    to_super,
)
from test_exterior import coordinate_field

EPSILONS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]


def test_blade_mul_signs():
    # z1 * z2 keeps order, z2 * z1 flips
    assert blade_mul(0b01, 0b10) == (1, 0b11)
    assert blade_mul(0b10, 0b01) == (-1, 0b11)
    assert blade_mul(0b01, 0b01) is None
    # (z1 z3) * z2: z2 passes z3 only
    assert blade_mul(0b101, 0b010) == (-1, 0b111)


def test_to_super_examples():
    n = 2
    eps = Fraction(1)
    m = GenForm.minus_one(n, eps)
    f = to_super(m)
    assert f.terms == {1 << n: Polynomial.one(n)}
    x1 = Polynomial.var(n, 1)
    a = GenForm.from_ordinary(OrdinaryForm.basis(n, (2,), x1), eps)
    assert to_super(a).terms == {0b10: x1}


def test_from_super_examples():
    n = 3
    eps = Fraction(1)
    f = SuperFunction(n, eps, {0b011: Polynomial.one(n)})
    a = from_super(f)
    assert a.degree == 2 and a.body == OrdinaryForm.basis(n, (1, 2))
    mu = 1 << n
    m = from_super(SuperFunction(n, eps, {mu: Polynomial.one(n)}))
    assert m == GenForm.minus_one(n, eps)
    x2 = Polynomial.var(n, 2)
    g = SuperFunction(n, eps, {0b001: x2, 0b011 | mu: Polynomial.one(n)})
    got = from_super(g)
    assert got.body == OrdinaryForm.basis(n, (1,), x2)
    assert got.soul == OrdinaryForm.basis(n, (1, 2))


def test_from_super_rejects_mixed_degree():
    n = 2
    f = SuperFunction(n, Fraction(1), {0b01: Polynomial.one(n),
                                       0b11: Polynomial.one(n)})
    with pytest.raises(ValueError):
        from_super(f)


def test_round_trip_random():
    for eps in EPSILONS:
        rnd = FormRandom(1, 3, eps)
        for degree in range(-1, 4):
            a = rnd.genform(degree)
            assert from_super(to_super(a)) == a


def test_super_d_examples():
    n = 2
    eps = Fraction(3, 2)
    m = SuperFunction(n, eps, {1 << n: Polynomial.one(n)})
    assert super_d(m).terms == {0: Polynomial.const(n, eps)}
    f = SuperFunction(n, eps, {0: Polynomial.var(n, 1)})
    assert super_d(f).terms == {0b01: Polynomial.one(n)}
    rnd = FormRandom(2, n, eps)
    for _ in range(10):
        g = rnd.superfunction()
        assert super_d(super_d(g)).is_zero()


def test_super_interior_examples():
    n = 2
    eps = Fraction(1)
    d1 = GenVectorField.ordinary(coordinate_field(n, 1), eps)
    f = SuperFunction(n, eps, {0b11: Polynomial.one(n)})  # z1 z2
    assert super_interior(d1, f).terms == {0b10: Polynomial.one(n)}
    # pure field with v^1_2 = 1 acting on z1 gives z2 mu with positive sign
    rows = [[Polynomial.zero(n)] * n for _ in range(n)]
    rows[0][1] = Polynomial.one(n)
    pure = GenVectorField.pure(rows, eps)
    z1 = SuperFunction(n, eps, {0b01: Polynomial.one(n)})
    got = super_interior(pure, z1)
    assert got.terms == {0b10 | (1 << n): Polynomial.one(n)}
    # same data through the form-level gamma route
    a = GenForm.from_ordinary(OrdinaryForm.basis(n, (1,)), eps)
    assert from_super(got) == gv_interior(pure, a)
    # i_V(1) = 0
    one = SuperFunction(n, eps, {0: Polynomial.one(n)})
    assert super_interior(pure, one).is_zero()


def test_super_lie_ordinary_coordinate_formula():
    # for ordinary v the Lie operator is v^a d_a + (d_b v^a) z^b d/dz^a
    n = 2
    eps = Fraction(1)
    rnd = FormRandom(3, n, eps)
    for _ in range(10):
        v = rnd.vector_field()
        V = GenVectorField.ordinary(v, eps)
        f = rnd.superfunction()
        direct = super_lie(V, f)
        expanded = super_lie_expansion(V, f)
        assert direct == expanded
    d1 = GenVectorField.ordinary(coordinate_field(n, 1), eps)
    f = SuperFunction(n, eps, {0b10: Polynomial.var(n, 1)})  # x1 z2
    assert super_lie(d1, f).terms == {0b10: Polynomial.one(n)}


def test_super_lie_expansion_general():
    for eps in EPSILONS:
        rnd = FormRandom(4, 3, eps)
        for _ in range(15):
            V = rnd.gen_vector_field()
            f = rnd.superfunction()
            assert super_lie(V, f) == super_lie_expansion(V, f)


def test_super_lie_on_constant_with_pure_field():
    n = 2
    eps = Fraction(2)
    rnd = FormRandom(5, n, eps)
    pure = GenVectorField.pure(rnd.tensor(), eps)
    one = SuperFunction(n, eps, {0: Polynomial.one(n)})
    assert super_lie(pure, one).is_zero()


def test_dictionary_soundness_all_operations():
    for eps in EPSILONS:
        rnd = FormRandom(6, 3, eps)
        for trial in range(20):
            a = rnd.genform((trial % 5) - 1)
            b = rnd.genform()
            v = rnd.vector_field()
            V = rnd.gen_vector_field()
            V_ord = GenVectorField.ordinary(v, eps)
            fa = to_super(a)
            assert from_super(fa.mul(to_super(b))) == gwedge(a, b)
            assert from_super(super_d(fa)) == gd(a)
            assert from_super(super_interior(V_ord, fa)) == ginterior_ordinary(v, a)
            assert from_super(super_lie(V_ord, fa)) == glie_ordinary(v, a)
            assert from_super(super_interior(V, fa)) == gv_interior(V, a)
            assert from_super(super_lie(V, fa)) == gv_lie(V, a)


def test_grassmann_product_laws():
    rnd = FormRandom(7, 3, Fraction(1))
    for _ in range(20):
        f, g, h = rnd.superfunction(), rnd.superfunction(), rnd.superfunction()
        assert f.mul(g).mul(h) == f.mul(g.mul(h))
    # parity-graded commutativity on single blades
    n = 3
    for m1 in range(1 << (n + 1)):
        for m2 in range(1 << (n + 1)):
            f = SuperFunction(n, Fraction(1), {m1: Polynomial.one(n)})
            g = SuperFunction(n, Fraction(1), {m2: Polynomial.one(n)})
            sign = (-1) ** (bin(m1).count("1") * bin(m2).count("1"))
            rhs = g.mul(f)
            assert f.mul(g) == rhs if sign > 0 else (f.mul(g) + rhs).is_zero()


def test_generator_square_is_zero():
    n = 2
    for bit in range(n + 1):
        f = SuperFunction(n, Fraction(1), {1 << bit: Polynomial.one(n)})
        assert f.mul(f).is_zero()


@pytest.mark.parametrize("op", [super_interior, super_lie_expansion])
def test_interior_and_lie_expansion_reject_a_mismatched_function(op):
    V = FormRandom(17, 2, Fraction(1)).gen_vector_field()
    with pytest.raises(ValueError, match="epsilon mismatch"):
        op(V, to_super(FormRandom(17, 2, Fraction(2)).genform()))
    with pytest.raises(ValueError, match="dimension mismatch"):
        op(V, to_super(FormRandom(17, 3, Fraction(1)).genform()))
