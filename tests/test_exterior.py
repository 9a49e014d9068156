import operator
import random
from fractions import Fraction

import pytest

from genform.exterior import (
    OrdinaryForm,
    Tensor11,
    VectorField,
    coordinate_partial,
    ext_d,
    form_from_json,
    form_to_json,
    interior,
    lie,
    mat_mul,
    merge_indices,
    poincare_antiderivative,
    pullback,
    transpose,
    vf_bracket,
    wedge,
)
from genform.randgen import FormRandom
from genform.ring import Polynomial


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_operation_results_pass_the_validating_constructor(dim):
    """Results built by the internal constructor keep increasing, in-range
    index tuples and no zero coefficients, as outside input must."""
    rnd = FormRandom(dim, dim, Fraction(0))
    for _ in range(6):
        p, q = rnd.rng.randint(0, dim), rnd.rng.randint(0, dim)
        a, b, c = rnd.form(p), rnd.form(p), rnd.form(q)
        results = [a + b, a - b, a - a, -a, a.scale(rnd.poly()), a.scale(Fraction(-3, 2)),
                   a.scale(0), wedge(a, c), wedge(c, a), ext_d(a), interior(rnd.vector_field(), a)]
        for r in results:
            rebuilt = OrdinaryForm(r.dim, r.degree, r.components)
            assert (rebuilt.degree, rebuilt.components) == (r.degree, r.components)


def dx(n, *idxs):
    return OrdinaryForm.basis(n, idxs)


def test_merge_indices_signs():
    assert merge_indices((1,), (2,)) == (1, (1, 2))
    assert merge_indices((2,), (1,)) == (-1, (1, 2))
    assert merge_indices((1, 3), (2,)) == (-1, (1, 2, 3))
    assert merge_indices((1,), (1,)) is None


def test_wedge_examples():
    n = 3
    assert wedge(dx(n, 1), dx(n, 2)) == dx(n, 1, 2)
    assert wedge(dx(n, 1), dx(n, 1)).is_zero()
    x2 = Polynomial.var(n, 2)
    got = wedge(OrdinaryForm.basis(n, (1,), x2), dx(n, 2, 3))
    assert got == OrdinaryForm(n, 3, {(1, 2, 3): x2})


def test_wedge_degree_overflow_is_zero():
    n = 2
    assert wedge(dx(n, 1, 2), dx(n, 1)).is_zero()
    assert wedge(dx(n, 1, 2), OrdinaryForm.constant(n, 5)) == dx(n, 1, 2).scale(5)


def test_ext_d_examples():
    n = 2
    x1, x2 = Polynomial.var(n, 1), Polynomial.var(n, 2)
    f = OrdinaryForm.from_scalar(x1 * x2)
    assert ext_d(f) == OrdinaryForm(n, 1, {(1,): x2, (2,): x1})
    a = OrdinaryForm.basis(n, (1,), x2)
    assert ext_d(a) == OrdinaryForm(n, 2, {(1, 2): Polynomial.const(n, -1)})
    top = dx(n, 1, 2)
    assert ext_d(top).is_zero()


def test_interior_examples():
    n = 3
    d1 = VectorField.coordinate(n, 1)
    d2 = VectorField.coordinate(n, 2)
    assert interior(d1, dx(n, 1, 2)) == dx(n, 2)
    assert interior(d2, dx(n, 1)).is_zero()
    x1, x2 = Polynomial.var(n, 1), Polynomial.var(n, 2)
    v = VectorField([x2, Polynomial.zero(n), Polynomial.zero(n)])
    got = interior(v, OrdinaryForm(n, 2, {(1, 3): x1}))
    assert got == OrdinaryForm(n, 1, {(3,): x1 * x2})


def test_interior_on_zero_form_is_zero():
    n = 2
    v = VectorField([Polynomial.var(n, 1), Polynomial.one(n)])
    assert interior(v, OrdinaryForm.constant(n, 7)).is_zero()


def test_lie_examples():
    n = 2
    x1 = Polynomial.var(n, 1)
    d1 = VectorField.coordinate(n, 1)
    assert lie(d1, OrdinaryForm.basis(n, (2,), x1)) == dx(n, 2)
    # on functions L_v f = i_v df
    rnd = FormRandom(1, n, Fraction(0))
    for _ in range(10):
        f = OrdinaryForm.from_scalar(rnd.poly())
        v = rnd.vector_field()
        assert lie(v, f) == interior(v, ext_d(f))
    # L_{x1 d1} dx1 = dx1
    v = VectorField([x1, Polynomial.zero(n)])
    assert lie(v, dx(n, 1)) == dx(n, 1)


def test_bracket_examples():
    n = 2
    d1, d2 = VectorField.coordinate(n, 1), VectorField.coordinate(n, 2)
    assert vf_bracket(d1, d2).is_zero()
    x1 = Polynomial.var(n, 1)
    v = VectorField([Polynomial.zero(n), x1])  # x1 d2
    got = vf_bracket(v, d1)
    assert got == VectorField([Polynomial.zero(n), Polynomial.const(n, -1)])
    w = FormRandom(2, n, Fraction(0)).vector_field()
    assert vf_bracket(w, w).is_zero()


def test_bracket_via_lie_on_functions():
    n = 3
    rnd = FormRandom(9, n, Fraction(0))
    for _ in range(10):
        v, w = rnd.vector_field(), rnd.vector_field()
        f = OrdinaryForm.from_scalar(rnd.poly())
        direct = lie(vf_bracket(v, w), f)
        composed = lie(v, lie(w, f)) - lie(w, lie(v, f))
        assert direct == composed


def _cubic_form(rnd: FormRandom, degree: int) -> OrdinaryForm:
    """Random form whose coefficients carry a cubic monomial as well."""
    base = rnd.form(degree)
    bump = Polynomial.var(rnd.dim, 1) ** 3 * rnd.rational()
    return base + OrdinaryForm(rnd.dim, degree,
                               {idxs: bump for idxs in base.components})


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_d_squared_and_leibniz_random(dim):
    rnd = FormRandom(100 + dim, dim, Fraction(0))
    for trial in range(34):
        degree = trial % (dim + 1)
        a = _cubic_form(rnd, degree)
        b = rnd.form(rnd.rng.randint(0, dim))
        assert ext_d(ext_d(a)).is_zero()
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b)
        other = wedge(a, ext_d(b))
        if degree % 2:
            other = -other
        assert lhs == rhs + other
        ba = wedge(b, a)
        if (a.degree * b.degree) % 2:
            ba = -ba
        assert wedge(a, b) == ba


@pytest.mark.parametrize("dim", [2, 3])
def test_cartan_formulae_random(dim):
    rnd = FormRandom(200 + dim, dim, Fraction(0))
    for trial in range(25):
        a = rnd.form(trial % (dim + 1))
        v, w = rnd.vector_field(), rnd.vector_field()
        assert (interior(v, interior(w, a)) + interior(w, interior(v, a))).is_zero()
        vw = vf_bracket(v, w)
        assert lie(v, interior(w, a)) - interior(w, lie(v, a)) == interior(vw, a)
        assert lie(v, lie(w, a)) - lie(w, lie(v, a)) == lie(vw, a)
        assert ext_d(lie(v, a)) == lie(v, ext_d(a))


def test_coordinate_partial():
    n = 2
    x1 = Polynomial.var(n, 1)
    a = OrdinaryForm.basis(n, (2,), x1 * x1)
    assert coordinate_partial(a, 1) == OrdinaryForm.basis(n, (2,), x1 * 2)


def test_pullback_chain_rule():
    # phi(t) = (t, t^2): pull back x2 dx1 -> t^2 dt; dx2 -> 2t dt
    t = Polynomial.var(1, 1)
    phi = [t, t * t]
    a = OrdinaryForm.basis(2, (2,))
    assert pullback(phi, a) == OrdinaryForm.basis(1, (1,), t * 2)
    b = OrdinaryForm.basis(2, (1,), Polynomial.var(2, 2))
    assert pullback(phi, b) == OrdinaryForm.basis(1, (1,), t * t)


def test_pullback_identity():
    n = 3
    phi = [Polynomial.var(n, i) for i in range(1, n + 1)]
    rnd = FormRandom(17, n, Fraction(0))
    for degree in range(n + 1):
        a = rnd.form(degree)
        assert pullback(phi, a) == a


def test_pullback_is_algebra_map_and_commutes_with_d():
    rnd = FormRandom(71, 2, Fraction(0))
    for _ in range(15):
        phi = [rnd.poly(), rnd.poly()]
        a, b = rnd.form(1), rnd.form(rnd.rng.randint(0, 2))
        assert pullback(phi, wedge(a, b)) == wedge(pullback(phi, a), pullback(phi, b))
        assert pullback(phi, ext_d(a)) == ext_d(pullback(phi, a))


def test_poincare_antiderivative_inverts_d():
    rnd = FormRandom(55, 3, Fraction(0))
    for trial in range(20):
        degree = trial % 3
        closed = ext_d(rnd.form(degree))  # exact, hence closed
        if closed.is_zero():
            continue
        eta = poincare_antiderivative(closed)
        assert ext_d(eta) == closed


def test_tensor_matmul_and_apply():
    n = 2
    x1 = Polynomial.var(n, 1)
    t = Tensor11([[Polynomial.zero(n), x1], [Polynomial.one(n), Polynomial.zero(n)]])
    vec = VectorField([Polynomial.one(n), Polynomial.const(n, 2)])
    assert t.apply(vec) == VectorField([x1 * 2, Polynomial.one(n)])
    assert t.matmul(Tensor11.identity(n)) == t


def test_form_json_round_trip():
    rnd = FormRandom(23, 3, Fraction(0))
    for degree in range(4):
        a = rnd.form(degree)
        assert form_from_json(form_to_json(a)) == a


def test_invalid_components_rejected():
    n = 2
    with pytest.raises(ValueError):
        OrdinaryForm(n, 2, {(2, 1): Polynomial.one(n)})
    with pytest.raises(ValueError):
        OrdinaryForm(n, 1, {(3,): Polynomial.one(n)})
    with pytest.raises(ValueError):
        OrdinaryForm(n, 2, {(1,): Polynomial.one(n)})


@pytest.mark.parametrize("change", [{"dim": 2.0}, {"dim": -1}, {"degree": 1.5}, {"degree": None},
                                    {"degree": 3}, {"components": None},
                                    {"components": {"1": "1"}}, {"components": {"[1]": 1}}])
def test_form_json_type_errors(change):
    data = {"dim": 2, "degree": 1, "components": {"[1]": "1*x2"}}
    assert form_from_json(data) == OrdinaryForm.basis(2, (1,), Polynomial.var(2, 2))
    with pytest.raises(ValueError):
        form_from_json(dict(data, **change))


def test_mat_mul_matches_explicit_sum():
    n = 2
    x1, x2, one = Polynomial.var(n, 1), Polynomial.var(n, 2), Polynomial.one(n)
    a = ((x1, x2 * 2, one), (x2, x1 * x2, Polynomial.const(n, -3)))  # 2 x 3
    b = ((x2, x1), (one, x1 * x1), (x1 + x2, Polynomial.zero(n)))  # 3 x 2
    want = tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                       for j in range(2)) for i in range(2))
    assert mat_mul(a, b, operator.mul) == want


def test_mat_mul_keeps_entry_product_order():
    # wedge anticommutes on one-forms, so product(b_kj, a_ik) flips every sign
    a = ((dx(3, 1), dx(3, 2)),)
    b = ((dx(3, 3), dx(3, 2)), (dx(3, 1), dx(3, 3)))
    want = ((dx(3, 1, 3) - dx(3, 1, 2), dx(3, 1, 2) + dx(3, 2, 3)),)
    got = mat_mul(a, b, wedge)
    assert got == want
    assert got != mat_mul(a, b, lambda x, y: wedge(y, x))


def test_mat_mul_rejects_mismatched_inner_dimensions():
    m = ((Polynomial.one(2), Polynomial.zero(2), Polynomial.one(2)),)  # 1 x 3
    with pytest.raises(ValueError):
        mat_mul(m, m, operator.mul)


def test_transpose():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(m) == ((1, 4), (2, 5), (3, 6))
    assert transpose(transpose(m)) == m
