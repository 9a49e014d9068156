import itertools
import json
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from genform.cli import form_from_json, json_dim, json_field, poly_matrix_from_json
from genform.exterior import (
    OrdinaryForm,
    VectorField,
    _d_table,
    _hooks,
    coordinate_partial,
    ext_d,
    from_row_forms,
    interior,
    inverse_defect,
    lie,
    mat_identity,
    mat_map,
    mat_mul,
    merge_indices,
    poincare_antiderivative,
    pullback,
    row_forms,
    square_matrix,
    transpose,
    vf_bracket,
    wedge,
    wedge_dot,
    wedge_sum,
)
from genform.randgen import COEFF_POOL, FormRandom
from genform.ring import ExpPoly, InputError, Polynomial, compose_all, poly_dot
from test_ring import nonzero_poly


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


def coordinate_field(n: int, index: int) -> VectorField:
    """d/dx^index."""
    return VectorField([Polynomial.const(n, int(i == index)) for i in range(1, n + 1)])


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
    d1 = coordinate_field(n, 1)
    d2 = coordinate_field(n, 2)
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
    d1 = coordinate_field(n, 1)
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
    d1, d2 = coordinate_field(n, 1), coordinate_field(n, 2)
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
    scale = Fraction(0) if rnd.rng.random() < 0.25 else rnd.rng.choice(COEFF_POOL)
    x1 = Polynomial.var(rnd.dim, 1)
    bump = x1 * x1 * x1 * scale
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


def reference_pullback(phi, a):
    """The pullback as a sum of wedge chains: each coefficient composed on its
    own, wedged with d phi^i1, ..., d phi^ip in turn from the 0-form, and the
    terms added with +."""
    dphi = [ext_d(OrdinaryForm.from_scalar(p)) for p in phi]
    result = OrdinaryForm.zero(phi[0].dim, a.degree)
    for idxs, coeff in a.components.items():
        term = OrdinaryForm.from_scalar(compose_all((coeff,), phi)[0])
        for i in idxs:
            term = wedge(term, dphi[i - 1])
        result = result + term
    return result


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_pullback_matches_the_wedge_chain_reference(dim):
    """The pullback by Jacobian minors stores what the wedge chains give,
    nominal degree included: zero forms, degrees -1..dim + 1, and maps from
    source dimensions dim - 1..dim + 1 within 1..5."""
    for source_dim in range(max(1, dim - 1), min(dim + 1, 5) + 1):
        target, source = FormRandom(80 + dim, dim, Fraction(0)), FormRandom(90 + dim, source_dim, 0)
        for degree in range(-1, dim + 2):
            phi = [source.poly() for _ in range(dim)]
            forms = [target.form(degree), OrdinaryForm.zero(dim, degree)]
            if 0 <= degree <= dim:  # a component for sure, on the first `degree` axes
                forms.append(OrdinaryForm.basis(dim, range(1, degree + 1),
                                                nonzero_poly(target)))
            for a in forms:
                got, want = pullback(phi, a), reference_pullback(phi, a)
                assert (got.dim, got.degree, got.components) == (want.dim, want.degree,
                                                                 want.components)


def test_poincare_antiderivative_inverts_d():
    rnd = FormRandom(55, 3, Fraction(0))
    for trial in range(20):
        degree = trial % 3
        closed = ext_d(rnd.form(degree))  # exact, hence closed
        if closed.is_zero():
            continue
        eta = poincare_antiderivative(closed)
        assert ext_d(eta) == closed


def test_poincare_antiderivative_example_and_errors():
    # a = 3 x1^2 dx1 ^ dx2 has weight 2 + 2: b = (3/4) x1^2 (x1 dx2 - x2 dx1)
    n = 2
    x1, x2 = Polynomial.var(n, 1), Polynomial.var(n, 2)
    a = OrdinaryForm(n, 2, {(1, 2): x1 * x1 * 3})
    coeff = x1 * x1 * Fraction(3, 4)
    assert poincare_antiderivative(a) == OrdinaryForm(n, 1, {(1,): -(coeff * x2),
                                                             (2,): coeff * x1})
    with pytest.raises(ValueError):
        poincare_antiderivative(OrdinaryForm.constant(n, 1))
    with pytest.raises(TypeError):
        poincare_antiderivative(OrdinaryForm(n, 1, {(1,): ExpPoly.exp(x1)}))


def test_interior_hands_the_kernel_no_zero_component(monkeypatch):
    n = 3
    rnd = FormRandom(56, n, Fraction(0))
    v = VectorField([nonzero_poly(rnd), Polynomial.zero(n), nonzero_poly(rnd)])
    a = rnd.form(2)
    want = reduce(operator.add, (interior(coordinate_field(n, r), a).scale(v.component(r))
                                 for r in range(1, n + 1)))
    seen = []
    sum_products = Polynomial.sum_products

    def recorded(terms):
        seen.extend(terms)
        return sum_products(terms)

    monkeypatch.setattr(Polynomial, "sum_products", staticmethod(recorded))
    assert interior(v, a) == want
    assert seen and all(not x.is_zero() for _, x, _ in seen)


def test_tensor_matmul_and_apply():
    # a (1,1) tensor is a polynomial matrix: t v is one dot per row
    n = 2
    x1, one, zero = Polynomial.var(n, 1), Polynomial.one(n), Polynomial.zero(n)
    t = ((zero, x1), (one, zero))
    vec = VectorField([one, Polynomial.const(n, 2)])
    assert VectorField([poly_dot(row, vec.components) for row in t]) == VectorField([x1 * 2, one])
    assert mat_mul(t, mat_identity(n, one, zero), poly_dot) == t


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensor_row_forms_round_trip(dim):
    rnd = FormRandom(40 + dim, dim, Fraction(0))
    for _ in range(10):
        t = rnd.tensor()
        rows = row_forms(t)
        assert all(row.degree == 1 for row in rows)
        assert [[row.components.get((b,), Polynomial.zero(dim)) for b in range(1, dim + 1)]
                for row in rows] == [list(r) for r in t]
        assert from_row_forms(rows) == t
    with pytest.raises(ValueError):
        from_row_forms([OrdinaryForm.constant(dim, 1)] * dim)


def test_lie_on_functions_is_the_directional_derivative():
    rnd = FormRandom(43, 3, Fraction(0))
    for _ in range(10):
        v, p = rnd.vector_field(), rnd.poly()
        along = sum((c * p.partial(b) for b, c in enumerate(v.components, 1)), Polynomial.zero(3))
        assert OrdinaryForm.from_scalar(along) == lie(v, OrdinaryForm.from_scalar(p))


def test_form_json_round_trip():
    rnd = FormRandom(23, 3, Fraction(0))
    for degree in range(4):
        a = rnd.form(degree)
        data = {"dim": 3, "degree": degree,
                "components": {json.dumps(list(idxs)): str(c) for idxs, c in a.components.items()}}
        assert form_from_json(data) == a


def test_invalid_components_rejected():
    n = 2
    with pytest.raises(ValueError):
        OrdinaryForm(n, 2, {(2, 1): Polynomial.one(n)})
    with pytest.raises(ValueError):
        OrdinaryForm(n, 1, {(3,): Polynomial.one(n)})
    with pytest.raises(ValueError):
        OrdinaryForm(n, 2, {(1,): Polynomial.one(n)})
    # a component at a degree outside 0..dim is rejected too, not dropped
    for degree, idxs in ((3, (1, 2, 3)), (-1, (1,)), (-1, ())):
        with pytest.raises(InputError):
            OrdinaryForm(n, degree, {idxs: Polynomial.one(n)})


@pytest.mark.parametrize("change", [{"dim": 2.0}, {"dim": -1}, {"degree": 1.5}, {"degree": None},
                                    {"degree": 3}, {"components": None},
                                    {"components": {"1": "1"}}, {"components": {"[1]": 1}}])
def test_form_json_type_errors(change):
    data = {"dim": 2, "degree": 1, "components": {"[1]": "1*x2"}}
    assert form_from_json(data) == OrdinaryForm.basis(2, (1,), Polynomial.var(2, 2))
    with pytest.raises(ValueError):
        form_from_json(dict(data, **change))


@pytest.mark.parametrize("read", [
    lambda: json_dim({"dim": 1.5}),
    lambda: json_dim({"dim": None}),
    lambda: json_dim({"dim": True}),
    lambda: json_dim({"dim": 0}),
    lambda: json_dim({}),
    lambda: json_dim([2]),
    lambda: json_field({"degree": "1"}, "degree", int),
    lambda: json_field({"epsilon": 1}, "epsilon", str),
    lambda: json_field({"epsilon": None}, "epsilon", str, "0"),
    lambda: json_field({"body": 5}, "body", dict),
    lambda: json_field({"v": 5}, "v", list),
    lambda: poly_matrix_from_json(3, [5, 5, 5]),
    lambda: poly_matrix_from_json(2, [["1", "1*x1"]]),
], ids=["dim float", "dim null", "dim bool", "dim zero", "dim missing", "not an object",
        "int as string", "string as int", "null with default", "object as int",
        "array as int", "rows not arrays", "too few rows"])
def test_shared_json_readers_reject_bad_input(read):
    # the readers every fixture goes through: each bad value is InputError
    with pytest.raises(InputError):
        read()


def test_shared_json_readers_accept_good_input():
    assert json_dim({"dim": 3}) == 3
    assert json_field({}, "epsilon", str, "0") == "0"
    assert json_field({"v": []}, "v", list) == []
    assert poly_matrix_from_json(2, [["1", "1*x1"], ["1*x2", "0"]]) == (
        (Polynomial.one(2), Polynomial.var(2, 1)), (Polynomial.var(2, 2), Polynomial.zero(2)))


def test_mat_mul_matches_explicit_sum():
    n = 2
    x1, x2, one = Polynomial.var(n, 1), Polynomial.var(n, 2), Polynomial.one(n)
    a = ((x1, x2 * 2, one), (x2, x1 * x2, Polynomial.const(n, -3)))  # 2 x 3
    b = ((x2, x1), (one, x1 * x1), (x1 + x2, Polynomial.zero(n)))  # 3 x 2
    want = tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                       for j in range(2)) for i in range(2))
    assert mat_mul(a, b, poly_dot) == want


def test_mat_mul_keeps_entry_product_order():
    # wedge anticommutes on one-forms, so product(b_kj, a_ik) flips every sign
    a = ((dx(3, 1), dx(3, 2)),)
    b = ((dx(3, 3), dx(3, 2)), (dx(3, 1), dx(3, 3)))
    want = ((dx(3, 1, 3) - dx(3, 1, 2), dx(3, 1, 2) + dx(3, 2, 3)),)
    got = mat_mul(a, b, wedge_dot)
    assert got == want
    assert got != mat_mul(a, b, lambda row, col: wedge_dot(col, row))


def reference_dot(product):
    """The row-times-column sum as a left fold of + over the entry products,
    which is how mat_mul summed before the dots: the reference path."""
    return lambda row, col: reduce(operator.add, map(product, row, col))


def reference_wedge(a: OrdinaryForm, b: OrdinaryForm) -> OrdinaryForm:
    """The exterior product one coefficient product at a time."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = {}
    for idx_a, ca in a.components.items():
        for idx_b, cb in b.components.items():
            merged = merge_indices(idx_a, idx_b)
            if merged is not None:
                sign, idxs = merged
                term = ca * cb if sign > 0 else -(ca * cb)
                out[idxs] = out[idxs] + term if idxs in out else term
    return OrdinaryForm(a.dim, a.degree + b.degree,
                        out if 0 <= a.degree + b.degree <= a.dim else {})


def random_entry(rnd: FormRandom, degree: int) -> OrdinaryForm:
    """A random form of the given degree, or a zero form of any degree from
    -1 to dim + 1."""
    if rnd.rng.random() < 0.25:
        return OrdinaryForm.zero(rnd.dim, rnd.rng.randint(-1, rnd.dim + 1))
    return rnd.form(degree)


def random_row_and_column(rnd: FormRandom, left, right) -> tuple[list, list]:
    """A row of left(rnd, p) and a column of right(rnd, q) entries of equal
    length 1-4.  Sometimes the pairs are repeated with the column negated,
    so that the sum cancels, and then followed by a pair whose column entry
    is a zero of any degree, which sets the degree of the zero sum."""
    p, q = rnd.rng.randint(-1, rnd.dim), rnd.rng.randint(-1, rnd.dim)
    length = rnd.rng.randint(1, 4)
    row = [left(rnd, p) for _ in range(length)]
    col = [right(rnd, q) for _ in range(length)]
    if rnd.rng.random() < 0.4:
        row += row
        col += [-c for c in col[:length]]
        if rnd.rng.random() < 0.5:
            row.append(left(rnd, p))
            zero = right(rnd, rnd.rng.randint(-1, rnd.dim + 1))
            col.append(OrdinaryForm.zero(zero.dim, zero.degree))
    return row, col


def reference_signed_sum(product):
    """sum of s * product(a, b) over (s, a, b) triples as a left fold of +
    over the products, negated where s = -1: the reference path for the
    signed sums."""
    return lambda triples: reduce(operator.add, (product(a, b) if s > 0 else -product(a, b)
                                                 for s, a, b in triples))


def random_signs(rng: random.Random, row, col) -> list:
    """(s, a, b) triples of row and col with random signs s = +-1."""
    return [(rng.choice((1, -1)), a, b) for a, b in zip(row, col)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_wedge_dot_matches_the_fold_of_wedges(dim):
    rnd = FormRandom(40 + dim, dim, Fraction(0))
    reference = reference_dot(reference_wedge)
    signed_reference, signs = reference_signed_sum(reference_wedge), random.Random(40 + dim)
    for _ in range(25):
        row, col = random_row_and_column(rnd, random_entry, random_entry)
        got, want = wedge_dot(row, col), reference(row, col)
        assert (got.dim, got.degree, got.components) == (want.dim, want.degree, want.components)
        triples = random_signs(signs, row, col)
        got, want = wedge_sum(triples), signed_reference(triples)
        assert (got.dim, got.degree, got.components) == (want.dim, want.degree, want.components)
        for a, b in zip(row, col):
            got, want = wedge(a, b), reference_wedge(a, b)
            assert (got.degree, got.components) == (want.degree, want.components)


def test_wedge_dot_raises_where_the_fold_raises():
    dx1, dx2, dx12, dx3 = dx(3, 1), dx(3, 2), dx(3, 1, 2), dx(3, 3)
    cases = [
        ((dx1, dx1), (dx2, dx(2, 2))),  # entries of two dimensions
        ((dx1, dx12), (dx2, dx3)),  # terms of degrees 2 and 3
        ((dx1,), (dx2, dx3)),  # a column longer than the row
    ]
    for row, col in cases:
        with pytest.raises(ValueError):
            wedge_dot(row, col)
    for row, col in cases[:2]:
        with pytest.raises(ValueError):
            wedge_sum([(1, row[0], col[0]), (-1, row[1], col[1])])
    with pytest.raises(ValueError):
        wedge_sum([])
    with pytest.raises(ValueError):
        wedge(dx(2, 1), dx3)
    for row, col in cases[:2]:
        with pytest.raises(ValueError):
            reference_dot(reference_wedge)(row, col)


def test_poly_dot_matches_the_fold_of_products():
    rnd = FormRandom(9, 3, Fraction(0))
    for length in range(1, 6):
        row = [rnd.poly() for _ in range(length)]
        col = [rnd.poly() for _ in range(length)]
        assert poly_dot(row, col) == reference_dot(operator.mul)(row, col)


def test_mat_mul_rejects_mismatched_inner_dimensions():
    m = ((Polynomial.one(2), Polynomial.zero(2), Polynomial.one(2)),)  # 1 x 3
    with pytest.raises(ValueError):
        mat_mul(m, m, poly_dot)


def test_transpose():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(m) == ((1, 4), (2, 5), (3, 6))
    assert transpose(transpose(m)) == m


def test_mat_map_applies_f_to_the_entries_of_one_two_or_three_matrices():
    a, b, c = ((1, 2), (3, 4)), ((10, 20), (30, 40)), ((5, 6), (7, 8))
    assert mat_map(operator.neg, a) == ((-1, -2), (-3, -4))
    assert mat_map(operator.sub, b, a) == ((9, 18), (27, 36))
    assert mat_map(lambda x, y, z: x * y - z, a, b, c) == ((5, 34), (83, 152))


@pytest.mark.parametrize("bad", [
    lambda: mat_map(operator.add, ((1, 2), (3, 4)), ((1, 2),)),
    lambda: mat_map(operator.sub, ((1, 2), (3, 4)), ((1,), (2,))),
    lambda: mat_map(lambda x, y, z: x, ((1, 2),), ((1, 2),), ((1, 2), (3, 4))),
    lambda: mat_map(lambda x, y, z: x, ((1, 2),), ((1, 2),), ((1,),)),
    lambda: transpose(((1, 2), (3,))),
])
def test_matrix_helpers_pair_rows_and_entries_strictly(bad):
    # a plain zip would cut each pair to the shorter one
    with pytest.raises(ValueError):
        bad()


def test_square_matrix_is_the_one_n_by_n_rule():
    assert square_matrix([[1, 2], [3, 4]], "m", ValueError, 2) == ((1, 2), (3, 4))
    assert square_matrix([], "m", ValueError, 0) == ()
    for bad, n in [([[1, 2]], 1), ([[1], [2]], 2), ([[1, 2], [3]], 2), ([[1, 2], [3, 4]], 3),
                   ([[1]], 2)]:
        for error in (ValueError, InputError):
            with pytest.raises(error, match=f"m must be {n} x {n}"):
                square_matrix(bad, "m", error, n)
    one, zero = Polynomial.one(2), Polynomial.zero(2)
    eye = ((one, zero), (zero, one))
    assert inverse_defect(eye, eye) is None
    with pytest.raises(ValueError, match="right must be 2 x 2"):
        inverse_defect(eye, ((one, zero),))
    with pytest.raises(ValueError, match="left must be 2 x 2"):
        inverse_defect(((one,), (zero,)), eye)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_the_d_table_holds_the_merge_of_each_axis_in_axis_order(dim):
    axes = range(1, dim + 1)
    for degree in range(dim + 1):
        for idxs in itertools.combinations(axes, degree):
            table = _d_table(dim, idxs)
            assert [axis for axis, _, _ in table] == [axis for axis in axes if axis not in idxs]
            for axis, sign, merged in table:
                assert merge_indices((axis,), idxs) == (sign, merged)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_form_results_own_their_components(dim):
    """``OrdinaryForm._canonical`` keeps the dict it is handed, so every
    result must be built in a dict of its own: no result shares its
    components with an operand, and building more results leaves the
    operands and the earlier results as they were."""
    rnd = FormRandom(300 + dim, dim, Fraction(0))
    for trial in range(8):
        p = trial % dim
        a, b, c = (_cubic_form(rnd, p) for _ in range(3))
        a, b, c = (x if not x.is_zero() else dx(dim, *range(1, p + 1)) for x in (a, b, c))
        operands = [x.components for x in (a, b, c)]
        snapshot = [dict(d) for d in operands]
        results = [a + b, a - b, b + c, ext_d(a), ext_d(b),
                   wedge_sum([(1, a, ext_d(b)), (-1, c, ext_d(a))]), *_hooks(a), *_hooks(c)]
        kept = [(r, dict(r.components)) for r in results]
        results += [results[2] - a, wedge_sum([(1, results[3], c)])]
        for r in results:
            assert all(r.components is not d for d in operands)
        assert [dict(d) for d in operands] == snapshot
        assert all(r.components == before for r, before in kept)
        ids = [id(r.components) for r in results]
        assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_cancelling_sum_has_no_components(dim):
    rnd = FormRandom(400 + dim, dim, Fraction(0))
    for trial in range(6):
        a = _cubic_form(rnd, trial % (dim + 1))
        b = rnd.form(rnd.rng.randint(0, dim))
        for r in (a + (-a), a - a, (-a) + a, ext_d(ext_d(a)),
                  wedge_sum([(1, a, b), (-1, a, b)])):
            assert r.components == {} and r.is_zero()
