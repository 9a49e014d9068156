import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

import genform.connection as conn
from genform.exterior import OrdinaryForm, VectorField, interior, mat_identity, wedge, wedge_dot
from genform.gform import (
    GenForm,
    gd,
    genform_from_json,
    genform_to_json,
    ginterior_ordinary,
    glie_componentwise,
    glie_ordinary,
    gpullback,
    gwedge,
    gwedge_dot,
    gwedge_sum,
)
from genform.gvector import GenVectorField, gv_interior
from genform.hamiltonian import GenHamiltonianProblem, SymplecticError, symplectic_validate
from genform.randgen import FormRandom
from genform.ring import ExpPoly, Polynomial
from genform.superspace import SuperFunction

EPSILONS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]


def test_m_squared_is_zero():
    m = GenForm.minus_one(2, Fraction(1))
    assert gwedge(m, m).is_zero()


def test_dx1_times_m():
    n = 2
    eps = Fraction(1)
    dx1 = GenForm.from_ordinary(OrdinaryForm.basis(n, (1,)), eps)
    m = GenForm.minus_one(n, eps)
    got = gwedge(dx1, m)
    assert got.degree == 0
    assert got.body.is_zero()
    assert got.soul == OrdinaryForm.basis(n, (1,))
    # and m dx1 = -dx1 m  (degree-1 commutation with m)
    assert gwedge(m, dx1) == -got


def test_unit_of_zero_forms():
    rnd = FormRandom(1, 3, Fraction(2))
    one = GenForm.one(3, Fraction(2))
    for _ in range(5):
        a = rnd.genform()
        assert gwedge(a, one) == a
        assert gwedge(one, a) == a


def test_dm_equals_epsilon():
    for eps in EPSILONS:
        m = GenForm.minus_one(2, eps)
        dm = gd(m)
        assert dm.degree == 0
        assert dm.soul.is_zero()
        assert dm.body == OrdinaryForm.constant(2, eps)


def test_gd_worked_example():
    # a = x1 + x2 dx1 m at eps = 1, n = 2:
    # gd(a) = (1 - x2) dx1 + dx2 dx1 m
    n = 2
    x1, x2 = Polynomial.var(n, 1), Polynomial.var(n, 2)
    a = GenForm(n, Fraction(1), 0,
                OrdinaryForm.from_scalar(x1), OrdinaryForm.basis(n, (1,), x2))
    got = gd(a)
    assert got.body == OrdinaryForm(n, 1, {(1,): Polynomial.one(n) - x2})
    assert got.soul == OrdinaryForm(n, 2, {(1, 2): Polynomial.const(n, -1)})


def test_gd_squares_to_zero():
    for eps in EPSILONS:
        rnd = FormRandom(10, 3, eps)
        for degree in range(-1, 4):
            a = rnd.genform(degree)
            assert gd(gd(a)).is_zero()


def test_gd_antiderivation():
    for eps in EPSILONS:
        rnd = FormRandom(20, 2, eps)
        for trial in range(25):
            a = rnd.genform((trial % 4) - 1)
            b = rnd.genform()
            rhs = gwedge(a, gd(b))
            if a.degree % 2:
                rhs = -rhs
            assert gd(gwedge(a, b)) == gwedge(gd(a), b) + rhs


def test_pullback_identity_and_m():
    n = 2
    eps = Fraction(1)
    phi = [Polynomial.var(n, i) for i in range(1, n + 1)]
    rnd = FormRandom(30, n, eps)
    for _ in range(5):
        a = rnd.genform()
        assert gpullback(phi, a) == a
    m = GenForm.minus_one(n, eps)
    any_phi = [rnd.poly(), rnd.poly()]
    assert gpullback(any_phi, m) == m


def test_pullback_curve_example():
    # phi(t) = (t, t^2) on a = dx2 m -> 2t dt m
    t = Polynomial.var(1, 1)
    eps = Fraction(1)
    a = GenForm(2, eps, 0, OrdinaryForm.zero(2, 0), OrdinaryForm.basis(2, (2,)))
    got = gpullback([t, t * t], a)
    assert got == GenForm(1, eps, 0, OrdinaryForm.zero(1, 0),
                          OrdinaryForm.basis(1, (1,), t * 2))


@pytest.mark.parametrize("length", [0, 1, 3])
def test_pullback_along_a_map_of_the_wrong_length_raises_value_error(length):
    # the map has one component per coordinate of the form's space, here 2
    a = GenForm(2, Fraction(1), 0, OrdinaryForm.constant(2, 1), OrdinaryForm.basis(2, (2,)))
    with pytest.raises(ValueError, match="components"):
        gpullback([Polynomial.var(1, 1)] * length, a)


def test_interior_kills_minus_one_forms():
    eps = Fraction(1)
    m = GenForm.minus_one(3, eps)
    rnd = FormRandom(40, 3, eps)
    for _ in range(5):
        assert ginterior_ordinary(rnd.vector_field(), m).is_zero()


def test_interior_zero_form_example():
    # i_{d1}(x2 + x1 dx1 m) = x1 m
    n = 2
    eps = Fraction(1)
    x1, x2 = Polynomial.var(n, 1), Polynomial.var(n, 2)
    a = GenForm(n, eps, 0, OrdinaryForm.from_scalar(x2), OrdinaryForm.basis(n, (1,), x1))
    got = ginterior_ordinary(VectorField.coordinate(n, 1), a)
    assert got == GenForm(n, eps, -1, soul=OrdinaryForm.from_scalar(x1))


def test_interior_anticommutes():
    rnd = FormRandom(50, 3, Fraction(2))
    for trial in range(20):
        a = rnd.genform((trial % 5) - 1)
        v, w = rnd.vector_field(), rnd.vector_field()
        assert (ginterior_ordinary(v, ginterior_ordinary(w, a))
                + ginterior_ordinary(w, ginterior_ordinary(v, a))).is_zero()


def test_lie_of_m_vanishes():
    for eps in EPSILONS:
        rnd = FormRandom(60, 2, eps)
        m = GenForm.minus_one(2, eps)
        assert glie_ordinary(rnd.vector_field(), m).is_zero()


def test_lie_translation_example():
    # L_{d1}(x1 + x1 dx2 m) = 1 + dx2 m
    n = 2
    eps = Fraction(1)
    x1 = Polynomial.var(n, 1)
    a = GenForm(n, eps, 0, OrdinaryForm.from_scalar(x1), OrdinaryForm.basis(n, (2,), x1))
    got = glie_ordinary(VectorField.coordinate(n, 1), a)
    assert got == GenForm(n, eps, 0, OrdinaryForm.constant(n, 1),
                          OrdinaryForm.basis(n, (2,)))


def test_lie_componentwise_matches_definition():
    for eps in EPSILONS:
        rnd = FormRandom(70, 3, eps)
        for trial in range(15):
            a = rnd.genform((trial % 5) - 1)
            v = rnd.vector_field()
            assert glie_ordinary(v, a) == glie_componentwise(v, a)


def test_lie_leibniz():
    rnd = FormRandom(80, 2, Fraction(1, 2))
    for trial in range(15):
        a, b = rnd.genform((trial % 4) - 1), rnd.genform()
        v = rnd.vector_field()
        assert glie_ordinary(v, gwedge(a, b)) == (
            gwedge(glie_ordinary(v, a), b) + gwedge(a, glie_ordinary(v, b)))


def test_lie_of_minus_one_form_formula():
    # L_v (s m) = (i_v d s) m for a 0-form s
    n = 2
    rnd = FormRandom(90, n, Fraction(2))
    from genform.exterior import ext_d

    for _ in range(10):
        s = rnd.poly()
        v = rnd.vector_field()
        a = GenForm(n, Fraction(2), -1, soul=OrdinaryForm.from_scalar(s))
        got = glie_ordinary(v, a)
        want_soul = interior(v, ext_d(OrdinaryForm.from_scalar(s)))
        assert got == GenForm(n, Fraction(2), -1, soul=want_soul)


def test_degree_zero_interior_vs_lie_discrepancy():
    # body of (i_v d a0 - L_v a0) = -eps * i_v(soul)
    for eps in EPSILONS:
        rnd = FormRandom(95, 2, eps)
        for _ in range(10):
            a0 = rnd.genform(0)
            v = rnd.vector_field()
            diff = ginterior_ordinary(v, gd(a0)) - glie_ordinary(v, a0)
            assert diff.body == interior(v, a0.soul).scale(-eps)


def test_lie_interior_and_lie_lie_commutators():
    rnd = FormRandom(97, 2, Fraction(1))
    from genform.exterior import vf_bracket

    for trial in range(15):
        a = rnd.genform((trial % 4) - 1)
        v, w = rnd.vector_field(), rnd.vector_field()
        vw = vf_bracket(v, w)
        assert (glie_ordinary(v, ginterior_ordinary(w, a))
                - ginterior_ordinary(w, glie_ordinary(v, a))) == ginterior_ordinary(vw, a)
        assert (glie_ordinary(v, glie_ordinary(w, a))
                - glie_ordinary(w, glie_ordinary(v, a))) == glie_ordinary(vw, a)


def test_epsilon_mismatch_rejected():
    a = GenForm.one(2, Fraction(1))
    b = GenForm.one(2, Fraction(2))
    with pytest.raises(ValueError):
        gwedge(a, b)


# Each site builds its structure at dim 2, epsilon 1 and its operand at (dim, eps).


def _connection_site(dim: int, eps: Fraction):
    A = conn.GenConnection.zero(2, Fraction(1))
    V = GenVectorField.ordinary(VectorField.zero(dim), eps)
    return lambda: conn.cov_deriv_vf(A, V)


def _nonmetricity_site(dim: int, eps: Fraction):
    A = conn.GenConnection.zero(2, Fraction(1))
    eye = mat_identity(dim, Polynomial.one(dim), Polynomial.zero(dim))
    chi = [[OrdinaryForm.zero(dim, 1)] * dim for _ in range(dim)]
    g = conn.metric_validate(eye, chi, eye, eps)
    return lambda: conn.nonmetricity(A, g)


def _build_site(dim: int, eps: Fraction):
    entries = [[GenForm.zero(dim, eps, 1)] * 2 for _ in range(2)]
    return lambda: conn.GenConnection.build(entries, Fraction(1))


def _hamiltonian_site(dim: int, eps: Fraction):
    z, o = Polynomial.zero(2), Polynomial.one(2)
    s = GenForm(2, Fraction(1), 2, OrdinaryForm(2, 2, {(1, 2): -o}))
    symplectic = symplectic_validate(s, [[z, -o], [o, z]])
    h = GenForm.one(dim, eps)
    return lambda: GenHamiltonianProblem(symplectic, h)


@pytest.mark.parametrize("site, error", [(_connection_site, conn.ConnectionError),
                                         (_nonmetricity_site, conn.ConnectionError),
                                         (_build_site, conn.ConnectionError),
                                         (_hamiltonian_site, SymplecticError)])
def test_context_checks_name_the_attribute_that_differs(site, error):
    """``cov_deriv_vf``, ``nonmetricity``, ``GenConnection.build`` and
    ``GenHamiltonianProblem`` check their operands with
    ``GenForm._require_compatible`` and raise their own error class with its
    message."""
    site(2, Fraction(1))()  # compatible operands pass
    with pytest.raises(error, match=r"^dimension mismatch: 2 vs 4$"):
        site(4, Fraction(1))()
    with pytest.raises(error, match=r"^epsilon mismatch: 1 vs 1/2$"):
        site(2, Fraction(1, 2))()


@pytest.mark.parametrize("given", [1, Fraction(1), 0, Fraction(-3, 2), 0.5])
def test_constructors_keep_a_fraction_epsilon_and_convert_the_rest(given):
    """A Fraction epsilon is kept as it is, any other value becomes one, and
    equal epsilons held as distinct objects stay compatible."""
    v = VectorField([Polynomial.var(2, 1), Polynomial.zero(2)])
    for x in (GenForm(2, given, 0), GenVectorField.ordinary(v, given),
              SuperFunction(2, given)):
        assert type(x.epsilon) is Fraction and x.epsilon == Fraction(given)
        assert (x.epsilon is given) is isinstance(given, Fraction)
    a, b = GenForm.one(2, given), GenForm.one(2, Fraction(given))
    assert gwedge(a, b) == GenForm.one(2, given)
    assert gv_interior(GenVectorField.ordinary(v, Fraction(given)), a).epsilon == given
    assert SuperFunction.from_poly(Polynomial.one(2), given).mul(
        SuperFunction.from_poly(Polynomial.one(2), Fraction(given))).terms


def test_genform_json_round_trip():
    rnd = FormRandom(99, 2, Fraction(-1, 2))
    for degree in range(-1, 3):
        a = rnd.genform(degree)
        assert genform_from_json(genform_to_json(a)) == a


@pytest.mark.parametrize("change", [{"dim": 1.5}, {"dim": None}, {"dim": 0}, {"degree": "1"},
                                    {"epsilon": 1}, {"body": 5}, {"soul": None}])
def test_genform_json_type_errors(change):
    data = genform_to_json(FormRandom(5, 2, Fraction(1)).genform(1))
    with pytest.raises(ValueError):
        genform_from_json(dict(data, **change))


def stored(x: GenForm | OrdinaryForm) -> tuple:
    """Everything a form stores, the nominal degrees of zero parts too."""
    if isinstance(x, GenForm):
        return (x.dim, x.epsilon, x.degree, stored(x.body), stored(x.soul))
    return (x.dim, x.degree, x.components)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_operation_results_pass_the_validating_constructor(dim):
    """Results built by GenForm._canonical have parts of the right
    dimension and degree, as the public constructor demands."""
    for eps in EPSILONS:
        rnd = FormRandom(70 + dim, dim, eps)
        for _ in range(4):
            p, q = rnd.rng.randint(-1, dim), rnd.rng.randint(-1, dim)
            a, b, c = rnd.genform(p), rnd.genform(p), rnd.genform(q)
            results = [a + b, a - b, a - a, -a, a.scale(rnd.poly()), a.scale(Fraction(-3, 2)),
                       gwedge(a, c), gwedge(c, a), gwedge_dot((a, b), (c, c)), gd(a),
                       a.scale(rnd.poly()) + b.scale(rnd.poly())]
            for r in results:
                assert stored(GenForm(r.dim, r.epsilon, r.degree, r.body, r.soul)) == stored(r)


def reference_dot(product):
    """The row-times-column sum as a left fold of + over the entry products:
    the reference path for the dots."""
    return lambda row, col: reduce(operator.add, map(product, row, col))


def reference_signed_sum(product):
    """sum of s * product(a, b) over (s, a, b) triples as a left fold of +
    over the products, negated where s = -1."""
    return lambda triples: reduce(operator.add, (product(a, b) if s > 0 else -product(a, b)
                                                 for s, a, b in triples))


def random_signs(rng: random.Random, row, col) -> list:
    """(s, a, b) triples of row and col with random signs s = +-1."""
    return [(rng.choice((1, -1)), a, b) for a, b in zip(row, col)]


def reference_gwedge(a: GenForm, b: GenForm) -> GenForm:
    """The extended product from three ordinary wedges."""
    a._require_compatible(b)
    cross = wedge(a.soul, b.body)
    soul = wedge(a.body, b.soul) + (-cross if b.degree % 2 else cross)
    return GenForm(a.dim, a.epsilon, a.degree + b.degree, wedge(a.body, b.body), soul)


def with_exp_coefficients(form: OrdinaryForm, rnd: FormRandom) -> OrdinaryForm:
    """form with every other coefficient c replaced by c exp(q) + exp(q')."""
    comps = {}
    for k, (idxs, c) in enumerate(form.components.items()):
        comps[idxs] = (c if k % 2 else
                       ExpPoly.exp(rnd.poly(), c) + ExpPoly.exp(rnd.poly(allow_zero=False)))
    return OrdinaryForm(form.dim, form.degree, comps)


def random_entry(rnd: FormRandom, degree: int) -> GenForm:
    """A random extended form of the given degree, or a zero one of any
    degree from -1 to dim + 1, or one with ExpPoly coefficients."""
    draw = rnd.rng.random()
    if draw < 0.25:
        return GenForm.zero(rnd.dim, rnd.epsilon, rnd.rng.randint(-1, rnd.dim + 1))
    a = rnd.genform(degree)
    if draw < 0.45:
        return GenForm(a.dim, a.epsilon, a.degree, with_exp_coefficients(a.body, rnd),
                       with_exp_coefficients(a.soul, rnd))
    return a


def zero_like(x: GenForm | OrdinaryForm) -> GenForm | OrdinaryForm:
    if isinstance(x, GenForm):
        return GenForm.zero(x.dim, x.epsilon, x.degree)
    return OrdinaryForm.zero(x.dim, x.degree)


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
            col.append(zero_like(right(rnd, rnd.rng.randint(-1, rnd.dim + 1))))
    return row, col


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_gwedge_dot_matches_the_fold_of_products(dim):
    rnd = FormRandom(50 + dim, dim, EPSILONS[dim % len(EPSILONS)])
    reference = reference_dot(reference_gwedge)
    signed_reference, signs = reference_signed_sum(reference_gwedge), random.Random(50 + dim)
    for _ in range(20):
        row, col = random_row_and_column(rnd, random_entry, random_entry)
        assert stored(gwedge_dot(row, col)) == stored(reference(row, col))
        # odd-degree columns flip the sign of the soul pair alpha' beta
        triples = random_signs(signs, row, col)
        assert stored(gwedge_sum(triples)) == stored(signed_reference(triples))
        for a, b in zip(row, col):
            assert stored(gwedge(a, b)) == stored(reference_gwedge(a, b))


def random_poly(rnd: FormRandom, _degree: int) -> Polynomial:
    return Polynomial.zero(rnd.dim) if rnd.rng.random() < 0.2 else rnd.poly()


def random_ordinary_entry(rnd: FormRandom, degree: int) -> OrdinaryForm:
    return random_entry(rnd, degree).body


def lifted_dot(polys, forms, polys_left: bool) -> GenForm | OrdinaryForm:
    """sum_k p_k x_k through wedge_dot or gwedge_dot, each p_k lifted to a
    0-form of the kind of x_k and standing on the left or on the right."""
    if isinstance(forms[0], GenForm):
        dot, lifted = gwedge_dot, [GenForm.from_scalar(p, x.epsilon) for p, x in zip(polys, forms)]
    else:
        dot, lifted = wedge_dot, [OrdinaryForm.from_scalar(p) for p in polys]
    return dot(lifted, forms) if polys_left else dot(forms, lifted)


scale_fold = reference_dot(lambda p, x: x.scale(p))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lifted_polynomials_dot_as_the_fold_of_scalings(dim):
    """A polynomial enters a product as a 0-form, on either side."""
    rnd = FormRandom(60 + dim, dim, EPSILONS[dim % len(EPSILONS)])
    for entry in (random_entry, random_ordinary_entry):
        for _ in range(10):
            polys, forms = random_row_and_column(rnd, random_poly, entry)
            for polys_left in (True, False):
                assert (stored(lifted_dot(polys, forms, polys_left))
                        == stored(scale_fold(polys, forms)))
    # a zero polynomial makes its term zero, whatever the degree of its form
    polys = (Polynomial.zero(dim), Polynomial.one(dim))
    for forms in ((rnd.form(1), rnd.form(0)), (rnd.genform(-1), rnd.genform(0))):
        for polys_left in (True, False):
            assert stored(lifted_dot(polys, forms, polys_left)) == stored(scale_fold(polys, forms))


def test_dots_raise_where_the_fold_raises():
    eps = Fraction(1)
    dx1, dx2 = (GenForm.from_ordinary(OrdinaryForm.basis(2, (i,)), eps) for i in (1, 2))
    one = Polynomial.one(2)
    cases = [
        ((dx1, GenForm.one(3, eps)), (dx2, GenForm.one(3, eps))),  # two dimensions
        ((dx1, GenForm.one(2, 2)), (dx2, GenForm.one(2, 2))),  # two epsilons
        ((dx1, dx1), (dx2, GenForm.one(2, eps))),  # terms of degrees 2 and 1
    ]
    for row, col in cases:
        for dot in (gwedge_dot, reference_dot(reference_gwedge)):
            with pytest.raises(ValueError):
                dot(row, col)
        with pytest.raises(ValueError):
            gwedge_sum([(-1, row[0], col[0]), (1, row[1], col[1])])
    with pytest.raises(ValueError):
        gwedge_sum([])
    with pytest.raises(ValueError):
        gwedge_dot((dx1,), (dx2, dx1))
    for forms in ((dx1, GenForm.one(3, eps)), (dx1, GenForm.one(2, 2)), (dx1, GenForm.one(2, eps)),
                  (dx1.body, OrdinaryForm.constant(3, 1)), (dx1.body, OrdinaryForm.constant(2, 1))):
        polys = (one, Polynomial.one(forms[1].dim))
        with pytest.raises(ValueError):
            scale_fold(polys, forms)
        for polys_left in (True, False):
            with pytest.raises(ValueError):
                lifted_dot(polys, forms, polys_left)
