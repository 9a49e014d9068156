"""Values that forms and fields keep, the signed difference, the grouped
superspace oracle and the canonical random draws.

- ``ext_d``, ``gd``, ``exterior._hooks``, ``VectorField.component_forms`` and
  ``GenVectorField.row_forms`` form their result on first use and keep it on
  their argument: a repeated call returns the same object, and that object equals
  a fresh computation on a copy built by the validating constructor.
- ``a - b`` is one signed sum in each of ``Polynomial``, ``OrdinaryForm``,
  ``GenForm`` and ``SuperFunction``, and componentwise in ``VectorField`` and
  ``GenVectorField``; it must equal ``a + (-b)`` exactly, and raise the same
  error on operands that do not fit together.
- The superspace operators sum each output mask in one kernel call; they must
  equal the per-product reference below, which multiplies and adds one blade
  product at a time.
- ``FormRandom.poly`` builds its draws canonical over packed keys; they must
  be the polynomials the validating constructor builds from the same draws.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genform import superspace
from genform.exterior import OrdinaryForm, VectorField, _hooks, ext_d
from genform.gform import GenForm, gd
from genform.gvector import GenVectorField
from genform.randgen import COEFF_POOL, EPSILON_POOL, FormRandom
from genform.ring import ExpPoly, Polynomial
from genform.superspace import (SuperFunction, blade_mul, super_d, super_interior,
                                super_lie_expansion)
from test_exterior import coordinate_field
from test_ring import nonzero_poly

# factors that give the operands of one difference different denominators
SCALES = (1, -1, Fraction(1, 3), Fraction(-5, 4), 6)


def copy_form(a: OrdinaryForm) -> OrdinaryForm:
    return OrdinaryForm(a.dim, a.degree, dict(a.components))


def copy_genform(a: GenForm) -> GenForm:
    return GenForm(a.dim, a.epsilon, a.degree, copy_form(a.body), copy_form(a.soul))


def with_exp_coefficients(a: OrdinaryForm, rnd: FormRandom) -> OrdinaryForm:
    """a with each coefficient c replaced by c exp(q) + exp(q')."""
    return OrdinaryForm(a.dim, a.degree, {
        idxs: ExpPoly.exp(rnd.poly(), c) + ExpPoly.exp(nonzero_poly(rnd))
        for idxs, c in a.components.items()})


# -- kept values -------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_repeated_derivation_returns_the_kept_object(dim):
    rnd = FormRandom(500 + dim, dim, Fraction(1))
    for degree in range(-1, dim + 2):
        polynomial = rnd.form(degree)
        for a in (polynomial, with_exp_coefficients(polynomial, rnd)):
            da, hooks = ext_d(a), _hooks(a)
            assert ext_d(a) is da and a._d is da
            assert _hooks(a) is hooks and type(hooks) is tuple
            assert da == ext_d(copy_form(a))
            assert hooks == _hooks(copy_form(a))
            assert ext_d(da).is_zero() and ext_d(da) is not da
        for eps in (Fraction(0), Fraction(-3, 2)):
            body = rnd.form(degree)
            for body, soul in ((body, rnd.form(degree + 1)),
                               (with_exp_coefficients(body, rnd),
                                with_exp_coefficients(rnd.form(degree + 1), rnd))):
                a = GenForm(dim, eps, degree, body, soul)
                da = gd(a)
                assert gd(a) is da and a._d is da
                assert da == gd(copy_genform(a))
                # d d a = 0 is formed on d a: a result keeps nothing of its own
                assert gd(da).is_zero() and gd(da) is not da
    v, V = rnd.vector_field(), rnd.gen_vector_field()
    forms, rows = v.component_forms(), V.row_forms()
    assert v.component_forms() is forms and V.row_forms() is rows and V._rows is rows
    assert forms == VectorField(list(v.components)).component_forms()
    assert rows == GenVectorField(dim, V.epsilon, V.v, [list(row) for row in V.vt]).row_forms()
    assert [f.degree for f in forms] == [0] * dim and [r.degree for r in rows] == [1] * dim


# -- signed difference -------------------------------------------------------------


KINDS = ["poly", "form", "genform", "super", "vector", "genvector"]


def _scaled(kind: str, x, factor):
    if kind == "poly":
        return x * factor
    if kind in ("form", "genform"):
        return x.scale(factor)
    if kind == "vector":
        return VectorField([c * factor for c in x.components])
    if kind == "genvector":
        vt = [[c * factor for c in row] for row in x.vt]
        return GenVectorField(x.dim, x.epsilon, _scaled("vector", x.v, factor), vt)
    return SuperFunction(x.dim, x.epsilon, {m: c * factor for m, c in x.terms.items()})


def _negated(kind: str, x):
    """-x; a field and a superfunction have no unary minus, so theirs is x
    scaled by -1."""
    return -x if kind in ("poly", "form", "genform") else _scaled(kind, x, -1)


def _draw(rnd: FormRandom, kind: str, degree: int, scale):
    if kind == "poly":
        x = rnd.poly()
    elif kind == "form":
        x = rnd.form(degree)
    elif kind == "genform":
        x = rnd.genform(degree)
    elif kind == "vector":
        x = rnd.vector_field()
    elif kind == "genvector":
        x = rnd.gen_vector_field()
    else:
        x = rnd.superfunction()
    return _scaled(kind, x, scale)


def _zero(kind: str, dim: int, eps: Fraction, degree: int):
    return {"poly": Polynomial.zero(dim), "form": OrdinaryForm.zero(dim, degree),
            "genform": GenForm.zero(dim, eps, degree), "super": SuperFunction(dim, eps),
            "vector": VectorField.zero(dim),
            "genvector": GenVectorField.ordinary(VectorField.zero(dim), eps)}[kind]


def _same(x, y) -> bool:
    """Equal values of equal degree; polynomials, also those of a field, with
    equal den and numerators."""
    if isinstance(x, Polynomial):
        return (x.dim, x.den, x._nums) == (y.dim, y.den, y._nums)
    if isinstance(x, OrdinaryForm):
        return x == y and x.degree == y.degree
    if isinstance(x, GenForm):
        return x == y and x.degree == y.degree and _same(x.body, y.body) and _same(x.soul, y.soul)
    if isinstance(x, VectorField):
        return x == y and all(map(_same, x.components, y.components))
    if isinstance(x, GenVectorField):
        return (x == y and _same(x.v, y.v)
                and all(map(_same, itertools.chain(*x.vt), itertools.chain(*y.vt))))
    return x == y


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS),
       dim=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
       scales=st.tuples(st.sampled_from(SCALES), st.sampled_from(SCALES)),
       relation=st.sampled_from(["independent", "overlap", "equal", "zero_a", "zero_b"]))
def test_a_difference_equals_the_sum_with_the_negation(kind, dim, seed, scales, relation):
    rnd = FormRandom(seed, dim, EPSILON_POOL[seed % len(EPSILON_POOL)])
    degree = rnd.rng.randint(-1, dim)
    a = _draw(rnd, kind, degree, scales[0])
    if relation == "independent":
        b = _draw(rnd, kind, degree, scales[1])
    elif relation == "overlap":  # every term of a has a partner in b
        b = _scaled(kind, a, scales[1]) + _draw(rnd, kind, degree, 1)
    elif relation == "equal":  # full cancellation, on a copy and on a itself
        b = _scaled(kind, a, 1)
        assert _same(a - a, a + _negated(kind, a))
    else:
        b = _draw(rnd, kind, degree, scales[1])
        zero = _zero(kind, dim, rnd.epsilon, rnd.rng.randint(-1, dim + 1))
        a, b = (zero, b) if relation == "zero_a" else (a, zero)
    assert _same(a - b, a + _negated(kind, b))
    if relation == "equal":
        assert (a - b).is_zero()


def _misfits(kind: str, dim: int, eps: Fraction):
    """Pairs of nonzero operands that + and - must both reject."""
    if kind == "poly":
        return [(Polynomial.one(dim), Polynomial.one(dim + 1))]
    if kind == "form":
        return [(OrdinaryForm.basis(dim, (1,), 2), OrdinaryForm.constant(dim, 1)),
                (OrdinaryForm.constant(dim, 1), OrdinaryForm.constant(dim + 1, 1))]
    if kind == "genform":
        return [(GenForm.one(dim, eps), GenForm.minus_one(dim, eps)),
                (GenForm.one(dim, eps), GenForm.one(dim, eps + 1)),
                (GenForm.one(dim, eps), GenForm.one(dim + 1, eps))]
    if kind == "vector":
        return [(coordinate_field(dim, 1), coordinate_field(dim + 1, 1))]
    if kind == "genvector":
        v = GenVectorField.ordinary(coordinate_field(dim, 1), eps)
        return [(v, GenVectorField.ordinary(coordinate_field(dim, 1), eps + 1)),
                (v, GenVectorField.ordinary(coordinate_field(dim + 1, 1), eps))]
    f = SuperFunction(dim, eps, {0: Polynomial.one(dim)})
    return [(f, SuperFunction(dim, eps + 1, {0: Polynomial.one(dim)})),
            (f, SuperFunction(dim + 1, eps, {0: Polynomial.one(dim + 1)}))]


@pytest.mark.parametrize("kind", KINDS)
def test_a_difference_of_misfits_raises_as_the_sum_does(kind):
    for a, b in _misfits(kind, 2, Fraction(1)):
        with pytest.raises(ValueError) as got:
            a - b
        with pytest.raises(ValueError) as want:
            a + _negated(kind, b)
        assert str(got.value) == str(want.value)
        assert "mismatch" in str(got.value)


# -- grouped oracle ----------------------------------------------------------------


def per_product_add(out, mask, coeff, g, sign=1):
    """The reference: out[key] += sign * blade sign * (coeff * c), one product
    and one addition per blade product of (coeff z^mask) g."""
    if coeff.is_zero():
        return
    for m, c in g.terms.items():
        blade = blade_mul(mask, m)
        if blade is not None:
            blade_sign, key = blade
            product = coeff * c if sign * blade_sign > 0 else -(coeff * c)
            out[key] = out[key] + product if key in out else product


def per_product_result(dim, epsilon, out):
    return SuperFunction(dim, epsilon, out)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_grouped_oracle_equals_the_per_product_reference(dim, monkeypatch):
    def operators(rnd):
        f, g = rnd.superfunction(), rnd.superfunction()
        V = rnd.gen_vector_field()
        V_ord = GenVectorField.ordinary(rnd.vector_field(), rnd.epsilon)
        return [f.mul(g), g.mul(f), super_d(f), super_interior(V, f), super_interior(V_ord, g),
                super_lie_expansion(V, f), super_lie_expansion(V_ord, g)]

    for eps in EPSILON_POOL:
        for seed in range(4):
            grouped = operators(FormRandom(seed, dim, eps))
            with monkeypatch.context() as mp:
                mp.setattr(superspace, "_add_blade_product", per_product_add)
                mp.setattr(superspace, "_sum_groups", per_product_result)
                reference = operators(FormRandom(seed, dim, eps))
            assert grouped == reference


# -- canonical draws ---------------------------------------------------------------


def reference_poly(rnd: FormRandom) -> Polynomial:
    """The draw of ``FormRandom.poly``, built by the validating constructor."""
    terms = {}
    for exps in itertools.product(range(3), repeat=rnd.dim):
        if sum(exps) > 2 or rnd.rng.random() < 0.5:
            continue
        terms[exps] = rnd.rng.choice(COEFF_POOL)
    return Polynomial(rnd.dim, terms)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_random_draws_are_the_validating_constructors_polynomials(dim):
    for seed in range(51):
        drawn, reference = FormRandom(seed, dim, Fraction(1)), FormRandom(seed, dim, Fraction(1))
        for _ in range(12):
            p, q = drawn.poly(), reference_poly(reference)
            assert (p.dim, p.den, p._nums) == (q.dim, q.den, q._nums)
        assert drawn.rng.random() == reference.rng.random()
