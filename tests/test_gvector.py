from fractions import Fraction

import pytest

from genform.exterior import OrdinaryForm, Tensor11, VectorField, vf_bracket
from genform.gform import GenForm, gd, ginterior_ordinary, glie_ordinary, gwedge
from genform.gvector import (
    GenVectorField,
    d_split,
    embed_generalized,
    gv_anticommutator,
    gv_anticommutator_closed_form,
    gv_bracket,
    gv_interior,
    gv_lie,
    gv_lie_expansion,
    gvf_from_json,
    gvf_to_json,
    modified_lie,
    quaternion_triple,
    validate_quaternion_triple,
    xi_type_pair,
)
from genform.randgen import FormRandom
from genform.ring import Polynomial

EPSILONS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]


def elementary_tensor(n, up, down, value=1):
    rows = [[Polynomial.zero(n)] * n for _ in range(n)]
    rows[up - 1][down - 1] = Polynomial.const(n, value)
    return Tensor11(rows)


def test_interior_kills_minus_one():
    eps = Fraction(1)
    rnd = FormRandom(1, 3, eps)
    m = GenForm.minus_one(3, eps)
    for _ in range(5):
        assert gv_interior(rnd.gen_vector_field(), m).is_zero()


def test_interior_degree_zero_uses_only_ordinary_part():
    # i_V(x2 + x1 dx1 m) with V ordinary d1 -> x1 m; tensor part contributes nothing
    n = 2
    eps = Fraction(1)
    x1, x2 = Polynomial.var(n, 1), Polynomial.var(n, 2)
    a = GenForm(n, eps, 0, OrdinaryForm.from_scalar(x2), OrdinaryForm.basis(n, (1,), x1))
    V = GenVectorField(n, eps, VectorField.coordinate(n, 1), elementary_tensor(n, 2, 1))
    got = gv_interior(V, a)
    assert got == GenForm(n, eps, -1, soul=OrdinaryForm.from_scalar(x1))


def test_interior_gamma_term_example():
    # pure fields contract through the tensor hook: v^a_b dx^b ^ i_{da}(body)
    n = 2
    eps = Fraction(1)
    V = GenVectorField.pure(elementary_tensor(n, 2, 1), eps)
    a = GenForm.from_ordinary(OrdinaryForm.basis(n, (1,)), eps)
    got = gv_interior(V, a)
    # gamma = (+1) v^a_b dx^b i_{da}(dx1) = v^2_1 dx1 * 0 ... only a=1 contributes
    # here i_{d2}(dx1) = 0 so result must vanish; flip to v^1_2 for the nonzero case
    assert got.is_zero()
    V2 = GenVectorField.pure(elementary_tensor(n, 1, 2), eps)
    got2 = gv_interior(V2, a)
    assert got2 == GenForm(n, eps, 0, OrdinaryForm.zero(n, 0),
                           OrdinaryForm.basis(n, (2,)))
    # superspace path agrees
    from genform.superspace import from_super, super_interior, to_super

    assert from_super(super_interior(V2, to_super(a))) == got2


def test_interior_leibniz():
    for eps in EPSILONS:
        rnd = FormRandom(2, 2, eps)
        for trial in range(15):
            a = rnd.genform((trial % 4) - 1)
            b = rnd.genform()
            V = rnd.gen_vector_field()
            rhs = gwedge(a, gv_interior(V, b))
            if a.degree % 2:
                rhs = -rhs
            assert gv_interior(V, gwedge(a, b)) == gwedge(gv_interior(V, a), b) + rhs


def test_anticommutator_example():
    # V with v^1_1 = 1, W = d1, a = dx1 -> m-term with unit coefficient
    n = 2
    eps = Fraction(1)
    V = GenVectorField.pure(elementary_tensor(n, 1, 1), eps)
    W = GenVectorField.ordinary(VectorField.coordinate(n, 1), eps)
    a = GenForm.from_ordinary(OrdinaryForm.basis(n, (1,)), eps)
    got = gv_anticommutator(V, W, a)
    assert got == GenForm(n, eps, -1, soul=OrdinaryForm.constant(n, 1))
    assert got == gv_anticommutator_closed_form(V, W, a)


def test_anticommutator_closed_form_random():
    for eps in EPSILONS:
        rnd = FormRandom(3, 3, eps)
        for trial in range(15):
            a = rnd.genform((trial % 5) - 1)
            V, W = rnd.gen_vector_field(), rnd.gen_vector_field()
            assert gv_anticommutator(V, W, a) == gv_anticommutator_closed_form(V, W, a)


def test_ordinary_fields_anticommute():
    rnd = FormRandom(4, 2, Fraction(1))
    for _ in range(10):
        a = rnd.genform()
        V = GenVectorField.ordinary(rnd.vector_field(), Fraction(1))
        W = GenVectorField.ordinary(rnd.vector_field(), Fraction(1))
        assert gv_anticommutator(V, W, a).is_zero()


def test_xi_type_pair_anticommutes():
    rnd = FormRandom(5, 3, Fraction(2))
    for trial in range(10):
        a = rnd.genform((trial % 5) - 1)
        xi = [rnd.form(2) for _ in range(3)]
        V, W = xi_type_pair(rnd.vector_field(), rnd.vector_field(), xi, Fraction(2))
        assert gv_anticommutator(V, W, a).is_zero()


def test_lie_minus_one_form_case():
    # p = -1, r = s m: L_V r = v^a (d_a s) m  (only the ordinary part acts)
    n = 2
    eps = Fraction(1)
    rnd = FormRandom(6, n, eps)
    for _ in range(10):
        s = rnd.poly()
        V = rnd.gen_vector_field()
        r = GenForm(n, eps, -1, soul=OrdinaryForm.from_scalar(s))
        acc = Polynomial.zero(n)
        for a in range(1, n + 1):
            acc = acc + V.v.component(a) * s.partial(a)
        assert gv_lie(V, r) == GenForm(n, eps, -1, soul=OrdinaryForm.from_scalar(acc))


def test_lie_degree_zero_expansion_example():
    # pure V with v^1_2 = 1 acting on a = x1 at eps = 1, n = 2 gives dx2 m
    n = 2
    eps = Fraction(1)
    V = GenVectorField.pure(elementary_tensor(n, 1, 2), eps)
    a = GenForm.from_scalar(Polynomial.var(n, 1), eps)
    want = GenForm(n, eps, 0, OrdinaryForm.zero(n, 0), OrdinaryForm.basis(n, (2,)))
    assert gv_lie(V, a) == want
    assert gv_lie_expansion(V, a) == want
    from genform.superspace import from_super, super_lie, to_super

    assert from_super(super_lie(V, to_super(a))) == want


def test_lie_expansion_matches_definition():
    for eps in EPSILONS:
        rnd = FormRandom(7, 3, eps)
        for trial in range(20):
            a = rnd.genform((trial % 5) - 1)
            V = rnd.gen_vector_field()
            assert gv_lie(V, a) == gv_lie_expansion(V, a)


def test_lie_reduces_to_ordinary():
    rnd = FormRandom(8, 2, Fraction(1))
    for trial in range(10):
        a = rnd.genform((trial % 4) - 1)
        v = rnd.vector_field()
        V = GenVectorField.ordinary(v, Fraction(1))
        assert gv_lie(V, a) == glie_ordinary(v, a)
        assert gv_interior(V, a) == ginterior_ordinary(v, a)


def test_bracket_defining_relation():
    for eps in EPSILONS:
        rnd = FormRandom(9, 2, eps)
        for trial in range(15):
            a = rnd.genform((trial % 4) - 1)
            V, W = rnd.gen_vector_field(), rnd.gen_vector_field()
            lhs = gv_lie(V, gv_lie(W, a)) - gv_lie(W, gv_lie(V, a))
            assert lhs == gv_lie(gv_bracket(V, W), a)


def test_bracket_ordinary_and_antisymmetry():
    rnd = FormRandom(10, 3, Fraction(2))
    v, w = rnd.vector_field(), rnd.vector_field()
    V = GenVectorField.ordinary(v, Fraction(2))
    W = GenVectorField.ordinary(w, Fraction(2))
    br = gv_bracket(V, W)
    assert br.vt.is_zero()
    assert br.v == vf_bracket(v, w)
    U = rnd.gen_vector_field()
    assert gv_bracket(U, U).is_zero()
    U2 = rnd.gen_vector_field()
    assert gv_bracket(U, U2) == -gv_bracket(U2, U)


def test_bracket_jacobi():
    for eps in (Fraction(0), Fraction(1), Fraction(-1, 2)):
        rnd = FormRandom(11, 2, eps)
        for _ in range(10):
            U, V, W = (rnd.gen_vector_field() for _ in range(3))
            total = (gv_bracket(U, gv_bracket(V, W))
                     + gv_bracket(V, gv_bracket(W, U))
                     + gv_bracket(W, gv_bracket(U, V)))
            assert total.is_zero()


def test_quaternion_triple_validates():
    js = quaternion_triple()
    validate_quaternion_triple(js)
    # square of each is minus the identity (standard complex-structure triple)
    minus_i = -Tensor11.identity(4)
    for j in js:
        assert j.matmul(j) == minus_i


def test_so3_example_nonzero_epsilon():
    js = quaternion_triple()
    for eps in (Fraction(1), Fraction(2), Fraction(-1, 2)):
        vs = [GenVectorField.pure(j.scale(Fraction(1, 2) / eps), eps) for j in js]
        table = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        for (i, j), k in table.items():
            assert gv_bracket(vs[i], vs[j]) == vs[k]
            assert gv_bracket(vs[j], vs[i]) == -vs[k]


def test_so3_example_zero_epsilon_commutes():
    js = quaternion_triple()
    vs = [GenVectorField.pure(j.scale(Fraction(1, 2)), Fraction(0)) for j in js]
    for a in vs:
        for b in vs:
            assert gv_bracket(a, b).is_zero()


def test_d_split_basis_cases():
    n = 2
    eps = Fraction(3)
    m = GenForm.minus_one(n, eps)
    d0m, d1m = d_split(m)
    assert d1m == GenForm.one(n, eps)
    assert d0m.is_zero()
    dx1 = GenForm.from_ordinary(OrdinaryForm.basis(n, (1,)), eps)
    assert d_split(dx1)[1].is_zero()


def test_d_split_recomposition():
    for eps in EPSILONS:
        rnd = FormRandom(12, 3, eps)
        for trial in range(25):
            a = rnd.genform((trial % 5) - 1)
            d0, d1 = d_split(a)
            assert gd(a) == d0 + d1.scale(eps)


def test_embed_generalized():
    n = 3
    v = VectorField.coordinate(n, 2)
    V = embed_generalized(v, Fraction(0), Fraction(1))
    assert V.vt.is_zero()
    V2 = embed_generalized(v, Polynomial.var(n, 1), Fraction(1))
    assert V2.scalar_extension() == Polynomial.var(n, 1)
    rnd = FormRandom(13, n, Fraction(1))
    assert rnd.gen_vector_field().scalar_extension() is None or True  # no crash


def test_embedded_fields_use_general_machinery():
    # interior/Lie/bracket of embedded fields equal the general results
    n = 2
    for eps in EPSILONS:
        rnd = FormRandom(14, n, eps)
        for trial in range(10):
            a = rnd.genform((trial % 4) - 1)
            v, w = rnd.vector_field(), rnd.vector_field()
            v0, w0 = rnd.poly(), rnd.poly()
            V = embed_generalized(v, v0, eps)
            W = embed_generalized(w, w0, eps)
            generic_V = GenVectorField(n, eps, v, Tensor11.identity(n, v0))
            assert gv_interior(V, a) == gv_interior(generic_V, a)
            assert gv_lie(V, a) == gv_lie(generic_V, a)
            br = gv_bracket(V, W)
            # scalar-type tensor part appears iff the combination is scalar
            assert br == gv_bracket(generic_V, W)


def test_embedded_bracket_stays_embedded():
    # the bracket of scalar-extended fields is scalar-extended with scalar
    # v(w0) - w(v0); general tensor parts do not have this closure
    n = 2
    eps = Fraction(1)
    rnd = FormRandom(31, n, eps)
    for _ in range(10):
        v, w = rnd.vector_field(), rnd.vector_field()
        v0, w0 = rnd.poly(), rnd.poly()
        V = embed_generalized(v, v0, eps)
        W = embed_generalized(w, w0, eps)
        scalar = Polynomial.zero(n)
        for b in range(1, n + 1):
            scalar = scalar + v.component(b) * w0.partial(b)
            scalar = scalar - w.component(b) * v0.partial(b)
        assert gv_bracket(V, W) == embed_generalized(vf_bracket(v, w), scalar, eps)
    V3 = GenVectorField(n, eps, rnd.vector_field(), elementary_tensor(n, 1, 2))
    assert V3.scalar_extension() is None


def test_modified_lie_rejects_general_tensor():
    n = 2
    rnd = FormRandom(15, n, Fraction(1))
    V = GenVectorField(n, Fraction(1), rnd.vector_field(), elementary_tensor(n, 1, 2))
    with pytest.raises(ValueError):
        modified_lie(V, rnd.genform())


def test_modified_lie_zero_scalar_reduces_to_ordinary():
    n = 2
    rnd = FormRandom(16, n, Fraction(1))
    for trial in range(10):
        a = rnd.genform((trial % 4) - 1)
        v = rnd.vector_field()
        V = embed_generalized(v, Fraction(0), Fraction(1))
        assert modified_lie(V, a) == glie_ordinary(v, a)


def test_modified_lie_differs_by_cartan_piece():
    # pure scalar field with v0 = 1 on an ordinary form
    n = 2
    eps = Fraction(1)
    rnd = FormRandom(17, n, eps)
    V = embed_generalized(VectorField.zero(n), Fraction(1), eps)
    pure = V.pure_part()
    for degree in range(0, n + 1):
        a = GenForm.from_ordinary(rnd.form(degree), eps)
        d0a = d_split(a)[0]
        inner = gv_interior(pure, a)
        correction = d_split(inner)[0] + gv_interior(pure, d0a)
        assert modified_lie(V, a) == gv_lie(V, a) - correction


def test_modified_lie_on_m():
    # direct evaluation: with v = 0, v0 = 1, eps = 1 both L_V m and the
    # correction vanish, so the modified derivative of m is zero
    n = 2
    eps = Fraction(1)
    V = embed_generalized(VectorField.zero(n), Fraction(1), eps)
    m = GenForm.minus_one(n, eps)
    assert gv_lie(V, m).is_zero()
    assert modified_lie(V, m).is_zero()


def test_lie_leibniz_general_fields():
    rnd = FormRandom(18, 2, Fraction(1, 2))
    for trial in range(10):
        a, b = rnd.genform((trial % 4) - 1), rnd.genform()
        V = rnd.gen_vector_field()
        assert gv_lie(V, gwedge(a, b)) == (
            gwedge(gv_lie(V, a), b) + gwedge(a, gv_lie(V, b)))


def test_gvf_json_round_trip():
    rnd = FormRandom(19, 3, Fraction(-2))
    V = rnd.gen_vector_field()
    assert gvf_from_json(gvf_to_json(V)) == V


@pytest.mark.parametrize("change", [{"dim": 1.5}, {"dim": True}, {"v": 5}, {"v": ["1"]},
                                    {"vt": [5, 5, 5]}, {"vt": None}, {"epsilon": None}])
def test_gvf_json_type_errors(change):
    data = gvf_to_json(FormRandom(19, 3, Fraction(-2)).gen_vector_field())
    with pytest.raises(ValueError):
        gvf_from_json(dict(data, **change))
