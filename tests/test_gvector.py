import operator
from fractions import Fraction

import pytest

from genform.exterior import (OrdinaryForm, VectorField, _hooks, mat_identity, mat_is_zero,
                              mat_map, mat_mul, vf_bracket, wedge_dot)
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
    modified_lie,
    quaternion_triple,
    validate_quaternion_triple,
    xi_type_pair,
)
from genform.randgen import FormRandom
from genform.ring import ExpPoly, InputError, Polynomial, poly_dot
from genform.superspace import from_super, super_interior, super_lie, to_super
from test_exterior import coordinate_field

EPSILONS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]


def elementary_tensor(n, up, down, value=1):
    rows = [[Polynomial.zero(n)] * n for _ in range(n)]
    rows[up - 1][down - 1] = Polynomial.const(n, value)
    return rows


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
    V = GenVectorField(n, eps, coordinate_field(n, 1), elementary_tensor(n, 2, 1))
    got = gv_interior(V, a)
    assert got == GenForm(n, eps, -1, soul=OrdinaryForm.from_scalar(x1))


def test_interior_theta_hook_example():
    # pure fields contract through the tensor hook: v^a_b dx^b ^ i_{da}(body)
    n = 2
    eps = Fraction(1)
    V = GenVectorField.pure(elementary_tensor(n, 2, 1), eps)
    a = GenForm.from_ordinary(OrdinaryForm.basis(n, (1,)), eps)
    got = gv_interior(V, a)
    # theta^a ^ i_{da}(dx1) with theta^1 = 0, theta^2 = dx1: only i_{d1}(dx1)
    # is nonzero, so the result must vanish; flip to v^1_2 for the nonzero case
    assert got.is_zero()
    V2 = GenVectorField.pure(elementary_tensor(n, 1, 2), eps)
    got2 = gv_interior(V2, a)
    assert got2 == GenForm(n, eps, 0, OrdinaryForm.zero(n, 0),
                           OrdinaryForm.basis(n, (2,)))
    # superspace path agrees
    assert from_super(super_interior(V2, to_super(a))) == got2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hooks_are_contractions_with_the_coordinate_fields(n):
    """The hooks are selected from the components.  Two references that do
    not use them: the superspace interior product with d/dx^a, which
    differentiates by the odd generator z^a, and the Euler identity
    sum_a dx^a ^ i_{d/dx^a} rho = deg(rho) rho.  A form with ExpPoly
    coefficients, which is hooked but never wedged, has the hooks of its
    polynomial twin with each coefficient c read as c exp(x1)."""
    eps = Fraction(1)
    rnd = FormRandom(n, n, eps)
    x1 = Polynomial.var(n, 1)

    def times_exp_x1(form: OrdinaryForm) -> OrdinaryForm:
        return OrdinaryForm(n, form.degree, {idxs: ExpPoly.exp(x1, c)
                                             for idxs, c in form.components.items()})

    dx = [OrdinaryForm.basis(n, (a,)) for a in range(1, n + 1)]
    for degree in range(n + 1):
        forms = [rnd.form(degree) for _ in range(3)]
        for rho in forms:
            super_rho = to_super(GenForm.from_ordinary(rho, eps))
            want = [from_super(super_interior(
                GenVectorField.ordinary(coordinate_field(n, a), eps), super_rho))
                for a in range(1, n + 1)]
            hooks = _hooks(rho)
            assert hooks == tuple(w.body for w in want)
            assert all(w.soul.is_zero() for w in want)
            assert [h.degree for h in hooks] == [degree - 1] * n
            assert wedge_dot(dx, hooks) == rho.scale(degree)
        exp_hooks = _hooks(times_exp_x1(forms[0]))
        assert [h.degree for h in exp_hooks] == [degree - 1] * n
        assert exp_hooks == tuple(map(times_exp_x1, _hooks(forms[0])))


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
    W = GenVectorField.ordinary(coordinate_field(n, 1), eps)
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
    assert mat_is_zero(br.vt)
    assert br.v == vf_bracket(v, w)
    U = rnd.gen_vector_field()
    assert gv_bracket(U, U).is_zero()
    U2 = rnd.gen_vector_field()
    assert (gv_bracket(U, U2) + gv_bracket(U2, U)).is_zero()


def test_bracket_jacobi():
    for eps in (Fraction(0), Fraction(1), Fraction(-1, 2)):
        rnd = FormRandom(11, 2, eps)
        for _ in range(10):
            U, V, W = (rnd.gen_vector_field() for _ in range(3))
            total = (gv_bracket(U, gv_bracket(V, W))
                     + gv_bracket(V, gv_bracket(W, U))
                     + gv_bracket(W, gv_bracket(U, V)))
            assert total.is_zero()


def scaled_tensor(t, c):
    """c * t, entry by entry."""
    return mat_map(lambda x: x * c, t)


def composite_bracket(V: GenVectorField, W: GenVectorField) -> GenVectorField:
    """[V, W] as built before the signed sums: every piece of
    v(wt) - w(vt) + [J(w), vt] - [J(v), wt] + eps [vt, wt] is a matrix of
    its own, and the commutators are ``mat_mul`` products."""
    v, w = V.v, W.v

    def along(u: VectorField, p: Polynomial) -> Polynomial:
        return sum((c * p.partial(b) for b, c in enumerate(u.components, 1)),
                   Polynomial.zero(u.dim))

    def derivative(u: VectorField, t):
        return mat_map(lambda x: along(u, x), t)

    def jacobian(u: VectorField):
        return [[c.partial(a) for a in range(1, u.dim + 1)] for c in u.components]

    def commutator(s, t):
        return mat_map(operator.sub, mat_mul(s, t, poly_dot), mat_mul(t, s, poly_dot))

    vt = derivative(v, W.vt)
    for op, t in [(operator.sub, derivative(w, V.vt)),
                  (operator.add, commutator(jacobian(w), V.vt)),
                  (operator.sub, commutator(jacobian(v), W.vt)),
                  (operator.add, scaled_tensor(commutator(V.vt, W.vt), V.epsilon))]:
        vt = mat_map(op, vt, t)
    vw = VectorField([along(v, wc) - along(w, vc)
                      for vc, wc in zip(v.components, w.components)])
    return GenVectorField(V.dim, V.epsilon, vw, vt)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_brackets_equal_the_composite_formula(dim):
    for eps in (Fraction(0), Fraction(-3, 2)):
        rnd = FormRandom(30 + dim, dim, eps)
        for _ in range(4):
            V, W = rnd.gen_vector_field(), rnd.gen_vector_field()
            want = composite_bracket(V, W)
            assert gv_bracket(V, W) == want
            assert vf_bracket(V.v, W.v) == want.v


def test_quaternion_triple_validates():
    js = quaternion_triple()
    validate_quaternion_triple(js)
    # square of each is minus the identity (standard complex-structure triple)
    minus_i = mat_identity(4, Polynomial.const(4, -1), Polynomial.zero(4))
    for j in js:
        assert mat_mul(j, j, poly_dot) == minus_i


def test_a_wrong_quaternion_triple_is_rejected():
    j1, j2, j3 = quaternion_triple()
    with pytest.raises(InputError, match=r"J1 J2 != \+1 J3"):
        validate_quaternion_triple((j1, j2, mat_map(operator.neg, j3)))


def test_so3_example_nonzero_epsilon():
    js = quaternion_triple()
    for eps in (Fraction(1), Fraction(2), Fraction(-1, 2)):
        vs = [GenVectorField.pure(scaled_tensor(j, Fraction(1, 2) / eps), eps) for j in js]
        table = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        for (i, j), k in table.items():
            assert gv_bracket(vs[i], vs[j]) == vs[k]
            assert (gv_bracket(vs[j], vs[i]) + vs[k]).is_zero()


def test_so3_example_zero_epsilon_commutes():
    js = quaternion_triple()
    vs = [GenVectorField.pure(scaled_tensor(j, Fraction(1, 2)), Fraction(0)) for j in js]
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
    v = coordinate_field(n, 2)
    V = embed_generalized(v, Fraction(0), Fraction(1))
    assert mat_is_zero(V.vt)
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
            generic_V = GenVectorField(n, eps, v, mat_identity(n, v0, Polynomial.zero(n)))
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


@pytest.mark.parametrize("op", [gv_interior, gv_lie_expansion])
def test_interior_and_lie_expansion_reject_a_mismatched_form(op):
    V = FormRandom(17, 2, Fraction(1)).gen_vector_field()
    with pytest.raises(ValueError, match="epsilon mismatch"):
        op(V, FormRandom(17, 2, Fraction(2)).genform())
    with pytest.raises(ValueError, match="dimension mismatch"):
        op(V, FormRandom(17, 3, Fraction(1)).genform())


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
    # for vt = v0 * identity the Cartan piece removed from L_V leaves
    # L^hat_V a = L_v a - eps v0 (p body + (p + 1) soul m), by linearity in V
    # and dx^r ^ i_{d/dx^r} rho = deg(rho) rho
    n = 2
    for eps in EPSILONS:
        rnd = FormRandom(17, n, eps)
        for degree in range(-1, n + 1):
            a = rnd.genform(degree)
            v, v0 = rnd.vector_field(), rnd.poly()
            weighted = GenForm(n, eps, degree, a.body.scale(degree), a.soul.scale(degree + 1))
            want = glie_ordinary(v, a) - weighted.scale(v0 * eps)
            assert modified_lie(embed_generalized(v, v0, eps), a) == want


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


@pytest.mark.parametrize("vt, message", [
    pytest.param(lambda p: [[p] * 3] * 2, "vt must be 3 x 3", id="2x3"),
    pytest.param(lambda p: [[p] * 2] * 3, "vt must be 3 x 3", id="3x2"),
    pytest.param(lambda p: [[p] * 3, [p] * 3, [p] * 2], "vt must be 3 x 3", id="ragged"),
    pytest.param(lambda p: [[Polynomial.one(2)] * 3] * 3, "component dimension mismatch",
                 id="entries of dim 2"),
])
def test_gen_vector_field_judges_its_tensor_part(vt, message):
    # vt is an n x n matrix of polynomials in n variables, n = dim
    v = FormRandom(20, 3, Fraction(1)).vector_field()
    with pytest.raises(ValueError, match=message):
        GenVectorField(3, Fraction(1), v, vt(Polynomial.one(3)))


@pytest.mark.parametrize("change", [{"count": 1}, {"count": 4}, {"dim": 2}, {"epsilon": "x"}])
def test_gen_vector_field_judges_the_parts_it_is_given(change):
    # a v of another length, a dim its parts do not have or an epsilon that
    # is no rational raise ValueError
    V = FormRandom(19, 3, Fraction(-2)).gen_vector_field()
    assert GenVectorField(V.dim, V.epsilon, VectorField(V.v.components), V.vt) == V
    parts = dict({"dim": 3, "epsilon": V.epsilon, "count": 3}, **change)
    with pytest.raises(ValueError):
        v = VectorField((V.v.components * 2)[:parts["count"]])
        GenVectorField(parts["dim"], parts["epsilon"], v, V.vt)
