"""Vector fields with degree-extended zero-form components:

    V = (v^r + v^r_s dx^s m) d/dx^r

i.e. an ordinary vector field v plus a (1,1) tensor field vt.  The interior
product lowers degree by one and acquires an extra soul term from vt.  It is
built on the hooks i_{d/dx^a} of ``exterior``, the one index-removal rule:
the body contracts them with v^a, the soul wedges them with the row one-forms
of vt.  The Lie derivative is the anticommutator with d; the bracket is
fixed by requiring [L_V, L_W] = L_[V,W] on every form.

The special case vt = v0 * identity recovers the scalar-extended vector fields
of the Hamiltonian example, including their modified Lie derivative built from
the splitting d = d0 + eps*d1.

Deliberate non-feature: there is no bracket L_V W of one extended field along
another defined through  L_V i_W - i_W L_V = i_{L_V W}.  Interior products of
extended fields fail to anticommute (see gv_anticommutator), so that operator
is not an interior product in general and no such constructor is offered; the
Lie bracket gv_bracket, defined through the commutator of Lie derivatives, is
the supported composition law.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exterior import (
    OrdinaryForm,
    Tensor11,
    VectorField,
    _hooks,
    _json_dim,
    _json_field,
    _json_rows,
    coordinate_partial,
    ext_d,
    interior,
    lie,
    transpose,
    vf_bracket,
    wedge_dot,
    wedge_sum,
)
from .gform import GenForm, gd
from .ring import Polynomial, Scalar, format_rational, parse_rational


class GenVectorField:
    __slots__ = ("dim", "epsilon", "v", "vt")

    def __init__(self, dim: int, epsilon: Scalar, v: VectorField, vt: Tensor11):
        if v.dim != dim or vt.dim != dim:
            raise ValueError("component dimension mismatch")
        self.dim = dim
        self.epsilon = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
        self.v = v
        self.vt = vt

    @classmethod
    def ordinary(cls, v: VectorField, epsilon: Scalar) -> "GenVectorField":
        return cls(v.dim, epsilon, v, Tensor11.zero(v.dim))

    @classmethod
    def pure(cls, vt: Tensor11, epsilon: Scalar) -> "GenVectorField":
        return cls(vt.dim, epsilon, VectorField.zero(vt.dim), vt)

    def pure_part(self) -> "GenVectorField":
        return GenVectorField.pure(self.vt, self.epsilon)

    def is_pure(self) -> bool:
        return self.v.is_zero()

    def is_zero(self) -> bool:
        return self.v.is_zero() and self.vt.is_zero()

    def scalar_extension(self) -> Polynomial | None:
        """Return v0 when vt = v0 * identity, else None."""
        v0 = self.vt.entry(1, 1)
        if self.vt == Tensor11.identity(self.dim, v0):
            return v0
        return None

    _require_compatible = GenForm._require_compatible

    def __add__(self, other: "GenVectorField") -> "GenVectorField":
        self._require_compatible(other)
        return GenVectorField(self.dim, self.epsilon, self.v + other.v, self.vt + other.vt)

    def __sub__(self, other: "GenVectorField") -> "GenVectorField":
        self._require_compatible(other)
        return GenVectorField(self.dim, self.epsilon, self.v - other.v, self.vt - other.vt)

    def __neg__(self) -> "GenVectorField":
        return GenVectorField(self.dim, self.epsilon, -self.v, -self.vt)

    def scale(self, factor: Polynomial | Scalar) -> "GenVectorField":
        return GenVectorField(self.dim, self.epsilon, self.v.scale(factor), self.vt.scale(factor))

    def __eq__(self, other):
        if not isinstance(other, GenVectorField):
            return NotImplemented
        return (self.dim == other.dim and self.epsilon == other.epsilon
                and self.v == other.v and self.vt == other.vt)

    def __repr__(self):
        return f"GenVectorField(v={self.v!r}, vt={self.vt!r})"


def embed_generalized(v: VectorField, v0: Polynomial | Scalar, epsilon: Scalar) -> GenVectorField:
    """Scalar-extended field: vt = v0 * identity."""
    if not isinstance(v0, Polynomial):
        v0 = Polynomial.const(v.dim, v0)
    return GenVectorField(v.dim, epsilon, v, Tensor11.identity(v.dim, v0))


# -- interior product ----------------------------------------------------------


def _sign(p: int) -> int:
    """(-1)^p."""
    return -1 if p % 2 else 1


def gv_interior(V: GenVectorField, a: GenForm) -> GenForm:
    """i_V a = i_v(body) + [i_v(soul) + (-1)^(p-1) theta^a ^ i_{d/dx^a}(body)] m.

    The hooks i_{d/dx^a}(body) are built once and dotted twice: with the
    components v^a, as 0-forms, for the body, and with the row one-forms
    theta^a for the soul, whose two contractions are one signed sum.
    """
    V._require_compatible(a)
    hooks, components, sign = _hooks(a.body), V.v.component_forms(), _sign(a.degree - 1)
    body = wedge_dot(components, hooks)
    soul = wedge_sum([(1, c, h) for c, h in zip(components, _hooks(a.soul))]
                     + [(sign, t, h) for t, h in zip(V.vt.row_forms(), hooks)])
    return GenForm(a.dim, a.epsilon, a.degree - 1, body, soul)


def gv_anticommutator(V: GenVectorField, W: GenVectorField, a: GenForm) -> GenForm:
    """(i_W i_V + i_V i_W) a, by composing the interior products."""
    return gv_interior(W, gv_interior(V, a)) + gv_interior(V, gv_interior(W, a))


def gv_anticommutator_closed_form(V: GenVectorField, W: GenVectorField, a: GenForm) -> GenForm:
    """Closed form of the same operator: (-1)^(p-1) i_u(body) m with
    u^a = v^a_b w^b + w^a_b v^b."""
    V._require_compatible(W)
    v, w = V.v.components, W.v.components
    u = VectorField([Polynomial.sum_products([(1, x, y) for x, y in zip(vrow + wrow, w + v)])
                     for vrow, wrow in zip(V.vt.components, W.vt.components)])
    sign = _sign(a.degree - 1)
    return GenForm(a.dim, a.epsilon, a.degree - 2, soul=wedge_sum(
        [(sign, c, h) for c, h in zip(u.component_forms(), _hooks(a.body))]))


def xi_type_pair(v: VectorField, w: VectorField,
                 xi: Sequence[OrdinaryForm], epsilon: Scalar) -> tuple[GenVectorField, GenVectorField]:
    """Fields whose tensor parts are contractions of one vector-valued
    two-form: the row one-forms of vt are i_v Xi^a; such pairs anticommute."""
    def build(u: VectorField) -> GenVectorField:
        return GenVectorField(u.dim, epsilon, u,
                              Tensor11.from_row_forms([interior(u, x) for x in xi]))

    return build(v), build(w)


# -- Lie derivative ------------------------------------------------------------


def gv_lie(V: GenVectorField, a: GenForm) -> GenForm:
    """L_V = d i_V + i_V d (the defining relation)."""
    return gd(gv_interior(V, a)) + gv_interior(V, gd(a))


def gv_lie_expansion(V: GenVectorField, a: GenForm) -> GenForm:
    """Independent expansion of L_V a in terms of body/soul, with theta^a the
    row one-forms of vt:

        body' = L_v(body) - eps theta^a ^ i_{d/dx^a}(body)
        soul' = L_v(soul) + (-1)^p theta^a ^ d_a(body)
                + (-1)^(p-1) d(theta^a) ^ i_{d/dx^a}(body)
                - eps theta^a ^ i_{d/dx^a}(soul)

    eps theta^a is scaled once, and the three soul products are one signed
    sum.
    """
    V._require_compatible(a)
    n, p, eps = a.dim, a.degree, a.epsilon
    theta, hooks = V.vt.row_forms(), _hooks(a.body)
    eps_theta = [t.scale(eps) for t in theta]
    body = lie(V.v, a.body) + wedge_sum([(-1, t, h) for t, h in zip(eps_theta, hooks)])
    grads = [coordinate_partial(a.body, axis) for axis in range(1, n + 1)]
    soul = lie(V.v, a.soul) + wedge_sum(
        [(-1, t, h) for t, h in zip(eps_theta, _hooks(a.soul))]
        + [(_sign(p), t, g) for t, g in zip(theta, grads)]
        + [(_sign(p - 1), ext_d(t), h) for t, h in zip(theta, hooks)])
    return GenForm(n, eps, p, body, soul)


# -- bracket -------------------------------------------------------------------


def gv_bracket(V: GenVectorField, W: GenVectorField) -> GenVectorField:
    """[V, W]: ordinary part [v, w]; tensor part

        v(wt) - w(vt) + [J(w), vt] - [J(v), wt] + eps [vt, wt],

    with v(t) the entrywise directional derivative, J(v)^c_a = d_a v^c the
    Jacobian and [s, t] = s t - t s the matrix commutator.  Each entry (c, a)
    is one signed sum of products over b,

        v^b d_b wt^c_a - w^b d_b vt^c_a + J(w)^c_b vt^b_a - vt^c_b J(w)^b_a
        - J(v)^c_b wt^b_a + wt^c_b J(v)^b_a + (eps vt)^c_b wt^b_a - wt^c_b (eps vt)^b_a,

    in one kernel call; eps vt is scaled once, and its terms are left out
    at eps = 0.
    """
    V._require_compatible(W)
    v, w, vt, wt = V.v.components, W.v.components, V.vt.components, W.vt.components
    axes = range(1, V.dim + 1)
    jv, jw = ([[c.partial(b) for b in axes] for c in x] for x in (v, w))
    products = [(1, jw, vt), (-1, vt, jw), (-1, jv, wt), (1, wt, jv)]  # (s, X, Y): s X Y
    if V.epsilon:
        eps_vt = [[x * V.epsilon for x in row] for row in vt]
        products += [(1, eps_vt, wt), (-1, wt, eps_vt)]
    products = [(s, x, transpose(y)) for s, x, y in products]  # Y by columns

    def entry(c: int, a: int) -> Polynomial:
        return Polynomial.sum_products(
            [(1, vb, wt[c][a].partial(b)) for b, vb in zip(axes, v)]
            + [(-1, wb, vt[c][a].partial(b)) for b, wb in zip(axes, w)]
            + [(s, x, y) for s, rows, cols in products
               for x, y in zip(rows[c], cols[a])])

    return GenVectorField(V.dim, V.epsilon, vf_bracket(V.v, W.v),
                          Tensor11([[entry(c, a) for a in range(V.dim)] for c in range(V.dim)]))


# -- splitting of d and the modified Lie derivative ------------------------------


def d_split(a: GenForm) -> tuple[GenForm, GenForm]:
    """d = d0 + eps d1:  d0 is d at eps = 0 re-tagged with a's epsilon, and
    d1 kills ordinary forms, sends m to 1, and in general contributes
    (-1)^(p+1) soul as a body term."""
    d0 = GenForm(a.dim, a.epsilon, a.degree + 1, ext_d(a.body), ext_d(a.soul))
    d1_body = a.soul if (a.degree + 1) % 2 == 0 else -a.soul
    d1 = GenForm(a.dim, a.epsilon, a.degree + 1, d1_body,
                 OrdinaryForm.zero(a.dim, a.degree + 2))
    return d0, d1


def modified_lie(V: GenVectorField, a: GenForm) -> GenForm:
    """L^hat_V = L_V - (d0 i_{V1} + i_{V1} d0), defined for scalar-extended
    fields only."""
    if V.scalar_extension() is None:
        raise ValueError("modified Lie derivative needs vt = v0 * identity")
    pure = V.pure_part()

    def d0(x: GenForm) -> GenForm:
        return d_split(x)[0]

    correction = d0(gv_interior(pure, a)) + gv_interior(pure, d0(a))
    return gv_lie(V, a) - correction


# -- quaternionic fixture --------------------------------------------------------


def quaternion_triple() -> tuple[Tensor11, Tensor11, Tensor11]:
    """Constant (1,1) tensors J1, J2, J3 on R^4 (left multiplication by the
    imaginary units on the coordinates) with Ji Jj = e_ijk Jk for i != j."""
    def tensor(rows: list[list[int]]) -> Tensor11:
        return Tensor11([[Polynomial.const(4, v) for v in row] for row in rows])

    j1 = tensor([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j2 = tensor([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    j3 = tensor([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    return j1, j2, j3


def validate_quaternion_triple(js: Sequence[Tensor11]) -> None:
    """Check Ji Jj = e_ijk Jk for all i != j by direct multiplication."""
    eps_sym = {(0, 1): (2, 1), (1, 2): (0, 1), (2, 0): (1, 1),
               (1, 0): (2, -1), (2, 1): (0, -1), (0, 2): (1, -1)}
    for (i, j), (k, sign) in eps_sym.items():
        product = js[i].matmul(js[j])
        expected = js[k] if sign > 0 else -js[k]
        if product != expected:
            raise AssertionError(f"J{i + 1} J{j + 1} != {sign:+d} J{k + 1}")


# -- JSON ------------------------------------------------------------------------


def gvf_to_json(V: GenVectorField) -> dict:
    return {
        "dim": V.dim,
        "epsilon": format_rational(V.epsilon),
        "v": [str(c) for c in V.v.components],
        "vt": [[str(c) for c in row] for row in V.vt.components],
    }


def gvf_from_json(data: dict) -> GenVectorField:
    dim = _json_dim(data)
    v = VectorField([Polynomial.parse(dim, t) for t in _json_field(data, "v", list)])
    vt = Tensor11([[Polynomial.parse(dim, t) for t in row]
                   for row in _json_rows(dim, _json_field(data, "vt", list))])
    return GenVectorField(dim, parse_rational(_json_field(data, "epsilon", str)), v, vt)
