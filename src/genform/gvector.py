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
    scale_dot_forms,
    vf_bracket,
    wedge_dot,
)
from .gform import GenForm, gd
from .ring import Polynomial, Scalar, format_rational, parse_rational


class GenVectorField:
    __slots__ = ("dim", "epsilon", "v", "vt")

    def __init__(self, dim: int, epsilon: Scalar, v: VectorField, vt: Tensor11):
        if v.dim != dim or vt.dim != dim:
            raise ValueError("component dimension mismatch")
        self.dim = dim
        self.epsilon = Fraction(epsilon)
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

    def _require_compatible(self, other) -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.epsilon != other.epsilon:
            raise ValueError(f"epsilon mismatch: {self.epsilon} vs {other.epsilon}")

    def __add__(self, other: "GenVectorField") -> "GenVectorField":
        self._require_compatible(other)
        return GenVectorField(self.dim, self.epsilon, self.v + other.v, self.vt + other.vt)

    def __sub__(self, other: "GenVectorField") -> "GenVectorField":
        return self + (-other)

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


def _signed(p: int, form: OrdinaryForm) -> OrdinaryForm:
    """(-1)^p form."""
    return -form if p % 2 else form


def gv_interior(V: GenVectorField, a: GenForm) -> GenForm:
    """i_V a = i_v(body) + [i_v(soul) + (-1)^(p-1) theta^a ^ i_{d/dx^a}(body)] m.

    The hooks i_{d/dx^a}(body) are built once: contracted with the components
    v^a for the body, and wedged with the row one-forms theta^a for the soul.
    """
    if V.dim != a.dim:
        raise ValueError(f"dimension mismatch: {V.dim} vs {a.dim}")
    if V.epsilon != a.epsilon:
        raise ValueError(f"epsilon mismatch: {V.epsilon} vs {a.epsilon}")
    hooks = _hooks(a.body)
    body = scale_dot_forms(V.v.components, hooks)
    soul = interior(V.v, a.soul) + _signed(a.degree - 1, wedge_dot(V.vt.row_forms(), hooks))
    return GenForm(a.dim, a.epsilon, a.degree - 1, body, soul)


def gv_anticommutator(V: GenVectorField, W: GenVectorField, a: GenForm) -> GenForm:
    """(i_W i_V + i_V i_W) a, by composing the interior products."""
    return gv_interior(W, gv_interior(V, a)) + gv_interior(V, gv_interior(W, a))


def gv_anticommutator_closed_form(V: GenVectorField, W: GenVectorField, a: GenForm) -> GenForm:
    """Closed form of the same operator: (-1)^(p-1) i_u(body) m with
    u^a = v^a_b w^b + w^a_b v^b."""
    V._require_compatible(W)
    u = V.vt.apply(W.v) + W.vt.apply(V.v)
    return GenForm(a.dim, a.epsilon, a.degree - 2,
                   soul=_signed(a.degree - 1, interior(u, a.body)))


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
    """
    if V.dim != a.dim or V.epsilon != a.epsilon:
        raise ValueError("dimension/epsilon mismatch")
    n, p, eps = a.dim, a.degree, a.epsilon
    theta, hooks = V.vt.row_forms(), _hooks(a.body)
    body = lie(V.v, a.body) - wedge_dot(theta, hooks).scale(eps)
    grad = wedge_dot(theta, [coordinate_partial(a.body, axis) for axis in range(1, n + 1)])
    dtheta = wedge_dot([ext_d(t) for t in theta], hooks)
    soul = (lie(V.v, a.soul) - wedge_dot(theta, _hooks(a.soul)).scale(eps)
            + _signed(p, grad) + _signed(p - 1, dtheta))
    return GenForm(n, eps, p, body, soul)


# -- bracket -------------------------------------------------------------------


def _derivative(v: VectorField, t: Tensor11) -> Tensor11:
    """v(t)^c_a = v^b d_b t^c_a."""
    return Tensor11([[v.derivative(x) for x in row] for row in t.components])


def _jacobian(v: VectorField) -> Tensor11:
    """J(v)^c_a = d_a v^c."""
    return Tensor11([[c.partial(a) for a in range(1, v.dim + 1)] for c in v.components])


def _commutator(s: Tensor11, t: Tensor11) -> Tensor11:
    return s.matmul(t) - t.matmul(s)


def gv_bracket(V: GenVectorField, W: GenVectorField) -> GenVectorField:
    """[V, W]: ordinary part [v, w]; tensor part

    v(wt) - w(vt) + [J(w), vt] - [J(v), wt] + eps [vt, wt],

    with v(t) the entrywise directional derivative, J(v)^c_a = d_a v^c the
    Jacobian and [s, t] = s t - t s the matrix commutator.
    """
    V._require_compatible(W)
    v, w = V.v, W.v
    vt = (_derivative(v, W.vt) - _derivative(w, V.vt)
          + _commutator(_jacobian(w), V.vt) - _commutator(_jacobian(v), W.vt))
    if V.epsilon != 0:
        vt = vt + _commutator(V.vt, W.vt).scale(V.epsilon)
    return GenVectorField(V.dim, V.epsilon, vf_bracket(v, w), vt)


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


def quaternion_triple(dim: int = 4) -> tuple[Tensor11, Tensor11, Tensor11]:
    """Constant (1,1) tensors J1, J2, J3 on R^4 (left multiplication by the
    imaginary units on the coordinates) with Ji Jj = e_ijk Jk for i != j."""
    if dim != 4:
        raise ValueError("quaternionic triple lives on R^4")

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
