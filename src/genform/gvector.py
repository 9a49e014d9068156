"""Vector fields with degree-extended zero-form components:

    V = (v^r + v^r_s dx^s m) d/dx^r

i.e. an ordinary vector field v plus a (1,1) tensor field vt.  The interior
product lowers degree by one and acquires an extra soul term from vt; the Lie
derivative is the anticommutator with d; the bracket is fixed by requiring
[L_V, L_W] = L_[V,W] on every form.

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
    _json_dim,
    _json_field,
    _json_rows,
    coordinate_partial,
    ext_d,
    interior,
    lie,
    vf_bracket,
    wedge,
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


def _gamma_term(vt: Tensor11, rho: OrdinaryForm) -> OrdinaryForm:
    """(-1)^(p-1) v^a_b dx^b ^ (i_{d/dx^a} rho) for a p-form rho."""
    n = rho.dim
    result = OrdinaryForm.zero(n, rho.degree)
    for a in range(1, n + 1):
        contracted = interior(VectorField.coordinate(n, a), rho)
        if contracted.is_zero():
            continue
        for b in range(1, n + 1):
            coeff = vt.entry(a, b)
            if coeff.is_zero():
                continue
            dxb = OrdinaryForm.basis(n, (b,), coeff)
            result = result + wedge(dxb, contracted)
    if (rho.degree - 1) % 2:
        result = -result
    return result


def gv_interior(V: GenVectorField, a: GenForm) -> GenForm:
    """i_V a = i_v(body) + [i_v(soul) + gamma(vt, body)] m."""
    if V.dim != a.dim:
        raise ValueError(f"dimension mismatch: {V.dim} vs {a.dim}")
    if V.epsilon != a.epsilon:
        raise ValueError(f"epsilon mismatch: {V.epsilon} vs {a.epsilon}")
    body = interior(V.v, a.body)
    soul = interior(V.v, a.soul) + _gamma_term(V.vt, a.body)
    return GenForm(a.dim, a.epsilon, a.degree - 1, body, soul)


def gv_anticommutator(V: GenVectorField, W: GenVectorField, a: GenForm) -> GenForm:
    """(i_W i_V + i_V i_W) a, by composing the interior products."""
    return gv_interior(W, gv_interior(V, a)) + gv_interior(V, gv_interior(W, a))


def gv_anticommutator_closed_form(V: GenVectorField, W: GenVectorField, a: GenForm) -> GenForm:
    """Closed form of the same operator:
    (-1)^(p-1) [v^a_b w^b + w^a_b v^b] (i_{d/dx^a} body) m."""
    V._require_compatible(W)
    u = V.vt.apply(W.v) + W.vt.apply(V.v)
    n = a.dim
    soul = OrdinaryForm.zero(n, a.degree - 1)
    for idx in range(1, n + 1):
        comp = u.component(idx)
        if comp.is_zero():
            continue
        soul = soul + interior(VectorField.coordinate(n, idx), a.body).scale(comp)
    if (a.degree - 1) % 2:
        soul = -soul
    return GenForm(a.dim, a.epsilon, a.degree - 2, OrdinaryForm.zero(n, a.degree - 2), soul)


def xi_type_pair(v: VectorField, w: VectorField,
                 xi: Sequence[OrdinaryForm], epsilon: Scalar) -> tuple[GenVectorField, GenVectorField]:
    """Fields whose tensor parts are contractions of one vector-valued
    two-form: vt^a_b = components of i_v Xi^a; such pairs anticommute."""
    n = v.dim

    def build(u: VectorField) -> GenVectorField:
        rows = []
        for a in range(n):
            one_form = interior(u, xi[a])
            rows.append([one_form.components.get((b,), Polynomial.zero(n))
                         for b in range(1, n + 1)])
        return GenVectorField(n, epsilon, u, Tensor11(rows))

    return build(v), build(w)


# -- Lie derivative ------------------------------------------------------------


def gv_lie(V: GenVectorField, a: GenForm) -> GenForm:
    """L_V = d i_V + i_V d (the defining relation)."""
    return gd(gv_interior(V, a)) + gv_interior(V, gd(a))


def gv_lie_expansion(V: GenVectorField, a: GenForm) -> GenForm:
    """Independent expansion of L_V a in terms of body/soul:

        body' = L_v(body) - eps v^a_b dx^b ^ i_{d/dx^a}(body)
        soul' = L_v(soul) + (-1)^p v^a_b dx^b ^ d_a(body)
                + (-1)^(p-1) (d_c v^a_b) dx^c dx^b ^ i_{d/dx^a}(body)
                - eps v^a_b dx^b ^ i_{d/dx^a}(soul)
    """
    if V.dim != a.dim or V.epsilon != a.epsilon:
        raise ValueError("dimension/epsilon mismatch")
    n, p, eps = a.dim, a.degree, a.epsilon

    def vt_hook(rho: OrdinaryForm) -> OrdinaryForm:
        out = OrdinaryForm.zero(n, rho.degree)
        for aa in range(1, n + 1):
            contracted = interior(VectorField.coordinate(n, aa), rho)
            if contracted.is_zero():
                continue
            for bb in range(1, n + 1):
                coeff = V.vt.entry(aa, bb)
                if not coeff.is_zero():
                    out = out + wedge(OrdinaryForm.basis(n, (bb,), coeff), contracted)
        return out

    body = lie(V.v, a.body) - vt_hook(a.body).scale(eps)

    soul = lie(V.v, a.soul) - vt_hook(a.soul).scale(eps)
    grad = OrdinaryForm.zero(n, p + 1)
    for aa in range(1, n + 1):
        d_body = coordinate_partial(a.body, aa)
        if d_body.is_zero():
            continue
        for bb in range(1, n + 1):
            coeff = V.vt.entry(aa, bb)
            if not coeff.is_zero():
                grad = grad + wedge(OrdinaryForm.basis(n, (bb,), coeff), d_body)
    if p % 2:
        grad = -grad
    soul = soul + grad
    dvt = OrdinaryForm.zero(n, p + 1)
    for aa in range(1, n + 1):
        contracted = interior(VectorField.coordinate(n, aa), a.body)
        if contracted.is_zero():
            continue
        for bb in range(1, n + 1):
            for cc in range(1, n + 1):
                coeff = V.vt.entry(aa, bb).partial(cc)
                if coeff.is_zero():
                    continue
                two_form = wedge(OrdinaryForm.basis(n, (cc,), coeff),
                                 OrdinaryForm.basis(n, (bb,), 1))
                dvt = dvt + wedge(two_form, contracted)
    if (p - 1) % 2:
        dvt = -dvt
    soul = soul + dvt
    return GenForm(n, eps, p, body, soul)


# -- bracket -------------------------------------------------------------------


def gv_bracket(V: GenVectorField, W: GenVectorField) -> GenVectorField:
    """[V, W]: ordinary part [v, w]; tensor part

    T^c_a = v^b d_b w^c_a - w^b d_b v^c_a + w^c_b d_a v^b - v^c_b d_a w^b
            + v^b_a d_b w^c - w^b_a d_b v^c + eps (v^c_b w^b_a - w^c_b v^b_a).
    """
    V._require_compatible(W)
    n, eps = V.dim, V.epsilon
    rows = []
    for c in range(1, n + 1):
        row = []
        for a in range(1, n + 1):
            acc = Polynomial.zero(n)
            for b in range(1, n + 1):
                acc = acc + V.v.component(b) * W.vt.entry(c, a).partial(b)
                acc = acc - W.v.component(b) * V.vt.entry(c, a).partial(b)
                acc = acc + W.vt.entry(c, b) * V.v.component(b).partial(a)
                acc = acc - V.vt.entry(c, b) * W.v.component(b).partial(a)
                acc = acc + V.vt.entry(b, a) * W.v.component(c).partial(b)
                acc = acc - W.vt.entry(b, a) * V.v.component(c).partial(b)
                if eps != 0:
                    acc = acc + eps * (V.vt.entry(c, b) * W.vt.entry(b, a)
                                       - W.vt.entry(c, b) * V.vt.entry(b, a))
            row.append(acc)
        rows.append(row)
    return GenVectorField(n, eps, vf_bracket(V.v, W.v), Tensor11(rows))


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
