"""Ordinary exterior calculus on R^n with exact coefficients.

Forms are stored sparsely on the strictly increasing index basis: a p-form is
a map from increasing index tuples (i1 < ... < ip, entries 1..n) to ring
coefficients.  Any p-form with p < 0 or p > n is the zero form.  Signs come
from transposition counting when index tuples merge, so wedge, d, interior
product and Lie derivative are all exact.

Coefficients are normally ``Polynomial``.  The chart-gluing module also
forms ``ExpPoly`` coefficients, and a form with them keeps what it uses:
``+``, ``-``, negation, ``scale``, ``ext_d``, the hooks, ``coordinate_partial``
and equality.  Its products (``wedge``, ``interior``, ``lie``), like
``pullback`` and the homotopy inverse, take polynomial coefficients only.
The JSON readers of forms are in ``cli``.

Every product of forms groups its coefficient pairs by one rule,
``wedge_sum``: the dots, ``wedge``, the interior product, ``gform.gwedge_sum``
(one call for the body, one for the soul) and ``pullback`` (one dot of the
composed coefficients with the Jacobian minors) all hand their pairs to it,
and it hands each group to ``Polynomial.sum_products``, the one function that
multiplies the coefficients of forms.

Forms and fields are values, and keep what is derived from them, like the
partials of a ``Polynomial``: ``ext_d(a)`` and the hooks ``_hooks(a)`` are
formed once per form and kept on it (``_d``, ``_hooks``), and
``VectorField.component_forms`` and ``gvector.GenVectorField.row_forms``
once per field.  An identity trial that differentiates or contracts the same
form again reads the kept result.  ``a - b`` is one signed sum
(``OrdinaryForm._plus``): a component of b is subtracted from its partner in
a, and negated only where a has none, and ``ext_d`` subtracts a partial of
negative merge sign the same way.

A matrix of polynomials or (extended) forms is a tuple of rows: ``mat_map``
is its one entrywise rule (a sum, d or a lift of each entry), ``mat_mul``
its one product, ``square_matrix`` its one n x n rule, and a matrix times a
vector is one dot per row.  A (1,1) tensor t^a_b, such as the tensor part
vt of an extended vector field, is such an n x n polynomial matrix;
``row_forms`` turns it into its one-forms theta^a = t^a_b dx^b and
``from_row_forms`` back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from typing import Callable, Mapping, Sequence

from .ring import Coefficient, InputError, Polynomial, Scalar, _add_term, compose_all, poly_dot

IndexTuple = tuple[int, ...]


@cache
def merge_indices(left: IndexTuple, right: IndexTuple) -> tuple[int, IndexTuple] | None:
    """Merge two increasing index tuples; return (sign, merged) or None if a
    repeated index kills the product.  Memoized: at dim n there are at most
    4^n distinct pairs."""
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining len(left) - i generators of `left`
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


class OrdinaryForm:
    """Exterior form of fixed degree with sparse exact components.  A form
    is a value: ``ext_d`` and ``_hooks`` keep what they derive from it in
    ``_d`` and ``_hooks``, formed on first use."""

    __slots__ = ("dim", "degree", "components", "_d", "_hooks")

    def __init__(self, dim: int, degree: int, components: Mapping[IndexTuple, Coefficient] | None = None):
        self.dim = dim
        self.degree = degree
        self._d = self._hooks = None
        clean: dict[IndexTuple, Coefficient] = {}
        if components:
            for idxs, coeff in components.items():
                idxs = tuple(idxs)
                if len(idxs) != degree:
                    raise InputError(f"index tuple {idxs} has length != degree {degree}")
                if any(not 1 <= i <= dim for i in idxs):
                    raise InputError(f"index tuple {idxs} out of range 1..{dim}")
                if any(idxs[k] >= idxs[k + 1] for k in range(len(idxs) - 1)):
                    raise InputError(f"index tuple {idxs} not strictly increasing")
                if not coeff.is_zero():
                    clean[idxs] = coeff
        self.components = clean

    @classmethod
    def _canonical(cls, dim: int, degree: int,
                   components: dict[IndexTuple, Coefficient]) -> "OrdinaryForm":
        """Build an operation's result, whose index tuples are increasing and
        in range by construction: only drop zero coefficients and keep the
        zero form outside 0 <= degree <= dim.  Outside input goes through the
        validating constructor.

        The caller hands over a fresh dict that nothing else holds: it becomes
        the form's components as it is, unless it holds a zero coefficient."""
        form = cls.__new__(cls)
        form.dim = dim
        form.degree = degree
        form._d = form._hooks = None
        if not 0 <= degree <= dim:
            components = {}
        else:
            for c in components.values():  # a loop: cheaper than any() on one or two entries
                if c.is_zero():
                    components = {idxs: c for idxs, c in components.items() if not c.is_zero()}
                    break
        form.components = components
        return form

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int = 0) -> "OrdinaryForm":
        return cls(dim, degree, {})

    @classmethod
    def from_scalar(cls, coeff: Coefficient) -> "OrdinaryForm":
        return cls(coeff.dim, 0, {(): coeff})

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "OrdinaryForm":
        return cls.from_scalar(Polynomial.const(dim, value))

    @classmethod
    def basis(cls, dim: int, idxs: Sequence[int], coeff: Coefficient | Scalar = 1) -> "OrdinaryForm":
        """coeff * dx^{i1} ^ ... ^ dx^{ip} for an increasing index tuple."""
        if isinstance(coeff, (int, Fraction)):
            coeff = Polynomial.const(dim, coeff)
        return cls(dim, len(idxs), {tuple(idxs): coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    # -- linear structure ----------------------------------------------------

    def _require_compatible(self, other: "OrdinaryForm") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def _plus(self, other: "OrdinaryForm", sign: int) -> "OrdinaryForm":
        """self + sign * other, sign = +1 or -1: the one path of ``+`` and
        ``-``; only a component of other without a partner in self is
        negated."""
        self._require_compatible(other)
        if self.is_zero():
            return other if sign > 0 else -other
        if other.is_zero():
            return self
        out = dict(self.components)
        for idxs, coeff in other.components.items():
            _add_term(out, idxs, coeff, sign)
        return OrdinaryForm._canonical(self.dim, self.degree, out)

    def __add__(self, other: "OrdinaryForm") -> "OrdinaryForm":
        return self._plus(other, 1)

    def __sub__(self, other: "OrdinaryForm") -> "OrdinaryForm":
        return self._plus(other, -1)

    def __neg__(self) -> "OrdinaryForm":
        return OrdinaryForm._canonical(self.dim, self.degree,
                                       {i: -c for i, c in self.components.items()})

    def scale(self, factor: Coefficient | Scalar) -> "OrdinaryForm":
        if isinstance(factor, (int, Fraction)):
            out = {idxs: coeff * factor for idxs, coeff in self.components.items()}
        else:
            out = {idxs: factor * coeff for idxs, coeff in self.components.items()}
        return OrdinaryForm._canonical(self.dim, self.degree, out)

    def __eq__(self, other):
        if not isinstance(other, OrdinaryForm):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.is_zero() and other.is_zero():
            return True  # a single zero form, whatever its nominal degree
        return self.degree == other.degree and self.components == other.components

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for idxs in sorted(self.components):
            coeff = self.components[idxs]
            blade = "".join(f"dx{i}" for i in idxs)
            parts.append(f"({coeff}){blade}" if blade else f"({coeff})")
        return " + ".join(parts)

    def __repr__(self):
        return f"OrdinaryForm(dim={self.dim}, degree={self.degree}, {str(self)})"


class VectorField:
    """Ordinary vector field v = v^a d/dx^a with polynomial components."""

    __slots__ = ("dim", "components", "_forms")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        dim = components[0].dim
        if len(components) != dim or any(c.dim != dim for c in components):
            raise ValueError("component count must equal the coefficient dimension")
        self.dim = dim
        self.components = components
        self._forms: tuple[OrdinaryForm, ...] | None = None

    @classmethod
    def zero(cls, dim: int) -> "VectorField":
        return cls([Polynomial.zero(dim)] * dim)

    def component_forms(self) -> tuple[OrdinaryForm, ...]:
        """The components v^a as 0-forms, the operands of a contraction,
        formed on first use and kept on the field."""
        if self._forms is None:
            self._forms = tuple(OrdinaryForm._canonical(self.dim, 0, {(): c})
                                for c in self.components)
        return self._forms

    def component(self, index: int) -> Polynomial:
        return self.components[index - 1]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


# -- matrices: row tuples of polynomials, ordinary or extended forms ----------------


def mat_identity(n: int, one, zero) -> tuple[tuple, ...]:
    """The n x n matrix with ``one`` on the diagonal and ``zero`` elsewhere."""
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_map(f: Callable, *ms: Sequence[Sequence]) -> tuple[tuple, ...]:
    """The matrix whose entry (i, j) is f of the (i, j) entries of ms, such
    as ``mat_map(operator.sub, a, b)`` or ``mat_map(ext_d, a)``: the one
    entrywise rule.  ValueError unless all of ms have one shape."""
    return tuple(tuple(f(*xs) for xs in zip(*rows, strict=True))
                 for rows in zip(*ms, strict=True))


def square_matrix(m: Sequence[Sequence], name: str, error: type[Exception],
                  n: int) -> tuple[tuple, ...]:
    """m as a tuple of rows once it is n x n: the one square rule.  Otherwise
    ``error`` names the matrix, as in "gamma must be 2 x 2"."""
    rows = tuple(map(tuple, m))
    if len(rows) != n or any(len(row) != n for row in rows):
        raise error(f"{name} must be {n} x {n}")
    return rows


def mat_is_zero(a: Sequence[Sequence]) -> bool:
    return all(x.is_zero() for row in a for x in row)


def transpose(m: Sequence[Sequence]) -> tuple[tuple, ...]:
    """(m^T)_ij = m_ji; ValueError unless the rows of m have one length."""
    return tuple(zip(*m, strict=True))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], dot: Callable) -> tuple[tuple, ...]:
    """Matrix product (a b)_ij = dot(row i of a, column j of b).

    The caller names the row-times-column sum: ``ring.poly_dot`` for
    polynomials, ``wedge_dot`` for forms and ``gform.gwedge_dot`` for
    extended forms.  A polynomial matrix that multiplies a matrix of forms
    enters as the matrix of its 0-forms.  Each dot accumulates its entry
    once, so no typed zero and no intermediate product is needed.  A signed
    sum of several matrix products, such as d t + alpha t - t alpha, is not
    a sum of ``mat_mul`` results: its callers give each entry's triples to
    one ``wedge_sum``, ``gform.gwedge_sum`` or ``Polynomial.sum_products``.
    """
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix product: inner dimensions differ")
    columns = transpose(b)
    return tuple(tuple(dot(row, col) for col in columns) for row in a)


def inverse_defect(left: Sequence[Sequence], right: Sequence[Sequence]) -> tuple[int, int] | None:
    """The first 1-based entry (i, j), in row order, where the polynomial
    product left right is not the identity, or None when right is left's
    exact inverse.  One product suffices: over a commutative ring, left right
    = I gives det(left) det(right) = 1, so right left = I as well.
    ValueError unless both are square of one size."""
    n = len(left)
    square_matrix(left, "left", ValueError, n)
    square_matrix(right, "right", ValueError, n)
    product = mat_mul(left, right, poly_dot)
    return next(((i + 1, j + 1) for i in range(n) for j in range(n)
                 if product[i][j] != int(i == j)), None)


def row_forms(m: Sequence[Sequence[Polynomial]]) -> tuple[OrdinaryForm, ...]:
    """theta^a = m^a_b dx^b, one one-form per row of the n x n polynomial
    matrix m, such as the tensor part of an extended vector field."""
    n = len(m)
    return tuple(OrdinaryForm._canonical(n, 1, {(b,): c for b, c in enumerate(row, 1)})
                 for row in m)


def from_row_forms(rows: Sequence[OrdinaryForm]) -> tuple[tuple[Polynomial, ...], ...]:
    """Inverse of ``row_forms``: m^a_b is the dx^b coefficient of rows[a];
    ValueError unless every row is a one-form."""
    n = len(rows)
    if any(not row.is_zero() and row.degree != 1 for row in rows):
        raise ValueError("rows must be one-forms")
    zero = Polynomial.zero(n)
    return tuple(tuple(row.components.get((b,), zero) for b in range(1, n + 1)) for row in rows)


# -- exterior operations ------------------------------------------------------


def wedge_sum(triples: Sequence[tuple[int, OrdinaryForm, OrdinaryForm]]) -> OrdinaryForm:
    """sum of s * a ^ b over at least one (s, a, b) triple, s = +1 or -1,
    each output coefficient accumulated once: the signed coefficient pairs of
    every triple are grouped by merged index tuple and each group is summed
    by one ``Polynomial.sum_products`` call, so the coefficients must be
    polynomials.

    The result is the left fold of + over the signed wedges: of the terms'
    common degree when nonzero, of the last term's degree when zero.
    ValueError on a dimension mismatch and when two terms whose components
    merge have different degrees.
    """
    if not triples:
        raise ValueError("wedge_sum needs at least one (s, a, b) triple")
    dim = triples[0][1].dim
    groups: dict[IndexTuple, list] = {}
    degree = None
    for s, a, b in triples:
        if a.dim != dim or b.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {b.dim if a.dim == dim else a.dim}")
        merged_any = False
        b_items = b.components.items()
        for idx_a, ca in a.components.items():
            for idx_b, cb in b_items:
                merged = merge_indices(idx_a, idx_b)
                if merged is None:
                    continue
                merge_sign, idxs = merged
                groups.setdefault(idxs, []).append((s * merge_sign, ca, cb))
                merged_any = True
        if merged_any:
            if degree is not None and degree != a.degree + b.degree:
                raise ValueError(f"degree mismatch: {degree} vs {a.degree + b.degree}")
            degree = a.degree + b.degree
    components = {idxs: c for idxs, group in groups.items()
                  if not (c := Polynomial.sum_products(group)).is_zero()}
    _, a, b = triples[-1]
    return OrdinaryForm._canonical(dim, degree if components else a.degree + b.degree, components)


def wedge_dot(row: Sequence[OrdinaryForm], col: Sequence[OrdinaryForm]) -> OrdinaryForm:
    """sum_k row[k] ^ col[k]: the all-plus ``wedge_sum``; ValueError also on
    rows of different length."""
    return wedge_sum([(1, a, b) for a, b in zip(row, col, strict=True)])


def wedge(a: OrdinaryForm, b: OrdinaryForm) -> OrdinaryForm:
    """Exterior product; zero form when the degree leaves [0, n]."""
    return wedge_dot((a,), (b,))


@cache
def _d_table(dim: int, idxs: IndexTuple) -> tuple[tuple[int, int, IndexTuple], ...]:
    """The (axis, sign, merged) of each axis 1..dim whose dx^axis ^ dx^idxs
    survives, in axis order: ``merge_indices((axis,), idxs)`` once per pair."""
    return tuple((axis, *merged) for axis in range(1, dim + 1)
                 if (merged := merge_indices((axis,), idxs)) is not None)


def ext_d(a: OrdinaryForm) -> OrdinaryForm:
    """Exterior derivative: sum_i dx^i ^ (d/dx^i of each component), formed
    once per form and kept in ``a._d``; a signed partial is added to or
    subtracted from its merged index, not negated first."""
    if a._d is None:
        dim = a.dim
        out: dict[IndexTuple, Coefficient] = {}
        for idxs, coeff in a.components.items():
            for axis, sign, key in _d_table(dim, idxs):
                dc = coeff.partial(axis)
                if not dc.is_zero():
                    _add_term(out, key, dc, sign)
        a._d = OrdinaryForm._canonical(dim, a.degree + 1, out)
    return a._d


def _hooks(rho: OrdinaryForm) -> tuple[OrdinaryForm, ...]:
    """i_{d/dx^a} rho for a = 1..n, by selection: the components whose index
    tuple holds a at position pos, with a removed and sign (-1)^pos.  The one
    index-removal rule; every interior product is built on it.  Formed once
    per form and kept in ``rho._hooks``."""
    if rho._hooks is None:
        hooks: list[dict] = [{} for _ in range(rho.dim)]
        for idxs, coeff in rho.components.items():
            for pos, a in enumerate(idxs):
                hooks[a - 1][idxs[:pos] + idxs[pos + 1:]] = -coeff if pos % 2 else coeff
        rho._hooks = tuple(OrdinaryForm._canonical(rho.dim, rho.degree - 1, hook)
                           for hook in hooks)
    return rho._hooks


def interior(v: VectorField, a: OrdinaryForm) -> OrdinaryForm:
    """Left contraction i_v a = sum_r v^r i_{d/dx^r} a: the components of v,
    as 0-forms, dotted with the hooks of a; zero on 0-forms."""
    if v.dim != a.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {a.dim}")
    return wedge_dot(v.component_forms(), _hooks(a))


def lie(v: VectorField, a: OrdinaryForm) -> OrdinaryForm:
    """Lie derivative via the Cartan homotopy formula d i_v + i_v d."""
    return ext_d(interior(v, a)) + interior(v, ext_d(a))


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]^c = v(w^c) - w(v^c) = v^b d_b w^c - w^b d_b v^c, each
    component one signed sum of products."""
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    axes = range(1, v.dim + 1)
    return VectorField([Polynomial.sum_products(
        [(1, vb, wc.partial(b)) for b, vb in zip(axes, v.components)]
        + [(-1, wb, vc.partial(b)) for b, wb in zip(axes, w.components)])
        for vc, wc in zip(v.components, w.components)])


def coordinate_partial(a: OrdinaryForm, axis: int) -> OrdinaryForm:
    """Componentwise d/dx^axis, leaving the basis untouched."""
    return OrdinaryForm._canonical(a.dim, a.degree, {idxs: coeff.partial(axis)
                                                     for idxs, coeff in a.components.items()})


def pullback(phi: Sequence[Polynomial], a: OrdinaryForm) -> OrdinaryForm:
    """Pull back along the polynomial map y -> (phi_1(y), ..., phi_n(y)).

    phi has a.dim entries, each a polynomial in the source coordinates.  The
    pullback of c_I dy^I is (c_I o phi) dphi^{i1} ^ ... ^ dphi^{ip}, each
    Jacobian minor wedged from the one-forms dphi alone (Cauchy-Binet), and
    the whole pullback is one ``wedge_dot`` of the composed coefficients with
    the minors; a 0-form's pullback is its composed coefficient.  The
    coefficients are composed together (``ring.compose_all``), so each power
    phi_i^e is formed once per call.
    """
    if len(phi) != a.dim:
        raise ValueError(f"map has {len(phi)} components, form lives in dim {a.dim}")
    source_dim = phi[0].dim
    if any(p.dim != source_dim for p in phi):
        raise ValueError("map components must share one source dimension")
    if a.is_zero():
        return OrdinaryForm.zero(source_dim, a.degree)
    coeffs = [OrdinaryForm.from_scalar(c) for c in compose_all(list(a.components.values()), phi)]
    if a.degree == 0:
        return coeffs[0]
    dphi = [ext_d(OrdinaryForm.from_scalar(p)) for p in phi]
    minors = [reduce(wedge, [dphi[i - 1] for i in idxs]) for idxs in a.components]
    return wedge_dot(coeffs, minors)


def poincare_antiderivative(a: OrdinaryForm) -> OrdinaryForm:
    """Homotopy inverse of d on the star-shaped chart: for closed a of degree
    p >= 1 returns b with d b = a.

    b = i_E a_w with E = x^k d/dx^k the Euler field and a_w the form a with
    each monomial divided by its scaling weight |monomial| + p; exact because
    coefficients are polynomials.
    """
    if a.degree < 1:
        raise ValueError("antiderivative defined for degree >= 1")
    weighted = {}
    for idxs, coeff in a.components.items():
        if not isinstance(coeff, Polynomial):
            raise TypeError("homotopy inverse needs polynomial coefficients")
        weighted[idxs] = Polynomial(a.dim, {exps: value / (sum(exps) + a.degree)
                                            for exps, value in coeff.terms.items()})
    euler = VectorField([Polynomial.var(a.dim, k) for k in range(1, a.dim + 1)])
    return interior(euler, OrdinaryForm._canonical(a.dim, a.degree, weighted))

