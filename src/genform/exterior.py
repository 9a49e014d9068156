"""Ordinary exterior calculus on R^n with exact coefficients.

Forms are stored sparsely on the strictly increasing index basis: a p-form is
a map from increasing index tuples (i1 < ... < ip, entries 1..n) to ring
coefficients.  Any p-form with p < 0 or p > n is the zero form.  Signs come
from transposition counting when index tuples merge, so wedge, d, interior
product and Lie derivative are all exact.

Coefficients are normally ``Polynomial``; everything except ``pullback`` and
the homotopy inverse also works verbatim with ``ExpPoly`` coefficients, which
the chart-gluing module relies on.

Forms and fields are values, and keep what is derived from them, like the
partials of a ``Polynomial``: ``ext_d(a)`` and the hooks ``_hooks(a)`` are
formed once per form and kept on it (``_d``, ``_hooks``), and
``VectorField.component_forms`` and ``Tensor11.row_forms`` once per field or
tensor.  An identity trial that differentiates or contracts the same form
again reads the kept result.  ``a - b`` is one signed sum
(``OrdinaryForm._plus``): a component of b is subtracted from its partner in
a, and negated only where a has none, and ``ext_d`` subtracts a partial of
negative merge sign the same way.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping, Sequence

from .ring import Coefficient, ExpPoly, Polynomial, Scalar, _add_term, compose_all, poly_dot

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
        if components and 0 <= degree <= dim:
            for idxs, coeff in components.items():
                idxs = tuple(idxs)
                if len(idxs) != degree:
                    raise ValueError(f"index tuple {idxs} has length != degree {degree}")
                if any(not 1 <= i <= dim for i in idxs):
                    raise ValueError(f"index tuple {idxs} out of range 1..{dim}")
                if any(idxs[k] >= idxs[k + 1] for k in range(len(idxs) - 1)):
                    raise ValueError(f"index tuple {idxs} not strictly increasing")
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

    def __hash__(self):
        raise TypeError("OrdinaryForm is not hashable")

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

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "VectorField":
        """The coordinate field d/dx^index."""
        comps = [Polynomial.zero(dim)] * dim
        comps[index - 1] = Polynomial.one(dim)
        return cls(comps)

    def component_forms(self) -> tuple[OrdinaryForm, ...]:
        """The components v^a as 0-forms, the operands of a contraction,
        formed on first use and kept on the field."""
        if self._forms is None:
            self._forms = tuple(OrdinaryForm._canonical(self.dim, 0, {(): c})
                                for c in self.components)
        return self._forms

    def component(self, index: int) -> Polynomial:
        return self.components[index - 1]

    def derivative(self, p: Polynomial) -> Polynomial:
        """The directional derivative v(p) = v^b d_b p."""
        return poly_dot(self.components, [p.partial(b) for b in range(1, self.dim + 1)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def scale(self, factor: Polynomial | Scalar) -> "VectorField":
        return VectorField([c * factor for c in self.components])

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


def mat_add(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(tuple(-x for x in row) for row in a)


def mat_is_zero(a: Sequence[Sequence]) -> bool:
    return all(x.is_zero() for row in a for x in row)


def transpose(m: Sequence[Sequence]) -> tuple[tuple, ...]:
    """(m^T)_ij = m_ji."""
    return tuple(zip(*m))


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


class Tensor11:
    """(1,1) tensor field t^a_b: a shape-checked n x n polynomial matrix
    whose arithmetic is the matrix helpers above."""

    __slots__ = ("dim", "components", "_rows")

    def __init__(self, components: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(row) for row in components)
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("tensor matrix must be square")
        if any(c.dim != dim for row in rows for c in row):
            raise ValueError("entry dimension must match matrix size")
        self.dim = dim
        self.components = rows
        self._rows: tuple[OrdinaryForm, ...] | None = None

    @classmethod
    def zero(cls, dim: int) -> "Tensor11":
        return cls.identity(dim, 0)

    @classmethod
    def identity(cls, dim: int, scalar: Polynomial | Scalar = 1) -> "Tensor11":
        if not isinstance(scalar, Polynomial):
            scalar = Polynomial.const(dim, scalar)
        return cls(mat_identity(dim, scalar, Polynomial.zero(dim)))

    @classmethod
    def from_row_forms(cls, rows: Sequence[OrdinaryForm]) -> "Tensor11":
        """Inverse of ``row_forms``: t^a_b is the dx^b coefficient of rows[a]."""
        dim = len(rows)
        if any(not row.is_zero() and row.degree != 1 for row in rows):
            raise ValueError("tensor rows must be one-forms")
        zero = Polynomial.zero(dim)
        return cls([[row.components.get((b,), zero) for b in range(1, dim + 1)] for row in rows])

    def row_forms(self) -> tuple[OrdinaryForm, ...]:
        """theta^a = t^a_b dx^b, one one-form per up index, formed on first
        use and kept on the tensor."""
        if self._rows is None:
            self._rows = tuple(
                OrdinaryForm._canonical(self.dim, 1, {(b,): c for b, c in enumerate(row, 1)})
                for row in self.components)
        return self._rows

    def entry(self, up: int, down: int) -> Polynomial:
        """t^up_down with 1-based indices."""
        return self.components[up - 1][down - 1]

    def is_zero(self) -> bool:
        return mat_is_zero(self.components)

    def __add__(self, other: "Tensor11") -> "Tensor11":
        return Tensor11(mat_add(self.components, other.components))

    def __neg__(self) -> "Tensor11":
        return Tensor11(mat_neg(self.components))

    def __sub__(self, other: "Tensor11") -> "Tensor11":
        return Tensor11(mat_sub(self.components, other.components))

    def scale(self, factor: Polynomial | Scalar) -> "Tensor11":
        return Tensor11([[c * factor for c in row] for row in self.components])

    def matmul(self, other: "Tensor11") -> "Tensor11":
        return Tensor11(mat_mul(self.components, other.components, poly_dot))

    def apply(self, v: VectorField) -> VectorField:
        """Contract the down index with a vector field: (t v)^a = t^a_b v^b."""
        column = transpose((v.components,))
        return VectorField(transpose(mat_mul(self.components, column, poly_dot))[0])

    def __eq__(self, other):
        if not isinstance(other, Tensor11):
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __repr__(self):
        return f"Tensor11({[[str(c) for c in row] for row in self.components]})"


# -- exterior operations ------------------------------------------------------


_Triple = tuple[int, Coefficient, Coefficient]


def _sum_products(triples: Sequence[_Triple]) -> Coefficient:
    """sum of s * a * b over (s, a, b) triples: the integer kernel
    ``Polynomial.sum_products`` when every operand is a Polynomial, else
    ``ExpPoly.sum_products``."""
    for _, a, b in triples:
        if type(a) is not Polynomial or type(b) is not Polynomial:
            return ExpPoly.sum_products(triples)
    return Polynomial.sum_products(triples)


def _add_pairs(groups: dict[IndexTuple, list[_Triple]], sign: int,
              a: OrdinaryForm, b: OrdinaryForm) -> bool:
    """Append the triple (sign * merge sign, ca, cb) of every component pair
    of a ^ b whose index tuples merge to the group of the merged tuple;
    True when any pair merged."""
    merged_any = False
    b_items = b.components.items()
    for idx_a, ca in a.components.items():
        for idx_b, cb in b_items:
            merged = merge_indices(idx_a, idx_b)
            if merged is None:
                continue
            merge_sign, idxs = merged
            groups.setdefault(idxs, []).append((sign * merge_sign, ca, cb))
            merged_any = True
    return merged_any


def _sum_groups(groups: Mapping[IndexTuple, Sequence[_Triple]]) -> dict[IndexTuple, Coefficient]:
    """{index tuple: sum of its group}, zero sums left out."""
    return {idxs: c for idxs, triples in groups.items()
            if not (c := _sum_products(triples)).is_zero()}


def _common_degree(degree: int | None, term_degree: int) -> int:
    """The degree shared by the nonzero terms of a sum so far; ValueError
    when a term of another degree joins."""
    if degree is not None and degree != term_degree:
        raise ValueError(f"degree mismatch: {degree} vs {term_degree}")
    return term_degree


def wedge_sum(triples: Sequence[tuple[int, OrdinaryForm, OrdinaryForm]]) -> OrdinaryForm:
    """sum of s * a ^ b over at least one (s, a, b) triple, s = +1 or -1,
    each output coefficient accumulated once: the signed coefficient pairs of
    every triple are grouped by merged index tuple and each group is summed
    by one kernel call.

    The result is the left fold of + over the signed wedges: of the terms'
    common degree when nonzero, of the last term's degree when zero.
    ValueError on a dimension mismatch and when two terms whose components
    merge have different degrees.
    """
    if not triples:
        raise ValueError("wedge_sum needs at least one (s, a, b) triple")
    dim = triples[0][1].dim
    groups: dict[IndexTuple, list[_Triple]] = {}
    degree = None
    for s, a, b in triples:
        if a.dim != dim or b.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {b.dim if a.dim == dim else a.dim}")
        if _add_pairs(groups, s, a, b):
            degree = _common_degree(degree, a.degree + b.degree)
    components = _sum_groups(groups)
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
    coefficients are composed together (``ring.compose_all``), so each power
    phi_i^e is formed once per call.
    """
    if len(phi) != a.dim:
        raise ValueError(f"map has {len(phi)} components, form lives in dim {a.dim}")
    source_dim = phi[0].dim
    if any(p.dim != source_dim for p in phi):
        raise ValueError("map components must share one source dimension")
    dphi = [ext_d(OrdinaryForm.from_scalar(p)) for p in phi]
    result = OrdinaryForm.zero(source_dim, a.degree)
    for idxs, coeff in zip(a.components, compose_all(list(a.components.values()), phi)):
        term = OrdinaryForm.from_scalar(coeff)
        for i in idxs:
            term = wedge(term, dphi[i - 1])
        result = result + term
    return result


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


# -- JSON encoding -------------------------------------------------------------


def form_to_json(a: OrdinaryForm) -> dict:
    comps = {}
    for idxs in sorted(a.components):
        coeff = a.components[idxs]
        if not isinstance(coeff, Polynomial):
            raise TypeError("only polynomial-coefficient forms serialize to JSON")
        comps[json.dumps(list(idxs), separators=(",", ":"))] = str(coeff)
    return {"dim": a.dim, "degree": a.degree, "components": comps}


_REQUIRED = object()
_JSON_TYPES = {int: "integer", str: "string", list: "array", dict: "object"}


def _json_field(data, key: str, kind: type, default=_REQUIRED):
    """``data[key]`` of a JSON object, checked to be a ``kind`` (a JSON
    integer is an ``int`` but not a boolean).  ValueError when data is not an
    object, a key without default is missing or the value has another type."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {data!r}")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key!r} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _json_dim(data) -> int:
    """The positive integer ``data["dim"]``."""
    dim = _json_field(data, "dim", int)
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return dim


def _json_rows(dim: int, data) -> list:
    """The rows of a JSON dim x dim matrix; ValueError for any other shape."""
    if not (isinstance(data, list) and len(data) == dim
            and all(isinstance(row, list) and len(row) == dim for row in data)):
        raise ValueError(f"matrix must be {dim} x {dim}")
    return data


def form_from_json(data: dict) -> OrdinaryForm:
    dim = _json_dim(data)
    degree = _json_field(data, "degree", int)
    comps = {}
    for key, text in _json_field(data, "components", dict).items():
        idxs = json.loads(key)
        if not (isinstance(idxs, list)
                and all(isinstance(i, int) and not isinstance(i, bool) for i in idxs)):
            raise ValueError(f"component key {key!r} is not an array of integers")
        comps[tuple(idxs)] = Polynomial.parse(dim, text)
    if comps and not 0 <= degree <= dim:
        raise ValueError(f"a {degree}-form on R^{dim} has no components")
    return OrdinaryForm(dim, degree, comps)
