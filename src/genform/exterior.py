"""Ordinary exterior calculus on R^n with exact coefficients.

Forms are stored sparsely on the strictly increasing index basis: a p-form is
a map from increasing index tuples (i1 < ... < ip, entries 1..n) to ring
coefficients.  Any p-form with p < 0 or p > n is the zero form.  Signs come
from transposition counting when index tuples merge, so wedge, d, interior
product and Lie derivative are all exact.

Coefficients are normally ``Polynomial``; everything except ``pullback`` and
the homotopy inverse also works verbatim with ``ExpPoly`` coefficients, which
the chart-gluing module relies on.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import cache, reduce
from typing import Callable, Mapping, Sequence

from .ring import Coefficient, Polynomial, Scalar, _add_term

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
    """Exterior form of fixed degree with sparse exact components."""

    __slots__ = ("dim", "degree", "components")

    def __init__(self, dim: int, degree: int, components: Mapping[IndexTuple, Coefficient] | None = None):
        self.dim = dim
        self.degree = degree
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
        validating constructor."""
        form = cls.__new__(cls)
        form.dim = dim
        form.degree = degree
        form.components = ({idxs: c for idxs, c in components.items() if not c.is_zero()}
                           if 0 <= degree <= dim else {})
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

    def __add__(self, other: "OrdinaryForm") -> "OrdinaryForm":
        self._require_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = dict(self.components)
        for idxs, coeff in other.components.items():
            _add_term(out, idxs, coeff)
        return OrdinaryForm._canonical(self.dim, self.degree, out)

    def __sub__(self, other: "OrdinaryForm") -> "OrdinaryForm":
        return self + (-other)

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

    __slots__ = ("dim", "components")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        dim = components[0].dim
        if len(components) != dim or any(c.dim != dim for c in components):
            raise ValueError("component count must equal the coefficient dimension")
        self.dim = dim
        self.components = components

    @classmethod
    def zero(cls, dim: int) -> "VectorField":
        return cls([Polynomial.zero(dim)] * dim)

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "VectorField":
        """The coordinate field d/dx^index."""
        comps = [Polynomial.zero(dim)] * dim
        comps[index - 1] = Polynomial.one(dim)
        return cls(comps)

    def component(self, index: int) -> Polynomial:
        return self.components[index - 1]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.components])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, factor: Polynomial | Scalar) -> "VectorField":
        return VectorField([c * factor for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.components]})"


def transpose(m: Sequence[Sequence]) -> tuple[tuple, ...]:
    """(m^T)_ij = m_ji."""
    return tuple(zip(*m))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], product: Callable) -> tuple[tuple, ...]:
    """Matrix product (a b)_ij = sum_k product(a_ik, b_kj).

    The caller names the entry product: ``operator.mul`` for polynomials,
    ``wedge`` for forms, ``gwedge`` for extended forms.  Sums start from the
    k = 0 term, so no typed zero is needed.
    """
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix product: inner dimensions differ")
    columns = transpose(b)
    return tuple(tuple(reduce(operator.add, map(product, row, col)) for col in columns)
                 for row in a)


class Tensor11:
    """(1,1) tensor field t^a_b, stored as an n x n polynomial matrix."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(row) for row in components)
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("tensor matrix must be square")
        if any(c.dim != dim for row in rows for c in row):
            raise ValueError("entry dimension must match matrix size")
        self.dim = dim
        self.components = rows

    @classmethod
    def zero(cls, dim: int) -> "Tensor11":
        z = Polynomial.zero(dim)
        return cls([[z] * dim for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int, scalar: Polynomial | Scalar = 1) -> "Tensor11":
        if not isinstance(scalar, Polynomial):
            scalar = Polynomial.const(dim, scalar)
        z = Polynomial.zero(dim)
        return cls([[scalar if i == j else z for j in range(dim)] for i in range(dim)])

    def entry(self, up: int, down: int) -> Polynomial:
        """t^up_down with 1-based indices."""
        return self.components[up - 1][down - 1]

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.components for c in row)

    def __add__(self, other: "Tensor11") -> "Tensor11":
        return Tensor11([[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.components, other.components)])

    def __neg__(self) -> "Tensor11":
        return Tensor11([[-c for c in row] for row in self.components])

    def __sub__(self, other: "Tensor11") -> "Tensor11":
        return self + (-other)

    def scale(self, factor: Polynomial | Scalar) -> "Tensor11":
        return Tensor11([[c * factor for c in row] for row in self.components])

    def matmul(self, other: "Tensor11") -> "Tensor11":
        return Tensor11(mat_mul(self.components, other.components, operator.mul))

    def apply(self, v: VectorField) -> VectorField:
        """Contract the down index with a vector field: (t v)^a = t^a_b v^b."""
        comps = []
        for row in self.components:
            acc = Polynomial.zero(self.dim)
            for t, vb in zip(row, v.components):
                acc = acc + t * vb
            comps.append(acc)
        return VectorField(comps)

    def __eq__(self, other):
        if not isinstance(other, Tensor11):
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __repr__(self):
        return f"Tensor11({[[str(c) for c in row] for row in self.components]})"


# -- exterior operations ------------------------------------------------------


def wedge(a: OrdinaryForm, b: OrdinaryForm) -> OrdinaryForm:
    """Exterior product; zero form when the degree leaves [0, n]."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    degree = a.degree + b.degree
    out: dict[IndexTuple, Coefficient] = {}
    for idx_a, ca in a.components.items():
        for idx_b, cb in b.components.items():
            merged = merge_indices(idx_a, idx_b)
            if merged is None:
                continue
            sign, idxs = merged
            coeff = ca * cb
            _add_term(out, idxs, coeff if sign > 0 else -coeff)
    return OrdinaryForm._canonical(a.dim, degree, out)


def ext_d(a: OrdinaryForm) -> OrdinaryForm:
    """Exterior derivative: sum_i dx^i ^ (d/dx^i of each component)."""
    out: dict[IndexTuple, Coefficient] = {}
    for idxs, coeff in a.components.items():
        for axis in range(1, a.dim + 1):
            dc = coeff.partial(axis)
            if dc.is_zero():
                continue
            merged = merge_indices((axis,), idxs)
            if merged is None:
                continue
            sign, key = merged
            _add_term(out, key, dc if sign > 0 else -dc)
    return OrdinaryForm._canonical(a.dim, a.degree + 1, out)


def interior(v: VectorField, a: OrdinaryForm) -> OrdinaryForm:
    """Left contraction i_v a; zero on 0-forms."""
    if v.dim != a.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {a.dim}")
    out: dict[IndexTuple, Coefficient] = {}
    for idxs, coeff in a.components.items():
        for pos, idx in enumerate(idxs):
            comp = v.components[idx - 1]
            if comp.is_zero():
                continue
            term = comp * coeff
            _add_term(out, idxs[:pos] + idxs[pos + 1:], -term if pos % 2 else term)
    return OrdinaryForm._canonical(a.dim, a.degree - 1, out)


def lie(v: VectorField, a: OrdinaryForm) -> OrdinaryForm:
    """Lie derivative via the Cartan homotopy formula d i_v + i_v d."""
    return ext_d(interior(v, a)) + interior(v, ext_d(a))


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]^c = v^b d_b w^c - w^b d_b v^c."""
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    comps = []
    for c in range(1, v.dim + 1):
        acc = Polynomial.zero(v.dim)
        for b in range(1, v.dim + 1):
            acc = acc + v.component(b) * w.component(c).partial(b)
            acc = acc - w.component(b) * v.component(c).partial(b)
        comps.append(acc)
    return VectorField(comps)


def coordinate_partial(a: OrdinaryForm, axis: int) -> OrdinaryForm:
    """Componentwise d/dx^axis, leaving the basis untouched."""
    out = {}
    for idxs, coeff in a.components.items():
        dc = coeff.partial(axis)
        if not dc.is_zero():
            out[idxs] = dc
    return OrdinaryForm(a.dim, a.degree, out)


def pullback(phi: Sequence[Polynomial], a: OrdinaryForm) -> OrdinaryForm:
    """Pull back along the polynomial map y -> (phi_1(y), ..., phi_n(y)).

    phi has a.dim entries, each a polynomial in the source coordinates.
    """
    if len(phi) != a.dim:
        raise ValueError(f"map has {len(phi)} components, form lives in dim {a.dim}")
    source_dim = phi[0].dim
    if any(p.dim != source_dim for p in phi):
        raise ValueError("map components must share one source dimension")
    # dphi[i] = sum_a d(phi^i)/dy^a dy^a
    dphi = []
    for p in phi:
        comps = {}
        for axis in range(1, source_dim + 1):
            dp = p.partial(axis)
            if not dp.is_zero():
                comps[(axis,)] = dp
        dphi.append(OrdinaryForm(source_dim, 1, comps))
    result = OrdinaryForm.zero(source_dim, a.degree)
    for idxs, coeff in a.components.items():
        term = OrdinaryForm.from_scalar(coeff.compose(list(phi)))
        for i in idxs:
            term = wedge(term, dphi[i - 1])
        result = result + term
    return result


def poincare_antiderivative(a: OrdinaryForm) -> OrdinaryForm:
    """Homotopy inverse of d on the star-shaped chart: for closed a of degree
    p >= 1 returns b with d b = a.

    Splits a into scaling-homogeneous pieces and applies i_E / (|monomial| + p)
    with E the Euler field; exact because coefficients are polynomials.
    """
    if a.degree < 1:
        raise ValueError("antiderivative defined for degree >= 1")
    result = OrdinaryForm.zero(a.dim, a.degree - 1)
    for idxs, coeff in a.components.items():
        if not isinstance(coeff, Polynomial):
            raise TypeError("homotopy inverse needs polynomial coefficients")
        for exps, value in coeff.terms.items():
            weight = sum(exps) + a.degree
            mono = Polynomial(a.dim, {exps: value / weight})
            # i_E (mono dx^I) with E = x^k d/dx^k
            for pos, idx in enumerate(idxs):
                piece = mono * Polynomial.var(a.dim, idx)
                if pos % 2:
                    piece = -piece
                key = idxs[:pos] + idxs[pos + 1:]
                result = result + OrdinaryForm(a.dim, a.degree - 1, {key: piece})
    return result


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
