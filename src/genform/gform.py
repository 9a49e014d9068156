"""Degree-extended forms: pairs (body, soul) = alpha + alpha' m, where m is
the degree -1 generator with m^2 = 0, alpha m = (-1)^p m alpha and d m equal
to a fixed real constant epsilon.

A degree-p element stores an ordinary p-form body and a (p+1)-form soul, with
p in [-1, n].  Every operation requires its operands to share both dimension
and epsilon; epsilon rides on each value precisely so that mixed-context bugs
surface as errors instead of silent sign problems.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exterior import (
    IndexTuple,
    OrdinaryForm,
    VectorField,
    _add_pairs,
    _common_degree,
    _json_dim,
    _json_field,
    _sum_groups,
    _Triple,
    ext_d,
    form_from_json,
    form_to_json,
    interior,
    lie,
    pullback,
)
from .ring import Polynomial, Scalar, format_rational, parse_rational


class GenForm:
    """alpha + alpha' m with exact ordinary-form parts."""

    __slots__ = ("dim", "epsilon", "degree", "body", "soul")

    def __init__(self, dim: int, epsilon: Scalar, degree: int,
                 body: OrdinaryForm | None = None, soul: OrdinaryForm | None = None):
        self.dim = dim
        self.epsilon = Fraction(epsilon)
        self.degree = degree
        body = body if body is not None else OrdinaryForm.zero(dim, degree)
        soul = soul if soul is not None else OrdinaryForm.zero(dim, degree + 1)
        if body.dim != dim or soul.dim != dim:
            raise ValueError("part dimension mismatch")
        if not body.is_zero() and body.degree != degree:
            raise ValueError(f"body degree {body.degree} != {degree}")
        if not soul.is_zero() and soul.degree != degree + 1:
            raise ValueError(f"soul degree {soul.degree} != {degree + 1}")
        self.body = body
        self.soul = soul

    @classmethod
    def _canonical(cls, dim: int, epsilon: Fraction, degree: int,
                   body: OrdinaryForm, soul: OrdinaryForm) -> "GenForm":
        """Build an operation's result from parts of the right dimension and
        degree by construction and an epsilon that is already a Fraction: no
        conversion and no part checks.  Outside input goes through the
        validating constructor."""
        form = cls.__new__(cls)
        form.dim = dim
        form.epsilon = epsilon
        form.degree = degree
        form.body = body
        form.soul = soul
        return form

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, epsilon: Scalar, degree: int = 0) -> "GenForm":
        return cls(dim, epsilon, degree)

    @classmethod
    def from_ordinary(cls, form: OrdinaryForm, epsilon: Scalar) -> "GenForm":
        return cls(form.dim, epsilon, form.degree, body=form)

    @classmethod
    def from_scalar(cls, p: Polynomial, epsilon: Scalar) -> "GenForm":
        return cls.from_ordinary(OrdinaryForm.from_scalar(p), epsilon)

    @classmethod
    def one(cls, dim: int, epsilon: Scalar) -> "GenForm":
        return cls.from_ordinary(OrdinaryForm.constant(dim, 1), epsilon)

    @classmethod
    def minus_one(cls, dim: int, epsilon: Scalar) -> "GenForm":
        """The basis element m itself: degree -1, soul = 1."""
        return cls(dim, epsilon, -1, soul=OrdinaryForm.constant(dim, 1))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.body.is_zero() and self.soul.is_zero()

    def _require_compatible(self, other: "GenForm") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.epsilon != other.epsilon:
            raise ValueError(f"epsilon mismatch: {self.epsilon} vs {other.epsilon}")

    def __add__(self, other: "GenForm") -> "GenForm":
        self._require_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return GenForm._canonical(self.dim, self.epsilon, self.degree,
                                  self.body + other.body, self.soul + other.soul)

    def __sub__(self, other: "GenForm") -> "GenForm":
        return self + (-other)

    def __neg__(self) -> "GenForm":
        return GenForm._canonical(self.dim, self.epsilon, self.degree, -self.body, -self.soul)

    def scale(self, factor: Polynomial | Scalar) -> "GenForm":
        return GenForm._canonical(self.dim, self.epsilon, self.degree,
                                  self.body.scale(factor), self.soul.scale(factor))

    def __eq__(self, other):
        if not isinstance(other, GenForm):
            return NotImplemented
        if self.dim != other.dim or self.epsilon != other.epsilon:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return (self.degree == other.degree
                and self.body == other.body and self.soul == other.soul)

    def __hash__(self):
        raise TypeError("GenForm is not hashable")

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if not self.body.is_zero():
            parts.append(str(self.body))
        if not self.soul.is_zero():
            parts.append(f"[{self.soul}] m")
        return " + ".join(parts)

    def __repr__(self):
        return f"GenForm(degree={self.degree}, eps={self.epsilon}, {str(self)})"


# -- algebra -------------------------------------------------------------------


def gwedge_dot(row: Sequence[GenForm], col: Sequence[GenForm]) -> GenForm:
    """sum_k row[k] col[k] of the products

        (alpha + alpha'm)(beta + beta'm) = alpha beta + (alpha beta' + (-1)^q alpha' beta) m,

    q = deg beta, with each body and soul coefficient accumulated once.  The
    result is the left fold of + over the products, zero results included
    (see ``exterior.wedge_dot``).  ValueError on a dimension or epsilon
    mismatch, on rows of different length, and when two terms whose
    components merge have different degrees.
    """
    first = row[0]
    body: dict[IndexTuple, list[_Triple]] = {}
    soul: dict[IndexTuple, list[_Triple]] = {}
    degree = None
    for a, b in zip(row, col, strict=True):
        first._require_compatible(a)
        first._require_compatible(b)
        merged = _add_pairs(body, 1, a.body, b.body)
        merged |= _add_pairs(soul, 1, a.body, b.soul)
        merged |= _add_pairs(soul, -1 if b.degree % 2 else 1, a.soul, b.body)
        if merged:
            degree = _common_degree(degree, a.degree + b.degree)
    body_components, soul_components = _sum_groups(body), _sum_groups(soul)
    if not (body_components or soul_components):
        degree = row[-1].degree + col[-1].degree
    return GenForm._canonical(first.dim, first.epsilon, degree,
                              OrdinaryForm._canonical(first.dim, degree, body_components),
                              OrdinaryForm._canonical(first.dim, degree + 1, soul_components))


def gwedge(a: GenForm, b: GenForm) -> GenForm:
    """Product (alpha + alpha'm)(beta + beta'm)
    = alpha beta + (alpha beta' + (-1)^q alpha' beta) m,  q = deg b."""
    return gwedge_dot((a,), (b,))


def gd(a: GenForm) -> GenForm:
    """Exterior derivative:
    body' = d(body) + (-1)^(p+1) eps soul,  soul' = d(soul)."""
    body = ext_d(a.body)
    if a.epsilon != 0:
        eps_term = a.soul.scale(a.epsilon)
        if (a.degree + 1) % 2:
            eps_term = -eps_term
        body = body + eps_term
    return GenForm._canonical(a.dim, a.epsilon, a.degree + 1, body, ext_d(a.soul))


def gpullback(phi: Sequence[Polynomial], a: GenForm) -> GenForm:
    """Pull back both parts along a polynomial map; m is preserved.
    ValueError from ``pullback`` for a map of the wrong length."""
    body = pullback(phi, a.body)
    return GenForm(body.dim, a.epsilon, a.degree, body, pullback(phi, a.soul))


def ginterior_ordinary(v: VectorField, a: GenForm) -> GenForm:
    """i_v applied partwise; annihilates degree -1 elements."""
    if v.dim != a.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {a.dim}")
    return GenForm(a.dim, a.epsilon, a.degree - 1,
                   interior(v, a.body), interior(v, a.soul))


def glie_ordinary(v: VectorField, a: GenForm) -> GenForm:
    """Lie derivative via the homotopy formula i_v d + d i_v."""
    return ginterior_ordinary(v, gd(a)) + gd(ginterior_ordinary(v, a))


def glie_componentwise(v: VectorField, a: GenForm) -> GenForm:
    """Independent evaluation path: Lie derivative applied to body and soul
    separately (degree preserved)."""
    return GenForm(a.dim, a.epsilon, a.degree, lie(v, a.body), lie(v, a.soul))


# -- JSON encoding -------------------------------------------------------------


def genform_to_json(a: GenForm) -> dict:
    return {
        "dim": a.dim,
        "epsilon": format_rational(a.epsilon),
        "degree": a.degree,
        "body": form_to_json(a.body),
        "soul": form_to_json(a.soul),
    }


def genform_from_json(data: dict) -> GenForm:
    return GenForm(
        _json_dim(data),
        parse_rational(_json_field(data, "epsilon", str)),
        _json_field(data, "degree", int),
        form_from_json(_json_field(data, "body", dict)),
        form_from_json(_json_field(data, "soul", dict)),
    )
