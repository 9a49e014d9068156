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
    OrdinaryForm,
    VectorField,
    ext_d,
    interior,
    lie,
    pullback,
    wedge_sum,
)
from .ring import Polynomial, Scalar


class GenForm:
    """alpha + alpha' m with exact ordinary-form parts.  A form is a value:
    ``gd`` keeps its result in ``_d``, formed on first use."""

    __slots__ = ("dim", "epsilon", "degree", "body", "soul", "_d")

    def __init__(self, dim: int, epsilon: Scalar, degree: int,
                 body: OrdinaryForm | None = None, soul: OrdinaryForm | None = None):
        self.dim = dim
        self.epsilon = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
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
        self._d: GenForm | None = None

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
        form._d = None
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

    def _require_compatible(self, other, error: type[ValueError] = ValueError) -> None:
        """``error`` (a ValueError) unless other has this dim and epsilon,
        the only attributes read of either side; the message names the one
        that differs.  ``GenVectorField`` and ``SuperFunction`` share this
        check, and ``connection`` and ``hamiltonian`` call it with
        ``ConstructionError`` and ``InputError``."""
        if self.dim != other.dim:
            raise error(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.epsilon is not other.epsilon and self.epsilon != other.epsilon:
            raise error(f"epsilon mismatch: {self.epsilon} vs {other.epsilon}")

    def _plus(self, other: "GenForm", sign: int) -> "GenForm":
        """self + sign * other, sign = +1 or -1: the one path of ``+`` and
        ``-``, partwise by ``OrdinaryForm._plus``."""
        self._require_compatible(other)
        if self.is_zero():
            return other if sign > 0 else -other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return GenForm._canonical(self.dim, self.epsilon, self.degree,
                                  self.body._plus(other.body, sign),
                                  self.soul._plus(other.soul, sign))

    def __add__(self, other: "GenForm") -> "GenForm":
        return self._plus(other, 1)

    def __sub__(self, other: "GenForm") -> "GenForm":
        return self._plus(other, -1)

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


def gwedge_sum(triples: Sequence[tuple[int, GenForm, GenForm]]) -> GenForm:
    """sum of s * a b over at least one (s, a, b) triple, s = +1 or -1, of
    the products

        (alpha + alpha'm)(beta + beta'm) = alpha beta + (alpha beta' + (-1)^q alpha' beta) m,

    q = deg beta: two ``exterior.wedge_sum`` calls, one over the body pairs
    (s, alpha, beta) and one over the soul pairs (s, alpha, beta') and
    (+-s, alpha', beta), the latter with sign -s when b has odd degree.  Each
    body and soul coefficient is accumulated once.  The result is the left
    fold of + over the signed products, zero results of the last term's
    degree included.  ValueError on a dimension or epsilon mismatch, when two
    terms whose components merge have different degrees, and when a nonzero
    body and a nonzero soul disagree in degree.
    """
    if not triples:
        raise ValueError("gwedge_sum needs at least one (s, a, b) triple")
    first = triples[0][1]
    body_triples, soul_triples = [], []
    for s, a, b in triples:
        first._require_compatible(a)
        first._require_compatible(b)
        body_triples.append((s, a.body, b.body))
        soul_triples += [(s, a.body, b.soul), (-s if b.degree % 2 else s, a.soul, b.body)]
    body, soul = wedge_sum(body_triples), wedge_sum(soul_triples)
    if not (body.is_zero() or soul.is_zero() or soul.degree == body.degree + 1):
        raise ValueError(f"degree mismatch: {body.degree} vs {soul.degree - 1}")
    _, a, b = triples[-1]
    degree = (body.degree if not body.is_zero() else soul.degree - 1 if not soul.is_zero()
              else a.degree + b.degree)
    # a zero part has the nominal degree of its own last pair; it takes the sum's
    return GenForm._canonical(first.dim, first.epsilon, degree,
                              OrdinaryForm.zero(first.dim, degree) if body.is_zero() else body,
                              OrdinaryForm.zero(first.dim, degree + 1) if soul.is_zero() else soul)


def gwedge_dot(row: Sequence[GenForm], col: Sequence[GenForm]) -> GenForm:
    """sum_k row[k] col[k]: the all-plus ``gwedge_sum``; ValueError also on
    rows of different length."""
    return gwedge_sum([(1, a, b) for a, b in zip(row, col, strict=True)])


def gwedge(a: GenForm, b: GenForm) -> GenForm:
    """Product (alpha + alpha'm)(beta + beta'm)
    = alpha beta + (alpha beta' + (-1)^q alpha' beta) m,  q = deg b."""
    return gwedge_dot((a,), (b,))


def gd(a: GenForm) -> GenForm:
    """Exterior derivative:
    body' = d(body) + (-1)^(p+1) eps soul,  soul' = d(soul),
    formed once per form and kept in ``a._d``."""
    if a._d is None:
        body = ext_d(a.body)
        if a.epsilon:
            body = body._plus(a.soul.scale(a.epsilon), -1 if (a.degree + 1) % 2 else 1)
        a._d = GenForm._canonical(a.dim, a.epsilon, a.degree + 1, body, ext_d(a.soul))
    return a._d


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

