"""Exact coefficient arithmetic: sparse multivariate polynomials over the
rationals, and their extension by formal exponentials.

A polynomial in n variables x1..xn is stored as a dictionary mapping exponent
tuples to rational coefficients (``fractions.Fraction``):

    3/2*x1^2*x2 + -1*x3   ->   {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}

Zero coefficients are never stored, so equality of canonical forms is plain
structural equality and every algebraic identity can be checked exactly.

Dropping zeros is the constructors' job alone.  Every sparse container here
and downstream (``Polynomial``, ``ExpPoly``, ``OrdinaryForm``,
``SuperFunction``) discards zero entries when it is built, so the operations
accumulate into a plain dict with ``_add_term`` and let cancelled entries sit
there until the result is constructed.

An ``ExpPoly`` is a finite sum  sum_i  p_i * exp(q_i)  with polynomial
coefficients p_i and *distinct* polynomial exponents q_i.  Two terms merge only
when their exponents are structurally identical; this syntactic convention is
closed under +, * and partial differentiation, which is all the gluing
constructions downstream require.  Constant parts of q stay inside q, so
r*e^s is representable exactly as the single term (coeff r, exponent s).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse ``int`` or ``int/posint``, i.e. ``[+-]?digits(/digits)?`` with
    surrounding whitespace allowed, into a Fraction.  Anything else, a zero
    denominator included, raises ValueError."""
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None or m.group(2) is not None and int(m.group(2)) == 0:
        raise ValueError(f"bad rational {text!r}: expected int or int/posint")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _add_term(out: dict, key, value) -> None:
    """out[key] += value; a zero sum stays until the constructor drops it."""
    acc = out.get(key)
    out[key] = value if acc is None else acc + value


class Polynomial:
    """Immutable sparse polynomial over Fraction coefficients."""

    __slots__ = ("dim", "terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[Exponent, Fraction]):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        clean: dict[Exponent, Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != dim:
                raise ValueError(f"exponent vector {exps} has length != dim={dim}")
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[tuple(int(e) for e in exps)] = coeff
        self.dim = dim
        self.terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def const(cls, dim: int, value: Scalar) -> "Polynomial":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def one(cls, dim: int) -> "Polynomial":
        return cls.const(dim, 1)

    @classmethod
    def var(cls, dim: int, index: int) -> "Polynomial":
        """The coordinate polynomial x_index (1-based index)."""
        if not 1 <= index <= dim:
            raise ValueError(f"variable index {index} out of range 1..{dim}")
        exps = [0] * dim
        exps[index - 1] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    @classmethod
    def parse(cls, dim: int, text: str) -> "Polynomial":
        """Parse the grammar ``rational ('*' var ('^' nat)?)* ('+' term)*``.

        Example: ``3/2*x1^2*x2 + -1*x3``.
        """
        if not isinstance(text, str):
            raise ValueError(f"polynomial must be a string, got {text!r}")
        text = text.strip()
        if not text:
            raise ValueError("empty polynomial string")
        terms: dict[Exponent, Fraction] = {}
        for raw_term in text.split("+"):
            raw_term = raw_term.strip()
            if not raw_term:
                raise ValueError(f"empty term in {text!r}")
            factors = [f.strip() for f in raw_term.split("*")]
            coeff = parse_rational(factors[0])
            exps = [0] * dim
            for factor in factors[1:]:
                m = _TERM_RE.match(factor)
                if not m:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                index = int(m.group(1))
                if not 1 <= index <= dim:
                    raise ValueError(f"variable x{index} out of range for dim {dim}")
                exps[index - 1] += int(m.group(2) or 1)
            _add_term(terms, tuple(exps), coeff)
        return cls(dim, terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    # -- ring operations ---------------------------------------------------

    def _require_same_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            out = dict(self.terms)
            for exps, coeff in other.terms.items():
                _add_term(out, exps, coeff)
            return Polynomial(self.dim, out)
        if isinstance(other, (int, Fraction)):
            return self + Polynomial.const(self.dim, other)
        return NotImplemented

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, (Polynomial, int, Fraction)):
            return self + (-other if isinstance(other, Polynomial) else Fraction(-1) * other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            out: dict[Exponent, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    _add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            return Polynomial(self.dim, out)
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            if s == 0:
                return Polynomial.zero(self.dim)
            return Polynomial(self.dim, {e: c * s for e, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.dim)
        for _ in range(power):
            result = result * self
        return result

    def partial(self, axis: int) -> "Polynomial":
        """Formal partial derivative with respect to x_axis (1-based)."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        pos = axis - 1
        # lowering one exponent maps the surviving monomials one to one
        return Polynomial(self.dim, {
            exps[:pos] + (exps[pos] - 1,) + exps[pos + 1:]: coeff * exps[pos]
            for exps, coeff in self.terms.items() if exps[pos]})

    def eval_float(self, point: Sequence[float]) -> float:
        if len(point) != self.dim:
            raise ValueError(f"point length {len(point)} != dim {self.dim}")
        total = 0.0
        for exps, coeff in self.terms.items():
            value = float(coeff)
            for x, e in zip(point, exps):
                if e:
                    value *= float(x) ** e
            total += value
        return total

    def eval_exact(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at a rational point, exactly."""
        if len(point) != self.dim:
            raise ValueError(f"point length {len(point)} != dim {self.dim}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value *= Fraction(x) ** e
            total += value
        return total

    def compose(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute args[i] for x_{i+1}; all args share one dimension."""
        if len(args) != self.dim:
            raise ValueError(f"need {self.dim} substitution polynomials, got {len(args)}")
        target_dim = args[0].dim
        result = Polynomial.zero(target_dim)
        for exps, coeff in self.terms.items():
            term = Polynomial.const(target_dim, coeff)
            for arg, e in zip(args, exps):
                if e:
                    term = term * arg ** e
            result = result + term
        return result

    # -- equality / hashing / printing -------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.dim == other.dim and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(self.dim, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[exps]
            factors = [format_rational(coeff)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.dim}, {str(self)!r})"


class ExpPoly:
    """Finite sum  p_i * exp(q_i)  of polynomial-coefficient exponential terms.

    Equality is syntactic after merging identical exponents; a Polynomial
    embeds as the single term with q = 0.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Polynomial, Polynomial]):
        clean: dict[Polynomial, Polynomial] = {}
        for q, p in terms.items():
            if q.dim != dim or p.dim != dim:
                raise ValueError("exponent/coefficient dimension mismatch")
            if not p.is_zero():
                clean[q] = p
        self.dim = dim
        self.terms = clean

    @classmethod
    def zero(cls, dim: int) -> "ExpPoly":
        return cls(dim, {})

    @classmethod
    def one(cls, dim: int) -> "ExpPoly":
        return cls.from_poly(Polynomial.one(dim))

    @classmethod
    def from_poly(cls, p: Polynomial) -> "ExpPoly":
        return cls(p.dim, {Polynomial.zero(p.dim): p})

    @classmethod
    def exp(cls, q: Polynomial, coeff: Polynomial | Scalar = 1) -> "ExpPoly":
        """coeff * exp(q)."""
        if not isinstance(coeff, Polynomial):
            coeff = Polynomial.const(q.dim, coeff)
        return cls(q.dim, {q: coeff})

    @staticmethod
    def _coerce(value, dim: int) -> "ExpPoly | None":
        if isinstance(value, ExpPoly):
            return value
        if isinstance(value, Polynomial):
            return ExpPoly.from_poly(value)
        if isinstance(value, (int, Fraction)):
            return ExpPoly.from_poly(Polynomial.const(dim, value))
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def as_poly(self) -> Polynomial:
        """Extract the underlying Polynomial when every exponent is zero."""
        zero_q = Polynomial.zero(self.dim)
        for q in self.terms:
            if q != zero_q:
                raise ValueError(f"{self} has a non-trivial exponential part")
        return self.terms.get(zero_q, zero_q)

    def __add__(self, other):
        other = ExpPoly._coerce(other, self.dim)
        if other is None:
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        out = dict(self.terms)
        for q, p in other.terms.items():
            _add_term(out, q, p)
        return ExpPoly(self.dim, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = ExpPoly._coerce(other, self.dim)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = ExpPoly._coerce(other, self.dim)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return ExpPoly(self.dim, {q: -p for q, p in self.terms.items()})

    def __mul__(self, other):
        other = ExpPoly._coerce(other, self.dim)
        if other is None:
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        out: dict[Polynomial, Polynomial] = {}
        for q1, p1 in self.terms.items():
            for q2, p2 in other.terms.items():
                _add_term(out, q1 + q2, p1 * p2)
        return ExpPoly(self.dim, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def partial(self, axis: int) -> "ExpPoly":
        """d(p e^q) = (dp + p dq) e^q, termwise; the exponents stay distinct."""
        return ExpPoly(self.dim, {q: p.partial(axis) + p * q.partial(axis)
                                  for q, p in self.terms.items()})

    def eval_float(self, point: Sequence[float]) -> float:
        return sum(p.eval_float(point) * math.exp(q.eval_float(point))
                   for q, p in self.terms.items())

    def __eq__(self, other):
        coerced = ExpPoly._coerce(other, self.dim)
        if coerced is None:
            return NotImplemented
        return self.dim == coerced.dim and self.terms == coerced.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for q in sorted(self.terms, key=str):
            p = self.terms[q]
            if q.is_zero():
                parts.append(f"({p})")
            else:
                parts.append(f"({p})*exp({q})")
        return " + ".join(parts)

    def __repr__(self):
        return f"ExpPoly({self.dim}, {str(self)!r})"


Coefficient = Union[Polynomial, ExpPoly]
