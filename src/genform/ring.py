"""Exact coefficient arithmetic: sparse multivariate polynomials over the
rationals, and their extension by formal exponentials.

A polynomial in n variables x1..xn is stored as one positive common
denominator and a dictionary from packed monomial keys to integer numerators:

    3/2*x1^2*x2 + -1*x3   ->   den 2, {2 + (1 << 16): 3, 1 << 32: -2}

The exponent of x_i sits in bits 16*(i-1) .. 16*i - 1 of the key, so a
product of monomials is the integer sum of their keys.  The top bit of each
field is a guard: exponents run from 0 to ``MAX_EXPONENT`` (2**15 - 1), a
negative or larger exponent is rejected with ValueError when a polynomial is
built, and a product whose exponent would pass the limit raises ValueError
instead of carrying into the next variable's field.

The form is canonical: ``den > 0``, zero numerators are never stored, and
``den`` is coprime with the numerators taken together.  Equality of
canonical forms is therefore plain structural equality, and every algebraic
identity can be checked exactly.  ``Polynomial.terms`` decodes the numerators
into a read-only ``{exponent tuple: Fraction}`` view for the readers that
want coefficients one by one.

Dropping zeros is the constructors' job alone.  Every sparse container here
and downstream (``Polynomial``, ``ExpPoly``, ``OrdinaryForm``,
``SuperFunction``) discards zero entries when it is built, so the operations
accumulate into a plain dict with ``_add_term`` and let cancelled entries sit
there until the result is constructed.  Results of the ring operations go
through ``Polynomial._canonical`` and results of the exterior operations
through ``OrdinaryForm._canonical``: both drop zeros but skip the checks of
the public constructors, which outside input still passes.

An ``ExpPoly`` is a finite sum  sum_i  p_i * exp(q_i)  with polynomial
coefficients p_i and *distinct* polynomial exponents q_i.  Two terms merge only
when their exponents are structurally identical; this syntactic convention is
closed under +, * and partial differentiation, which is all the gluing
constructions downstream require.  Constant parts of q stay inside q, so
r*e^s is representable exactly as the single term (coeff r, exponent s).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections.abc import Mapping
from fractions import Fraction
from typing import Sequence, Union

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


_FIELD_BITS = 16
_FIELD = (1 << _FIELD_BITS) - 1
MAX_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1


@functools.cache
def _guard_bits(dim: int) -> int:
    """The top bit of each of dim exponent fields."""
    return sum((MAX_EXPONENT + 1) << (_FIELD_BITS * i) for i in range(dim))


def _pack(exps: Exponent) -> int:
    key = 0
    for i, e in enumerate(exps):
        if not (isinstance(e, int) and 0 <= e <= MAX_EXPONENT):
            raise ValueError(f"exponent {e!r} in {tuple(exps)} is not an int in "
                             f"0..{MAX_EXPONENT}")
        key |= e << (_FIELD_BITS * i)
    return key


def _unpack(key: int, dim: int) -> Exponent:
    return tuple((key >> (_FIELD_BITS * i)) & _FIELD for i in range(dim))


class _Terms(Mapping):
    """Read-only ``{exponent tuple: Fraction}`` view of a Polynomial's
    numerators, decoded on first access; its length needs no decoding."""

    __slots__ = ("_dim", "_den", "_nums", "_decoded")

    def __init__(self, dim: int, den: int, nums: dict[int, int]):
        self._dim, self._den, self._nums = dim, den, nums
        self._decoded: dict[Exponent, Fraction] | None = None

    def _dict(self) -> dict[Exponent, Fraction]:
        if self._decoded is None:
            self._decoded = {_unpack(key, self._dim): Fraction(num, self._den)
                             for key, num in self._nums.items()}
        return self._decoded

    def __getitem__(self, exps):
        return self._dict()[exps]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self):
        return len(self._nums)

    def items(self):
        # the decoded dict's own view: Mapping's default looks each key up again
        return self._dict().items()


class Polynomial:
    """Immutable sparse polynomial with rational coefficients, stored as
    integer numerators on packed exponent keys over one denominator."""

    __slots__ = ("dim", "den", "_nums", "_terms", "_float_plan", "_hash")

    def __init__(self, dim: int, terms: Mapping[Exponent, Scalar]):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        coeffs: dict[int, Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != dim:
                raise ValueError(f"exponent vector {exps} has length != dim={dim}")
            coeff = Fraction(coeff)
            if coeff != 0:
                coeffs[_pack(exps)] = coeff
        # the lcm of reduced denominators is already coprime with the numerators
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._set(dim, den, {key: c.numerator * (den // c.denominator)
                             for key, c in coeffs.items()})

    def _set(self, dim: int, den: int, nums: dict[int, int]) -> None:
        self.dim = dim
        self.den = den
        self._nums = nums
        self._terms: _Terms | None = None
        self._float_plan: tuple | None = None
        self._hash: int | None = None

    @classmethod
    def _canonical(cls, dim: int, den: int, nums: dict[int, int]) -> "Polynomial":
        """Build from numerators over den > 0: drop zeros, divide out the
        content shared with den."""
        if 0 in nums.values():  # a scan is cheaper than rebuilding every result
            nums = {key: num for key, num in nums.items() if num}
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: num // g for key, num in nums.items()}
        poly = cls.__new__(cls)
        poly._set(dim, den, nums)
        return poly

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The coefficients as a read-only ``{exponent tuple: Fraction}``
        mapping, in the order the terms were produced."""
        if self._terms is None:
            self._terms = _Terms(self.dim, self.den, self._nums)
        return self._terms

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

        Example: ``3/2*x1^2*x2 + -1*x3``.  An exponent above MAX_EXPONENT,
        written or reached by repeated factors, raises ValueError.
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
        return not self._nums

    def is_constant(self) -> bool:
        return all(key == 0 for key in self._nums)

    # -- ring operations ---------------------------------------------------

    def _require_same_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            # bring both numerators over lcm(den, other.den)
            g = math.gcd(self.den, other.den)
            scale, other_scale = other.den // g, self.den // g
            out = (dict(self._nums) if scale == 1
                   else {key: num * scale for key, num in self._nums.items()})
            for key, num in other._nums.items():
                _add_term(out, key, num * other_scale)
            return Polynomial._canonical(self.dim, self.den * scale, out)
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
        return Polynomial._canonical(self.dim, self.den,
                                     {key: -num for key, num in self._nums.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            out: dict[int, int] = {}
            get = out.get
            right = other._nums.items()
            # The accumulate step of _add_term, inlined: one call per term
            # product is what this loop would otherwise spend its time on.
            for k1, n1 in self._nums.items():
                for k2, n2 in right:
                    key = k1 + k2
                    out[key] = get(key, 0) + n1 * n2
            if functools.reduce(operator.or_, out, 0) & _guard_bits(self.dim):
                raise ValueError(f"exponent overflow: a product needs an exponent "
                                 f"above {MAX_EXPONENT}")
            return Polynomial._canonical(self.dim, self.den * other.den, out)
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Polynomial._canonical(self.dim, self.den * s.denominator,
                                         {key: num * s.numerator
                                          for key, num in self._nums.items()})
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
        shift = _FIELD_BITS * (axis - 1)
        unit = 1 << shift
        # lowering one exponent maps the surviving monomials one to one
        return Polynomial._canonical(self.dim, self.den, {
            key - unit: num * e for key, num in self._nums.items()
            if (e := (key >> shift) & _FIELD)})

    def eval_float(self, point: Sequence[float]) -> float:
        """Evaluate in floating point from a plan built on first use: per
        term, the coefficient times the powers in variable order, summed in
        term order (the order the golden oscillator CSVs pin)."""
        if len(point) != self.dim:
            raise ValueError(f"point length {len(point)} != dim {self.dim}")
        if self._float_plan is None:
            # int / int is correctly rounded, so num / den == float(Fraction(num, den))
            self._float_plan = tuple(
                (num / self.den,
                 tuple((i, e) for i in range(self.dim)
                       if (e := (key >> (_FIELD_BITS * i)) & _FIELD)))
                for key, num in self._nums.items())
        total = 0.0
        for value, powers in self._float_plan:
            for i, e in powers:
                value *= float(point[i]) ** e
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
            return (self.dim == other.dim and self.den == other.den
                    and self._nums == other._nums)
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(self.dim, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, self.den, frozenset(self._nums.items())))
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
