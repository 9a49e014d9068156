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
accumulate into a plain dict and let cancelled entries sit there until the
result is constructed.  Results of the ring operations go through
``Polynomial._canonical`` and results of the exterior operations through
``OrdinaryForm._canonical``: both drop zeros but skip the checks of the
public constructors, which outside input still passes.

One kernel does every polynomial product: ``Polynomial.sum_products`` sums
s*a*b over (s, a, b) triples with s = +-1 over the lcm of the pairs'
denominators and canonicalizes once.  ``a * b`` is its one-triple case.  A
row-times-column sum of forms (``exterior.wedge_dot`` and its relatives)
hands each output coefficient's triples to one kernel call, so no
intermediate product is ever built as a ``Polynomial`` of its own.  A size rule
sends small calls through a schoolbook loop into one integer dict, and large
calls through Kronecker substitution on fibers, dense in x1 and x2 and sparse
in the rest: one big-integer multiply per pair of fibers, in 32- or 64-bit slots.
Each operand's extent and fiber encodings are computed once and kept on it.
Both give the same den and numerators; only the schoolbook loop fixes the
term order of a * b, which ``eval_float`` sums in.

Floating-point evaluation reads one plan per polynomial, built on first use:
``Polynomial.float_plan`` lists each term's float coefficient and its
(variable, exponent) powers in term order.  ``eval_float`` evaluates it, and
``hamiltonian`` writes the plans of h's partials out as the source of one RK4
step, compiled once per h, in the same arithmetic.

An ``ExpPoly`` is a finite sum  sum_i  p_i * exp(q_i)  with polynomial
coefficients p_i and *distinct* polynomial exponents q_i.  Two terms merge only
when their exponents are structurally identical; this syntactic convention is
closed under +, * and partial differentiation, which is all the gluing
constructions downstream require.  Constant parts of q stay inside q, so
r*e^s is representable exactly as the single term (coeff r, exponent s).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from array import array
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


_OVERFLOW = f"exponent overflow: a product needs an exponent above {MAX_EXPONENT}"

# The size rule of ``Polynomial.sum_products``.  Below the minimum the encoding costs more
# than the loop it replaces; past the slot cap a fiber's multiplies grow faster than the loop.
_FIBER_MIN_PRODUCTS = 1000
_FIBER_MAX_SLOTS = 4096
# slot width in bits -> unsigned array typecode
_SLOT_CODES = {array(code).itemsize * 8: code for code in "QLI"}
_LOW_BITS = 2 * _FIELD_BITS  # the fields of x1, x2 in a key


def _extent(p: "Polynomial") -> tuple[list[int], int, dict]:
    """p's kernel data, computed on first use and kept in ``p._kernel``: the
    largest exponent of each variable in p, its largest |numerator|, and the
    dict that ``_fibers`` fills with p's encodings by (stride, width)."""
    if p._kernel is None:
        keys, nums, top = p._nums.keys(), p._nums.values(), _FIELD_BITS * (p.dim - 1)
        # a key mod 2**(16 * i) keeps the fields of x_1..x_i, so the largest such
        # value holds the largest exponent of x_i in its top field
        exps = [max(map(operator.mod, keys, itertools.repeat(1 << (shift + _FIELD_BITS)))) >> shift
                for shift in range(0, top, _FIELD_BITS)]
        p._kernel = exps + [max(keys) >> top], max(max(nums), -min(nums)), {}
    return p._kernel


def _fibers(p: "Polynomial", stride: int, width: int) -> dict[int, int]:
    """``_encode(p, stride, width)``, encoded on first use and kept with p's
    extent for p's lifetime."""
    encoded = (p._kernel or _extent(p))[2]
    fibers = encoded.get((stride, width))
    if fibers is None:
        fibers = encoded[stride, width] = _encode(p, stride, width)
    return fibers


def _encode(p: "Polynomial", stride: int, width: int) -> dict[int, int]:
    """p split by its exponents of x3..xn into fibers: {the key of x3..xn:
    sum num * 2**(width * (e1 + stride * e2)) over the fiber's terms}.  A fiber
    spans p's own rows of x2, stride slots each, so the integer depends on p,
    stride and width alone."""
    unsigned, order, half = _SLOT_CODES[width], sys.byteorder, 1 << (width - 1)
    slots = stride * ((*_extent(p)[0], 0)[1] + 1)
    # each fiber's slots in flat, each holding num + half so that it is
    # non-negative; the offset, half in each of p's slots, takes it out again
    highs = map(operator.rshift, p._nums, itertools.repeat(_LOW_BITS))
    starts = dict(zip(dict.fromkeys(highs), itertools.count(0, slots)))
    flat = array(unsigned, [half]) * (slots * len(starts))
    for key, num in p._nums.items():
        flat[starts[key >> _LOW_BITS] + (key & _FIELD)
             + stride * ((key >> _FIELD_BITS) & _FIELD)] = num + half
    offset = int.from_bytes(array(unsigned, [half]) * slots, order)
    return {high << _LOW_BITS: int.from_bytes(flat[start:start + slots], order) - offset
            for high, start in starts.items()}


def _fiber_sum(terms: Sequence[tuple[int, "Polynomial", "Polynomial"]], den: int,
               box: list[int], width: int) -> dict[int, int]:
    """The numerators over den of sum s * a * b, dense in x1 and x2 and
    sparse in the rest: each operand's fibers (``_fibers``, encoded once per
    polynomial, stride and width and kept) hold a width-bit slot per monomial
    x1^e1 x2^e2 at e1 + stride * e2, with stride the x1 extent of the box plus
    one, so one integer multiply per pair of fibers adds up all their term
    products without a carry between rows.  Every slot of the sum must lie
    within +-2**(width - 1); an offset of half a slot in each slot of the box
    makes each non-negative for decoding."""
    unsigned, order, size = _SLOT_CODES[width], sys.byteorder, width // 8
    top1, top2 = (*box, 0)[:2]
    stride = top1 + 1
    sums: dict[int, int] = {}
    get = sums.get
    for s, a, b in terms:
        if a._nums and b._nums:
            scale, right = s * (den // (a.den * b.den)), _fibers(b, stride, width).items()
            for r1, v1 in _fibers(a, stride, width).items():
                v1 *= scale
                for r2, v2 in right:
                    sums[r1 + r2] = get(r1 + r2, 0) + v1 * v2
    slot_keys = [e1 + (e2 << _FIELD_BITS) for e2 in range(top2 + 1) for e1 in range(stride)]
    slots, half = len(slot_keys), 1 << (width - 1)
    offset = int.from_bytes(array(unsigned, [half]) * slots, order)
    out: dict[int, int] = {}
    for rest, total in sums.items():
        if total:  # a fiber that cancels to zero writes nothing
            values = array(unsigned, (total + offset).to_bytes(size * slots, order))
            keep = list(map(operator.ne, values, itertools.repeat(half)))
            out.update(zip(
                map(operator.add, itertools.compress(slot_keys, keep), itertools.repeat(rest)),
                map(operator.sub, itertools.compress(values, keep), itertools.repeat(half))))
    return out


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

    __slots__ = ("dim", "den", "_nums", "_terms", "_float_plan", "_kernel", "_hash")

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
        self._kernel: tuple | None = None
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
            if not other._nums:
                return self
            if not self._nums:
                return other
            # bring both numerators over lcm(den, other.den)
            g = math.gcd(self.den, other.den)
            scale, other_scale = other.den // g, self.den // g
            out = (dict(self._nums) if scale == 1
                   else {key: num * scale for key, num in self._nums.items()})
            get = out.get
            for key, num in other._nums.items():
                out[key] = get(key, 0) + num * other_scale
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

    @staticmethod
    def sum_products(terms: Sequence[tuple[int, "Polynomial", "Polynomial"]]) -> "Polynomial":
        """sum of s * a * b over at least one (s, a, b) triple, s = +1 or -1,
        all polynomials of one dimension.

        The numerators are summed over the lcm of the pairs' denominators; a
        pair with a zero operand adds nothing, and the result is canonicalized
        once.  A product whose exponent would pass MAX_EXPONENT raises
        ValueError on either of two branches, chosen by a size rule:

        - Schoolbook: every term product accumulates into one integer dict,
          a's terms in the outer loop and b's in the inner one.  This fixes
          the term order of a * b, the one-triple case, which ``eval_float``
          sums in.
        - Fiber (``_fiber_sum``): when the call has at least
          _FIBER_MIN_PRODUCTS term products, the bound on any output
          numerator is below 2**63 (32-bit slots below 2**31, else 64-bit),
          and the output box of x1 and x2 (the largest exponents of x1 and
          x2 that a term product writes) has at most _FIBER_MAX_SLOTS
          monomials.  The den and numerators are those of the schoolbook
          branch; only their order differs, so the term order above holds
          below the rule.  Each polynomial computes its extent (``_extent``)
          and each of its fiber encodings (``_fibers``, one per stride of
          x1 and slot width) once, and keeps them for its lifetime: one
          connection trial at dim 4 peaks at about 137 MB instead of 109 MB.
        """
        if not terms:
            raise ValueError("sum_products needs at least one (s, a, b) triple")
        dim = terms[0][1].dim
        den, products = 1, 0
        for _, a, b in terms:
            if a.dim != dim or b.dim != dim:
                raise ValueError(f"dimension mismatch: {dim} vs "
                                 f"{b.dim if a.dim == dim else a.dim}")
            if a._nums and b._nums:
                den = math.lcm(den, a.den * b.den)
                products += len(a._nums) * len(b._nums)
        if products >= _FIBER_MIN_PRODUCTS:
            # box[i]: the largest exponent of x_i that any term product writes;
            # bound: no output numerator exceeds it, since at most
            # min(len a, len b) term products of a pair land on one monomial
            box, bound = [0] * dim, 0
            for _, a, b in terms:
                if a._nums and b._nums:
                    ea, ma, _ = a._kernel or _extent(a)
                    eb, mb, _ = b._kernel or _extent(b)
                    box = list(map(max, box, map(operator.add, ea, eb)))
                    bound += (den // (a.den * b.den)) * ma * mb * min(len(a._nums), len(b._nums))
            if max(box) > MAX_EXPONENT:
                raise ValueError(_OVERFLOW)
            if math.prod(e + 1 for e in box[:2]) <= _FIBER_MAX_SLOTS and bound < 1 << 63:
                return Polynomial._canonical(
                    dim, den, _fiber_sum(terms, den, box, 32 if bound < 1 << 31 else 64))
        out: dict[int, int] = {}
        get = out.get
        for s, a, b in terms:
            if not (a._nums and b._nums):
                continue
            scale = s * (den // (a.den * b.den))
            right = b._nums.items()
            # The accumulate step inlined: a call per term product is what
            # this loop would otherwise spend its time on.
            for k1, n1 in a._nums.items():
                n1 *= scale
                for k2, n2 in right:
                    key = k1 + k2
                    out[key] = get(key, 0) + n1 * n2
        if functools.reduce(operator.or_, out, 0) & _guard_bits(dim):
            raise ValueError(_OVERFLOW)
        return Polynomial._canonical(dim, den, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial.sum_products(((1, self, other),))
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

    @property
    def float_plan(self) -> tuple[tuple[float, tuple[tuple[int, int], ...]], ...]:
        """The read-only plan ``eval_float`` evaluates, built on first use and
        kept: one ``(coefficient, powers)`` pair per term in term order, the
        coefficient num / den as a float and ``powers`` the (0-based variable
        index, exponent) pairs of the term's nonzero exponents in variable
        order.  The value at a point x is the sum, from 0.0 in plan order, of
        each coefficient multiplied left to right by x[i] ** e over its
        powers; a reader that keeps this arithmetic gets ``eval_float``'s
        floats bit for bit."""
        if self._float_plan is None:
            # int / int is correctly rounded, so num / den == float(Fraction(num, den))
            self._float_plan = tuple(
                (num / self.den,
                 tuple((i, e) for i in range(self.dim)
                       if (e := (key >> (_FIELD_BITS * i)) & _FIELD)))
                for key, num in self._nums.items())
        return self._float_plan

    def eval_float(self, point: Sequence[float]) -> float:
        """Evaluate in floating point from ``float_plan``: per term, the
        coefficient times the powers in variable order, summed in term order
        (the order the golden oscillator CSVs pin)."""
        if len(point) != self.dim:
            raise ValueError(f"point length {len(point)} != dim {self.dim}")
        total = 0.0
        for value, powers in self.float_plan:
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


def poly_dot(row: Sequence[Polynomial], col: Sequence[Polynomial]) -> Polynomial:
    """sum_k row[k] * col[k] in one kernel call: the row-times-column
    function of polynomial matrices for ``exterior.mat_mul``."""
    return Polynomial.sum_products([(1, a, b) for a, b in zip(row, col, strict=True)])


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

    @staticmethod
    def sum_products(terms: Sequence[tuple[int, Coefficient, Coefficient]]) -> Coefficient:
        """sum of s * a * b over at least one (s, a, b) triple, s = +1 or -1,
        of Polynomial or ExpPoly operands, by their own ``*`` and ``+``."""
        total = None
        for s, a, b in terms:
            product = a * b if s > 0 else -(a * b)
            total = product if total is None else total + product
        if total is None:
            raise ValueError("sum_products needs at least one (s, a, b) triple")
        return total

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
