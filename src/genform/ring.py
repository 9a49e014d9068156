"""Exact coefficient arithmetic: sparse multivariate polynomials over the
rationals, and their extension by formal exponentials.

A polynomial in n variables x1..xn is stored as one positive common
denominator and a dictionary from packed monomial keys to integer numerators:

    3/2*x1^2*x2 + -1*x3   ->   den 2, {2 + (1 << 16): 3, 1 << 32: -2}

The exponent of x_i sits in bits 16*(i-1) .. 16*i - 1 of the key, so a
product of monomials is the integer sum of their keys.  The top bit of each
field is a guard: exponents run from 0 to ``MAX_EXPONENT`` (2**15 - 1), a
negative or larger exponent is rejected with InputError when a polynomial is
built, and so is a product whose exponent would pass the limit, instead of
carrying into the next variable's field.

The form is canonical: ``den > 0``, zero numerators are never stored, and
``den`` is coprime with the numerators taken together.  Equality of
canonical forms is therefore plain structural equality, and every algebraic
identity can be checked exactly.  The text boundary works on that form too:
``Polynomial.parse`` reads each term's numerator, denominator and exponents as
ints and packs them in the step that ``Polynomial.__init__`` uses, and
``str`` prints each coefficient as num/den in lowest terms, so neither builds
a ``Fraction``.  ``Polynomial.terms`` decodes the numerators afresh on each
access into a read-only ``{exponent tuple: Fraction}`` mapping, for the few
readers that want coefficients one by one.

Dropping zeros is the constructors' job alone.  Every sparse container here
and downstream (``Polynomial``, ``ExpPoly``, ``OrdinaryForm``,
``SuperFunction``) discards zero entries when it is built, so the operations
accumulate into a plain dict and let cancelled entries sit there until the
result is constructed.  Results of the ring operations go through
``Polynomial._canonical`` and results of the exterior operations through
``OrdinaryForm._canonical``: both drop zeros but skip the checks of the
public constructors, which outside input still passes.

One kernel does every polynomial product, and so multiplies every pair of
form coefficients: ``Polynomial.sum_products`` sums s*a*b over (s, a, b)
triples with s = +-1 over the lcm of the pairs' denominators and
canonicalizes once.  ``a * b`` is its one-triple case.  A
signed sum of products of forms (``exterior.wedge_sum`` and its all-plus
case, the row-times-column dot) hands each output coefficient's triples to
one kernel call, and so does every composite operation built on it:
``gform.gwedge_sum`` is two ``wedge_sum`` calls, one over the body pairs and
one over the soul pairs; ``exterior.pullback`` is one dot of the composed
coefficients with the Jacobian minors; the brackets, covariant derivatives
and non-metricities pass all their products, signs included, as one sum per
output entry.  So no intermediate product is built as a ``Polynomial`` of its
own, nor negated and added.  A size rule
sends small calls through a schoolbook loop into one integer dict, and large
calls through Kronecker substitution on fibers, dense in x1 and x2 and sparse
in the rest: one big-integer multiply per pair of fibers, in 32- or 64-bit slots.
Each operand's extent and fiber encodings are computed once and kept on it.
Both give the same den and numerators.

A polynomial keeps its partial derivatives the same way: ``partial(axis)``
forms d/dx_axis on first use and keeps it in ``_partials``, one entry per
axis, for the polynomial's lifetime.  The composite operations that
differentiate the same coefficients again and again (``ext_d``, the
brackets and Jacobians, the superspace derivatives) each call ``partial``
and so differentiate a coefficient once per axis.  The layers above follow
the same rule: a form keeps its ``d`` and its hooks, a vector field its
component 0-forms and a (1,1) tensor its row one-forms (see ``exterior``),
and an extended form its ``gd``.

``+`` and ``-`` are one signed sum: ``a - b`` is ``a._plus(b, -1)`` in
``Polynomial``, ``ExpPoly``, ``OrdinaryForm``, ``GenForm`` and
``SuperFunction``.  The sign rides on b's scale factor here, and on
``_add_term`` in the containers, which subtracts where a term of b meets one
of a and negates only a term of b that a lacks.  No negated copy of b is
built.

Substitution is built on the same kernel.  ``compose_all(polys, args)``
forms each power args[i]**e that the polys need once, by one product from
the power below it, and sums each composite in one kernel call, a term
c * x^e entering as the triple (1, c times all its powers but the last, the
last power).  ``exterior.pullback`` composes all of a form's coefficients in
one call, so each power of the map's components is formed once per pullback;
a composite then meets its Jacobian minor once, in the pullback's one dot,
and a 0-form's one composite is its pullback.

An ``ExpPoly`` is a finite sum  sum_i  p_i * exp(q_i)  with polynomial
coefficients p_i and *distinct* polynomial exponents q_i.  Two terms merge only
when their exponents are structurally identical; this syntactic convention is
closed under +, * and partial differentiation, which is all the gluing
constructions downstream require.  Constant parts of q stay inside q, so
r*e^s is representable exactly as the single term (coeff r, exponent s).
``ExpPoly``'s ``*`` serves ``OrdinaryForm.scale`` alone, where the cover
constructions scale a form by theta; it is not a kernel of the form
products, which hand every coefficient group to ``Polynomial.sum_products``,
so a form with ``ExpPoly`` coefficients is added, differentiated, scaled and
hooked but never wedged.  An ``ExpPoly`` is not hashable.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
import types
from array import array
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


class InputError(ValueError):
    """Malformed outside input, or input that breaks a stated hypothesis of a
    construction: the command line exits 2 on it alone."""


class ConstructionError(ValueError):
    """A construction or check that failed on input that met its hypotheses:
    the command line exits 1 on it alone, with its report."""


def _ratio(text: str) -> tuple[int, int]:
    """The numerator and positive denominator, as written, of ``int`` or
    ``int/posint``, i.e. ``[+-]?digits(/digits)?`` with surrounding whitespace
    allowed.  Anything else, a zero denominator included, raises InputError."""
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None or m.group(2) is not None and int(m.group(2)) == 0:
        raise InputError(f"bad rational {text!r}: expected int or int/posint")
    return int(m.group(1)), int(m.group(2) or 1)


def parse_rational(text: str) -> Fraction:
    """``_ratio``'s int or int/posint as a Fraction."""
    return Fraction(*_ratio(text))


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _add_term(out: dict, key, value, sign: int = 1) -> None:
    """out[key] += sign * value, sign = +1 or -1: a value is negated only
    when it lands on an empty key, and a zero sum stays until the
    constructor drops it."""
    acc = out.get(key)
    if acc is None:
        out[key] = value if sign > 0 else -value
    else:
        out[key] = acc + value if sign > 0 else acc - value


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
            raise InputError(f"exponent {e!r} in {tuple(exps)} is not an int in "
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
    unsigned, half, size = _SLOT_CODES[width], 1 << (width - 1), width // 8
    slots = stride * ((*_extent(p)[0], 0)[1] + 1)
    # each fiber's slots in flat, each holding num + half so that it is
    # non-negative; the offset, half in each of p's slots, takes it out again
    highs = map(operator.rshift, p._nums, itertools.repeat(_LOW_BITS))
    starts = dict(zip(dict.fromkeys(highs), itertools.count(0, slots)))
    flat = array(unsigned, [half]) * (slots * len(starts))
    for key, num in p._nums.items():
        flat[starts[key >> _LOW_BITS] + (key & _FIELD)
             + stride * ((key >> _FIELD_BITS) & _FIELD)] = num + half
    if sys.byteorder == "big":  # slot 0 must be the lowest word of the integer
        flat.byteswap()
    offset = int.from_bytes(half.to_bytes(size, "little") * slots, "little")
    return {high << _LOW_BITS: int.from_bytes(flat[start:start + slots], "little") - offset
            for high, start in starts.items()}


def _fiber_sum(terms: Sequence[tuple[int, "Polynomial", "Polynomial"]], den: int,
               box: list[int], width: int) -> dict[int, int]:
    """The numerators over den of sum s * a * b over triples of nonzero
    operands, dense in x1 and x2 and sparse in the rest: each operand's
    fibers (``_fibers``, encoded once per polynomial, stride and width and
    kept) hold a width-bit slot per monomial x1^e1 x2^e2 at e1 + stride * e2,
    with stride the x1 extent of the box plus one, so one integer multiply
    per pair of fibers adds up all their term products without a carry
    between rows.  Every slot of the sum must lie
    within +-2**(width - 1); an offset of half a slot in each slot of the box
    makes each non-negative for decoding."""
    unsigned, size = _SLOT_CODES[width], width // 8
    top1, top2 = (*box, 0)[:2]
    stride = top1 + 1
    sums: dict[int, int] = {}
    get = sums.get
    for s, a, b in terms:
        scale, right = s * (den // (a.den * b.den)), _fibers(b, stride, width).items()
        for r1, v1 in _fibers(a, stride, width).items():
            v1 *= scale
            for r2, v2 in right:
                sums[r1 + r2] = get(r1 + r2, 0) + v1 * v2
    slot_keys = [e1 + (e2 << _FIELD_BITS) for e2 in range(top2 + 1) for e1 in range(stride)]
    slots, half = len(slot_keys), 1 << (width - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * slots, "little")
    out: dict[int, int] = {}
    for rest, total in sums.items():
        if total:  # a fiber that cancels to zero writes nothing
            values = array(unsigned, (total + offset).to_bytes(size * slots, "little"))
            if sys.byteorder == "big":
                values.byteswap()
            keep = list(map(operator.ne, values, itertools.repeat(half)))
            out.update(zip(
                map(operator.add, itertools.compress(slot_keys, keep), itertools.repeat(rest)),
                map(operator.sub, itertools.compress(values, keep), itertools.repeat(half))))
    return out


class Polynomial:
    """Immutable sparse polynomial with rational coefficients, stored as
    integer numerators on packed exponent keys over one denominator."""

    __slots__ = ("dim", "den", "_nums", "_kernel", "_partials")

    def __init__(self, dim: int, terms: Mapping[Exponent, Scalar]):
        def rationals():
            for exps, coeff in terms.items():
                if len(exps) != dim:
                    raise InputError(f"exponent vector {exps} has length != dim={dim}")
                if not isinstance(coeff, (int, Fraction)):
                    coeff = Fraction(coeff)
                yield exps, coeff.numerator, coeff.denominator

        poly = Polynomial._packed(dim, rationals())
        self.dim, self.den, self._nums = dim, poly.den, poly._nums
        self._kernel = self._partials = None

    @classmethod
    def _packed(cls, dim: int, terms: Iterable[tuple[Exponent, int, int]]) -> "Polynomial":
        """Build from (exponents, num, den > 0) terms of distinct exponents, the
        one packing step of ``__init__`` and ``parse``: drop the zero terms,
        pack the exponents of the others (InputError past MAX_EXPONENT), bring
        their numerators over the lcm of their dens and canonicalize."""
        if dim < 1:
            raise InputError(f"dim must be positive, got {dim}")
        live = [(_pack(exps), num, den) for exps, num, den in terms if num]
        lcm = math.lcm(*(den for _, _, den in live))
        return cls._canonical(dim, lcm, {key: num * (lcm // den) for key, num, den in live})

    @classmethod
    def _canonical(cls, dim: int, den: int, nums: dict[int, int]) -> "Polynomial":
        """Build from numerators over den > 0: drop zeros, divide out the
        content shared with den (none when den is 1)."""
        if 0 in nums.values():  # a scan is cheaper than rebuilding every result
            nums = {key: num for key, num in nums.items() if num}
        if den != 1:
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {key: num // g for key, num in nums.items()}
        return cls._of(dim, den, nums)

    @classmethod
    def _of(cls, dim: int, den: int, nums: dict[int, int]) -> "Polynomial":
        """Wrap numerators that are already canonical over den."""
        poly = cls.__new__(cls)
        poly.dim = dim
        poly.den = den
        poly._nums = nums
        poly._kernel = poly._partials = None
        return poly

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The coefficients as a read-only ``{exponent tuple: Fraction}``
        mapping, in the order the terms were produced, decoded afresh on each
        access."""
        return types.MappingProxyType({_unpack(key, self.dim): Fraction(num, self.den)
                                       for key, num in self._nums.items()})

    # -- constructors ------------------------------------------------------

    # ``zero``, ``const`` and ``one`` of an int or Fraction value are already
    # canonical: a reduced numerator at key 0 over its denominator, or nothing.
    # Any other value, and dim < 1, goes through the validating constructor.

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls._of(dim, 1, {}) if dim >= 1 else cls(dim, {})

    @classmethod
    def const(cls, dim: int, value: Scalar) -> "Polynomial":
        if dim >= 1 and isinstance(value, (int, Fraction)):
            return cls._of(dim, value.denominator, {0: value.numerator} if value else {})
        return cls(dim, {(0,) * dim: value})

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
        return cls(dim, {tuple(exps): 1})

    @classmethod
    def parse(cls, dim: int, text: str) -> "Polynomial":
        """Parse the grammar ``rational ('*' var ('^' nat)?)* ('+' term)*``.

        Example: ``3/2*x1^2*x2 + -1*x3``.  An exponent above MAX_EXPONENT,
        written or reached by repeated factors, raises InputError.
        """
        if not isinstance(text, str):
            raise InputError(f"polynomial must be a string, got {text!r}")
        text = text.strip()
        if not text:
            raise InputError("empty polynomial string")
        terms: dict[Exponent, tuple[int, int]] = {}
        for raw_term in text.split("+"):
            raw_term = raw_term.strip()
            if not raw_term:
                raise InputError(f"empty term in {text!r}")
            factors = [f.strip() for f in raw_term.split("*")]
            num, den = _ratio(factors[0])
            exps = [0] * dim
            for factor in factors[1:]:
                m = _TERM_RE.match(factor)
                if not m:
                    raise InputError(f"bad factor {factor!r} in {text!r}")
                index = int(m.group(1))
                if not 1 <= index <= dim:
                    raise InputError(f"variable x{index} out of range for dim {dim}")
                exps[index - 1] += int(m.group(2) or 1)
            key = tuple(exps)
            num0, den0 = terms.get(key, (0, 1))  # a repeated monomial adds to its sum
            terms[key] = num0 * den + num * den0, den0 * den
        return cls._packed(dim, ((exps, num, den) for exps, (num, den) in terms.items()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    # -- ring operations ---------------------------------------------------

    def _require_same_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _plus(self, other, sign: int):
        """self + sign * other, sign = +1 or -1: the one path of ``+`` and
        ``-``.  The sign rides on other's scale factor, so a difference
        builds no negated copy of other."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        if not other._nums:
            return self
        if not self._nums:
            return other if sign > 0 else -other
        # bring both numerators over lcm(den, other.den)
        g = math.gcd(self.den, other.den)
        scale, other_scale = other.den // g, sign * (self.den // g)
        out = (dict(self._nums) if scale == 1
               else {key: num * scale for key, num in self._nums.items()})
        get = out.get
        for key, num in other._nums.items():
            out[key] = get(key, 0) + num * other_scale
        return Polynomial._canonical(self.dim, self.den * scale, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        # negating every numerator keeps the form canonical
        return Polynomial._of(self.dim, self.den, {key: -num for key, num in self._nums.items()})

    @staticmethod
    def sum_products(terms: Sequence[tuple[int, "Polynomial", "Polynomial"]]) -> "Polynomial":
        """sum of s * a * b over at least one (s, a, b) triple, s = +1 or -1,
        all polynomials of one dimension.

        The numerators are summed over the lcm of the pairs' denominators; a
        pair with a zero operand adds nothing, and the result is canonicalized
        once.  A product whose exponent would pass MAX_EXPONENT raises
        InputError on either of two branches, chosen by a size rule:

        - Schoolbook: every term product accumulates into one integer dict.
        - Fiber (``_fiber_sum``): when the call has at least
          _FIBER_MIN_PRODUCTS term products, the bound on any output
          numerator is below 2**63 (32-bit slots below 2**31, else 64-bit),
          and the output box of x1 and x2 (the largest exponents of x1 and
          x2 that a term product writes) has at most _FIBER_MAX_SLOTS
          monomials.  The den and numerators are those of the schoolbook
          branch.  Each polynomial computes its extent (``_extent``)
          and each of its fiber encodings (``_fibers``, one per stride of
          x1 and slot width) once, and keeps them for its lifetime: one
          connection trial at dim 4 (seed 0, eps = 1) peaks at about 97 MB
          instead of 85 MB (max RSS, measured 2026-10-19).
        """
        if not terms:
            raise ValueError("sum_products needs at least one (s, a, b) triple")
        dim = terms[0][1].dim
        den, products, live = 1, 0, []
        for term in terms:
            _, a, b = term
            if a.dim != dim or b.dim != dim:
                raise ValueError(f"dimension mismatch: {dim} vs "
                                 f"{b.dim if a.dim == dim else a.dim}")
            if a._nums and b._nums:
                live.append(term)
                if den % (pair_den := a.den * b.den):
                    den = math.lcm(den, pair_den)
                products += len(a._nums) * len(b._nums)
        if products >= _FIBER_MIN_PRODUCTS:
            # box[i]: the largest exponent of x_i that any term product writes;
            # bound: no output numerator exceeds it, since at most
            # min(len a, len b) term products of a pair land on one monomial
            box, bound = [0] * dim, 0
            for _, a, b in live:
                ea, ma, _ = a._kernel or _extent(a)
                eb, mb, _ = b._kernel or _extent(b)
                box = list(map(max, box, map(operator.add, ea, eb)))
                bound += (den // (a.den * b.den)) * ma * mb * min(len(a._nums), len(b._nums))
            if max(box) > MAX_EXPONENT:
                raise InputError(_OVERFLOW)
            if math.prod(e + 1 for e in box[:2]) <= _FIBER_MAX_SLOTS and bound < 1 << 63:
                return Polynomial._canonical(
                    dim, den, _fiber_sum(live, den, box, 32 if bound < 1 << 31 else 64))
        out: dict[int, int] = {}
        get = out.get
        for s, a, b in live:
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
            raise InputError(_OVERFLOW)
        return Polynomial._canonical(dim, den, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial.sum_products(((1, self, other),))
        if isinstance(other, (int, Fraction)):
            num_s, den_s = other.numerator, other.denominator
            return Polynomial._canonical(self.dim, self.den * den_s,
                                         {key: num * num_s for key, num in self._nums.items()})
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def partial(self, axis: int) -> "Polynomial":
        """Formal partial derivative with respect to x_axis (1-based), formed
        on first use and kept in ``_partials`` for the polynomial's lifetime."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        partials = self._partials
        if partials is None:
            partials = self._partials = [None] * self.dim
        elif (dp := partials[axis - 1]) is not None:
            return dp
        shift = _FIELD_BITS * (axis - 1)
        unit = 1 << shift
        # lowering one exponent maps the surviving monomials one to one, and
        # num * e is never zero: over den 1 the result is already canonical
        nums = {key - unit: num * e for key, num in self._nums.items()
                if (e := (key >> shift) & _FIELD)}
        build = Polynomial._of if self.den == 1 else Polynomial._canonical
        dp = partials[axis - 1] = build(self.dim, self.den, nums)
        return dp

    # -- equality / hashing / printing -------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.dim == other.dim and self.den == other.den
                    and self._nums == other._nums)
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(self.dim, other)
        return NotImplemented

    def __hash__(self):
        if self._nums.keys() <= {0}:  # a constant equals its value, so hashes as it
            return hash(Fraction(self._nums.get(0, 0), self.den))
        return hash((self.dim, self.den, frozenset(self._nums.items())))

    def __str__(self):
        if not self._nums:
            return "0"
        den, parts = self.den, []
        for exps, num in sorted(((_unpack(key, self.dim), num) for key, num in self._nums.items()),
                                key=lambda term: (sum(term[0]), term[0]), reverse=True):
            g = math.gcd(num, den)
            factors = [str(num // g) if g == den else f"{num // g}/{den // g}"]
            factors += [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.dim}, {str(self)!r})"


def poly_dot(row: Sequence[Polynomial], col: Sequence[Polynomial]) -> Polynomial:
    """sum_k row[k] * col[k] in one kernel call: the row-times-column
    function of polynomial matrices for ``exterior.mat_mul``."""
    return Polynomial.sum_products([(1, a, b) for a, b in zip(row, col, strict=True)])


def compose_all(polys: Sequence[Polynomial], args: Sequence[Polynomial]) -> list[Polynomial]:
    """Each p of polys with args[i] substituted for x_{i+1}, all args of one
    dimension.

    Each power args[i]**e that a term of any p needs is formed once, by one
    product from the power below it.  Each p(args) is one kernel call: a term
    c * x^e enters as the triple (1, c times all of its powers but the last,
    the last power), a constant term as (1, c, 1).
    """
    dim = len(args)
    for p in polys:
        if p.dim != dim:
            raise ValueError(f"need {p.dim} substitution polynomials, got {dim}")
    target = args[0].dim
    one = Polynomial._of(target, 1, {0: 1})
    terms = [[(_unpack(key, dim), num) for key, num in p._nums.items()] for p in polys]
    tops = [0] * dim
    for exps, _ in itertools.chain.from_iterable(terms):
        tops = list(map(max, tops, exps))
    powers = []
    for arg, top in zip(args, tops):
        row = [one, arg]
        while len(row) <= top:
            row.append(row[-1] * arg)
        powers.append(row)
    out = []
    for p, p_terms in zip(polys, terms):
        triples = []
        for exps, num in p_terms:
            factors = [row[e] for row, e in zip(powers, exps) if e] or [one]
            left = Polynomial._canonical(target, p.den, {0: num})
            for factor in factors[:-1]:
                left = left * factor
            triples.append((1, left, factors[-1]))
        out.append(Polynomial.sum_products(triples) if triples else Polynomial.zero(target))
    return out


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

    def _plus(self, other, sign: int):
        """self + sign * other, sign = +1 or -1, termwise by ``_add_term``."""
        other = ExpPoly._coerce(other, self.dim)
        if other is None:
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        out = dict(self.terms)
        for q, p in other.terms.items():
            _add_term(out, q, p, sign)
        return ExpPoly(self.dim, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __radd__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = ExpPoly._coerce(other, self.dim)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

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

    def partial(self, axis: int) -> "ExpPoly":
        """d(p e^q) = (dp + p dq) e^q, termwise; the exponents stay distinct."""
        return ExpPoly(self.dim, {q: p.partial(axis) + p * q.partial(axis)
                                  for q, p in self.terms.items()})

    def __eq__(self, other):
        coerced = ExpPoly._coerce(other, self.dim)
        if coerced is None:
            return NotImplemented
        return self.dim == coerced.dim and self.terms == coerced.terms

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
