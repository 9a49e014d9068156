"""Grassmann-function representation of degree-extended forms.

A form corresponds to a polynomial in anticommuting generators z1..zn (one per
coordinate differential) plus one extra odd generator mu, with ordinary
polynomial coefficients:

    body component  rho_I dx^I   <->   rho_I z^I
    soul component  sig_J dx^J   <->   sig_J z^J mu

Terms are keyed by generator bitmask: bit i-1 is z^i, bit n is mu, and the
generator order z1 < ... < zn < mu fixes every sign.  The exterior derivative
is the odd operator  z^a d/dx^a + eps d/dmu, the interior product by a field
with components (v^r + v^r_s dx^s m) is the odd operator
(v^r + v^r_s z^s mu) d/dz^r, and Lie derivatives are their anticommutators.

Odd partial derivatives act from the LEFT: d/dg picks up the parity of the
generators preceding g in the sorted monomial.  This convention is validated
globally by the round-trip suite: each operator computed here, conjugated by
to_super/from_super, must reproduce its direct form-level counterpart exactly.

All operations here are computed on raw bitmask data, independent of the
form-level sign bookkeeping, which is what makes this module useful as a
cross-check oracle for everything else.  The product and each operator group
their pieces by output mask: every piece is a blade coefficient times a
SuperFunction, and each of its term products joins the group of its mask as
one (sign, coeff, c) triple, the sign from blade_mul.  Each mask's sum is then
one ``Polynomial.sum_products`` call, and the SuperFunction is made once at
the end.  A difference f - g is one signed sum, which negates only the terms
of g that f lacks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .exterior import OrdinaryForm
from .gform import GenForm
from .ring import Polynomial, Scalar, _add_term


def blade_mul(mask_a: int, mask_b: int) -> tuple[int, int] | None:
    """Multiply generator monomials: returns (sign, mask) or None on overlap."""
    if mask_a & mask_b:
        return None
    sign = 1
    rest = mask_a
    while rest:
        bit = rest & (-rest)
        # this generator of mask_a must pass every smaller generator of mask_b
        if bin(mask_b & (bit - 1)).count("1") % 2:
            sign = -sign
        rest ^= bit
    return sign, mask_a | mask_b


def left_derivative_sign(mask: int, bit_index: int) -> int:
    """Sign of the left derivative d/dg on a sorted monomial containing g."""
    below = mask & ((1 << bit_index) - 1)
    return -1 if bin(below).count("1") % 2 else 1


class SuperFunction:
    """Grassmann polynomial with Polynomial coefficients, keyed by bitmask."""

    __slots__ = ("dim", "epsilon", "terms")

    def __init__(self, dim: int, epsilon: Scalar, terms: Mapping[int, Polynomial] | None = None):
        self.dim = dim
        self.epsilon = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
        clean: dict[int, Polynomial] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask >> (dim + 1):
                    raise ValueError(f"mask {mask:b} uses generators beyond mu")
                if not coeff.is_zero():
                    clean[mask] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    _require_compatible = GenForm._require_compatible

    def _plus(self, other: "SuperFunction", sign: int) -> "SuperFunction":
        """self + sign * other, sign = +1 or -1: the one path of ``+`` and
        ``-``, termwise by ``_add_term``."""
        self._require_compatible(other)
        out = dict(self.terms)
        for mask, coeff in other.terms.items():
            _add_term(out, mask, coeff, sign)
        return SuperFunction(self.dim, self.epsilon, out)

    def __add__(self, other: "SuperFunction") -> "SuperFunction":
        return self._plus(other, 1)

    def __sub__(self, other: "SuperFunction") -> "SuperFunction":
        return self._plus(other, -1)

    def mul(self, other: "SuperFunction") -> "SuperFunction":
        """Graded-commutative product with transposition-counted signs."""
        self._require_compatible(other)
        groups: _Groups = {}
        for mask, coeff in self.terms.items():
            _add_blade_product(groups, mask, coeff, other)
        return _sum_groups(self.dim, self.epsilon, groups)

    def odd_derivative(self, bit_index: int) -> "SuperFunction":
        """Left derivative with respect to the generator at bit_index."""
        bit = 1 << bit_index
        return SuperFunction(self.dim, self.epsilon, {
            mask ^ bit: -c if left_derivative_sign(mask, bit_index) < 0 else c
            for mask, c in self.terms.items() if mask & bit})

    def coordinate_partial(self, axis: int) -> "SuperFunction":
        return SuperFunction(self.dim, self.epsilon,
                             {mask: c.partial(axis) for mask, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, SuperFunction):
            return NotImplemented
        return (self.dim == other.dim and self.epsilon == other.epsilon
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms):
            gens = [f"z{i + 1}" for i in range(self.dim) if mask & (1 << i)]
            if mask & (1 << self.dim):
                gens.append("mu")
            label = " ".join(gens)
            coeff = self.terms[mask]
            parts.append(f"{coeff} * {label}" if label else str(coeff))
        return " + ".join(parts)

    def __repr__(self):
        return f"SuperFunction(dim={self.dim}, {str(self)})"


# -- dictionary ----------------------------------------------------------------


def _mask_of(idxs: tuple[int, ...]) -> int:
    mask = 0
    for i in idxs:
        mask |= 1 << (i - 1)
    return mask


def _idxs_of(mask: int, dim: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(dim) if mask & (1 << i))


def to_super(a: GenForm) -> SuperFunction:
    """Body components map to mu-free monomials, soul components pick up mu."""
    terms: dict[int, Polynomial] = {}
    for idxs, coeff in a.body.components.items():
        terms[_mask_of(idxs)] = coeff
    mu = 1 << a.dim
    for idxs, coeff in a.soul.components.items():
        terms[_mask_of(idxs) | mu] = coeff
    return SuperFunction(a.dim, a.epsilon, terms)


def term_degree(mask: int, dim: int) -> int:
    """Degree of the form a monomial encodes: number of z's, minus one if mu
    is present."""
    zeta_count = bin(mask & ((1 << dim) - 1)).count("1")
    return zeta_count - 1 if mask & (1 << dim) else zeta_count


def from_super(f: SuperFunction) -> GenForm:
    """Inverse dictionary; rejects inputs of mixed degree, which only arise
    from malformed oracle intermediates."""
    degrees = {term_degree(mask, f.dim) for mask in f.terms}
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous superfunction: degrees {sorted(degrees)}")
    degree = degrees.pop() if degrees else 0
    mu = 1 << f.dim
    body: dict[tuple[int, ...], Polynomial] = {}
    soul: dict[tuple[int, ...], Polynomial] = {}
    for mask, coeff in f.terms.items():
        if mask & mu:
            soul[_idxs_of(mask ^ mu, f.dim)] = coeff
        else:
            body[_idxs_of(mask, f.dim)] = coeff
    return GenForm(f.dim, f.epsilon, degree,
                   OrdinaryForm(f.dim, degree, body),
                   OrdinaryForm(f.dim, degree + 1, soul))


# -- operators -----------------------------------------------------------------


# output mask -> the (sign, coeff, c) triples of its sum
_Groups = dict[int, list[tuple[int, Polynomial, Polynomial]]]


def _add_blade_product(groups: _Groups, mask: int, coeff: Polynomial, g: SuperFunction,
                       sign: int = 1) -> None:
    """Add sign (coeff z^mask) g to groups: each term c z^m of g whose blade
    survives appends (sign * the sign from blade_mul, coeff, c) to the group
    of its mask.  A zero coeff adds nothing."""
    if coeff.is_zero():
        return
    for m, c in g.terms.items():
        blade = blade_mul(mask, m)
        if blade is not None:
            blade_sign, key = blade
            groups.setdefault(key, []).append((sign * blade_sign, coeff, c))


def _sum_groups(dim: int, epsilon: Fraction, groups: _Groups) -> SuperFunction:
    """The SuperFunction with each mask's group summed by one kernel call."""
    return SuperFunction(dim, epsilon, {mask: Polynomial.sum_products(triples)
                                        for mask, triples in groups.items()})


def super_d(f: SuperFunction) -> SuperFunction:
    """(z^a d/dx^a + eps d/dmu) f."""
    n, groups = f.dim, {}
    one = Polynomial.one(n)
    for axis in range(1, n + 1):
        _add_blade_product(groups, 1 << (axis - 1), one, f.coordinate_partial(axis))
    _add_blade_product(groups, 0, Polynomial.const(n, f.epsilon), f.odd_derivative(n))
    return _sum_groups(n, f.epsilon, groups)


def super_interior(V, f: SuperFunction) -> SuperFunction:
    """(v^r + v^r_s z^s mu) d/dz^r applied to f.

    V is a gvector.GenVectorField; only its component data is read here.
    """
    V._require_compatible(f)
    n, groups = f.dim, {}
    mu = 1 << n
    for r in range(1, n + 1):
        df = f.odd_derivative(r - 1)
        _add_blade_product(groups, 0, V.v.component(r), df)
        for s in range(1, n + 1):
            _add_blade_product(groups, (1 << (s - 1)) | mu, V.vt[r - 1][s - 1], df)
    return _sum_groups(n, f.epsilon, groups)


def super_lie(V, f: SuperFunction) -> SuperFunction:
    """Anticommutator [d, i_V] = d i_V + i_V d."""
    return super_d(super_interior(V, f)) + super_interior(V, super_d(f))


def super_lie_expansion(V, f: SuperFunction) -> SuperFunction:
    """Expanded form of the Lie operator, computed without composing d and
    i_V:

        v^a d_a + (d_b v^a) z^b d/dz^a - eps v^a_b z^b d/dz^a
        + v^a_b z^b mu d_a + (d_c v^a_b) z^c z^b mu d/dz^a
    """
    V._require_compatible(f)
    n, eps, groups = f.dim, f.epsilon, {}
    mu = 1 << n
    for a in range(1, n + 1):
        va, fa, dfa = V.v.component(a), f.coordinate_partial(a), f.odd_derivative(a - 1)
        _add_blade_product(groups, 0, va, fa)
        for b in range(1, n + 1):
            zb, vab = 1 << (b - 1), V.vt[a - 1][b - 1]
            if not dfa.is_zero():  # else d_b v^a - eps v^a_b would be formed for nothing
                _add_blade_product(groups, zb, va.partial(b) - eps * vab, dfa)
                for c in range(1, n + 1):
                    pre = blade_mul(1 << (c - 1), zb)
                    if pre is not None:
                        sign, zz = pre
                        _add_blade_product(groups, zz | mu, vab.partial(c), dfa, sign)
            _add_blade_product(groups, zb | mu, vab, fa)
    return _sum_groups(n, eps, groups)
