"""Seeded random generators for identity-suite trials.

Coefficients come from a small rational set, polynomials have total degree at
most two and ~50% sparsity; this keeps exact arithmetic fast while still
exercising every sign path.  Every generator is a pure function of the seed,
which is what makes suite reports reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

from .connection import GenConnection
from .exterior import OrdinaryForm, VectorField, mat_identity, mat_map, mat_mul, transpose
from .gform import GenForm
from .gvector import GenVectorField
from .ring import Polynomial, _pack, poly_dot
from .superspace import SuperFunction

COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2)]
EPSILON_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(-2), Fraction(1, 2)]


class FormRandom:
    """Random algebra elements over a fixed dimension and epsilon."""

    def __init__(self, seed: int, dim: int, epsilon: Fraction):
        self.rng = random.Random(seed)
        self.dim = dim
        self.epsilon = Fraction(epsilon)
        # the packed keys of the monomials of total degree <= 2, packed once
        self._keys = [_pack(e) for e in itertools.product(range(3), repeat=dim) if sum(e) <= 2]

    def poly(self) -> Polynomial:
        terms = {}
        for key in self._keys:
            if self.rng.random() < 0.5:
                continue
            terms[key] = self.rng.choice(COEFF_POOL)
        # the pool's values are nonzero and reduced, so their numerators over
        # the lcm of their denominators are canonical, as the constructor
        # would build them
        den = math.lcm(*[c.denominator for c in terms.values()])
        return Polynomial._of(self.dim, den, {key: c.numerator * (den // c.denominator)
                                              for key, c in terms.items()})

    def form(self, degree: int) -> OrdinaryForm:
        if degree < 0 or degree > self.dim:
            return OrdinaryForm.zero(self.dim, degree)
        comps = {}
        for idxs in itertools.combinations(range(1, self.dim + 1), degree):
            if self.rng.random() < 0.4:
                continue
            p = self.poly()
            if not p.is_zero():
                comps[idxs] = p
        return OrdinaryForm(self.dim, degree, comps)

    def genform(self, degree: int | None = None) -> GenForm:
        if degree is None:
            degree = self.rng.randint(-1, self.dim)
        return GenForm(self.dim, self.epsilon, degree,
                       self.form(degree), self.form(degree + 1))

    def vector_field(self) -> VectorField:
        return VectorField([self.poly() for _ in range(self.dim)])

    def tensor(self) -> tuple[tuple[Polynomial, ...], ...]:
        """An n x n polynomial matrix, such as the tensor part of a field."""
        return tuple(tuple(self.poly() for _ in range(self.dim)) for _ in range(self.dim))

    def gen_vector_field(self) -> GenVectorField:
        return GenVectorField(self.dim, self.epsilon, self.vector_field(), self.tensor())

    def superfunction(self) -> SuperFunction:
        """Possibly inhomogeneous Grassmann polynomial."""
        terms = {}
        for mask in range(1 << (self.dim + 1)):
            if self.rng.random() < 0.7:
                continue
            p = self.poly()
            if not p.is_zero():
                terms[mask] = p
        return SuperFunction(self.dim, self.epsilon, terms)

    def unipotent(self) -> tuple[tuple[tuple[Polynomial, ...], ...],
                                 tuple[tuple[Polynomial, ...], ...]]:
        """Upper unitriangular polynomial matrix with its exact inverse."""
        n = self.dim
        zero = Polynomial.zero(n)
        eye = mat_identity(n, Polynomial.one(n), zero)
        nil = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                nil[i][j] = self.poly()
        # (I + N)^-1 = I - N (I - N (I - ...)), which ends because N^n = 0
        inv = eye
        for _ in range(n - 1):
            inv = mat_map(operator.sub, eye, mat_mul(nil, inv, poly_dot))
        return mat_map(operator.add, eye, nil), inv

    def metric_pieces(self) -> tuple[tuple[tuple[Polynomial, ...], ...],
                                     tuple[tuple[Polynomial, ...], ...]]:
        """gamma = L^T L for unipotent L: symmetric with polynomial inverse."""
        l_mat, l_inv = self.unipotent()
        gamma = mat_mul(transpose(l_mat), l_mat, poly_dot)
        gamma_inv = mat_mul(l_inv, transpose(l_inv), poly_dot)
        return gamma, gamma_inv

    def symmetric_one_forms(self) -> tuple[tuple[OrdinaryForm, ...], ...]:
        n = self.dim
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entry = self.form(1)
                entries[i][j] = entry
                entries[j][i] = entry
        return tuple(map(tuple, entries))

    def connection(self) -> GenConnection:
        n = self.dim
        entries = [[GenForm(n, self.epsilon, 1, self.form(1), self.form(2))
                    for _ in range(n)] for _ in range(n)]
        return GenConnection.build(entries, self.epsilon)

    def torsion_free_alpha(self) -> tuple[tuple[OrdinaryForm, ...], ...]:
        """alpha^m_n = G^m_{nl} dx^l with G symmetric in (n, l)."""
        n = self.dim
        gam = {}
        for m in range(1, n + 1):
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    p = self.poly()
                    gam[(m, a, b)] = p
                    gam[(m, b, a)] = p
        rows = []
        for m in range(1, n + 1):
            row = []
            for nu in range(1, n + 1):
                comps = {(lam,): gam[(m, nu, lam)] for lam in range(1, n + 1)
                         if not gam[(m, nu, lam)].is_zero()}
                row.append(OrdinaryForm(n, 1, comps))
            rows.append(tuple(row))
        return tuple(rows)
