"""Resource potentials: natural-coefficient polynomials, which the
compiler costs code with, and the three resource monoids of the paper's
soundness model (plain naturals, max-size polynomials, additive-size
polynomials), in which a code cost q is the size-0 element (0, q).
Polynomial arithmetic is closed on canonical polynomials, so it builds
its results without re-validating them (see Poly)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import add
from typing import Iterable


@dataclass(frozen=True)
class Poly:
    """Polynomial with natural coefficients, low degree first.

    Canonical form: every coefficient is a natural and the last one is
    not 0; the zero polynomial is the empty tuple.  The public
    constructor takes outside input, so it strips trailing zeros and
    rejects a negative coefficient.  Sums, natural multiples, shifts and
    coefficient-wise maxima of canonical polynomials are canonical, so
    those operations build their results with _of, which checks nothing;
    an operation with a zero operand, or a scaling by 1, returns the
    other operand itself.
    """

    coeffs: tuple[int, ...] = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if c < 0:
                raise ValueError(f"negative coefficient {c}")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> "Poly":
        """The polynomial of a coefficient tuple already in canonical form."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def const(cls, k: int) -> "Poly":
        return cls((k,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        n = len(b)
        return Poly._of(tuple(map(add, a[:n], b)) + a[n:])

    def scale(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("scale factor must be a natural")
        if k == 1:
            return self
        if k == 0:
            return ZERO
        return Poly._of(tuple(k * c for c in self.coeffs))

    def shift_up(self) -> "Poly":
        """Multiply by the indeterminate (prepend a zero coefficient)."""
        if self.is_zero:
            return self
        return Poly._of((0,) + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


ZERO = Poly()


def _shifted_coeffs(p: Poly, m: int) -> list[int]:
    # Coefficients of x |-> p(x + m), computed by binomial expansion.
    out = [0] * max(len(p.coeffs), 1)
    for i, c in enumerate(p.coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * m ** (i - j)
    return out


def dominates_from(p: Poly, q: Poly, m: int) -> bool:
    """Sound test for "p(k) >= q(k) for all k >= m".

    Checks that p(x+m) - q(x+m) has no negative coefficient.  This is
    sufficient but not complete: some true instances are rejected.
    """
    ps = _shifted_coeffs(p, m)
    qs = _shifted_coeffs(q, m)
    n = max(len(ps), len(qs))
    ps += [0] * (n - len(ps))
    qs += [0] * (n - len(qs))
    return all(a - b >= 0 for a, b in zip(ps, qs))


@dataclass(frozen=True)
class ExtNat:
    """A natural number or negative infinity (represented as None)."""

    value: int | None = None

    @classmethod
    def fin(cls, n: int) -> "ExtNat":
        if n < 0:
            raise ValueError("finite values must be naturals")
        return cls(n)

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if self.value is None or other.value is None:
            return NEG_INF
        return ExtNat(self.value + other.value)

    def __le__(self, other: "ExtNat") -> bool:
        if self.value is None:
            return True
        if other.value is None:
            return False
        return self.value <= other.value

    def __lt__(self, other: "ExtNat") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "ExtNat") -> bool:
        return other <= self

    def __gt__(self, other: "ExtNat") -> bool:
        return other < self

    def __repr__(self) -> str:
        return "-inf" if self.value is None else f"Fin({self.value})"


NEG_INF = ExtNat(None)


class MonoidKind(Enum):
    NAT = "nat"
    MAX_POLY = "maxpoly"
    PLUS_POLY = "pluspoly"


@dataclass(frozen=True)
class Potential:
    """A (size, polynomial) potential pair."""

    size: int = 0
    poly: Poly = Poly()

    def __repr__(self) -> str:
        return f"({self.size}, {list(self.poly.coeffs)})"


EMPTY = Potential(0, Poly())


def _require_nat_carrier(a: Potential) -> None:
    if not a.poly.is_zero:
        raise ValueError("the natural-number monoid carries sizes only")


def plus(kind: MonoidKind, a: Potential, b: Potential) -> Potential:
    if kind is MonoidKind.NAT:
        _require_nat_carrier(a)
        _require_nat_carrier(b)
        return Potential(a.size + b.size, Poly())
    if kind is MonoidKind.MAX_POLY:
        return Potential(max(a.size, b.size), a.poly + b.poly)
    return Potential(a.size + b.size, a.poly + b.poly)


def diff(kind: MonoidKind, a: Potential, b: Potential) -> ExtNat:
    if kind is MonoidKind.NAT:
        _require_nat_carrier(a)
        _require_nat_carrier(b)
        if a.size >= b.size:
            return ExtNat.fin(a.size - b.size)
        return NEG_INF
    if a.size >= b.size and dominates_from(a.poly, b.poly, a.size):
        return ExtNat.fin(a.poly(a.size) - b.poly(a.size))
    return NEG_INF


def acct(kind: MonoidKind, k: int) -> Potential:
    if k < 0:
        raise ValueError("step counts are naturals")
    if kind is MonoidKind.NAT:
        return Potential(k, Poly())
    return Potential(0, Poly.const(k))


def size(n: int) -> Potential:
    """Potential of an iterable datum of magnitude n (polynomial monoids)."""
    return Potential(n, Poly())


def raise_(a: Potential) -> Potential:
    """Raise the polynomial degree; the zero-size sub-monoid is closed
    under this operation."""
    return Potential(a.size, a.poly.shift_up())


def scale(m: int, a: Potential) -> Potential:
    """Scale the polynomial component for a fixed iteration count m."""
    return Potential(a.size, a.poly.scale(m))


def in_submonoid(a: Potential) -> bool:
    return a.size == 0


def n_action(kind: MonoidKind, n: int, a: Potential) -> Potential:
    """n-fold sum a + ... + a; the empty sum is the monoid unit."""
    if n < 0:
        raise ValueError("action exponent must be a natural")
    if n == 0:
        return EMPTY
    if kind is MonoidKind.NAT:
        _require_nat_carrier(a)
        return Potential(n * a.size, Poly())
    if kind is MonoidKind.MAX_POLY:
        return Potential(a.size, a.poly.scale(n))
    return Potential(n * a.size, a.poly.scale(n))
