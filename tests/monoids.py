"""The resource monoids of the paper's soundness model (Dal Lago and
Hofmann, "Realizability models and implicit complexity", 2011): plain
naturals, max-size polynomials and additive-size polynomials, over
(size, polynomial) potential pairs.

The package computes no fuel through this model.  Its bound q(n + 1) is
what the model's fuel diff(plus(size(n + 1), (0, q)), EMPTY) comes to,
and test_compiler.py checks that reading against this module on every
corpus declaration that takes a natural input; the acceptance criteria
2 and 3 check the model's laws.
"""

from __future__ import annotations

import math
from enum import Enum

from polyqtt.frozen import frozen
from polyqtt.potentials import Poly


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


@frozen
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


@frozen
class Potential:
    """A (size, polynomial) potential pair."""

    size: int = 0
    poly: Poly = Poly()

    def __repr__(self) -> str:
        return f"({self.size}, {list(self.poly.coeffs)})"


EMPTY = Potential(0, Poly())


def _require_nat_carrier(a: Potential) -> None:
    if a.poly.coeffs:
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
    return Potential(0, Poly((k,)))


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
