"""Resource potentials: the natural-coefficient polynomials the compiler
costs code with.  Polynomial arithmetic is closed on canonical
polynomials, so it builds its results without re-validating them (see
Poly).  The resource monoids of the paper's soundness model, which read
a code cost q as the element (0, q), live with the tests that check
that reading (tests/monoids.py)."""

from __future__ import annotations

from operator import add
from typing import Iterable

from .frozen import frozen


@frozen
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
        if not self.coeffs:
            return self
        return Poly._of((0,) + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


ZERO = Poly()
