"""Exact graded arithmetic: truncated integer series.

All Hilbert/Poincare-style comparisons in the package go through
:class:`TruncatedSeries`.  Coefficients are integers by design: every series
in scope is a graded dimension count, so a fractional or negative value
signals a bug or a failed factorization and is raised, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class SeriesError(ValueError):
    """Invalid series operation (constant-term or integrality violations)."""


class FactorizationError(SeriesError):
    """A claimed series factorization fails; carries the first bad degree."""

    def __init__(self, degree, message):
        self.degree = degree
        super().__init__(f"degree {degree}: {message}")


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series truncated above ``cutoff``."""

    cutoff: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.cutoff + 1:
            raise SeriesError(
                f"expected {self.cutoff + 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, coeffs, cutoff=None):
        coeffs = list(coeffs)
        if cutoff is None:
            cutoff = len(coeffs) - 1
        coeffs = coeffs[: cutoff + 1] + [0] * (cutoff - len(coeffs) + 1)
        return cls(cutoff=cutoff, coeffs=tuple(coeffs))

    @classmethod
    def zero(cls, cutoff):
        return cls(cutoff=cutoff, coeffs=(0,) * (cutoff + 1))

    @classmethod
    def one(cls, cutoff):
        return cls.monomial(0, cutoff)

    @classmethod
    def monomial(cls, degree, cutoff):
        coeffs = [0] * (cutoff + 1)
        if 0 <= degree <= cutoff:
            coeffs[degree] = 1
        return cls(cutoff=cutoff, coeffs=tuple(coeffs))

    def __getitem__(self, degree):
        return self.coeffs[degree]

    def truncate(self, cutoff):
        if cutoff >= self.cutoff:
            return self
        return TruncatedSeries(cutoff=cutoff, coeffs=self.coeffs[: cutoff + 1])

    def _align(self, other):
        cutoff = min(self.cutoff, other.cutoff)
        return self.truncate(cutoff), other.truncate(cutoff), cutoff

    def __add__(self, other):
        a, b, cutoff = self._align(other)
        return TruncatedSeries(
            cutoff=cutoff, coeffs=tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        )

    def __sub__(self, other):
        a, b, cutoff = self._align(other)
        return TruncatedSeries(
            cutoff=cutoff, coeffs=tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        )

    def __mul__(self, other):
        a, b, cutoff = self._align(other)
        out = [0] * (cutoff + 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j in range(cutoff + 1 - i):
                y = b.coeffs[j]
                if y:
                    out[i + j] += x * y
        return TruncatedSeries(cutoff=cutoff, coeffs=tuple(out))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


def geometric_series(g):
    """1/(1-g) truncated at g's cutoff; g must have zero constant term."""
    if g.coeffs[0] != 0:
        raise SeriesError(f"nonzero constant term {g.coeffs[0]} in geometric_series")
    cutoff = g.cutoff
    out = [0] * (cutoff + 1)
    out[0] = 1
    # out[d] = sum_{i>=1} g[i] * out[d-i]
    for d in range(1, cutoff + 1):
        out[d] = sum(g.coeffs[i] * out[d - i] for i in range(1, d + 1))
    return TruncatedSeries(cutoff=cutoff, coeffs=tuple(out))


def series_div_exact(numerator, denominator):
    """numerator / denominator, requiring an integer result.

    Raises :class:`FactorizationError` at the first fractional coefficient.
    """
    a, b, cutoff = numerator._align(denominator)
    b0 = b.coeffs[0]
    if b0 == 0:
        raise SeriesError("division by a series with zero constant term")
    out = []
    for d in range(cutoff + 1):
        acc = a.coeffs[d]
        for i in range(1, d + 1):
            if b.coeffs[i]:
                acc -= b.coeffs[i] * out[d - i]
        q, r = divmod(acc, b0)
        if r:
            raise FactorizationError(
                d, f"non-integer quotient coefficient {Fraction(acc, b0)}"
            )
        out.append(q)
    return TruncatedSeries(cutoff=cutoff, coeffs=tuple(out))


def free_gc_series(degrees, exterior, cutoff):
    """Graded dimension series of a free graded-commutative algebra.

    ``degrees`` lists the degree of each generator.  When ``exterior``,
    odd-degree generators contribute (1+t^d) factors and even-degree ones
    1/(1-t^d); otherwise every generator is polynomial.
    """
    result = TruncatedSeries.one(cutoff)
    for degree in degrees:
        if degree < 1:
            raise SeriesError(f"bad generator degree {degree}")
        if exterior and degree % 2 == 1:
            factor = TruncatedSeries.one(cutoff) + TruncatedSeries.monomial(
                degree, cutoff
            )
        else:
            factor = geometric_series(TruncatedSeries.monomial(degree, cutoff))
        result = result * factor
    return result

