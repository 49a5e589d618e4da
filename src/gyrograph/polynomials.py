"""Univariate polynomials with exact integer coefficients.

All counting polynomials produced by this package (Hosoya, resolving,
characteristic) are held exactly; no floating point enters coefficient
arithmetic, and the characteristic polynomial of an integer matrix
(:func:`char_poly`) checks every division it makes.
"""

from __future__ import annotations

import operator
from typing import Mapping


class IntPolynomial:
    """Immutable sparse polynomial over the integers.

    Coefficients are stored as an exponent -> coefficient map with no
    explicit zeros.  Exponents and coefficients must be integers in the
    sense of operator.index, so a float or a string is refused, not
    truncated.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        clean: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                try:
                    e, c = operator.index(exp), operator.index(c)
                except TypeError:
                    raise ValueError(
                        "polynomial exponents and coefficients must be integers"
                    ) from None
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                if c != 0:
                    clean[e] = c
        self._coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls({0: c})

    @classmethod
    def x_power(cls, exp: int) -> "IntPolynomial":
        return cls({exp: 1})

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def __getitem__(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def __call__(self, x: int) -> int:
        """Exact evaluation at an integer point."""
        return sum(c * x**e for e, c in self._coeffs.items())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _as_poly(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _as_poly(other)
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, int]:
        """JSON-friendly exponent -> coefficient map (string keys)."""
        return {str(e): c for e, c in sorted(self._coeffs.items(), reverse=True)}

    def __str__(self) -> str:
        """Human-readable form with descending exponents, e.g. 'x^3 - 2x^2 - 7x + 8'."""
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                var = "x" if e == 1 else f"x^{e}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(f"-{term}" if c < 0 else term)
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial({self._coeffs!r})"


def _as_poly(value: "IntPolynomial | int") -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to IntPolynomial")


def char_poly(rows) -> IntPolynomial:
    """det(xI - A) for a square integer matrix given by its rows, via the
    Faddeev-LeVerrier trace recurrence.  Every division in it is by the
    step index and is exact over the integers; this is asserted, not
    assumed."""
    n = len(rows)
    coeffs, m, c = {n: 1}, [[0] * n for _ in range(n)], 1
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{n-k+1} I), and c_{n-k} = -tr(M_k) / k
        for i in range(n):
            m[i][i] += c
        cols = list(zip(*m))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in rows]
        c, r = divmod(-sum(m[i][i] for i in range(n)), k)
        if r:
            raise AssertionError("trace recurrence divided inexactly")
        coeffs[n - k] = c
    return IntPolynomial(coeffs)
