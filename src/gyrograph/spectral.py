"""Exact characteristic polynomials and spectral radii of adjacency
matrices.

Characteristic polynomials are computed over exact integers (a trace
recurrence with checked divisions, run on the twin quotient of an
adjacency matrix), so coefficients can never overflow or round.  The
spectral radius is the largest root of the quotient's characteristic
polynomial, located by exact integer root tests and returned as the
correctly rounded float.
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction
from typing import NamedTuple

from .errors import BoundExceededError
from .graphs import Graph, twin_parts
from .gyrogroups import _Value
from .polynomials import IntPolynomial

#: Largest twin-quotient dimension accepted by char_poly_exact.
CHARPOLY_DIMENSION_BOUND = 64


class IntMatrix(_Value):
    """Immutable square integer matrix."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix is not square")
        self.__dict__["rows"] = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        return self.rows[pair[0]][pair[1]]

    def is_symmetric(self) -> bool:
        return self.rows == tuple(zip(*self.rows))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def zeros(cls, n: int) -> "IntMatrix":
        return cls(tuple((0,) * n for _ in range(n)))


def adjacency_matrix(graph: Graph) -> IntMatrix:
    rows = [[0] * graph.n for _ in range(graph.n)]
    for u, v in graph.edges:
        rows[u][v] = rows[v][u] = 1
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Exact integer computations
# ---------------------------------------------------------------------------


def char_poly_exact(matrix: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M) with exact integer
    coefficients, via the Faddeev-LeVerrier trace recurrence.

    Every division in the recurrence is by the step index and is exact
    over the integers; this is asserted, not assumed.  The recurrence runs
    on the twin quotient of M (see :func:`twin_quotient`), which for the
    power graph of G(n) is 3 x 3 whatever n is; a quotient larger than
    CHARPOLY_DIMENSION_BOUND is refused.
    """
    quotient_poly, factor = _quotient_charpoly(matrix)
    return quotient_poly * factor


@functools.lru_cache(maxsize=1)
def _quotient_charpoly(matrix: IntMatrix) -> tuple[IntPolynomial, IntPolynomial]:
    """(det(xI - B), f) for the twin quotient (B, f) of M.  The last
    matrix is remembered, so char_poly_exact and spectral_radius on the
    same matrix share one recurrence."""
    quotient, factor = twin_quotient(matrix)
    if quotient.n > CHARPOLY_DIMENSION_BOUND:
        raise BoundExceededError(
            f"characteristic polynomial refused: twin-quotient dimension "
            f"{quotient.n} exceeds {CHARPOLY_DIMENSION_BOUND}"
        )
    return _faddeev_leverrier(quotient.rows), factor


def twin_quotient(matrix: IntMatrix) -> tuple[IntMatrix, IntPolynomial]:
    """(B, f) with det(xI - M) = det(xI - B) * f.

    When M is a graph's adjacency matrix (symmetric, 0/1, zero diagonal)
    with twins, its twin parts (:func:`graphs.twin_parts`) form an
    equitable partition (Godsil & Royle, Algebraic Graph Theory, ch. 9):
    B[i][j] counts the neighbors in part j of any vertex of part i, and f
    is (x+1)^(|P|-1) per adjacent part P times x^(|P|-1) per other part.
    Every other matrix gives (M, 1).
    """
    rows = matrix.rows
    n = matrix.n
    one = IntPolynomial.constant(1)
    if not (
        matrix.is_symmetric()
        and all(v in (0, 1) for row in rows for v in row)
        and not any(rows[i][i] for i in range(n))
    ):
        return matrix, one
    bits = [sum(v << j for j, v in enumerate(row)) for row in rows]
    parts = twin_parts(bits)
    if len(parts) == n:
        return matrix, one
    masks = [sum(1 << v for v in part) for part, _ in parts]
    quotient = IntMatrix.from_rows(
        [(bits[part[0]] & mask).bit_count() for mask in masks] for part, _ in parts
    )
    factor, x, x_plus_1 = one, IntPolynomial.x_power(1), IntPolynomial({0: 1, 1: 1})
    for part, kind in parts:
        factor = factor * (x_plus_1 if kind == "adjacent" else x) ** (len(part) - 1)
    return quotient, factor


def _faddeev_leverrier(rows) -> IntPolynomial:
    """det(xI - A) for a square integer matrix given by its rows."""
    n = len(rows)
    if n == 0:
        return IntPolynomial.constant(1)
    a = [list(row) for row in rows]
    coeffs = {n: 1}
    m = [row[:] for row in a]  # M_1 = A
    c = -sum(m[i][i] for i in range(n))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        for i in range(n):
            m[i][i] += c
        m = _int_matmul(a, m)
        trace = sum(m[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise AssertionError("trace recurrence divided inexactly")
        c = q
        coeffs[n - k] = c
    return IntPolynomial(coeffs)


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    bt = [[b[i][j] for i in range(n)] for j in range(n)]
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt]
        for row in a
    ]


def integer_determinant(matrix: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = matrix.n
    if n == 0:
        return 1
    m = [list(row) for row in matrix.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), -1)
            if pivot < 0:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise AssertionError("Bareiss division was inexact")
                m[i][j] = q
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def closed_form_charpoly_gn(n: int) -> IntPolynomial:
    """Closed form of the characteristic polynomial of the order-2^n
    power graph (complete block of size m = 2^(n-1) plus m pendants):

        x^(m-1) (1+x)^(m-2) (x^3 + (2-m) x^2 - (2^n - 1) x + m^2 - 2^n)

    The cubic factor is the characteristic polynomial of the equitable
    partition quotient {identity} / clique rest / pendants; the published
    rendering of the cubic is malformed (a duplicated quadratic token and
    a sign slip on the linear term) and is corrected here, which the
    exact computation at n = 3, 4, 5 confirms.
    """
    if n < 3:
        raise ValueError(f"defined for n >= 3, got n={n}")
    m = 2 ** (n - 1)
    cubic = IntPolynomial(
        {3: 1, 2: 2 - m, 1: -(2**n - 1), 0: m * m - 2**n}
    )
    return (
        IntPolynomial.x_power(m - 1)
        * IntPolynomial({0: 1, 1: 1}) ** (m - 2)
        * cubic
    )


def pendant_split_matrices(n: int) -> tuple[IntMatrix, IntMatrix]:
    """The adjacency split A = D + E for the order-2^n power graph:
    D carries the complete block on the first m = 2^(n-1) vertices, E the
    pendant edges (first block vertex to every pendant)."""
    if n < 3:
        raise ValueError(f"defined for n >= 3, got n={n}")
    m = 2 ** (n - 1)
    size = 2 * m
    d = [[0] * size for _ in range(size)]
    e = [[0] * size for _ in range(size)]
    for i in range(m):
        for j in range(m):
            if i != j:
                d[i][j] = 1
    for j in range(m, size):
        e[0][j] = e[j][0] = 1
    return IntMatrix.from_rows(d), IntMatrix.from_rows(e)


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------


def spectral_radius(matrix: IntMatrix) -> float:
    """Largest eigenvalue of a symmetric non-negative integer matrix,
    correctly rounded to a float.

    It is the largest root of det(xI - B) for the twin quotient B (the
    factor f only adds the roots 0 and -1, and a non-negative matrix has
    a non-negative top eigenvalue).  B is similar to a symmetric matrix,
    so every root is real, and p has a root >= c exactly when some
    coefficient of p(y + c) is not positive; a bisection over the floats
    with that exact test brackets the root between adjacent floats, and
    one more test at their midpoint rounds it.

    Cost on a direct call: one Faddeev-LeVerrier run on the twin quotient,
    shared with char_poly_exact on the same matrix, and about 60 root
    tests on it.  That is 1 ms or less for every power graph in the tests,
    demos and benchmark (3 x 3 quotients for P(G(n)), 5 x 5 for P(Z28);
    the passes over the whole matrix that build the quotient take longer,
    about 17 ms at order 256), but about 1.7 s on 2 CPUs for a twinless
    64-vertex matrix (1 ms with numpy's eigvalsh).  A quotient larger than
    CHARPOLY_DIMENSION_BOUND is refused.
    """
    if not matrix.is_symmetric():
        raise ValueError("spectral radius requires a symmetric matrix")
    if any(v < 0 for row in matrix.rows for v in row):
        raise ValueError("spectral radius requires a non-negative matrix")
    if not any(map(any, matrix.rows)):
        return 0.0
    p, _ = _quotient_charpoly(matrix)
    coeffs = [p.coefficient(k) for k in range(p.degree + 1)]
    # The largest entry (a 2 x 2 principal submatrix) and the largest row
    # sum bracket the top eigenvalue; the bisection runs over the bit
    # patterns of the floats between them, which are ordered as the floats
    # are.
    lo = _float_bits(float(max(map(max, matrix.rows))))
    hi = _float_bits(float(2 ** max(map(sum, matrix.rows)).bit_length()))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_root_from(coeffs, Fraction(_bits_float(mid))):
            lo = mid
        else:
            hi = mid
    below, above = _bits_float(lo), _bits_float(hi)
    if _has_root_from(coeffs, (Fraction(below) + Fraction(above)) / 2):
        return above
    return below


def _has_root_from(coeffs: list[int], c: Fraction) -> bool:
    """True when the real-rooted polynomial with the given ascending
    coefficients has a root >= c: some coefficient of
    den^d p((z + num) / den), with c = num / den, is not positive."""
    num, den = c.numerator, c.denominator
    d = len(coeffs) - 1
    b = [coeff * den ** (d - k) for k, coeff in enumerate(coeffs)]
    for i in range(d):  # Taylor shift z -> z + num, by synthetic division
        for j in range(d - 1, i - 1, -1):
            b[j] += num * b[j + 1]
    return any(coeff <= 0 for coeff in b)


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class SpectralSummary(NamedTuple):
    spectral_radius: float
    bound_lower: float
    bound_upper: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "spectral_radius": self.spectral_radius,
            "bound_lower": self.bound_lower,
            "bound_upper": self.bound_upper,
            "satisfied": self.satisfied,
        }


def verify_spectral_bounds(matrix: IntMatrix) -> SpectralSummary:
    """Sandwich check for the adjacency matrix of the power graph of
    G(n), of order 2m with m = 2^(n-1):

        m - 1 < lambda_1 <= (m - 1) + sqrt(m)

    (the complete block pins the strict lower bound; the pendant part has
    top eigenvalue sqrt(m), giving the upper bound)."""
    lam = spectral_radius(matrix)
    m = matrix.n // 2
    lower = float(m - 1)
    upper = lower + math.sqrt(m)
    return SpectralSummary(
        spectral_radius=lam,
        bound_lower=lower,
        bound_upper=upper,
        satisfied=lower < lam <= upper,
    )
