"""Exact characteristic polynomials and spectral radii of adjacency
matrices.

Characteristic polynomials are computed over exact integers (a trace
recurrence with checked divisions), so coefficients can never overflow or
round.  The spectral radius uses shifted power iteration with a
deterministic start vector and an explicit convergence failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .graphs import Graph
from .polynomials import IntPolynomial

#: Largest matrix dimension accepted by the exact characteristic polynomial.
CHARPOLY_DIMENSION_BOUND = 64


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square integer matrix."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix is not square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        return self.rows[pair[0]][pair[1]]

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def to_numpy(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

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
    over the integers; this is asserted, not assumed.
    """
    n = matrix.n
    if n > CHARPOLY_DIMENSION_BOUND:
        raise ValueError(
            f"characteristic polynomial refused: dimension {n} exceeds "
            f"{CHARPOLY_DIMENSION_BOUND}"
        )
    if n == 0:
        return IntPolynomial.constant(1)
    a = [list(row) for row in matrix.rows]
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


def spectral_radius(
    matrix: IntMatrix, tol: float = 1e-10, max_iterations: int = 1_000_000
) -> float:
    """Largest eigenvalue of a symmetric non-negative integer matrix.

    Shifted power iteration (shift = max row sum, making the iteration
    matrix PSD so the Rayleigh quotient converges to the top eigenvalue
    even on bipartite graphs).  Starts from the all-ones vector; on
    stagnation retries once from a fixed perturbation; failure to reach
    the residual tolerance raises instead of returning an approximation.
    """
    if not matrix.is_symmetric():
        raise ValueError("spectral radius requires a symmetric matrix")
    if any(v < 0 for row in matrix.rows for v in row):
        raise ValueError("spectral radius requires a non-negative matrix")
    n = matrix.n
    if n == 0:
        return 0.0
    a = matrix.to_numpy()
    shift = float(max(sum(row) for row in matrix.rows))
    if shift == 0.0:
        return 0.0
    b = a + shift * np.eye(n)

    def iterate(x: np.ndarray) -> float | None:
        x = x / np.linalg.norm(x)
        for _ in range(max_iterations):
            y = b @ x
            norm = np.linalg.norm(y)
            if norm == 0.0:
                return None
            x = y / norm
            rho = float(x @ (b @ x))
            if np.linalg.norm(b @ x - rho * x) < tol:
                return rho - shift
        return None

    result = iterate(np.ones(n))
    if result is None:
        start = np.ones(n)
        start[0] += 0.5
        result = iterate(start)
    if result is None:
        raise ConvergenceError(
            f"power iteration did not reach tolerance {tol} in {max_iterations} steps"
        )
    return result


@dataclass(frozen=True)
class SpectralSummary:
    spectral_radius: float
    residual_tolerance: float
    bound_lower: float
    bound_upper: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "spectral_radius": self.spectral_radius,
            "residual_tolerance": self.residual_tolerance,
            "bound_lower": self.bound_lower,
            "bound_upper": self.bound_upper,
            "satisfied": self.satisfied,
        }


def verify_spectral_bounds(n: int, tol: float = 1e-10) -> SpectralSummary:
    """Sandwich check for the order-2^n power graph: with m = 2^(n-1),

        m - 1 < lambda_1 <= (m - 1) + sqrt(m)

    (the complete block pins the strict lower bound; the pendant part has
    top eigenvalue sqrt(m), giving the upper bound)."""
    from .graphs import power_graph  # local import to avoid cycles
    from .gyrogroups import build_gn

    lam = spectral_radius(adjacency_matrix(power_graph(build_gn(n))), tol=tol)
    m = 2 ** (n - 1)
    lower = float(m - 1)
    upper = lower + math.sqrt(m)
    satisfied = (lam > lower + tol) and (lam <= upper + tol)
    return SpectralSummary(
        spectral_radius=lam,
        residual_tolerance=tol,
        bound_lower=lower,
        bound_upper=upper,
        satisfied=satisfied,
    )
