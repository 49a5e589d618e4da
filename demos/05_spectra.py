"""Exact characteristic polynomials and the spectral radius sandwich.

Characteristic polynomials are computed with exact integer arithmetic;
the family's closed form x^(m-1) (1+x)^(m-2) (x^3 + (2-m)x^2 - (2^n-1)x
+ m^2 - 2^n), with m = 2^(n-1), is confirmed coefficient-for-coefficient.
"""

import math

from gyrograph import (
    adjacency_matrix,
    build_gn,
    char_poly_exact,
    closed_form_charpoly_gn,
    pendant_split_matrices,
    power_graph,
    spectral_radius,
    verify_spectral_bounds,
)

for n in (3, 4, 5):
    graph = power_graph(build_gn(n))
    exact = char_poly_exact(adjacency_matrix(graph))
    closed = closed_form_charpoly_gn(n)
    print(f"n={n}: closed form == exact: {exact == closed}")

print("\ncharpoly of P(G(3)):", char_poly_exact(
    adjacency_matrix(power_graph(build_gn(3)))))
print("  = x^3 (x+1)^2 (x^3 - 2x^2 - 7x + 8)")

# The top eigenvalue for n=3 is the largest root of x^2 - x - 8.
lam = spectral_radius(adjacency_matrix(power_graph(build_gn(3))))
print("\nlambda_1 =", lam)
print("(1+sqrt(33))/2 =", (1 + math.sqrt(33)) / 2)

# Splitting the adjacency matrix into clique part and pendant part gives
# the sandwich m-1 < lambda_1 <= m-1 + sqrt(m).
d, e = pendant_split_matrices(3)
print("\nclique-part radius:", spectral_radius(d))
print("pendant-part radius:", spectral_radius(e), "= sqrt(4)")
print("pendant-part charpoly:", char_poly_exact(e), " (rank 2)")

for n in (3, 4, 5):
    s = verify_spectral_bounds(adjacency_matrix(power_graph(build_gn(n))))
    print(f"n={n}: {s.bound_lower} < {s.spectral_radius:.9f} "
          f"<= {s.bound_upper:.6f}  satisfied={s.satisfied}")
