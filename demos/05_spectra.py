"""Exact characteristic polynomials and the spectral radius sandwich.

Characteristic polynomials are computed with exact integer arithmetic on
the graph's twin quotient (3 x 3 for every P(G(n))); the family's closed
form x^(m-1) (1+x)^(m-2) (x^3 + (2-m)x^2 - (2^n-1)x + m^2 - 2^n), with
m = 2^(n-1), is confirmed coefficient-for-coefficient.
"""

import math
from itertools import combinations

from gyrograph import (
    Graph,
    build_gn,
    char_poly_exact,
    classify_gn_shape,
    closed_form_charpoly_gn,
    power_graph,
    spectral_radius,
    verify_spectral_bounds,
)

for n in (3, 4, 5):
    graph = power_graph(build_gn(n))
    exact = char_poly_exact(graph)
    closed = closed_form_charpoly_gn(n)
    print(f"n={n}: closed form == exact: {exact == closed}")

graph = power_graph(build_gn(3))
quotient, factor = graph.twin_quotient
print("\ncharpoly of P(G(3)):", char_poly_exact(graph))
print("  = x^3 (x+1)^2 (x^3 - 2x^2 - 7x + 8)")
print("twin quotient rows:", quotient, " factor:", factor)

# The top eigenvalue for n=3 is the largest root of x^2 - x - 8.
lam = spectral_radius(graph)
print("\nlambda_1 =", lam)
print("(1+sqrt(33))/2 =", (1 + math.sqrt(33)) / 2)

# Splitting the adjacency matrix into a clique part and a pendant part,
# each the adjacency matrix of a graph, gives the sandwich
# m-1 < lambda_1 <= m-1 + sqrt(m).  Both parts are read off the shape.
shape = classify_gn_shape(graph)
d = Graph.from_edges(graph.n, combinations(sorted(shape.clique_part), 2))
e = Graph.from_edges(graph.n, ((shape.hub, v) for v in shape.pendant_part))
print("\nclique-part radius:", spectral_radius(d))
print("pendant-part radius:", spectral_radius(e), "= sqrt(4)")
print("pendant-part charpoly:", char_poly_exact(e), " (rank 2)")

for n in (3, 4, 5):
    s = verify_spectral_bounds(power_graph(build_gn(n)))
    print(f"n={n}: {s.bound_lower} < {s.spectral_radius:.9f} "
          f"<= {s.bound_upper:.6f}  satisfied={s.satisfied}")
