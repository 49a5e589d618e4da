"""Metric dimension and the resolving polynomial.

A vertex subset resolves the graph when every vertex is uniquely
identified by its distances to the subset.  Twin vertices (equal open or
closed neighborhoods) are indistinguishable unless one of them is in the
subset, which both bounds the metric dimension from below and prunes the
subset enumeration.  Twin classes are read off the graph; everything
about resolving sets reads its shortest-distance matrix.
"""

from gyrograph import (
    build_gn,
    distance_matrix,
    is_resolving,
    metric_dimension,
    power_graph,
    resolving_polynomial,
    twin_partition,
)

graph = power_graph(build_gn(3))
dm = distance_matrix(graph)

tp = twin_partition(graph)
print("twin classes:")
for cls, kind in tp.classes:
    print(f"  {sorted(cls)} ({kind})")
print("lower bound from twins:", tp.lower_bound())

print("\n{2,3,5,6,7} resolves:", is_resolving(dm, {2, 3, 5, 6, 7}))
print("{1,2,3} resolves:", is_resolving(dm, {1, 2, 3}))

print("\nmetric dimension of P(G(3)):", metric_dimension(dm))

profile = resolving_polynomial(dm)
print("resolving sequence:", profile.resolving_sequence)
print("resolving polynomial:", profile.polynomial)
print("a smallest resolving set:", profile.witness_basis)

# The closed form (m = 2^(n-1)): psi = 2^n - 3 with sequence
# (m(m-1), m^2+m-1, 2m, 1).
for n in (3, 4):
    p = resolving_polynomial(distance_matrix(power_graph(build_gn(n))))
    print(f"\nn={n}: psi={p.metric_dimension} sequence={p.resolving_sequence}")
