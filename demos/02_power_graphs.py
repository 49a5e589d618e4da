"""Power graphs of gyrogroups: construction, shape, and serialization.

Two distinct elements are adjacent in the power graph exactly when one
is a positive power of the other.
"""

from gyrograph import (
    build_gn,
    bundled_gyrogroup,
    classify_gn_shape,
    cyclic_group,
    induced_subgraph,
    power_graph,
    to_dot,
    to_json,
)

graph = power_graph(build_gn(3))
print("P(G(3)):", graph.n, "vertices,", graph.edge_count, "edges")
print("edges:", graph.sorted_edges())

# The family's power graph is always a complete graph on the cyclic half
# plus pendant vertices hanging off the identity.
for n in (3, 4, 5):
    s = classify_gn_shape(power_graph(build_gn(n)))
    print(f"n={n}: clique size {len(s.clique_part)}, "
          f"{len(s.pendant_part)} pendants at vertex {s.hub}")

# A cyclic group of prime-power order has a complete power graph; other
# cyclic groups do not.
print("\nP(Z8) complete:", power_graph(cyclic_group(8)).is_complete())
print("P(Z6) complete:", power_graph(cyclic_group(6)).is_complete())

# Induced subgraphs: the clique half, and the star on identity+pendants.
clique = induced_subgraph(graph, {0, 1, 2, 3})
star = induced_subgraph(graph, {0, 4, 5, 6, 7})
print("\nclique half is complete:", clique.is_complete())
print("identity+pendants degrees:", sorted(star.degree(v) for v in star.vertices()))

# The bundled tables give two non-isomorphic gyrogroups with the same
# power-graph shape.
print("\nk1 power graph:", classify_gn_shape(power_graph(bundled_gyrogroup("k1"))))

print("\nDOT output:\n")
print(to_dot(graph))
print("JSON output:\n")
print(to_json(graph))
