"""Distance invariants: shortest and detour distances, distance degree
sequences, Hosoya and reciprocal-status Hosoya polynomials, and the
boundary/interior/center/closure classification."""

from gyrograph import (
    bondy_chvatal_closure,
    boundary_interior_center,
    build_gn,
    detour_matrix,
    distance_degree_sequence,
    distance_matrix,
    eccentricity_profile,
    hosoya_polynomial,
    power_graph,
    reciprocal_status,
    reciprocal_status_hosoya,
)

graph = power_graph(build_gn(3))

dm = distance_matrix(graph)
print("d(1,2) =", dm[1, 2], " d(1,4) =", dm[1, 4], " d(4,5) =", dm[4, 5])
prof = eccentricity_profile(dm)
print("radius =", prof.radius, " diameter =", prof.diameter)

# Detour distance = length of a longest simple path (exact, exponential
# search with pruning; refuse beyond the order bound).
dd = detour_matrix(graph)
print("\ndetour d_D(0,1) =", dd[0, 1], " d_D(4,1) =", dd[4, 1],
      " d_D(4,5) =", dd[4, 5])
dprof = eccentricity_profile(dd)
print("detour radius =", dprof.radius, " detour diameter =", dprof.diameter)

# Distance degree sequences: per-vertex counts of vertices at each
# distance, grouped into a multiset summary.
dds = distance_degree_sequence(dm)
print("\ndds summary:", dds.summary)
ddsd = distance_degree_sequence(dd)
print("detour dds summary:", ddsd.summary)

# The Hosoya polynomial counts vertex pairs by distance (x^0 counts the
# diagonal pairs).
print("\nHosoya:", hosoya_polynomial(graph))

# Reciprocal status rs(v) = sum of 1/d(u,v); the reciprocal-status
# Hosoya polynomial sums x^(rs(u)+rs(v)) over edges.  All arithmetic is
# exact rational.
print("rs(0) =", reciprocal_status(graph, 0),
      " rs(1) =", reciprocal_status(graph, 1),
      " rs(4) =", reciprocal_status(graph, 4))
print("reciprocal-status Hosoya:", reciprocal_status_hosoya(graph))

boundary, interior, center = boundary_interior_center(graph)
print("\nboundary:", sorted(boundary))
print("interior:", sorted(interior), " center:", sorted(center))

closure = bondy_chvatal_closure(graph)
print("closure adds edges:", closure.edges != graph.edges)
