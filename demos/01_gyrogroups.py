"""Build finite gyrogroups and check their axioms.

A gyrogroup is a magma with a left identity, left inverses, and a
gyroassociative law: a+(b+c) = (a+b) + gyr[a,b]c, where each gyration
gyr[a,b] is an automorphism of the operation and satisfies the left loop
property gyr[a+b, b] = gyr[a, b].  Groups are the gyrogroups whose
gyrations are all trivial.
"""

from gyrograph import (
    build_gn,
    bundled_gyrogroup,
    cyclic_group,
    gyration,
    gyration_symbol_grid,
    powers,
    verify_axioms,
)

# The order-2^n family: half the elements form a cyclic group under
# addition mod 2^(n-1), the other half multiply through a four-case
# modular formula.
g = build_gn(3)
print("G(3) Cayley table:")
for row in g.table:
    print("  ", " ".join(map(str, row)))

report = verify_axioms(g)
print("\ngyrogroup axioms pass:", report.is_gyrogroup)
print("is a group (associative):", report.is_group)
print("gyro-commutative:", report.gyrocommutative)

# Gyrations are computed from the table by left cancellation.
print("\ngyr[4,5] =", gyration(g, 4, 5).map)
print("gyr[0,b] is the identity for every b:",
      all(gyration(g, 0, b).is_identity() for b in g.elements()))

# Every element of the upper half squares to the identity, so its powers
# collapse immediately.
print("\npower closures:")
for a in (1, 4, 7):
    print(f"  <{a}> = {sorted(powers(g, a))}")

# Four published order-8 tables ship with the package.
print("\nbundled tables:")
for name in ("k1", "n1", "g8", "m1"):
    table = bundled_gyrogroup(name)
    r = verify_axioms(table)
    print(f"  {name}: gyrogroup={r.is_gyrogroup} group={r.is_group} "
          f"gyro-commutative={r.gyrocommutative}")

# Their gyration tables use exactly two distinct permutations; the grid
# of which positions carry the identity matches the published layout.
grid, legend = gyration_symbol_grid(bundled_gyrogroup("k1"))
print("\nk1 gyration symbol grid (I = identity):")
for row in grid:
    print("  ", row.replace("X1", "A"))

# A plain group, for contrast: all gyrations are trivial.
z6 = cyclic_group(6)
print("\nZ6 is a group:", verify_axioms(z6).is_group)
