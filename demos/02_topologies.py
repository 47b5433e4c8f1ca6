"""Finite topologies: generation, interior/closure, density, almost-inclusion."""

from topobelief.topology import (
    Topology,
    enumerate_topologies,
    find_violation,
    format_mask,
    generate_from_subbasis,
)

# Subsets are bitmasks: world i is bit i.  The two-point space with opens
# {}, {0}, {0,1} is the smallest space where belief and knowledge differ.
sierp = Topology.from_opens(2, [0b00, 0b01, 0b11])
print("opens:", [format_mask(o) for o in sierp.opens])
print("int {1} =", format_mask(sierp.interior(0b10)))
print("cl  {0} =", format_mask(sierp.closure(0b01)))
print("{0} dense in X:", sierp.is_dense_in(0b01, 0b11))
print("{1} nowhere dense:", sierp.is_nowhere_dense(0b10))

# Almost-inclusion: X is almost inside {0} because the difference {1} is
# nowhere dense -- the 'negligible' sets of almost-everywhere belief.
print("X almost-in {0}:", sierp.almost_subset(0b11, 0b01))
print("X almost-in {1}:", sierp.almost_subset(0b11, 0b10))

# Families that fail to be topologies are reported with a witness.
print(find_violation(3, [0b000, 0b001, 0b010, 0b111]))

# Generation: each point's smallest open is the intersection of the subbasis
# members around it, and the opens are the unions of those sets.
t = generate_from_subbasis(3, [0b001, 0b010])
print("generated opens:", [format_mask(o) for o in t.opens])

# Every labeled topology on up to four points, by the preorder route.
for n in (1, 2, 3, 4):
    print(f"labeled topologies on {n} point(s):", sum(1 for _ in enumerate_topologies(n)))
