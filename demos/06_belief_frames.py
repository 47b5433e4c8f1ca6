"""Belief frames, brushes, and the bridge into Alexandroff topology.

A serial-transitive-Euclidean relation splits into brush components; the
reflexive-closure neighborhoods generate a topology where the pure belief
fragment evaluates identically at (world, its-cell) scenarios under strong
semantics.
"""

from topobelief.formula import parse
from topobelief.relational import (
    RelationalModel,
    cell_scenario,
    check_modal_equivalence,
    classify,
    decompose,
    eval_relational,
    random_belief_frame,
    to_subset_model,
)
from topobelief.semantics import Semantics, satisfies
from topobelief.topology import format_mask

# The two-world pin: world 0 looks only at world 1, which looks at itself.
pin = RelationalModel(2, frozenset({(0, 1), (1, 1)}), {"p": 0b10})
props = classify(pin)
print("pin flags:", {k: getattr(props, k) for k in props._fields if getattr(props, k)})
print("decomposition:", "; ".join(str(c) for c in decompose(pin).components))

# world 0 believes p although p is false there
print("relational 'B p & ! p' at 0:", eval_relational(pin, 0, parse("B p & ! p")))

# The generated space is the two-point chain with {1} open.
sm = to_subset_model(pin)
print("generated opens:", [format_mask(o) for o in sm.topology.opens])
print("topological 'B p & ! p' at", cell_scenario(pin, 0).literal(), ":",
      satisfies(sm, cell_scenario(pin, 0), parse("B p & ! p"), Semantics.STRONG))

# Seeded frames: the generator draws a partition plus final clusters, so
# it produces exactly the belief frames; the bridge holds on all of them.
corpus = [parse(t) for t in ("B p", "! B p -> B ! B p", "B (p | q) -> hatB p | B q")]
disagreements = 0
for seed in range(1, 101):
    frame = random_belief_frame(seed, 1 + seed % 6)
    for f in corpus:
        if check_modal_equivalence(frame, f) is not None:
            disagreements += 1
print("bridge disagreements over 100 seeded frames x 3 formulas:", disagreements)
