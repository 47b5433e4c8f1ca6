"""Reduction canaries: each named mutant of one function must fail its check.

Every reduction of swept data is pinned by a small check in-process (a
pinned report, a search outcome or an oracle comparison).  A later change
could lose the only test that catches a broken reduction while every test
still passes; so each row here patches one function with a mutant that
breaks the reduction and asserts that the row's check passes on the code
as it is and fails on the mutant.  A new reduction adds its row.
"""

import itertools

import pytest

from oracles import chain_mismatches
from topobelief import model


def _least_under_the_whole_group(automorphisms, n, count):
    """model._orbit_least with each mask least under the whole group, not
    under the stabilizer of the masks before it: it drops tuples such as
    p = {0}, q = {1} on the discrete space, whose swap moves q down only
    by moving p up."""
    least = [m for m in range(1 << n) if all(aut[m] >= m for aut in automorphisms)]
    return itertools.product(least, repeat=count)


# (owner, function name, mutant, check): the check returns what it finds
# wrong, empty on correct code
CANARIES = [
    pytest.param(
        model,
        "_orbit_least",
        _least_under_the_whole_group,
        chain_mismatches,
        id="each-atom-least-under-the-whole-group",
    ),
]


@pytest.mark.parametrize("owner, name, mutant, check", CANARIES)
def test_each_mutant_fails_its_check(monkeypatch, owner, name, mutant, check):
    assert not check()
    monkeypatch.setattr(owner, name, mutant)
    assert check()
