import pytest

from oracles import indiscrete
from topobelief.model import RelationalModel, SubsetModel, dump
from topobelief.topology import Topology


@pytest.fixture
def sierpinski():
    """Two worlds, opens {{}, {0}, {0,1}}, p true exactly at world 0."""
    return SubsetModel(Topology.from_opens(2, [0b00, 0b01, 0b11]), {"p": 0b01})


@pytest.fixture
def wedge():
    """Three worlds, opens {{}, {0}, {1}, {0,1}, X}, p true at 0 and 2."""
    top = Topology.from_opens(3, [0b000, 0b001, 0b010, 0b011, 0b111])
    return SubsetModel(top, {"p": 0b101})


@pytest.fixture
def indiscrete2():
    return SubsetModel(indiscrete(2), {"p": 0b01})


@pytest.fixture
def discrete2():
    return SubsetModel(Topology.discrete(2), {"p": 0b10})


@pytest.fixture
def sierp_path(tmp_path, sierpinski):
    path = tmp_path / "sierp.json"
    path.write_text(dump(sierpinski))
    return str(path)


@pytest.fixture
def pin_path(tmp_path):
    pin = RelationalModel(2, frozenset({(0, 1), (1, 1)}), {"p": 0b10})
    path = tmp_path / "pin.json"
    path.write_text(dump(pin))
    return str(path)
