"""Shared fixtures."""

import pytest

from arcring import arc_ring, integer_linalg, presentations


@pytest.fixture
def hnf_calls(monkeypatch):
    """Shapes of the matrices hermite_normal_form receives during a test.

    Patched in every module that binds the function, so calls through
    the lattice solves and through the ideal spans are both counted.
    """
    calls = []
    real = integer_linalg.hermite_normal_form

    def counting(M):
        calls.append(M.shape)
        return real(M)

    for module in (integer_linalg, presentations):
        monkeypatch.setattr(module, "hermite_normal_form", counting)
    return calls


@pytest.fixture
def plan_compiles(monkeypatch):
    """One entry per strand graph the surgery engine builds.

    Only a ring product with an explicit arc order compiles its plan
    on a SurgeryState, so this counts those compiles.  Default ring
    products and every bimodule product build none.
    """
    built = []
    real = arc_ring.SurgeryState.__init__

    def counting(self, edges, anchors):
        built.append(len(edges))
        real(self, edges, anchors)

    monkeypatch.setattr(arc_ring.SurgeryState, "__init__", counting)
    return built


@pytest.fixture
def cobordism_keys(monkeypatch):
    """One (c, b, a) entry per cobordism key the ring builds."""
    built = []
    real = arc_ring._cobordism_key

    def counting(c, b, a):
        built.append((c, b, a))
        return real(c, b, a)

    monkeypatch.setattr(arc_ring, "_cobordism_key", counting)
    return built


@pytest.fixture
def cobordism_rows(monkeypatch):
    """One (key, rank) entry per label-table row the ring builds.

    A ring builds each row of each distinct key's table at most once,
    however many diagram triples share the key, and only when a
    product needs it.
    """
    built = []
    real = arc_ring._cobordism_row

    def counting(key, rank):
        built.append((key, rank))
        return real(key, rank)

    monkeypatch.setattr(arc_ring, "_cobordism_row", counting)
    return built
