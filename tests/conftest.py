"""Shared fixtures."""

import pytest

from arcring import arc_ring, integer_linalg


@pytest.fixture
def hnf_calls(monkeypatch):
    """Shapes of the matrices hermite_normal_form receives during a test.

    Only integer_linalg binds the function: the lattice solves and the
    kernels call it there.  Canonical spans and the Smith form run the
    echelon loop directly and do not show up here.
    """
    calls = []
    real = integer_linalg.hermite_normal_form

    def counting(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(integer_linalg, "hermite_normal_form", counting)
    return calls


@pytest.fixture
def plan_compiles(monkeypatch):
    """One entry per diagram the saddle-surgery calculus cuts up.

    Only a ring product with an explicit arc order runs the saddles
    one at a time, through _saddle_steps, so this counts those runs.
    Default ring products and every bimodule product run none.
    """
    built = []
    real = arc_ring._saddle_steps

    def counting(c, b, a, arc_order):
        built.append((c, b, a, arc_order))
        return real(c, b, a, arc_order)

    monkeypatch.setattr(arc_ring, "_saddle_steps", counting)
    return built


@pytest.fixture
def cobordism_keys(monkeypatch):
    """One (n, stack, out, arcs) entry per cobordism key built."""
    built = []
    real = arc_ring._cobordism_key

    def counting(n, stack, out, arcs):
        built.append((n, stack, out, arcs))
        return real(n, stack, out, arcs)

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
