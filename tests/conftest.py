"""Shared fixtures."""

import pytest

from arcring import integer_linalg, presentations


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
