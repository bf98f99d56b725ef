"""Shared fixtures."""

import pytest

import element_reference
from arcring import arc_ring, braid_homotopy, center, integer_linalg
from arcring.arc_ring import ArcRing, RingElement, _rank
from arcring.braid_homotopy import UiBimodule
from arcring.center import CenterBasis


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
    """One entry, the routine's arguments, per cobordism key built.

    arc_ring._ring_key is the only key routine: ring kernels key through
    it, and bimodule kernels read their keys off its keys.  Both modules'
    bindings of it are counted.
    """
    built = []

    def counting(real):
        def key(*args):
            built.append(args)
            return real(*args)

        return key

    counted = counting(arc_ring._ring_key)
    for module in (arc_ring, braid_homotopy):
        monkeypatch.setattr(module, "_ring_key", counted)
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


@pytest.fixture
def tampered(monkeypatch):
    """tampered(cls, change) tampers with every kernel cls builds.

    cls is ArcRing or UiBimodule.  From the call on, each kernel it
    builds holds its own filled copy of its table, row r of the kernel
    at blocks (ArcRing: (c, b, a); UiBimodule: (kind, *blocks)) being
    change(space, blocks, r, row).  get_ring, everywhere it is bound,
    hands out fresh rings, so every path of the test (the library's
    index scans and basis methods, and element_reference's element
    maps) reads the tampered tables while the process-wide rings stay
    clean.  Each call starts from fresh rings.
    """
    real = {ArcRing: ArcRing._kernel, UiBimodule: UiBimodule._kernel}

    def install(cls, change):
        rings = {}

        def fresh(n):
            if n not in rings:
                rings[n] = ArcRing(n)
            return rings[n]

        for module in (arc_ring, braid_homotopy, center, element_reference):
            monkeypatch.setattr(module, "get_ring", fresh)

        def building(space, *blocks):
            key, table, out = real[cls](space, *blocks)
            rows = [arc_ring._cobordism_row(key, r) for r in range(len(table))]
            rows = [change(space, blocks, r, row) for r, row in enumerate(rows)]
            kernel = space._kernels[blocks] = (key, rows, out)
            return kernel

        monkeypatch.setattr(cls, "_kernel", building)

    return install


@pytest.fixture
def flip_product(tampered):
    """flip_product(x, y, *pairs) negates the ring product of x and y, and
    that of each further (x, y) in pairs, alone.

    It tampers with one row of the table of triple (x.row, x.col, y.col)
    per pair, at the rank of the word x.labels + y.labels, as tampered()
    does.
    """
    def install(x, y, *pairs):
        targets = {
            ((x.row, x.col, y.col), _rank(x.labels + y.labels)) for x, y in ((x, y), *pairs)
        }

        def flip(ring, blocks, r, row):
            return tuple((o, -c) for o, c in row) if (blocks, r) in targets else row

        tampered(ArcRing, flip)

    return install


@pytest.fixture
def flip_monomial(monkeypatch):
    """flip_monomial(subset) negates one term, the first in matching
    order, of the closed-form product X_subset wherever center builds
    it.  central_X builds each X_i the same way, so flipping a singleton
    also changes that generator.
    """
    real = center._diagonal_monomial

    def install(subset):
        def flipped(n, s):
            z = real(n, s)
            if tuple(s) != tuple(subset):
                return z
            v = next(iter(z.terms))
            return z - RingElement(n, {v: 2 * z.terms[v]})

        monkeypatch.setattr(center, "_diagonal_monomial", flipped)

    return install


@pytest.fixture
def double_center_row(monkeypatch):
    """double_center_row(d) doubles the first row of the degree-d lattice
    of every center center_basis builds, which keeps the ranks and makes
    the lattice an index-2 sublattice of the center."""
    real = center.center_basis

    def install(d):
        def doubled(n):
            lattices = dict(real(n).lattices)
            cols, rows = lattices[d]
            lattices[d] = (cols, [[2 * c for c in rows[0]], *rows[1:]])
            return CenterBasis(n, lattices)

        monkeypatch.setattr(center, "center_basis", doubled)

    return install
