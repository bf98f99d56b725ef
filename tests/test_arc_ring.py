"""The arc ring: basis, grading, multiplication, structural checks.

Dimensions and sample products are frozen from independent counts (the
dimension formula sums block sizes 2^circles, cross-checked against the
distance formula 2^(n - d)).
"""

import itertools
import random

import pytest

import surgery_reference
from arcring.arc_ring import (
    MAX_RING_N,
    ArcRing,
    BasisVector,
    RingElement,
    SurgeryState,
    _BITS,
    _apply_plan,
    _cobordism_components,
    _cobordism_key,
    _cobordism_row,
    _ring_plan,
    commutator_quotient_rank,
    degree,
    get_ring,
    idempotent,
    label_words,
    unit,
    verify_ring_integrity,
)
from arcring.cache import ring_to_payload
from arcring.combinatorics import Matching, distance, enumerate_matchings, glue
from arcring.errors import CapacityError, InvariantError, SizeMismatchError


def test_label_words():
    assert label_words(0) == ("",)
    assert label_words(1) == ("1", "X")
    assert label_words(2) == ("11", "1X", "X1", "XX")
    assert len(label_words(4)) == 16


def test_dimensions():
    assert get_ring(1).dimension == 2
    assert get_ring(2).dimension == 12
    assert get_ring(3).dimension == 104


def test_dimension_formulas():
    for n in (1, 2, 3):
        ring = get_ring(n)
        ms = enumerate_matchings(n)
        by_blocks = sum(
            2 ** len(glue(b, a).circles) for b in ms for a in ms
        )
        by_distance = sum(
            2 ** (n - distance(b, a)) for b in ms for a in ms
        )
        assert ring.dimension == by_blocks == by_distance
        assert sum(ring.block_dims.values()) == ring.dimension


def test_capacity_limits():
    with pytest.raises(CapacityError):
        ArcRing(0)
    with pytest.raises(CapacityError):
        ArcRing(MAX_RING_N + 1)


def test_degree_examples():
    ring = get_ring(2)
    a, b = enumerate_matchings(2)
    assert degree(BasisVector(a, a, "11")) == 0
    assert degree(BasisVector(a, a, "1X")) == 2
    assert degree(BasisVector(a, a, "XX")) == 4
    assert degree(BasisVector(a, b, "1")) == 1
    assert degree(BasisVector(a, b, "X")) == 3
    degs = sorted({degree(v) for v in ring.basis})
    assert degs == [0, 1, 2, 3, 4]
    for n in (1, 2, 3):
        top = max(degree(v) for v in get_ring(n).basis)
        assert top == 2 * n


def test_degree_formula():
    for n in (1, 2, 3):
        for v in get_ring(n).basis:
            circles = len(glue(v.row, v.col).circles)
            assert degree(v) == 2 * v.labels.count("X") + (n - circles)


def test_n1_multiplication_table():
    ring = get_ring(1)
    (a,) = enumerate_matchings(1)
    one = BasisVector(a, a, "1")
    x = BasisVector(a, a, "X")
    assert ring.multiply_basis(one, one) == ((one, 1),)
    assert ring.multiply_basis(one, x) == ((x, 1),)
    assert ring.multiply_basis(x, one) == ((x, 1),)
    assert ring.multiply_basis(x, x) == ()


def test_split_product_example():
    # the two off-diagonal generators multiply to a comultiplied diagonal
    ring = get_ring(2)
    a, b = enumerate_matchings(2)
    x = BasisVector(a, b, "1")
    y = BasisVector(b, a, "1")
    assert ring.multiply_basis(x, y) == (
        (BasisVector(a, a, "1X"), 1),
        (BasisVector(a, a, "X1"), 1),
    )
    assert ring.multiply_basis(y, x) == (
        (BasisVector(b, b, "1X"), 1),
        (BasisVector(b, b, "X1"), 1),
    )


def test_block_law():
    # products vanish unless the inner matchings agree
    ring = get_ring(2)
    for x in ring.basis:
        for y in ring.basis:
            if x.col != y.row:
                assert ring.multiply_basis(x, y) == ()
            else:
                for z, _ in ring.multiply_basis(x, y):
                    assert z.row == x.row and z.col == y.col


def test_idempotents():
    for n in (1, 2, 3):
        ring = get_ring(n)
        for a in ring.order:
            e = idempotent(a)
            assert ring.multiply(e, e) == e
            assert {degree(v) for v in e.terms} == {0}
        for a, b in itertools.permutations(ring.order, 2):
            assert ring.multiply(idempotent(a), idempotent(b)).is_zero()


def test_unit_law():
    for n in (1, 2):
        ring = get_ring(n)
        one = unit(n)
        assert {degree(v) for v in one.terms} == {0}
        for v in ring.basis:
            e = RingElement(n, {v: 1})
            assert ring.multiply(one, e) == e
            assert ring.multiply(e, one) == e


def test_unit_truncates_idempotent_sum():
    ring = get_ring(2)
    one = unit(2)
    assert len(one.terms) == len(ring.order)
    for v in one.terms:
        assert v.row == v.col
        assert set(v.labels) <= {"1"}


def test_grading_multiplicative():
    for n in (1, 2):
        ring = get_ring(n)
        for x in ring.basis:
            for y in ring.basis:
                if x.col != y.row:
                    continue
                for z, c in ring.multiply_basis(x, y):
                    assert c != 0
                    assert degree(z) == degree(x) + degree(y)


def test_associativity_exhaustive_n2():
    ring = get_ring(2)
    by_row = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    for x in ring.basis:
        for y in by_row[x.col]:
            for z in by_row[y.col]:
                ex, ey, ez = (RingElement(2, {v: 1}) for v in (x, y, z))
                assert ring.multiply(ring.multiply(ex, ey), ez) == ring.multiply(
                    ex, ring.multiply(ey, ez)
                )


def test_surgery_order_independence():
    rng = random.Random(11)
    for n in (2, 3):
        ring = get_ring(n)
        pairs = [
            (x, y)
            for x in ring.basis
            for y in ring.basis
            if x.col == y.row and len(x.col.pairs) > 1
        ]
        if len(pairs) > 200:
            pairs = rng.sample(pairs, 200)
        for x, y in pairs:
            base = ring.multiply_basis(x, y)
            arcs = list(x.col.pairs)
            for _ in range(3):
                rng.shuffle(arcs)
                assert ring.multiply_basis(x, y, arc_order=tuple(arcs)) == base


def test_verify_ring_integrity():
    for n in (1, 2, 3):
        report = verify_ring_integrity(n, samples=2000)
        assert report["passed"], report
        assert report["unit_law"]
        assert report["associative"]
        assert report["grading_multiplicative"]
        assert report["surgery_order_independent"]
        assert report["dimension"] == get_ring(n).dimension
    assert verify_ring_integrity(2)["associativity_mode"] == "exhaustive"
    assert verify_ring_integrity(3, samples=500)["associativity_mode"] == "sampled"


def test_ring_element_arithmetic():
    # the ring product of elements; sums and scalars are tested on the
    # shared base in test_frobenius
    ring = get_ring(1)
    (a,) = enumerate_matchings(1)
    one = RingElement(1, {BasisVector(a, a, "1"): 1})
    x = RingElement(1, {BasisVector(a, a, "X"): 1})
    assert (x * x).is_zero()
    assert one * x == ring.multiply(one, x) == x
    assert (one + x) * (one - x) == one
    with pytest.raises(SizeMismatchError):
        one * unit(2)
    with pytest.raises(SizeMismatchError):
        get_ring(2).multiply(one, one)
    with pytest.raises(TypeError):
        x * 2


def test_custom_order_same_products():
    # the same basis vectors multiply identically whatever the order
    base = get_ring(2)
    reversed_ring = ArcRing(2, list(reversed(base.order)))
    assert set(reversed_ring.basis) == set(base.basis)
    for x in base.basis:
        for y in base.basis:
            assert base.multiply_basis(x, y) == reversed_ring.multiply_basis(x, y)
    with pytest.raises(ValueError):
        ArcRing(2, [base.order[0], base.order[0]])


def test_commutator_quotient_ranks():
    assert commutator_quotient_rank(1) == 2
    assert commutator_quotient_rank(2) == 6
    assert commutator_quotient_rank(3) == 20


def _composable_pairs(ring):
    by_row = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    return [(x, y) for x in ring.basis for y in by_row[x.col]]


def test_products_match_reference_exhaustive():
    # compiled plans against label-carrying surgery, every pair n <= 3
    for n in (1, 2, 3):
        ring = ArcRing(n)
        for x, y in _composable_pairs(ring):
            assert ring.multiply_basis(x, y) == surgery_reference.ring_product(x, y)


def test_products_match_reference_sampled_n4():
    ring = ArcRing(4)
    pairs = random.Random(4).sample(_composable_pairs(ring), 2000)
    for x, y in pairs:
        assert ring.multiply_basis(x, y) == surgery_reference.ring_product(x, y)


def test_plan_compile_budget(cobordism_keys, plan_compiles):
    # one cobordism key per composable diagram triple (c, b, a), none on
    # repeat, and no strand graph on the default path
    ring = ArcRing(3)
    pairs = _composable_pairs(ring)
    for x, y in pairs:
        ring.multiply_basis(x, y)
    assert len(cobordism_keys) == len(set(cobordism_keys)) == len(ring.order) ** 3 == 125
    assert len(ring._tables) == 13
    for x, y in pairs:
        ring.multiply_basis(x, y)
    ring._products.clear()
    for x, y in pairs:
        ring.multiply_basis(x, y)
    assert len(cobordism_keys) == 125
    assert plan_compiles == []
    # an explicit arc order compiles exactly one strand graph and caches
    # nothing
    x, y = pairs[-1]
    ring.multiply_basis(x, y, arc_order=tuple(reversed(x.col.pairs)))
    assert len(plan_compiles) == 1
    assert len(cobordism_keys) == 125
    assert len(ring._products) == len(pairs)


def test_kernel_compiled_once_per_triple(monkeypatch):
    # a memo miss reads the triple's kernel and builds only a missing one
    ring = ArcRing(3)
    compiled = []
    real = ring._kernel

    def counting(c, b, a):
        compiled.append((c, b, a))
        return real(c, b, a)

    monkeypatch.setattr(ring, "_kernel", counting)
    pairs = _composable_pairs(ring)
    for x, y in pairs:
        ring.multiply_basis(x, y)
    ring._products.clear()
    for x, y in pairs:
        ring.multiply_basis(x, y)
    assert len(compiled) == len(set(compiled)) == len(ring._kernels) == 125


def test_plan_row_budget(cobordism_keys, cobordism_rows):
    # one table per distinct cobordism key (125 triples share 13 keys at
    # n = 3), each row built once, when a product first needs it
    ring = ArcRing(3)
    pairs = _composable_pairs(ring)
    ring.multiply_basis(*pairs[0])
    assert len(cobordism_rows) == 1
    for x, y in pairs:
        ring.multiply_basis(x, y)
    assert len(cobordism_keys) == 125
    assert len(ring._tables) == 13
    assert len(cobordism_rows) == len(set(cobordism_rows))
    assert len(cobordism_rows) == sum(map(len, ring._tables.values()))
    assert all(None not in table for table in ring._tables.values())
    built = len(cobordism_rows)
    ring._products.clear()
    for x, y in pairs:
        ring.multiply_basis(x, y)
    assert (len(cobordism_keys), len(cobordism_rows)) == (125, built)


def test_plan_row_budget_n4(cobordism_keys, cobordism_rows):
    # the full n = 4 table: 2,744 triples, 64 distinct keys, 3,768 rows
    ring = ArcRing(4)
    ring_to_payload(ring)
    assert len(ring._products) == 85608
    assert len(cobordism_keys) == len(ring.order) ** 3 == 2744
    assert len(ring._tables) == 64
    assert len(cobordism_rows) == len(set(cobordism_rows)) == 3768
    assert len(cobordism_rows) == sum(map(len, ring._tables.values()))


def _surgery_row(plan, word):
    """The product of one label word along a compiled saddle plan, as ranks."""
    return tuple((int(w.translate(_BITS), 2), k) for w, k in _apply_plan(plan, word))


def test_closed_form_rows_match_plans_exhaustive():
    # the component formula against saddle surgery: every triple and
    # every input rank for n <= 4 (85,608 rows at n = 4)
    for n, total in ((1, 4), (2, 72), (3, 2168), (4, 85608)):
        rows = 0
        for c, b, a in itertools.product(enumerate_matchings(n), repeat=3):
            key = _cobordism_key(c, b, a)
            plan = _ring_plan(c, b, a, b.pairs)
            words = label_words(len(glue(c, b).circles) + len(glue(b, a).circles))
            for r, word in enumerate(words):
                assert _cobordism_row(key, r) == _surgery_row(plan, word)
            rows += len(words)
        assert rows == total


def test_closed_form_rows_property_n5():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ms = enumerate_matchings(5)

    @st.composite
    def cases(draw):
        c, b, a = (draw(st.sampled_from(ms)) for _ in range(3))

        def word(lower, upper):
            k = len(glue(lower, upper).circles)
            return "".join(draw(st.lists(st.sampled_from("1X"), min_size=k, max_size=k)))

        x = BasisVector(c, b, word(c, b))
        y = BasisVector(b, a, word(b, a))
        return x, y, tuple(draw(st.permutations(b.pairs)))

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        x, y, arcs = case
        c, b, a = x.row, x.col, y.col
        r = int((x.labels + y.labels).translate(_BITS), 2)
        row = _cobordism_row(_cobordism_key(c, b, a), r)
        assert row == _surgery_row(_ring_plan(c, b, a, arcs), x.labels + y.labels)
        words = label_words(len(glue(c, a).circles))
        got = tuple((BasisVector(c, a, words[o]), k) for o, k in row)
        assert got == surgery_reference.ring_product(x, y, arcs)

    check()


def test_plan_table_rows():
    # the row of a product's label word, read through the output block's
    # slice, is the product
    ring = ArcRing(2)
    for x, y in _composable_pairs(ring):
        product = ring.multiply_basis(x, y)
        plan, table, out = ring._kernels[x.row, x.col, y.col]
        word = x.labels + y.labels
        assert len(table) == 2 ** len(word)
        row = table[label_words(len(word)).index(word)]
        assert tuple((out[o], k) for o, k in row) == product
        assert all(v.row == x.row and v.col == y.col for v in out)


def test_arc_order_must_permute_the_middle_arcs():
    ring = ArcRing(2)
    x, y = next((x, y) for x, y in _composable_pairs(ring) if len(x.col.pairs) == 2)
    arcs = x.col.pairs
    assert ring.multiply_basis(x, y, arc_order=arcs[::-1]) == ring.multiply_basis(x, y)
    for bad in (((9, 10),), arcs + arcs[:1], arcs[:1]):  # foreign, repeated, omitted
        with pytest.raises(ValueError):
            ring.multiply_basis(x, y, arc_order=bad)


def test_product_property_random_orders():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rings = {}

    @st.composite
    def products(draw):
        n = draw(st.integers(1, 4))
        ms = enumerate_matchings(n)
        order = draw(st.permutations(ms))
        c, b, a = (draw(st.sampled_from(ms)) for _ in range(3))

        def word(lower, upper):
            k = len(glue(lower, upper).circles)
            return "".join(draw(st.lists(st.sampled_from("1X"), min_size=k, max_size=k)))

        x = BasisVector(c, b, word(c, b))
        y = BasisVector(b, a, word(b, a))
        return order, x, y, tuple(draw(st.permutations(b.pairs)))

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(products())
    def check(case):
        order, x, y, arcs = case
        want = surgery_reference.ring_product(x, y, arcs)
        # the canonical ring and one with the drawn basis order
        if tuple(order) not in rings:
            rings[tuple(order)] = ArcRing(x.row.n, order)
        for ring in (get_ring(x.row.n), rings[tuple(order)]):
            assert ring.multiply_basis(x, y, arc_order=arcs) == want
            assert ring.multiply_basis(x, y) == want

    check()


def test_surgery_state_topology_checks():
    # two disjoint 2-cycles on points 1-2 and 3-4
    edges = {"a": (1, 2), "b": (1, 2), "c": (3, 4), "d": (3, 4)}
    assert [sorted(c) for c in SurgeryState(edges, [3, 1]).comps] == [[3, 4], [1, 2]]
    for anchors in ([1], [1, 2, 3]):
        with pytest.raises(InvariantError):
            SurgeryState(edges, anchors)
    state = SurgeryState(edges, [1, 3])
    state.surgery("b", "c", ("x", (2, 3)), ("y", (1, 4)))
    assert state.ops == [("merge", 0, 1)]
    with pytest.raises(InvariantError):
        state.finalize(lambda comp: 1)
    assert state.finalize(lambda comp: 0) == ((("merge", 0, 1),), (0,))


def test_cobordism_components_rejects_impossible_genus():
    # a merge: two input circles, one output, one saddle
    assert _cobordism_components(2, 1, [(0, 2), (1, 2)], [0]) == ((0b11, 0b1, 0),)
    # a cylinder with a handle: one saddle too many for genus 0 is odd
    with pytest.raises(InvariantError):
        _cobordism_components(1, 1, [(0, 1)], [0])
    # the merge without its saddle: odd
    with pytest.raises(InvariantError):
        _cobordism_components(2, 1, [(0, 2), (1, 2)], [])
    # three inputs joined to one output with no saddle: negative
    with pytest.raises(InvariantError):
        _cobordism_components(3, 1, [(0, 3), (1, 3), (2, 3)], [])
    # a real product, one circle times one circle into two by two
    # saddles, then the same cobordism with one saddle dropped
    c = a = Matching([(1, 2), (3, 4)])
    b = Matching([(1, 4), (2, 3)])
    links = [(0, 1), (0, 2), (0, 3)]
    assert _cobordism_key(c, b, a) == _cobordism_components(2, 2, links, [0, 0])
    with pytest.raises(InvariantError):
        _cobordism_components(2, 2, links, [0])
