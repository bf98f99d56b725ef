"""The arc ring: basis, grading, multiplication, structural checks.

Dimensions and sample products are frozen from independent counts (the
dimension formula sums block sizes 2^circles, cross-checked against the
distance formula 2^(n - d)).
"""

import itertools
import random

import pytest

import element_reference
import surgery_reference
from arcring import arc_ring
from arcring.arc_ring import (
    MAX_RING_N,
    ArcRing,
    BasisVector,
    RingElement,
    _BITS,
    _circle_masks,
    _cobordism_row,
    _ring_key,
    _saddle_steps,
    _surgery_product,
    degree,
    get_ring,
    label_words,
    verify_ring_integrity,
)
from arcring.cache import ring_to_payload
from arcring.combinatorics import Matching, enumerate_matchings, glue
from arcring.errors import CapacityError, InvariantError, SizeMismatchError
from element_reference import commutator_quotient_rank
from test_combinatorics import arrow_graph_distances


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
        dist = arrow_graph_distances(n)
        by_distance = sum(2 ** (n - dist[b, a]) for b in ms for a in ms)
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
            e = ring.idempotent(a)
            assert ring.multiply(e, e) == e
            assert {degree(v) for v in e.terms} == {0}
        for a, b in itertools.permutations(ring.order, 2):
            assert ring.multiply(ring.idempotent(a), ring.idempotent(b)).is_zero()


def test_unit_law():
    for n in (1, 2):
        ring = get_ring(n)
        one = ring.unit()
        assert {degree(v) for v in one.terms} == {0}
        for v in ring.basis:
            e = RingElement(n, {v: 1})
            assert ring.multiply(one, e) == e
            assert ring.multiply(e, one) == e


def test_unit_truncates_idempotent_sum():
    ring = get_ring(2)
    one = ring.unit()
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
    # every arc order of every composable pair for n <= 3
    for n in (2, 3):
        ring = get_ring(n)
        for x, y in _composable_pairs(ring):
            base = ring.multiply_basis(x, y)
            for arcs in itertools.permutations(x.col.pairs):
                assert ring.multiply_basis(x, y, arc_order=arcs) == base


def _ring_law_fields(report):
    return [(k, v) for k, v in report.items() if k.startswith(("unit", "associativ"))]


def _order_fields(report):
    return [(k, v) for k, v in report.items() if k.startswith(("order", "surgery"))]


def test_ring_integrity_matches_element_level():
    # the index-row unit and associativity checks give the fields the
    # element-level maps give, and the grouped surgery walks the fields
    # of one product per drawn item, key for key and in order
    for n in (1, 2, 3):
        report = verify_ring_integrity(n, samples=2000)
        assert _ring_law_fields(report) == list(
            element_reference.ring_laws_report(n, samples=2000).items()
        )
        assert _order_fields(report) == list(
            element_reference.surgery_order_fields(n, samples=2000).items()
        )


def _idempotent(v):
    return v.row == v.col and "X" not in v.labels


def test_ring_integrity_wrong_sign_matches_element_level(flip_product):
    # one ring product with the wrong sign, in its kernel's table: the
    # unit laws and associativity read off the tables and the
    # element-level maps name the same first failing unit vector and
    # associativity triple
    ring = get_ring(2)
    v = next(v for v in ring.basis if v.row != v.col)
    # an off-diagonal vector times the idempotent of its column breaks
    # the right unit law at that vector
    right_unit = (v, *ring.idempotent(v.col).terms)
    # at n = 3, a sampled triple with no idempotent factor and with
    # (xy)z not zero: its xy with the wrong sign breaks associativity
    # only, since x(yz) does not read xy
    ring3 = get_ring(3)
    x3, y3, _ = next(
        (x, y, z)
        for x, y, z in element_reference.sampled_triples(ring3, random.Random(0), 2000)[0]
        if not any(map(_idempotent, (x, y, z)))
        and not ring3.multiply(
            ring3.multiply(RingElement(3, {x: 1}), RingElement(3, {y: 1})), RingElement(3, {z: 1})
        ).is_zero()
    )
    for n, (x, y) in (
        # an idempotent times an off-diagonal vector breaks the unit law
        (2, next((x, y) for x in ring.basis for y in ring.basis
                 if x.row == x.col == y.row != y.col and "X" not in x.labels)),
        # an X-labeled diagonal vector times an off-diagonal one breaks
        # associativity only
        (2, next((x, y) for x in ring.basis for y in ring.basis
                 if x.row == x.col == y.row != y.col and "X" in x.labels
                 and ring.multiply_basis(x, y))),
        (2, right_unit),
        (3, (x3, y3)),
    ):
        flip_product(x, y)
        report = verify_ring_integrity(n, samples=2000)
        assert not report["passed"]
        assert _ring_law_fields(report) == list(
            element_reference.ring_laws_report(n, samples=2000).items()
        )
        if (x, y) == right_unit:
            assert report["unit_counterexample"] == repr(v)
        if n == 3:
            assert report["unit_law"] and not report["associative"]


def test_ring_integrity_reports_the_first_drawn_order_failure(flip_product):
    # two drawn pairs with a nonzero product of the wrong sign, so each
    # of their arc orders fails.  The check walks one group of items per
    # triple and order, groups in the order of their first item, and the
    # earlier-drawn pair's first item opens a group walked after a group
    # holding an item of the later pair; the report still names the
    # earlier item, as the per-item loop does
    ring = get_ring(3)
    items = element_reference.order_items(ring, samples=2000)
    opened = {}
    for i, (x, y, order) in enumerate(items):
        opened.setdefault((x.row, x.col, y.col, order), i)
    group = [opened[x.row, x.col, y.col, order] for x, y, order in items]
    nonzero = [bool(ring.multiply_basis(x, y)) for x, y, _ in items]
    early, late = next(
        (p, q)
        for p in range(0, len(items), 3)
        if group[p] == p and nonzero[p]
        for q in range(p + 3, len(items), 3)
        if nonzero[q] and min(group[q : q + 3]) < p
    )
    flip_product(*items[early][:2], items[late][:2])
    report = verify_ring_integrity(3, samples=2000)
    x, y, order = items[early]
    assert report["order_counterexample"] == [repr(x), repr(y), list(order)]
    assert report["surgery_order_independent"] is False
    assert _order_fields(report) == list(
        element_reference.surgery_order_fields(3, samples=2000).items()
    )


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_pair_decodes_the_scan(n):
    # position k of the product table is the k-th pair of the list scan,
    # in the canonical and in a shuffled basis order, and the table walk
    # visits the same pairs in the same order
    canonical = get_ring(n).order
    shuffled = list(canonical)
    random.Random(n).shuffle(shuffled)
    assert n == 1 or shuffled != canonical
    for order in (canonical, shuffled):
        ring = ArcRing(n, order)
        pairs = element_reference.composable_pairs(ring)
        count = ring.product_count()
        assert count == len(pairs)
        assert [ring.table_pair(k) for k in range(count)] == pairs
        walked = [
            (ring.basis[xi], ring.basis[yi])
            for xi, chunks in ring.table_rows()
            for y0, _, rows in chunks
            for yi in range(y0, y0 + len(rows))
        ]
        assert walked == pairs
        assert ring._products == {}
        for k in (-1, count):
            with pytest.raises(IndexError):
                ring.table_pair(k)
        # sampling positions draws the same pairs as sampling the list,
        # and leaves the generator in the same state
        k = min(count, 400)
        by_list, by_range = random.Random(7), random.Random(7)
        assert [ring.table_pair(i) for i in by_range.sample(range(count), k)] == by_list.sample(
            pairs, k
        )
        assert by_range.random() == by_list.random()


def test_ring_integrity_fills_no_product_memo(monkeypatch):
    # grading reads the table walk and surgery order decodes sampled
    # positions, so the check multiplies far fewer pairs than the table
    # holds; a grading loop over every pair through multiply_basis would
    # make product_count calls by itself
    calls = []
    real = ArcRing.multiply_basis

    def counting(self, x, y, arc_order=None):
        if arc_order is None:
            calls.append((x, y))
        return real(self, x, y, arc_order)

    monkeypatch.setattr(ArcRing, "multiply_basis", counting)
    report = verify_ring_integrity(3, samples=100)
    assert report["passed"]
    assert len(calls) < get_ring(3).product_count() == 2168


@pytest.mark.parametrize("n", [2, 3])
def test_ring_integrity_wrong_degree_matches_per_pair_scan(monkeypatch, n):
    # one cobordism key's rows moved to output words of the wrong degree:
    # the grading check names the first failing pair of the per-pair scan.
    # The key is the one whose first nonzero product comes last in the
    # scan, so the failure lies past the first row of the table
    probe = ArcRing(n)
    first_use = {}
    for x, y in element_reference.composable_pairs(probe):
        if probe.multiply_basis(x, y):
            first_use.setdefault(probe._kernels[x.row, x.col, y.col][0], (x, y))
    target, (x, y) = list(first_use.items())[-1]
    assert probe.index[x] > 0
    real = arc_ring._cobordism_row

    def wrong(key, rank):
        row = real(key, rank)
        # one output label flipped: the degree moves by 2
        return tuple((o ^ 1, c) for o, c in row) if key == target else row

    monkeypatch.setattr(arc_ring, "_cobordism_row", wrong)
    expected = element_reference.grading_counterexample(ArcRing(n))
    assert expected == [repr(x), repr(y)]
    ring = ArcRing(n)
    monkeypatch.setattr(arc_ring, "get_ring", lambda m: ring)
    report = verify_ring_integrity(n, samples=100)
    assert report["grading_multiplicative"] is False
    assert report["grading_counterexample"] == expected


def test_ring_element_arithmetic():
    # the ring product of elements; sums and scalars are tested on the
    # shared base in test_frobenius
    ring = get_ring(1)
    (a,) = enumerate_matchings(1)
    one = RingElement(1, {BasisVector(a, a, "1"): 1})
    x = RingElement(1, {BasisVector(a, a, "X"): 1})
    assert ring.multiply(x, x).is_zero()
    assert ring.multiply(one, x) == ring.multiply(x, one) == x
    assert ring.multiply(one + x, one - x) == one
    with pytest.raises(SizeMismatchError):
        ring.multiply(one, get_ring(2).unit())
    with pytest.raises(SizeMismatchError):
        get_ring(2).multiply(one, one)
    # elements have no * of their own: the ring multiplies them
    for other in (x, 2):
        with pytest.raises(TypeError):
            x * other


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
    # cobordism kernels against label-carrying surgery, every pair n <= 3
    for n in (1, 2, 3):
        ring = ArcRing(n)
        for x, y in _composable_pairs(ring):
            assert ring.multiply_basis(x, y) == surgery_reference.ring_product(x, y)


def test_products_match_reference_sampled_n4():
    ring = ArcRing(4)
    pairs = random.Random(4).sample(_composable_pairs(ring), 2000)
    for x, y in pairs:
        assert ring.multiply_basis(x, y) == surgery_reference.ring_product(x, y)


def test_payload_matches_reference_sampled_n4():
    # the cache's block walk against memoized products and surgery
    ring, fresh = ArcRing(4), ArcRing(4)
    basis = ring.basis
    for xi, yi, terms in random.Random(4).sample(ring_to_payload(ring)["products"], 2000):
        x, y = basis[xi], basis[yi]
        product = tuple((basis[zi], c) for zi, c in terms)
        assert product == fresh.multiply_basis(x, y) == surgery_reference.ring_product(x, y)


def test_plan_compile_budget(cobordism_keys, plan_compiles):
    # one cobordism key per composable diagram triple (c, b, a), none on
    # repeat, and no saddle surgery on the default path; two triples can
    # hand the key routine equal lines, so one key per kernel is counted
    ring = ArcRing(3)
    pairs = _composable_pairs(ring)
    for x, y in pairs:
        ring.multiply_basis(x, y)
    assert len(cobordism_keys) == len(ring._kernels) == len(ring.order) ** 3 == 125
    assert len(ring._tables) == 13
    for x, y in pairs:
        ring.multiply_basis(x, y)
    ring._products.clear()
    for x, y in pairs:
        ring.multiply_basis(x, y)
    assert len(cobordism_keys) == 125
    assert plan_compiles == []
    # an explicit arc order cuts the diagram once by saddle surgery and
    # caches nothing
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
    # the full n = 4 table: 2,744 triples, 64 distinct keys, 3,768 rows,
    # walked block by block without filling the product memo
    ring = ArcRing(4)
    ring_to_payload(ring)
    assert ring._products == {}
    assert len(cobordism_keys) == len(ring._kernels) == len(ring.order) ** 3 == 2744
    assert len(ring._tables) == 64
    assert len(cobordism_rows) == len(set(cobordism_rows)) == 3768
    assert len(cobordism_rows) == sum(map(len, ring._tables.values()))


def _triple_key(c, b, a):
    """The cobordism key of ring triple (c, b, a), as the ring builds it."""
    return _ring_key(*(_circle_masks(*block) for block in ((c, b), (b, a), (c, a))))


def _surgery_row(steps, word):
    """The product of one label word along saddle steps, as ranks."""
    return tuple((int(w.translate(_BITS), 2), k) for w, k in _surgery_product(steps, word))


def test_closed_form_rows_match_plans_exhaustive():
    # the component formula against saddle surgery: every triple and
    # every input rank for n <= 4 (85,608 rows at n = 4); the steps are
    # cut once per triple and carry every word of it
    for n, total in ((1, 4), (2, 72), (3, 2168), (4, 85608)):
        rows = 0
        for c, b, a in itertools.product(enumerate_matchings(n), repeat=3):
            key = _triple_key(c, b, a)
            steps = _saddle_steps(c, b, a, b.pairs)
            words = label_words(len(glue(c, b).circles) + len(glue(b, a).circles))
            for r, word in enumerate(words):
                assert _cobordism_row(key, r) == _surgery_row(steps, word)
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
        row = _cobordism_row(_triple_key(c, b, a), r)
        assert row == _surgery_row(_saddle_steps(c, b, a, arcs), x.labels + y.labels)
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
        key, table, out = ring._kernels[x.row, x.col, y.col]
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


def test_saddle_steps_reject_an_arc_cut_twice():
    # each cut of the product diagram merges two circles or splits one;
    # a second cut of the same arc does neither
    c = a = Matching([(1, 2), (3, 4)])
    b = Matching([(1, 4), (2, 3)])
    steps = _saddle_steps(c, b, a, b.pairs)
    # two circles merge into one, which splits into the two of glue(c, a)
    assert steps == [((), (0, 1), (0,)), ((), (0,), (0, 1))]
    for arcs in (b.pairs + b.pairs[:1], b.pairs[:1] * 2):
        with pytest.raises(InvariantError):
            _saddle_steps(c, b, a, arcs)


def test_ring_key_rejects_impossible_genus():
    # hand-built blocks, each circle the mask of its points (bit e):
    # the merge of the n = 1 triple and a product of one circle by one
    # circle into two by two saddles, then one circle into itself
    # through two saddles (odd) and one circle through one saddle into
    # two outputs (negative)
    assert _triple_key(*[Matching([(1, 2)])] * 3) == _ring_key((0b110,), (0b110,), (0b110,))
    assert _ring_key((0b110,), (0b110,), (0b110,)) == ((0b11, 0b1, 0),)
    c = a = Matching([(1, 2), (3, 4)])
    b = Matching([(1, 4), (2, 3)])
    assert _triple_key(c, b, a) == surgery_reference.ring_link_key(c, b, a)
    assert _ring_key((0b11110,), (0b11110,), (0b00110, 0b11000)) == ((0b11, 0b11, 0),)
    assert _triple_key(c, b, a) == ((0b11, 0b11, 0),)
    with pytest.raises(InvariantError):
        _ring_key((0b11110,), (0b11110,), (0b11110,))
    with pytest.raises(InvariantError):
        _ring_key((0b110,), (0b110,), (0b010, 0b100))


def test_ring_keys_match_link_keys_n5():
    # the ring's key routine against the link union-find, for all
    # 74,088 triples at n = 5
    ms = enumerate_matchings(5)
    masks = {(b, a): _circle_masks(b, a) for b in ms for a in ms}
    for c, b, a in itertools.product(ms, repeat=3):
        key = _ring_key(masks[c, b], masks[b, a], masks[c, a])
        assert key == surgery_reference.ring_link_key(c, b, a)


def test_ring_key_property():
    # random matching triples up to n = 6, where the table has 2.3
    # million of them
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def triples(draw):
        ms = enumerate_matchings(draw(st.integers(1, 6)))
        return tuple(draw(st.sampled_from(ms)) for _ in range(3))

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(triples())
    def check(triple):
        assert _triple_key(*triple) == surgery_reference.ring_link_key(*triple)

    check()


def test_cobordism_keys_match_link_reference():
    # the mask key of every ring triple against the link union-find, so
    # the sharing of tables by key (13 at n = 3, 64 at n = 4) is pinned
    # with the keys themselves
    for n, tables in ((1, 1), (2, 3), (3, 13), (4, 64)):
        ring = ArcRing(n)
        for c, b, a in itertools.product(ring.order, repeat=3):
            assert ring._kernel(c, b, a)[0] == surgery_reference.ring_link_key(c, b, a)
        assert len(ring._tables) == tables
