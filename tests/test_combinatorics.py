"""Crossingless matchings: enumeration, gluing, arrows, nesting graphs.

Expected counts are frozen from brute-force oracles computed in this
file (exhaustive pairing filter, breadth-first search on the arrow
graph) and checked against the library's faster routines.
"""

import doctest
import itertools
import math
import random
from functools import lru_cache

import pytest

import arcring.combinatorics
from arcring.combinatorics import (
    Matching,
    _check_same_n,
    admissible_subsets,
    all_linear_extensions,
    arrows,
    bottom_arc_count,
    catalan,
    enumerate_matchings,
    glue,
    is_admissible,
    is_crossingless,
    matching_graph,
    total_order,
)
from arcring.errors import InvariantError, SizeMismatchError


@lru_cache(maxsize=None)
def _reachability(n: int) -> dict[Matching, frozenset[Matching]]:
    """reach[a] = set of matchings reachable from a by arrow chains (incl. a)."""
    ms = enumerate_matchings(n)
    succ = {a: set() for a in ms}
    for a, b in arrows(n):
        succ[a].add(b)
    reach: dict[Matching, frozenset[Matching]] = {}

    def visit(a: Matching) -> frozenset[Matching]:
        if a in reach:
            return reach[a]
        acc = {a}
        for b in succ[a]:
            acc |= visit(b)
        reach[a] = frozenset(acc)
        return reach[a]

    # the arrow digraph is acyclic (arrows strictly increase nesting),
    # so the recursion terminates; a cycle would overflow the stack
    for a in ms:
        visit(a)
    return reach


def precedes(a: Matching, b: Matching) -> bool:
    """True if a strictly precedes b: some chain of arrows leads a to b."""
    _check_same_n(a, b)
    return a != b and b in _reachability(a.n)[a]


def find_sink(a: Matching, b: Matching) -> Matching:
    """A common predecessor c of a and b on a geodesic between them.

    Returns the canonically first matching c with arrow chains from c to
    a and from c to b (allowing c = a or c = b) such that
    distance(a, b) = distance(a, c) + distance(c, b).  Such a c always
    exists; failure to find one is reported as an invariant violation.
    """
    _check_same_n(a, b)
    reach = _reachability(a.n)
    d_ab = distance(a, b)
    for c in enumerate_matchings(a.n):
        if a in reach[c] and b in reach[c]:
            if distance(a, c) + distance(c, b) == d_ab:
                return c
    raise InvariantError(f"no geodesic common predecessor for {a} and {b}")


def distance(a: Matching, b: Matching) -> int:
    """n minus the number of circles of glue(a, b): the arrow distance,
    which test_distance_against_bfs checks against the arrow graph."""
    return a.n - len(glue(a, b).circles)


def brute_force_matchings(n):
    """Oracle: filter all perfect pairings of 1..2n for crossings."""
    points = list(range(1, 2 * n + 1))

    def pairings(pts):
        if not pts:
            yield ()
            return
        first = pts[0]
        for k in range(1, len(pts)):
            rest = pts[1:k] + pts[k + 1 :]
            for sub in pairings(rest):
                yield ((first, pts[k]),) + sub

    return sorted(
        pairs for pairs in pairings(points) if is_crossingless(tuple(sorted(pairs)))
    )


def arrow_graph_distances(n):
    """Oracle: BFS over the undirected arrow graph, all sources."""
    ms = enumerate_matchings(n)
    adj = {m: set() for m in ms}
    for a, b in arrows(n):
        adj[a].add(b)
        adj[b].add(a)
    dist = {}
    for src in ms:
        seen = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
        for tgt, d in seen.items():
            dist[(src, tgt)] = d
    return dist


def test_doctests():
    failures, _ = doctest.testmod(arcring.combinatorics)
    assert failures == 0


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_enumeration_matches_brute_force():
    for n in range(4):
        expected = brute_force_matchings(n)
        got = [m.pairs for m in enumerate_matchings(n)]
        assert got == [tuple(sorted(p)) for p in expected]


def test_enumeration_returns_fresh_lists():
    for n in range(4):
        first = enumerate_matchings(n)
        expected = list(first)
        first.reverse()
        first.append(None)
        assert enumerate_matchings(n) == expected
        assert enumerate_matchings(n) is not enumerate_matchings(n)


def test_enumeration_counts():
    for n in range(7):
        assert len(enumerate_matchings(n)) == catalan(n)


def test_matching_validation():
    interned = dict(Matching._interned)
    for pairs, n in (
        ([(1, 3), (2, 4)], None),  # crossing
        ([(1, 2), (2, 3)], None),  # repeated point
        ([(1, 2), (5, 6)], None),  # points 3 and 4 uncovered
        ([(1, 2)], 2),  # wrong size
        ([(1, 2), (3, 4)], 1),  # wrong size for an interned pair tuple
    ):
        with pytest.raises(ValueError):
            Matching(pairs, n)
    # a rejected matching leaves nothing in the intern table
    assert Matching._interned == interned
    m = Matching([(3, 4), (1, 2)])
    assert m.pairs == ((1, 2), (3, 4))
    assert m.partner[3] == 4 and m.partner[2] == 1


def test_matchings_are_interned():
    # one object per pair tuple, however the pairs are written down
    for n in range(5):
        for m in enumerate_matchings(n):
            assert Matching(m.pairs) is m
            assert Matching(m.pairs[::-1]) is m
            assert Matching([(j, i) for i, j in m.pairs], n) is m
    # equality and hashing are object identity, run in C; order is by pairs
    assert Matching.__eq__ is object.__eq__
    assert Matching.__hash__ is object.__hash__
    a, b = enumerate_matchings(2)
    assert a < b and a <= a and not b < a


def test_arc_endpoint_parity():
    # every arc of a crossingless matching encloses an even gap
    for n in range(1, 5):
        for m in enumerate_matchings(n):
            for i, j in m.pairs:
                assert (i + j) % 2 == 1


def test_glue_examples():
    a = Matching([(1, 2), (3, 4)])
    b = Matching([(1, 4), (2, 3)])
    assert glue(a, a).circles == ((1, 2), (3, 4))
    assert glue(b, b).circles == ((1, 4), (2, 3))
    assert glue(a, b).circles == ((1, 2, 3, 4),)
    # the walk leaves 1 through the lower matching first
    assert glue(b, a).circles == ((1, 4, 3, 2),)


def test_glue_and_graph_records_are_frozen_values():
    a = Matching([(1, 2), (3, 4)])
    b = Matching([(1, 4), (2, 3)])
    # glue is cached: its undecorated body builds a second, equal record
    pairs = [(glue(a, b), glue.__wrapped__(a, b)), (matching_graph(b), matching_graph(b))]
    for record, rebuilt in pairs:
        assert record is not rebuilt
        assert record == rebuilt and hash(record) == hash(rebuilt)
        assert len({record, rebuilt}) == 1
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_glue_partitions_endpoints():
    for n in range(1, 5):
        ms = enumerate_matchings(n)
        for a, b in itertools.product(ms, repeat=2):
            diagram = glue(a, b)
            flat = sorted(p for circ in diagram.circles for p in circ)
            assert flat == list(range(1, 2 * n + 1))
            # circles listed by smallest endpoint, walk starts there
            starts = [circ[0] for circ in diagram.circles]
            assert starts == sorted(starts)
            assert all(circ[0] == min(circ) for circ in diagram.circles)
            for p in range(1, 2 * n + 1):
                assert p in diagram.circles[diagram.endpoint_to_circle[p]]


def _union_find_blocks(n, arcs):
    """The blocks of the partition of 1..2n that the arcs join, each a
    sorted tuple, listed by smallest endpoint."""
    parent = list(range(2 * n + 1))

    def root(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for i, j in arcs:
        parent[root(i)] = root(j)
    blocks = {}
    for p in range(1, 2 * n + 1):
        blocks.setdefault(root(p), []).append(p)
    return sorted(tuple(block) for block in blocks.values())


def test_glue_property_against_union_find():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def pairs(draw):
        ms = enumerate_matchings(draw(st.integers(1, 5)))
        return draw(st.sampled_from(ms)), draw(st.sampled_from(ms))

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(pairs())
    def check(case):
        a, b = case
        diagram = glue(a, b)
        # the circles, as point sets, are the union-find blocks of the
        # arcs of both matchings, in order of their smallest endpoint
        assert [tuple(sorted(c)) for c in diagram.circles] == _union_find_blocks(
            a.n, a.pairs + b.pairs
        )
        for circle in diagram.circles:
            # each walk starts at its smallest endpoint and alternates
            # a-arcs and b-arcs, the first step through a
            assert circle[0] == min(circle)
            for step, p in enumerate(circle):
                partner = (a if step % 2 == 0 else b).partner[p]
                assert partner == circle[(step + 1) % len(circle)]
        assert diagram.endpoint_to_circle[1:] == tuple(
            next(k for k, c in enumerate(diagram.circles) if p in c) for p in range(1, 2 * a.n + 1)
        )

    check()


def test_glue_symmetric_circle_count():
    for n in range(1, 5):
        ms = enumerate_matchings(n)
        for a, b in itertools.combinations(ms, 2):
            assert len(glue(a, b).circles) == len(glue(b, a).circles)


def test_glue_size_mismatch():
    with pytest.raises(SizeMismatchError):
        glue(Matching([(1, 2)]), Matching([(1, 2), (3, 4)]))


def test_distance_against_bfs():
    for n in range(1, 5):
        oracle = arrow_graph_distances(n)
        ms = enumerate_matchings(n)
        for a, b in itertools.product(ms, repeat=2):
            assert distance(a, b) == oracle[(a, b)]


def test_distance_metric_axioms():
    for n in range(1, 5):
        ms = enumerate_matchings(n)
        for a, b in itertools.product(ms, repeat=2):
            assert distance(a, b) == distance(b, a)
            assert (distance(a, b) == 0) == (a == b)
        rng = random.Random(7)
        triples = list(itertools.product(ms, repeat=3))
        if len(triples) > 3000:
            triples = rng.sample(triples, 3000)
        for a, b, c in triples:
            assert distance(a, b) <= distance(a, c) + distance(c, b)


def test_arrow_counts():
    assert [len(arrows(n)) for n in range(1, 5)] == [0, 1, 6, 28]


def test_arrow_n2_unique():
    (a, b), = arrows(2)
    assert a.pairs == ((1, 2), (3, 4))
    assert b.pairs == ((1, 4), (2, 3))


def test_arrows_are_distance_one():
    for n in range(1, 5):
        for a, b in arrows(n):
            assert distance(a, b) == 1
            assert len(set(a.pairs) ^ set(b.pairs)) == 4  # differ in 2 arcs


def test_arrows_nest():
    # each arrow replaces side-by-side arcs with nested ones
    for n in range(2, 5):
        for a, b in arrows(n):
            gained = sorted(set(b.pairs) - set(a.pairs))
            (j, k), (i, l) = sorted(gained, key=lambda p: p[1] - p[0])
            assert i < j < k < l


def test_precedes_is_strict_partial_order():
    for n in range(1, 5):
        ms = enumerate_matchings(n)
        for a in ms:
            assert not precedes(a, a)
        for a, b in itertools.permutations(ms, 2):
            if precedes(a, b):
                assert not precedes(b, a)
        for a, b, c in itertools.permutations(ms, 3):
            if precedes(a, b) and precedes(b, c):
                assert precedes(a, c)


def test_total_order_n2():
    assert [m.pairs for m in total_order(2)] == [
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    ]


def test_total_order_n3():
    assert [m.pairs for m in total_order(3)] == [
        ((1, 2), (3, 4), (5, 6)),
        ((1, 2), (3, 6), (4, 5)),
        ((1, 4), (2, 3), (5, 6)),
        ((1, 6), (2, 3), (4, 5)),
        ((1, 6), (2, 5), (3, 4)),
    ]


def test_total_order_extends_arrows():
    for n in range(1, 5):
        order = total_order(n)
        assert sorted(order) == enumerate_matchings(n)
        pos = {m: i for i, m in enumerate(order)}
        for a, b in arrows(n):
            assert pos[a] < pos[b]


def test_all_linear_extensions_counts():
    assert len(all_linear_extensions(1)) == 1
    assert len(all_linear_extensions(2)) == 1
    assert len(all_linear_extensions(3)) == 2


def test_all_linear_extensions_are_extensions():
    for n in range(1, 4):
        for order in all_linear_extensions(n):
            pos = {m: i for i, m in enumerate(order)}
            for a, b in arrows(n):
                assert pos[a] < pos[b]
        assert total_order(n) in all_linear_extensions(n)


def test_find_sink_n2():
    a, b = enumerate_matchings(2)
    assert find_sink(a, b).pairs == ((1, 2), (3, 4))


def test_find_sink_all_pairs():
    for n in range(1, 5):
        ms = enumerate_matchings(n)
        for a, b in itertools.product(ms, repeat=2):
            c = find_sink(a, b)
            assert distance(a, c) + distance(c, b) == distance(a, b)
            assert c == a or precedes(c, a)
            assert c == b or precedes(c, b)


def test_matching_graph_examples():
    g = matching_graph(Matching([(1, 2), (3, 4)]))
    assert g.edges == ()
    assert len(g.components) == 2
    g = matching_graph(Matching([(1, 4), (2, 3)]))
    assert g.edges == (((1, 4), (2, 3)),)
    assert g.marks == ((1, 4),)


def test_matching_graph_nested_chain_is_path():
    g = matching_graph(Matching([(1, 6), (2, 5), (3, 4)]))
    assert sorted(g.edges) == [(((1, 6), (2, 5))), ((2, 5), (3, 4))]
    assert len(g.components) == 1
    assert g.marks == ((1, 6),)


def test_matching_graph_is_forest():
    for n in range(1, 6):
        for m in enumerate_matchings(n):
            g = matching_graph(m)
            assert len(g.vertices) == n
            # forests satisfy |V| = |E| + #components
            assert len(g.edges) + len(g.components) == n
            assert g.marks == tuple(min(c) for c in g.components)


def test_bottom_arcs_count_components():
    for n in range(1, 6):
        for m in enumerate_matchings(n):
            assert bottom_arc_count(m) == len(matching_graph(m).components)


def test_component_count_identity():
    # summing 2^(tree count) over all matchings gives a central binomial
    for n in range(1, 7):
        total = sum(2 ** bottom_arc_count(m) for m in enumerate_matchings(n))
        assert total == math.comb(2 * n, n)


def test_admissible_examples():
    assert admissible_subsets(1) == [(), (2,)]
    assert admissible_subsets(2) == [(), (2,), (3,), (4,), (2, 4), (3, 4)]


def test_admissible_counts():
    for n in range(1, 7):
        assert len(admissible_subsets(n)) == math.comb(2 * n, n)


def test_admissible_prefix_condition():
    for n in range(1, 4):
        universe = range(1, 2 * n + 1)
        for k in range(2 * n + 1):
            for sub in itertools.combinations(universe, k):
                expected = all(
                    sum(1 for x in sub if x <= m) <= m // 2
                    for m in range(1, 2 * n + 1)
                )
                assert is_admissible(sub, n) == expected


def test_admissible_rejects_foreign_points():
    with pytest.raises(ValueError):
        is_admissible((5,), 1)
