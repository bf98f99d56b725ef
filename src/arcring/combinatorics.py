"""Crossingless matchings of 2n points and their combinatorics.

A crossingless matching pairs up the points 1, ..., 2n on a line so that
the connecting arcs, drawn in the upper half plane, are disjoint.  There
are Catalan(n) of them.  This module provides their enumeration, the
closed diagrams obtained by gluing two matchings, the arrow relation and
the partial order it generates, the nesting graph of a single matching,
and the admissible subsets of [1, 2n] that index monomial bases later on.

Matchings are interned, one object per pair tuple, so equality is
identity and a matching hashes by identity; ordering is by pairs.  A
set of matchings therefore iterates in an order that changes from one
process to the next, so nothing that reaches a report, an order or a
file may iterate one: sort it, or iterate a list or a dict instead.

Endpoints are numbered 1..2n throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantError

Pair = tuple[int, int]


def catalan(n: int) -> int:
    """Number of crossingless matchings of 2n points.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    return math.comb(2 * n, n) // (n + 1)


def is_crossingless(pairs: tuple[Pair, ...]) -> bool:
    """True if no two pairs (i, k), (j, l) interleave as i < j < k < l."""
    for (i, k), (j, l) in itertools.combinations(pairs, 2):
        if i < j < k < l or j < i < l < k:
            return False
    return True


class Matching:
    """A crossingless perfect matching of the points 1..2n.

    Stored as a sorted tuple of (smaller, larger) endpoint pairs.
    Matchings are interned: constructing one returns the existing
    instance for its pair tuple, so there is exactly one object per
    matching, equality is identity and hashing is by identity, both in
    C.  Matchings sort lexicographically on their pairs.

    >>> m = Matching([(3, 4), (1, 2)])
    >>> m.pairs
    ((1, 2), (3, 4))
    >>> m.partner[1], m.partner[4]
    (2, 3)
    >>> Matching([(2, 1), (4, 3)]) is m
    True
    """

    __slots__ = ("n", "pairs", "partner")

    _interned: dict[tuple[Pair, ...], Matching] = {}

    def __new__(cls, pairs, n: int | None = None):
        norm = tuple(sorted((min(p), max(p)) for p in pairs))
        if n is None:
            n = len(norm)
        if len(norm) != n:
            raise ValueError(f"expected {n} pairs, got {len(norm)}")
        self = cls._interned.get(norm)
        if self is not None:
            return self
        seen = [p for pair in norm for p in pair]
        if sorted(seen) != list(range(1, 2 * n + 1)):
            raise ValueError(f"pairs {norm} do not cover 1..{2*n} exactly once")
        if not is_crossingless(norm):
            raise ValueError(f"pairs {norm} cross")
        partner = [0] * (2 * n + 1)
        for i, j in norm:
            # each arc encloses an even number of points, so i + j is odd
            if (i + j) % 2 == 0:
                raise InvariantError(f"arc ({i}, {j}) has even endpoint sum")
            partner[i], partner[j] = j, i
        self = super().__new__(cls)
        self.n = n
        self.pairs = norm
        self.partner = tuple(partner)
        return cls._interned.setdefault(norm, self)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __le__(self, other):
        return self.pairs <= other.pairs

    def __repr__(self):
        return f"Matching({list(self.pairs)!r})"


@dataclass(frozen=True)
class ClosedDiagram:
    """The closed 1-manifold glued from a lower and an upper matching.

    Each circle is recorded as its cyclic endpoint walk, starting at the
    circle's smallest endpoint and stepping first through the lower
    matching.  Circles are listed in increasing order of their smallest
    endpoint; that ordering fixes how circle labelings are written down
    everywhere else in the package.
    """

    n: int
    circles: tuple[tuple[int, ...], ...]
    endpoint_to_circle: tuple[int, ...]


def _check_same_n(a: Matching, b: Matching) -> None:
    if a.n != b.n:
        from .errors import SizeMismatchError

        raise SizeMismatchError(f"matchings of sizes {a.n} and {b.n}")


@lru_cache(maxsize=None)
def glue(a: Matching, b: Matching) -> ClosedDiagram:
    """Close up matching a below and the reflection of b above.

    The union of the two pairings gives every endpoint degree two, so the
    result is a disjoint union of circles that alternate between a-arcs
    and b-arcs.

    >>> a = Matching([(1, 2), (3, 4)]); b = Matching([(1, 4), (2, 3)])
    >>> glue(a, a).circles
    ((1, 2), (3, 4))
    >>> glue(a, b).circles
    ((1, 2, 3, 4),)
    """
    _check_same_n(a, b)
    n = a.n
    seen = [False] * (2 * n + 1)
    circles: list[tuple[int, ...]] = []
    owner = [-1] * (2 * n + 1)
    for start in range(1, 2 * n + 1):
        if seen[start]:
            continue
        walk = []
        p, use_lower = start, True
        while True:
            walk.append(p)
            seen[p] = True
            owner[p] = len(circles)
            p = (a.partner if use_lower else b.partner)[p]
            use_lower = not use_lower
            if p == start and use_lower:
                break
        circles.append(tuple(walk))
    return ClosedDiagram(n, tuple(circles), tuple(owner))


def enumerate_matchings(n: int) -> list[Matching]:
    """All crossingless matchings of 1..2n, lexicographically sorted.

    Enumerated once per n; each call returns a fresh list, which the
    caller may reorder or mutate.

    >>> [m.pairs for m in enumerate_matchings(2)]
    [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    >>> len(enumerate_matchings(4))
    14
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_matchings(n))


@lru_cache(maxsize=None)
def _matchings(n: int) -> tuple[Matching, ...]:
    def rec(points: tuple[int, ...]) -> list[tuple[Pair, ...]]:
        if not points:
            return [()]
        first = points[0]
        out = []
        # first can only pair inside an even-length prefix split
        for idx in range(1, len(points), 2):
            j = points[idx]
            inner = rec(points[1:idx])
            outer = rec(points[idx + 1 :])
            for ms_in in inner:
                for ms_out in outer:
                    out.append(((first, j),) + ms_in + ms_out)
        return out

    found = [Matching(pairs, n) for pairs in rec(tuple(range(1, 2 * n + 1)))]
    found.sort()
    if len(found) != catalan(n):
        raise InvariantError(f"enumerated {len(found)} matchings, expected {catalan(n)}")
    return tuple(found)


@lru_cache(maxsize=None)
def arrows(n: int) -> tuple[tuple[Matching, Matching], ...]:
    """All arrow moves a -> b between crossingless matchings of 2n points.

    There is an arrow a -> b when b is obtained from a by replacing two
    side-by-side arcs (i, j), (k, l) with i < j < k < l by the nested
    arcs (i, l), (j, k), provided the result is still crossingless.  The
    two matchings then differ in exactly those two arcs.
    """
    out = []
    for a in enumerate_matchings(n):
        for (i, j), (k, l) in itertools.combinations(a.pairs, 2):
            if j > k:
                continue  # nested or out of order, not side by side
            pairs = tuple(p for p in a.pairs if p not in ((i, j), (k, l)))
            candidate = pairs + ((i, l), (j, k))
            if is_crossingless(candidate):
                out.append((a, Matching(candidate, n)))
    out.sort(key=lambda e: (e[0].pairs, e[1].pairs))
    return tuple(out)


def total_order(n: int) -> list[Matching]:
    """A deterministic linear extension of the arrow order.

    The first extension all_linear_extensions finds: whenever several
    matchings have no remaining predecessors, the lexicographically
    smallest pair list goes first (Kahn's algorithm with lexicographic
    tie-break).  Arrow sources always appear before arrow targets.

    >>> [m.pairs for m in total_order(2)]
    [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    """
    extensions = all_linear_extensions(n, cap=1)
    if not extensions:
        raise InvariantError("arrow digraph has a cycle")
    return extensions[0]


def all_linear_extensions(n: int, cap: int = 1000) -> list[list[Matching]]:
    """Every linear extension of the arrow order, up to cap many.

    Exhaustive backtracking that always tries the lexicographically
    smallest ready matching first, so the extensions come out in lex
    order and the first is total_order's.  Intended for small n where
    the extension count is tiny (n <= 3 admits at most two); cap=1
    costs a single descent.
    """
    ms = enumerate_matchings(n)
    succ = {a: [] for a in ms}
    indeg = {a: 0 for a in ms}
    for a, b in arrows(n):
        succ[a].append(b)
        indeg[b] += 1
    out: list[list[Matching]] = []
    prefix: list[Matching] = []

    def rec():
        if len(out) >= cap:
            return
        if len(prefix) == len(ms):
            out.append(list(prefix))
            return
        for a in sorted(m for m in ms if indeg[m] == 0):
            indeg[a] = -1
            for b in succ[a]:
                indeg[b] -= 1
            prefix.append(a)
            rec()
            prefix.pop()
            for b in succ[a]:
                indeg[b] += 1
            indeg[a] = 0

    rec()
    return out


@dataclass(frozen=True)
class MatchingGraph:
    """The nesting graph of one matching.

    Vertices are the arcs.  Two arcs are adjacent when they are nested
    and the move that un-nests them (the reverse of an arrow move)
    produces a crossingless matching.  The graph is always a forest;
    marks select one arc per tree, the one with the smallest left
    endpoint.
    """

    vertices: tuple[Pair, ...]
    edges: tuple[tuple[Pair, Pair], ...]
    marks: tuple[Pair, ...]
    components: tuple[frozenset[Pair], ...]


def matching_graph(a: Matching) -> MatchingGraph:
    """Build the nesting graph of a.

    >>> g = matching_graph(Matching([(1, 4), (2, 3)]))
    >>> g.edges
    (((1, 4), (2, 3)),)
    >>> matching_graph(Matching([(1, 2), (3, 4)])).edges
    ()
    """
    arcs = a.pairs
    edges = []
    for (i, l), (j, k) in itertools.combinations(arcs, 2):
        if not (i < j < k < l):
            continue  # only nested arc pairs can be un-nested
        others = tuple(p for p in arcs if p not in ((i, l), (j, k)))
        if is_crossingless(others + ((i, j), (k, l))):
            edges.append(((i, l), (j, k)))
    # union-find over arcs, also certifying acyclicity
    parent = {arc: arc for arc in arcs}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for y, z in edges:
        ry, rz = root(y), root(z)
        if ry == rz:
            raise InvariantError(f"nesting graph of {a} has a cycle")
        parent[ry] = rz
    comps: dict[Pair, set[Pair]] = {}
    for arc in arcs:
        comps.setdefault(root(arc), set()).add(arc)
    components = tuple(sorted((frozenset(c) for c in comps.values()), key=min))
    marks = tuple(min(c) for c in components)
    return MatchingGraph(arcs, tuple(edges), marks, components)


def bottom_arc_count(a: Matching) -> int:
    """Number of outermost arcs: arcs not nested inside any other arc.

    With arcs drawn below the line these are the arcs with nothing
    below them.  The count agrees with the number of components of
    matching_graph(a), and summing 2**count over all matchings of 2n
    points gives binomial(2n, n); the tests check both identities.

    >>> bottom_arc_count(Matching([(1, 2), (3, 4)]))
    2
    >>> bottom_arc_count(Matching([(1, 6), (2, 3), (4, 5)]))
    1
    """
    return sum(
        1
        for i, j in a.pairs
        if not any(k < i and j < l for k, l in a.pairs)
    )


def _first_violation(subset, n: int) -> int | None:
    """The first m with more than floor(m/2) elements of subset in [1, m]."""
    count = 0
    for m in range(1, 2 * n + 1):
        if m in subset:
            count += 1
        if 2 * count > m:
            return m
    return None


def is_admissible(subset, n: int) -> bool:
    """True if every prefix [1, m] contains at most floor(m/2) elements."""
    elems = set(subset)
    if not elems <= set(range(1, 2 * n + 1)):
        raise ValueError(f"{sorted(elems)} is not a subset of 1..{2*n}")
    return _first_violation(elems, n) is None


def admissible_subsets(n: int) -> list[tuple[int, ...]]:
    """All admissible subsets of [1, 2n], by cardinality then lex order.

    There are binomial(2n, n) of them.

    >>> admissible_subsets(1)
    [(), (2,)]
    >>> admissible_subsets(2)
    [(), (2,), (3,), (4,), (2, 4), (3, 4)]
    """
    out = []
    for k in range(n + 1):
        for sub in itertools.combinations(range(1, 2 * n + 1), k):
            if is_admissible(sub, n):
                out.append(sub)
    return out
