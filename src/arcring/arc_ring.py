"""The convolution ring on crossingless matchings.

The ring H_n is the direct sum over ordered pairs (b, a) of matchings of
free Z-modules with one generator per labeling of the circles of
glue(b, a) by {1, X}.  A basis vector is therefore (row b, column a,
label word).  Multiplication contracts the middle matching of two
compatible diagrams by one saddle move per arc, merging or splitting
circles and rewriting labels through the Frobenius algebra.

A product is the map Khovanov's TQFT assigns to one cobordism, from
glue(c, b) and glue(b, a) to glue(c, a), and that map depends only on
the cobordism's connected components: which input and output circles
each one joins, and its genus.  So the default path never replays the
saddles.  Key: endpoint e lies on one circle of each of glue(c, b),
glue(b, a) and glue(c, a) (read from endpoint_to_circle), and the
cobordism joins those three; the classes of all 2n such triples are
the components.  Each arc of b is one saddle, in the component of its
circles.  A component is built from its k_in input cylinders by s
saddles, each lowering the Euler characteristic by one, so
2 - 2g - (k_in + k_out) = -s and its genus is g = (2 - k_in - k_out + s) / 2.
The key of a triple (c, b, a) is the sorted tuple of (input mask, output
mask, g) over its components, the masks selecting circles as bits of a
word's rank, its position in label_words() (the word read in binary
with X = 1); _cobordism_components() builds it from the circle counts,
links and saddles of any such cobordism, and the cup-cap bimodules of
braid_homotopy key their four maps with it too.  Row: a component
multiplies its t input X's into one circle, times (2X)^g, and then
comultiplies to its outputs, so with t + g >= 2 the product is zero,
t + g = 1 puts X on every output and t + g = 0 sums the words with
exactly one output 1; the row is the product over the components,
(output rank, 2^(total genus)) terms sorted by rank, built by
_cobordism_row().  Table: each distinct key gets one table with a row
slot per input rank, filled on first use (64 keys serve the 2,744
triples at n = 4).  Apply: ArcRing keeps one kernel per triple, its
key, the table of that key and the basis slice of the output block
(c, a), so a product is a row lookup, and a row is built only for
products actually asked for.

Saddle surgery stays as an independent second calculus.  A
SurgeryState runs the saddles on a strand graph and records a
label-free Plan of merge and split ops on circle positions, which
_apply_plan(), the only code that rewrites labels through MERGE and
SPLIT, pushes a word along.  Only a ring product with an explicit
arc_order is computed that way, so the surgery-order check compares
the two calculi.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .combinatorics import Matching, glue, total_order, enumerate_matchings
from .errors import CapacityError, InvariantError, SizeMismatchError
from .frobenius import MERGE, SPLIT, X, Combination

MAX_RING_N = 6


@lru_cache(maxsize=None)
def label_words(k: int) -> tuple[str, ...]:
    """All {1, X} words of length k in lexicographic order ("1" < "X")."""
    return tuple("".join(t) for t in itertools.product("1X", repeat=k))


class BasisVector(NamedTuple):
    """One diagram basis vector: target matching, source matching, labels.

    The label word is aligned with the circles of glue(row, col) in
    their canonical order (increasing smallest endpoint).
    """

    row: Matching
    col: Matching
    labels: str


def degree(v: BasisVector) -> int:
    """2 per X label, plus n minus the number of circles.

    The shift makes multiplication degree-additive: each saddle either
    merges (one circle fewer) or splits while adding one X worth of
    label degree on balance.
    """
    return 2 * v.labels.count(X) + (v.row.n - len(v.labels))


class RingElement(Combination):
    """An integer combination of basis vectors of one ring H_n."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.space

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return get_ring(self.n).multiply(self, other)
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return f"RingElement(n={self.n}, 0)"
        bits = [
            f"{c}*({v.row.pairs}<-{v.col.pairs}:{v.labels})"
            for v, c in sorted(self.terms.items())
        ]
        return "RingElement(" + " + ".join(bits) + ")"


class Plan(NamedTuple):
    """A compiled saddle sequence: ops on circle positions, then a reorder.

    ops holds ("merge", i, j) with i < j, which multiplies the labels at
    positions i and j into position i and drops position j, and
    ("split", i), which comultiplies the label at position i into
    positions i and i + 1.  After the ops, output circle p is the circle
    at position order[p].
    """

    ops: tuple
    order: tuple[int, ...]


class SurgeryState:
    """A closed 1-manifold presented as a multigraph, under saddle moves.

    Vertices are layer-encoded points, edges are keyed strands, and the
    connected components (always disjoint cycles) are the circles,
    listed in the order of the anchor points that pick them.  Each
    surgery removes two parallel strands and reconnects crosswise,
    either merging two circles or splitting one.  No labels ride along:
    the state records which circle positions merge or split, and
    finalize() turns that record into a Plan.  A diagram is compiled
    once; _apply_plan() then rewrites each label word along the plan.
    """

    def __init__(self, edges: dict, anchors: list[int]):
        self.edges = dict(edges)
        self.adj: dict = {}
        for key, (p, q) in self.edges.items():
            self.adj.setdefault(p, {})[key] = q
            self.adj.setdefault(q, {})[key] = p
        self.comps = [self._reach(p) for p in anchors]
        covered = set().union(*self.comps)
        if covered != set(self.adj) or sum(map(len, self.comps)) != len(covered):
            raise InvariantError("the anchor points do not pick every circle once")
        self.ops: list[tuple] = []

    def _comp_index(self, point) -> int:
        for i, comp in enumerate(self.comps):
            if point in comp:
                return i
        raise InvariantError(f"point {point} not on any circle")

    def _reach(self, start) -> frozenset:
        seen = {start}
        stack = [start]
        while stack:
            p = stack.pop()
            for q in self.adj.get(p, {}).values():
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return frozenset(seen)

    def surgery(self, remove_a, remove_b, add_a, add_b) -> None:
        """Replace strands remove_a, remove_b by add_a, add_b.

        add_a must join one endpoint of each removed strand, add_b the
        two remaining endpoints; the caller encodes the saddle that way.
        """
        pa, qa = self.edges.pop(remove_a)
        pb, qb = self.edges.pop(remove_b)
        del self.adj[pa][remove_a], self.adj[qa][remove_a]
        del self.adj[pb][remove_b], self.adj[qb][remove_b]
        for key, (p, q) in (add_a, add_b):
            self.edges[key] = (p, q)
            self.adj.setdefault(p, {})[key] = q
            self.adj.setdefault(q, {})[key] = p

        ia, ib = self._comp_index(pa), self._comp_index(pb)
        if ia != ib:
            lo, hi = min(ia, ib), max(ia, ib)
            self.comps[lo] = self.comps[ia] | self.comps[ib]
            del self.comps[hi]
            self.ops.append(("merge", lo, hi))
        else:
            half = self._reach(pa)
            if qa in half:
                # a genuine planar diagram always splits here
                raise InvariantError("saddle on one circle failed to split it")
            other = self._reach(qa)
            if half & other or half | other != self.comps[ia]:
                raise InvariantError("split did not partition the circle in two")
            self.comps[ia : ia + 1] = [half, other]
            self.ops.append(("split", ia))

    def finalize(self, position_of) -> Plan:
        """The plan of the surgeries so far, ending in the output's order.

        position_of takes a component (frozenset of points) and returns
        its index among the output diagram's circles; it must be a
        bijection onto range(len(comps)).
        """
        places = [position_of(comp) for comp in self.comps]
        if sorted(places) != list(range(len(self.comps))):
            raise InvariantError("surviving circles do not match the output diagram")
        order = [0] * len(places)
        for i, pos in enumerate(places):
            order[pos] = i
        return Plan(tuple(self.ops), tuple(order))


def _apply_plan(plan: Plan, word: str) -> list[tuple[str, int]]:
    """The (word, coefficient) pairs one label word becomes along plan.

    This is the only code that rewrites labels: merges multiply through
    MERGE, splits comultiply through SPLIT, then each word is reordered
    into the output diagram's circle order.  Sorted by word, no zeros.
    """
    terms = {word: 1}
    for op in plan.ops:
        out: dict[str, int] = {}
        if op[0] == "merge":
            _, i, j = op
            for w, k in terms.items():
                for lab, c in MERGE[(w[i], w[j])]:
                    v = w[:i] + lab + w[i + 1 : j] + w[j + 1 :]
                    out[v] = out.get(v, 0) + c * k
        else:
            i = op[1]
            for w, k in terms.items():
                for (la, lb), c in SPLIT[w[i]]:
                    v = w[:i] + la + lb + w[i + 1 :]
                    out[v] = out.get(v, 0) + c * k
        terms = out
    order = plan.order
    return sorted(("".join([w[i] for i in order]), k) for w, k in terms.items() if k)


# a label word's rank, its position in label_words(len(word)), is the
# word read as a binary number: int(word.translate(_BITS), 2)
_BITS = str.maketrans("1X", "01")


def _cobordism_components(k_in: int, k_out: int, links, saddles) -> tuple:
    """The sorted (input mask, output mask, genus) key of one cobordism.

    Nodes 0 .. k_in - 1 are the input circles and k_in .. k_in + k_out - 1
    the output circles; input circle p is bit k_in - 1 - p of an input
    rank and output circle q bit k_out - 1 - q of an output rank.  Each
    link (u, v) says the cobordism joins nodes u and v, and the classes
    the links generate are its components.  Each saddle node puts one
    saddle in its component, and a component with s saddles has genus
    g = (2 - k_in - k_out + s) / 2.  A numerator that is odd or negative
    means the links and saddles describe no surface: InvariantError.
    """
    size = k_in + k_out
    parent = list(range(size))
    for u, v in links:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[v] = u
    root = []
    for u in range(size):
        while parent[u] != u:
            u = parent[u]
        root.append(u)
    # node u is bit size - 1 - u of its component's mask
    masks = [0] * size
    bit = 1 << (size - 1)
    for r in root:
        masks[r] |= bit
        bit >>= 1
    twice_g = [2] * size
    for u in saddles:
        twice_g[root[u]] += 1
    low = (1 << k_out) - 1
    key = []
    for r in set(root):
        m = masks[r]
        t = twice_g[r] - m.bit_count()
        if t < 0 or t & 1:
            raise InvariantError(
                f"a component with {m.bit_count()} boundary circles and"
                f" {twice_g[r] - 2} saddles has no genus"
            )
        key.append((m >> k_out, m & low, t >> 1))
    key.sort()
    return tuple(key)


def _cobordism_key(c: Matching, b: Matching, a: Matching) -> tuple:
    """The components of the product cobordism of blocks (c, b) and (b, a).

    The input circles are those of glue(c, b), then of glue(b, a), as in
    the word x.labels + y.labels; the outputs are those of glue(c, a).
    Endpoint e lies on one circle of each of the three diagrams, and the
    cobordism joins all three.  Each arc of b is one saddle, on the
    circle of glue(c, b) through its first endpoint.
    """
    top, bot, out = glue(c, b), glue(b, a), glue(c, a)
    t, u, v = top.endpoint_to_circle, bot.endpoint_to_circle, out.endpoint_to_circle
    k1 = len(top.circles)
    k_in = k1 + len(bot.circles)
    links = []
    for e in range(1, 2 * c.n + 1):
        links += ((t[e], k1 + u[e]), (t[e], k_in + v[e]))
    return _cobordism_components(
        k_in, len(out.circles), links, [t[i] for i, _ in b.pairs]
    )


def _cobordism_row(key: tuple, rank: int) -> tuple[tuple[int, int], ...]:
    """The product of the input word of this rank, along the key's cobordism.

    A connected component of genus g multiplies its inputs, multiplies
    by (2X)^g, then comultiplies to its outputs.  With t the number of
    input X's plus g, t >= 2 gives zero, t = 1 puts X on every output
    and t = 0 sums the output words with exactly one 1.  The row is the
    product over the components: (output word rank, coeff) terms sorted
    by rank, every coefficient 2^(total genus).
    """
    outs = [0]
    coeff = 1
    for m_in, m_out, g in key:
        t = (rank & m_in).bit_count() + g
        if t >= 2:
            return ()
        coeff <<= g
        if t:
            outs = [o | m_out for o in outs]
        else:
            bits, m = [], m_out
            while m:
                bits.append(m & -m)
                m &= m - 1
            outs = [o | (m_out ^ bit) for o in outs for bit in bits]
    outs.sort()
    return tuple([(o, coeff) for o in outs])


def _ring_plan(c: Matching, b: Matching, a: Matching, arc_order) -> Plan:
    """Compile the product of blocks (c, b) and (b, a) in H_n.

    The two diagrams sit on point lines 0 and 2n; each arc of b, taken
    in arc_order, is one saddle joining its two copies.
    """
    off = 2 * c.n
    edges = {}
    for tag, m, base in (("top", c, 0), ("mid_top", b, 0), ("mid_bot", b, off), ("bot", a, off)):
        edges.update({(tag, i, j): (base + i, base + j) for i, j in m.pairs})
    # one anchor point per circle, in canonical circle order
    anchors = [circle[0] for circle in glue(c, b).circles]
    anchors += [off + circle[0] for circle in glue(b, a).circles]
    state = SurgeryState(edges, anchors)
    for i, j in arc_order:
        state.surgery(
            ("mid_top", i, j),
            ("mid_bot", i, j),
            (("vert", i), (i, off + i)),
            (("vert", j), (j, off + j)),
        )
    out_circles = {
        frozenset(circ): pos for pos, circ in enumerate(glue(c, a).circle_sets)
    }
    return state.finalize(
        lambda comp: out_circles[frozenset(p if p <= off else p - off for p in comp)]
    )


class ArcRing:
    """H_n with a fixed basis enumeration.

    The basis runs over ordered pairs (row, col) of matchings in the
    given order (default: the canonical linear extension of the arrow
    order) and, inside a block, over label words lexicographically.
    The products of basis vectors are memoized; they do not depend on
    the enumeration order.
    """

    def __init__(self, n: int, order: list[Matching] | None = None):
        if n < 1:
            raise CapacityError("the ring needs n >= 1")
        if n > MAX_RING_N:
            raise CapacityError(f"n = {n} exceeds the supported limit {MAX_RING_N}")
        self.n = n
        if order is None:
            order = total_order(n)
        expected = set(enumerate_matchings(n))
        if set(order) != expected or len(order) != len(expected):
            raise ValueError("order must enumerate every matching exactly once")
        self.order = list(order)
        self.basis: list[BasisVector] = []
        self.block_dims: dict[tuple[Matching, Matching], int] = {}
        self._block_offsets: dict[tuple[Matching, Matching], int] = {}
        for b in self.order:
            for a in self.order:
                k = len(glue(b, a).circles)
                self.block_dims[(b, a)] = 2**k
                self._block_offsets[(b, a)] = len(self.basis)
                for w in label_words(k):
                    self.basis.append(BasisVector(b, a, w))
        self.index = {v: i for i, v in enumerate(self.basis)}
        self.dimension = len(self.basis)
        self._products: dict[tuple[BasisVector, BasisVector], tuple] = {}
        self._kernels: dict[tuple[Matching, Matching, Matching], tuple] = {}
        self._tables: dict[tuple, list] = {}

    # -- multiplication ------------------------------------------------

    def multiply_basis(
        self, x: BasisVector, y: BasisVector, arc_order=None
    ) -> tuple[tuple[BasisVector, int], ...]:
        """Product of two basis vectors as ((vector, coeff), ...).

        Zero unless x's source matching equals y's target matching.  The
        optional arc_order, a permutation of x.col.pairs, overrides the
        order in which the middle arcs are contracted (the result never
        depends on it; tests rely on being able to permute it).  Such a
        product compiles its own plan and is not memoized.
        """
        if x.col != y.row:
            return ()
        c, b, a = x.row, x.col, y.col
        if arc_order is not None:
            if sorted(map(tuple, arc_order)) != list(b.pairs):
                raise ValueError(f"arc_order {arc_order!r} is not a permutation of {b.pairs}")
            plan = _ring_plan(c, b, a, arc_order)
            return tuple(
                (BasisVector(c, a, w), coeff)
                for w, coeff in _apply_plan(plan, x.labels + y.labels)
            )
        pair = (x, y)
        result = self._products.get(pair)
        if result is None:
            kernel = self._kernels.get((c, b, a))
            if kernel is None:
                kernel = self._kernel(c, b, a)
            key, table, out = kernel
            r = int((x.labels + y.labels).translate(_BITS), 2)
            row = table[r]
            if row is None:
                row = table[r] = _cobordism_row(key, r)
            result = self._products[pair] = tuple([(out[o], k) for o, k in row])
        return result

    def _kernel(self, c: Matching, b: Matching, a: Matching) -> tuple:
        """Build and store (key, table, basis slice of block (c, a)).

        Called once per triple, on its first product.  The table has one
        row slot per input word rank, filled on first use and shared by
        every triple with the same cobordism key; a row read through the
        slice is the product of the pair whose concatenated label word
        has that rank.
        """
        key = _cobordism_key(c, b, a)
        table = self._tables.get(key)
        if table is None:
            size = self.block_dims[(c, b)] * self.block_dims[(b, a)]
            table = self._tables[key] = [None] * size
        start = self._block_offsets[(c, a)]
        out = self.basis[start : start + self.block_dims[(c, a)]]
        kernel = self._kernels[(c, b, a)] = (key, table, out)
        return kernel

    def multiply(self, x: RingElement, y: RingElement) -> RingElement:
        if x.space != self.n or y.space != self.n:
            raise SizeMismatchError("element size does not match the ring")
        product = self.multiply_basis
        return RingElement._sum(
            self.n,
            (
                (cx * cy, product(vx, vy))
                for vx, cx in x.terms.items()
                for vy, cy in y.terms.items()
                if vx.col == vy.row
            ),
        )

    # -- distinguished elements ----------------------------------------

    def idempotent(self, a: Matching) -> RingElement:
        """The diagonal all-ones labeling 1_a of glue(a, a)."""
        k = len(glue(a, a).circles)
        return RingElement(self.n, {BasisVector(a, a, "1" * k): 1})

    def unit(self) -> RingElement:
        """Sum of the idempotents 1_a over all matchings."""
        out = RingElement(self.n)
        for a in self.order:
            out = out + self.idempotent(a)
        return out


@lru_cache(maxsize=None)
def get_ring(n: int) -> ArcRing:
    """The ring H_n with the canonical basis order, built once."""
    return ArcRing(n)


def idempotent(a: Matching) -> RingElement:
    return get_ring(a.n).idempotent(a)


def unit(n: int) -> RingElement:
    return get_ring(n).unit()


def verify_ring_integrity(
    n: int, seed: int = 0, samples: int = 10000, order_shuffles: int = 3
) -> dict:
    """Associativity, unit law, grading, surgery-order independence.

    Associativity is exhaustive over composable basis triples for
    n <= 2 and runs on `samples` seeded random triples otherwise.
    Grading is checked on every composable basis pair.  Every check
    reports into a JSON-ready dictionary with an overall "passed" flag.
    """
    import random

    ring = get_ring(n)
    rng = random.Random(seed)
    by_row: dict[Matching, list[BasisVector]] = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    report: dict = {"n": n, "dimension": ring.dimension}

    one = ring.unit()
    unit_ok = True
    for v in ring.basis:
        e = RingElement(n, {v: 1})
        if ring.multiply(one, e) != e or ring.multiply(e, one) != e:
            unit_ok = False
            report["unit_counterexample"] = repr(v)
            break
    report["unit_law"] = unit_ok

    if n <= 2:
        triples = [
            (x, y, z)
            for x in ring.basis
            for y in by_row[x.col]
            for z in by_row[y.col]
        ]
        report["associativity_mode"] = "exhaustive"
    else:
        triples = []
        for _ in range(samples):
            x = rng.choice(ring.basis)
            y = rng.choice(by_row[x.col])
            z = rng.choice(by_row[y.col])
            triples.append((x, y, z))
        report["associativity_mode"] = "sampled"
    assoc_ok = True
    for x, y, z in triples:
        ex, ey, ez = (RingElement(n, {v: 1}) for v in (x, y, z))
        if ring.multiply(ring.multiply(ex, ey), ez) != ring.multiply(
            ex, ring.multiply(ey, ez)
        ):
            assoc_ok = False
            report["associativity_counterexample"] = [repr(x), repr(y), repr(z)]
            break
    report["associativity_triples"] = len(triples)
    report["associative"] = assoc_ok

    grading_ok = True
    for x in ring.basis:
        for y in by_row[x.col]:
            want = degree(x) + degree(y)
            if any(degree(z) != want for z, _ in ring.multiply_basis(x, y)):
                grading_ok = False
                report["grading_counterexample"] = [repr(x), repr(y)]
                break
        if not grading_ok:
            break
    report["grading_multiplicative"] = grading_ok

    order_ok = True
    pairs = [(x, y) for x in ring.basis for y in by_row[x.col] if len(x.col.pairs) > 1]
    if n > 2 and len(pairs) > 400:
        pairs = rng.sample(pairs, 400)
    for x, y in pairs:
        base = ring.multiply_basis(x, y)
        arcs = list(x.col.pairs)
        for _ in range(order_shuffles):
            rng.shuffle(arcs)
            if ring.multiply_basis(x, y, arc_order=tuple(arcs)) != base:
                order_ok = False
                report["order_counterexample"] = [repr(x), repr(y), list(arcs)]
                break
        if not order_ok:
            break
    report["surgery_order_independent"] = order_ok

    report["passed"] = unit_ok and assoc_ok and grading_ok and order_ok
    return report


def commutator_quotient_rank(n: int) -> int:
    """Rank of H_n modulo the subgroup spanned by all xy - yx.

    Computed over the full basis: one generator per composable ordered
    pair of basis vectors, reduced by integer rank.
    """
    from .integer_linalg import IntMatrix, rank

    ring = get_ring(n)
    rows = []
    for vx in ring.basis:
        for vy in ring.basis:
            fwd = ring.multiply_basis(vx, vy) if vx.col == vy.row else ()
            bwd = ring.multiply_basis(vy, vx) if vy.col == vx.row else ()
            if not fwd and not bwd:
                continue
            vec = [0] * ring.dimension
            for bv, c in fwd:
                vec[ring.index[bv]] += c
            for bv, c in bwd:
                vec[ring.index[bv]] -= c
            if any(vec):
                rows.append(vec)
    if not rows:
        return ring.dimension
    return ring.dimension - rank(IntMatrix(rows, cols=ring.dimension))
