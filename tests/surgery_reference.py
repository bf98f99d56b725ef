"""Label-carrying saddle surgery, kept as a test oracle.

This is the engine the library used before products were compiled into
label-free plans: every product builds its strand graph from scratch
and rewrites a dictionary of label words through the Frobenius tables
at each saddle.  It is slow and self-contained on purpose; the tests
compare the compiled engine against it product by product.
"""

from arcring.arc_ring import BasisVector
from arcring.braid_homotopy import compose_ui
from arcring.combinatorics import glue
from arcring.frobenius import MERGE, SPLIT


class LabeledSurgery:
    """A multigraph of keyed strands whose circles carry label words."""

    def __init__(self, edges, components, terms):
        self.edges = dict(edges)
        self.comps = list(components)
        self.terms = dict(terms)
        self.adj = {}
        for key, (p, q) in self.edges.items():
            self.adj.setdefault(p, {})[key] = q
            self.adj.setdefault(q, {})[key] = p

    def _comp_index(self, point):
        return next(i for i, comp in enumerate(self.comps) if point in comp)

    def _reach(self, start):
        seen, stack = {start}, [start]
        while stack:
            for q in self.adj.get(stack.pop(), {}).values():
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return frozenset(seen)

    def surgery(self, remove_a, remove_b, add_a, add_b):
        pa, qa = self.edges.pop(remove_a)
        pb, qb = self.edges.pop(remove_b)
        del self.adj[pa][remove_a], self.adj[qa][remove_a]
        del self.adj[pb][remove_b], self.adj[qb][remove_b]
        for key, (p, q) in (add_a, add_b):
            self.edges[key] = (p, q)
            self.adj.setdefault(p, {})[key] = q
            self.adj.setdefault(q, {})[key] = p
        ia, ib = self._comp_index(pa), self._comp_index(pb)
        new_terms = {}
        if ia != ib:
            lo, hi = min(ia, ib), max(ia, ib)
            self.comps[lo] = self.comps[ia] | self.comps[ib]
            del self.comps[hi]
            for word, coeff in self.terms.items():
                for lab, c in MERGE[(word[ia], word[ib])]:
                    w = word[:lo] + lab + word[lo + 1 : hi] + word[hi + 1 :]
                    new_terms[w] = new_terms.get(w, 0) + c * coeff
        else:
            half, other = self._reach(pa), self._reach(qa)
            assert not half & other and half | other == self.comps[ia]
            self.comps[ia : ia + 1] = [half, other]
            for word, coeff in self.terms.items():
                for (la, lb), c in SPLIT[word[ia]]:
                    w = word[:ia] + la + lb + word[ia + 1 :]
                    new_terms[w] = new_terms.get(w, 0) + c * coeff
        self.terms = {w: c for w, c in new_terms.items() if c != 0}

    def finalize(self, row, col, position_of):
        places = [position_of(comp) for comp in self.comps]
        assert sorted(places) == list(range(len(self.comps)))
        out = {}
        for word, coeff in self.terms.items():
            chars = [""] * len(word)
            for i, pos in enumerate(places):
                chars[pos] = word[i]
            w = "".join(chars)
            out[w] = out.get(w, 0) + coeff
        return tuple(
            (BasisVector(row, col, w), c) for w, c in sorted(out.items()) if c != 0
        )


def _edges(tag, m, offset):
    return {(tag, i, j): (offset + i, offset + j) for i, j in m.pairs}


def _circles(diagram, offset):
    return [frozenset(offset + p for p in c) for c in diagram.circles]


def ring_product(x, y, arc_order=None):
    """x * y in H_n, contracting the arcs of the middle matching in order."""
    if x.col != y.row:
        return ()
    c, b, a = x.row, x.col, y.col
    off = 2 * c.n
    edges = {
        **_edges("top", c, 0),
        **_edges("mid_top", b, 0),
        **_edges("mid_bot", b, off),
        **_edges("bot", a, off),
    }
    comps = _circles(glue(c, b), 0) + _circles(glue(b, a), off)
    state = LabeledSurgery(edges, comps, {x.labels + y.labels: 1})
    for i, j in arc_order if arc_order is not None else b.pairs:
        state.surgery(
            ("mid_top", i, j),
            ("mid_bot", i, j),
            (("vert", i), (i, off + i)),
            (("vert", j), (j, off + j)),
        )
    out = {frozenset(s): pos for pos, s in enumerate(glue(c, a).circles)}
    return state.finalize(
        c, a, lambda comp: out[frozenset(p if p <= off else p - off for p in comp)]
    )


def _tangle_edges(n, i, b, a, top, bot):
    edges = _edges("bim_cap", b, top)
    edges["bim_cup"] = (top + i, top + i + 1)
    edges["bim_capmid"] = (bot + i, bot + i + 1)
    for j in range(1, 2 * n + 1):
        if j not in (i, i + 1):
            edges[("bim_strand", j)] = (top + j, bot + j)
    edges.update(_edges("bim_cup_a", a, bot))
    return edges


def _block(n, i, b, a, top, bot):
    """Edges and label-ordered circles of W(b) U_i a."""
    edges = _tangle_edges(n, i, b, a, top, bot)
    adj = {}
    for p, q in edges.values():
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    found = []
    for start in sorted(adj):
        if any(start in comp for comp in found):
            continue
        comp, stack = {start}, [start]
        while stack:
            for q in adj[stack.pop()]:
                if q not in comp:
                    comp.add(q)
                    stack.append(q)
        found.append(frozenset(comp))
    composite = compose_ui(i, a)
    ordered = [
        next(comp for comp in found if top + min(s) in comp)
        for s in glue(b, composite.matching).circles
    ]
    ordered += [comp for comp in found if comp not in ordered]
    assert len(ordered) == len(glue(b, composite.matching).circles) + composite.circles
    return edges, ordered


def _block_position_of(n, i, b, a, top):
    composite = compose_ui(i, a)
    out = {frozenset(s): pos for pos, s in enumerate(glue(b, composite.matching).circles)}

    def position_of(component):
        tops = frozenset(p - top for p in component if top < p <= top + 2 * n)
        return out[tops] if tops else len(out)

    return position_of


def right_mul(n, i, x, y):
    """Bimodule generator x in block (b, a) times ring vector y in (a, a')."""
    if x.col != y.row:
        return ()
    b, a, a2 = x.row, x.col, y.col
    edges, comps = _block(n, i, b, a, 0, 2 * n)
    edges.update(_edges("ring_cap_a", a, 4 * n))
    edges.update(_edges("ring_cup", a2, 4 * n))
    comps += _circles(glue(a, a2), 4 * n)
    state = LabeledSurgery(edges, comps, {x.labels + y.labels: 1})
    for r, s in a.pairs:
        state.surgery(
            ("bim_cup_a", r, s),
            ("ring_cap_a", r, s),
            (("vert", r), (2 * n + r, 4 * n + r)),
            (("vert", s), (2 * n + s, 4 * n + s)),
        )
    return state.finalize(b, a2, _block_position_of(n, i, b, a2, 0))


def left_mul(n, i, y, x):
    """Ring vector y in block (b', b) times bimodule generator x in (b, a)."""
    if y.col != x.row:
        return ()
    b2, b, a = y.row, y.col, x.col
    edges, bim_comps = _block(n, i, b, a, 2 * n, 4 * n)
    edges.update(_edges("ring_cap", b2, 0))
    edges.update(_edges("ring_cup_b", b, 0))
    comps = _circles(glue(b2, b), 0) + bim_comps
    state = LabeledSurgery(edges, comps, {y.labels + x.labels: 1})
    for r, s in b.pairs:
        state.surgery(
            ("ring_cup_b", r, s),
            ("bim_cap", r, s),
            (("vert", r), (r, 2 * n + r)),
            (("vert", s), (s, 2 * n + s)),
        )
    return state.finalize(b2, a, _block_position_of(n, i, b2, a, 0))


def alpha(n, i, x):
    """The saddle F(U_i) -> H on one generator."""
    b, a = x.row, x.col
    edges, comps = _block(n, i, b, a, 0, 2 * n)
    state = LabeledSurgery(edges, comps, {x.labels: 1})
    state.surgery(
        "bim_cup",
        "bim_capmid",
        (("vert", i), (i, 2 * n + i)),
        (("vert", i + 1), (i + 1, 2 * n + i + 1)),
    )
    out = {frozenset(s): pos for pos, s in enumerate(glue(b, a).circles)}
    return state.finalize(
        b, a, lambda comp: out[frozenset(p for p in comp if p <= 2 * n)]
    )


def beta(n, i, y):
    """The saddle H -> F(U_i) on one ring basis vector."""
    b, a = y.row, y.col
    edges = _edges("bim_cap", b, 0)
    for j in range(1, 2 * n + 1):
        edges[("bim_strand", j)] = (j, 2 * n + j)
    edges.update(_edges("bim_cup_a", a, 2 * n))
    comps = [frozenset(c) | frozenset(2 * n + p for p in c) for c in glue(b, a).circles]
    state = LabeledSurgery(edges, comps, {y.labels: 1})
    state.surgery(
        ("bim_strand", i),
        ("bim_strand", i + 1),
        ("bim_cup", (i, i + 1)),
        ("bim_capmid", (2 * n + i, 2 * n + i + 1)),
    )
    return state.finalize(b, a, _block_position_of(n, i, b, a, 0))
