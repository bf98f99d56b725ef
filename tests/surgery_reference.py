"""Label-carrying saddle surgery and a link-based cobordism key, kept as
test oracles.

The surgery is the engine the library used before products were
compiled into label-free plans: every product builds its strand graph
from scratch and rewrites a dictionary of label words through the
Frobenius tables at each saddle.  It is slow and self-contained on
purpose; the tests compare the compiled engine against it product by
product.

link_key() is the cobordism key as the library built it before the key
read circle point masks: one link per point where two lines touch, and
a union-find over the links.  The tests compare every kernel's key with
it.
"""

from arcring.arc_ring import BasisVector
from arcring.errors import InvariantError
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


def _link_components(k_in, k_out, links, saddles):
    """The sorted (input mask, output mask, genus) key of one cobordism.

    Nodes 0 .. k_in - 1 are the input circles and k_in .. k_in + k_out - 1
    the output circles; node u is bit k_in + k_out - 1 - u of its
    component's mask.  Each link (u, v) joins nodes u and v, each saddle
    node puts one saddle in its component, and a component with s
    saddles has genus (2 - k_in - k_out + s) / 2.
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
            raise InvariantError(f"component {m:b} has no genus")
        key.append((m >> k_out, m & low, t >> 1))
    return tuple(sorted(key))


def link_key(n, stack, out, arcs):
    """The cobordism key from the diagrams of stack, top to bottom, to out.

    Each diagram is (upper, lower, k): the label position of the circle
    through each point of its upper and lower point line (index 0
    unused), and its circle count.  At every point e the cobordism joins
    the top input's upper line to out's upper line, each input's lower
    line to the next input's upper line, and the bottom input's lower
    line to out's lower line.  Each arc (r, s) is one saddle, on the top
    input's lower line at r.
    """
    points = range(1, 2 * n + 1)
    k_in = sum(k for *_, k in stack)
    out_upper, out_lower, k_out = out
    links = [(stack[0][0][e], k_in + out_upper[e]) for e in points]
    base = 0
    for (_, lower, k), (upper, _, _) in zip(stack, stack[1:]):
        links += [(base + lower[e], base + k + upper[e]) for e in points]
        base += k
    links += [(base + stack[-1][1][e], k_in + out_lower[e]) for e in points]
    saddles = [stack[0][1][r] for r, _ in arcs]
    return _link_components(k_in, k_out, links, saddles)


def ring_lines(b, a):
    """(upper, lower, k) of ring block (b, a), whose two lines are one."""
    diagram = glue(b, a)
    return diagram.endpoint_to_circle, diagram.endpoint_to_circle, len(diagram.circles)


def module_lines(i, b, a):
    """(upper, lower, k) of block (b, a) of F(U_i): upper-line point e
    lies on the circle of glue(b, (U_i a).matching) through e, lower-line
    points i and i+1 on the free circle when U_i a has one, and on the
    circle of the upper point a.partner[e] otherwise."""
    composite = compose_ui(i, a)
    diagram = glue(b, composite.matching)
    upper, k = diagram.endpoint_to_circle, len(diagram.circles)
    lower = list(upper)
    for e in (i, i + 1):
        lower[e] = k if composite.circles else upper[a.partner[e]]
    return upper, lower, k + composite.circles


def ring_link_key(c, b, a):
    """link_key of ring triple (c, b, a): glue(c, b) on glue(b, a), one
    saddle per arc of b, into glue(c, a)."""
    return link_key(c.n, [ring_lines(c, b), ring_lines(b, a)], ring_lines(c, a), b.pairs)


def module_link_key(n, i, kind, blocks):
    """link_key of the F(U_i) kernel of kind ("right", "left", "alpha" or
    "beta") on its blocks, as UiBimodule stacks them."""
    cut = ((i, i + 1),)
    if kind == "right":
        b, a, a2 = blocks
        stack, arcs, out = [module_lines(i, b, a), ring_lines(a, a2)], a.pairs, module_lines(i, b, a2)
    elif kind == "left":
        b2, b, a = blocks
        stack, arcs, out = [ring_lines(b2, b), module_lines(i, b, a)], b.pairs, module_lines(i, b2, a)
    elif kind == "alpha":
        stack, arcs, out = [module_lines(i, *blocks)], cut, ring_lines(*blocks)
    else:
        stack, arcs, out = [ring_lines(*blocks)], cut, module_lines(i, *blocks)
    return link_key(n, stack, out, arcs)
