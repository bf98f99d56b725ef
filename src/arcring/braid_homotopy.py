"""Cup-cap bimodules over the arc ring and the saddle null-homotopy.

U_i is the flat tangle with a cap joining the bottom points i, i+1, a
cup joining the top points i, i+1, and vertical strands elsewhere.  Its
bimodule F(U_i) has one generator per labeling of the circles of the
closed diagram W(b) U_i a for each block (b, a); the ring acts on both
sides by the same saddle contraction that defines ring multiplication.
The label positions of a block are the circles of
glue(b, compose_ui(i, a).matching), then the free circle of U_i a when
there is one (UiBimodule says where each point of the diagram lies).
Like a ring product, each action and each saddle map is the TQFT map of
a cobordism, fixed by its components: arc_ring._cobordism_components()
keys it once per block key and arc_ring._cobordism_row() gives its rows.

Collapsing the cup-cap pair of U_i to two vertical strands is a single
saddle.  It induces maps alpha: F(U_i) -> H and beta: H -> F(U_i), and
the point verified here is that left multiplication by the central X at
one of the endpoints i, i+1 minus right multiplication by the central X
at the other is the composite of alpha and beta up to one global sign:
the difference is null-homotopic in the two-term complex built on
alpha, with homotopy a signed beta.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .arc_ring import (
    _BITS,
    ArcRing,
    BasisVector,
    RingElement,
    _cobordism_components,
    _cobordism_row,
    degree,
    get_ring,
    label_words,
)
from .combinatorics import Matching, glue
from .errors import SizeMismatchError
from .frobenius import Combination


class FlatComposite(NamedTuple):
    """The composite tangle U_i a: a matching plus 0 or 1 closed circles."""

    matching: Matching
    circles: int


def compose_ui(i: int, a: Matching) -> FlatComposite:
    """Compose the cup-cap tangle U_i with the matching a.

    If a already joins i and i+1 that arc closes against the cap into a
    free circle and the cup restores the same matching; otherwise the
    partners of i and i+1 get joined to each other and a new (i, i+1)
    arc appears, with no circle.

    >>> from .combinatorics import Matching
    >>> compose_ui(1, Matching([(1, 4), (2, 3)]))
    FlatComposite(matching=Matching([(1, 2), (3, 4)]), circles=0)
    >>> compose_ui(2, Matching([(1, 4), (2, 3)]))
    FlatComposite(matching=Matching([(1, 4), (2, 3)]), circles=1)
    """
    n = a.n
    if not 1 <= i <= 2 * n - 1:
        raise ValueError(f"tangle index {i} out of range 1..{2*n-1}")
    if a.partner[i] == i + 1:
        return FlatComposite(a, 1)
    p, q = a.partner[i], a.partner[i + 1]
    pairs = [arc for arc in a.pairs if i not in arc and i + 1 not in arc]
    pairs += [(min(p, q), max(p, q)), (i, i + 1)]
    return FlatComposite(Matching(pairs), 0)


class BimoduleElement(Combination):
    """An integer combination of generators of one bimodule F(U_i).

    Generators reuse BasisVector; the label word runs over the circles
    of glue(row, compose_ui(i, col).matching) in canonical order, then
    the free circle of U_i col last when there is one.
    """

    __slots__ = ()

    def __init__(self, n: int, i: int, terms: dict[BasisVector, int] | None = None):
        super().__init__((n, i), terms)

    @property
    def n(self) -> int:
        return self.space[0]

    @property
    def i(self) -> int:
        return self.space[1]

    def __repr__(self):
        if not self.terms:
            return f"BimoduleElement(n={self.n}, i={self.i}, 0)"
        bits = [
            f"{c}*({v.row.pairs}<-U{self.i}<-{v.col.pairs}:{v.labels})"
            for v, c in sorted(self.terms.items())
        ]
        return "BimoduleElement(" + " + ".join(bits) + ")"


class UiBimodule:
    """F(U_i) as a bimodule over H_n, with the two saddle maps.

    Block (b, a) draws W(b) U_i a on two point lines, W(b) above the
    upper one and a below the lower one.  Its label positions are the
    circles of glue(b, compose_ui(i, a).matching), then the free circle
    when there is one.  Upper-line point e lies on that diagram's
    circle endpoint_to_circle[e]; a lower-line point off i, i+1 lies on
    the circle of the upper point above it; lower points i and i+1 lie
    on the free circle if a has the arc (i, i+1), and otherwise on the
    circle of the upper point a.partner[e].

    The two actions and the two saddle maps are cobordism maps, each
    keyed once per block key by its components, as ArcRing keys a
    triple, and applied as a row lookup in the table of that key.
    """

    def __init__(self, n: int, i: int, ring: ArcRing | None = None):
        if not 1 <= i <= 2 * n - 1:
            raise ValueError(f"tangle index {i} out of range 1..{2*n-1}")
        self.n = n
        self.i = i
        # the space tag of its elements
        self.space = (n, i)
        self.ring = ring or get_ring(n)
        self.composite = {a: compose_ui(i, a) for a in self.ring.order}
        self.basis: list[BasisVector] = []
        self.block_circles: dict[tuple[Matching, Matching], int] = {}
        self._block_offsets: dict[tuple[Matching, Matching], int] = {}
        for b in self.ring.order:
            for a in self.ring.order:
                comp = self.composite[a]
                k = len(glue(b, comp.matching).circles) + comp.circles
                self.block_circles[(b, a)] = k
                self._block_offsets[(b, a)] = len(self.basis)
                for w in label_words(k):
                    self.basis.append(BasisVector(b, a, w))
        self.index = {v: j for j, v in enumerate(self.basis)}
        self.dimension = len(self.basis)
        self._left: dict = {}
        self._right: dict = {}
        self._alpha: dict = {}
        self._beta: dict = {}
        self._kernels: dict[tuple, tuple] = {}

    def element(self, terms: dict[BasisVector, int]) -> BimoduleElement:
        return BimoduleElement(self.n, self.i, terms)

    # -- cobordism kernels, one per block key --------------------------------

    def _lines(self, b: Matching, a: Matching) -> tuple:
        """(upper, lower, k) of block (b, a): the label position of each
        upper- and lower-line point (index 0 unused), and the circle count."""
        comp = self.composite[a]
        diagram = glue(b, comp.matching)
        upper = diagram.endpoint_to_circle
        k = len(diagram.circles)
        lower = list(upper)
        for e in (self.i, self.i + 1):
            lower[e] = k if comp.circles else upper[a.partner[e]]
        return upper, lower, k + comp.circles

    def _kernel(self, kind: str, *blocks: Matching) -> tuple:
        """Build and store (key, table, output basis slice) of one block key.

        right stacks bimodule (b, a) on ring (a, a') and left ring (b', b)
        on bimodule (b, a), with one saddle per arc of the glued matching;
        alpha takes bimodule (b, a) and beta ring (b, a) alone, with one
        saddle at the arc (i, i+1) where the cup-cap pair is cut or made.
        """
        cut = ((self.i, self.i + 1),)
        if kind == "right":
            b, a, a2 = blocks
            stack, arcs, out = [self._lines(b, a), _ring_lines(a, a2)], a.pairs, (b, a2)
        elif kind == "left":
            b2, b, a = blocks
            stack, arcs, out = [_ring_lines(b2, b), self._lines(b, a)], b.pairs, (b2, a)
        elif kind == "alpha":
            stack, arcs, out = [self._lines(*blocks)], cut, blocks
        else:
            stack, arcs, out = [_ring_lines(*blocks)], cut, blocks
        # alpha lands in the ring, the other three in the bimodule
        target = self.ring if kind == "alpha" else self
        lines = _ring_lines(*out) if kind == "alpha" else self._lines(*out)
        key = _stack_key(self.n, stack, lines, arcs)
        # a row depends only on the key, so the ring's tables serve here too
        table = self.ring._tables.get(key)
        if table is None:
            table = self.ring._tables[key] = [None] * 2 ** sum(k for *_, k in stack)
        start = target._block_offsets[out]
        basis = target.basis[start : start + 2 ** lines[2]]
        kernel = self._kernels[(kind, *blocks)] = (key, table, basis)
        return kernel

    def _product(self, kind: str, blocks: tuple, word: str) -> tuple:
        """The product of one input label word under the block key's kernel."""
        kernel = self._kernels.get((kind, *blocks))
        if kernel is None:
            kernel = self._kernel(kind, *blocks)
        key, table, out = kernel
        r = int(word.translate(_BITS), 2)
        row = table[r]
        if row is None:
            row = table[r] = _cobordism_row(key, r)
        return tuple([(out[o], k) for o, k in row])

    # -- module structure -------------------------------------------------

    def right_mul_basis(self, x: BasisVector, y: BasisVector) -> tuple:
        """x in block (b, a) times y in block (a, a') lands in (b, a')."""
        if x.col != y.row:
            return ()
        key = (x, y)
        result = self._right.get(key)
        if result is None:
            blocks = (x.row, x.col, y.col)
            result = self._right[key] = self._product("right", blocks, x.labels + y.labels)
        return result

    def left_mul_basis(self, y: BasisVector, x: BasisVector) -> tuple:
        """y in block (b', b) times x in block (b, a) lands in (b', a)."""
        if y.col != x.row:
            return ()
        key = (y, x)
        result = self._left.get(key)
        if result is None:
            blocks = (y.row, y.col, x.col)
            result = self._left[key] = self._product("left", blocks, y.labels + x.labels)
        return result

    def right_mul(self, x: BimoduleElement, y: RingElement) -> BimoduleElement:
        if x.space != self.space or y.space != self.n:
            raise SizeMismatchError("operands do not match the bimodule")
        product = self.right_mul_basis
        return BimoduleElement._sum(
            self.space,
            (
                (cx * cy, product(vx, vy))
                for vx, cx in x.terms.items()
                for vy, cy in y.terms.items()
            ),
        )

    def left_mul(self, y: RingElement, x: BimoduleElement) -> BimoduleElement:
        if x.space != self.space or y.space != self.n:
            raise SizeMismatchError("operands do not match the bimodule")
        product = self.left_mul_basis
        return BimoduleElement._sum(
            self.space,
            (
                (cx * cy, product(vy, vx))
                for vy, cy in y.terms.items()
                for vx, cx in x.terms.items()
            ),
        )

    # -- the saddle maps ---------------------------------------------------

    def alpha_basis(self, x: BasisVector) -> tuple:
        """One saddle collapsing the cup-cap pair: F(U_i) -> H, degree 1."""
        result = self._alpha.get(x)
        if result is None:
            result = self._alpha[x] = self._product("alpha", (x.row, x.col), x.labels)
        return result

    def beta_basis(self, y: BasisVector) -> tuple:
        """The reverse saddle: H -> F(U_i), degree 1."""
        result = self._beta.get(y)
        if result is None:
            result = self._beta[y] = self._product("beta", (y.row, y.col), y.labels)
        return result

    def alpha(self, x: BimoduleElement) -> RingElement:
        if x.space != self.space:
            raise SizeMismatchError("element does not match the bimodule")
        saddle = self.alpha_basis
        return RingElement._sum(self.n, ((c, saddle(v)) for v, c in x.terms.items()))

    def beta(self, y: RingElement) -> BimoduleElement:
        if y.space != self.n:
            raise SizeMismatchError("element does not match the bimodule")
        saddle = self.beta_basis
        return BimoduleElement._sum(self.space, ((c, saddle(v)) for v, c in y.terms.items()))


def _ring_lines(b: Matching, a: Matching) -> tuple:
    """(upper, lower, k) of ring block (b, a), whose two lines are one."""
    diagram = glue(b, a)
    return diagram.endpoint_to_circle, diagram.endpoint_to_circle, len(diagram.circles)


def _stack_key(n: int, stack: list, out: tuple, arcs) -> tuple:
    """The cobordism key from the diagrams of stack, top to bottom, to out.

    Each diagram is given by its (upper, lower, k) lines, and the input
    circles are numbered down the stack.  At every point e the
    cobordism joins the top input's upper line to out's upper line,
    each input's lower line to the next input's upper line, and the
    bottom input's lower line to out's lower line.  Each arc (r, s) is
    one saddle, on the top input's lower line at r.
    """
    points = range(1, 2 * n + 1)
    k_in = sum(k for *_, k in stack)
    out_upper, out_lower, k_out = out
    top = stack[0][0]
    links = [(top[e], k_in + out_upper[e]) for e in points]
    base = 0
    for (_, lower, k), (upper, _, _) in zip(stack, stack[1:]):
        links += [(base + lower[e], base + k + upper[e]) for e in points]
        base += k
    bottom = stack[-1][1]
    links += [(base + bottom[e], k_in + out_lower[e]) for e in points]
    saddles = [stack[0][1][r] for r, _ in arcs]
    return _cobordism_components(k_in, k_out, links, saddles)


@lru_cache(maxsize=None)
def get_bimodule(n: int, i: int) -> UiBimodule:
    return UiBimodule(n, i)


def _triple_sampler(module: UiBimodule):
    """(count, triple_at) for the composable basis triples, unlisted.

    The triples of the associativity checks are ("ll", y1, y2, v) for
    y1 (y2 v), ("rr", v, y1, y2) for (v y1) y2 and ("lr", y1, v, y2) for
    (y1 v) y2.  They are numbered as a scan would list them: y1 over
    ring.basis; inside it y2 over ring.basis with the module basis
    innermost ("ll" before "rr" for the same v), then the "lr" triples
    of y1.  triple_at(k) decodes the k-th triple.  What y1 contributes
    depends only on its block (y1.row, y1.col), so each block's segment
    is laid out once as runs of equal shape.
    """
    ring = module.ring
    ring_by_row: dict[Matching, list[BasisVector]] = {}
    for y in ring.basis:
        ring_by_row.setdefault(y.row, []).append(y)
    module_by_row: dict[Matching, list[BasisVector]] = {}
    for v in module.basis:
        module_by_row.setdefault(v.row, []).append(v)

    choices: dict[tuple[Matching, Matching], list[tuple]] = {}

    def pick(c: Matching, d: Matching) -> list[tuple]:
        """The ("ll" | "rr", v) choices for y1, y2 with y2.col == c, y1.row == d."""
        if (c, d) not in choices:
            choices[(c, d)] = [
                (kind, v)
                for v in module.basis
                for kind, hit in (("ll", v.row == c), ("rr", v.col == d))
                if hit
            ]
        return choices[(c, d)]

    segments: dict[tuple[Matching, Matching], tuple] = {}

    def segment(d: Matching, b: Matching) -> tuple:
        """(run starts, runs, length) of the triples of one y1 in block (d, b).

        A run is (start, y2 list, what): what is a list of ll/rr choices
        crossed with the y2 list, or the module vector v of an lr run.
        """
        if (d, b) not in segments:
            runs, start = [], 0
            for a, group in groupby(ring_by_row.get(b, ()), key=attrgetter("col")):
                y2s, ch = list(group), pick(a, d)
                if ch:
                    runs.append((start, y2s, ch))
                    start += len(y2s) * len(ch)
            for v in module_by_row.get(b, ()):
                y2s = ring_by_row.get(v.col, [])
                if y2s:
                    runs.append((start, y2s, v))
                    start += len(y2s)
            segments[(d, b)] = ([run[0] for run in runs], runs, start)
        return segments[(d, b)]

    y1_starts, count = [], 0
    for y1 in ring.basis:
        y1_starts.append(count)
        count += segment(y1.row, y1.col)[2]

    def triple_at(k: int) -> tuple:
        if not 0 <= k < count:
            raise IndexError(f"triple {k} out of range({count})")
        p = bisect_right(y1_starts, k) - 1
        y1 = ring.basis[p]
        starts, runs, _ = segment(y1.row, y1.col)
        start, y2s, what = runs[bisect_right(starts, k - y1_starts[p]) - 1]
        r = k - y1_starts[p] - start
        if isinstance(what, list):
            q, j = divmod(r, len(what))
            kind, v = what[j]
            return ("ll", y1, y2s[q], v) if kind == "ll" else ("rr", v, y1, y2s[q])
        return ("lr", y1, what, y2s[r])

    return count, triple_at


def _bimodule_axiom_witness(
    n: int, i: int, samples: int = 300, seed: int = 0
) -> list | None:
    """The first failing case of the bimodule axiom checks, or None.

    A failing unit law gives ["unit", repr(v)]; a failing associativity
    triple gives [kind, repr(t1), repr(t2), repr(t3)], kind as in
    _triple_sampler.
    """
    module = get_bimodule(n, i)
    ring = module.ring
    one = ring.unit()
    for v in module.basis:
        x = module.element({v: 1})
        if module.left_mul(one, x) != x or module.right_mul(x, one) != x:
            return ["unit", repr(v)]

    def as_ring(v):
        return RingElement(n, {v: 1})

    # sampling indexes draws the same triples as sampling the full list
    count, triple_at = _triple_sampler(module)
    rng = random.Random(seed)
    picks = rng.sample(range(count), samples) if count > samples else range(count)
    for kind, t1, t2, t3 in map(triple_at, picks):
        if kind == "ll":
            lhs = module.left_mul(ring.multiply(as_ring(t1), as_ring(t2)), module.element({t3: 1}))
            rhs = module.left_mul(as_ring(t1), module.left_mul(as_ring(t2), module.element({t3: 1})))
        elif kind == "rr":
            lhs = module.right_mul(module.element({t1: 1}), ring.multiply(as_ring(t2), as_ring(t3)))
            rhs = module.right_mul(module.right_mul(module.element({t1: 1}), as_ring(t2)), as_ring(t3))
        else:
            lhs = module.right_mul(module.left_mul(as_ring(t1), module.element({t2: 1})), as_ring(t3))
            rhs = module.left_mul(as_ring(t1), module.right_mul(module.element({t2: 1}), as_ring(t3)))
        if lhs != rhs:
            return [kind, repr(t1), repr(t2), repr(t3)]
    return None


def verify_bimodule_axioms(n: int, i: int, samples: int = 300, seed: int = 0) -> bool:
    """Associativity and unit laws for the two actions, on basis triples.

    Exhaustive when the number of composable triples is small, sampled
    with the given seed otherwise.
    """
    return _bimodule_axiom_witness(n, i, samples, seed) is None


def verify_null_homotopy(i: int, n: int, check_axioms: bool = True) -> dict:
    """Machine check of the saddle null-homotopy for U_i inside H_n.

    For each of the two endomorphisms (left X at one of the endpoints
    i, i+1 minus right X at the other) the check looks for one global
    sign s so that the endomorphism equals s beta after alpha on the
    bimodule and s alpha after beta on the ring, over every basis
    vector.  Also confirms both saddle maps are homogeneous of degree 1
    and commute with the endomorphisms, and (optionally) the bimodule
    axioms.

    A failing check adds a counterexample field, a passing one adds
    none.  degree_counterexample is [map, repr(v)] for the first basis
    vector v that alpha or beta sends off degree + 1;
    commutes_counterexample is [endomorphism, repr(v)];
    bimodule_axioms_counterexample is the first failing unit vector or
    triple.  homotopy_counterexample maps each endomorphism with no sign
    to the first basis vector where neither sign holds, or, when every
    vector allows one sign or the other, to the first failure of each
    sign; a vector is written "ring <repr>" or "bimodule <repr>".
    """
    from .center import central_X

    module = get_bimodule(n, i)
    ring = module.ring
    z_lo = central_X(i, n, verify=False)
    z_hi = central_X(i + 1, n, verify=False)
    report: dict = {"n": n, "i": i}

    def saddle_images():
        for v in module.basis:
            yield "alpha", v, module.alpha(module.element({v: 1}))
        for v in ring.basis:
            yield "beta", v, module.beta(RingElement(n, {v: 1}))

    degree_witness = next(
        (
            [kind, repr(v)]
            for kind, v, image in saddle_images()
            if any(degree(w) != degree(v) + 1 for w in image.terms)
        ),
        None,
    )
    degree_ok = degree_witness is None
    report["saddle_maps_degree_one"] = degree_ok
    if not degree_ok:
        report["degree_counterexample"] = degree_witness

    def phi_ring(zl, zr, y):
        return ring.multiply(zl, y) - ring.multiply(y, zr)

    def phi_module(zl, zr, x):
        return module.left_mul(zl, x) - module.right_mul(x, zr)

    def sides(zl, zr):
        """(kind, vector, endomorphism image, composite image, alpha image),
        ring basis first; a ring vector has no alpha image."""
        for v in ring.basis:
            y = RingElement(n, {v: 1})
            yield "ring", v, phi_ring(zl, zr, y), module.alpha(module.beta(y)), None
        for v in module.basis:
            x = module.element({v: 1})
            a = module.alpha(x)
            yield "bimodule", v, phi_module(zl, zr, x), module.beta(a), a

    signs = {}
    unsigned = {}
    chain_ok = True
    for name, zl, zr in (
        ("left_lower_minus_right_upper", z_lo, z_hi),
        ("left_upper_minus_right_lower", z_hi, z_lo),
    ):
        # one pass computes each image once and feeds both signs, the
        # scan for a vector neither sign holds on, and the commute check;
        # holding the images instead would raise the peak memory
        plus = minus = neither = None
        commutes = True
        for kind, v, lhs, rhs, a in sides(zl, zr):
            off_plus, off_minus = lhs != rhs, lhs != -rhs
            if off_plus:
                plus = plus or f"{kind} {v!r}"
            if off_minus:
                minus = minus or f"{kind} {v!r}"
            if off_plus and off_minus:
                neither = neither or f"{kind} {v!r}"
            if commutes and a is not None and module.alpha(lhs) != phi_ring(zl, zr, a):
                commutes = chain_ok = False
                report.setdefault("commutes_counterexample", [name, repr(v)])
        if plus is None:
            signs[name] = 1
        elif minus is None:
            signs[name] = -1
        else:
            signs[name] = None
            unsigned[name] = [neither] if neither is not None else [plus, minus]
    report["homotopy_signs"] = signs
    if unsigned:
        report["homotopy_counterexample"] = unsigned
    report["saddle_commutes_with_endomorphisms"] = chain_ok
    if check_axioms:
        witness = _bimodule_axiom_witness(n, i)
        report["bimodule_axioms"] = witness is None
        if witness is not None:
            report["bimodule_axioms_counterexample"] = witness
    report["passed"] = (
        degree_ok
        and chain_ok
        and all(s in (1, -1) for s in signs.values())
        and report.get("bimodule_axioms", True)
    )
    return report
