"""Cup-cap bimodules over the arc ring and the saddle null-homotopy.

U_i is the flat tangle with a cap joining the bottom points i, i+1, a
cup joining the top points i, i+1, and vertical strands elsewhere.  Its
bimodule F(U_i) has one generator per labeling of the circles of the
closed diagram W(b) U_i a for each block (b, a); the ring acts on both
sides by the same saddle contraction that defines ring multiplication.
Each action and each saddle map is the TQFT map of a cobordism, fixed
by its components, and block (b, a), the diagram glue(b, U_i a) plus a
free circle when a has the arc (i, i+1), is a ring block relabelled.  So
each kernel's key is read off a ring key, arc_ring._ring_key().  With A
and B the matchings of U_i a and U_i b, and a ring key's second factor
dropped by shifting its input masks down by the label count of the ring
block multiplied by its all-1 word:

- left (b', b, a): the ring key of (b', b, A); if a has the arc, every
  mask up one bit and the cylinder (1, 1, 0) on the free circle, the
  last label.
- right (b, a, a'): the ring key of (B, a, a'), each circle of ring
  blocks (B, a) and (B, a') renamed to the module label through the
  same lower-line point; if b has the arc, its closed circle meets no
  lower point and is a genus-0 cylinder from input to output.
- alpha (b, a): if a lacks the arc, the ring key of (b, A, a), second
  factor dropped (times 1_(A, a)); otherwise identity cylinders on the
  circles of glue(b, a), the free circle (bit 0) merged into the circle
  through point i.
- beta (b, a): if a lacks the arc, the ring key of (b, a, A), second
  factor dropped; otherwise the same cylinders, the circle through i
  splitting onto itself and the free circle.

The key becomes a kernel through arc_ring._build_kernel(), which shares
the ring's tables, and is applied by _kernel_product(), or a block at a
time by arc_ring._two_sided().

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
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .arc_ring import (
    BasisVector,
    RingElement,
    _build_kernel,
    _kernel_product,
    _lay_out_blocks,
    _ring_key,
    _two_sided,
    _unit_failure,
    degree,
    get_ring,
)
from .combinatorics import Matching, glue
from .errors import CapacityError, SizeMismatchError
from .frobenius import Combination

# F(U_i) outgrows H_n (rank 1,524 against 1,092 at n = 4), and the
# check builds one per i = 1..2n - 1
MAX_HOMOTOPY_N = 5


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


def _moved(mask: int, moves: dict) -> int:
    """mask with each bit that moves holds replaced by its image."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= moves.get(bit, bit)
        mask ^= bit
    return out


class UiBimodule:
    """F(U_i) as a bimodule over H_n, with the two saddle maps.

    Block (b, a) draws W(b) U_i a, W(b) above an upper point line and a
    below a lower one.  Its labels are the circles of
    glue(b, compose_ui(i, a).matching), then the free circle if any.
    _lower keeps, per block, the label count and the label through each
    lower point e (index 0 unused): the circle through e, but for e = i,
    i+1 the free circle if a has the arc (i, i+1), or else the circle
    through a.partner[e].
    """

    def __init__(self, n: int, i: int):
        if not 1 <= i <= 2 * n - 1:
            raise ValueError(f"tangle index {i} out of range 1..{2*n-1}")
        self.n = n
        self.i = i
        # the space tag of its elements
        self.space = (n, i)
        self.ring = get_ring(n)
        self.composite = {a: compose_ui(i, a) for a in self.ring.order}
        self._lower = {}
        for b in self.ring.order:
            for a in self.ring.order:
                A, free = self.composite[a]
                diagram = glue(b, A)
                k, lower = len(diagram.circles), list(diagram.endpoint_to_circle)
                for e in (i, i + 1):
                    lower[e] = k if free else diagram.endpoint_to_circle[a.partner[e]]
                self._lower[b, a] = k + free, tuple(lower)
        _lay_out_blocks(self, {block: k for block, (k, _) in self._lower.items()})
        self._left: dict = {}
        self._right: dict = {}
        self._kernels: dict[tuple, tuple] = {}

    def element(self, terms: dict[BasisVector, int]) -> BimoduleElement:
        return BimoduleElement(self.n, self.i, terms)

    # -- cobordism kernels, one per block key --------------------------------

    def _relabel(self, B: Matching, b: Matching, a: Matching, shift: int) -> tuple:
        """(moves, spare): moves maps the bit of each circle of ring block
        (B, a) to that of the label of module block (b, a) through the
        same lower point, in ranks shifted up shift bits; spare is the bit
        of the label no lower point reaches (b's closed circle), or 0."""
        k, lower = self._lower[b, a]
        masks = self.ring._masks[B, a]
        moves = {
            1 << shift + len(masks) - 1 - p: 1 << shift + k - 1 - lower[(m & -m).bit_length() - 1]
            for p, m in enumerate(masks)
        }
        return moves, ((1 << k) - 1 << shift) ^ sum(moves.values())

    def _kernel(self, kind: str, *blocks: Matching) -> tuple:
        """Build and store (key, table, output basis slice) of one block key,
        its key read off a ring key by the rule of its kind in the module
        docstring."""
        masks = self.ring._masks
        if kind == "left":
            b2, b, a = blocks
            A, free = self.composite[a]
            key = _ring_key(masks[b2, b], masks[b, A], masks[b2, A])
            key = [(m_in << free, m_out << free, g) for m_in, m_out, g in key] + [(1, 1, 0)] * free
            out = (b2, a)
        elif kind == "right":
            b, a, a2 = blocks
            B = self.composite[b].matching
            ins, spare_in = self._relabel(B, b, a, len(masks[a, a2]))
            outs, spare_out = self._relabel(B, b, a2, 0)
            key = _ring_key(masks[B, a], masks[a, a2], masks[B, a2])
            key = [(_moved(m_in, ins), _moved(m_out, outs), g) for m_in, m_out, g in key]
            key += [(spare_in, spare_out, 0)] if spare_in else []
            out = (b, a2)
        else:
            b, a = blocks
            A, free = self.composite[a]
            if free:
                # circle p of glue(b, a) is label p of both blocks, and the
                # free circle, bit 0 of a module rank, meets the one through i
                k, i = len(masks[b, a]), self.i
                ends = [
                    ((1 << k - p) | (m >> i & 1), 1 << k - 1 - p)
                    for p, m in enumerate(masks[b, a])
                ]
                key = [(u, v, 0) if kind == "alpha" else (v, u, 0) for u, v in ends]
            else:
                c, d = (A, a) if kind == "alpha" else (a, A)
                key = _ring_key(masks[b, c], masks[c, d], masks[b, d])
                key = [(m_in >> len(masks[c, d]), m_out, g) for m_in, m_out, g in key]
            out = blocks
        # alpha lands in the ring, the other three in the bimodule
        target = self.ring if kind == "alpha" else self
        key = tuple(sorted(key))
        kernel = self._kernels[(kind, *blocks)] = _build_kernel(self.ring, target, key, out)
        return kernel

    def _kernel_at(self, kind: str, *blocks: Matching) -> tuple:
        """The kernel of one block key, built on first use."""
        return self._kernels.get((kind, *blocks)) or self._kernel(kind, *blocks)

    def _product(self, kind: str, blocks: tuple, word: str) -> tuple:
        """The product of one input label word under the block key's kernel."""
        return _kernel_product(self._kernel_at(kind, *blocks), word)

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
        return self._product("alpha", (x.row, x.col), x.labels)

    def beta_basis(self, y: BasisVector) -> tuple:
        """The reverse saddle: H -> F(U_i), degree 1."""
        return self._product("beta", (y.row, y.col), y.labels)

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


def _triple_sampler(module: UiBimodule):
    """(count, triple_at) for the composable basis triples, unlisted.

    The triples of the associativity checks are ("ll", y1, y2, v) for
    y1 (y2 v), ("rr", v, y1, y2) for (v y1) y2 and ("lr", y1, v, y2) for
    (y1 v) y2.  They are numbered as a scan would list them: y1 over
    ring.basis; inside it y2 over ring.basis with the module basis
    innermost ("ll" before "rr" for the same v), then the "lr" triples
    of y1.  triple_at(k) decodes the k-th triple from block sizes alone.
    A y1 in ring block (d, b) has the same number of triples as every
    other y1 of its block: for y2 in ring block (b, a), one ll/rr choice
    per module vector of row a and one per module vector of column d,
    and for v in module block (b, a), one lr triple per ring vector of
    row a.  A position is decoded by walking the order over a.
    """
    ring, order = module.ring, module.ring.order
    ring_dims, dims = ring.block_dims, module.block_dims
    ring_row = {b: sum(ring_dims[b, a] for a in order) for b in order}
    module_row = {b: sum(dims[b, a] for a in order) for b in order}
    module_col = {a: sum(dims[b, a] for b in order) for a in order}

    def choice(c: Matching, d: Matching, j: int) -> tuple:
        """The j-th ("ll" | "rr", v) choice for y2.col == c, y1.row == d:
        the module vectors in row c or column d, in basis order."""
        for x in order:
            for y in order if x == c else (d,):
                # a vector of block (c, d) is in both, and gives ll then rr
                both = x == c and y == d
                size = 2 * dims[x, y] if both else dims[x, y]
                if j < size:
                    j, rr = divmod(j, 2) if both else (j, x != c)
                    return "rr" if rr else "ll", module.basis[module._block_offsets[x, y] + j]
                j -= size

    # each ring block (d, b) as (first position, first y1 index, d, b,
    # triples per y1), in ring basis order
    blocks, count = [], 0
    for (d, b), y0 in ring._block_offsets.items():
        length = sum(
            ring_dims[b, a] * (module_row[a] + module_col[d]) + dims[b, a] * ring_row[a]
            for a in order
        )
        blocks.append((count, y0, d, b, length))
        count += ring_dims[d, b] * length

    def triple_at(k: int) -> tuple:
        if not 0 <= k < count:
            raise IndexError(f"triple {k} out of range({count})")
        start, y0, d, b, length = blocks[bisect_right(blocks, k, key=itemgetter(0)) - 1]
        p, r = divmod(k - start, length)
        y1 = ring.basis[y0 + p]
        # y2 in ring block (b, a), then its ll/rr choice
        for a in order:
            width = module_row[a] + module_col[d]
            if r < ring_dims[b, a] * width:
                q, j = divmod(r, width)
                y2 = ring.basis[ring._block_offsets[b, a] + q]
                kind, v = choice(a, d, j)
                return ("ll", y1, y2, v) if kind == "ll" else ("rr", v, y1, y2)
            r -= ring_dims[b, a] * width
        # v in module block (b, a), then y2 in ring row a, which is one
        # run of indexes from ring block (a, order[0]) on
        for a in order:
            if r < dims[b, a] * ring_row[a]:
                q, j = divmod(r, ring_row[a])
                v = module.basis[module._block_offsets[b, a] + q]
                return ("lr", y1, v, ring.basis[ring._block_offsets[a, order[0]] + j])
            r -= dims[b, a] * ring_row[a]

    return count, triple_at


def _bimodule_axiom_witness(module: UiBimodule, samples: int = 300, seed: int = 0) -> list | None:
    """The first failing case of the bimodule axiom checks, or None.

    A failing unit law gives ["unit", repr(v)]; a failing associativity
    triple gives [kind, repr(t1), repr(t2), repr(t3)], kind as in
    _triple_sampler.  The unit laws are read off the kernel tables by
    _two_sided(); both sides of each associativity law are computed from
    the per-basis maps, each side one _sum.
    """
    ring = module.ring
    left, right, product = module.left_mul_basis, module.right_mul_basis, ring.multiply_basis
    total = partial(BimoduleElement._sum, module.space)
    failure = _unit_failure(module, ring.unit())
    if failure is not None:
        return ["unit", repr(failure)]

    # sampling indexes draws the same triples as sampling the full list
    count, triple_at = _triple_sampler(module)
    rng = random.Random(seed)
    picks = rng.sample(range(count), samples) if count > samples else range(count)
    for kind, t1, t2, t3 in map(triple_at, picks):
        if kind == "ll":  # (t1 t2) t3 against t1 (t2 t3), t3 in the bimodule
            lhs = total((c, left(w, t3)) for w, c in product(t1, t2))
            rhs = total((c, left(t1, w)) for w, c in left(t2, t3))
        elif kind == "rr":  # t1 (t2 t3) against (t1 t2) t3, t1 in the bimodule
            lhs = total((c, right(t1, w)) for w, c in product(t2, t3))
            rhs = total((c, right(w, t3)) for w, c in right(t1, t2))
        else:  # (t1 t2) t3 against t1 (t2 t3), t2 in the bimodule
            lhs = total((c, right(w, t3)) for w, c in left(t1, t2))
            rhs = total((c, left(t1, w)) for w, c in right(t2, t3))
        if lhs != rhs:
            return [kind, repr(t1), repr(t2), repr(t3)]
    return None


def verify_bimodule_axioms(n: int, i: int, samples: int = 300, seed: int = 0) -> bool:
    """Associativity and unit laws for the two actions, on basis triples.

    Exhaustive when the number of composable triples is small, sampled
    with the given seed otherwise.
    """
    return _bimodule_axiom_witness(UiBimodule(n, i), samples, seed) is None


def _apply(rows: list, image) -> dict:
    """The sum of c rows[k] over the (k, c) pairs of image, as {index: coeff}."""
    acc: dict[int, int] = {}
    for k, c in image:
        for z, x in rows[k]:
            acc[z] = acc.get(z, 0) + c * x
    return {z: x for z, x in acc.items() if x}


def verify_null_homotopy(i: int, n: int, check_axioms: bool = True, seed: int = 0) -> dict:
    """Machine check of the saddle null-homotopy for U_i inside H_n.

    For each of the two endomorphisms (left X at one of the endpoints
    i, i+1 minus right X at the other) the check looks for one global
    sign s so that the endomorphism equals s beta after alpha on the
    bimodule and s alpha after beta on the ring, over every basis
    vector.  Also confirms both saddle maps are homogeneous of degree 1
    and commute with the endomorphisms, and (optionally) the bimodule
    axioms.  It runs on basis indices: one alpha_basis or beta_basis
    call per basis vector gives the degree check and the map's rows,
    _two_sided() streams the endomorphism images, and one pass serves
    both endomorphisms, so each composite is computed once; only the
    ring images are held, for the commute check.  The element-level
    maps give the same verdicts.  seed picks the axiom check's sample.

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

    if n > MAX_HOMOTOPY_N:
        raise CapacityError(f"the null-homotopy check supports n <= {MAX_HOMOTOPY_N}, not n = {n}")
    module = UiBimodule(n, i)
    ring = module.ring
    z_lo, z_hi = central_X(i, n), central_X(i + 1, n)
    names = ("left_lower_minus_right_upper", "left_upper_minus_right_lower")
    ends = ((z_lo, z_hi), (z_hi, z_lo))
    report: dict = {"n": n, "i": i}

    # alpha's rows in ring indexes, beta's in module indexes
    degree_witness = None
    alpha_rows, beta_rows = [], []
    for kind, basis, saddle, rows, index in (
        ("alpha", module.basis, module.alpha_basis, alpha_rows, ring.index),
        ("beta", ring.basis, module.beta_basis, beta_rows, module.index),
    ):
        for v in basis:
            image = saddle(v)
            if degree_witness is None and any(c and degree(w) != degree(v) + 1 for w, c in image):
                degree_witness = [kind, repr(v)]
            rows.append(tuple([(index[w], c) for w, c in image]))
    degree_ok = degree_witness is None
    report["saddle_maps_degree_one"] = degree_ok
    if not degree_ok:
        report["degree_counterexample"] = degree_witness

    # per endomorphism, the first vector off the + sign, off the - sign
    # and off both, and the first that fails the commute check
    plus, minus, neither, commute = ([None, None] for _ in range(4))

    def scan(kind: str, v: BasisVector, images: tuple, composite: dict) -> None:
        negated = {k: -c for k, c in composite.items()}
        for e, lhs in enumerate(images):
            off_plus, off_minus = lhs != composite, lhs != negated
            if off_plus:
                plus[e] = plus[e] or f"{kind} {v!r}"
            if off_minus:
                minus[e] = minus[e] or f"{kind} {v!r}"
            if off_plus and off_minus:
                neither[e] = neither[e] or f"{kind} {v!r}"

    ring_images: tuple = ([], [])
    for y, (v, *images) in enumerate(zip(ring.basis, *(_two_sided(ring, *z) for z in ends))):
        scan("ring", v, images, _apply(alpha_rows, beta_rows[y]))
        for held, image in zip(ring_images, images):
            held.append(tuple(image.items()))
    for m, (v, *images) in enumerate(zip(module.basis, *(_two_sided(module, *z) for z in ends))):
        a = alpha_rows[m]
        scan("bimodule", v, images, _apply(beta_rows, a))
        for e, lhs in enumerate(images):
            if commute[e] is None and _apply(alpha_rows, lhs.items()) != _apply(ring_images[e], a):
                commute[e] = [names[e], repr(v)]
    witness = next((w for w in commute if w is not None), None)
    if witness is not None:
        report["commutes_counterexample"] = witness

    signs, unsigned = {}, {}
    for e, name in enumerate(names):
        if plus[e] is None:
            signs[name] = 1
        elif minus[e] is None:
            signs[name] = -1
        else:
            signs[name] = None
            unsigned[name] = [neither[e]] if neither[e] is not None else [plus[e], minus[e]]
    chain_ok = witness is None
    report["homotopy_signs"] = signs
    if unsigned:
        report["homotopy_counterexample"] = unsigned
    report["saddle_commutes_with_endomorphisms"] = chain_ok
    if check_axioms:
        witness = _bimodule_axiom_witness(module, seed=seed)
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
