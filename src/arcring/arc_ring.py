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
saddles.  Key: the components of a ring triple (c, b, a) are those of
c, b and a on the 2n points.  _ring_key() reads them off the point
bitmasks of the circles of glue(c, b), glue(b, a) and glue(c, a), built
once per block with the basis (_circle_masks()): the top circles are
disjoint, each bottom circle joins every component it meets, and each
output circle the one holding its points.  Each arc of b is one saddle
and lies in one component, so a component on m points has m / 2
saddles.  A component is built from its k_in input cylinders by s
saddles, each lowering the Euler characteristic by one, so 2 - 2g -
(k_in + k_out) = -s and its genus is g = (2 - k_in - k_out + s) / 2.
The key is the sorted tuple of (input mask, output mask, g) over the
components, the masks selecting circles as bits of a word's rank, its
position in label_words() (the word read in binary with X = 1).  It is
the only key routine: the cup-cap bimodules read each of their keys
off a ring key (braid_homotopy.UiBimodule._kernel()).
Row: a component multiplies its t input X's into one circle, times
(2X)^g, and then comultiplies to its outputs, so with t + g >= 2 the
product is zero, t + g = 1 puts X on every output and t + g = 0 sums
the words with exactly one output 1; the row is the product over the
components, (output rank, 2^(total genus)) terms sorted by rank, built
by _cobordism_row().
Kernel: _build_kernel() takes a block key's key and gives it the table
of that key (one per distinct key, with a row slot per input rank,
filled by _table_row() on first read; 64 keys serve the 2,744 triples
at n = 4) and the output block's basis slice, one per block, through
which _kernel_product() reads a word's row; _two_sided() reads a whole
block's rows, and the associativity check both sides of a triple, on
label ranks, with no basis vector.  ArcRing and the bimodules keep
one kernel per block key, so a product is a row lookup, and a row is
built only for products actually asked for, or, for the ring, once the
walk of its product table reaches the key.

Saddle surgery is kept as an independent second calculus.  Only a ring
product with an explicit arc_order and the surgery-order check compute
that way: _saddle_steps() cuts the arcs of b one at a time and lists
the circles after each cut, and _surgery_product(), the only code that
rewrites labels through MERGE and SPLIT, pushes a word along those
steps.  So the surgery-order check compares the two calculi.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

from .combinatorics import Matching, glue, total_order, enumerate_matchings
from .errors import CapacityError, InvariantError, SizeMismatchError
from .frobenius import MERGE, SPLIT, X, Combination

MAX_RING_N = 6
# verify_ring_integrity walks the whole product table: 4.0 million
# products at n = 5, 210 million at n = 6
MAX_RING_CHECK_N = 5


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

    def __repr__(self):
        if not self.terms:
            return f"RingElement(n={self.n}, 0)"
        bits = [
            f"{c}*({v.row.pairs}<-{v.col.pairs}:{v.labels})"
            for v, c in sorted(self.terms.items())
        ]
        return "RingElement(" + " + ".join(bits) + ")"


_BITS = str.maketrans("1X", "01")


def _rank(word: str) -> int:
    """A label word's position in label_words(len(word)): the word read
    in binary with X = 1."""
    return int(word.translate(_BITS), 2)


def _circle_masks(b: Matching, a: Matching) -> tuple:
    """The point mask (bit e for point e) of each circle of glue(b, a)."""
    return tuple([sum(1 << e for e in circle) for circle in glue(b, a).circles])


def _ring_key(top: tuple, bottom: tuple, out: tuple) -> tuple:
    """The key of ring triple (c, b, a) from the circle point masks of
    blocks top = (c, b), bottom = (b, a) and out = (c, a): glue(c, b) on
    glue(b, a), one saddle per arc of b, into glue(c, a).  Input circle
    p, numbered down the stack, is bit k_in - 1 - p of an input rank,
    and output circle q bit k_out - 1 - q of an output rank.  The top
    circles are disjoint components; each bottom circle joins every
    component it meets, and each output circle the one holding its
    points.  A component on mask m has m.bit_count() // 2 saddles; an
    odd or negative genus numerator means no surface: InvariantError.
    """
    k_out = len(out)
    bit = 1 << len(top) + len(bottom) + k_out
    components = []
    for mask in top:
        bit >>= 1
        components.append((mask, bit))
    for mask in bottom + out:
        bit >>= 1
        bits, apart = bit, []
        for other, other_bits in components:
            if other & mask:
                mask |= other
                bits |= other_bits
            else:
                apart.append((other, other_bits))
        apart.append((mask, bits))
        components = apart
    low = (1 << k_out) - 1
    key = []
    for mask, bits in components:
        s = mask.bit_count() >> 1
        t = 2 + s - bits.bit_count()
        if t < 0 or t & 1:
            raise InvariantError(
                f"a component with {bits.bit_count()} boundary circles and {s} saddles has no genus"
            )
        key.append((bits >> k_out, bits & low, t >> 1))
    key.sort()
    return tuple(key)


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


def _build_kernel(ring, target, key: tuple, block) -> tuple:
    """(key, table, output basis slice) of a cobordism keyed by key into
    block of target, the ring or a bimodule over it.

    A row depends only on the key, so every kernel with the same key
    shares one table through ring._tables, with one row slot per input
    word rank (the key's input masks hold every input circle once),
    filled on first use, and every kernel into one block shares that
    block's basis slice, target._block_vectors[block].
    """
    table = ring._tables.get(key)
    if table is None:
        table = ring._tables[key] = [None] * 2 ** sum(m_in.bit_count() for m_in, _, _ in key)
    return key, table, target._block_vectors[block]


def _table_row(kernel: tuple, rank: int) -> tuple:
    """Row rank of a kernel's table: (output rank, coeff) terms, built
    by _cobordism_row() on first read and kept in the shared table."""
    key, table, _ = kernel
    row = table[rank]
    if row is None:
        row = table[rank] = _cobordism_row(key, rank)
    return row


def _kernel_product(kernel: tuple, word: str) -> tuple:
    """The product of one input label word under a kernel: its row read
    through the output basis slice."""
    out = kernel[2]
    return tuple([(out[o], k) for o, k in _table_row(kernel, _rank(word))])


def _two_sided(space, zl: RingElement, zr: RingElement):
    """Yield zl v - v zr for each basis vector v of space, the ring or a
    bimodule over it, in basis order, each image as {index: coeff}.

    For v in block (b, a) of dimension d, a term u of zl ending at b
    multiplies through the left kernel of (u.row, b, a), whose input
    word u.labels + v.labels has rank rank(u) d + rank(v), and a term u
    of zr starting at a through the right kernel of (b, a, u.col), input
    v.labels + u.labels of rank rank(v) d_u + rank(u).  So the block
    reads one contiguous slice of each left table and one strided slice
    of each right table, its rows read through _table_row().  The unit
    laws are (1, 0) and (0, -1), centrality is (z, z), and the homotopy
    endomorphisms are (X_i, X_j).
    """
    at_left: dict[Matching, list] = {}
    at_right: dict[Matching, list] = {}
    for u, c in zl.terms.items():
        at_left.setdefault(u.col, []).append((u.row, _rank(u.labels), c))
    for u, c in zr.terms.items():
        at_right.setdefault(u.row, []).append((u.col, _rank(u.labels), len(u.labels), -c))
    offsets, dims = space._block_offsets, space.block_dims
    for b, a in offsets:
        d = dims[b, a]
        # each term as (kernel, the block's input ranks, output offset, coeff)
        reads = [
            (space._kernel_at("left", m, b, a), range(rank * d, rank * d + d), offsets[m, a], k)
            for m, rank, k in at_left.get(b, ())
        ] + [
            (space._kernel_at("right", b, a, m), range(rank, d << w, 1 << w), offsets[b, m], k)
            for m, rank, w, k in at_right.get(a, ())
        ]
        slices = []
        for kernel, ranks, z0, k in reads:
            rows = kernel[1][ranks.start : ranks.stop : ranks.step]
            if None in rows:
                rows = [_table_row(kernel, r) for r in ranks]
            slices.append((rows, z0, k))
        for r in range(d):
            image: dict[int, int] = {}
            for rows, z0, k in slices:
                for o, x in rows[r]:
                    image[z0 + o] = image.get(z0 + o, 0) + k * x
            yield {z: x for z, x in image.items() if x}


def _basis_rows(space) -> dict[Matching, list[BasisVector]]:
    """The basis vectors of space, the ring or a bimodule, grouped by
    row matching, each group in basis order."""
    rows: dict[Matching, list[BasisVector]] = {}
    for v in space.basis:
        rows.setdefault(v.row, []).append(v)
    return rows


def _unit_failure(space, one: RingElement):
    """The first basis vector v of space with 1 v != v or v 1 != v, or None."""
    zero = RingElement(one.n)
    images = enumerate(zip(_two_sided(space, one, zero), _two_sided(space, zero, -one)))
    return next((space.basis[i] for i, sides in images if sides != ({i: 1}, {i: 1})), None)


def _saddle_steps(c: Matching, b: Matching, a: Matching, arc_order) -> list[tuple]:
    """The circles of the product diagram of blocks (c, b) and (b, a), cut
    arc by arc in arc_order.

    glue(c, b) sits on the upper points 1..2n and glue(b, a) on the
    lower points 2n + 1..4n.  Cutting an arc (i, j) of b removes its
    copies on both lines and joins i to 2n + i and j to 2n + j by
    vertical strands.  After each cut the circles are found again by one
    walk alternating c- or a-arcs with b-arcs or strands, and listed by
    their smallest point: the first listing is the circle order of the
    word x.labels + y.labels, the last that of glue(c, a).  Each step is
    (kept, consumed, made): the (old, new) positions of the circles the
    cut leaves alone, the one or two circles it cuts through, and the
    two or one it makes.  A cut that neither merges two circles nor
    splits one (an arc cut twice) raises InvariantError.
    """
    off = 2 * c.n
    points = range(1, 2 * off + 1)
    outer = [0] * (2 * off + 1)
    inner = [0] * (2 * off + 1)
    for m, nbr, base in ((c, outer, 0), (b, inner, 0), (b, inner, off), (a, outer, off)):
        for i, j in m.pairs:
            nbr[base + i], nbr[base + j] = base + j, base + i

    def circles() -> list[int]:
        owner = [-1] * (2 * off + 1)
        count = 0
        for start in points:
            if owner[start] < 0:
                p = start
                while owner[p] < 0:
                    q = outer[p]
                    owner[p] = owner[q] = count
                    p = inner[q]
                count += 1
        return owner

    owner = circles()
    steps = []
    for i, j in arc_order:
        for e in (i, j):
            inner[e], inner[off + e] = off + e, e
        new = circles()
        ends = (i, j, off + i, off + j)
        consumed = sorted({owner[p] for p in ends})
        made = sorted({new[p] for p in ends})
        if len(consumed) + len(made) != 3:
            raise InvariantError(
                f"cutting arc ({i}, {j}) neither merges two circles nor splits one"
            )
        kept = sorted({(owner[p], new[p]) for p in points if owner[p] not in consumed})
        steps.append((tuple(kept), tuple(consumed), tuple(made)))
        owner = new
    return steps


def _surgery_product(steps: list[tuple], word: str) -> list[tuple[str, int]]:
    """The (word, coefficient) pairs one label word becomes along steps.

    A kept circle carries its label to its new position; the labels of
    the consumed circles multiply through MERGE or comultiply through
    SPLIT onto the made ones.  Sorted by word, no zeros.
    """
    terms = {word: 1}
    for kept, consumed, made in steps:
        out: dict[str, int] = {}
        labels = [""] * (len(kept) + len(made))
        for w, k in terms.items():
            for old, new in kept:
                labels[new] = w[old]
            if len(consumed) == 2:
                images = MERGE[(w[consumed[0]], w[consumed[1]])]
            else:
                images = SPLIT[w[consumed[0]]]
            # a merge image is one label, a split image a pair of them
            for image, c in images:
                for new, lab in zip(made, image):
                    labels[new] = lab
                v = "".join(labels)
                out[v] = out.get(v, 0) + c * k
        terms = out
    return sorted((w, k) for w, k in terms.items() if k)


def _lay_out_blocks(space, labels: dict) -> None:
    """Give space, the ring or a bimodule, its basis block by block.

    labels maps each block (b, a), in basis order, to the number k of
    its labels, and the block holds the 2^k label words of that length.
    Sets space.basis, space.block_dims (2^k per block),
    space._block_offsets (the index of each block's first vector),
    space._block_vectors (each block's slice of the basis), space.index
    and space.dimension.
    """
    space.basis, space.block_dims, space._block_offsets, space._block_vectors = [], {}, {}, {}
    for (b, a), k in labels.items():
        space.block_dims[b, a] = 2**k
        space._block_offsets[b, a] = len(space.basis)
        vectors = space._block_vectors[b, a] = [BasisVector(b, a, w) for w in label_words(k)]
        space.basis += vectors
    space.index = {v: i for i, v in enumerate(space.basis)}
    space.dimension = len(space.basis)


class ArcRing:
    """H_n with a fixed basis enumeration.

    The basis runs over ordered pairs (row, col) of matchings in the
    given order (default: the canonical linear extension of the arrow
    order) and, inside a block, over label words lexicographically.
    The products of basis vectors are memoized; they do not depend on
    the enumeration order.  The product table lists every composable
    pair once, in scan order; its walk, size and position decoder are
    the table methods below.
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
        # each block's circle masks, which _ring_key() reads
        self._masks = {(b, a): _circle_masks(b, a) for b in self.order for a in self.order}
        _lay_out_blocks(self, {block: len(masks) for block, masks in self._masks.items()})
        # the product table's blocks (c, b) in scan order, each as (first
        # position, first x index, first index of row b, width of row b)
        order, dims = self.order, self.block_dims
        runs = {b: (self._block_offsets[b, order[0]], sum(dims[b, a] for a in order)) for b in order}
        self._table_blocks, self._table_size = [], 0
        for (c, b), x0 in self._block_offsets.items():
            self._table_blocks.append((self._table_size, x0, *runs[b]))
            self._table_size += dims[c, b] * runs[b][1]
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
        product cuts the arcs by saddle surgery and is not memoized.
        """
        if x.col != y.row:
            return ()
        c, b, a = x.row, x.col, y.col
        if arc_order is not None:
            if sorted(map(tuple, arc_order)) != list(b.pairs):
                raise ValueError(f"arc_order {arc_order!r} is not a permutation of {b.pairs}")
            steps = _saddle_steps(c, b, a, arc_order)
            return tuple(
                (BasisVector(c, a, w), coeff)
                for w, coeff in _surgery_product(steps, x.labels + y.labels)
            )
        pair = (x, y)
        result = self._products.get(pair)
        if result is None:
            kernel = self._kernels.get((c, b, a)) or self._kernel(c, b, a)
            result = self._products[pair] = _kernel_product(kernel, x.labels + y.labels)
        return result

    def _kernel(self, c: Matching, b: Matching, a: Matching) -> tuple:
        """Build and store the kernel of triple (c, b, a), on its first product.

        The product cobordism runs from glue(c, b) and glue(b, a), with
        one saddle per arc of b, to glue(c, a); _ring_key() reads it off
        the three blocks' circle masks.
        """
        masks = self._masks
        key = _ring_key(masks[c, b], masks[b, a], masks[c, a])
        kernel = self._kernels[(c, b, a)] = _build_kernel(self, self, key, (c, a))
        return kernel

    def _kernel_at(self, side: str, c: Matching, b: Matching, a: Matching) -> tuple:
        """The kernel of triple (c, b, a), built on first use; either side
        of _two_sided() multiplies in the ring through it."""
        return self._kernels.get((c, b, a)) or self._kernel(c, b, a)

    # -- the product table ---------------------------------------------

    def product_count(self) -> int:
        """The number of composable pairs of basis vectors: the table's size."""
        return self._table_size

    def table_pair(self, k: int) -> tuple[BasisVector, BasisVector]:
        """The pair (x, y) at position k of the product table.

        The table lists the composable pairs in scan order: x over the
        basis, then y over row x.col, one run of indexes in basis order,
        as wide for every x of one block (c, b).
        """
        if not 0 <= k < self._table_size:
            raise IndexError(f"position {k} is outside the product table of {self._table_size}")
        i = bisect_right(self._table_blocks, k, key=lambda block: block[0]) - 1
        start, x0, y0, width = self._table_blocks[i]
        rx, ry = divmod(k - start, width)
        return self.basis[x0 + rx], self.basis[y0 + ry]

    def table_rows(self):
        """Each basis vector's row of the product table, in scan order.

        Yields (x index, [(first y index, z offset, rows), ...]), one
        chunk per block (b, a) of row x.col: the product of x and the y
        of index first y index + j is the sum of coeff times basis vector
        z offset + o over the (o, coeff) of rows[j].  x in block (c, b)
        and y in block (b, a) multiply through the kernel of triple
        (c, b, a), whose table row at the rank of x.labels + y.labels
        holds the product in the output ranks of block (c, a), so rows
        is the slice of that table at x.labels.  The walk reads every
        rank of a key's table, so it fills the whole table the first
        time it reaches the key.  No product memo is filled.
        """
        order, dims, offsets = self.order, self.block_dims, self._block_offsets
        filled = set()
        for c in order:
            for b in order:
                blocks = []
                for a in order:
                    kernel = self._kernels.get((c, b, a)) or self._kernel(c, b, a)
                    key, table, _ = kernel
                    if key not in filled:
                        filled.add(key)
                        for r in range(len(table)):
                            _table_row(kernel, r)
                    blocks.append((offsets[b, a], dims[b, a], table, offsets[c, a]))
                start = offsets[c, b]
                for rx in range(dims[c, b]):
                    yield start + rx, [
                        (y0, z0, table[rx * dy : rx * dy + dy]) for y0, dy, table, z0 in blocks
                    ]

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


def _associativity_failure(ring: ArcRing, triples):
    """The first triple (x, y, z) with (xy)z != x(yz), or None.

    Both sides run on label ranks, read off the kernel tables through
    _table_row().  For x in block (c, b), y in (b, a) and z in (a, a'),
    (xy)z reads row rank(x) d(b, a) + rank(y) of kernel (c, b, a), then
    row o d(a, a') + rank(z) of kernel (c, a, a') for each output rank o;
    x(yz) reads kernel (b, a, a'), then kernel (c, b, a') at
    rank(x) d(b, a') + o.  Each side is a {rank: coeff} dict of block
    (c, a').
    """
    kernels, dims = ring._kernels, ring.block_dims
    for x, y, z in triples:
        c, b, a, a2 = x.row, x.col, y.col, z.col
        xy, xy_z, yz, x_yz = [
            kernels.get(t) or ring._kernel(*t)
            for t in ((c, b, a), (c, a, a2), (b, a, a2), (c, b, a2))
        ]
        rx, ry, rz = _rank(x.labels), _rank(y.labels), _rank(z.labels)
        d = dims[a, a2]
        lhs: dict[int, int] = {}
        for o, k in _table_row(xy, rx * dims[b, a] + ry):
            for o2, k2 in _table_row(xy_z, o * d + rz):
                lhs[o2] = lhs.get(o2, 0) + k * k2
        rhs: dict[int, int] = {}
        base = rx * dims[b, a2]
        for o, k in _table_row(yz, ry * d + rz):
            for o2, k2 in _table_row(x_yz, base + o):
                rhs[o2] = rhs.get(o2, 0) + k * k2
        if {o: k for o, k in lhs.items() if k} != {o: k for o, k in rhs.items() if k}:
            return x, y, z
    return None


def _order_failure(ring: ArcRing, items):
    """The first (x, y, arc order) of items whose product by saddle
    surgery along that order differs from the kernels' product, or None.

    Items sharing a triple (c, b, a) and an order share one
    _saddle_steps() walk, made when their group's turn comes and dropped
    after it.  Groups run in the order of their first item, so a later
    group can hold an earlier failure; each group stops at its first
    failure or at the best one found so far.
    """
    groups: dict[tuple, list] = {}
    for i, (x, y, order) in enumerate(items):
        groups.setdefault((x.row, x.col, y.col, order), []).append((i, x, y))
    best = None
    for (c, b, a, order), members in groups.items():
        steps = _saddle_steps(c, b, a, order)
        for i, x, y in members:
            if best is not None and i > best[0]:
                break
            want = [(v.labels, k) for v, k in ring.multiply_basis(x, y)]
            if _surgery_product(steps, x.labels + y.labels) != want:
                best = (i, x, y, order)
                break
    return None if best is None else best[1:]


def verify_ring_integrity(n: int, seed: int = 0, samples: int = 10000) -> dict:
    """Associativity, unit law, grading, surgery-order independence.

    Associativity is exhaustive over composable basis triples for
    n <= 2 and runs on `samples` seeded random triples otherwise, both
    sides on label ranks read off the kernel tables.  Grading is checked
    on every composable basis pair, read off the product table's walk;
    surgery order on every pair for n <= 2 and on 400 seeded table
    positions otherwise, three shuffled arc orders each, one saddle walk
    per triple and order.  Every check reports into a JSON-ready
    dictionary with an overall "passed" flag; a counterexample is the
    first failing draw.
    """
    if n > MAX_RING_CHECK_N:
        raise CapacityError(f"the ring check supports n <= {MAX_RING_CHECK_N}, not n = {n}")
    ring = get_ring(n)
    rng = random.Random(seed)
    by_row = _basis_rows(ring)
    report: dict = {"n": n, "dimension": ring.dimension}

    # both laws on basis indices, read off the kernel tables
    failure = _unit_failure(ring, ring.unit())
    if failure is not None:
        report["unit_counterexample"] = repr(failure)
    report["unit_law"] = unit_ok = failure is None

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
    failure = _associativity_failure(ring, triples)
    if failure is not None:
        report["associativity_counterexample"] = [repr(v) for v in failure]
    report["associativity_triples"] = len(triples)
    report["associative"] = assoc_ok = failure is None

    # read off the product table's walk, which fills no product memo
    degrees = [degree(v) for v in ring.basis]
    failure = next(
        (
            (xi, yi)
            for xi, chunks in ring.table_rows()
            for y0, z0, rows in chunks
            for yi, terms in enumerate(rows, y0)
            if terms and any(degrees[z0 + o] != degrees[xi] + degrees[yi] for o, _ in terms)
        ),
        None,
    )
    if failure is not None:
        report["grading_counterexample"] = [repr(ring.basis[i]) for i in failure]
    report["grading_multiplicative"] = grading_ok = failure is None

    # every pair has n middle arcs, and one arc has only one order
    count = ring.product_count() if n > 1 else 0
    positions = rng.sample(range(count), 400) if n > 2 and count > 400 else range(count)
    items = []
    for x, y in map(ring.table_pair, positions):
        arcs = list(x.col.pairs)
        # three shuffled arc orders per pair
        for _ in range(3):
            rng.shuffle(arcs)
            items.append((x, y, tuple(arcs)))
    failure = _order_failure(ring, items)
    if failure is not None:
        x, y, order = failure
        report["order_counterexample"] = [repr(x), repr(y), list(order)]
    report["surgery_order_independent"] = order_ok = failure is None

    report["passed"] = unit_ok and assoc_ok and grading_ok and order_ok
    return report
