"""Element-level and ring-level verdicts, kept as a test oracle.

The ring-law, bimodule-axiom, null-homotopy and centrality checks of
the library run on basis vectors: each side of each identity is one sum
of per-basis products.  The functions here compute the same reports the
way the checks were first written, by wrapping every basis vector in a
one-term element and pushing it through the element-level maps:
ArcRing.multiply, and left_mul, right_mul, alpha and beta here, which
extend a UiBimodule's per-basis maps to Combinations over its space
(n, i).
They are slow and self-contained on purpose; the tests compare the
reports key for key, in order, including every counterexample.

The library computes the center from circle merges of diagonal label
words and never builds H_n for it.  ring_center_basis computes the
center the first way, by multiplying z_a 1_ab and 1_ab z_b in a ring
built under a given basis order, and total_order_independence compares
that oracle under several orders with the library's center, degree by
degree, as canonical row spans (same_lattices).

The library keeps the center as per-degree integer lattices and checks
the presentation by lattice equality.  center_elements turns lattice
rows into ring elements, and the functions after it check the
presentation the first way: every central element as one vector on
all diagonal labelings (diagonal_vector), the products solved in the
center lattice as one coordinate matrix (presentation_matrix), whose
invariant factors give presentation_unimodular, and central elements
carried back to admissible coordinates by one solve in the products'
lattice (to_admissible).

surgery_order_fields is the library's first surgery-order loop, which
cuts every drawn (pair, arc order) item on its own; the library walks
the saddles once per triple and order.

two_sided is the library's first two-sided routine, which maps basis
vectors to zl y - y zr as one sum of per-basis products; the library's
index routine, arc_ring._two_sided, reads the same images off the
kernel tables.

symmetric_action acts by a permutation on a central element through
the presentation, as the library's public function of that name did.

commutator_quotient_rank, criterion 9's oracle, ranks H_n modulo its
commutators by crossing every pair of basis vectors, lattice_equal
compares two column-span lattices, and rank is a matrix's rank over
the rationals.
"""

import itertools
import math
import random

from arcring.arc_ring import ArcRing, BasisVector, RingElement, degree, get_ring, label_words
from arcring.braid_homotopy import UiBimodule, _axiom_triples
from arcring.center import CenterBasis, center_basis, central_X
from arcring.combinatorics import all_linear_extensions, enumerate_matchings, glue
from arcring.frobenius import ONE, X, Combination
from arcring.integer_linalg import (
    IntMatrix,
    invariant_factors,
    kernel_basis,
    row_span_canonical,
    solve_in_column_span,
)


def two_sided(zl, zr, mul_left, mul_right, cls, space):
    """The map items -> zl y - y zr, y the combination of the (vector,
    coeff) items, each image one cls._sum in space.

    mul_left(u, w) and mul_right(w, u) multiply a basis vector w of y by
    a ring basis vector u.  Only the terms of zl ending at w.row and of
    zr starting at w.col compose with w, so they are grouped by that
    matching once.
    """
    at_left, at_right = {}, {}
    for u, c in zl.terms.items():
        at_left.setdefault(u.col, []).append((u, c))
    for u, c in zr.terms.items():
        at_right.setdefault(u.row, []).append((u, c))
    return lambda items: cls._sum(space, itertools.chain(
        ((c * cz, mul_left(u, w)) for w, c in items for u, cz in at_left.get(w.row, ())),
        ((-c * cz, mul_right(w, u)) for w, c in items for u, cz in at_right.get(w.col, ())),
    ))


def sampled_triples(ring, rng, samples):
    """The associativity triples of verify_ring_integrity and their mode:
    every composable triple for n <= 2, else samples triples drawn from
    rng, x over the basis, then y over row x.col and z over row y.col."""
    by_row = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    if ring.n <= 2:
        triples = [
            (x, y, z) for x in ring.basis for y in by_row[x.col] for z in by_row[y.col]
        ]
        return triples, "exhaustive"
    triples = []
    for _ in range(samples):
        x = rng.choice(ring.basis)
        y = rng.choice(by_row[x.col])
        z = rng.choice(by_row[y.col])
        triples.append((x, y, z))
    return triples, "sampled"


def ring_laws_report(n, seed=0, samples=10000):
    """The unit-law and associativity fields of verify_ring_integrity,
    checked on elements, with the same seeded triples."""
    ring = get_ring(n)
    rng = random.Random(seed)
    report = {}

    one = ring.unit()
    unit_ok = True
    for v in ring.basis:
        e = RingElement(n, {v: 1})
        if ring.multiply(one, e) != e or ring.multiply(e, one) != e:
            unit_ok = False
            report["unit_counterexample"] = repr(v)
            break
    report["unit_law"] = unit_ok

    triples, report["associativity_mode"] = sampled_triples(ring, rng, samples)
    assoc_ok = True
    for x, y, z in triples:
        ex, ey, ez = (RingElement(n, {v: 1}) for v in (x, y, z))
        if ring.multiply(ring.multiply(ex, ey), ez) != ring.multiply(ex, ring.multiply(ey, ez)):
            assoc_ok = False
            report["associativity_counterexample"] = [repr(x), repr(y), repr(z)]
            break
    report["associativity_triples"] = len(triples)
    report["associative"] = assoc_ok
    return report


def order_items(ring, seed=0, samples=10000):
    """The (x, y, arc order) items of verify_ring_integrity's surgery-order
    check, in draw order: after the associativity draws, 400 seeded table
    positions (every position for n <= 2), three shuffled orders each."""
    rng = random.Random(seed)
    sampled_triples(ring, rng, samples)
    count = ring.product_count() if ring.n > 1 else 0
    positions = rng.sample(range(count), 400) if ring.n > 2 and count > 400 else range(count)
    items = []
    for x, y in map(ring.table_pair, positions):
        arcs = list(x.col.pairs)
        for _ in range(3):
            rng.shuffle(arcs)
            items.append((x, y, tuple(arcs)))
    return items


def surgery_order_fields(n, seed=0, samples=10000):
    """The surgery-order fields of verify_ring_integrity, one
    multiply_basis product along each item's arc order, in draw order."""
    ring = get_ring(n)
    report = {}
    for x, y, order in order_items(ring, seed, samples):
        if ring.multiply_basis(x, y, arc_order=order) != ring.multiply_basis(x, y):
            report["order_counterexample"] = [repr(x), repr(y), list(order)]
            break
    report["surgery_order_independent"] = "order_counterexample" not in report
    return report


def composable_pairs(ring):
    """Every composable pair of basis vectors, in the product table's
    scan order: x over the basis, then y over row x.col in basis order."""
    by_row = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    return [(x, y) for x in ring.basis for y in by_row[x.col]]


def grading_counterexample(ring):
    """The first pair in scan order whose product has a term of another
    degree than deg x + deg y, as verify_ring_integrity reports it, or
    None; each pair goes through multiply_basis."""
    for x, y in composable_pairs(ring):
        want = degree(x) + degree(y)
        if any(degree(z) != want for z, _ in ring.multiply_basis(x, y)):
            return [repr(x), repr(y)]
    return None


def module_element(module, v):
    """The basis vector v of module as a one-term Combination."""
    return Combination(module.space, {v: 1})


def left_mul(module, y, x):
    """y x, for y in the ring and x a Combination in module."""
    product = module.left_mul_basis
    return Combination._sum(
        module.space,
        ((cy * cx, product(vy, vx)) for vy, cy in y.terms.items() for vx, cx in x.terms.items()),
    )


def right_mul(module, x, y):
    """x y, for x a Combination in module and y in the ring."""
    product = module.right_mul_basis
    return Combination._sum(
        module.space,
        ((cx * cy, product(vx, vy)) for vx, cx in x.terms.items() for vy, cy in y.terms.items()),
    )


def alpha(module, x):
    """The saddle map F(U_i) -> H on a Combination in module."""
    return RingElement._sum(module.n, ((c, module.alpha_basis(v)) for v, c in x.terms.items()))


def beta(module, y):
    """The saddle map H -> F(U_i) on a ring element."""
    return Combination._sum(module.space, ((c, module.beta_basis(v)) for v, c in y.terms.items()))


def bimodule_axiom_witness(n, i, seed=0):
    """_bimodule_axiom_witness, with every law checked on elements."""
    module = UiBimodule(n, i)
    ring = module.ring
    one = ring.unit()
    for v in module.basis:
        x = module_element(module, v)
        if left_mul(module, one, x) != x or right_mul(module, x, one) != x:
            return ["unit", repr(v)]

    def as_ring(v):
        return RingElement(n, {v: 1})

    def as_module(v):
        return module_element(module, v)

    def left(y, x):
        return left_mul(module, y, x)

    def right(x, y):
        return right_mul(module, x, y)

    for kind, t1, t2, t3 in _axiom_triples(module, seed):
        if kind == "ll":
            lhs = left(ring.multiply(as_ring(t1), as_ring(t2)), as_module(t3))
            rhs = left(as_ring(t1), left(as_ring(t2), as_module(t3)))
        elif kind == "rr":
            lhs = right(as_module(t1), ring.multiply(as_ring(t2), as_ring(t3)))
            rhs = right(right(as_module(t1), as_ring(t2)), as_ring(t3))
        else:
            lhs = right(left(as_ring(t1), as_module(t2)), as_ring(t3))
            rhs = left(as_ring(t1), right(as_module(t2), as_ring(t3)))
        if lhs != rhs:
            return [kind, repr(t1), repr(t2), repr(t3)]
    return None


def null_homotopy_report(i, n, seed=0):
    """verify_null_homotopy, with every image computed on elements."""
    module = UiBimodule(n, i)
    ring = module.ring
    z_lo = central_X(i, n)
    z_hi = central_X(i + 1, n)
    report = {"n": n, "i": i}

    def saddle_images():
        for v in module.basis:
            yield "alpha", v, alpha(module, module_element(module, v))
        for v in ring.basis:
            yield "beta", v, beta(module, RingElement(n, {v: 1}))

    degree_witness = next(
        (
            [kind, repr(v)]
            for kind, v, image in saddle_images()
            if any(degree(w) != degree(v) + 1 for w in image.terms)
        ),
        None,
    )
    report["saddle_maps_degree_one"] = degree_witness is None
    if degree_witness is not None:
        report["degree_counterexample"] = degree_witness

    def phi_ring(zl, zr, y):
        return ring.multiply(zl, y) - ring.multiply(y, zr)

    def phi_module(zl, zr, x):
        return left_mul(module, zl, x) - right_mul(module, x, zr)

    def sides(zl, zr):
        for v in ring.basis:
            y = RingElement(n, {v: 1})
            yield "ring", v, phi_ring(zl, zr, y), alpha(module, beta(module, y)), None
        for v in module.basis:
            x = module_element(module, v)
            a = alpha(module, x)
            yield "bimodule", v, phi_module(zl, zr, x), beta(module, a), a

    signs, unsigned, chain_ok = {}, {}, True
    for name, zl, zr in (
        ("left_lower_minus_right_upper", z_lo, z_hi),
        ("left_upper_minus_right_lower", z_hi, z_lo),
    ):
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
            if commutes and a is not None and alpha(module, lhs) != phi_ring(zl, zr, a):
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
    witness = bimodule_axiom_witness(n, i, seed=seed)
    report["bimodule_axioms"] = witness is None
    if witness is not None:
        report["bimodule_axioms_counterexample"] = witness
    report["passed"] = (
        report["saddle_maps_degree_one"]
        and chain_ok
        and all(s in (1, -1) for s in signs.values())
        and report.get("bimodule_axioms", True)
    )
    return report


def symmetric_action(sigma, z, pres):
    """sigma, a dict {i: sigma(i)} or the sequence of the images of
    1..2n, acting on the central element z through presentation pres."""
    if not isinstance(sigma, dict):
        sigma = {i + 1: v for i, v in enumerate(sigma)}
    return pres.from_admissible(pres.act(sigma, to_admissible(pres, z)))


def is_central(z, ring=None):
    """Direct commutation of z with every basis vector, on elements."""
    ring = ring or get_ring(z.n)
    for bv in ring.basis:
        v = RingElement(ring.n, {bv: 1})
        if ring.multiply(z, v) != ring.multiply(v, z):
            return False
    return True


def ring_center_basis(ring):
    """The center of ring, from the ring's products of z_a with 1_ab.

    One kernel per degree 2k over the diagonal labelings with k X's in
    the ring's basis order, one constraint row per label word of every
    off-diagonal block.  The kernel rows are then moved to the columns
    of center_basis, matchings in lexicographic order, so the lattices
    of different orders compare directly.
    """
    n, order = ring.n, ring.order
    ones = {
        (a, b): BasisVector(a, b, ONE * len(glue(a, b).circles))
        for a in order
        for b in order
        if a != b
    }
    lattices = {}
    for k in range(n + 1):
        words = [w for w in label_words(n) if w.count(X) == k]
        cols = [(a, w) for a in order for w in words]
        col_pos = {key: i for i, key in enumerate(cols)}
        row_pos = {}
        for a, b in itertools.permutations(order, 2):
            for w in label_words(len(glue(a, b).circles)):
                if w.count(X) == k:
                    row_pos[(a, b, w)] = len(row_pos)
        matrix = [[0] * len(cols) for _ in range(len(row_pos))]
        for a, b in itertools.permutations(order, 2):
            e_ab = ones[(a, b)]
            for w in words:
                za = BasisVector(a, a, w)
                for bv, c in ring.multiply_basis(za, e_ab):
                    matrix[row_pos[(a, b, bv.labels)]][col_pos[(a, w)]] += c
                zb = BasisVector(b, b, w)
                for bv, c in ring.multiply_basis(e_ab, zb):
                    matrix[row_pos[(a, b, bv.labels)]][col_pos[(b, w)]] -= c
        if row_pos:
            kernel = kernel_basis(IntMatrix(matrix, cols=len(cols)))
        else:
            kernel = [[int(i == j) for j in range(len(cols))] for i in range(len(cols))]
        canonical = [(a, w) for a in enumerate_matchings(n) for w in words]
        lattices[2 * k] = (
            canonical,
            [[vec[col_pos[key]] for key in canonical] for vec in kernel],
        )
    return CenterBasis(n, lattices)


def same_lattices(A, B):
    """Do center bases A and B have the same columns and span the same
    lattice in every degree?  Compares canonical row spans."""
    if A.lattices.keys() != B.lattices.keys():
        return False
    for d, (cols, rows) in A.lattices.items():
        other_cols, other_rows = B.lattices[d]
        if cols != other_cols or row_span_canonical(
            IntMatrix(rows, cols=len(cols))
        ) != row_span_canonical(IntMatrix(other_rows, cols=len(cols))):
            return False
    return True


def total_order_independence(n, seed=0):
    """ring_center_basis under several basis orders against center_basis(n).

    The orders are every linear extension of the arrow order (at most
    two for n <= 3) and three seeded arbitrary matching orders; every
    lattice must equal the library's, degree by degree.
    """
    extensions = all_linear_extensions(n, cap=6)
    orders = list(extensions)
    rng = random.Random(seed)
    base = enumerate_matchings(n)
    # three extra orders, but there are only len(base)! distinct orders
    # at all (n = 1 has a single order, n = 2 has two)
    target = min(len(extensions) + 3, math.factorial(len(base)))
    seen = {tuple(o) for o in orders}
    while len(orders) < target:
        shuffled = base[:]
        rng.shuffle(shuffled)
        if tuple(shuffled) not in seen:
            seen.add(tuple(shuffled))
            orders.append(shuffled)
    merged = center_basis(n)
    equal = all(same_lattices(merged, ring_center_basis(ArcRing(n, order))) for order in orders)
    return {
        "n": n,
        "linear_extensions": len(extensions),
        "orders_checked": len(orders),
        "lattices_equal": equal,
        "passed": equal,
    }


def center_elements(basis):
    """The rows of each degree's lattice of basis, in degree order, as
    diagonal RingElements."""
    return [
        RingElement(basis.n, {BasisVector(a, a, w): c for (a, w), c in zip(cols, row) if c})
        for _, (cols, rows) in sorted(basis.lattices.items())
        for row in rows
    ]


def diagonal_coordinates(n):
    """Every diagonal labeling (a, w): matchings in lexicographic order,
    then label words in label_words order, every degree at once."""
    return [(a, w) for a in enumerate_matchings(n) for w in label_words(n)]


def diagonal_vector(z):
    """Coordinates of a diagonal element in diagonal_coordinates order."""
    pos = {key: i for i, key in enumerate(diagonal_coordinates(z.n))}
    v = [0] * len(pos)
    for bv, c in z.terms.items():
        if bv.row != bv.col:
            raise ValueError("element is not supported on the diagonal blocks")
        v[pos[(bv.row, bv.labels)]] = c
    return v


def column_matrix(n, elements):
    """The diagonal vectors of elements as the columns of one matrix."""
    rows = len(diagonal_coordinates(n))
    vectors = [diagonal_vector(z) for z in elements]
    return IntMatrix([[v[i] for v in vectors] for i in range(rows)], cols=len(vectors))


def presentation_matrix(pres):
    """The products' coordinates in the center basis, as columns: one
    solve per product against the center lattice.  None when a product
    lies outside it."""
    lattice = column_matrix(pres.n, center_elements(pres.center))
    columns = [solve_in_column_span(lattice, diagonal_vector(p)) for p in pres.products]
    if None in columns:
        return None
    return IntMatrix(columns, cols=pres.center.rank).transpose()


def presentation_unimodular(pres):
    """The iso check's (matrix_square, matrix_invariant_factors_all_one),
    from the coordinate matrix's shape and its invariant factors."""
    matrix = presentation_matrix(pres)
    square = len(pres.products) == pres.center.rank
    if matrix is None:
        return square, False
    facs = invariant_factors(matrix)
    return square, len(facs) == pres.center.rank and all(f == 1 for f in facs)


def to_admissible(pres, z):
    """The admissible coordinates of a central element: one solve against
    the lattice of the products' diagonal vectors."""
    sol = solve_in_column_span(column_matrix(pres.n, pres.products), diagonal_vector(z))
    if sol is None:
        raise ValueError("element is not an integral combination of the products")
    return {s: c for s, c in zip(pres.admissible, sol) if c != 0}


def lattice_equal(A, B):
    """Do the columns of A and B span the same sublattice of Z^rows?

    Compares the canonical row spans of the transposes.
    """
    if A.rows != B.rows:
        raise ValueError(f"ambient ranks differ: {A.rows} vs {B.rows}")
    return row_span_canonical(A.transpose()) == row_span_canonical(B.transpose())


def rank(M):
    """Rank over the rationals (torsion does not affect it)."""
    return len(row_span_canonical(M))


def commutator_quotient_rank(n):
    """Rank of H_n modulo the subgroup spanned by all xy - yx.

    Computed over the full basis: one generator per composable ordered
    pair of basis vectors, reduced by integer rank.
    """
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
