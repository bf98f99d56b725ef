"""The center of the arc ring and its Springer presentation.

An element z = sum_a z_a supported on the diagonal blocks is central
exactly when z_a 1_ab = 1_ab z_b for every ordered pair of matchings,
where 1_ab is the all-ones labeling of glue(a, b).  That condition is
integer-linear in the diagonal coordinates and homogeneous in the
grading, so the center is computed degree by degree as a saturated
kernel lattice.

The distinguished central elements X_i (one per endpoint, with an
alternating sign) generate the center; sending the admissible monomial
X_I to the product of the corresponding X_i realizes the Springer
cohomology presentation, and this module verifies that the resulting
integer matrix is an isomorphism and transports the symmetric group
action.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .arc_ring import ArcRing, BasisVector, RingElement, degree, get_ring, label_words
from .combinatorics import (
    Matching,
    admissible_subsets,
    all_linear_extensions,
    enumerate_matchings,
    glue,
)
from .errors import InvariantError, SizeMismatchError
from .frobenius import ONE, X
from .integer_linalg import (
    IntMatrix,
    invariant_factors,
    kernel_basis,
    lattice_equal,
    solve_in_column_span,
)
from .presentations import SquareFreePoly, admissible_coordinates


def diagonal_coordinates(n: int) -> list[tuple[Matching, str]]:
    """Canonical coordinate order for diagonal elements.

    Lexicographic over matchings, then lexicographic label words; this
    never depends on the basis order a ring was built with, so lattices
    computed under different orders can be compared directly.
    """
    return [
        (a, w) for a in enumerate_matchings(n) for w in label_words(n)
    ]


@lru_cache(maxsize=None)
def _diagonal_positions(n: int) -> dict[tuple[Matching, str], int]:
    return {key: i for i, key in enumerate(diagonal_coordinates(n))}


def diagonal_vector(z: RingElement) -> list[int]:
    """Coordinates of a diagonal element in the canonical order."""
    pos = _diagonal_positions(z.n)
    v = [0] * len(pos)
    for bv, c in z.terms.items():
        if bv.row != bv.col:
            raise ValueError("element is not supported on the diagonal blocks")
        v[pos[(bv.row, bv.labels)]] = c
    return v


@dataclass
class CenterBasis:
    """A basis of the center lattice, homogeneous and graded by degree."""

    n: int
    elements: list[RingElement]
    graded_ranks: dict[int, int]
    _lattice: IntMatrix | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.elements)

    def lattice_matrix(self) -> IntMatrix:
        """Columns are the basis elements in canonical diagonal coordinates.

        Built once and shared by every caller, so solves against it
        reuse one factorization; do not mutate it.
        """
        if self._lattice is None:
            self._lattice = IntMatrix.from_columns(
                [diagonal_vector(z) for z in self.elements],
                rows=len(_diagonal_positions(self.n)),
            )
        return self._lattice


def center_basis(n: int, ring: ArcRing | None = None) -> CenterBasis:
    """Solve the equalizer condition for the center of H_n.

    One kernel computation per degree 2k: the unknowns are the diagonal
    labelings with k X's, the constraints compare z_a 1_ab with 1_ab z_b
    in every off-diagonal block.  Kernel bases are saturated, so the
    result is a basis of the full center lattice, not just a finite
    index sublattice.
    """
    ring = ring or get_ring(n)
    order = ring.order
    ones = {
        (a, b): BasisVector(a, b, ONE * len(glue(a, b).circles))
        for a in order
        for b in order
        if a != b
    }
    elements: list[RingElement] = []
    graded: dict[int, int] = {}
    for k in range(n + 1):
        cols = [
            (a, w)
            for a in order
            for w in label_words(n)
            if w.count(X) == k
        ]
        col_pos = {key: i for i, key in enumerate(cols)}
        row_pos: dict[tuple[Matching, Matching, str], int] = {}
        for a, b in itertools.permutations(order, 2):
            for w in label_words(len(glue(a, b).circles)):
                if w.count(X) == k:
                    row_pos[(a, b, w)] = len(row_pos)
        matrix = [[0] * len(cols) for _ in range(len(row_pos))]
        for a, b in itertools.permutations(order, 2):
            e_ab = ones[(a, b)]
            for w in label_words(n):
                if w.count(X) != k:
                    continue
                za = BasisVector(a, a, w)
                for bv, c in ring.multiply_basis(za, e_ab):
                    matrix[row_pos[(a, b, bv.labels)]][col_pos[(a, w)]] += c
                zb = BasisVector(b, b, w)
                for bv, c in ring.multiply_basis(e_ab, zb):
                    matrix[row_pos[(a, b, bv.labels)]][col_pos[(b, w)]] -= c
        if row_pos:
            kernel = kernel_basis(IntMatrix(matrix, cols=len(cols)))
        else:
            kernel = IntMatrix.identity(len(cols)).data
        graded[2 * k] = len(kernel)
        for vec in kernel:
            elements.append(
                RingElement(
                    n,
                    {
                        BasisVector(a, a, w): c
                        for (a, w), c in zip(cols, vec)
                        if c != 0
                    },
                )
            )
    return CenterBasis(n, elements, graded)


def is_central(z: RingElement, ring: ArcRing | None = None) -> bool:
    """Direct commutation of z with every basis vector."""
    ring = ring or get_ring(z.n)
    for bv in ring.basis:
        v = RingElement(ring.n, {bv: 1})
        if ring.multiply(z, v) != ring.multiply(v, z):
            return False
    return True


def central_X(i: int, n: int, verify: bool | None = None) -> RingElement:
    """The i-th distinguished central element.

    For each matching a, label the circle of glue(a, a) through
    endpoint i with X and the rest with 1; sum over a with sign
    (-1)^i.  Verified central by direct commutation for small n
    (override with verify=...).
    """
    if not 1 <= i <= 2 * n:
        raise ValueError(f"endpoint {i} out of range 1..{2*n}")
    sign = (-1) ** i
    terms: dict[BasisVector, int] = {}
    for a in enumerate_matchings(n):
        diagram = glue(a, a)
        which = diagram.endpoint_to_circle[i]
        word = "".join(X if j == which else ONE for j in range(len(diagram.circles)))
        terms[BasisVector(a, a, word)] = sign
    z = RingElement(n, terms)
    if verify is None:
        verify = n <= 3
    if verify and not is_central(z):
        raise InvariantError(f"X_{i} failed the centrality check for n={n}")
    return z


@dataclass
class CenterPresentation:
    """The admissible-monomial coordinates on the center.

    products[j] is the product of central_X over the j-th admissible
    subset; matrix columns give those products in the coordinates of the
    center basis.  When the matrix is unimodular the assignment
    X_I -> product realizes the quotient presentation as an integral
    isomorphism onto the center.
    """

    n: int
    ring: ArcRing
    center: CenterBasis
    admissible: list[tuple[int, ...]]
    products: list[RingElement]
    matrix: IntMatrix
    _position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._position = {s: j for j, s in enumerate(self.admissible)}

    def center_coords(self, z: RingElement) -> list[int]:
        """Coordinates of a central element in the center basis."""
        sol = solve_in_column_span(self.center.lattice_matrix(), diagonal_vector(z))
        if sol is None:
            raise ValueError("element does not lie in the center lattice")
        return sol

    def from_admissible(self, coords: dict[tuple[int, ...], int]) -> RingElement:
        """The sum of c times the product of X_I, summed in one pass."""
        products, position = self.products, self._position
        return RingElement._sum(
            self.n,
            ((c, products[position[tuple(s)]].terms.items()) for s, c in coords.items()),
        )

    def to_admissible(self, z: RingElement) -> dict[tuple[int, ...], int]:
        """Invert the presentation on a central element."""
        x = self.center_coords(z)
        sol = solve_in_column_span(self.matrix, x)
        if sol is None:
            raise ValueError("element is not an integral combination of the products")
        return {s: c for s, c in zip(self.admissible, sol) if c != 0}

    def act(self, sigma: dict[int, int], z: RingElement) -> RingElement:
        """The symmetric group action transported through the presentation.

        Express z over the admissible monomials, permute the variable
        indices, reduce back to admissible form, and map into the ring.
        """
        coords = self.to_admissible(z)
        p = SquareFreePoly(self.n, {frozenset(s): c for s, c in coords.items()})
        moved = p.permuted(sigma)
        return self.from_admissible(admissible_coordinates(moved))


def presentation_map(n: int, ring: ArcRing | None = None) -> CenterPresentation:
    ring = ring or get_ring(n)
    center = center_basis(n, ring)
    xs = [central_X(i, n, verify=False) for i in range(1, 2 * n + 1)]
    admissible = admissible_subsets(n)
    products: list[RingElement] = []
    for subset in admissible:
        acc = ring.unit()
        for i in subset:
            acc = ring.multiply(acc, xs[i - 1])
        products.append(acc)
    lattice = center.lattice_matrix()
    columns = []
    for subset, prod in zip(admissible, products):
        sol = solve_in_column_span(lattice, diagonal_vector(prod))
        if sol is None:
            raise InvariantError(
                f"product over {subset} is central but missed the center lattice"
            )
        columns.append(sol)
    matrix = IntMatrix.from_columns(columns, rows=center.rank)
    return CenterPresentation(n, ring, center, admissible, products, matrix)


def verify_presentation_iso(n: int, sample_products: int = 40, seed: int = 0) -> dict:
    """Machine check that the admissible presentation is the center.

    Returns a JSON-ready report: relation images vanish, graded ranks
    agree, the coordinate matrix is unimodular and degree-preserving,
    and the map is multiplicative on (sampled) products of monomials.
    """
    ring = get_ring(n)
    pres = presentation_map(n, ring)
    report: dict = {"n": n}

    xs = [central_X(i, n, verify=False) for i in range(1, 2 * n + 1)]
    report["generators_central"] = all(is_central(x, ring) for x in xs)
    report["squares_vanish"] = all(ring.multiply(x, x).is_zero() for x in xs)
    elementary_images = []
    for k in range(1, 2 * n + 1):
        total = RingElement(n)
        for subset in itertools.combinations(range(2 * n), k):
            acc = ring.unit()
            for i in subset:
                acc = ring.multiply(acc, xs[i])
            total = total + acc
        elementary_images.append(total.is_zero())
    report["elementary_symmetric_images_vanish"] = all(elementary_images)

    adm_by_card: dict[int, int] = {}
    for s in pres.admissible:
        adm_by_card[2 * len(s)] = adm_by_card.get(2 * len(s), 0) + 1
    report["graded_ranks_center"] = {str(d): r for d, r in sorted(pres.center.graded_ranks.items())}
    report["graded_ranks_admissible"] = {str(d): r for d, r in sorted(adm_by_card.items())}
    report["graded_ranks_match"] = {
        d: r for d, r in pres.center.graded_ranks.items() if r
    } == adm_by_card

    facs = invariant_factors(pres.matrix)
    report["matrix_square"] = pres.matrix.rows == pres.matrix.cols == pres.center.rank
    report["matrix_invariant_factors_all_one"] = (
        len(facs) == pres.center.rank and all(f == 1 for f in facs)
    )

    degree_ok = True
    for subset, prod in zip(pres.admissible, pres.products):
        degs = {degree(v) for v in prod.terms}
        if degs != {2 * len(subset)}:
            degree_ok = False
    report["products_homogeneous"] = degree_ok

    rng = random.Random(seed)
    pairs = list(itertools.product(range(len(pres.admissible)), repeat=2))
    if len(pairs) > sample_products:
        pairs = rng.sample(pairs, sample_products)
    mult_ok = True
    for ia, ib in pairs:
        sa, sb = pres.admissible[ia], pres.admissible[ib]
        direct = ring.multiply(pres.products[ia], pres.products[ib])
        poly = SquareFreePoly.monomial(n, sa) * SquareFreePoly.monomial(n, sb)
        via_reduction = pres.from_admissible(admissible_coordinates(poly))
        if direct != via_reduction:
            mult_ok = False
            report["multiplicativity_counterexample"] = [list(sa), list(sb)]
            break
    report["multiplicative_on_products"] = mult_ok

    report["center_rank"] = pres.center.rank
    report["passed"] = all(
        report[key]
        for key in (
            "generators_central",
            "squares_vanish",
            "elementary_symmetric_images_vanish",
            "graded_ranks_match",
            "matrix_square",
            "matrix_invariant_factors_all_one",
            "products_homogeneous",
            "multiplicative_on_products",
        )
    )
    return report


def symmetric_action(sigma, z: RingElement, pres: CenterPresentation | None = None) -> RingElement:
    """Act by a permutation of [1, 2n] on a central element.

    sigma may be a dict {i: sigma(i)} or a sequence of length 2n listing
    images of 1..2n.
    """
    if pres is None:
        pres = presentation_map(z.n)
    if z.n != pres.n:
        raise SizeMismatchError("element and presentation sizes differ")
    if not isinstance(sigma, dict):
        sigma = {i + 1: v for i, v in enumerate(sigma)}
    if sorted(sigma) != list(range(1, 2 * pres.n + 1)) or sorted(
        sigma.values()
    ) != list(range(1, 2 * pres.n + 1)):
        raise ValueError("sigma must permute 1..2n")
    return pres.act(sigma, z)


def _compose(sigma: dict[int, int], tau: dict[int, int]) -> dict[int, int]:
    return {j: sigma[tau[j]] for j in tau}


def verify_symmetric_action(n: int, seed: int = 0, pair_samples: int = 10) -> dict:
    """The permutation action on the center, machine checked.

    Checks that the defining relations are permutation-stable (the full
    elementary symmetric generators are literally fixed, and permuting
    any generator of the second ideal stays inside the first ideal),
    and that acting through the presentation satisfies the action
    property sigma(tau z) = (sigma tau) z and the braid relations on
    the center basis.
    """
    from .presentations import ideal_R1, r1_generators, r2_generators

    pres = presentation_map(n)
    report: dict = {"n": n}

    transpositions = [
        {**{j: j for j in range(1, 2 * n + 1)}, i: i + 1, i + 1: i}
        for i in range(1, 2 * n)
    ]
    gens_fixed = all(
        g.permuted(t) == g for g in r1_generators(n) for t in transpositions
    )
    report["r1_generators_fixed"] = gens_fixed

    span = ideal_R1(n)
    stable = all(
        span.contains(g.permuted(t)) for g in r2_generators(n) for t in transpositions
    )
    report["ideal_stable_under_transpositions"] = stable

    identity = {j: j for j in range(1, 2 * n + 1)}
    basis_elements = pres.center.elements
    identity_ok = all(pres.act(identity, z) == z for z in basis_elements)
    report["identity_acts_trivially"] = identity_ok

    rng = random.Random(seed)
    all_perms = [
        {j + 1: p[j] for j in range(2 * n)}
        for p in itertools.permutations(range(1, 2 * n + 1))
    ]
    pairs = list(itertools.product(transpositions, repeat=2))
    for _ in range(pair_samples):
        pairs.append((rng.choice(all_perms), rng.choice(all_perms)))
    action_ok = True
    for sigma, tau in pairs:
        st = _compose(sigma, tau)
        for z in basis_elements:
            if pres.act(sigma, pres.act(tau, z)) != pres.act(st, z):
                action_ok = False
                break
        if not action_ok:
            break
    report["action_property"] = action_ok
    report["action_pairs_checked"] = len(pairs)

    braid_ok = True
    for j in range(len(transpositions) - 1):
        s, t = transpositions[j], transpositions[j + 1]
        for z in basis_elements:
            lhs = pres.act(s, pres.act(t, pres.act(s, z)))
            rhs = pres.act(t, pres.act(s, pres.act(t, z)))
            if lhs != rhs:
                braid_ok = False
                break
        if not braid_ok:
            break
    report["braid_relations"] = braid_ok

    report["passed"] = gens_fixed and stable and identity_ok and action_ok and braid_ok
    return report


def total_order_independence(n: int, extra_orders: int = 3, seed: int = 0) -> dict:
    """Check the center lattice does not depend on the basis order.

    Recomputes the center under every linear extension of the arrow
    order (there are at most two for n <= 3) and additionally under
    seeded arbitrary matching orders, then compares all the lattices in
    canonical coordinates.
    """
    extensions = all_linear_extensions(n, cap=6)
    orders = list(extensions)
    rng = random.Random(seed)
    base = enumerate_matchings(n)
    # there are only len(base)! distinct orders at all, which caps the
    # request for extra ones (n = 1 has a single order, n = 2 has two)
    target = min(len(extensions) + extra_orders, math.factorial(len(base)))
    seen = {tuple(o) for o in orders}
    while len(orders) < target:
        shuffled = base[:]
        rng.shuffle(shuffled)
        if tuple(shuffled) not in seen:
            seen.add(tuple(shuffled))
            orders.append(shuffled)
    lattices = [
        center_basis(n, ArcRing(n, order)).lattice_matrix() for order in orders
    ]
    equal = all(lattice_equal(lattices[0], latt) for latt in lattices[1:])
    return {
        "n": n,
        "linear_extensions": len(extensions),
        "orders_checked": len(orders),
        "lattices_equal": equal,
        "passed": equal,
    }
