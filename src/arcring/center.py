"""The center of the arc ring and its Springer presentation.

An element z = sum_a z_a supported on the diagonal blocks is central
exactly when z_a 1_ab = 1_ab z_b for every ordered pair of matchings,
where 1_ab is the all-ones labeling of glue(a, b).  Both sides are pure
circle merges: every circle of glue(a, a) lies on one circle of
glue(a, b), so each X of a diagonal label word moves onto that circle,
and two X's meeting give zero.  The condition is integer-linear in the
diagonal coordinates and homogeneous in the grading, so the center is
computed degree by degree as a saturated kernel lattice.

The distinguished central elements X_i (one per endpoint, with an
alternating sign) generate the center.  The diagonal blocks multiply
as square-free label words, so the product X_I has a closed form.
Sending the admissible monomial X_I to it realizes the Springer
cohomology presentation; this module verifies the isomorphism degree by
degree, as equality of the products' span with the center's lattice,
and transports the symmetric group action onto admissible coordinates.
The center, the presentation and the action never build H_n: only the
checks that test the ring itself (is_central, and the ring products in
verify_presentation_iso) do.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from .arc_ring import BasisVector, RingElement, _two_sided, degree, get_ring, label_words
from .combinatorics import ClosedDiagram, Matching, admissible_subsets, enumerate_matchings, glue
from .errors import CapacityError
from .frobenius import ONE, X
from .integer_linalg import IntMatrix, kernel_basis, row_span_canonical
from .presentations import (
    SquareFreePoly,
    admissible_coordinates,
    ideal_R1,
    r1_generators,
    r2_generators,
)

# center_basis gave no verdict in 480 s at 1.7 GiB at n = 6, and the
# presentation, the iso check and the symmetric check build it first
MAX_CENTER_N = 5


class CenterBasis(NamedTuple):
    """The center lattice, homogeneous and graded by degree.

    lattices[2k] is (columns, rows): the columns are the diagonal
    labelings (a, w) with k X's, matchings in lexicographic order and
    words in label_words order, and the rows a saturated basis of the
    center's degree-2k lattice in those coordinates.  The columns never
    depend on the basis order a ring was built with, so lattices
    computed under different orders compare directly.
    """

    n: int
    lattices: dict[int, tuple[list[tuple[Matching, str]], list[list[int]]]]

    @property
    def graded_ranks(self) -> dict[int, int]:
        return {d: len(rows) for d, (_, rows) in self.lattices.items()}

    @property
    def rank(self) -> int:
        return sum(len(rows) for _, rows in self.lattices.values())


def _push(diagram: ClosedDiagram, points) -> str | None:
    """The word on the circles of diagram with X on each circle through points.

    None when two points share a circle: X times X is zero, with no sign.
    """
    marks = {diagram.endpoint_to_circle[p] for p in points}
    if len(marks) < len(points):
        return None
    return "".join(X if j in marks else ONE for j in range(len(diagram.circles)))


def center_basis(n: int) -> CenterBasis:
    """Solve the equalizer condition for the center of H_n.

    One kernel computation per degree 2k: the unknowns are the diagonal
    labelings with k X's, the columns of CenterBasis.lattices, and the
    constraints compare z_a 1_ab with 1_ab z_b in every off-diagonal
    block.  Both sides are merges: each X of z_a or z_b sits on a circle
    of glue(a, a) or glue(b, b) and moves to the circle of glue(a, b)
    through the same points.  glue(b, a) has the circles of glue(a, b)
    in the same order, so block (b, a) repeats the rows of block (a, b)
    with the opposite sign, and each unordered pair is taken once.
    Kernel bases are saturated, so the result is a basis of the full
    center lattice, not just a finite index sublattice.  Beyond
    MAX_CENTER_N it raises CapacityError before any work.
    """
    if n > MAX_CENTER_N:
        raise CapacityError(f"the center supports n <= {MAX_CENTER_N}, not n = {n}")
    matchings = enumerate_matchings(n)
    lattices = {}
    for k in range(n + 1):
        words = [w for w in label_words(n) if w.count(X) == k]
        cols = [(a, w) for a in matchings for w in words]
        col_pos = {key: i for i, key in enumerate(cols)}
        # one endpoint of each circle of glue(a, a) that w labels X
        points = {
            (a, w): [circle[0] for circle, label in zip(glue(a, a).circles, w) if label == X]
            for a, w in cols
        }
        rows: dict[tuple[Matching, Matching, str], list[int]] = {}
        for a, b in itertools.combinations(matchings, 2):
            target = glue(a, b)
            for w in words:
                for c, sign in ((a, 1), (b, -1)):
                    pushed = _push(target, points[(c, w)])
                    if pushed is not None:
                        row = rows.setdefault((a, b, pushed), [0] * len(cols))
                        row[col_pos[(c, w)]] += sign
        # no rows (degree 2n, where the n X's always meet, and n = 1)
        # leave the whole space: kernel_basis gives the identity
        lattices[2 * k] = (cols, kernel_basis(IntMatrix(list(rows.values()), cols=len(cols))))
    return CenterBasis(n, lattices)


def is_central(z: RingElement) -> bool:
    """Direct commutation of z with every basis vector of H_n.

    Each commutator z v - v z is read off the kernel tables of the terms
    of z that compose with v, by arc_ring._two_sided().
    """
    return not any(_two_sided(get_ring(z.n), z, z))


def _diagonal_monomial(n: int, subset) -> RingElement:
    """The product of the X_i over subset, in closed form.

    On block a it is (-1)^(sum of subset) times the word with X on the
    circles of glue(a, a) through subset, or nothing when two points of
    subset share a circle.
    """
    sign = (-1) ** sum(subset)
    terms: dict[BasisVector, int] = {}
    for a in enumerate_matchings(n):
        word = _push(glue(a, a), subset)
        if word is not None:
            terms[BasisVector(a, a, word)] = sign
    return RingElement(n, terms)


def central_X(i: int, n: int) -> RingElement:
    """The i-th distinguished central element.

    For each matching a, label the circle of glue(a, a) through
    endpoint i with X and the rest with 1; sum over a with sign
    (-1)^i.
    """
    if not 1 <= i <= 2 * n:
        raise ValueError(f"endpoint {i} out of range 1..{2*n}")
    return _diagonal_monomial(n, (i,))


class CenterPresentation:
    """The admissible-monomial coordinates on the center.

    products[j] is the product of the X_i over the j-th admissible
    subset, in closed form.  X_I -> products[j] is an integral
    isomorphism onto the center when the products are as many as its
    rank and span its lattice in every degree, as the iso check
    verifies.  The admissible coordinates of the reduction of each
    square-free monomial are kept on the instance, filled on first use.
    """

    def __init__(
        self,
        n: int,
        center: CenterBasis,
        admissible: list[tuple[int, ...]],
        products: list[RingElement],
    ):
        self.n = n
        self.center = center
        self.admissible = admissible
        self.products = products
        self._position = {s: j for j, s in enumerate(admissible)}
        self._images: dict = {}

    def from_admissible(self, coords: dict[tuple[int, ...], int]) -> RingElement:
        """The sum of c times the product of X_I, summed in one pass."""
        products, position = self.products, self._position
        return RingElement._sum(
            self.n,
            ((c, products[position[tuple(s)]].terms.items()) for s, c in coords.items()),
        )

    def _image(self, subset: frozenset) -> tuple:
        """The admissible coordinates of the reduction of X_subset."""
        image = self._images.get(subset)
        if image is None:
            reduced = admissible_coordinates(SquareFreePoly(self.n, {subset: 1}))
            image = self._images[subset] = tuple(reduced.items())
        return image

    def act(
        self, sigma: dict[int, int], coords: dict[tuple[int, ...], int]
    ) -> dict[tuple[int, ...], int]:
        """The symmetric group action on admissible coordinates.

        Move each X_I to X_sigma(I) and sum the coordinates of their
        reductions.  The reduction is linear and sigma permutes the
        monomials, so this is the reduction of the permuted polynomial.
        """
        moved = [0] + [sigma.get(i, i) for i in range(1, 2 * self.n + 1)]
        if sorted(moved) != list(range(2 * self.n + 1)):
            raise ValueError("sigma must permute 1..2n")
        image = self._image
        acc: dict[tuple[int, ...], int] = {}
        for s, c in coords.items():
            for key, k in image(frozenset([moved[i] for i in s])):
                acc[key] = acc.get(key, 0) + c * k
        return {key: k for key, k in acc.items() if k}


def presentation_map(n: int) -> CenterPresentation:
    # the center first: it refuses n beyond MAX_CENTER_N before any work
    center = center_basis(n)
    admissible = admissible_subsets(n)
    products = [_diagonal_monomial(n, subset) for subset in admissible]
    return CenterPresentation(n, center, admissible, products)


def _first_unequal_degree(pres: CenterPresentation) -> int | None:
    """The first degree whose products and center rows span different
    lattices, or None.  Each product is a row over its degree's columns;
    a term on none of them leaves it outside that degree's lattice.
    """
    by_degree: dict[int, list[RingElement]] = {d: [] for d in pres.center.lattices}
    for subset, prod in zip(pres.admissible, pres.products):
        by_degree[2 * len(subset)].append(prod)
    for d, (cols, center_rows) in sorted(pres.center.lattices.items()):
        pos = {BasisVector(a, a, w): i for i, (a, w) in enumerate(cols)}
        rows = []
        for prod in by_degree[d]:
            row = [0] * len(cols)
            for v, c in prod.terms.items():
                if v not in pos:
                    return d
                row[pos[v]] = c
            rows.append(row)
        width = len(cols)
        if row_span_canonical(IntMatrix(rows, cols=width)) != row_span_canonical(
            IntMatrix(center_rows, cols=width)
        ):
            return d
    return None


def verify_presentation_iso(n: int, seed: int = 0, pres: CenterPresentation | None = None) -> dict:
    """Machine check that the admissible presentation is the center.

    Returns a JSON-ready report: relation images vanish, graded ranks
    agree, the products are homogeneous, as many as the center's rank
    and span its lattice in every degree (or the first degree where they
    do not, as presentation_counterexample), and the map is
    multiplicative on (sampled) products of monomials.
    pres, when given, is presentation_map(n), built once by the caller.
    """
    pres = pres or presentation_map(n)
    ring = get_ring(n)
    report: dict = {"n": n}

    xs = [central_X(i, n) for i in range(1, 2 * n + 1)]
    report["generators_central"] = all(is_central(x) for x in xs)
    report["squares_vanish"] = all(ring.multiply(x, x).is_zero() for x in xs)
    # e_k of X_1 .. X_j from those of X_1 .. X_{j-1}: e_k + e_{k-1} X_j
    elementary = [ring.unit()] + [RingElement(n)] * (2 * n)
    for j, x in enumerate(xs):
        for k in range(j + 1, 0, -1):
            elementary[k] = elementary[k] + ring.multiply(elementary[k - 1], x)
    report["elementary_symmetric_images_vanish"] = all(e.is_zero() for e in elementary[1:])

    adm_by_card: dict[int, int] = {}
    for s in pres.admissible:
        adm_by_card[2 * len(s)] = adm_by_card.get(2 * len(s), 0) + 1
    report["graded_ranks_center"] = {str(d): r for d, r in sorted(pres.center.graded_ranks.items())}
    report["graded_ranks_admissible"] = {str(d): r for d, r in sorted(adm_by_card.items())}
    report["graded_ranks_match"] = {
        d: r for d, r in pres.center.graded_ranks.items() if r
    } == adm_by_card

    # the products' coordinates in a center basis have rank many
    # invariant factors, all 1, exactly when the products span the center
    # lattice, and both lattices split by degree
    report["matrix_square"] = len(pres.admissible) == pres.center.rank
    unequal = _first_unequal_degree(pres)
    report["matrix_invariant_factors_all_one"] = unequal is None
    if unequal is not None:
        report["presentation_counterexample"] = unequal

    report["products_homogeneous"] = all(
        {degree(v) for v in prod.terms} == {2 * len(subset)}
        for subset, prod in zip(pres.admissible, pres.products)
    )

    rng = random.Random(seed)
    pairs = list(itertools.product(range(len(pres.admissible)), repeat=2))
    sample_products = 40
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


def _compose(sigma: dict[int, int], tau: dict[int, int]) -> dict[int, int]:
    return {j: sigma[tau[j]] for j in tau}


def _permutation_at(rank: int, n: int) -> dict[int, int]:
    """The rank-th permutation of 1..2n in lexicographic order.

    rank is read in the factorial number system: its digits pick each
    image among the values still unused.
    """
    left = list(range(1, 2 * n + 1))
    images = []
    for k in range(2 * n - 1, -1, -1):
        digit, rank = divmod(rank, math.factorial(k))
        images.append(left.pop(digit))
    return {j + 1: v for j, v in enumerate(images)}


def verify_symmetric_action(n: int, seed: int = 0, pres: CenterPresentation | None = None) -> dict:
    """The permutation action on the center, machine checked.

    Checks that the defining relations are permutation-stable (the full
    elementary symmetric generators are literally fixed, and permuting
    any generator of the second ideal stays inside the first ideal),
    and that acting through the presentation satisfies the action
    property sigma(tau z) = (sigma tau) z and the braid relations.
    Those are linear identities, so they are checked on the unit
    coordinates {I: 1}, one per admissible subset I: the products X_I
    are a basis of the center lattice when they are as many as its rank
    and span it in every degree, which the iso check verifies.
    The trivial action satisfies them all, so last each adjacent
    transposition t must move the generator X_i to X_t(i).  pres, when
    given, is presentation_map(n), built once by the caller.
    """
    pres = pres or presentation_map(n)
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

    coords = [{subset: 1} for subset in pres.admissible]
    act = pres.act
    identity = {j: j for j in range(1, 2 * n + 1)}
    identity_ok = all(act(identity, c) == c for c in coords)
    report["identity_acts_trivially"] = identity_ok

    rng = random.Random(seed)
    pairs = list(itertools.product(transpositions, repeat=2))
    # ten seeded pairs of arbitrary permutations
    for _ in range(10):
        sigma = _permutation_at(rng.randrange(math.factorial(2 * n)), n)
        tau = _permutation_at(rng.randrange(math.factorial(2 * n)), n)
        pairs.append((sigma, tau))
    action_ok = True
    for sigma, tau in pairs:
        st = _compose(sigma, tau)
        for c in coords:
            if act(sigma, act(tau, c)) != act(st, c):
                action_ok = False
                break
        if not action_ok:
            break
    report["action_property"] = action_ok
    report["action_pairs_checked"] = len(pairs)

    braid_ok = True
    for j in range(len(transpositions) - 1):
        s, t = transpositions[j], transpositions[j + 1]
        for c in coords:
            if act(s, act(t, act(s, c))) != act(t, act(s, act(t, c))):
                braid_ok = False
                break
        if not braid_ok:
            break
    report["braid_relations"] = braid_ok

    moves_ok = all(
        act(t, dict(pres._image(frozenset({i})))) == dict(pres._image(frozenset({t[i]})))
        for t in transpositions
        for i in range(1, 2 * n + 1)
    )
    report["transpositions_move_generators"] = moves_ok

    report["passed"] = (
        gens_fixed and stable and identity_ok and action_ok and braid_ok and moves_ok
    )
    return report
