"""Two ideal presentations of the (n, n) Springer variety cohomology.

Everything happens inside the square-free quotient of Z[X_1, ..., X_2n]
by (X_i^2), whose monomials are simply subsets of [1, 2n].  The first
ideal is generated by the full elementary symmetric polynomials e_k for
k = 1..2n; the second by the partial elementary symmetric polynomials
e_k(I) with k + |I| = 2n + 1 together with all square-free monomials on
n + 1 variables.  Both are stored as
graded integer lattices of coefficient vectors, closed degree by degree
under multiplication by single variables, so ideal equality and
quotient ranks reduce to exact lattice computations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .combinatorics import _first_violation, admissible_subsets
from .errors import InvariantError, SizeMismatchError, TorsionError
from .frobenius import Combination
from .integer_linalg import (
    IntMatrix,
    invariant_factors,
    row_span_canonical,
    solve_in_column_span,
)

Subset = frozenset[int]


class SquareFreePoly(Combination):
    """An integer polynomial in the square-free quotient of Z[X_1..X_2n].

    Terms map frozen subsets of [1, 2n] to coefficients; the product of
    two monomials is their union when disjoint and zero otherwise.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: dict[Subset, int] | None = None):
        variables = frozenset(range(1, 2 * n + 1))
        checked: dict[Subset, int] = {}
        for sub, c in (terms or {}).items():
            sub = frozenset(sub)
            if c == 0:
                continue
            if not sub <= variables:
                raise ValueError(f"{sorted(sub)} is not a subset of 1..{2*n}")
            checked[sub] = c
        super().__init__(n, checked)

    @property
    def n(self) -> int:
        return self.space

    @classmethod
    def monomial(cls, n: int, subset, coeff: int = 1) -> "SquareFreePoly":
        return cls(n, {frozenset(subset): coeff})

    @classmethod
    def zero(cls, n: int) -> "SquareFreePoly":
        return cls(n)

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if not self._compatible(other):
            return NotImplemented
        return self._sum(
            self.n,
            (
                (c * d, ((s | t, 1),))
                for s, c in self.terms.items()
                for t, d in other.terms.items()
                if not s & t
            ),
        )

    def degrees(self) -> set[int]:
        return {len(s) for s in self.terms}

    def permuted(self, sigma: dict[int, int]) -> "SquareFreePoly":
        """Apply a permutation of the variable indices.

        sigma maps i to sigma.get(i, i); that map must permute 1..2n, or
        terms would merge or vanish, so anything else is a ValueError.
        """
        variables = range(1, 2 * self.n + 1)
        if sorted(sigma.get(i, i) for i in variables) != list(variables):
            raise ValueError("sigma must permute 1..2n")
        return SquareFreePoly(
            self.n, {frozenset(sigma.get(i, i) for i in s): c for s, c in self.terms.items()}
        )

    def __repr__(self):
        if not self.terms:
            return "SquareFreePoly(0)"
        bits = []
        for s, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), sorted(t[0]))):
            mono = "*".join(f"X{i}" for i in sorted(s)) if s else "1"
            bits.append(f"{c}*{mono}")
        return "SquareFreePoly(" + " + ".join(bits) + ")"


def elem_sym(k: int, indices, n: int) -> SquareFreePoly:
    """The elementary symmetric polynomial e_k on the given variables.

    e_0 = 1; e_k vanishes when k exceeds the number of variables.
    """
    indices = sorted(set(indices))
    if not set(indices) <= set(range(1, 2 * n + 1)):
        raise ValueError(f"{indices} is not a subset of 1..{2*n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return SquareFreePoly(
        n, {frozenset(sub): 1 for sub in itertools.combinations(indices, k)}
    )


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Degree-d square-free monomials as sorted index tuples, lex order."""
    return tuple(itertools.combinations(range(1, 2 * n + 1), d))


def poly_degree_vector(p: SquareFreePoly, d: int) -> list[int]:
    """Coefficient vector of the degree-d part of p."""
    monos = monomials_of_degree(p.n, d)
    pos = {frozenset(m): i for i, m in enumerate(monos)}
    v = [0] * len(monos)
    for s, c in p.terms.items():
        if len(s) == d:
            v[pos[s]] = c
    return v


class GradedIdealSpan:
    """A homogeneous ideal of the square-free quotient, degree by degree.

    For each degree d the lattice of coefficient vectors of the ideal's
    degree-d part is stored through a canonical Hermite basis (one row
    per basis vector over the lex-ordered degree-d monomials).
    """

    def __init__(self, n: int, by_degree: dict[int, tuple[tuple[int, ...], ...]]):
        self.n = n
        self.by_degree = by_degree
        self._matrices: dict[int, IntMatrix] = {}

    def matrix(self, d: int) -> IntMatrix:
        """The degree-d lattice as a matrix whose columns span it.

        The same instance is returned for each degree, so membership
        tests factor each degree once; do not mutate it.
        """
        if d not in self._matrices:
            rows = self.by_degree.get(d, ())
            width = len(monomials_of_degree(self.n, d))
            if rows:
                m = IntMatrix([list(r) for r in rows], cols=width).transpose()
            else:
                m = IntMatrix([[] for _ in range(width)], cols=0)
            self._matrices[d] = m
        return self._matrices[d]

    def contains(self, p: SquareFreePoly) -> bool:
        """Exact membership, degree part by degree part."""
        if p.n != self.n:
            raise SizeMismatchError("polynomial size does not match the ideal")
        for d in p.degrees():
            vec = poly_degree_vector(p, d)
            if solve_in_column_span(self.matrix(d), vec) is None:
                return False
        return True


def build_ideal_span(generators: list[SquareFreePoly], n: int) -> GradedIdealSpan:
    """Close homogeneous generators under multiplication by variables.

    The generators must be homogeneous.  Degree d of the ideal is
    spanned by the degree-d generators together with X_i * (degree d-1
    part); working up the degrees once is enough because the ideal is
    generated in the degrees where generators sit.
    """
    by_deg_gens: dict[int, list[SquareFreePoly]] = {}
    for g in generators:
        if g.is_zero():
            continue
        degs = g.degrees()
        if len(degs) != 1:
            raise ValueError("ideal generators must be homogeneous")
        by_deg_gens.setdefault(degs.pop(), []).append(g)

    by_degree: dict[int, tuple[tuple[int, ...], ...]] = {}
    prev_rows: tuple[tuple[int, ...], ...] = ()
    for d in range(0, 2 * n + 1):
        rows: list[list[int]] = []
        for g in by_deg_gens.get(d, []):
            rows.append(poly_degree_vector(g, d))
        if prev_rows:
            monos_prev = monomials_of_degree(n, d - 1)
            pos = {m: i for i, m in enumerate(monomials_of_degree(n, d))}
            for r in prev_rows:
                for i in range(1, 2 * n + 1):
                    vec = [0] * len(pos)
                    hit = False
                    for m, c in zip(monos_prev, r):
                        if c and i not in m:
                            vec[pos[tuple(sorted(m + (i,)))]] += c
                            hit = True
                    if hit:
                        rows.append(vec)
        width = len(monomials_of_degree(n, d))
        canon = row_span_canonical(IntMatrix(rows, cols=width)) if rows else ()
        if canon:
            by_degree[d] = canon
        prev_rows = canon
    return GradedIdealSpan(n, by_degree)


def r1_generators(n: int) -> list[SquareFreePoly]:
    """e_1, ..., e_2n on all the variables.

    (The squares X_i^2 are already zero in the square-free quotient.)
    """
    return [elem_sym(k, range(1, 2 * n + 1), n) for k in range(1, 2 * n + 1)]


def r2_generators(n: int) -> list[SquareFreePoly]:
    """The partial elementary symmetric polynomials e_k(I) with
    k + |I| = 2n + 1 (nonzero only for |I| > n) and the monomials X_I
    on n + 1 variables."""
    gens: list[SquareFreePoly] = []
    all_vars = range(1, 2 * n + 1)
    for size in range(n + 1, 2 * n + 1):
        k = 2 * n + 1 - size
        for subset in itertools.combinations(all_vars, size):
            gens.append(elem_sym(k, subset, n))
    for subset in itertools.combinations(all_vars, n + 1):
        gens.append(SquareFreePoly.monomial(n, subset))
    return gens


def ideal_R1(n: int) -> GradedIdealSpan:
    """Ideal generated by e_1, ..., e_2n on all the variables."""
    return build_ideal_span(r1_generators(n), n)


def ideal_R2(n: int) -> GradedIdealSpan:
    """Ideal generated by the subset-forced partial sums (see r2_generators)."""
    return build_ideal_span(r2_generators(n), n)


def ideals_equal(first: GradedIdealSpan, second: GradedIdealSpan) -> bool:
    """Degreewise lattice equality of two graded ideals."""
    if first.n != second.n:
        raise SizeMismatchError("ideals over different variable counts")
    degrees = set(first.by_degree) | set(second.by_degree)
    return all(first.by_degree.get(d) == second.by_degree.get(d) for d in degrees)


def quotient_graded_ranks(span: GradedIdealSpan, n: int) -> list[int]:
    """Ranks of (square-free quotient) / ideal in each degree 0..2n.

    Raises TorsionError if any graded piece of the quotient fails to be
    a free abelian group, which would falsify everything downstream.
    """
    ranks = []
    torsion_degrees = []
    for d in range(0, 2 * n + 1):
        total = len(monomials_of_degree(n, d))
        rows = span.by_degree.get(d, ())
        ranks.append(total - len(rows))
        if rows:
            facs = invariant_factors(IntMatrix([list(r) for r in rows], cols=total))
            if any(f != 1 for f in facs):
                torsion_degrees.append((d, facs))
    if torsion_degrees:
        raise TorsionError(f"quotient has torsion in degrees {torsion_degrees}")
    return ranks


def reduction_identities_vanish(n: int) -> bool:
    """The alternating rewriting identities hold as exact polynomials.

    For each k, e_k on the prefix [1, 2n-k+1] equals the alternating
    sum over i of e_i on the complementary suffix times e_{k-i} on all
    variables; the same pattern expresses the monomial X_1...X_{n+1}.
    These are the identities that let generators of the second ideal be
    rewritten inside the first one.
    """
    full = range(1, 2 * n + 1)
    for k in range(1, 2 * n + 1):
        lead = elem_sym(k, range(1, 2 * n - k + 2), n)
        acc = SquareFreePoly.zero(n)
        for i in range(k):
            term = elem_sym(i, range(2 * n - k + 2, 2 * n + 1), n) * elem_sym(
                k - i, full, n
            )
            acc = acc + (-1) ** i * term
        if not (lead - acc).is_zero():
            return False
    lead = SquareFreePoly.monomial(n, range(1, n + 2))
    acc = SquareFreePoly.zero(n)
    for i in range(n):
        term = elem_sym(i, range(n + 2, 2 * n + 1), n) * elem_sym(n + 1 - i, full, n)
        acc = acc + (-1) ** i * term
    return (lead - acc).is_zero()


def reduce_to_admissible(p: SquareFreePoly) -> SquareFreePoly:
    """Rewrite p modulo the first ideal into the admissible monomial basis.

    A non-admissible monomial X_J first violates the prefix condition at
    some odd position m = 2r + 1, where J meets [1, m] in r + 1 points.
    The polynomial e_{r+1} on (J cap [1, m]) together with [m+1, 2n]
    lies in the ideal, which trades X_J for monomials of strictly larger
    index sum; iterating terminates.  The result differs from p by an
    ideal element (the tests check membership explicitly).
    """
    n = p.n
    pending = dict(p.terms)
    done: dict[Subset, int] = {}
    while pending:
        subset = min(pending, key=lambda s: (sum(s), sorted(s)))
        coeff = pending.pop(subset)
        if coeff == 0:
            continue
        m = _first_violation(subset, n)
        if m is None:
            done[subset] = done.get(subset, 0) + coeff
            continue
        head = frozenset(i for i in subset if i <= m)
        tail = subset - head
        k = (m + 1) // 2  # |head| = r + 1 at the first violation m = 2r + 1
        if len(head) != k:
            raise InvariantError("violation bookkeeping is off")
        pool = sorted(head | frozenset(range(m + 1, 2 * n + 1)))
        for other in itertools.combinations(pool, k):
            other = frozenset(other)
            if other == head or other & tail:
                continue
            new = other | tail
            pending[new] = pending.get(new, 0) - coeff
    return SquareFreePoly(n, done)


@lru_cache(maxsize=None)
def _admissible_index(n: int) -> dict[frozenset, tuple[int, ...]]:
    """The admissible subsets of [1, 2n], keyed by their element sets."""
    return {frozenset(s): s for s in admissible_subsets(n)}


def admissible_coordinates(p: SquareFreePoly) -> dict[tuple[int, ...], int]:
    """Coordinates of reduce_to_admissible(p) over the admissible basis."""
    reduced = reduce_to_admissible(p)
    allowed = _admissible_index(p.n)
    out = {}
    for s, c in reduced.terms.items():
        if s not in allowed:
            raise InvariantError(f"reduction left a non-admissible monomial {sorted(s)}")
        out[allowed[s]] = c
    return out
