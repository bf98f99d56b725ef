"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints: Hermite and
Smith normal forms, canonical row spans, saturated kernel bases, and
membership of a vector in the integer span of columns.

All of it runs on one echelon loop, _echelon, which always picks the
pivot of smallest nonzero magnitude; that keeps intermediate entries
small on the sparse, tiny-entry matrices this package produces.  A
transform is carried, as an identity riding along in extra columns,
only where it is read: hermite_normal_form returns it, for kernels and
solves.  Canonical spans carry none, and the Smith diagonal comes from
alternating row and column passes of the same loop, with no transforms
at all.

A matrix factors itself once: the first solve_in_column_span against
it stores the Hermite factorization of its transpose on the matrix, and
every later solve against the same instance reuses it.  A matrix must
therefore not be mutated after it has been solved against; a new
IntMatrix built from its rows starts with no stored factorization.
"""

from __future__ import annotations

import math


class IntMatrix:
    """A dense integer matrix.  Treated as immutable by convention.

    The first solve_in_column_span against a matrix caches the Hermite
    factorization of its transpose in _span_factors, so the matrix must
    not be mutated after that; a new matrix starts with an empty cache.
    """

    __slots__ = ("rows", "cols", "data", "_span_factors")

    def __init__(self, data, cols: int | None = None):
        data = [list(map(int, row)) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        self.rows = len(data)
        self.cols = width
        self.data = data
        self._span_factors = None

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)], cols=n)

    def transpose(self) -> "IntMatrix":
        if self.rows == 0:
            return IntMatrix([[] for _ in range(self.cols)], cols=0)
        return IntMatrix([list(col) for col in zip(*self.data)], cols=self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.data!r})"


def _echelon(a: list[list[int]], width: int) -> int:
    """Row-reduce a in place to Hermite form on its first width columns.

    The one pivoting loop of this module.  Column by column, the row
    with the smallest nonzero |entry| (ties to the lower index) becomes
    the pivot, Euclid-style, until the rows below are clear; pivots are
    made positive and the entries above each pivot reduced into
    [0, pivot).  Columns past width are not searched for pivots but
    ride along with every row operation, which is how a transform is
    carried.  Returns the number of pivot rows; the rows after them are
    zero on the first width columns.
    """
    m = len(a)
    r = 0
    for c in range(width):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            p = a[r][c]
            clean = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        clean = False
            if clean:
                break
        if a[r][c] != 0:
            p = a[r][c]
            for i in range(r):
                q = a[i][c] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return r


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ M, U unimodular, H in echelon form with
    positive pivots and the entries above each pivot reduced into
    [0, pivot).  Zero rows sit at the bottom.  U is the identity that
    rode along with the echelon loop.
    """
    m, n = M.rows, M.cols
    a = [row + [int(i == j) for j in range(m)] for i, row in enumerate(M.data)]
    _echelon(a, n)
    return IntMatrix([row[:n] for row in a], cols=n), IntMatrix([row[n:] for row in a], cols=m)


def row_span_canonical(M: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A canonical basis of the lattice spanned by the rows of M.

    The nonzero rows of its Hermite normal form, as tuples, computed
    without a transform.  Zero rows are dropped first: they change
    neither the lattice nor its (unique) Hermite basis.  Two matrices
    span the same row lattice iff these agree.
    """
    a = [row[:] for row in M.data if any(row)]
    return tuple(tuple(row) for row in a[: _echelon(a, M.cols)])


def kernel_basis(M: IntMatrix) -> list[list[int]]:
    """A basis of the saturated lattice {v in Z^cols : M v = 0}.

    Row-reduce the transpose with a unimodular transform; the transform
    rows facing zero rows of the echelon form are exactly an integral
    basis of the kernel, and the lattice they span is saturated.
    """
    h, u = hermite_normal_form(M.transpose())
    return [u.data[i][:] for i in range(h.rows) if not any(h.data[i])]


def smith_normal_form(M: IntMatrix) -> IntMatrix:
    """The Smith normal form D of M, without transforms.

    D has M's shape and is zero off the diagonal; its diagonal entries
    are nonnegative, each divides the next, and zeros come last.

    One echelon pass over the rows of M, then echelon passes over the
    transpose of the result while any off-diagonal entry is nonzero,
    then a pairwise gcd/lcm pass over the nonzero diagonal entries.
    Every pass leaves positive pivots and its zero rows last, so even an
    input that is already diagonal comes out nonnegative.

    The passes end.  From the second pass on, the (0, 0) pivot is the
    gcd of row 0 of the previous result, which holds the old pivot, so
    it can only shrink by divisibility.  A pass in which it does not
    shrink found it dividing that whole row: it cleared the row, and
    row and column 0 stay zero off the pivot for good, since no later
    pass subtracts anything from them.  The remaining block evolves by
    the same passes, so the argument repeats on it.
    """
    a = [row[:] for row in M.data]
    _echelon(a, M.cols)
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = [list(col) for col in zip(*a)]
        _echelon(a, len(a[0]))
    diag = [a[t][t] for t in range(min(M.rows, M.cols))]
    k = sum(1 for x in diag if x)
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    d = IntMatrix.zeros(M.rows, M.cols)
    for t, x in enumerate(diag):
        d.data[t][t] = x
    return d


def invariant_factors(M: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, in order."""
    d = smith_normal_form(M)
    return [d.data[t][t] for t in range(min(d.rows, d.cols)) if d.data[t][t]]


def _span_factors(M: IntMatrix) -> tuple[list, list[list[tuple[int, int]]]]:
    """Pivot rows of HNF(M^T) and the transform U, computed once per matrix.

    Returns (pivots, U) where pivots lists (pivot column, nonzero
    entries of the row) for each nonzero row of H = U @ M^T, in order,
    and U holds the nonzero entries (j, x) of each matching row of U.
    """
    if M._span_factors is None:
        h, u = hermite_normal_form(M.transpose())
        pivots = []
        for row in h.data:
            entries = [(j, x) for j, x in enumerate(row) if x]
            if not entries:
                break
            pivots.append((entries[0][0], entries))
        sparse_u = [[(j, x) for j, x in enumerate(row) if x] for row in u.data[: len(pivots)]]
        M._span_factors = (pivots, sparse_u)
    return M._span_factors


def solve_in_column_span(M: IntMatrix, target) -> list[int] | None:
    """An integer x with M @ x = target, or None if no such x exists."""
    w = list(map(int, target))
    if len(w) != M.rows:
        raise ValueError("target length mismatch")
    pivots, u = _span_factors(M)
    # target = coeffs @ H = coeffs @ U @ M^T, so x = U^T @ coeffs
    x = [0] * M.cols
    for i, (piv, entries) in enumerate(pivots):
        p = entries[0][1]
        if w[piv] % p != 0:
            return None
        q = w[piv] // p
        if q:
            for j, y in entries:
                w[j] -= q * y
            for j, y in u[i]:
                x[j] += q * y
    if any(w):
        return None
    return x
