"""Exact linear algebra over the integers.

Everything here works with arbitrary-precision Python ints: Hermite and
Smith normal forms with their unimodular transforms, saturated kernel
bases, ranks, membership of a vector in the integer span of columns, and
equality of column-span lattices.  Pivots are always chosen with the
smallest nonzero magnitude, which keeps intermediate entries small on
the sparse, tiny-entry matrices this package produces.

A matrix factors itself once: the first solve_in_column_span against
it stores the Hermite factorization of its transpose on the matrix, and
every later solve against the same instance reuses it.  A matrix must
therefore not be mutated after it has been solved against; copy() gives
a fresh matrix with no stored factorization.
"""

from __future__ import annotations


class IntMatrix:
    """A dense integer matrix.  Treated as immutable by convention.

    The first solve_in_column_span against a matrix caches the Hermite
    factorization of its transpose in _span_factors, so the matrix must
    not be mutated after that; copy() starts with an empty cache.
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
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)], cols=n)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "IntMatrix":
        columns = [list(c) for c in columns]
        if not columns:
            return cls([], cols=0) if rows is None else cls([[] for _ in range(rows)], cols=0)
        m = len(columns[0])
        return cls([[c[i] for c in columns] for i in range(m)])

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def transpose(self) -> "IntMatrix":
        if self.rows == 0:
            return IntMatrix([[] for _ in range(self.cols)], cols=0)
        return IntMatrix([list(col) for col in zip(*self.data)], cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ot = other.transpose().data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data],
            cols=other.cols,
        )

    def mul_vector(self, v) -> list[int]:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        return [sum(a * b for a, b in zip(row, v)) for row in self.data]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def copy(self) -> "IntMatrix":
        return IntMatrix([row[:] for row in self.data], cols=self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.data!r})"


def determinant(M: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [row[:] for row in M.data]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(M: IntMatrix) -> bool:
    return M.rows == M.cols and abs(determinant(M)) == 1


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U @ M, U unimodular, H in echelon form with
    positive pivots and the entries above each pivot reduced into
    [0, pivot).  Zero rows sit at the bottom.
    """
    m, n = M.rows, M.cols
    a = [row[:] for row in M.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            p = a[r][c]
            clean = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
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
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return IntMatrix(a, cols=n), IntMatrix(u, cols=m)


def row_span_canonical(M: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A canonical basis of the lattice spanned by the rows of M.

    The nonzero rows of its Hermite normal form, as tuples; the
    transform is not used.  Two matrices span the same row lattice iff
    these agree.
    """
    h, _ = hermite_normal_form(M)
    return tuple(tuple(row) for row in h.data if any(row))


def rank(M: IntMatrix) -> int:
    """Rank over the rationals (torsion does not affect it)."""
    return len(row_span_canonical(M))


def kernel_basis(M: IntMatrix) -> list[list[int]]:
    """A basis of the saturated lattice {v in Z^cols : M v = 0}.

    Row-reduce the transpose with a unimodular transform; the transform
    rows facing zero rows of the echelon form are exactly an integral
    basis of the kernel, and the lattice they span is saturated.
    """
    h, u = hermite_normal_form(M.transpose())
    out = [u.data[i][:] for i in range(h.rows) if not any(h.data[i])]
    return out


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (U, D, V) with D = U @ M @ V diagonal, U and V unimodular,
    and each diagonal entry nonnegative and dividing the next.
    """
    m, n = M.rows, M.cols
    a = [row[:] for row in M.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, k, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    t = 0
    while True:
        pivots = [
            (abs(a[i][j]), i, j)
            for i in range(t, m)
            for j in range(t, n)
            if a[i][j] != 0
        ]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

        while True:
            # clear column t with row operations, Euclid-style
            while True:
                nz = [i for i in range(t + 1, m) if a[i][t] != 0]
                if not nz:
                    break
                for i in nz:
                    row_sub(i, t, a[i][t] // a[t][t])
                nz = [i for i in range(t + 1, m) if a[i][t] != 0]
                if nz:
                    i0 = min(nz, key=lambda i: abs(a[i][t]))
                    a[t], a[i0] = a[i0], a[t]
                    u[t], u[i0] = u[i0], u[t]
                    if a[t][t] < 0:
                        a[t] = [-x for x in a[t]]
                        u[t] = [-x for x in u[t]]
            # clear row t with column operations; a column swap can
            # repopulate column t, in which case we loop again
            while True:
                nz = [j for j in range(t + 1, n) if a[t][j] != 0]
                if not nz:
                    break
                for j in nz:
                    col_sub(j, t, a[t][j] // a[t][t])
                nz = [j for j in range(t + 1, n) if a[t][j] != 0]
                if nz:
                    j0 = min(nz, key=lambda j: abs(a[t][j]))
                    for row in a:
                        row[t], row[j0] = row[j0], row[t]
                    for row in v:
                        row[t], row[j0] = row[j0], row[t]
                    if a[t][t] < 0:
                        a[t] = [-x for x in a[t]]
                        u[t] = [-x for x in u[t]]
            if all(a[i][t] == 0 for i in range(t + 1, m)) and all(
                a[t][j] == 0 for j in range(t + 1, n)
            ):
                break

        # force the divisibility chain: if the pivot misses some entry,
        # fold that row in and redo the elimination at this position
        d = a[t][t]
        bad = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % d != 0
            ),
            None,
        )
        if bad is not None:
            i, _ = bad
            a[t] = [x + y for x, y in zip(a[t], a[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        t += 1
        if t == min(m, n):
            break

    return IntMatrix(u, cols=m), IntMatrix(a, cols=n), IntMatrix(v, cols=n)


def invariant_factors(M: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form, in order."""
    _, d, _ = smith_normal_form(M)
    out = []
    for t in range(min(d.rows, d.cols)):
        if d.data[t][t] != 0:
            out.append(d.data[t][t])
    return out


def _span_factors(M: IntMatrix) -> tuple[list, list[list[int]]]:
    """Pivot rows of HNF(M^T) and the transform U, computed once per matrix.

    Returns (pivots, U) where pivots lists (pivot column, nonzero
    entries of the row) for each nonzero row of H = U @ M^T, in order.
    """
    if M._span_factors is None:
        h, u = hermite_normal_form(M.transpose())
        pivots = []
        for row in h.data:
            entries = [(j, x) for j, x in enumerate(row) if x]
            if not entries:
                break
            pivots.append((entries[0][0], entries))
        M._span_factors = (pivots, u.data)
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
            x = [a + q * b for a, b in zip(x, u[i])]
    if any(w):
        return None
    return x


def in_column_span(M: IntMatrix, target) -> bool:
    return solve_in_column_span(M, target) is not None


def column_span_canonical(M: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """A canonical basis of the lattice spanned by the columns of M.

    The canonical rows of the transpose.  Two matrices span the same
    column lattice iff these agree.
    """
    return row_span_canonical(M.transpose())


def lattice_equal(A: IntMatrix, B: IntMatrix) -> bool:
    """Do the columns of A and B span the same sublattice of Z^rows?"""
    if A.rows != B.rows:
        raise ValueError(f"ambient ranks differ: {A.rows} vs {B.rows}")
    return column_span_canonical(A) == column_span_canonical(B)
