"""Exact integer matrix routines: HNF, SNF, kernels, and the lattice
comparison and rank element_reference keeps as oracles.

Randomized checks are seeded; invariant factors are cross-checked with
the gcd-of-minors oracle computed independently in this file.
"""

import itertools
import math
import random

import pytest

from arcring.integer_linalg import (
    IntMatrix,
    hermite_normal_form,
    invariant_factors,
    kernel_basis,
    row_span_canonical,
    smith_normal_form,
    solve_in_column_span,
)
from element_reference import lattice_equal, rank


def random_matrix(rng, rows, cols, bound=6):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def determinant(M):
    """Exact determinant by Bareiss fraction-free elimination.

    Independent of the echelon loop, so it serves as the oracle for the
    minors-gcd invariant factors and for unimodularity.
    """
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


def is_unimodular(M):
    return M.rows == M.cols and abs(determinant(M)) == 1


def minors_gcd_invariant_factors(M):
    """Oracle: d_k = gcd of all k x k minors, factors are d_k / d_(k-1)."""

    def minor_det(rows, cols):
        sub = IntMatrix([[M.data[r][c] for c in cols] for r in rows])
        return determinant(sub)

    factors = []
    prev = 1
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(M.rows), k):
            for cols in itertools.combinations(range(M.cols), k):
                g = math.gcd(g, minor_det(rows, cols))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def test_constructor_and_shape():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.transpose().data == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    empty = IntMatrix([], cols=3)
    assert empty.shape == (0, 3)


def matmul(a, b):
    """The product a b, the oracle the transform checks multiply with."""
    columns = list(zip(*b.data))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a.data])


def mul_vector(m, v):
    """The product m v of a matrix and a vector."""
    return [sum(x * y for x, y in zip(row, v)) for row in m.data]


def identity(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_matmul():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert matmul(a, b).data == [[2, 1], [4, 3]]
    assert mul_vector(a, [1, 1]) == [3, 7]
    assert identity(2).data == [[1, 0], [0, 1]]


def test_determinant_examples():
    assert determinant(IntMatrix([[2, 0], [0, 3]])) == 6
    assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(identity(4)) == 1
    assert determinant(IntMatrix.zeros(3, 3)) == 0
    with pytest.raises(ValueError):
        determinant(IntMatrix([[1, 2, 3]]))


def test_determinant_multiplicative():
    rng = random.Random(1)
    for _ in range(25):
        a = random_matrix(rng, 4, 4)
        b = random_matrix(rng, 4, 4)
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


def test_hermite_normal_form_properties():
    rng = random.Random(2)
    for trial in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        h, u = hermite_normal_form(m)
        assert is_unimodular(u)
        assert matmul(u, m).data == h.data
        # row echelon with positive pivots and reduced entries above
        pivots = []
        for r in range(h.rows):
            nz = [c for c in range(h.cols) if h.data[r][c] != 0]
            if not nz:
                continue
            p = nz[0]
            assert h.data[r][p] > 0
            if pivots:
                assert p > pivots[-1][1]
            for rr in range(r):
                assert 0 <= h.data[rr][p] < h.data[r][p]
            pivots.append((r, p))


def test_row_span_canonical_is_nonzero_hermite_rows():
    rng = random.Random(9)
    for trial in range(40):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), bound=rng.choice([1, 4, 9]))
        h, _ = hermite_normal_form(m)
        assert row_span_canonical(m) == tuple(tuple(row) for row in h.data if any(row))


def test_smith_normal_form_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])).data == [[1, 0], [0, 6]]
    assert smith_normal_form(IntMatrix.zeros(2, 3)).data == [[0, 0, 0], [0, 0, 0]]
    assert smith_normal_form(identity(3)).data == identity(3).data
    assert smith_normal_form(IntMatrix([[-1]])).data == [[1]]
    assert smith_normal_form(IntMatrix([[0, 0], [0, -4], [0, 6]])).data == [[2, 0], [0, 0], [0, 0]]
    assert smith_normal_form(IntMatrix([], cols=3)).shape == (0, 3)
    assert smith_normal_form(IntMatrix([[], []], cols=0)).shape == (2, 0)


def test_smith_normal_form_decomposition():
    rng = random.Random(3)
    for trial in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        d = smith_normal_form(m)
        assert d.shape == m.shape
        diagonal = [d.data[i][i] for i in range(min(rows, cols))]
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.data[i][j] == 0
        nonzero = [x for x in diagonal if x != 0]
        assert all(x > 0 for x in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert diagonal[len(nonzero):] == [0] * (len(diagonal) - len(nonzero))


def test_invariant_factors_against_minors_gcd():
    rng = random.Random(4)
    for trial in range(20):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), bound=4)
        assert invariant_factors(m) == minors_gcd_invariant_factors(m)
    # empty shapes, and inputs that are already diagonal but negative
    shapes = [IntMatrix([], cols=3), IntMatrix([[], []], cols=0)]
    for trial in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        shapes.append(
            IntMatrix(
                [[-rng.randint(0, 6) if i == j else 0 for j in range(cols)] for i in range(rows)],
                cols=cols,
            )
        )
    for m in shapes:
        assert invariant_factors(m) == minors_gcd_invariant_factors(m)


def test_invariant_factors_examples():
    assert invariant_factors(IntMatrix([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(IntMatrix([[2, 4], [4, 8]])) == [2]
    assert invariant_factors(identity(3)) == [1, 1, 1]
    assert invariant_factors(IntMatrix.zeros(2, 2)) == []


def kernel_lattice(M):
    basis = kernel_basis(M)
    return IntMatrix(basis, cols=M.cols).transpose()


def test_kernel_examples():
    # generators may differ by sign or unimodular change; compare lattices
    assert lattice_equal(kernel_lattice(IntMatrix([[1, 1]])), IntMatrix([[1], [-1]]))
    assert lattice_equal(kernel_lattice(IntMatrix([[2, 4]])), IntMatrix([[2], [-1]]))
    assert kernel_basis(IntMatrix([[1, 0], [0, 1]])) == []
    assert lattice_equal(kernel_lattice(IntMatrix.zeros(2, 2)), identity(2))


def test_kernel_saturated():
    # kernel vectors stay primitive: dividing by any prime must leave Z
    rng = random.Random(5)
    for trial in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            assert mul_vector(m, vec) == [0] * m.rows
        if basis:
            # the kernel lattice is saturated: no invariant factor above 1
            stacked = IntMatrix(basis, cols=m.cols)
            assert all(f == 1 for f in invariant_factors(stacked))


def test_rank_plus_nullity():
    rng = random.Random(6)
    for trial in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) + len(kernel_basis(m)) == m.cols
        assert rank(m) == rank(m.transpose())


def test_unimodularity():
    assert is_unimodular(identity(3))
    assert is_unimodular(IntMatrix([[1, 5], [0, -1]]))
    assert not is_unimodular(IntMatrix([[2, 0], [0, 1]]))
    assert not is_unimodular(IntMatrix([[1, 2, 3]]))


def test_solve_in_column_span():
    m = IntMatrix([[1, 0], [0, 2], [1, 1]])
    sol = solve_in_column_span(m, [3, 4, 5])
    assert sol == [3, 2]
    assert mul_vector(m, sol) == [3, 4, 5]
    # [0, 1, ...] needs half the second column
    assert solve_in_column_span(m, [0, 1, 0]) is None
    assert solve_in_column_span(m, [1, 2, 2]) is not None
    assert solve_in_column_span(m, [0, 1, 1]) is None


def test_solve_factors_each_matrix_once(hnf_calls):
    m = IntMatrix([[2, 0], [0, 3], [1, 1]])
    assert solve_in_column_span(m, [2, 3, 2]) == [1, 1]
    assert solve_in_column_span(m, [1, 0, 0]) is None
    assert solve_in_column_span(m, [4, 0, 2]) == [2, 0]
    assert hnf_calls == [(2, 3)]
    # a new matrix on the same rows carries no factorization of its own yet
    assert solve_in_column_span(IntMatrix(m.data), [2, 3, 2]) == [1, 1]
    assert len(hnf_calls) == 2


def test_solve_random_roundtrip():
    rng = random.Random(7)
    for trial in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        coeffs = [rng.randint(-5, 5) for _ in range(m.cols)]
        target = mul_vector(m, coeffs)
        sol = solve_in_column_span(m, target)
        assert sol is not None
        assert mul_vector(m, sol) == target


def dense_solve(M, target):
    """The solve with the whole transform row added per pivot: the oracle
    for the sparse accumulation of solve_in_column_span."""
    h, u = hermite_normal_form(M.transpose())
    w, x = list(target), [0] * M.cols
    for hrow, urow in zip(h.data, u.data):
        nz = [j for j, y in enumerate(hrow) if y]
        if not nz:
            break
        piv = nz[0]
        if w[piv] % hrow[piv]:
            return None
        q = w[piv] // hrow[piv]
        w = [a - q * b for a, b in zip(w, hrow)]
        x = [a + q * b for a, b in zip(x, urow)]
    return None if any(w) else x


def test_solve_matches_dense_transform():
    # the seeded matrices of the solve tests, with reachable and
    # unreachable targets, and the real center lattice at n = 3
    from arcring.center import presentation_map
    from element_reference import center_elements, column_matrix, diagonal_vector

    cases = []
    rng = random.Random(7)
    for trial in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        cases.append((m, mul_vector(m, [rng.randint(-5, 5) for _ in range(m.cols)])))
        cases.append((m, [rng.randint(-5, 5) for _ in range(m.rows)]))
    m = IntMatrix([[1, 0], [0, 2], [1, 1]])
    cases += [(m, t) for t in ([3, 4, 5], [0, 1, 0], [1, 2, 2], [0, 1, 1])]
    pres = presentation_map(3)
    lattice = column_matrix(3, center_elements(pres.center))
    cases += [(lattice, diagonal_vector(p)) for p in pres.products]
    for m, target in cases:
        assert solve_in_column_span(m, target) == dense_solve(m, target)


def test_lattice_equal_examples():
    a = IntMatrix([[1, 0], [0, 1]])
    b = IntMatrix([[1, 1], [0, 1]])
    assert lattice_equal(a, b)
    assert lattice_equal(a, IntMatrix([[2, 1], [1, 1]]))
    assert not lattice_equal(a, IntMatrix([[2, 0], [0, 1]]))
    # same span over Q, different lattice
    assert not lattice_equal(IntMatrix([[1], [0]]), IntMatrix([[2], [0]]))


def test_lattice_equal_under_unimodular_change():
    rng = random.Random(8)
    for trial in range(20):
        m = random_matrix(rng, 4, 3)
        # right-multiplying by a unimodular matrix preserves the span
        u = identity(3)
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            new = [row[:] for row in u.data]
            for r in range(3):
                new[r][j] += c * new[r][i]
            u = IntMatrix(new)
        assert is_unimodular(u)
        assert lattice_equal(m, matmul(m, u))
