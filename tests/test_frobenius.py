"""The rank-two Frobenius algebra on its MERGE and SPLIT tables, and the
integer-combination base shared by ring elements, bimodule combinations
and polynomials.

Everything here is exhaustive; the algebra has two basis labels, so all
axioms can be checked on every input combination.  Tensor elements are
Combinations whose space is the arity and whose keys are label words;
the trace and the label degree are test-local.
"""

import doctest
import itertools

import pytest

import arcring.frobenius
from arcring.arc_ring import BasisVector, RingElement, degree, get_ring
from arcring.braid_homotopy import UiBimodule
from arcring.combinatorics import enumerate_matchings
from arcring.errors import SizeMismatchError
from arcring.frobenius import LABELS, MERGE, ONE, SPLIT, X, Combination
from arcring.presentations import SquareFreePoly

TRACE = {ONE: 0, X: 1}
DEGREE = {ONE: 0, X: 2}


def merge(x, y):
    return Combination(1, dict(MERGE[(x, y)]))


def split(x):
    return Combination(2, {a + b: c for (a, b), c in SPLIT[x]})


def extend(f, elt, arity):
    """The linear extension of a map from label words to Combinations."""
    return Combination._sum(arity, ((c, f(w).terms.items()) for w, c in elt.terms.items()))


def trace(elt):
    return sum(c * TRACE[w] for w, c in elt.terms.items())


def label_degree(word):
    return sum(DEGREE[ch] for ch in word)


def word(*labels):
    return Combination(len(labels), {"".join(labels): 1})


def test_doctests():
    failures, _ = doctest.testmod(arcring.frobenius)
    assert failures == 0


def test_merge_table():
    assert merge(ONE, ONE) == word(ONE)
    assert merge(ONE, X) == word(X)
    assert merge(X, ONE) == word(X)
    assert merge(X, X).is_zero()
    assert set(MERGE) == set(itertools.product(LABELS, repeat=2))


def test_split_table():
    assert split(ONE) == Combination(2, {ONE + X: 1, X + ONE: 1})
    assert split(X) == word(X, X)
    assert set(SPLIT) == set(LABELS)


def test_trace_table():
    # the counit is read off split(1) = 1 (x) X + X (x) 1: (tr x id)
    # must return 1, so tr(X) = 1 and tr(1) = 0
    read_off = {ONE: 0, X: 0}
    for (a, b), c in SPLIT[ONE]:
        if b == ONE:
            read_off[a] += c
    assert read_off == TRACE


def test_merge_commutative():
    for x, y in itertools.product(LABELS, repeat=2):
        assert merge(x, y) == merge(y, x)


def test_merge_associative():
    for x, y, z in itertools.product(LABELS, repeat=3):
        left = extend(lambda w: merge(w, z), merge(x, y), 1)
        right = extend(lambda w: merge(x, w), merge(y, z), 1)
        assert left == right


def test_unit_label():
    for x in LABELS:
        assert merge(ONE, x) == merge(x, ONE) == word(x)


def test_split_cocommutative():
    for x in LABELS:
        flipped = Combination(2, {w[::-1]: c for w, c in split(x).terms.items()})
        assert split(x) == flipped


def test_split_coassociative():
    # (split x id) after split equals (id x split) after split
    def split_left(w):
        return Combination(3, {u + w[1]: c for u, c in split(w[0]).terms.items()})

    def split_right(w):
        return Combination(3, {w[0] + u: c for u, c in split(w[1]).terms.items()})

    for x in LABELS:
        assert extend(split_left, split(x), 3) == extend(split_right, split(x), 3)


def test_counit_identity():
    # (trace x id) after split returns the original label, both sides
    for x in LABELS:
        left = extend(lambda w: TRACE[w[0]] * word(w[1]), split(x), 1)
        right = extend(lambda w: TRACE[w[1]] * word(w[0]), split(x), 1)
        assert left == right == word(x)


def test_frobenius_compatibility():
    # split after merge equals (id x merge) after (split x id)
    for x, y in itertools.product(LABELS, repeat=2):
        left = extend(split, merge(x, y), 2)

        def merge_right(u):
            return Combination(2, {u[0] + w: c for w, c in merge(u[1], y).terms.items()})

        assert left == extend(merge_right, split(x), 2)


def test_trace_pairing_nondegenerate():
    # the pairing (x, y) -> trace(xy) has matrix [[0,1],[1,0]]
    gram = [[trace(merge(x, y)) for y in LABELS] for x in LABELS]
    assert gram == [[0, 1], [1, 0]]


def test_handle_element_vanishes():
    # merge after split multiplies by 2X, and X * 2X = 0
    assert extend(lambda w: merge(w[0], w[1]), split(ONE), 1) == 2 * word(X)
    assert extend(lambda w: merge(w[0], w[1]), split(X), 1).is_zero()


def test_degrees():
    assert label_degree("1X1X") == 4
    assert label_degree("") == 0
    # on a diagonal block of H_n the ring degree is the label degree
    for n in (1, 2, 3):
        for v in get_ring(n).basis:
            if v.row == v.col:
                assert degree(v) == label_degree(v.labels)


def test_merge_degree_additive():
    for x, y in itertools.product(LABELS, repeat=2):
        for w in merge(x, y).terms:
            assert label_degree(w) == label_degree(x) + label_degree(y)


def test_split_degree_shift():
    # comultiplication raises total degree by 2, matching the saddle shift
    for x in LABELS:
        for w in split(x).terms:
            assert label_degree(w) == label_degree(x) + 2


def test_trace_linearity():
    assert trace(Combination(1, {X: 2, ONE: 3})) == 2
    assert trace(3 * word(X) - word(ONE)) == 3 * TRACE[X] - TRACE[ONE]


def _ring_case():
    (a,) = enumerate_matchings(1)
    one, x = (RingElement(1, {BasisVector(a, a, w): 1}) for w in (ONE, X))
    return one, x, [get_ring(2).unit()], SquareFreePoly.monomial(1, {1})


def _bimodule_case():
    # F(U_i) has no element type of its own: its combinations are
    # Combinations over the space tag (n, i)
    module = UiBimodule(2, 1)
    u, v = (Combination(module.space, {b: 1}) for b in module.basis[:2])
    spaces = [Combination((1, 1), {}), Combination(UiBimodule(2, 2).space, {module.basis[0]: 1})]
    return u, v, spaces, RingElement(2, {get_ring(2).basis[0]: 1})


def _polynomial_case():
    x1, x2 = (SquareFreePoly.monomial(2, {i}) for i in (1, 2))
    return x1, x2, [SquareFreePoly.monomial(1, {1})], get_ring(2).unit()


@pytest.mark.parametrize(
    "cls, case",
    [
        (RingElement, _ring_case),
        (Combination, _bimodule_case),
        (SquareFreePoly, _polynomial_case),
    ],
    ids=["RingElement", "Combination", "SquareFreePoly"],
)
def test_combination_arithmetic(cls, case):
    # x and y are distinct basis elements of one space; each of
    # other_spaces is of the same class over another space, and stranger
    # is of another class over a space of the same n
    x, y, other_spaces, stranger = case()
    assert type(x) is type(y) is cls
    assert (x + y) - x == y
    assert type(x + y) is type(x - y) is type(-x) is type(3 * x) is cls
    assert (x + y).terms == {**x.terms, **y.terms}
    assert -x == (-1) * x
    assert x + x == 2 * x
    assert 3 * x == x + x + x
    assert (x - x).is_zero()
    assert (0 * x).is_zero() and (0 * x).terms == {}
    assert (x + (-1) * x).terms == {}
    assert x != y and x == (x + y) - y
    for other in other_spaces:
        assert type(other) is cls
        assert x != other
        with pytest.raises(SizeMismatchError):
            x + other
        with pytest.raises(SizeMismatchError):
            x - other
    # mixing element types, or a combination with a plain number, is
    # a TypeError, never a silently relabelled element
    assert type(stranger) is not cls
    assert x != stranger
    for bad in (stranger, 0, 1):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            bad + x
        with pytest.raises(TypeError):
            x - bad
    with pytest.raises(TypeError):
        1.5 * x
