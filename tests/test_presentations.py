"""Ideal presentations in the square-free quotient and their equality.

Expected graded ranks are frozen: they must match the admissible subset
counts by cardinality, which test_combinatorics checks against the
binomial total independently.
"""

import itertools
import math
import random

import pytest

from arcring import presentations
from arcring.arc_ring import unit
from arcring.combinatorics import admissible_subsets
from arcring.errors import InvariantError, SizeMismatchError
from arcring.presentations import (
    SquareFreePoly,
    admissible_coordinates,
    build_ideal_span,
    elem_sym,
    ideal_R1,
    ideal_R2,
    ideals_equal,
    monomials_of_degree,
    poly_degree_vector,
    quotient_graded_ranks,
    r1_generators,
    r2_generators,
    reduce_to_admissible,
    reduction_identities_vanish,
)


def transpositions(n):
    out = []
    for i in range(1, 2 * n):
        sigma = {j: j for j in range(1, 2 * n + 1)}
        sigma[i], sigma[i + 1] = i + 1, i
        out.append(sigma)
    return out


def test_polynomial_arithmetic():
    # the square-free product and grading; sums and scalars are tested
    # on the shared base in test_frobenius
    x1 = SquareFreePoly.monomial(2, {1})
    x2 = SquareFreePoly.monomial(2, {2})
    assert x1 * x1 == SquareFreePoly.zero(2)  # squares vanish
    assert x1 * x2 == SquareFreePoly.monomial(2, {1, 2})
    assert (x1 + x2) * (x1 + x2) == SquareFreePoly.monomial(2, {1, 2}, 2)
    assert (x1 * 2) == 2 * x1
    assert (x1 + x2).degrees() == {1}
    mixed = x1 + SquareFreePoly.monomial(2, {1, 2}, 5)
    assert mixed.degrees() == {1, 2}
    with pytest.raises(SizeMismatchError):
        x1 * SquareFreePoly.monomial(1, {1})
    with pytest.raises(TypeError):
        x1 * unit(2)
    with pytest.raises(ValueError):
        SquareFreePoly.monomial(1, {5})


def test_polynomial_permuted():
    p = SquareFreePoly(2, {frozenset({1, 3}): 2, frozenset({2}): -1})
    swap = {1: 2, 2: 1, 3: 3, 4: 4}
    assert p.permuted(swap) == SquareFreePoly(
        2, {frozenset({2, 3}): 2, frozenset({1}): -1}
    )


def test_elem_sym_examples():
    assert elem_sym(1, [1, 2], 1) == SquareFreePoly(
        1, {frozenset({1}): 1, frozenset({2}): 1}
    )
    assert elem_sym(0, [1, 2], 1) == SquareFreePoly.monomial(1, ())
    assert elem_sym(3, [1, 2], 1).is_zero()
    assert elem_sym(2, [1, 2, 4], 2) == SquareFreePoly(
        2, {frozenset(s): 1 for s in ({1, 2}, {1, 4}, {2, 4})}
    )
    with pytest.raises(ValueError):
        elem_sym(1, [9], 1)
    with pytest.raises(ValueError):
        elem_sym(-1, [1], 1)


def test_elem_sym_term_counts():
    for n in (1, 2, 3):
        for k in range(2 * n + 1):
            e = elem_sym(k, range(1, 2 * n + 1), n)
            assert len(e.terms) == math.comb(2 * n, k)


def test_monomials_of_degree():
    assert monomials_of_degree(1, 0) == ((),)
    assert monomials_of_degree(1, 1) == ((1,), (2,))
    assert monomials_of_degree(2, 2) == (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    )
    for n in (1, 2, 3):
        for d in range(2 * n + 1):
            assert len(monomials_of_degree(n, d)) == math.comb(2 * n, d)


def test_poly_degree_vector():
    p = SquareFreePoly(1, {frozenset({1}): 2, frozenset({2}): -3})
    assert poly_degree_vector(p, 1) == [2, -3]
    assert poly_degree_vector(p, 2) == [0]


def test_generator_counts():
    for n in (1, 2, 3):
        assert len(r1_generators(n)) == 2 * n
        # second family: e_k(I) over every subset with k + |I| = 2n + 1,
        # plus the square-free monomials on (n+1)-point subsets
        expected = sum(
            math.comb(2 * n, size) for size in range(n + 1, 2 * n + 1)
        ) + math.comb(2 * n, n + 1)
        assert len(r2_generators(n)) == expected
        for g in r1_generators(n) + r2_generators(n):
            assert len(g.degrees()) == 1  # homogeneous


def test_ideal_n1_spans():
    span = ideal_R1(1)
    # degree 1: X1 + X2 only (up to basis choice)
    assert span.matrix(1).shape == (2, 1)
    assert span.contains(elem_sym(1, [1, 2], 1))
    assert not span.contains(SquareFreePoly.monomial(1, {1}))
    # degree 2: X1X2
    assert span.contains(SquareFreePoly.monomial(1, {1, 2}))


def test_quotient_graded_ranks():
    assert quotient_graded_ranks(ideal_R1(1), 1) == [1, 1, 0]
    assert quotient_graded_ranks(ideal_R1(2), 2) == [1, 3, 2, 0, 0]
    assert quotient_graded_ranks(ideal_R1(3), 3) == [1, 5, 9, 5, 0, 0, 0]


def test_quotient_total_rank_is_binomial():
    for n in (1, 2, 3):
        ranks = quotient_graded_ranks(ideal_R1(n), n)
        assert sum(ranks) == math.comb(2 * n, n)


def test_quotient_matches_admissible_counts():
    for n in (1, 2, 3, 4):
        counts = {}
        for s in admissible_subsets(n):
            counts[len(s)] = counts.get(len(s), 0) + 1
        ranks = quotient_graded_ranks(ideal_R1(n), n)
        assert ranks == [counts.get(d, 0) for d in range(2 * n + 1)]


def test_ideals_equal():
    for n in (1, 2, 3):
        assert ideals_equal(ideal_R1(n), ideal_R2(n))


def test_ideal_r2_generators_inside_r1():
    for n in (1, 2, 3):
        span = ideal_R1(n)
        for g in r2_generators(n):
            assert span.contains(g)


def test_reduction_identities_vanish():
    for n in (1, 2, 3):
        assert reduction_identities_vanish(n)


def test_reduce_examples():
    assert reduce_to_admissible(SquareFreePoly.monomial(1, {1})) == SquareFreePoly.monomial(
        1, {2}, -1
    )
    assert reduce_to_admissible(SquareFreePoly.monomial(2, {1, 2})) == SquareFreePoly.monomial(
        2, {3, 4}
    )
    assert admissible_coordinates(SquareFreePoly.monomial(2, {1, 2})) == {(3, 4): 1}


def test_reduce_fixes_admissible():
    for n in (1, 2, 3):
        for s in admissible_subsets(n):
            p = SquareFreePoly.monomial(n, s)
            assert reduce_to_admissible(p) == p


def test_reduce_idempotent_and_supported_on_admissible():
    rng = random.Random(13)
    for n in (1, 2):
        allowed = {frozenset(s) for s in admissible_subsets(n)}
        monos = [
            frozenset(s)
            for k in range(2 * n + 1)
            for s in itertools.combinations(range(1, 2 * n + 1), k)
        ]
        for trial in range(20):
            p = SquareFreePoly(
                n, {s: rng.randint(-3, 3) for s in rng.sample(monos, 3)}
            )
            red = reduce_to_admissible(p)
            assert set(red.terms) <= allowed
            assert reduce_to_admissible(red) == red


def test_reduce_difference_in_ideal():
    rng = random.Random(17)
    for n in (1, 2):
        span = ideal_R1(n)
        monos = [
            frozenset(s)
            for k in range(2 * n + 1)
            for s in itertools.combinations(range(1, 2 * n + 1), k)
        ]
        for trial in range(20):
            p = SquareFreePoly(
                n, {s: rng.randint(-3, 3) for s in rng.sample(monos, 3)}
            )
            assert span.contains(p - reduce_to_admissible(p))
    # spot check at n = 3 as well
    p = SquareFreePoly.monomial(3, {1, 2, 3})
    assert ideal_R1(3).contains(p - reduce_to_admissible(p))


def test_admissible_coordinates_roundtrip():
    for n in (1, 2):
        for s in admissible_subsets(n):
            coords = admissible_coordinates(SquareFreePoly.monomial(n, s))
            assert coords == {tuple(s): 1}


def test_reduce_to_admissible_bad_violation_is_typed(monkeypatch):
    # position 3 is not where {1} first violates the prefix condition
    monkeypatch.setattr(presentations, "_first_violation", lambda subset, n: 3)
    with pytest.raises(InvariantError):
        reduce_to_admissible(SquareFreePoly.monomial(2, {1}))


def test_admissible_coordinates_leftover_is_typed(monkeypatch):
    # the admissible index is cached per n; empty it for this call only
    monkeypatch.setattr(presentations, "_admissible_index", lambda n: {})
    with pytest.raises(InvariantError):
        admissible_coordinates(SquareFreePoly.monomial(2, {2}))


def test_ideal_membership_factors_each_degree_once(hnf_calls):
    span = ideal_R1(2)
    hnf_calls.clear()
    for d in range(5):
        assert span.matrix(d) is span.matrix(d)
    for g in r2_generators(2):
        for t in transpositions(2):
            assert span.contains(g.permuted(t))
    degrees = {d for g in r2_generators(2) for d in g.degrees()}
    assert len(hnf_calls) == len(degrees)


def test_r1_generators_symmetric():
    for n in (1, 2, 3):
        for g in r1_generators(n):
            for t in transpositions(n):
                assert g.permuted(t) == g


def test_ideal_stable_under_permutation():
    for n in (1, 2):
        span = ideal_R1(n)
        for g in r2_generators(n):
            for t in transpositions(n):
                assert span.contains(g.permuted(t))


def test_build_ideal_span_requires_homogeneous():
    mixed = SquareFreePoly(1, {frozenset({1}): 1, frozenset({1, 2}): 1})
    with pytest.raises(ValueError):
        build_ideal_span([mixed], 1)


def test_span_contains_size_mismatch():
    with pytest.raises(SizeMismatchError):
        ideal_R1(1).contains(SquareFreePoly.monomial(2, {1}))
