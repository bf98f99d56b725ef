"""Cup-cap bimodules, their saddle maps, and the null-homotopy check.

The homotopy sign pattern is frozen from the exact computation: the
left-lower-minus-right-upper endomorphism carries sign (-1)^i, the
other one the opposite, for every n up to 3.
"""

import doctest
import itertools
import random

import pytest

import arcring.braid_homotopy
import surgery_reference
from arcring.arc_ring import BasisVector, RingElement, degree, get_ring
from arcring.braid_homotopy import (
    UiBimodule,
    _triple_sampler,
    compose_ui,
    get_bimodule,
    verify_bimodule_axioms,
    verify_null_homotopy,
)
from arcring.center import central_X
from arcring.combinatorics import Matching, enumerate_matchings, glue


def test_doctests():
    failures, _ = doctest.testmod(arcring.braid_homotopy)
    assert failures == 0


def test_compose_ui_examples():
    b = Matching([(1, 4), (2, 3)])
    out = compose_ui(1, b)
    assert out.matching.pairs == ((1, 2), (3, 4))
    assert out.circles == 0
    out = compose_ui(2, b)
    assert out.matching == b
    assert out.circles == 1
    out = compose_ui(3, b)
    assert out.matching.pairs == ((1, 2), (3, 4))
    assert out.circles == 0


def test_compose_ui_structure():
    for n in (1, 2, 3):
        for a in enumerate_matchings(n):
            for i in range(1, 2 * n):
                out = compose_ui(i, a)
                # crossingless by construction (Matching validates)
                assert out.matching.n == n
                assert (i, i + 1) in out.matching.pairs
                assert out.circles == (1 if a.partner[i] == i + 1 else 0)


def test_compose_ui_projects():
    # applying the same tangle twice only adds a free circle
    for n in (2, 3):
        for a in enumerate_matchings(n):
            for i in range(1, 2 * n):
                once = compose_ui(i, a).matching
                again = compose_ui(i, once)
                assert again.matching == once
                assert again.circles == 1


def test_compose_ui_range():
    with pytest.raises(ValueError):
        compose_ui(0, Matching([(1, 2)]))
    with pytest.raises(ValueError):
        compose_ui(2, Matching([(1, 2)]))


def test_bimodule_constructor_range():
    with pytest.raises(ValueError):
        UiBimodule(1, 2)
    with pytest.raises(ValueError):
        UiBimodule(2, 0)


def test_bimodule_basis_counts():
    # block (b, a) has one circle from the free loop when (i, i+1) in a
    for n in (1, 2):
        for i in range(1, 2 * n):
            module = get_bimodule(n, i)
            expected = 0
            for b in enumerate_matchings(n):
                for a in enumerate_matchings(n):
                    comp = compose_ui(i, a)
                    k = len(glue(b, comp.matching).circles) + comp.circles
                    assert module.block_circles[(b, a)] == k
                    expected += 2 ** k
            assert module.dimension == expected


def test_unit_acts_as_identity():
    for n in (1, 2):
        for i in range(1, 2 * n):
            module = get_bimodule(n, i)
            one = module.ring.unit()
            for v in module.basis:
                x = module.element({v: 1})
                assert module.left_mul(one, x) == x
                assert module.right_mul(x, one) == x


def test_action_block_vanishing():
    module = get_bimodule(2, 1)
    ring = module.ring
    for y in ring.basis:
        for v in module.basis:
            left = module.left_mul_basis(y, v)
            if y.col != v.row:
                assert left == ()
            else:
                for z, _ in left:
                    assert z.row == y.row and z.col == v.col
            right = module.right_mul_basis(v, y)
            if v.col != y.row:
                assert right == ()
            else:
                for z, _ in right:
                    assert z.row == v.row and z.col == y.col


def test_actions_degree_preserving():
    # both actions add degrees exactly, like the ring product
    for n, i in ((1, 1), (2, 1), (2, 2)):
        module = get_bimodule(n, i)
        ring = module.ring
        for y in ring.basis:
            for v in module.basis:
                if y.col == v.row:
                    for z, _ in module.left_mul_basis(y, v):
                        assert degree(z) == degree(y) + degree(v)
                if v.col == y.row:
                    for z, _ in module.right_mul_basis(v, y):
                        assert degree(z) == degree(v) + degree(y)


def test_verify_bimodule_axioms():
    for n in (1, 2):
        for i in range(1, 2 * n):
            assert verify_bimodule_axioms(n, i)
    assert verify_bimodule_axioms(3, 2, samples=60)


def scanned_triples(module):
    """All-pairs scan over both bases, the reference for the indexed list."""
    ring = module.ring
    triples = []
    for y1 in ring.basis:
        for y2 in ring.basis:
            if y1.col != y2.row:
                continue
            for v in module.basis:
                if y2.col == v.row:
                    triples.append(("ll", y1, y2, v))
                if v.col == y1.row:
                    triples.append(("rr", v, y1, y2))
        for v in module.basis:
            if y1.col == v.row:
                for y2 in ring.basis:
                    if v.col == y2.row:
                        triples.append(("lr", y1, v, y2))
    return triples


def _composable_triples(module):
    """The triples listed from row and column indexes of the two bases.

    The order of scanned_triples, which verify_bimodule_axioms sampled
    from before it decoded sampled indexes instead; the oracle for
    _triple_sampler.
    """
    ring = module.ring
    ring_by_row = {}
    for y in ring.basis:
        ring_by_row.setdefault(y.row, []).append(y)
    module_by_row = {}
    for v in module.basis:
        module_by_row.setdefault(v.row, []).append(v)
    # per (c, d): module vectors in row c or column d, in basis order,
    # each with the two tests v.row == c and v.col == d
    row_or_col = {}

    triples = []
    for y1 in ring.basis:
        for y2 in ring_by_row.get(y1.col, ()):
            key = (y2.col, y1.row)
            if key not in row_or_col:
                c, d = key
                tagged = [(v, v.row == c, v.col == d) for v in module.basis]
                row_or_col[key] = [t for t in tagged if t[1] or t[2]]
            for v, in_row, in_col in row_or_col[key]:
                if in_row:
                    triples.append(("ll", y1, y2, v))
                if in_col:
                    triples.append(("rr", v, y1, y2))
        for v in module_by_row.get(y1.col, ()):
            for y2 in ring_by_row.get(v.col, ()):
                triples.append(("lr", y1, v, y2))
    return triples


def test_composable_triples_match_scan():
    cases = [(n, i) for n in (1, 2) for i in range(1, 2 * n)] + [(3, 1)]
    for n, i in cases:
        module = get_bimodule(n, i)
        assert _composable_triples(module) == scanned_triples(module)


def test_triple_sampler_matches_list():
    # every index for n <= 2
    for n in (1, 2):
        for i in range(1, 2 * n):
            module = get_bimodule(n, i)
            triples = _composable_triples(module)
            count, triple_at = _triple_sampler(module)
            assert count == len(triples)
            assert [triple_at(k) for k in range(count)] == triples
            with pytest.raises(IndexError):
                triple_at(count)
    # n = 3: the indexes verify_bimodule_axioms samples, and 1,000 more
    for i in range(1, 6):
        module = get_bimodule(3, i)
        triples = _composable_triples(module)
        count, triple_at = _triple_sampler(module)
        assert count == len(triples)
        picks = random.Random(0).sample(range(count), 300)
        # the index sample picks what sampling the list picked
        assert [triples[k] for k in picks] == random.Random(0).sample(triples, 300)
        picks += random.Random(i).sample(range(count), 1000)
        assert all(triple_at(k) == triples[k] for k in picks)


def test_saddle_maps_are_bimodule_maps():
    for n, i in ((1, 1), (2, 1), (2, 2), (2, 3)):
        module = get_bimodule(n, i)
        ring = module.ring
        for y in ring.basis:
            ey = RingElement(n, {y: 1})
            for v in module.basis:
                x = module.element({v: 1})
                if y.col == v.row:
                    assert module.alpha(module.left_mul(ey, x)) == ring.multiply(
                        ey, module.alpha(x)
                    )
                    assert module.beta(ring.multiply(ey, module.alpha(x))) == \
                        module.beta(module.alpha(module.left_mul(ey, x)))
                if v.col == y.row:
                    assert module.alpha(module.right_mul(x, ey)) == ring.multiply(
                        module.alpha(x), ey
                    )
        for y in ring.basis:
            ey = RingElement(n, {y: 1})
            for z in ring.basis:
                ez = RingElement(n, {z: 1})
                if y.col == z.row:
                    assert module.beta(ring.multiply(ey, ez)) == module.left_mul(
                        ey, module.beta(ez)
                    )
                    assert module.beta(ring.multiply(ey, ez)) == module.right_mul(
                        module.beta(ey), ez
                    )


def test_saddle_maps_degree_one():
    for n, i in ((1, 1), (2, 1), (2, 2)):
        module = get_bimodule(n, i)
        for v in module.basis:
            for w in module.alpha(module.element({v: 1})).terms:
                assert degree(w) == degree(v) + 1
        for v in module.ring.basis:
            for w in module.beta(RingElement(n, {v: 1})).terms:
                assert degree(w) == degree(v) + 1


def test_alpha_beta_unit_image():
    # the composite on the unit gives the difference of the two
    # distinguished central elements, up to the recorded global sign
    for n, i in ((1, 1), (2, 1), (2, 2)):
        module = get_bimodule(n, i)
        ring = module.ring
        z = central_X(i, n) - central_X(i + 1, n)
        image = module.alpha(module.beta(ring.unit()))
        assert (-1) ** i * image == z


def test_null_homotopy_n1():
    report = verify_null_homotopy(1, 1)
    assert report["passed"], report
    assert report["homotopy_signs"] == {
        "left_lower_minus_right_upper": -1,
        "left_upper_minus_right_lower": 1,
    }
    assert report["saddle_maps_degree_one"]
    assert report["saddle_commutes_with_endomorphisms"]
    assert report["bimodule_axioms"]


def test_null_homotopy_sign_pattern():
    for n in (1, 2):
        for i in range(1, 2 * n):
            report = verify_null_homotopy(i, n, check_axioms=False)
            assert report["passed"], report
            assert report["homotopy_signs"] == {
                "left_lower_minus_right_upper": (-1) ** i,
                "left_upper_minus_right_lower": -((-1) ** i),
            }


def test_null_homotopy_n3():
    for i in range(1, 6):
        report = verify_null_homotopy(i, 3, check_axioms=False)
        assert report["passed"], report
        assert report["homotopy_signs"]["left_lower_minus_right_upper"] == (-1) ** i


_COUNTEREXAMPLE_FIELDS = {
    "degree_counterexample",
    "commutes_counterexample",
    "homotopy_counterexample",
    "bimodule_axioms_counterexample",
}


def _patch_basis_map(monkeypatch, name, change):
    """Replace UiBimodule.<name> by change(vector, real result)."""
    real = getattr(UiBimodule, name)
    monkeypatch.setattr(
        UiBimodule, name, lambda self, *vs: change(vs, real(self, *vs))
    )


def test_passing_homotopy_report_has_no_counterexample():
    report = verify_null_homotopy(1, 2)
    assert report["passed"]
    assert not _COUNTEREXAMPLE_FIELDS & set(report)


def test_homotopy_counterexample_fails_both_signs(monkeypatch):
    # with alpha doubled, the first vector with a nonzero composite is
    # off by a factor of two under either sign
    module = get_bimodule(2, 1)
    ring = module.ring
    first = next(
        v for v in ring.basis
        if not module.alpha(module.beta(RingElement(2, {v: 1}))).is_zero()
    )
    _patch_basis_map(monkeypatch, "alpha_basis", lambda vs, out: tuple((z, 2 * c) for z, c in out))
    report = verify_null_homotopy(1, 2, check_axioms=False)
    assert not report["passed"]
    assert report["homotopy_signs"] == dict.fromkeys(report["homotopy_signs"])
    assert report["homotopy_counterexample"] == dict.fromkeys(
        report["homotopy_signs"], [f"ring {first!r}"]
    )
    # alpha stays degree one and commutes with both endomorphisms
    assert _COUNTEREXAMPLE_FIELDS & set(report) == {"homotopy_counterexample"}


def test_homotopy_counterexample_per_sign(monkeypatch):
    # beta negated on one off-diagonal ring vector: that vector fails
    # only the true sign, and ring.basis[0] only the other one
    ring = get_ring(2)
    flipped = next(v for v in ring.basis if v.row != v.col)
    _patch_basis_map(
        monkeypatch, "beta_basis",
        lambda vs, out: tuple((z, -c) for z, c in out) if vs[0] == flipped else out,
    )
    report = verify_null_homotopy(1, 2, check_axioms=False)
    assert not report["passed"]
    # the true signs are -1 and +1 for i = 1
    assert report["homotopy_counterexample"] == {
        "left_lower_minus_right_upper": [f"ring {ring.basis[0]!r}", f"ring {flipped!r}"],
        "left_upper_minus_right_lower": [f"ring {flipped!r}", f"ring {ring.basis[0]!r}"],
    }


def test_degree_counterexample(monkeypatch):
    # alpha that drops every X lands below degree + 1
    module = get_bimodule(2, 1)
    first = next(v for v in module.basis if any("X" in z.labels for z, _ in module.alpha_basis(v)))
    _patch_basis_map(
        monkeypatch, "alpha_basis",
        lambda vs, out: tuple((BasisVector(z.row, z.col, "1" * len(z.labels)), c) for z, c in out),
    )
    report = verify_null_homotopy(1, 2, check_axioms=False)
    assert not report["passed"]
    assert not report["saddle_maps_degree_one"]
    assert report["degree_counterexample"] == ["alpha", repr(first)]


def test_commutes_and_axiom_counterexamples(monkeypatch):
    # a right action that negates products with X-labeled ring vectors
    # breaks associativity and the saddle's commuting with phi
    _patch_basis_map(
        monkeypatch, "right_mul_basis",
        lambda vs, out: tuple((z, -c) for z, c in out) if "X" in vs[1].labels else out,
    )
    report = verify_null_homotopy(1, 2)
    assert not report["passed"]
    assert not report["bimodule_axioms"]
    witness = report["bimodule_axioms_counterexample"]
    assert witness[0] in ("ll", "rr", "lr") and len(witness) == 4
    assert not verify_bimodule_axioms(2, 1)
    name, vector = report["commutes_counterexample"]
    assert name in report["homotopy_signs"]
    assert vector.startswith("BasisVector(")


def test_commutes_counterexample_is_first_failure(monkeypatch):
    # the reported vector is the first bimodule vector, in basis order and
    # for the first endomorphism that has one, where alpha fails to
    # commute with the endomorphism
    _patch_basis_map(
        monkeypatch, "right_mul_basis",
        lambda vs, out: tuple((z, -c) for z, c in out) if "X" in vs[1].labels else out,
    )
    module = get_bimodule(2, 1)
    ring = module.ring
    z_lo, z_hi = central_X(1, 2), central_X(2, 2)
    failures = []
    for name, zl, zr in (
        ("left_lower_minus_right_upper", z_lo, z_hi),
        ("left_upper_minus_right_lower", z_hi, z_lo),
    ):
        for v in module.basis:
            x = module.element({v: 1})
            a = module.alpha(x)
            phi = module.left_mul(zl, x) - module.right_mul(x, zr)
            if module.alpha(phi) != ring.multiply(zl, a) - ring.multiply(a, zr):
                failures.append([name, repr(v)])
    assert len(failures) > 1
    report = verify_null_homotopy(1, 2, check_axioms=False)
    assert report["commutes_counterexample"] == failures[0]


def test_unit_counterexample(monkeypatch):
    # a right action that kills everything fails the unit law first
    module = get_bimodule(2, 1)
    _patch_basis_map(monkeypatch, "right_mul_basis", lambda vs, out: ())
    report = verify_null_homotopy(1, 2)
    assert report["bimodule_axioms_counterexample"] == ["unit", repr(module.basis[0])]


def test_null_homotopy_computes_each_image_once(monkeypatch):
    # one image per bimodule vector and endomorphism; alpha and beta once
    # per vector for the degree check, then per endomorphism once per
    # vector, once per composite and, for alpha, once per commute check
    module = get_bimodule(3, 2)
    calls = {name: 0 for name in ("left_mul", "right_mul", "alpha", "beta")}
    for name in calls:
        real = getattr(UiBimodule, name)

        def counting(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(UiBimodule, name, counting)
    assert verify_null_homotopy(2, 3, check_axioms=False)["passed"]
    dim, ring_dim = module.dimension, module.ring.dimension
    assert calls == {
        "left_mul": 2 * dim,
        "right_mul": 2 * dim,
        "alpha": dim + 2 * (dim + ring_dim + dim),
        "beta": ring_dim + 2 * (ring_dim + dim),
    }


def _all_products(module):
    """Every left, right, alpha and beta product of one bimodule.

    Yields (kind, computed, reference) for each composable input.
    """
    n, i, ring = module.n, module.i, module.ring
    for v in module.basis:
        yield "alpha", module.alpha_basis(v), surgery_reference.alpha(n, i, v)
        for y in ring.basis:
            if v.col == y.row:
                got = module.right_mul_basis(v, y)
                yield "right", got, surgery_reference.right_mul(n, i, v, y)
            if y.col == v.row:
                got = module.left_mul_basis(y, v)
                yield "left", got, surgery_reference.left_mul(n, i, y, v)
    for y in ring.basis:
        yield "beta", module.beta_basis(y), surgery_reference.beta(n, i, y)


@pytest.mark.parametrize(
    "n, i", [(1, 1), (2, 1), (2, 2), (2, 3)] + [(3, i) for i in range(1, 6)]
)
def test_products_match_reference(n, i):
    # closed-form cobordism maps against label-carrying surgery on every
    # product
    kinds = set()
    for kind, got, want in _all_products(UiBimodule(n, i)):
        assert got == want, kind
        kinds.add(kind)
    assert kinds == {"alpha", "beta", "left", "right"}


def test_products_property_n4():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ms = enumerate_matchings(4)

    @st.composite
    def cases(draw):
        i = draw(st.integers(1, 7))
        module = get_bimodule(4, i)
        b2, b, a, a2 = (draw(st.sampled_from(ms)) for _ in range(4))

        def word(k):
            return "".join(draw(st.lists(st.sampled_from("1X"), min_size=k, max_size=k)))

        def ring_vector(row, col):
            return BasisVector(row, col, word(len(glue(row, col).circles)))

        x = BasisVector(b, a, word(module.block_circles[(b, a)]))
        return module, x, ring_vector(a, a2), ring_vector(b2, b), ring_vector(b, a)

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        module, x, right, left, z = case
        n, i = module.n, module.i
        assert module.right_mul_basis(x, right) == surgery_reference.right_mul(n, i, x, right)
        assert module.left_mul_basis(left, x) == surgery_reference.left_mul(n, i, left, x)
        assert module.alpha_basis(x) == surgery_reference.alpha(n, i, x)
        assert module.beta_basis(z) == surgery_reference.beta(n, i, z)

    check()


def test_plan_compile_budget(plan_compiles, monkeypatch):
    # no bimodule product builds a strand graph; each (kind, blocks)
    # kernel is built once, and none again after the memos are cleared
    module = UiBimodule(3, 1)
    ring = module.ring
    built = []
    real = module._kernel

    def counting(kind, *blocks):
        built.append((kind, *blocks))
        return real(kind, *blocks)

    monkeypatch.setattr(module, "_kernel", counting)

    def every_product():
        for v in module.basis:
            module.alpha_basis(v)
            for y in ring.basis:
                module.right_mul_basis(v, y)
                module.left_mul_basis(y, v)
        for y in ring.basis:
            module.beta_basis(y)

    every_product()
    assert len(built) == len(set(built)) == len(module._kernels) == 300
    kinds = [kind for kind, *_ in built]
    assert [kinds.count(k) for k in ("right", "left", "alpha", "beta")] == [125, 125, 25, 25]
    # 300 block kernels share 53 cobordism keys
    assert len({key for key, _, _ in module._kernels.values()}) == 53
    for memo in (module._left, module._right, module._alpha, module._beta):
        memo.clear()
    every_product()
    assert len(built) == 300
    assert plan_compiles == []
