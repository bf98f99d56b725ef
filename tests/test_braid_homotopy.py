"""Cup-cap bimodules, their saddle maps, and the null-homotopy check.

The homotopy sign pattern is frozen from the exact computation: the
left-lower-minus-right-upper endomorphism carries sign (-1)^i, the
other one the opposite, for every n up to 3.
"""

import doctest
import gc
import itertools
import weakref

import pytest

import arcring.braid_homotopy
import element_reference
import surgery_reference
from arcring import cli
from arcring.arc_ring import ArcRing, BasisVector, RingElement, _two_sided, degree, get_ring
from arcring.braid_homotopy import (
    UiBimodule,
    _axiom_triples,
    _bimodule_axiom_witness,
    compose_ui,
    verify_null_homotopy,
)
from arcring.center import center_basis, central_X
from arcring.combinatorics import Matching, enumerate_matchings, glue
from arcring.frobenius import Combination
from element_reference import alpha, beta, left_mul, module_element, right_mul


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
            module = UiBimodule(n, i)
            expected = 0
            for b in enumerate_matchings(n):
                for a in enumerate_matchings(n):
                    comp = compose_ui(i, a)
                    k = len(glue(b, comp.matching).circles) + comp.circles
                    assert module.block_dims[(b, a)] == 2**k
                    expected += 2 ** k
            assert module.dimension == expected


def test_unit_acts_as_identity():
    for n in (1, 2):
        for i in range(1, 2 * n):
            module = UiBimodule(n, i)
            one = module.ring.unit()
            for v in module.basis:
                x = module_element(module, v)
                assert left_mul(module, one, x) == x
                assert right_mul(module, x, one) == x


def test_action_block_vanishing():
    module = UiBimodule(2, 1)
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
        module = UiBimodule(n, i)
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
            assert _bimodule_axiom_witness(UiBimodule(n, i)) is None
    assert _bimodule_axiom_witness(UiBimodule(3, 2)) is None


def scanned_triples(module):
    """All-pairs scan over both bases, the reference for the exhaustive
    list of _axiom_triples."""
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


def test_axiom_triples_list_the_scan_for_n_at_most_2():
    # every composable triple, in scan order, whatever the seed
    for n, count in ((1, None), (2, 1944)):
        for i in range(1, 2 * n):
            module = UiBimodule(n, i)
            triples = scanned_triples(module)
            assert _axiom_triples(module, 0) == _axiom_triples(module, 7) == triples
            assert count is None or len(triples) == count


def test_axiom_triples_draw_at_n3():
    # 300 seeded draws of composable triples, of all three kinds
    for i in (1, 3):
        module = UiBimodule(3, i)
        spaces = {"ll": "rrm", "rr": "mrr", "lr": "rmr"}
        bases = {"r": set(module.ring.basis), "m": set(module.basis)}
        triples = _axiom_triples(module, 0)
        assert len(triples) == 300
        for kind, *factors in triples:
            assert all(t in bases[s] for t, s in zip(factors, spaces[kind]))
            assert factors[0].col == factors[1].row and factors[1].col == factors[2].row
        assert {kind for kind, *_ in triples} == set(spaces)
        assert _axiom_triples(module, 0) == triples
        assert _axiom_triples(module, 7) != triples


def _negate_right_x(module, blocks, r, row):
    """A right action that negates products with X-labeled ring vectors:
    a right kernel's input word ends in the ring word, so its rank r has
    a nonzero remainder modulo that ring block's dimension."""
    kind, *rest = blocks
    if kind == "right" and r % module.ring.block_dims[rest[1], rest[2]]:
        return tuple((o, -c) for o, c in row)
    return row


def test_homotopy_seed_picks_the_axiom_sample(tampered):
    # a right action that negates products with X-labeled ring vectors:
    # at n = 3, where the axiom triples are drawn, the seed decides which
    # failing triple the check meets first, on the basis-level and the
    # element-level path alike
    tampered(UiBimodule, _negate_right_x)
    witnesses = []
    for seed in (0, 7):
        report = verify_null_homotopy(1, 3, seed=seed)
        reference = element_reference.null_homotopy_report(1, 3, seed=seed)
        assert list(report.items()) == list(reference.items())
        witnesses.append(report["bimodule_axioms_counterexample"])
    assert witnesses[0] != witnesses[1]


def test_saddle_maps_are_bimodule_maps():
    for n, i in ((1, 1), (2, 1), (2, 2), (2, 3)):
        module = UiBimodule(n, i)
        ring = module.ring
        for y in ring.basis:
            ey = RingElement(n, {y: 1})
            for v in module.basis:
                x = module_element(module, v)
                if y.col == v.row:
                    assert alpha(module, left_mul(module, ey, x)) == ring.multiply(
                        ey, alpha(module, x)
                    )
                    assert beta(module, ring.multiply(ey, alpha(module, x))) == \
                        beta(module, alpha(module, left_mul(module, ey, x)))
                if v.col == y.row:
                    assert alpha(module, right_mul(module, x, ey)) == ring.multiply(
                        alpha(module, x), ey
                    )
        for y in ring.basis:
            ey = RingElement(n, {y: 1})
            for z in ring.basis:
                ez = RingElement(n, {z: 1})
                if y.col == z.row:
                    assert beta(module, ring.multiply(ey, ez)) == left_mul(
                        module, ey, beta(module, ez)
                    )
                    assert beta(module, ring.multiply(ey, ez)) == right_mul(
                        module, beta(module, ey), ez
                    )


def test_saddle_maps_degree_one():
    for n, i in ((1, 1), (2, 1), (2, 2)):
        module = UiBimodule(n, i)
        for v in module.basis:
            for w in alpha(module, module_element(module, v)).terms:
                assert degree(w) == degree(v) + 1
        for v in module.ring.basis:
            for w in beta(module, RingElement(n, {v: 1})).terms:
                assert degree(w) == degree(v) + 1


def test_alpha_beta_unit_image():
    # the composite on the unit gives the difference of the two
    # distinguished central elements, up to the recorded global sign
    for n, i in ((1, 1), (2, 1), (2, 2)):
        module = UiBimodule(n, i)
        ring = module.ring
        z = central_X(i, n) - central_X(i + 1, n)
        image = alpha(module, beta(module, ring.unit()))
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
            report = verify_null_homotopy(i, n)
            assert report["passed"], report
            assert report["homotopy_signs"] == {
                "left_lower_minus_right_upper": (-1) ** i,
                "left_upper_minus_right_lower": -((-1) ** i),
            }


def test_null_homotopy_n3():
    for i in range(1, 6):
        report = verify_null_homotopy(i, 3)
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
    module = UiBimodule(2, 1)
    ring = module.ring
    first = next(
        v for v in ring.basis
        if not alpha(module, beta(module, RingElement(2, {v: 1}))).is_zero()
    )
    _patch_basis_map(monkeypatch, "alpha_basis", lambda vs, out: tuple((z, 2 * c) for z, c in out))
    report = verify_null_homotopy(1, 2)
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
    report = verify_null_homotopy(1, 2)
    assert not report["passed"]
    # the true signs are -1 and +1 for i = 1
    assert report["homotopy_counterexample"] == {
        "left_lower_minus_right_upper": [f"ring {ring.basis[0]!r}", f"ring {flipped!r}"],
        "left_upper_minus_right_lower": [f"ring {flipped!r}", f"ring {ring.basis[0]!r}"],
    }


def test_degree_counterexample(monkeypatch):
    # alpha that drops every X lands below degree + 1
    module = UiBimodule(2, 1)
    first = next(v for v in module.basis if any("X" in z.labels for z, _ in module.alpha_basis(v)))
    _patch_basis_map(
        monkeypatch, "alpha_basis",
        lambda vs, out: tuple((BasisVector(z.row, z.col, "1" * len(z.labels)), c) for z, c in out),
    )
    report = verify_null_homotopy(1, 2)
    assert not report["passed"]
    assert not report["saddle_maps_degree_one"]
    assert report["degree_counterexample"] == ["alpha", repr(first)]


def test_commutes_and_axiom_counterexamples(tampered):
    # a right action that negates products with X-labeled ring vectors
    # breaks associativity and the saddle's commuting with phi
    tampered(UiBimodule, _negate_right_x)
    report = verify_null_homotopy(1, 2)
    assert not report["passed"]
    assert not report["bimodule_axioms"]
    witness = report["bimodule_axioms_counterexample"]
    assert witness[0] in ("ll", "rr", "lr") and len(witness) == 4
    assert _bimodule_axiom_witness(UiBimodule(2, 1)) == witness
    name, vector = report["commutes_counterexample"]
    assert name in report["homotopy_signs"]
    assert vector.startswith("BasisVector(")


def test_commutes_counterexample_is_first_failure(tampered):
    # the reported vector is the first bimodule vector, in basis order and
    # for the first endomorphism that has one, where alpha fails to
    # commute with the endomorphism
    tampered(UiBimodule, _negate_right_x)
    module = UiBimodule(2, 1)
    ring = module.ring
    z_lo, z_hi = central_X(1, 2), central_X(2, 2)
    failures = []
    for name, zl, zr in (
        ("left_lower_minus_right_upper", z_lo, z_hi),
        ("left_upper_minus_right_lower", z_hi, z_lo),
    ):
        for v in module.basis:
            x = module_element(module, v)
            a = alpha(module, x)
            phi = left_mul(module, zl, x) - right_mul(module, x, zr)
            if alpha(module, phi) != ring.multiply(zl, a) - ring.multiply(a, zr):
                failures.append([name, repr(v)])
    assert len(failures) > 1
    report = verify_null_homotopy(1, 2)
    assert report["commutes_counterexample"] == failures[0]


@pytest.mark.parametrize("action", ["left_mul_basis", "right_mul_basis"])
def test_unit_counterexample(tampered, action):
    # an action whose kernels kill everything fails the unit law first,
    # at the first basis vector, on the index scan and the element-level
    # path
    kind = action.split("_")[0]
    tampered(UiBimodule, lambda module, blocks, r, row: () if blocks[0] == kind else row)
    module = UiBimodule(2, 1)
    report = verify_null_homotopy(1, 2)
    witness = ["unit", repr(module.basis[0])]
    assert report["bimodule_axioms_counterexample"] == witness
    assert element_reference.bimodule_axiom_witness(2, 1) == witness


def test_homotopy_check_frees_its_modules(monkeypatch):
    # each check builds its own F(U_i), and nothing keeps it alive after
    # the check has reported
    built = []
    real = UiBimodule.__init__

    def recording(self, *args):
        real(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(UiBimodule, "__init__", recording)
    assert cli.check_homotopy(2, 0)["passed"]
    gc.collect()
    assert built and all(ref() is None for ref in built)


def test_null_homotopy_computes_each_image_once(monkeypatch):
    # the scan runs on basis indices: with the axiom check, which
    # multiplies basis vectors, taken out, it makes no product call on
    # basis vectors or on ring elements; alpha_basis and beta_basis run
    # once per basis vector, for the degree check and the rows of each
    # map; and
    # one pass serves both endomorphisms, so each composite is applied
    # once per vector: alpha's rows once per ring vector, beta's once per
    # bimodule vector.  Per endomorphism the commute check applies
    # alpha's rows to each bimodule image, and that endomorphism's held
    # ring images to each alpha image
    module = UiBimodule(3, 2)
    dim, ring_dim = module.dimension, module.ring.dimension
    calls = {}
    for cls, names in (
        (ArcRing, ("multiply", "multiply_basis")),
        (UiBimodule, ("left_mul_basis", "right_mul_basis", "alpha_basis", "beta_basis")),
    ):
        for name in names:
            real = getattr(cls, name)
            calls[name] = 0

            def counting(self, *args, _name=name, _real=real):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(cls, name, counting)
    applied = []
    real_apply = arcring.braid_homotopy._apply

    def recording(rows, image):
        applied.append(id(rows))
        return real_apply(rows, image)

    monkeypatch.setattr(arcring.braid_homotopy, "_apply", recording)
    monkeypatch.setattr(arcring.braid_homotopy, "_bimodule_axiom_witness", lambda module, seed: None)
    assert verify_null_homotopy(2, 3)["passed"]
    assert calls == {
        "multiply": 0,
        "multiply_basis": 0,
        "left_mul_basis": 0,
        "right_mul_basis": 0,
        "alpha_basis": dim,
        "beta_basis": ring_dim,
    }
    # alpha's rows, beta's rows and the two endomorphisms' ring images,
    # in their order of first use
    rows_used = list(dict.fromkeys(applied))
    assert [applied.count(rows) for rows in rows_used] == [ring_dim + 2 * dim, dim, dim, dim]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_sided_matches_element_reference(n):
    # the index routine against the basis-vector routine it replaced, on
    # every basis vector of H_n and of every F(U_i): the endomorphisms
    # (X_i, X_{i+1}) and (X_{i+1}, X_i), the unit laws (1, 0) and
    # (0, -1), and (z, z) for each center basis element
    ring = get_ring(n)
    one, zero = ring.unit(), RingElement(n)
    common = [(one, zero), (zero, -one)] + [
        (z, z) for z in element_reference.center_elements(center_basis(n))
    ]

    def ends(i):
        return [(central_X(i, n), central_X(i + 1, n)), (central_X(i + 1, n), central_X(i, n))]

    spaces = [(ring, ring.multiply_basis, ring.multiply_basis, RingElement, n, range(1, 2 * n))]
    for i in range(1, 2 * n):
        module = UiBimodule(n, i)
        spaces.append(
            (module, module.left_mul_basis, module.right_mul_basis, Combination, module.space, [i])
        )
    for space, left, right, cls, tag, indices in spaces:
        for zl, zr in [pair for i in indices for pair in ends(i)] + common:
            image = element_reference.two_sided(zl, zr, left, right, cls, tag)
            expected = [
                {space.index[w]: c for w, c in image(((v, 1),)).terms.items()} for v in space.basis
            ]
            assert list(_two_sided(space, zl, zr)) == expected


@pytest.mark.parametrize("n, i", [(n, i) for n in (1, 2, 3) for i in range(1, 2 * n)])
def test_basis_level_verdict_matches_element_level(n, i):
    # the homotopy, commute, degree and axiom verdicts on basis vectors
    # equal those of the element-level maps, key for key and in order
    report = verify_null_homotopy(i, n)
    assert report["passed"]
    assert list(report.items()) == list(element_reference.null_homotopy_report(i, n).items())


def test_wrong_alpha_sign_matches_element_level(monkeypatch):
    # alpha negated on one bimodule vector: both paths name the same
    # counterexamples
    module = UiBimodule(2, 1)
    flipped = [v for v in module.basis if module.alpha_basis(v)][3]
    _patch_basis_map(
        monkeypatch, "alpha_basis",
        lambda vs, out: tuple((z, -c) for z, c in out) if vs[0] == flipped else out,
    )
    report = verify_null_homotopy(1, 2)
    assert not report["passed"]
    assert "homotopy_counterexample" in report
    assert list(report.items()) == list(element_reference.null_homotopy_report(1, 2).items())


def test_wrong_ring_product_sign_matches_element_level(flip_product):
    # one ring product negated in its kernel's table, a term of the
    # central X at endpoint 1 times an off-diagonal vector: the
    # endomorphisms and the bimodule axioms fail, and both paths name the
    # same counterexamples
    ring = get_ring(2)
    z = central_X(1, 2)
    pair = next(
        (u, y) for u in z.terms for y in ring.basis
        if y.row == u.col != y.col and ring.multiply_basis(u, y)
    )
    flip_product(*pair)
    report = verify_null_homotopy(1, 2)
    assert not report["passed"]
    assert "bimodule_axioms_counterexample" in report
    assert list(report.items()) == list(element_reference.null_homotopy_report(1, 2).items())


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
        module = UiBimodule(4, i)
        b2, b, a, a2 = (draw(st.sampled_from(ms)) for _ in range(4))

        def word(k):
            return "".join(draw(st.lists(st.sampled_from("1X"), min_size=k, max_size=k)))

        def ring_vector(row, col):
            return BasisVector(row, col, word(len(glue(row, col).circles)))

        x = BasisVector(b, a, word(module.block_dims[(b, a)].bit_length() - 1))
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


def test_kernel_keys_match_link_reference():
    # the key read off a ring key, for every left, right, alpha and beta
    # kernel of every F(U_i) with n <= 4 (41,160 kernels at n = 4),
    # against the link union-find on the stacked diagrams
    for n, total in ((1, 4), (2, 72), (3, 1500), (4, 41160)):
        kernels = 0
        for i in range(1, 2 * n):
            module = UiBimodule(n, i)
            order = module.ring.order
            for kind, arity in (("right", 3), ("left", 3), ("alpha", 2), ("beta", 2)):
                for blocks in itertools.product(order, repeat=arity):
                    key = module._kernel(kind, *blocks)[0]
                    assert key == surgery_reference.module_link_key(n, i, kind, blocks)
                    kernels += 1
        assert kernels == total


def test_kernel_keys_property_n5():
    # drawn kernels of F(U_i) at n = 5, with both modules built once per i
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ms = enumerate_matchings(5)
    modules = {}

    @st.composite
    def cases(draw):
        i = draw(st.integers(1, 9))
        kind, arity = draw(st.sampled_from((("right", 3), ("left", 3), ("alpha", 2), ("beta", 2))))
        return i, kind, tuple(draw(st.sampled_from(ms)) for _ in range(arity))

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        i, kind, blocks = case
        if i not in modules:
            modules[i] = UiBimodule(5, i)
        key = modules[i]._kernel(kind, *blocks)[0]
        assert key == surgery_reference.module_link_key(5, i, kind, blocks)

    check()


def test_plan_compile_budget(plan_compiles, monkeypatch):
    # no bimodule product runs saddle surgery; each (kind, blocks)
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
    for memo in (module._left, module._right):
        memo.clear()
    every_product()
    assert len(built) == 300
    assert plan_compiles == []
