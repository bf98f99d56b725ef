"""Acceptance gate: the fourteen checks the package promises, with budgets.

Each test prints one PASS/FAIL line (visible under pytest -s and in
failure output) and asserts both the mathematical fact and the wall
clock budget.  Budgets are generous; on current hardware every check
runs in well under a second except the n=4 center computation and the
full n = 4 suite of criterion 14.
"""

import itertools
import json
import math
import time

import element_reference
from element_reference import commutator_quotient_rank
from arcring.arc_ring import get_ring, verify_ring_integrity
from arcring.braid_homotopy import verify_null_homotopy
from arcring.cache import load_or_build, load_ring, store_ring
from arcring.center import (
    center_basis,
    verify_presentation_iso,
    verify_symmetric_action,
)
from arcring.cli import main
from arcring.combinatorics import (
    admissible_subsets,
    all_linear_extensions,
    bottom_arc_count,
    enumerate_matchings,
    matching_graph,
)
from arcring.presentations import (
    ideal_R1,
    ideal_R2,
    ideals_equal,
    quotient_graded_ranks,
    reduction_identities_vanish,
)


def report(number, name, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {verdict} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_catalan_counts():
    start = time.perf_counter()
    counts = [len(enumerate_matchings(n)) for n in range(1, 6)]
    ok = counts == [1, 2, 5, 14, 42]
    report(1, "matching counts", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_cell_count_identity():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        total = sum(2 ** bottom_arc_count(a) for a in enumerate_matchings(n))
        ok = ok and total == math.comb(2 * n, n)
        # the exponent equals the tree count of the nesting graph
        ok = ok and all(
            bottom_arc_count(a) == len(matching_graph(a).components)
            for a in enumerate_matchings(n)
        )
    report(2, "cell count identity", ok, time.perf_counter() - start, 1.0)


def test_criterion_03_admissible_count():
    start = time.perf_counter()
    ok = all(
        len(admissible_subsets(n)) == math.comb(2 * n, n) for n in range(1, 7)
    )
    report(3, "admissible subset count", ok, time.perf_counter() - start, 1.0)


def test_criterion_04_ring_integrity():
    start = time.perf_counter()
    ok = True
    for n in (1, 2):
        rep = verify_ring_integrity(n)
        ok = ok and rep["passed"] and rep["associativity_mode"] == "exhaustive"
    rep = verify_ring_integrity(3, samples=10000)
    ok = ok and rep["passed"]
    ok = ok and rep["associativity_triples"] >= 10000
    report(4, "ring integrity", ok, time.perf_counter() - start, 120.0)


def test_criterion_05_center_rank():
    start = time.perf_counter()
    ok = all(
        center_basis(n).rank == math.comb(2 * n, n) for n in (1, 2, 3, 4)
    )
    report(5, "center rank", ok, time.perf_counter() - start, 1800.0)


def test_criterion_06_graded_match():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        graded = center_basis(n).graded_ranks
        quotient = quotient_graded_ranks(ideal_R1(n), n)
        counts = {}
        for s in admissible_subsets(n):
            counts[len(s)] = counts.get(len(s), 0) + 1
        ok = ok and quotient == [counts.get(d, 0) for d in range(2 * n + 1)]
        ok = ok and {d: r for d, r in graded.items() if r} == {
            2 * d: r for d, r in counts.items()
        }
        if n == 2:
            ok = ok and quotient[:3] == [1, 3, 2]
    report(6, "graded ranks agree", ok, time.perf_counter() - start, 60.0)


def test_criterion_07_ideal_equality():
    start = time.perf_counter()
    ok = all(ideals_equal(ideal_R1(n), ideal_R2(n)) for n in (1, 2, 3))
    ok = ok and all(reduction_identities_vanish(n) for n in (1, 2, 3))
    report(7, "ideal equality", ok, time.perf_counter() - start, 60.0)


def test_criterion_08_presentation_isomorphism():
    start = time.perf_counter()
    ok = all(verify_presentation_iso(n)["passed"] for n in (1, 2, 3))
    report(8, "presentation isomorphism", ok, time.perf_counter() - start, 300.0)


def test_criterion_09_commutator_quotient():
    start = time.perf_counter()
    ok = all(
        commutator_quotient_rank(n) == math.comb(2 * n, n) for n in (1, 2, 3)
    )
    report(9, "commutator quotient rank", ok, time.perf_counter() - start, 300.0)


def test_criterion_10_null_homotopy():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for i in range(1, 2 * n):
            rep = verify_null_homotopy(i, n)
            ok = ok and rep["passed"]
            ok = ok and None not in rep["homotopy_signs"].values()
    report(10, "null homotopy", ok, time.perf_counter() - start, 120.0)


def test_criterion_11_symmetric_action():
    start = time.perf_counter()
    ok = all(verify_symmetric_action(n)["passed"] for n in (1, 2, 3))
    report(11, "symmetric group action", ok, time.perf_counter() - start, 60.0)


def test_criterion_12_order_independence():
    # the ring-built center under every basis order must equal the
    # merge-built center_basis(n); only 1, 1 and 2 linear extensions of
    # the arrow order exist for n = 1, 2, 3, so the check covers every
    # extension and tops up with seeded arbitrary basis orders
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        rep = element_reference.total_order_independence(n)
        ok = ok and rep["passed"]
        ok = ok and rep["linear_extensions"] == len(all_linear_extensions(n))
        most = math.factorial(len(enumerate_matchings(n)))
        ok = ok and rep["orders_checked"] == min(rep["linear_extensions"] + 3, most)
    report(12, "order independence", ok, time.perf_counter() - start, 300.0)


def test_criterion_13_determinism(tmp_path, capsys):
    start = time.perf_counter()
    ok = True
    for argv in (
        ["matchings", "--n", "2", "--arrows", "--order", "--graph"],
        ["verify", "--n", "1", "--all"],
        ["verify", "--n", "2", "--center", "--springer", "--format", "csv"],
    ):
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        ok = ok and first == second and first

    ring = get_ring(2)
    path = store_ring(ring, tmp_path)
    stored = path.read_bytes()
    loaded = load_ring(2, tmp_path)
    ok = ok and loaded.order == ring.order and loaded.basis == ring.basis
    ok = ok and store_ring(loaded, tmp_path).read_bytes() == stored
    again, status = load_or_build(2, tmp_path)
    ok = ok and status == "loaded"
    for x, y in itertools.product(ring.basis, repeat=2):
        if x.col == y.row:
            ok = ok and again.multiply_basis(x, y) == ring.multiply_basis(x, y)
    capsys.readouterr()
    report(13, "deterministic reports and cache", bool(ok),
           time.perf_counter() - start, 60.0)


def test_criterion_14_full_suite_n4(capsys):
    # five CLI children of verify --n 4 --all took 1.9-2.8 s (median
    # 2.4 s) on a 2-vCPU machine with Python 3.11; the budget is ten
    # times the slowest, for slower runners and shared machines
    start = time.perf_counter()
    code = main(["verify", "--n", "4", "--all"])
    out = json.loads(capsys.readouterr().out)
    ok = code == 0 and out["passed"] is True
    ok = ok and sorted(out["results"]["checks"]) == sorted(
        ["ring", "center", "springer", "iso", "homotopy", "symmetric"]
    )
    report(14, "full suite at n = 4", ok, time.perf_counter() - start, 30.0)
