"""Reference values the benchmark derives on its own, and the report checks.

A job counts as failed when its report disagrees with these values.
The checks compare named fields, not a digest of the report, so a
report may gain fields without failing the benchmark.  They run in the
benchmark process after the job's children have exited, outside every
timed region.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Table products compared against fresh surgery per job.
TABLE_SAMPLES = 100


def matchings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Crossingless perfect matchings of the points 1..2n."""

    def rec(points: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        if not points:
            return [()]
        first, out = points[0], []
        # first pairs with a point that leaves an even number between them
        for k in range(1, len(points), 2):
            inside, outside = points[1:k], points[k + 1 :]
            for a in rec(inside):
                for b in rec(outside):
                    out.append(((first, points[k]),) + a + b)
        return out

    return rec(tuple(range(1, 2 * n + 1)))


def circle_count(a, b) -> int:
    """Circles in the closed diagram glued from matchings a and b."""
    parent = {}

    def find(p):
        while parent.setdefault(p, p) != p:
            p = parent[p]
        return p

    for i, j in a + b:
        parent[find(i)] = find(j)
    return len({find(p) for p in parent})


def block_dims(n: int) -> list[list[int]]:
    """dims[b][a] = 2^(circles of a glued to b): the rank of block (b, a)."""
    ms = matchings(n)
    return [[2 ** circle_count(a, b) for a in ms] for b in ms]


def ring_dimension(n: int) -> int:
    return sum(map(sum, block_dims(n)))


def composable_pairs(n: int) -> int:
    """Pairs of basis vectors (x, y) with x.col == y.row.

    The blocks are symmetric, so the vectors ending at b and those
    starting at b are equally many.
    """
    return sum(sum(row) ** 2 for row in block_dims(n))


def springer_ranks(n: int) -> list[int]:
    """Ranks by degree k of the Springer quotient, 0 <= k <= n.

    Admissible subsets of size k are ballot sequences, so there are
    C(2n, k) - C(2n, k - 1) of them; they sum to C(2n, n).
    """
    return [math.comb(2 * n, k) - (math.comb(2 * n, k - 1) if k else 0) for k in range(n + 1)]


# -- report checks -------------------------------------------------------


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_verify(report: dict, n: int, checks: list[str]) -> list[str]:
    """Problems found in a ``verify`` report; empty when it is correct."""
    problems: list[str] = []
    _expect(problems, "passed", report.get("passed"), True)
    results = report.get("results", {}).get("checks", {})
    _expect(problems, "checks", sorted(results), sorted(checks))
    rank = math.comb(2 * n, n)
    ranks = springer_ranks(n)
    graded = {str(2 * k): r for k, r in enumerate(ranks)}
    for name, res in results.items():
        _expect(problems, f"{name}.passed", res.get("passed"), True)
    if "ring" in results:
        _expect(problems, "ring.dimension", results["ring"].get("dimension"), ring_dimension(n))
    if "center" in results:
        _expect(problems, "center.rank", results["center"].get("rank"), rank)
        _expect(problems, "center.graded_ranks", results["center"].get("graded_ranks"), graded)
    if "iso" in results:
        iso = results["iso"]
        _expect(problems, "iso.center_rank", iso.get("center_rank"), rank)
        _expect(problems, "iso.graded_ranks_center", iso.get("graded_ranks_center"), graded)
        _expect(problems, "iso.graded_ranks_admissible", iso.get("graded_ranks_admissible"), graded)
    if "springer" in results:
        sp = results["springer"]
        counts = {str(k): r for k, r in enumerate(ranks)}
        _expect(problems, "springer.admissible_counts", sp.get("admissible_counts"), counts)
        _expect(
            problems,
            "springer.quotient_graded_ranks",
            sp.get("quotient_graded_ranks"),
            ranks + [0] * n,
        )
    if "homotopy" in results:
        indices = results["homotopy"].get("indices", {})
        _expect(problems, "homotopy.indices", sorted(indices, key=int), [str(i) for i in range(1, 2 * n)])
        for i, rep in indices.items():
            signs = rep.get("homotopy_signs", {})
            if len(signs) != 2 or any(s not in (1, -1) for s in signs.values()):
                problems.append(f"homotopy.{i}.homotopy_signs not all +-1: {signs!r}")
    return problems


def check_table(store: dict, load: dict, n: int, cache_file: Path, seed: int) -> list[str]:
    """Problems found in a ``cache store`` + ``cache load`` pair.

    Besides the report fields, reads the stored file and compares a
    seeded sample of its products, as arcring's own loader returns them,
    with products computed by fresh surgery on a ring of the same basis
    order.
    """
    problems: list[str] = []
    pairs, dim = composable_pairs(n), ring_dimension(n)
    for action, rep, status in (("store", store, "stored"), ("load", load, "loaded")):
        res = rep.get("results", {})
        _expect(problems, f"{action}.passed", rep.get("passed"), True)
        _expect(problems, f"{action}.status", res.get("status"), status)
        _expect(problems, f"{action}.products", res.get("products"), pairs)
        _expect(problems, f"{action}.dimension", res.get("dimension"), dim)
    if problems:
        return problems
    payload = json.loads(cache_file.read_text())
    _expect(problems, "file products", len(payload.get("products", ())), pairs)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from arcring.arc_ring import ArcRing
    from arcring.cache import load_ring

    loaded = load_ring(n, cache_file.parent)
    fresh = ArcRing(n, loaded.order)
    rng = random.Random(seed)
    for xi, yi, _ in rng.sample(payload["products"], TABLE_SAMPLES):
        x, y = loaded.basis[xi], loaded.basis[yi]
        got, want = loaded.multiply_basis(x, y), fresh.multiply_basis(x, y)
        if got != want:
            problems.append(f"product ({xi}, {yi}): loaded {got!r}, fresh surgery {want!r}")
            break
    return problems
