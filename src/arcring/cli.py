"""Command-line front end: enumeration, verification, ring cache.

Every command emits exactly one report on stdout in the selected
format (json, csv, or text).  Reports carry a schema stamp and are
byte-identical across runs for the same arguments; wall-clock timing
is therefore opt-in (--timing), since a duration field would break
reproducibility.  Warnings and cache notices go to stderr.

Exit codes: 0 success, 1 verification failure, 2 usage error or a
check or a cache command asked beyond its reach (CapacityError, refused
before any work).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from .arc_ring import MAX_RING_CHECK_N, MAX_RING_N, get_ring, verify_ring_integrity
from .braid_homotopy import MAX_HOMOTOPY_N, verify_null_homotopy
from .cache import cache_path, load_or_build, store_ring
from .center import (
    MAX_CENTER_N,
    CenterBasis,
    CenterPresentation,
    center_basis,
    presentation_map,
    verify_presentation_iso,
    verify_symmetric_action,
)
from .combinatorics import (
    arrows,
    bottom_arc_count,
    enumerate_matchings,
    matching_graph,
    total_order,
)
from .errors import CapacityError, TorsionError
from .presentations import (
    admissible_subsets,
    ideal_R1,
    ideal_R2,
    ideals_equal,
    quotient_graded_ranks,
    reduction_identities_vanish,
)

SCHEMA_VERSION = 1
CHECK_NAMES = ("ring", "center", "springer", "iso", "homotopy", "symmetric")
# the checks that reach less than MAX_RING_N: all but --springer
CHECK_LIMITS = {"ring": MAX_RING_CHECK_N, "homotopy": MAX_HOMOTOPY_N}
CHECK_LIMITS.update(dict.fromkeys(("center", "iso", "symmetric"), MAX_CENTER_N))


# -- verification checks --------------------------------------------------


def check_ring(n: int, seed: int) -> dict:
    return verify_ring_integrity(n, seed=seed, samples=2000)


def check_center(basis: CenterBasis) -> dict:
    expected = math.comb(2 * basis.n, basis.n)
    return {
        "rank": basis.rank,
        "expected_rank": expected,
        "graded_ranks": {str(d): r for d, r in sorted(basis.graded_ranks.items())},
        "passed": basis.rank == expected,
    }


def check_springer(n: int) -> dict:
    report: dict = {"n": n}
    span1, span2 = ideal_R1(n), ideal_R2(n)
    report["ideals_equal"] = ideals_equal(span1, span2)
    report["reduction_identities_vanish"] = reduction_identities_vanish(n)
    counts: dict[str, int] = {}
    for s in admissible_subsets(n):
        counts[str(len(s))] = counts.get(str(len(s)), 0) + 1
    report["admissible_counts"] = counts
    try:
        ranks = quotient_graded_ranks(span1, n)
        report["quotient_graded_ranks"] = ranks
        report["torsion_free"] = True
        ranks_ok = all(
            ranks[d] == counts.get(str(d), 0) for d in range(len(ranks))
        )
    except TorsionError as exc:
        report["torsion_free"] = False
        report["torsion"] = str(exc)
        ranks_ok = False
    report["ranks_match_admissible"] = ranks_ok
    report["passed"] = (
        report["ideals_equal"]
        and report["reduction_identities_vanish"]
        and report["torsion_free"]
        and ranks_ok
    )
    return report


def check_iso(n: int, seed: int, pres: CenterPresentation) -> dict:
    return verify_presentation_iso(n, seed=seed, pres=pres)


def check_homotopy(n: int, seed: int) -> dict:
    indices = {str(i): verify_null_homotopy(i, n, seed=seed) for i in range(1, 2 * n)}
    return {
        "indices": indices,
        "passed": all(rep["passed"] for rep in indices.values()),
    }


def check_symmetric(n: int, seed: int, pres: CenterPresentation) -> dict:
    return verify_symmetric_action(n, seed=seed, pres=pres)


def run_checks(n: int, which: list[str], seed: int) -> dict:
    for name in which:
        limit = CHECK_LIMITS.get(name, MAX_RING_N)
        if n > limit:
            raise CapacityError(f"--{name} supports n <= {limit}, not n = {n}")
    # the presentation holds the center: each is built at most once
    pres = presentation_map(n) if "iso" in which or "symmetric" in which else None
    center = pres.center if pres is not None else center_basis(n) if "center" in which else None
    run = {
        "ring": lambda: check_ring(n, seed),
        "center": lambda: check_center(center),
        "springer": lambda: check_springer(n),
        "iso": lambda: check_iso(n, seed, pres),
        "homotopy": lambda: check_homotopy(n, seed),
        "symmetric": lambda: check_symmetric(n, seed, pres),
    }
    checks = {name: run[name]() for name in CHECK_NAMES if name in which}
    return {"checks": checks, "passed": all(c["passed"] for c in checks.values())}


# -- matchings command -----------------------------------------------------


def run_matchings(n: int, with_arrows: bool, with_order: bool, with_graph: bool) -> dict:
    ms = enumerate_matchings(n)
    index = {m: i for i, m in enumerate(ms)}
    results: dict = {
        "count": len(ms),
        "matchings": [[list(arc) for arc in m.pairs] for m in ms],
    }
    if with_order:
        results["total_order_indices"] = [index[m] for m in total_order(n)]
    if with_arrows:
        arcs = sorted([index[a], index[b]] for a, b in arrows(n))
        results["arrows"] = arcs
        results["arrow_count"] = len(arcs)
    if with_graph:
        graphs = []
        for m in ms:
            g = matching_graph(m)
            graphs.append(
                {
                    "vertices": [list(arc) for arc in g.vertices],
                    "edges": [[list(x), list(y)] for x, y in g.edges],
                    "marks": [list(arc) for arc in g.marks],
                    "bottom_arcs": bottom_arc_count(m),
                }
            )
        results["graphs"] = graphs
    return results


# -- cache command ----------------------------------------------------------


def run_cache(action: str, n: int, directory: str | None) -> dict:
    # the path refuses an n beyond the cache's reach, before any work
    path = cache_path(n, directory)
    if action == "store":
        ring, status = get_ring(n), "stored"
        store_ring(ring, directory)
    else:
        ring, status = load_or_build(n, directory)
    return {
        "status": status,
        "path": str(path),
        "dimension": ring.dimension,
        "products": ring.product_count(),
    }


# -- report plumbing ---------------------------------------------------------


def _flatten(value, prefix: str, out: list) -> None:
    if isinstance(value, dict):
        if not value:
            out.append((prefix, "{}"))
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append((prefix, "[]"))
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}.{i}" if prefix else str(i), out)
    else:
        out.append((prefix, json.dumps(value)))


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    rows: list = []
    _flatten(report, "", rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        return buf.getvalue()
    return "".join(f"{key}: {value}\n" for key, value in rows)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="report format (default json)",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    common.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock duration (breaks byte-for-byte reproducibility)",
    )

    parser = argparse.ArgumentParser(
        prog="arcring",
        description="Exact computations in the arc ring and its center.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser(
        "matchings", parents=[common], help="enumerate crossingless matchings"
    )
    m.add_argument("--n", type=int, required=True, help="number of arcs (0..%d)" % MAX_RING_N)
    m.add_argument("--arrows", action="store_true", help="include the arrow relation")
    m.add_argument("--order", action="store_true", help="include the canonical total order")
    m.add_argument("--graph", action="store_true", help="include nesting graphs")

    v = sub.add_parser("verify", parents=[common], help="run verification checks")
    v.add_argument("--n", type=int, required=True, help="number of arcs (1..%d)" % MAX_RING_N)
    for name in CHECK_NAMES:
        v.add_argument(f"--{name}", action="store_true", dest=f"check_{name}")
    v.add_argument("--all", action="store_true", dest="check_all", help="run every check")

    c = sub.add_parser("cache", parents=[common], help="store or load a built ring")
    c.add_argument("action", choices=("store", "load"))
    c.add_argument("--cache-dir", default=None, help="override the cache directory")
    c.add_argument("--n", type=int, required=True, help="number of arcs (1..%d)" % MAX_RING_N)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    warnings: list[str] = []
    parameters: dict = {"n": args.n, "format": args.format, "seed": args.seed}
    exit_code = 0

    if args.command == "matchings":
        if args.n < 0 or args.n > MAX_RING_N:
            parser.error(f"--n must be in 0..{MAX_RING_N}")
        if args.n == 0:
            warnings.append("n=0 yields only the empty matching")
        parameters.update(
            {"arrows": args.arrows, "order": args.order, "graph": args.graph}
        )
        results = run_matchings(args.n, args.arrows, args.order, args.graph)
        passed = True
    elif args.command == "verify":
        if args.n < 1 or args.n > MAX_RING_N:
            parser.error(f"--n must be in 1..{MAX_RING_N}")
        which = [name for name in CHECK_NAMES if getattr(args, f"check_{name}")]
        if args.check_all:
            which = list(CHECK_NAMES)
        if not which:
            parser.error("select at least one check (per-check flags or --all)")
        parameters["checks"] = which
        try:
            results = run_checks(args.n, which, args.seed)
        except CapacityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        passed = results["passed"]
        exit_code = 0 if passed else 1
    else:
        if args.n < 1 or args.n > MAX_RING_N:
            parser.error(f"--n must be in 1..{MAX_RING_N}")
        parameters["action"] = args.action
        try:
            results = run_cache(args.action, args.n, args.cache_dir)
        except CapacityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cache I/O failed: {exc}", file=sys.stderr)
            return 1
        passed = True

    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "parameters": parameters,
        "results": results,
        "passed": passed,
        "duration_s": round(time.perf_counter() - started, 6) if args.timing else None,
        "warnings": warnings,
    }
    sys.stdout.write(render_report(report, args.format))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
