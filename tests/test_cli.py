"""Command-line reports, exit codes, output formats, and the ring cache.

Determinism is the load-bearing property: the same invocation must give
byte-identical stdout, and a stored ring must reload into the same
product table it was saved from.
"""

import csv
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from arcring import arc_ring, cache, cli
from arcring.arc_ring import ArcRing, get_ring, verify_ring_integrity
from arcring.braid_homotopy import verify_null_homotopy
from arcring.cache import (
    cache_path,
    load_or_build,
    load_ring,
    payload_to_ring,
    ring_to_payload,
    store_ring,
)
from arcring.cli import main, render_report
from arcring.combinatorics import enumerate_matchings
from arcring.errors import CapacityError, InvariantError


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


def test_matchings_n2_arrows(capsys):
    code, report, _ = run_json(capsys, ["matchings", "--n", "2", "--arrows"])
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "matchings"
    assert report["passed"] is True
    assert report["results"]["count"] == 2
    assert report["results"]["arrow_count"] == 1
    assert report["results"]["arrows"] == [[0, 1]]
    assert report["results"]["matchings"] == [
        [[1, 2], [3, 4]],
        [[1, 4], [2, 3]],
    ]
    assert report["warnings"] == []
    assert report["duration_s"] is None


def test_matchings_n1(capsys):
    code, report, _ = run_json(capsys, ["matchings", "--n", "1"])
    assert code == 0
    assert report["results"]["count"] == 1
    assert report["results"]["matchings"] == [[[1, 2]]]


def test_matchings_n0_warns(capsys):
    code, report, _ = run_json(capsys, ["matchings", "--n", "0"])
    assert code == 0
    assert report["results"]["count"] == 1
    assert report["results"]["matchings"] == [[]]
    assert len(report["warnings"]) == 1


def test_matchings_order_and_graph(capsys):
    code, report, _ = run_json(
        capsys, ["matchings", "--n", "2", "--order", "--graph"]
    )
    assert code == 0
    assert report["results"]["total_order_indices"] == [0, 1]
    graphs = report["results"]["graphs"]
    assert graphs[0]["edges"] == []
    assert graphs[0]["bottom_arcs"] == 2
    assert graphs[1]["edges"] == [[[1, 4], [2, 3]]]
    assert graphs[1]["bottom_arcs"] == 1


def test_matchings_bad_n_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matchings", "--n", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["matchings", "--n", "-1"])
    assert exc.value.code == 2


def test_verify_n2_all(capsys):
    code, report, _ = run_json(capsys, ["verify", "--n", "2", "--all"])
    assert code == 0
    assert report["passed"] is True
    checks = report["results"]["checks"]
    assert sorted(checks) == [
        "center", "homotopy", "iso", "ring", "springer", "symmetric",
    ]
    assert checks["center"]["rank"] == 6
    assert checks["center"]["graded_ranks"] == {"0": 1, "2": 3, "4": 2}
    assert checks["iso"]["center_rank"] == 6
    assert checks["springer"]["ideals_equal"] is True
    assert all(c["passed"] for c in checks.values())


def test_verify_single_checks(capsys):
    code, report, _ = run_json(capsys, ["verify", "--n", "1", "--homotopy"])
    assert code == 0
    assert list(report["results"]["checks"]) == ["homotopy"]
    homotopy = report["results"]["checks"]["homotopy"]
    assert homotopy["indices"]["1"]["passed"] is True

    code, report, _ = run_json(capsys, ["verify", "--n", "2", "--center"])
    assert code == 0
    assert report["results"]["checks"]["center"]["rank"] == 6
    assert report["parameters"]["checks"] == ["center"]


def test_verify_requires_a_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1"])
    assert exc.value.code == 2


def test_verify_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "0", "--all"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["verify", "--n", "1", "--center"], ["matchings", "--n", "1"]])
def test_cache_dir_is_a_cache_option_only(capsys, tmp_path, command):
    # only the cache command reads a cache directory; elsewhere the
    # flag is a usage error, not silently ignored
    with pytest.raises(SystemExit) as exc:
        main([*command, "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["ring", "homotopy"])
def test_verify_refuses_a_check_beyond_its_reach(capsys, monkeypatch, check):
    # n = 6 is refused with exit code 2 before any selected check runs,
    # and the library check refuses it on its own
    ran = []
    for name in cli.CHECK_NAMES:
        monkeypatch.setattr(cli, f"check_{name}", lambda *args, name=name: ran.append(name))
    code, out, err = run_cli(capsys, ["verify", "--n", "6", "--springer", f"--{check}"])
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: --{check} supports n <= 5, not n = 6\n"
    with pytest.raises(CapacityError):
        verify_ring_integrity(6) if check == "ring" else verify_null_homotopy(1, 6)


@pytest.mark.parametrize("check", ["center", "iso", "symmetric"])
def test_verify_refuses_the_center_checks_beyond_their_reach(capsys, monkeypatch, check):
    # the center gave no verdict in 480 s at n = 6, and --iso and
    # --symmetric build it first: each is refused before any check runs,
    # while --springer keeps n = 6; the library refuses it before it
    # enumerates a matching or builds a ring
    ran = []
    for name in cli.CHECK_NAMES:
        monkeypatch.setattr(cli, f"check_{name}", lambda *args, name=name: ran.append(name))
    code, out, err = run_cli(capsys, ["verify", "--n", "6", "--springer", f"--{check}"])
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: --{check} supports n <= 5, not n = 6\n"
    assert cli.CHECK_LIMITS.get("springer", cli.MAX_RING_N) == 6
    from arcring import center

    monkeypatch.setattr(center, "enumerate_matchings", lambda n: ran.append(n))
    monkeypatch.setattr(center, "get_ring", lambda n: ran.append(n))
    for library_check in (
        center.center_basis,
        center.presentation_map,
        center.verify_presentation_iso,
        center.verify_symmetric_action,
    ):
        with pytest.raises(CapacityError):
            library_check(6)
    assert ran == []


def test_verify_builds_the_center_and_the_presentation_once(capsys, monkeypatch):
    # --center reads the center of the presentation that --iso and
    # --symmetric share, so --all builds each once; --center alone
    # builds no presentation
    from arcring import center

    built = []
    for name in ("center_basis", "presentation_map"):
        real = getattr(center, name)

        def counting(n, _name=name, _real=real):
            built.append(_name)
            return _real(n)

        monkeypatch.setattr(center, name, counting)
        monkeypatch.setattr(cli, name, counting)
    code, _, _ = run_cli(capsys, ["verify", "--n", "2", "--all"])
    assert code == 0
    assert sorted(built) == ["center_basis", "presentation_map"]
    built.clear()
    code, _, _ = run_cli(capsys, ["verify", "--n", "2", "--center"])
    assert (code, built) == (0, ["center_basis"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    import arcring.cli as cli_module

    monkeypatch.setattr(
        cli_module, "check_center", lambda n: {"rank": -1, "passed": False}
    )
    code, report, _ = run_json(capsys, ["verify", "--n", "1", "--center"])
    assert code == 1
    assert report["passed"] is False


def test_seed_reaches_sampled_checks(capsys, monkeypatch):
    seen = {}

    def fake(name):
        def check(*args, seed=0, **kwargs):
            seen.setdefault(name, []).append(seed)
            return {"passed": True}

        return check

    monkeypatch.setattr(cli, "verify_presentation_iso", fake("iso"))
    monkeypatch.setattr(cli, "verify_symmetric_action", fake("symmetric"))
    monkeypatch.setattr(cli, "verify_null_homotopy", fake("homotopy"))
    argv = ["verify", "--n", "2", "--iso", "--symmetric", "--homotopy", "--seed", "7"]
    code, report, _ = run_json(capsys, argv)
    assert code == 0
    # the homotopy check runs once per tangle index i = 1, 2, 3
    assert seen == {"iso": [7], "symmetric": [7], "homotopy": [7, 7, 7]}


def test_symmetric_check_hnf_budget(capsys, hnf_calls):
    code, report, _ = run_json(capsys, ["verify", "--n", "3", "--symmetric"])
    assert code == 0 and report["passed"] is True
    # 15 factorizations when this bound was set; refactoring a lattice
    # on every solve takes it into the thousands
    assert len(hnf_calls) <= 20


def test_symmetric_check_admissible_budget(capsys, monkeypatch):
    from arcring import combinatorics, presentations

    calls = []
    real = combinatorics.is_admissible

    def counting(subset, n):
        calls.append(n)
        return real(subset, n)

    monkeypatch.setattr(combinatorics, "is_admissible", counting)
    presentations._admissible_index.cache_clear()
    code, report, _ = run_json(capsys, ["verify", "--n", "3", "--symmetric"])
    assert code == 0 and report["passed"] is True
    # a few enumerations of the 64 subsets of [1, 6] (84 calls when
    # measured); rebuilding the admissible basis on every coordinate
    # lookup takes it past 100,000
    assert len(calls) <= 4 * 64


def test_byte_determinism(capsys):
    for argv in (
        ["matchings", "--n", "2", "--arrows", "--order", "--graph"],
        ["verify", "--n", "1", "--all"],
        ["verify", "--n", "2", "--center", "--springer"],
    ):
        _, first, _ = run_cli(capsys, list(argv))
        _, second, _ = run_cli(capsys, list(argv))
        assert first == second


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify_n3_all_seed0.json", ["verify", "--n", "3", "--all", "--seed", "0"]),
        ("verify_n3_all_seed7.json", ["verify", "--n", "3", "--all", "--seed", "7"]),
        ("verify_n2_all.json", ["verify", "--n", "2", "--all"]),
        (
            "verify_n4_center_iso_symmetric.json",
            ["verify", "--n", "4", "--center", "--iso", "--symmetric"],
        ),
        ("verify_n4_ring.json", ["verify", "--n", "4", "--ring"]),
    ],
)
def test_golden_reports(capsys, name, argv):
    # the checked-in default outputs: a faster path through any check
    # must reproduce every report byte for byte
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_outputs_identical_across_processes(tmp_path):
    # a matching hashes by identity, so the iteration order of a set of
    # matchings changes from one process to the next; no report and no
    # cache file may depend on it, nor on the string hash seed
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for hashseed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for argv in (
            ["verify", "--n", "2", "--all"],
            ["cache", "store", "--n", "3", "--cache-dir", str(tmp_path)],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "arcring.cli", *argv],
                env=env, capture_output=True, check=True,
            )
            outputs.append(done.stdout)
        outputs.append(cache_path(3, tmp_path).read_bytes())
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_readme_quick_tour_runs():
    # the python block under "A quick tour in code" in the README runs
    # as written, in a fresh interpreter
    readme = Path(__file__).resolve().parents[1] / "README.md"
    tour = readme.read_text().split("A quick tour in code:", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "verify_presentation_iso(2)" in block
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_timing_flag(capsys):
    _, report, _ = run_json(capsys, ["matchings", "--n", "1", "--timing"])
    assert isinstance(report["duration_s"], float)
    _, report, _ = run_json(capsys, ["matchings", "--n", "1"])
    assert report["duration_s"] is None


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["matchings", "--n", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    table = dict(rows[1:])
    # leaf values are JSON-encoded before the CSV layer
    assert table["results.count"] == "1"
    assert table["command"] == '"matchings"'
    assert table["passed"] == "true"


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, ["matchings", "--n", "1", "--format", "text"])
    assert code == 0
    assert "results.count: 1" in out.splitlines()
    assert all(": " in line for line in out.splitlines())


def test_render_report_shapes():
    report = {"a": {"b": [1, 2]}, "c": None, "d": [], "e": {}}
    text = render_report(report, "text")
    assert text == "a.b.0: 1\na.b.1: 2\nc: null\nd: []\ne: {}\n"
    as_json = render_report(report, "json")
    assert json.loads(as_json) == report


# -- cache ------------------------------------------------------------------


def test_cache_roundtrip_products(tmp_path):
    ring = get_ring(2)
    store_ring(ring, tmp_path)
    loaded = load_ring(2, tmp_path)
    assert loaded.n == 2
    assert loaded.order == ring.order
    assert loaded.basis == ring.basis
    fresh = get_ring(2)
    for x in fresh.basis:
        for y in fresh.basis:
            if x.col == y.row:
                assert loaded.multiply_basis(x, y) == fresh.multiply_basis(x, y)


def test_cache_store_load_store_byte_identical(tmp_path):
    ring = get_ring(1)
    path = store_ring(ring, tmp_path)
    first = path.read_bytes()
    reloaded = load_ring(1, tmp_path)
    second = store_ring(reloaded, tmp_path).read_bytes()
    assert first == second


def _multiplied(ring):
    """ring's product memo, filled by multiply_basis on every composable pair."""
    by_row = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    for x in ring.basis:
        for y in by_row[x.col]:
            ring.multiply_basis(x, y)
    return ring._products


def _sorted_payload(ring):
    """The payload built from the product memo, as the reference for index space.

    Every product is sorted by the basis indexes of its factors, and
    each term's vector is looked up in ring.index.
    """
    products = [
        [ring.index[x], ring.index[y], [[ring.index[z], c] for z, c in terms]]
        for (x, y), terms in sorted(
            _multiplied(ring).items(), key=lambda kv: (ring.index[kv[0][0]], ring.index[kv[0][1]])
        )
    ]
    return {
        "schema": cache.SCHEMA_VERSION,
        "n": ring.n,
        "order": [[list(arc) for arc in m.pairs] for m in ring.order],
        "products": products,
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_payload_matches_sorted_reference(tmp_path, cobordism_keys, cobordism_rows, n):
    canonical = get_ring(n).order
    shuffled = list(canonical)
    random.Random(n).shuffle(shuffled)
    assert n == 1 or shuffled != canonical
    for order in (None, shuffled):
        before = (len(cobordism_keys), len(cobordism_rows))
        payload = ring_to_payload(ArcRing(n, order))
        fresh = (len(cobordism_keys) - before[0], len(cobordism_rows) - before[1])
        assert fresh[0] == len(canonical) ** 3
        assert payload == _sorted_payload(ArcRing(n, order))
        # a load compares the file with the rows its cobordism kernels
        # give, building them as a fresh ring does; it fills the product
        # memo only through its surgery re-check, and the loaded ring
        # stores the same bytes again from the rows the load built
        path = store_ring(payload_to_ring(payload), tmp_path)
        first = path.read_bytes()
        before = (len(cobordism_keys), len(cobordism_rows))
        loaded = load_ring(n, tmp_path)
        assert (len(cobordism_keys) - before[0], len(cobordism_rows) - before[1]) == fresh
        assert len(loaded._products) <= cache.REVERIFIED
        before = (len(cobordism_keys), len(cobordism_rows))
        assert store_ring(loaded, tmp_path).read_bytes() == first
        assert (len(cobordism_keys), len(cobordism_rows)) == before
        assert ring_to_payload(loaded) == payload
        assert _multiplied(loaded) == _multiplied(ArcRing(n, order))


def test_cache_store_multiplies_no_pair(tmp_path, monkeypatch):
    # the store walks the cobordism kernels block by block: it makes no
    # multiply_basis call and leaves the product memo empty
    def refuse(self, x, y, arc_order=None):
        raise AssertionError("store_ring called multiply_basis")

    for n in (1, 2, 3):
        ring = ArcRing(n)
        with monkeypatch.context() as patch:
            patch.setattr(ArcRing, "multiply_basis", refuse)
            path = store_ring(ring, tmp_path)
        assert ring._products == {}
        assert hashlib.sha256(path.read_bytes()).hexdigest() == STORED_DIGESTS[n]


@pytest.mark.parametrize("step", ["write", "replace"])
def test_cache_store_is_atomic(tmp_path, monkeypatch, step):
    # a store that fails partway leaves the old file and no temp file
    path = cache_path(2, tmp_path)
    path.write_text("previous cache contents\n")
    before = path.read_bytes()

    real_rows = ArcRing.table_rows

    def torn_rows(ring):
        # the disk fills after some rows of the ring's table walk have
        # gone to the temp file
        rows = real_rows(ring)
        yield next(rows)
        yield next(rows)
        assert [p.name for p in tmp_path.glob("*.tmp")] == [f"{path.name}.{os.getpid()}.tmp"]
        raise OSError("disk full")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    if step == "write":
        monkeypatch.setattr(ArcRing, "table_rows", torn_rows)
    else:
        monkeypatch.setattr(cache.os, "replace", failing_replace)
    with pytest.raises(OSError):
        store_ring(get_ring(2), tmp_path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_cache_load_rechecks_products_by_surgery(tmp_path, monkeypatch):
    # a load recomputes the products at REVERIFIED seeded positions of
    # the table by saddle surgery, and only those enter the product memo;
    # a kernel that disagrees with surgery is a bug a rebuild would repeat
    order = list(get_ring(3).order)
    random.Random(3).shuffle(order)
    ring = ArcRing(3, order)
    table = ring_to_payload(ring)["products"]
    positions = sorted(random.Random(0).sample(range(len(table)), cache.REVERIFIED))
    expected = [(ring.basis[table[k][0]], ring.basis[table[k][1]]) for k in positions]
    store_ring(ring, tmp_path)
    forced = []
    real = ArcRing.multiply_basis

    def counting(self, x, y, arc_order=None):
        if arc_order is not None:
            forced.append((x, y))
        return real(self, x, y, arc_order)

    monkeypatch.setattr(ArcRing, "multiply_basis", counting)
    loaded = load_ring(3, tmp_path)
    assert forced == expected
    assert list(loaded._products) == expected
    surgery = arc_ring._surgery_product
    monkeypatch.setattr(
        arc_ring, "_surgery_product", lambda steps, word: [(w, -c) for w, c in surgery(steps, word)]
    )
    with pytest.raises(InvariantError, match="differs from its surgery"):
        load_ring(3, tmp_path)


def test_cache_missing_builds_silently(tmp_path, capsys):
    ring, status = load_or_build(1, tmp_path)
    assert status == "built"
    assert ring.dimension == 2
    assert capsys.readouterr().err == ""
    # the build stored a file, so a second call loads
    _, status = load_or_build(1, tmp_path)
    assert status == "loaded"


def test_cache_corrupt_rebuilds_with_warning(tmp_path, capsys):
    path = cache_path(1, tmp_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ not json")
    ring, status = load_or_build(1, tmp_path)
    assert status == "rebuilt"
    assert ring.dimension == 2
    assert "rebuilding" in capsys.readouterr().err


def _row_text(payload) -> str:
    """payload in the row layout of a stored file.

    A header line up to "products":[, one line per run of entries with
    the same first index (a basis vector's row, for an untampered
    payload), each but the last ending in a comma, and the tail line;
    every line compact and key-sorted, as json.dumps writes it.
    """

    def dumps(value):
        return json.dumps(value, separators=(",", ":"))

    rows = itertools.groupby(payload["products"], key=lambda entry: entry[0])
    body = ",\n".join(",".join(map(dumps, row)) for _, row in rows)
    return (
        f'{{"n":{dumps(payload["n"])},"order":{dumps(payload["order"])},"products":[\n'
        f'{body}\n],"schema":{dumps(payload["schema"])}}}\n'
    )


def test_cache_schema_bump_rejected(tmp_path, capsys):
    ring = get_ring(1)
    payload = ring_to_payload(ring)
    payload["schema"] = 99
    path = cache_path(1, tmp_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_row_text(payload))
    with pytest.raises(ValueError):
        payload_to_ring(payload)
    _, status = load_or_build(1, tmp_path)
    assert status == "rebuilt"
    assert "schema" in capsys.readouterr().err


def test_cache_wrong_n_rejected(tmp_path):
    store_ring(get_ring(2), tmp_path)
    stored = cache_path(2, tmp_path)
    stored.rename(cache_path(1, tmp_path))
    with pytest.raises(ValueError):
        load_ring(1, tmp_path)


def test_cache_wrong_n_checked_before_products(tmp_path, monkeypatch):
    # an n = 1 ring filed as n = 2 is rejected before a row is made or
    # a re-check position decoded
    path = cache_path(2, tmp_path)
    path.write_text(_row_text(ring_to_payload(get_ring(1))))

    def rows(ring, *position):
        raise AssertionError("table read before the n check")

    monkeypatch.setattr(ArcRing, "table_rows", rows)
    monkeypatch.setattr(ArcRing, "table_pair", rows)
    with pytest.raises(ValueError, match="n=2 actually contains n=1"):
        load_ring(2, tmp_path)


def _tamper(case):
    """The n = 2 payload with one product entry edited as case says."""
    ring = get_ring(2)
    payload = ring_to_payload(ring)
    entry = next(e for e in payload["products"] if e[2])
    xi, yi, terms = entry
    x, y = ring.basis[xi], ring.basis[yi]
    # a negative index aliases the right vector, so only the range
    # check can catch it
    if case == "x_negative":
        entry[0] = xi - ring.dimension
    elif case == "x_too_large":
        entry[0] = ring.dimension
    elif case == "y_negative":
        entry[1] = yi - ring.dimension
    elif case == "y_too_large":
        entry[1] = ring.dimension
    elif case == "term_negative":
        terms[0][0] -= ring.dimension
    elif case == "term_too_large":
        terms[0][0] = ring.dimension
    elif case == "term_negative_float_coeff":
        entry[2] = [[-1, 1.9]]
    elif case == "term_outside_block":
        terms[0][0] = next(
            i for i, v in enumerate(ring.basis) if (v.row, v.col) != (x.row, y.col)
        )
    elif case == "float_coeff":
        terms[0][1] = float(terms[0][1])
    elif case == "bool_coeff":
        terms[0][1] = True
    elif case == "entries_missing":
        del payload["products"][len(payload["products"]) // 2 :]
    elif case == "entry_extra":
        payload["products"].append(list(entry))
    elif case == "pair_repeated":
        # the count stays right; a second entry for (x, y) with a wrong
        # coefficient would replace the true product
        k = payload["products"].index(entry)
        payload["products"][k + 1] = [xi, yi, [[terms[0][0], 5]]]
    elif case == "terms_descending":
        entry = next(e for e in payload["products"] if len(e[2]) > 1)
        entry[2].reverse()
    elif case == "term_repeated":
        entry[2] = [terms[0], list(terms[0])]
    elif case == "zero_coeff":
        terms[0][1] = 0
    # the table stays canonical, so only recomputing the product finds these
    elif case == "sign_flipped":
        terms[0][1] = -terms[0][1]
    elif case == "term_moved_in_block":
        taken = {zi for zi, _ in terms}
        terms[0][0] = next(
            i
            for i, v in enumerate(ring.basis)
            if (v.row, v.col) == (x.row, y.col) and i not in taken
        )
        terms.sort()
    return payload


@pytest.mark.parametrize(
    "case",
    [
        "x_negative",
        "x_too_large",
        "y_negative",
        "y_too_large",
        "term_negative",
        "term_too_large",
        "term_negative_float_coeff",
        "term_outside_block",
        "float_coeff",
        "bool_coeff",
        "entries_missing",
        "entry_extra",
        "pair_repeated",
        "terms_descending",
        "term_repeated",
        "zero_coeff",
        "sign_flipped",
        "term_moved_in_block",
    ],
)
def test_cache_rejects_untrusted_entries(tmp_path, capsys, case):
    payload = _tamper(case)
    with pytest.raises(ValueError):
        payload_to_ring(payload)
    cache_path(2, tmp_path).write_text(_row_text(payload))
    ring, status = load_or_build(2, tmp_path)
    assert status == "rebuilt"
    err = capsys.readouterr().err
    assert "rebuilding ring cache for n=2" in err
    assert ring is get_ring(2)
    # the rebuild stored the ring's own file over the edited one
    assert hashlib.sha256(cache_path(2, tmp_path).read_bytes()).hexdigest() == STORED_DIGESTS[2]
    if case == "sign_flipped":
        # the warning names the first row that differs: the edited entry's
        xi = next(e for e in payload["products"] if e[2])[0]
        x = ring.basis[xi]
        assert f"cache row {xi}, of block ({x.row.pairs}, {x.col.pairs})," in err


# SHA-256 of each ring_n{n}.json in the row layout of schema 2
STORED_DIGESTS = {
    1: "529e0206dd1c5aa2dabf5d79a51eb6f517ca84c25f725e5f07091e349157ead2",
    2: "09fc67f9fc773c4d7f1326bf89f851948fd76ad012e228c37c2e790b8e0608d0",
    3: "29ed09f27f66ab0486c64e1104bd7135e25598f4bf19ff8f5a9a806782a667e4",
    4: "7d9d888f6a73b37fd9331d5735f7962ee33ad803c62b7b429e471db01981152b",
}


def _compact(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cache_file_bytes_are_pinned(tmp_path, n):
    # the streamed store writes the payload's row layout, one JSON
    # document that json.loads reads as the payload
    ring = get_ring(n)
    data = store_ring(ring, tmp_path).read_bytes()
    assert hashlib.sha256(data).hexdigest() == STORED_DIGESTS[n]
    assert data == _row_text(ring_to_payload(ring)).encode()
    assert json.loads(data) == ring_to_payload(ring)


def test_cache_streams_the_table(tmp_path):
    # neither a store nor a load holds a second copy of the n = 4 table,
    # nor a load the whole 1.3 MB text: the traced peak of each exceeds
    # what it leaves allocated by at most 3 MiB (a copy of the table
    # would be about 20 MiB); the store keeps no product memo
    limit = 3 * 2**20
    tracemalloc.start()
    try:
        ring = ArcRing(4)
        tracemalloc.reset_peak()
        store_ring(ring, tmp_path)
        kept, peak = tracemalloc.get_traced_memory()
        assert ring._products == {}
        assert peak - kept <= limit
        tracemalloc.reset_peak()
        loaded = load_ring(4, tmp_path)
        kept, peak = tracemalloc.get_traced_memory()
        assert peak - kept <= limit
    finally:
        tracemalloc.stop()
    assert len(loaded._products) <= cache.REVERIFIED
    assert _multiplied(loaded) == _multiplied(ring)


def _stream_text(case):
    """An n = 2 cache text that is wrong as case says."""
    payload = ring_to_payload(get_ring(2))
    text = _row_text(payload)
    tail = "\n" + text.splitlines(keepends=True)[-1]
    if case == "text_after_object":
        return text + "{}"
    if case == "products_before_order":
        order = json.dumps(payload["order"], separators=(",", ":"))
        text = text.replace(f',"order":{order}', "", 1)
        return text.replace(',"schema"', f',"order":{order},"schema"', 1)
    if case == "products_not_a_list":
        text = text.replace('"products":[', '"products":{"table":[', 1)
        return text.replace(tail, "\n]}" + tail[2:])
    if case == "products_missing":
        return text.replace('"products":[', '"table":[', 1)
    if case == "tail_missing":
        return text.replace(tail, "\n")
    if case == "row_comma_missing":
        return text.replace(",\n", "\n", 1)
    if case == "last_row_comma":
        return text.replace(tail, "," + tail)
    if case == "row_empty":
        return text.replace(",\n", ",\n,\n", 1)
    if case == "entry_too_long":
        payload["products"][0].append(0)
    elif case == "entry_not_a_list":
        # a string of three characters unpacks like a triple
        payload["products"][0] = "abc"
    return _row_text(payload)


@pytest.mark.parametrize(
    "case",
    [
        "text_after_object",
        "products_before_order",
        "products_not_a_list",
        "products_missing",
        "tail_missing",
        "row_comma_missing",
        "last_row_comma",
        "row_empty",
        "entry_too_long",
        "entry_not_a_list",
    ],
)
def test_cache_stream_rejects(tmp_path, capsys, case):
    text = _stream_text(case)
    cache_path(2, tmp_path).write_text(text)
    with pytest.raises(ValueError):
        load_ring(2, tmp_path)
    ring, status = load_or_build(2, tmp_path)
    assert status == "rebuilt"
    assert "rebuilding ring cache for n=2" in capsys.readouterr().err
    assert ring is get_ring(2)


def test_cache_load_refuses_other_layouts(tmp_path, capsys):
    # the same table in another layout, in the one-line layout of
    # schema 1, or with other line ends or trailing blanks on its row
    # lines, rebuilds with a warning; the stored text loads
    ring = get_ring(2)
    payload = ring_to_payload(ring)
    stored = _row_text(payload)
    for text in (
        json.dumps(payload, sort_keys=True, indent=2),
        " \t\r\n" + json.dumps(payload, sort_keys=True, separators=(" , ", " : ")) + " \n\n",
        _compact({**payload, "schema": 1}),
        stored.replace(",\n", ",\r\n"),
        stored.replace(",\n", ", \n"),
    ):
        cache_path(2, tmp_path).write_text(text)
        loaded, status = load_or_build(2, tmp_path)
        assert status == "rebuilt"
        assert "rebuilding ring cache for n=2" in capsys.readouterr().err
        assert loaded is ring
    cache_path(2, tmp_path).write_text(stored)
    loaded = load_ring(2, tmp_path)
    assert len(loaded._products) <= cache.REVERIFIED
    assert _multiplied(loaded) == _multiplied(ring)


def test_cache_header_read_is_bounded(tmp_path, capsys):
    # a one-line file, as schema 1 wrote, is refused after reading no
    # more of it than the longest valid header line
    payload = ring_to_payload(get_ring(2))
    text = _compact({**payload, "schema": 1, "pad": "x" * (4 << 20)})
    assert "\n" not in text[:-1]
    cache_path(2, tmp_path).write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="row layout"):
            load_ring(2, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    ring, status = load_or_build(2, tmp_path)
    assert status == "rebuilt"
    assert "rebuilding ring cache for n=2" in capsys.readouterr().err


def test_cache_header_limit_bounds_every_header():
    # the bounded header read takes the whole header of every n the ring
    # supports; every basis order of one n gives a header of one length
    # and n = MAX_RING_N gives the longest
    longest = len(cache._header(arc_ring.MAX_RING_N, enumerate_matchings(arc_ring.MAX_RING_N)))
    assert longest == 5442
    assert longest <= cache._HEADER_LIMIT
    for n in range(1, 5):
        order = list(get_ring(n).order)
        random.Random(n).shuffle(order)
        assert len(cache._header(n, order)) < longest


def test_cache_stream_matches_loads_property(tmp_path):
    # edited n = 2 texts: the load accepts one if and only if it is the
    # stored text, and then gives the ring's products
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ring = get_ring(2)
    base = store_ring(ring, tmp_path).read_text()
    path = cache_path(2, tmp_path)
    refused = set()

    @st.composite
    def edited(draw):
        text = base
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["replace", "delete", "space", "truncate"]))
            i = draw(st.integers(0, len(text)))
            if kind == "replace":
                char = draw(st.sampled_from('0123456789-.eE,:[]{}"ntf \n'))
                text = text[:i] + char + text[i + 1 :]
            elif kind == "delete":
                text = text[:i] + text[i + 1 :]
            elif kind == "space":
                text = text[:i] + draw(st.sampled_from(" \t\r\n")) + text[i:]
            else:
                text = text[:i]
        return text

    def check(text):
        path.write_text(text)
        try:
            loaded = load_ring(2, tmp_path)
        except ValueError:
            assert text != base
            refused.add(text)
            return
        assert text == base
        assert _multiplied(loaded) == _multiplied(ring)

    settings = hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    settings(hypothesis.given(edited())(check))()
    # the property is not vacuous: edits past the header line are
    # refused, and the stored text itself loads
    header = base[: base.index("\n") + 1]
    assert any(text.startswith(header) for text in refused)
    check(base)


def test_cache_sweeps_stale_temp_files(tmp_path):
    # a store removes the temp files of stores whose process is gone,
    # and keeps those of running processes, of other n and of names
    # that hold no pid
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait()
    running = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE
    )
    try:
        path = cache_path(2, tmp_path)
        dead = tmp_path / f"ring_n2.json.{exited.pid}.tmp"
        live = tmp_path / f"ring_n2.json.{running.pid}.tmp"
        kept = [
            live,
            tmp_path / f"ring_n3.json.{exited.pid}.tmp",
            tmp_path / "ring_n2.json.x.tmp",
            tmp_path / f"ring_n2.json.{2**80}.tmp",
        ]
        for tmp in [dead, *kept]:
            tmp.write_text("partial")
        store_ring(get_ring(2), tmp_path)
        assert not dead.exists()
        assert all(tmp.exists() for tmp in kept)
        assert path.exists()
    finally:
        running.stdin.close()
        running.wait()


def test_cache_pauses_gc_and_restores_it(tmp_path, monkeypatch):
    # walking the table, writing it and comparing it with the file run
    # with the cyclic collector off; its previous state comes back, also
    # after a failure
    seen = []
    real_rows = ArcRing.table_rows

    def rows(ring):
        for row in real_rows(ring):
            seen.append(gc.isenabled())
            yield row

    monkeypatch.setattr(ArcRing, "table_rows", rows)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            store_ring(get_ring(2), tmp_path)
            assert gc.isenabled() is enabled
            load_ring(2, tmp_path)
            assert gc.isenabled() is enabled
            payload = json.loads(cache_path(2, tmp_path).read_text())
            payload["products"][0][2] = [[0, 1.5]]
            cache_path(2, tmp_path).write_text(_row_text(payload))
            with pytest.raises(ValueError):
                load_ring(2, tmp_path)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # per state: the 12 rows stored, the 12 rows loaded, the bad first row
    assert seen == [False] * 2 * (12 + 12 + 1)


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    assert cache_path(3) == tmp_path / "ring_n3.json"
    monkeypatch.delenv(cache.ENV_VAR)
    assert str(cache_path(3)).endswith(".cache/arcring/ring_n3.json")


def test_cli_cache_commands(tmp_path, capsys):
    code, report, _ = run_json(
        capsys, ["cache", "store", "--n", "1", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert report["results"]["status"] == "stored"
    assert report["results"]["dimension"] == 2
    assert report["results"]["products"] == 4
    assert (tmp_path / "ring_n1.json").exists()

    code, report, _ = run_json(
        capsys, ["cache", "load", "--n", "1", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert report["results"]["status"] == "loaded"
    assert report["results"]["products"] == 4

    code, report, _ = run_json(
        capsys, ["cache", "load", "--n", "2", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert report["results"]["status"] == "built"
    assert report["results"]["products"] == 72


@pytest.mark.parametrize("action", ["store", "load"])
def test_cli_cache_refused_beyond_its_reach(tmp_path, capsys, monkeypatch, action):
    # a store or a load at n = 6 would walk 209,644,416 products: the
    # command exits 2 with an error line before it builds a ring or
    # touches the directory, and the library refuses it too
    built = []
    for module in (cli, cache):
        monkeypatch.setattr(module, "get_ring", lambda n: built.append(n))
    code, out, err = run_cli(capsys, ["cache", action, "--n", "6", "--cache-dir", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == "error: the cache supports n <= 5, not n = 6\n"
    for call in (
        lambda: load_ring(6, tmp_path),
        lambda: load_or_build(6, tmp_path),
        lambda: store_ring(SimpleNamespace(n=6), tmp_path),
    ):
        with pytest.raises(CapacityError):
            call()
    assert built == [] and list(tmp_path.iterdir()) == []
    assert cache.MAX_CACHE_N == 5


def test_cli_cache_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["cache", "store", "--n", "1", "--cache-dir", str(blocker)])
    captured = capsys.readouterr()
    assert code == 1
    assert "cache I/O failed" in captured.err
