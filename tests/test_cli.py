"""Command-line reports, exit codes, output formats, and the ring cache.

Determinism is the load-bearing property: the same invocation must give
byte-identical stdout, and a stored ring must reload into the same
product table it was saved from.
"""

import csv
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from arcring import cache, cli
from arcring.arc_ring import ArcRing, get_ring
from arcring.cache import (
    cache_path,
    load_or_build,
    load_ring,
    payload_to_ring,
    ring_to_payload,
    store_ring,
)
from arcring.cli import main, render_report


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
        def check(n, seed=0):
            seen[name] = seed
            return {"passed": True}

        return check

    monkeypatch.setattr(cli, "verify_presentation_iso", fake("iso"))
    monkeypatch.setattr(cli, "verify_symmetric_action", fake("symmetric"))
    argv = ["verify", "--n", "2", "--iso", "--symmetric", "--seed", "7"]
    code, report, _ = run_json(capsys, argv)
    assert code == 0
    assert seen == {"iso": 7, "symmetric": 7}


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


def _sorted_payload(ring):
    """The payload built the old way, as the reference for index space.

    Every product is sorted by the basis indexes of its factors, and
    each term's vector is looked up in ring.index.
    """
    by_row = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    for x in ring.basis:
        for y in by_row[x.col]:
            ring.multiply_basis(x, y)
    products = [
        [ring.index[x], ring.index[y], [[ring.index[z], c] for z, c in terms]]
        for (x, y), terms in sorted(
            ring._products.items(), key=lambda kv: (ring.index[kv[0][0]], ring.index[kv[0][1]])
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
        payload = ring_to_payload(ArcRing(n, order))
        assert payload == _sorted_payload(ArcRing(n, order))
        # a loaded ring stores the same payload and the same bytes again,
        # from its product memo, without building a cobordism key or row
        built = (len(cobordism_keys), len(cobordism_rows))
        path = store_ring(payload_to_ring(payload), tmp_path)
        first = path.read_bytes()
        loaded = load_ring(n, tmp_path)
        assert len(loaded._products) == len(payload["products"])
        assert ring_to_payload(loaded) == payload
        assert store_ring(loaded, tmp_path).read_bytes() == first
        assert (len(cobordism_keys), len(cobordism_rows)) == built


@pytest.mark.parametrize("step", ["write", "replace"])
def test_cache_store_is_atomic(tmp_path, monkeypatch, step):
    # a store that fails partway leaves the old file and no temp file
    path = cache_path(2, tmp_path)
    path.write_text("previous cache contents\n")
    before = path.read_bytes()

    def torn_write(self, text):
        with open(self, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    if step == "write":
        monkeypatch.setattr(cache.Path, "write_text", torn_write)
    else:
        monkeypatch.setattr(cache.os, "replace", failing_replace)
    with pytest.raises(OSError):
        store_ring(get_ring(2), tmp_path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


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


def test_cache_schema_bump_rejected(tmp_path, capsys):
    ring = get_ring(1)
    payload = ring_to_payload(ring)
    payload["schema"] = 99
    path = cache_path(1, tmp_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
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
    # an n = 1 ring filed as n = 2 is rejected without decoding a product
    path = cache_path(2, tmp_path)
    path.write_text(json.dumps(ring_to_payload(get_ring(1))))

    def decode(payload):
        raise AssertionError("products decoded before the n check")

    monkeypatch.setattr(cache, "payload_to_ring", decode)
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
    ],
)
def test_cache_rejects_untrusted_entries(tmp_path, capsys, case):
    payload = _tamper(case)
    with pytest.raises(ValueError):
        payload_to_ring(payload)
    cache_path(2, tmp_path).write_text(json.dumps(payload))
    ring, status = load_or_build(2, tmp_path, store=False)
    assert status == "rebuilt"
    assert "rebuilding ring cache for n=2" in capsys.readouterr().err
    assert ring is get_ring(2)


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
    # building, encoding and decoding the table run with the cyclic
    # collector off; its previous state comes back, also after a failure
    seen = []
    real_to, real_from = cache.ring_to_payload, cache.payload_to_ring

    def to_payload(ring):
        seen.append(gc.isenabled())
        return real_to(ring)

    def from_payload(payload):
        seen.append(gc.isenabled())
        return real_from(payload)

    monkeypatch.setattr(cache, "ring_to_payload", to_payload)
    monkeypatch.setattr(cache, "payload_to_ring", from_payload)
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
            cache_path(2, tmp_path).write_text(json.dumps(payload))
            with pytest.raises(ValueError):
                load_ring(2, tmp_path)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False] * 6


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
    assert (tmp_path / "ring_n1.json").exists()

    code, report, _ = run_json(
        capsys, ["cache", "load", "--n", "1", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert report["results"]["status"] == "loaded"

    code, report, _ = run_json(
        capsys, ["cache", "load", "--n", "2", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert report["results"]["status"] == "built"


def test_cli_cache_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["cache", "store", "--n", "1", "--cache-dir", str(blocker)])
    captured = capsys.readouterr()
    assert code == 1
    assert "cache I/O failed" in captured.err
