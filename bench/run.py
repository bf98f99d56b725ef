"""arcring benchmark: time-to-verdict of whole CLI jobs, with a per-layer trace.

One run:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI job again and again for S seconds, one fresh
child interpreter at a time (one client, closed loop), checks every
report against values derived here (reference.py), and prints as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
job also runs under the outside-in tracer (tracer.py) and the metrics
are per layer.

A set of runs over every workload, pooled, with an environment stamp:
    python3 bench/run.py --set [--seeds 0,1,2] [--seconds S] [--out FILE]

See bench/README.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = 0
# Held out: use only to confirm a claim made on DEFAULT_SEED.
HELD_OUT_SEED = 7

# Import-only children spawned before each job, spreading the set-up
# samples over the run; topped up to SETUP_MIN_SAMPLES at the end.
PROBES_PER_JOB = 3
SETUP_MIN_SAMPLES = 15
# Every run must end well inside three minutes, whatever --seconds says.
RUN_CAP_S = 150.0
RESERVE_S = 10.0

CHECKS = ("ring", "center", "springer", "iso", "homotopy", "symmetric")

# ROADMAP baseline rows (single in-process runs, 2-vCPU sandbox).
ROADMAP_BASELINE_S = {"suite_n3": 9.0, "center_n4": 2.5}


@dataclass(frozen=True)
class Workload:
    n: int
    why: str
    checks: tuple = ()  # verify checks; empty for the cache job

    def argvs(self, seed: int, cache_dir: Path) -> list[list[str]]:
        common = ["--n", str(self.n), "--seed", str(seed)]
        if not self.checks:
            where = ["--cache-dir", str(cache_dir)]
            return [["cache", "store", *common, *where], ["cache", "load", *common, *where]]
        flags = ["--all"] if self.checks == CHECKS else [f"--{c}" for c in self.checks]
        return [["verify", *common, *flags]]


WORKLOADS = {
    "suite_n3": Workload(
        3,
        "full verify suite at the largest n the README promises; symmetric action and repeated HNF dominate",
        CHECKS,
    ),
    "center_n4": Workload(
        4,
        "center, Springer and presentation at n=4; real HNF/kernel/solve and the product memo dominate",
        ("center", "springer", "iso"),
    ),
    "table_n4": Workload(
        4,
        "store then load the full H_4 product table; surgery engine and cache I/O, no linear algebra",
    ),
}

# Per-layer counters that must read nonzero where the layer runs; a
# zero means a wrapper missed the calls (for example a binding made by
# `from .x import y` that was not patched).
EXPECTED_NONZERO = {
    "suite_n3": (
        "combinatorics.enumerate_matchings.calls",
        "arc_ring.multiply_basis.calls",
        "integer_linalg.hnf.calls",
        "integer_linalg.solve.calls",
        "integer_linalg.kernel.self_s",
        "presentations.reduce_to_admissible.calls",
        "center.act.calls",
        "braid_homotopy.module_mul.calls",
        "braid_homotopy.module_mul.computed",
        "braid_homotopy.saddle_maps.self_s",
        *(f"cli.check.{c}.s" for c in CHECKS),
    ),
    "center_n4": (
        "arc_ring.multiply_basis.calls",
        "arc_ring.multiply_basis.computed",
        "integer_linalg.hnf.calls",
        "integer_linalg.solve.calls",
        "integer_linalg.kernel.self_s",
        "integer_linalg.snf.self_s",
        "presentations.build_ideal_span.self_s",
        "presentations.reduce_to_admissible.calls",
        "presentations.quotient_graded_ranks.self_s",
        "center.center_basis.self_s",
        "center.presentation_map.self_s",
        "center.is_central.self_s",
        "cli.check.center.s",
        "cli.check.springer.s",
        "cli.check.iso.s",
    ),
    "table_n4": (
        "arc_ring.multiply_basis.calls",
        "arc_ring.multiply_basis.computed",
        "cache.store.self_s",
        "cache.store.bytes",
        "cache.load.s",
        "cache.load.bytes",
        "cli.render.s",
    ),
}

END_TO_END = {
    "time_to_verdict_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

LAYERS = (
    "combinatorics",
    "frobenius",
    "arc_ring",
    "integer_linalg",
    "presentations",
    "center",
    "braid_homotopy",
    "cache",
    "cli",
    "trace",
)


# -- one child invocation ----------------------------------------------------


@dataclass
class Invocation:
    setup_s: float = math.nan
    ttv_s: float = math.nan
    cpu_s: float = math.nan
    rss_kib: int = 0
    exit_code: int | None = None
    report: dict | None = None
    trace_file: Path | None = None
    error: str | None = None
    timed_out: bool = False


class Runner:
    """Spawns children one at a time inside a private scratch directory."""

    def __init__(self, tmp: Path, seed: int, deadline: float):
        self.tmp = tmp
        self.seed = seed
        self.deadline = deadline  # perf_counter value after which nothing new may start
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))

    def spawn(self, mode: str, argv: list[str], run_id: int = 0) -> Invocation:
        self.count += 1
        base = self.tmp / f"inv{self.count}"
        timing = base.with_suffix(".timing")
        out_path, err_path = base.with_suffix(".out"), base.with_suffix(".err")
        inv = Invocation()
        timeout = self.deadline + RESERVE_S - time.perf_counter()
        cmd = [sys.executable, str(CHILD), mode, str(timing), str(run_id), *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            status, usage = _wait(proc, timeout)
        if status is None:
            inv.timed_out = True
            inv.error = f"timed out after {timeout:.0f} s: {' '.join(argv)}"
            return inv
        inv.exit_code = os.waitstatus_to_exitcode(status)
        inv.cpu_s = usage.ru_utime + usage.ru_stime
        try:
            if mode == "trace":
                meta = tracer.read_meta(timing)
                inv.trace_file = timing
            else:
                meta = json.loads(timing.read_text())
        except (OSError, ValueError) as exc:
            inv.error = f"no timing record ({exc}): {err_path.read_text(errors='replace')[-500:]}"
            return inv
        inv.setup_s = meta["t_import"] - t_spawn
        if mode == "probe":
            return inv
        inv.ttv_s = meta["t_done"] - meta["t_import"]
        inv.rss_kib = meta["peak_rss_kib"]
        if inv.exit_code != 0:
            inv.error = f"exit {inv.exit_code}: {' '.join(argv)}"
            return inv
        try:
            inv.report = json.loads(out_path.read_text())
        except ValueError as exc:
            inv.error = f"unparsable report ({exc}): {' '.join(argv)}"
        return inv


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc with its resource usage; kill it after timeout seconds.

    Returns (None, None) on timeout.  If the wait is interrupted (for
    example by SIGTERM), the child is killed and reaped before the
    exception goes on.
    """
    limit = time.perf_counter() + max(timeout, 1.0)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage
            if time.perf_counter() > limit:
                break
            time.sleep(0.005)
    except BaseException:
        _kill(proc)
        raise
    _kill(proc)
    return None, None


def _kill(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGKILL)
    os.wait4(proc.pid, 0)
    proc.returncode = -signal.SIGKILL


# -- jobs ---------------------------------------------------------------------


@dataclass
class Job:
    invocations: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    trace: dict | None = None
    cache_bytes: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def ttv_s(self) -> float:
        return sum(inv.ttv_s for inv in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(inv.cpu_s for inv in self.invocations)

    @property
    def rss_kib(self) -> int:
        return max(inv.rss_kib for inv in self.invocations)


def run_job(runner: Runner, name: str, job_id: int, mode: str) -> Job:
    """One job of the workload; reference checks run after it, untimed."""
    wl = WORKLOADS[name]
    cache_dir = runner.tmp / f"cache{job_id}"
    job = Job()
    for argv in wl.argvs(runner.seed, cache_dir):
        inv = runner.spawn(mode, argv, job_id)
        job.invocations.append(inv)
        if inv.error:
            job.problems.append(inv.error)
            return job
    try:
        if wl.checks:
            job.problems += reference.check_verify(job.invocations[0].report, wl.n, list(wl.checks))
        else:
            store, load = (inv.report for inv in job.invocations)
            cache_file = cache_dir / f"ring_n{wl.n}.json"
            # the load neither rewrites nor removes the file the store wrote
            size = cache_file.stat().st_size
            job.cache_bytes = {"store": size, "load": size}
            job.problems += reference.check_table(store, load, wl.n, cache_file, runner.seed + job_id)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        job.problems.append(f"report does not have the expected shape: {exc!r}")
    except OSError as exc:
        job.problems.append(f"cache file unreadable: {exc}")
    if mode == "trace":
        try:
            job.trace = merge_traces([tracer.aggregate(inv.trace_file) for inv in job.invocations])
        except ValueError as exc:
            job.problems.append(f"trace: {exc}")
        for inv in job.invocations:
            inv.trace_file.unlink()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return job


def merge_traces(aggs: list[dict]) -> dict:
    """Sum the per-invocation trace aggregates of one job.

    Distinct HNF inputs and entry sizes do not add up across processes;
    the larger value is kept.
    """
    out = {"window_s": 0.0, "outside_s": 0.0, "counters": {}, "spans": {}}
    for agg in aggs:
        out["window_s"] += agg["window_s"]
        out["outside_s"] += agg["outside_s"]
        for key, value in agg["counters"].items():
            if key.endswith((".max_entry_bits", ".distinct_inputs")):
                out["counters"][key] = max(out["counters"].get(key, 0), value)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + value
        for name, rec in agg["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
    return out


def run_loop(
    runner: Runner, name: str, seconds: float, mode: str, first_id: int, probes_per_job: int = 0
) -> tuple[list[Job], list[Invocation]]:
    """Closed loop: jobs back to back until the next would overrun `seconds`.

    Spawns probes_per_job import-only children before each job and
    returns them as the second element.
    """
    jobs: list[Job] = []
    probes: list[Invocation] = []
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        t = time.perf_counter()
        probes += [runner.spawn("probe", []) for _ in range(probes_per_job)]
        jobs.append(run_job(runner, name, first_id + len(jobs), mode))
        walls.append(time.perf_counter() - t)
        now = time.perf_counter()
        if any(inv.timed_out for inv in jobs[-1].invocations):
            break
        if now - start + statistics.median(walls) > seconds or now > runner.deadline:
            break
    return jobs, probes


# -- metrics -----------------------------------------------------------------


def high_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it."""
    k = len(samples)
    if k < 11:
        return None
    ordered = sorted(samples)
    idx = k - 11
    return f"p{math.floor(100 * (idx + 1) / k)}", ordered[idx]


def end_to_end(jobs: list[Job], setups: list[float]) -> tuple[dict, dict]:
    """Metrics of an untraced run, and the samples behind them."""
    timed = [j for j in jobs if not math.isnan(j.ttv_s)]
    samples = {
        "time_to_verdict_s": [j.ttv_s for j in timed],
        "cpu_s": [j.cpu_s for j in timed],
        "setup_s": setups,
    }
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    rss = [j.rss_kib for j in timed]
    if rss:
        values["peak_rss_mib"] = max(rss) / 1024
        samples["peak_rss_mib"] = [r / 1024 for r in rss]
    return values, samples


def per_layer(name: str, traced: list[Job], untraced: list[Job]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the self-check problems."""
    problems: list[str] = []
    per_job = [layer_values(j) for j in traced]
    counts = [{k: v for k, v in d.items() if unit_of(k) not in ("s", "1/s")} for d in per_job]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts))
        problems.append(f"counts differ between traced jobs: {diff}")
    values = {k: statistics.median(d[k] for d in per_job) for k in per_job[0]}
    values.update(counts[0])
    values["trace.overhead_s"] = values["trace.time_to_verdict_s"] - statistics.median(
        j.ttv_s for j in untraced
    )
    for key in EXPECTED_NONZERO[name]:
        if not values.get(key):
            problems.append(f"per-layer counter {key} reads zero on {name}")
    for d in per_job:
        total = sum(d[f"layer.{layer}.self_s"] for layer in LAYERS) + d["trace.outside_s"]
        if abs(total - d["trace.time_to_verdict_s"]) > 1e-6 * max(1.0, total):
            problems.append(f"layer self times + outside = {total}, window = {d['trace.time_to_verdict_s']}")
    return values, problems


def layer_values(job: Job) -> dict:
    tr = job.trace
    spans, counters = tr["spans"], tr["counters"]

    def span(key: str, what: str) -> float:
        return spans.get(key, {}).get(what, 0)

    v: dict = {
        "combinatorics.enumerate_matchings.calls": span("combinatorics.enumerate_matchings", "calls"),
    }
    calls = span("arc_ring.multiply_basis", "calls")
    self_s = span("arc_ring.multiply_basis", "self_s")
    computed = counters.get("arc_ring.multiply_basis.computed", 0)
    v["arc_ring.multiply_basis.calls"] = calls
    v["arc_ring.multiply_basis.computed"] = computed
    v["arc_ring.multiply_basis.hit_ratio"] = (
        counters.get("arc_ring.multiply_basis.hits", 0) / calls if calls else 0.0
    )
    v["arc_ring.multiply_basis.self_s"] = self_s
    v["arc_ring.products_per_s"] = computed / self_s if self_s else 0.0
    v["integer_linalg.hnf.calls"] = span("integer_linalg.hnf", "calls")
    for key in ("distinct_inputs", "cells", "max_entry_bits"):
        v[f"integer_linalg.hnf.{key}"] = counters.get(f"integer_linalg.hnf.{key}", 0)
    v["integer_linalg.hnf.self_s"] = span("integer_linalg.hnf", "self_s")
    v["integer_linalg.solve.calls"] = span("integer_linalg.solve", "calls")
    v["integer_linalg.solve.self_s"] = span("integer_linalg.solve", "self_s")
    v["integer_linalg.kernel.self_s"] = span("integer_linalg.kernel", "self_s")
    v["integer_linalg.snf.self_s"] = span("integer_linalg.snf", "self_s")
    v["presentations.build_ideal_span.self_s"] = span("presentations.build_ideal_span", "self_s")
    v["presentations.reduce_to_admissible.calls"] = span("presentations.reduce_to_admissible", "calls")
    v["presentations.reduce_to_admissible.self_s"] = span("presentations.reduce_to_admissible", "self_s")
    v["presentations.quotient_graded_ranks.self_s"] = span("presentations.quotient_graded_ranks", "self_s")
    for fn in ("center_basis", "presentation_map", "is_central"):
        v[f"center.{fn}.self_s"] = span(f"center.{fn}", "self_s")
    v["center.act.calls"] = span("center.act", "calls")
    v["center.act.self_s"] = span("center.act", "self_s")
    v["braid_homotopy.module_mul.calls"] = span("braid_homotopy.module_mul", "calls")
    v["braid_homotopy.module_mul.computed"] = counters.get("braid_homotopy.module_mul.computed", 0)
    v["braid_homotopy.module_mul.self_s"] = span("braid_homotopy.module_mul", "self_s")
    v["braid_homotopy.saddle_maps.self_s"] = span("braid_homotopy.saddle_maps", "self_s")
    v["cache.store.self_s"] = span("cache.store", "self_s")
    v["cache.store.bytes"] = job.cache_bytes.get("store", 0)
    v["cache.load.s"] = span("cache.load", "inclusive_s")
    v["cache.load.bytes"] = job.cache_bytes.get("load", 0)
    for check in CHECKS:
        v[f"cli.check.{check}.s"] = span(f"cli.check.{check}", "inclusive_s")
    v["cli.render.s"] = span("cli.render", "inclusive_s")
    for layer in LAYERS:
        v[f"layer.{layer}.self_s"] = sum(
            rec["self_s"] for key, rec in spans.items() if key.split(".", 1)[0] == layer
        )
    v["trace.spans"] = sum(rec["calls"] for rec in spans.values())
    v["trace.outside_s"] = tr["outside_s"]
    v["trace.time_to_verdict_s"] = tr["window_s"]
    return v


PER_LAYER_UNITS = {
    ".calls": "count",
    ".computed": "count",
    ".distinct_inputs": "count",
    ".cells": "count",
    ".spans": "count",
    ".max_entry_bits": "bits",
    ".hit_ratio": "ratio",
    ".bytes": "bytes",
    "per_s": "1/s",
    "_s": "s",
    ".s": "s",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


# -- one run -------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object plus its raw samples."""
    t0 = time.perf_counter()
    scratch = ROOT / ".bench_tmp"
    tmp = scratch / f"run{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(tmp, seed, t0 + RUN_CAP_S - RESERVE_S)
        if trace:
            untraced, _ = run_loop(runner, name, seconds / 3, "run", 0)
            left = seconds - (time.perf_counter() - t0)
            traced, _ = run_loop(runner, name, left, "trace", len(untraced))
            jobs = untraced + traced
            problems = [p for j in jobs for p in j.problems]
            ok = [j for j in traced if not j.failed]
            if ok and not any(j.failed for j in untraced):
                metrics, checks = per_layer(name, ok, untraced)
                problems += checks
            else:
                metrics = {}
            samples = {}
        else:
            jobs, probes = run_loop(runner, name, seconds, "run", 0, PROBES_PER_JOB)
            while len(probes) + sum(len(j.invocations) for j in jobs) < SETUP_MIN_SAMPLES:
                probes.append(runner.spawn("probe", []))
            problems = [p for j in jobs for p in j.problems]
            problems += [inv.error for inv in probes if inv.error]
            setups = [inv.setup_s for inv in probes + [i for j in jobs for i in j.invocations]]
            metrics, samples = end_to_end(jobs, [v for v in setups if not math.isnan(v)])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    failed = sum(1 for j in jobs if j.failed)
    return {
        "correct": not problems and bool(metrics),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "problems": problems,
        "samples": samples,
    }


def print_run(name: str, seed: int, result: dict) -> None:
    print(f"workload {name} seed {seed}: {result['attempted']} jobs, {result['failed']} failed"
          f" (fail_ratio {result['failed']}/{result['attempted']} jobs)")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    for metric, rec in result["metrics"].items():
        line = f"  {metric:48s} {rec['value']:.6g} {rec['unit']}"
        if metric in result["samples"]:
            values = result["samples"][metric]
            hp = high_percentile(values)
            how = "max" if metric == "peak_rss_mib" else "median"
            line += f"  ({how} of {len(values)})" + (f"  {hp[0]} {hp[1]:.6g}" if hp else "")
        print(line)


# -- a set of runs --------------------------------------------------------------


def environment() -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "loadavg": loadavg,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_set(seeds: list[int], seconds: float, out: Path | None) -> int:
    """Every workload on every seed, pooled; one traced run per workload."""
    env_before = environment()
    summary: dict = {"environment_before": env_before, "seconds": seconds, "seeds": seeds, "workloads": {}}
    print(f"environment before: {json.dumps(env_before)}")
    all_ok = True
    for name in WORKLOADS:
        pooled: dict[str, list[float]] = {}
        runs, attempted, failed = [], 0, 0
        for seed in seeds:
            res = run(name, seed, seconds, trace=False)
            print_run(name, seed, res)
            all_ok &= res["correct"]
            attempted, failed = attempted + res["attempted"], failed + res["failed"]
            runs.append({"seed": seed, **{k: v["value"] for k, v in res["metrics"].items()}})
            for metric, vals in res["samples"].items():
                pooled.setdefault(metric, []).extend(vals)
        traced = run(name, seeds[0], seconds, trace=True)
        all_ok &= traced["correct"]
        for problem in traced["problems"]:
            print(f"  PROBLEM (traced) {problem}")
        summary["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "runs": runs,
            "fail_ratio": {"failed": failed, "attempted": attempted, "base": "jobs"},
            "pooled": {m: pooled_stats(m, v) for m, v in pooled.items()},
            "per_run_median_spread": {
                m: spread([r[m] for r in runs if m in r]) for m in END_TO_END
            },
            "trace": {"seed": seeds[0], **{k: v["value"] for k, v in traced["metrics"].items()}},
        }
    summary["environment_after"] = environment()
    print(f"environment after: {json.dumps(summary['environment_after'])}")
    print_set(summary)
    if out is not None:
        out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all_ok else 1


def pooled_stats(metric: str, values: list[float]) -> dict:
    rec = {"unit": unit_of(metric), "samples": len(values), "median": statistics.median(values)}
    hp = high_percentile(values)
    if hp:
        rec[hp[0]] = hp[1]
    return rec


def spread(values: list[float]) -> float | None:
    """Interquartile distance of per-run medians as a share of their median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_set(summary: dict) -> None:
    print()
    print(f"{'workload':10s} {'metric':18s} {'median':>10s} {'unit':4s} {'high pct':>16s} {'samples':>7s} {'IQR/med':>8s}")
    for name, wl in summary["workloads"].items():
        for metric in END_TO_END:
            rec = wl["pooled"].get(metric)
            if rec is None:
                continue
            hp = next(((k, v) for k, v in rec.items() if k.startswith("p")), None)
            hp_text = f"{hp[0]} {hp[1]:.4g}" if hp else "n/a"
            sp = wl["per_run_median_spread"].get(metric)
            sp_text = f"{sp:.3f}" if sp is not None else "n/a"
            print(f"{name:10s} {metric:18s} {rec['median']:10.4g} {rec['unit']:4s} {hp_text:>16s}"
                  f" {rec['samples']:7d} {sp_text:>8s}")
        fr = wl["fail_ratio"]
        print(f"{name:10s} {'fail_ratio':18s} {fr['failed'] / fr['attempted']:10.4g}"
              f" ({fr['failed']}/{fr['attempted']} {fr['base']})")
        t = wl["trace"]
        print(f"{name:10s} trace overhead {t.get('trace.overhead_s', math.nan):.3f} s on"
              f" {t.get('trace.time_to_verdict_s', math.nan):.3f} s traced")
        if name in ROADMAP_BASELINE_S:
            med = wl["pooled"]["time_to_verdict_s"]["median"]
            base = ROADMAP_BASELINE_S[name]
            print(f"{name:10s} time_to_verdict_s median {med:.3f} s vs ROADMAP baseline {base} s"
                  f" (ratio {med / base:.3f})")


# -- command line ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--set", action="store_true", help="run every workload on every seed, pooled")
    p.add_argument(
        "--seeds",
        default=f"{DEFAULT_SEED}",
        help=f"comma-separated seeds for --set; keep {HELD_OUT_SEED} back to confirm claims",
    )
    p.add_argument("--out", type=Path, help="write the --set summary as JSON here")
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and
    # the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "arcring" / "cli.py").is_file():
        print(f"error: no arcring sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.set:
        return run_set([int(s) for s in args.seeds.split(",")], args.seconds, args.out)
    if args.workload is None:
        p.error("--workload is required unless --set is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(args.workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
