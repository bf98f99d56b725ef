"""Outside-in tracing of the arcring package, used only by traced runs.

Nothing under ``src/`` knows about this module.  After ``arcring.cli``
has been imported, :func:`install` replaces every public function of
every ``arcring.*`` module with a wrapper that records a span, and does
so in *every* module that binds the function: ``from .x import y``
copies the function object into the importing module, so patching only
the defining module would silently miss those calls.  A few methods
that carry the hot paths are patched on their class.

A span is (name, parent span, start, end).  Spans live in flat arrays
in memory and are written out once, when the traced invocation ends;
the benchmark process aggregates them (see :func:`aggregate`).  Every
span of one invocation shares that invocation's run id.

Some wrappers also keep counters at the same boundary: memo hits and
misses for the surgery products, and input shape, distinctness and
entry size for the Hermite normal form.  Expensive bookkeeping runs in
its own ``trace.bookkeeping`` span so it is not charged to a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# Span names used by the benchmark's per-layer metrics.  Functions not
# listed here are named "<module>.<function>".
ALIASES = {
    "arc_ring.ArcRing.multiply_basis": "arc_ring.multiply_basis",
    "integer_linalg.hermite_normal_form": "integer_linalg.hnf",
    "integer_linalg.solve_in_column_span": "integer_linalg.solve",
    "integer_linalg.kernel_basis": "integer_linalg.kernel",
    "integer_linalg.smith_normal_form": "integer_linalg.snf",
    "center.CenterPresentation.act": "center.act",
    "braid_homotopy.UiBimodule.left_mul_basis": "braid_homotopy.module_mul",
    "braid_homotopy.UiBimodule.right_mul_basis": "braid_homotopy.module_mul",
    "braid_homotopy.UiBimodule.alpha_basis": "braid_homotopy.saddle_maps",
    "braid_homotopy.UiBimodule.beta_basis": "braid_homotopy.saddle_maps",
    "cache.store_ring": "cache.store",
    "cache.ring_to_payload": "cache.store",
    "cache.load_ring": "cache.load",
    "cache.payload_to_ring": "cache.load",
    "cli.check_ring": "cli.check.ring",
    "cli.check_center": "cli.check.center",
    "cli.check_springer": "cli.check.springer",
    "cli.check_iso": "cli.check.iso",
    "cli.check_homotopy": "cli.check.homotopy",
    "cli.check_symmetric": "cli.check.symmetric",
    "cli.render_report": "cli.render",
}

# Methods patched on their class: (module, class, method).
METHODS = (
    ("arc_ring", "ArcRing", "multiply_basis"),
    ("braid_homotopy", "UiBimodule", "left_mul_basis"),
    ("braid_homotopy", "UiBimodule", "right_mul_basis"),
    ("braid_homotopy", "UiBimodule", "alpha_basis"),
    ("braid_homotopy", "UiBimodule", "beta_basis"),
    ("center", "CenterPresentation", "act"),
)

# cli.main is the traced invocation itself; its interval is the
# time-to-verdict window, so it gets no span of its own.
NOT_WRAPPED = {"cli.main"}

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span arrays and counters of one traced invocation."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._hnf_inputs: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, pre=None, post=None):
        """fn wrapped in a span; pre(args, kwargs) runs before it, post after."""
        nid = self.name_id(name)
        bid = self.name_id(BOOKKEEPING)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(sid)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if post is not None:
                bsid = len(starts)
                names.append(bid)
                parents.append(stack[-1])
                ends.append(0.0)
                starts.append(clock())
                post(args, result)
                ends[bsid] = clock()
            return result

        return traced

    # -- counters kept at the layer boundaries ----------------------------

    def _memo_pre(self, layer: str, memo_attr: str):
        """Count memo hits and computed products before the call runs.

        Fits ``obj.method(u, v[, arc_order])`` whose memo is keyed (u, v)
        and which returns () at once unless u.col == v.row.  A call with
        an explicit arc_order bypasses the memo and always computes.
        """
        counters = self.counters
        hit_key, computed_key = f"{layer}.hits", f"{layer}.computed"
        counters.setdefault(hit_key, 0)
        counters.setdefault(computed_key, 0)

        def pre(args, kwargs):
            obj, u, v = args[0], args[1], args[2]
            if u.col != v.row:
                return
            forced = (args[3] if len(args) > 3 else kwargs.get("arc_order")) is not None
            if not forced and (u, v) in getattr(obj, memo_attr):
                counters[hit_key] += 1
            else:
                counters[computed_key] += 1

        return pre

    def _hnf_post(self, args, result) -> None:
        m = args[0]
        self.counters["integer_linalg.hnf.cells"] += m.rows * m.cols
        self._hnf_inputs.add((m.rows, m.cols, tuple(map(tuple, m.data))))
        self.counters["integer_linalg.hnf.distinct_inputs"] = len(self._hnf_inputs)
        bits = max(
            (abs(v).bit_length() for mat in result for row in mat.data for v in row),
            default=0,
        )
        key = "integer_linalg.hnf.max_entry_bits"
        self.counters[key] = max(self.counters[key], bits)

    def install(self) -> None:
        """Patch every binding of every public arcring function."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("arcring.") and mod is not None
        }
        hooks = {
            "integer_linalg.hermite_normal_form": (None, self._hnf_post),
            "arc_ring.ArcRing.multiply_basis": (
                self._memo_pre("arc_ring.multiply_basis", "_products"),
                None,
            ),
            "braid_homotopy.UiBimodule.left_mul_basis": (
                self._memo_pre("braid_homotopy.module_mul", "_left"),
                None,
            ),
            "braid_homotopy.UiBimodule.right_mul_basis": (
                self._memo_pre("braid_homotopy.module_mul", "_right"),
                None,
            ),
        }
        self.counters.setdefault("integer_linalg.hnf.cells", 0)
        self.counters.setdefault("integer_linalg.hnf.distinct_inputs", 0)
        self.counters.setdefault("integer_linalg.hnf.max_entry_bits", 0)

        wrapped: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                qual = f"{short}.{attr}"
                if qual in NOT_WRAPPED:
                    continue
                pre, post = hooks.get(qual, (None, None))
                wrapped[id(obj)] = (obj, self.wrap(obj, ALIASES.get(qual, qual), pre, post))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[f"arcring.{short}"], cls_name)
            qual = f"{short}.{cls_name}.{meth}"
            pre, post = hooks.get(qual, (None, None))
            setattr(cls, meth, self.wrap(getattr(cls, meth), ALIASES.get(qual, qual), pre, post))

    def write(self, path: str, header: dict) -> None:
        """Write the spans and counters of this invocation to path."""
        meta = dict(header)
        meta.update(
            run_id=self.run_id,
            names=self.names,
            counters=self.counters,
            spans=len(self.span_start),
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def read_meta(path) -> dict:
    """The header line of a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def read(path: str) -> tuple[dict, array, array, array, array]:
    """Read back what :meth:`Tracer.write` wrote."""
    with open(path, "rb") as fh:
        meta = json.loads(fh.readline())
        k = meta["spans"]
        out = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, k)
            out.append(arr)
    return (meta, *out)


def aggregate(path: str) -> dict:
    """Per-span-name totals of one traced invocation.

    Returns {"window_s", "outside_s", "counters", "spans": {name: {"calls",
    "self_s", "inclusive_s"}}}.  Self time is a span's duration minus the
    durations of its children; children never overlap because the
    program is single-threaded.  Inclusive time counts only the outermost
    span of a name, so recursion is not counted twice.  Raises
    ValueError if a span is not nested inside its parent or the window.
    """
    meta, name, parent, start, end = read(path)
    t0, t1 = meta["t_import"], meta["t_done"]
    names = meta["names"]
    k = len(names)
    calls = [0] * k
    self_s = [0.0] * k
    inclusive = [0.0] * k
    top_total = 0.0
    # Spans are stored in start order, so parents precede children and a
    # stack of open ancestors can be rebuilt on the way.
    ancestors: list[int] = []
    open_count = [0] * k
    for i in range(len(start)):
        s, e, nid, p = start[i], end[i], name[i], parent[i]
        dur = e - s
        if dur < 0:
            raise ValueError(f"span {i} ({names[nid]}) ends before it starts")
        calls[nid] += 1
        self_s[nid] += dur
        if p < 0:
            if s < t0 or e > t1:
                raise ValueError(f"span {i} ({names[nid]}) lies outside the window")
            top_total += dur
        else:
            if s < start[p] or e > end[p]:
                raise ValueError(f"span {i} ({names[nid]}) escapes its parent")
            self_s[name[p]] -= dur
        while ancestors and ancestors[-1] != p:
            open_count[name[ancestors.pop()]] -= 1
        if open_count[nid] == 0:
            inclusive[nid] += dur
        ancestors.append(i)
        open_count[nid] += 1
    return {
        "run_id": meta["run_id"],
        "window_s": t1 - t0,
        "outside_s": (t1 - t0) - top_total,
        "counters": meta["counters"],
        "spans": {
            names[j]: {"calls": calls[j], "self_s": self_s[j], "inclusive_s": inclusive[j]}
            for j in range(k)
        },
    }
