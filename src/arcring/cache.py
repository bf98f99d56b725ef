"""On-disk cache of built rings with their full product tables.

A cached ring is one JSON document: a schema stamp, the basis order,
and every composable basis product keyed by basis indices.  The
payload visits the composable pairs in basis-index order and takes
each product from ArcRing.multiply_basis, so the file holds exactly
what the ring's product memo holds (a ring loaded from a file stores
its own products back without recomputing them), and no product is
sorted.  Writing is deterministic (sorted keys, index-ordered
products), so store/load/store round-trips byte-identically, and
atomic (a temp file, then os.replace); a store also removes the temp
files that earlier stores of the same n left behind when their process
died before the replace.  A missing file means build silently; an
unreadable or wrong-schema file, a file for another n, or a table that
is not canonical (an entry count other than the number of composable
pairs, a pair listed twice, an index outside the basis, a term outside
its product's block, terms not strictly increasing by index, a
coefficient that is zero or not an int) means rebuild with a warning
on stderr.

The decoded table is a few hundred thousand tuples and lists with no
reference cycles, so building or decoding it would only trigger
collector passes that find nothing; store_ring and load_ring pause the
cyclic garbage collector around that work and restore its state after.

The cache directory comes from, in order: an explicit argument, the
ARCRING_CACHE_DIR environment variable, ~/.cache/arcring.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .arc_ring import ArcRing, get_ring
from .combinatorics import Matching

SCHEMA_VERSION = 1
ENV_VAR = "ARCRING_CACHE_DIR"


def cache_dir(directory: str | os.PathLike | None = None) -> Path:
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "arcring"


def cache_path(n: int, directory: str | os.PathLike | None = None) -> Path:
    return cache_dir(directory) / f"ring_n{n}.json"


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its previous state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def ring_to_payload(ring: ArcRing) -> dict:
    """A complete, deterministic JSON description of the ring.

    Products come in (x index, y index) order: x over the basis, y over
    the basis vectors in row x.col, which lie in basis order already.
    """
    basis, index = ring.basis, ring.index
    by_row: dict = {}
    for yi, y in enumerate(basis):
        by_row.setdefault(y.row, []).append((yi, y))
    products = []
    for xi, x in enumerate(basis):
        for yi, y in by_row[x.col]:
            terms = ring.multiply_basis(x, y)
            products.append([xi, yi, [[index[z], c] for z, c in terms]])
    return {
        "schema": SCHEMA_VERSION,
        "n": ring.n,
        "order": [[list(arc) for arc in m.pairs] for m in ring.order],
        "products": products,
    }


def payload_to_ring(payload: dict) -> ArcRing:
    """Rebuild a ring from its payload; raises ValueError when unusable.

    Only a canonical table is accepted: one entry per composable pair
    of basis vectors, each index inside range(dimension), the terms of a
    product inside block (x.row, y.col), strictly increasing by index,
    with nonzero coefficients that are exactly ints.  The entry count
    is checked first; a pair listed twice leaves the product memo short
    of it.  Each entry is hashed once, at its insert into the memo.
    """
    if not isinstance(payload, dict):
        raise ValueError("cache payload is not an object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"cache schema {payload.get('schema')!r} does not match {SCHEMA_VERSION}"
        )
    try:
        n = payload["n"]
        order = [
            Matching([tuple(arc) for arc in pairs]) for pairs in payload["order"]
        ]
        ring = ArcRing(n, order)
        basis, memo, dim = ring.basis, ring._products, ring.dimension
        entries = payload["products"]
        dims = ring.block_dims
        composable = sum(
            sum(dims[c, b] for c in ring.order) * sum(dims[b, a] for a in ring.order)
            for b in ring.order
        )
        if len(entries) != composable:
            raise ValueError(
                f"cache holds {len(entries)} products, not the {composable} composable pairs"
            )
        for xi, yi, terms in entries:
            if not (0 <= xi < dim and 0 <= yi < dim):
                raise ValueError(f"cached product index {xi} or {yi} is out of range")
            x, y = basis[xi], basis[yi]
            # basis vectors share the ring's Matching objects
            if x.col is not y.row:
                raise ValueError("cached product joins non-composable vectors")
            product = []
            last = -1
            for zi, c in terms:
                if not last < zi < dim:
                    raise ValueError(
                        f"cached term index {zi} is out of range or out of order"
                    )
                last = zi
                z = basis[zi]
                if z.row is not x.row or z.col is not y.col:
                    raise ValueError(f"cached term {zi} lies outside its product's block")
                if type(c) is not int or c == 0:
                    raise ValueError(f"cached coefficient {c!r} is not a nonzero int")
                product.append((z, c))
            memo[x, y] = tuple(product)
        if len(memo) != len(entries):
            raise ValueError("cache lists a product pair more than once")
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed ring cache: {exc}") from exc
    return ring


def _sweep_stale_temps(path: Path) -> None:
    """Remove the temp files of stores of path whose process no longer runs.

    A temp file is named after the pid of the store writing it.  Signal
    0 sends nothing; it only asks whether that pid still runs.  On
    Windows os.kill(pid, 0) would send CTRL_C_EVENT, so nothing is
    swept there.
    """
    if os.name != "posix":
        return
    for tmp in path.parent.glob(f"{path.name}.*.tmp"):
        pid = tmp.name[len(path.name) + 1 : -len(".tmp")]
        if not pid.isdecimal() or int(pid) <= 0:
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            tmp.unlink(missing_ok=True)
        except (PermissionError, OverflowError):
            # the pid runs under another user, or is no pid at all
            pass


def store_ring(ring: ArcRing, directory: str | os.PathLike | None = None) -> Path:
    """Write the ring's cache file atomically.

    The text goes to a temporary file beside the target, which then
    replaces the target in one step, so an interrupted store leaves
    either the old file or the new one, never a torn one.  Temp files
    that stores killed before their replace left behind are removed
    first; those of stores still running are kept.
    """
    path = cache_path(ring.n, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_temps(path)
    with _gc_paused():
        text = json.dumps(ring_to_payload(ring), sort_keys=True, separators=(",", ":"))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_ring(n: int, directory: str | os.PathLike | None = None) -> ArcRing:
    """Load a cached ring; FileNotFoundError if absent, ValueError if bad.

    The stored n is checked before any product is decoded.
    """
    path = cache_path(n, directory)
    text = path.read_text()
    with _gc_paused():
        payload = json.loads(text)
        if isinstance(payload, dict) and payload.get("n") != n:
            raise ValueError(
                f"cache file for n={n} actually contains n={payload.get('n')!r}"
            )
        return payload_to_ring(payload)


def load_or_build(
    n: int, directory: str | os.PathLike | None = None, store: bool = True
) -> tuple[ArcRing, str]:
    """The ring for n, from cache when possible.

    Returns (ring, status) with status one of "loaded", "built" (no
    cache file existed), "rebuilt" (cache file existed but was
    unusable; a warning goes to stderr).
    """
    try:
        return load_ring(n, directory), "loaded"
    except FileNotFoundError:
        status = "built"
    except ValueError as exc:
        print(f"warning: rebuilding ring cache for n={n}: {exc}", file=sys.stderr)
        status = "rebuilt"
    ring = get_ring(n)
    if store:
        store_ring(ring, directory)
    return ring, status
