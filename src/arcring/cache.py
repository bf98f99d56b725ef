"""On-disk cache of built rings with their full product tables.

A cached ring is one JSON document: a schema stamp, the basis order,
and every composable basis product keyed by basis indices.  The walk
of that table belongs to ArcRing: its table_rows reads it off the
cobordism kernels, so a store multiplies no basis pair, fills no
product memo and sorts no product.  Writing is deterministic (sorted
keys, index-ordered products), so the file is a function of n and the
basis order alone, and atomic (a temp file, then os.replace); a store
also removes the temp files that earlier stores of the same n left
behind when their process died before the replace.

The document is laid out one basis vector's row of products per line:
a header line {"n":N,"order":[...],"products":[, then one line per
row holding its entries comma-joined and ending in a comma unless it is
the last, then the tail line ],"schema":2}.  Elsewhere the text is
compact, as json.dumps(..., separators=(",", ":")) writes it, so
json.loads of the whole file is the ring's payload.

A load does not parse the table: it decodes only the header line,
checks its n before anything else, builds the ring of its basis order,
and requires the header, each row line, the tail line and then the end
of the file to be exactly the text a store of that ring writes.  Both
directions stream one row line at a time, so neither holds the table's
text, and a load fills no product memo; the loaded ring answers
products from the kernel tables the comparison built.

A missing file means build silently.  Any other text than the stored
bytes of the ring of its n and basis order rebuilds with a warning on
stderr naming the first line that differs: the header (a file of
another layout or schema, or of another n, included) or a row, by its
basis vector's index and block.  As a guard on the kernels themselves,
a seeded sample of the loaded products is recomputed by saddle surgery,
which shares no code with the kernels; a mismatch raises
InvariantError, since a rebuild would read the same kernels.

The walk is ArcRing.table_rows: per basis vector, one slice of a
kernel table per block of its row, each key's table filled whole when
the walk first reaches it.  The tables are a few hundred thousand
tuples with no reference cycles, so building them would only trigger
collector passes that find nothing; store_ring and load_ring pause the
cyclic garbage collector around that work and restore its state after.

The cache directory comes from, in order: an explicit argument, the
ARCRING_CACHE_DIR environment variable, ~/.cache/arcring.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from .arc_ring import ArcRing, get_ring
from .combinatorics import Matching
from .errors import CapacityError, InvariantError

SCHEMA_VERSION = 2
# a store and a load walk the whole product table: 209,644,416 products
# at n = 6
MAX_CACHE_N = 5
ENV_VAR = "ARCRING_CACHE_DIR"
# products recomputed by surgery on every load; all of them at n <= 2
REVERIFIED = 100

# the end of the header line, and the file's last line
_HEADER_END = ',"products":[\n'
_TAIL = f'],"schema":{SCHEMA_VERSION}}}\n'
# a bound on the length of a valid header line: that of MAX_RING_N = 6,
# the longest, is 5,442 characters whatever the basis order
_HEADER_LIMIT = 6000


def cache_dir(directory: str | os.PathLike | None = None) -> Path:
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "arcring"


def cache_path(n: int, directory: str | os.PathLike | None = None) -> Path:
    """The file of n; a store or a load beyond MAX_CACHE_N stops here."""
    if n > MAX_CACHE_N:
        raise CapacityError(f"the cache supports n <= {MAX_CACHE_N}, not n = {n}")
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


def _row_lines(ring: ArcRing):
    """Each basis vector's row line of the file, in file order: its
    [x index, y index, terms] entries comma-joined, terms being
    [[z index, coeff], ...], and a comma unless it is the last."""
    # each index's text, and each y index's zero-product entry, is made once
    digits = [str(i) for i in range(ring.dimension)]
    zero = [f"{d},[]]" for d in digits]
    last = ring.dimension - 1
    # terms texts by (z offset, row); z0, the offset of block (c, a),
    # recurs only while x.row is c, so the memo is cleared when it moves
    texts: dict[tuple, str] = {}
    c = None
    for xi, chunks in ring.table_rows():
        if ring.basis[xi].row != c:
            c = ring.basis[xi].row
            texts.clear()
        pieces = []
        for y0, z0, rows in chunks:
            for yi, terms in enumerate(rows, y0):
                if not terms:
                    pieces.append(zero[yi])
                    continue
                text = texts.get((z0, terms))
                if text is None:
                    text = texts[z0, terms] = ",".join([f"[{digits[z0 + o]},{k}]" for o, k in terms])
                pieces.append(f"{digits[yi]},[{text}]]")
        head = f"[{digits[xi]},"
        yield head + ("," + head).join(pieces) + (",\n" if xi < last else "\n")


def ring_to_payload(ring: ArcRing) -> dict:
    """A complete, deterministic JSON description of the ring."""
    return {
        "schema": SCHEMA_VERSION,
        "n": ring.n,
        "order": [[list(arc) for arc in m.pairs] for m in ring.order],
        "products": [
            [xi, yi, [[z0 + o, c] for o, c in terms]]
            for xi, chunks in ring.table_rows()
            for y0, z0, rows in chunks
            for yi, terms in enumerate(rows, y0)
        ],
    }


def _header(n: int, order) -> str:
    """The header line of the file of a ring with this n and basis order."""
    text = json.dumps([[list(arc) for arc in m.pairs] for m in order], separators=(",", ":"))
    return f'{{"n":{n},"order":{text}{_HEADER_END}'


def _order_ring(n, order) -> ArcRing:
    """The ring, with an empty product memo, of n and a JSON basis order."""
    return ArcRing(n, [Matching([tuple(arc) for arc in pairs]) for pairs in order])


def payload_to_ring(payload: dict) -> ArcRing:
    """The ring whose ring_to_payload is payload; ValueError for any other value.

    The two are compared as the JSON text they dump to, so a coefficient
    that is a float or a bool differs from the int it equals.
    """
    try:
        ring = _order_ring(payload["n"], payload["order"])
        text = json.dumps(payload, sort_keys=True)
        same = text == json.dumps(ring_to_payload(ring), sort_keys=True)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed ring cache: {exc}") from exc
    if not same:
        raise ValueError("cache payload is not the payload of its ring")
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

    The text is ring_to_payload in the row layout the module docstring
    describes, written one row of the table at a time to a temporary
    file beside the target, which then replaces the target in one step,
    so an interrupted store leaves either the old file or the new one,
    never a torn one.  Temp files that stores killed before their replace left
    behind are removed first; those of stores still running are kept.
    """
    path = cache_path(ring.n, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_temps(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with _gc_paused(), open(tmp, "w", newline="") as fh:
            fh.write(_header(ring.n, ring.order))
            fh.writelines(_row_lines(ring))
            fh.write(_TAIL)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_ring(n: int, directory: str | os.PathLike | None = None) -> ArcRing:
    """Load a cached ring; FileNotFoundError if absent, ValueError if bad.

    The header's n is checked before any row is made; the ring is
    returned only when the whole file is the text store_ring would write
    for it.  The header line is read up to _HEADER_LIMIT characters, a
    bound on the longest valid one, and each row line up to the length
    of the one expected, so a file in another layout is refused without
    reading a line of it whole.

    Then REVERIFIED products drawn with a fixed seed from the table's
    entries, or all of them if there are fewer, are recomputed by
    saddle surgery along the arcs of x.col; raises InvariantError where
    one differs from the kernels' product.
    """
    with open(cache_path(n, directory), newline="") as fh, _gc_paused():
        header = fh.readline(_HEADER_LIMIT)
        if not header.endswith(_HEADER_END):
            raise ValueError(f"cache header is not that of the schema {SCHEMA_VERSION} row layout")
        try:
            fields = json.loads(header[: -len(_HEADER_END)] + "}")
            if fields["n"] != n:
                raise ValueError(f"cache file for n={n} actually contains n={fields['n']!r}")
            ring = _order_ring(n, fields["order"])
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed ring cache: {exc}") from exc
        if header != _header(n, ring.order):
            raise ValueError("cache header differs from the stored header of its n and order")
        count = ring.product_count()
        picks = sorted(random.Random(0).sample(range(count), min(count, REVERIFIED)))
        sampled = [ring.table_pair(k) for k in picks]
        for xi, line in enumerate(_row_lines(ring)):
            if fh.readline(len(line)) != line:
                x = ring.basis[xi]
                raise ValueError(
                    f"cache row {xi}, of block ({x.row.pairs}, {x.col.pairs}), "
                    "differs from the row its kernels give"
                )
        if fh.readline(len(_TAIL)) != _TAIL or fh.read(1):
            raise ValueError(f"cache does not end in the schema {SCHEMA_VERSION} tail line")
    for x, y in sampled:
        if ring.multiply_basis(x, y, arc_order=x.col.pairs) != ring.multiply_basis(x, y):
            raise InvariantError(
                f"product ({ring.index[x]}, {ring.index[y]}) differs from its surgery"
            )
    return ring


def load_or_build(n: int, directory: str | os.PathLike | None = None) -> tuple[ArcRing, str]:
    """The ring for n, from cache when possible.

    Returns (ring, status) with status one of "loaded", "built" (no
    cache file existed), "rebuilt" (cache file existed but was
    unusable; a warning goes to stderr).  A built or rebuilt ring is
    stored.
    """
    try:
        return load_ring(n, directory), "loaded"
    except FileNotFoundError:
        status = "built"
    except CapacityError:
        raise
    except ValueError as exc:
        print(f"warning: rebuilding ring cache for n={n}: {exc}", file=sys.stderr)
        status = "rebuilt"
    ring = get_ring(n)
    store_ring(ring, directory)
    return ring, status
