"""On-disk cache of built rings with their full product tables.

A cached ring is one JSON document: a schema stamp, the basis order,
and every composable basis product keyed by basis indices.  The table
is walked block by block in basis-index order: the products of block
(c, b) with block (b, a) are rows of the cobordism kernel of triple
(c, b, a), the same rows ArcRing.multiply_basis reads, taken in index
space.  So a store multiplies no pair of basis vectors and fills no
product memo, and no product is sorted; a ring loaded from a file
computes its rows again when it is stored, so store/load/store checks
the kernels against the file.  Writing is deterministic (sorted keys,
index-ordered products), so store/load/store round-trips
byte-identically, and atomic (a temp file, then os.replace); a store
also removes the temp files that earlier stores of the same n left
behind when their process died before the replace.

The document is laid out one basis vector's row of products per line:
a header line {"n":N,"order":[...],"products":[, then one line per
row holding its entries comma-joined and ending in a comma unless it is
the last, then the tail line ],"schema":2}.  Elsewhere the text is
compact, as json.dumps(..., separators=(",", ":")) writes it, so
json.loads of the whole file is the ring's payload.  Both directions
stream the table, so neither holds it twice: a store writes each row as
soon as its kernels give it, and a load reads the file line by line,
decoding each row with one json.loads, checking its entries and putting
them into the product memo before reading the next.

A missing file means build silently.  Rebuild with a warning on stderr
when the file is unreadable, is not in this layout (which includes
every file of another schema), holds another n, or holds a table that
is not canonical: an entry count other than the number of composable
pairs, a pair listed twice, an index outside the basis, a term outside
its product's block, terms not strictly increasing by index, or a
coefficient that is zero or not an int.  A well-formed table can still
hold a wrong coefficient or a wrong term inside the right block, so a
seeded sample of the loaded products is recomputed by saddle surgery,
which shares no code with the memoized products' cobordism kernels; a
mismatch rebuilds with a warning too.

The table is a few hundred thousand tuples and lists with no reference
cycles, so building or decoding it would only trigger collector passes
that find nothing; store_ring and load_ring pause the cyclic garbage
collector around that work and restore its state after.

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
from itertools import chain, islice
from pathlib import Path

from .arc_ring import MAX_RING_N, ArcRing, _table_row, get_ring
from .combinatorics import Matching, enumerate_matchings

SCHEMA_VERSION = 2
ENV_VAR = "ARCRING_CACHE_DIR"
# products recomputed by surgery on every load; all of them at n <= 2
REVERIFIED = 100

# the end of the header line, and the file's last line
_HEADER_END = ',"products":[\n'
_TAIL = f'],"schema":{SCHEMA_VERSION}}}\n'


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


def _rows(ring: ArcRing):
    """Each basis vector's row of the product table, in file order.

    Yields (x index, [(y index, z offset, row), ...]) for x over the
    basis and y over the basis vectors in row x.col, which lie in basis
    order already.  The product of x and y is the sum of coeff times
    basis vector z offset + o over the (o, coeff) of row.  The walk goes
    block by block: x in block (c, b) and y in block (b, a) multiply
    through the kernel of triple (c, b, a), whose table row at rank
    x rank << k_y | y rank (the rank of x.labels + y.labels) holds the
    product in the output ranks of block (c, a).  It fills no product
    memo and calls no ArcRing.multiply_basis.
    """
    order, dims, offsets = ring.order, ring.block_dims, ring._block_offsets
    kernels = ring._kernels
    for c in order:
        for b in order:
            blocks = []
            for a in order:
                key, table, _ = kernels.get((c, b, a)) or ring._kernel(c, b, a)
                blocks.append((offsets[b, a], dims[b, a], key, table, offsets[c, a]))
            start = offsets[c, b]
            for rx in range(dims[c, b]):
                yield start + rx, [
                    (y0 + ry, z0, _table_row(key, table, rx * dy + ry))
                    for y0, dy, key, table, z0 in blocks
                    for ry in range(dy)
                ]


def ring_to_payload(ring: ArcRing) -> dict:
    """A complete, deterministic JSON description of the ring."""
    return {
        "schema": SCHEMA_VERSION,
        "n": ring.n,
        "order": [[list(arc) for arc in m.pairs] for m in ring.order],
        "products": [
            [xi, yi, [[z0 + o, c] for o, c in terms]]
            for xi, row in _rows(ring)
            for yi, z0, terms in row
        ],
    }


def _header(n: int, order) -> str:
    """The header line of the file of a ring with this n and basis order."""
    text = json.dumps([[list(arc) for arc in m.pairs] for m in order], separators=(",", ":"))
    return f'{{"n":{n},"order":{text}{_HEADER_END}'


def _header_ring(fields: dict) -> ArcRing:
    """The ring, with an empty product memo, that fields n and order describe."""
    order = [Matching([tuple(arc) for arc in pairs]) for pairs in fields["order"]]
    return ArcRing(fields["n"], order)


def _product_count(ring: ArcRing) -> int:
    """The number of composable pairs of basis vectors: the table's size."""
    dims = ring.block_dims
    return sum(
        sum(dims[c, b] for c in ring.order) * sum(dims[b, a] for a in ring.order)
        for b in ring.order
    )


def _check_entries(ring: ArcRing, entries) -> None:
    """Check a product table and put it into ring's empty product memo.

    entries yields the table's [x index, y index, terms] entries; each
    is checked and stored before the next is taken.  Only a canonical
    table passes: one entry per composable pair of basis vectors, each
    index inside range(dimension), the terms of a product inside block
    (x.row, y.col), strictly increasing by index, with nonzero
    coefficients that are exactly ints.  The entry count is checked
    after the last entry; a pair listed twice leaves the product memo
    short of it.  Each entry is hashed once, at its insert into the memo.

    Then REVERIFIED products drawn with a fixed seed, or all of them if
    there are fewer, are recomputed by saddle surgery along the arcs of
    x.col; raises ValueError where one differs.
    """
    basis, memo, dim = ring.basis, ring._products, ring.dimension
    count = 0
    for count, (xi, yi, terms) in enumerate(entries, 1):
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
                raise ValueError(f"cached term index {zi} is out of range or out of order")
            last = zi
            z = basis[zi]
            if z.row is not x.row or z.col is not y.col:
                raise ValueError(f"cached term {zi} lies outside its product's block")
            if type(c) is not int or c == 0:
                raise ValueError(f"cached coefficient {c!r} is not a nonzero int")
            product.append((z, c))
        memo[x, y] = tuple(product)
    composable = _product_count(ring)
    if count != composable:
        raise ValueError(f"cache holds {count} products, not the {composable} composable pairs")
    if len(memo) != count:
        raise ValueError("cache lists a product pair more than once")
    # the memo was empty, so it iterates in the table's order
    pairs, start = iter(memo), 0
    for k in sorted(random.Random(0).sample(range(count), min(count, REVERIFIED))):
        x, y = next(islice(pairs, k - start, None))
        start = k + 1
        if ring.multiply_basis(x, y, arc_order=x.col.pairs) != memo[x, y]:
            raise ValueError(
                f"cached product ({ring.index[x]}, {ring.index[y]}) differs from its surgery"
            )


def payload_to_ring(payload: dict) -> ArcRing:
    """Rebuild a ring from its payload; raises ValueError when unusable.

    The header is checked first, then the table as load_ring checks it.
    """
    if not isinstance(payload, dict):
        raise ValueError("cache payload is not an object")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"cache schema {schema!r} does not match {SCHEMA_VERSION}")
    try:
        ring = _header_ring(payload)
        entries = payload["products"]
        if type(entries) is not list:
            raise ValueError("cache products are not a list")
        _check_entries(ring, entries)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed ring cache: {exc}") from exc
    return ring


def _row_lines(fh):
    """The decoded row lines that follow the header in fh, in file order.

    Yields each line's list of entries.  Every row line but the last
    ends in a comma; the last must be followed by the tail line and the
    end of the file.  A row line with no entry would leave two commas
    in a row in the document, so it is refused.
    """
    for line in fh:
        more = line.endswith(",\n")
        row = json.loads(f"[{line[:-2] if more else line}]")
        if not row:
            raise ValueError("malformed ring cache: a row line holds no entry")
        yield row
        if not more:
            break
    if fh.readline() != _TAIL or fh.read(1):
        raise ValueError(f"cache does not end in the schema {SCHEMA_VERSION} tail line")


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
    # each index's text is made once
    digits = [str(i) for i in range(ring.dimension)]

    def terms_text(z0, terms):
        return ",".join([f"[{digits[z0 + o]},{c}]" for o, c in terms])

    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with _gc_paused(), open(tmp, "w") as fh:
            fh.write(_header(ring.n, ring.order))
            sep = ""
            for xi, row in _rows(ring):
                head = f"[{digits[xi]},"
                fh.write(sep)
                # most products are zero, and need no terms_text call
                fh.write(
                    ",".join(
                        [
                            f"{head}{digits[yi]},[{terms_text(z0, terms) if terms else ''}]]"
                            for yi, z0, terms in row
                        ]
                    )
                )
                sep = ",\n"
            fh.write("\n" + _TAIL)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_ring(n: int, directory: str | os.PathLike | None = None) -> ArcRing:
    """Load a cached ring; FileNotFoundError if absent, ValueError if bad.

    The header's n is checked before any product is decoded; the ring
    is returned only when every check has passed.  The header line is
    read up to the length of the longest valid one, that of MAX_RING_N
    (every basis order of one n gives a header of the same length), so
    a file in another layout is refused without reading its first line
    whole.
    """
    limit = len(_header(MAX_RING_N, enumerate_matchings(MAX_RING_N)))
    with open(cache_path(n, directory)) as fh, _gc_paused():
        header = fh.readline(limit)
        if not header.endswith(_HEADER_END):
            raise ValueError(f"cache file is not in the schema {SCHEMA_VERSION} row layout")
        try:
            fields = json.loads(header[: -len(_HEADER_END)] + "}")
            if fields["n"] != n:
                raise ValueError(f"cache file for n={n} actually contains n={fields['n']!r}")
            ring = _header_ring(fields)
            _check_entries(ring, chain.from_iterable(_row_lines(fh)))
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed ring cache: {exc}") from exc
    return ring


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
