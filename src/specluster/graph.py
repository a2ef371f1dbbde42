"""Undirected simple graphs: CSR adjacency, edge-list files, degrees.

Node indices are 0-based.  Edge-list files hold one edge per line as two
whitespace-separated integers; text after '#' is a comment.
Graphs are immutable after construction.
"""

import io
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import EdgeListParseError, SpeclusterError
from .util import data_lines

_INT64_MAX = int(np.iinfo(np.int64).max)
# Largest n and CSR entry count whose graph gets int32 indptr and indices.
_INT32_MAX = int(np.iinfo(np.int32).max)
# CSR entries read per edge-list write, so at most this many rows are
# formatted at once: under 1 MB of Python ints and text.
_SAVE_CHUNK_ROWS = 2**13


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.

    adjacency is symmetric CSR with sorted neighbor lists and an all-zero
    diagonal.  It is the only store of the edges: edges is computed from
    its upper triangle.  Its indptr and indices are int32 while n and its
    entry count (twice the edges) are below 2**31, and int64 beyond, so it
    holds 24 bytes per edge at every size the package runs.  degrees[i]
    counts stored neighbors, as int64.
    """

    n: int
    adjacency: sparse.csr_array
    degrees: np.ndarray

    @property
    def edges(self):
        """(m, 2) int64 array with each pair once as (i, j), i < j, in
        lexicographic order: the upper triangle of adjacency, computed on
        each access."""
        return _upper_pairs(self.adjacency, 0, self.adjacency.nnz)

    @property
    def num_edges(self):
        return self.adjacency.nnz // 2

    @property
    def mean_degree(self):
        return 2.0 * self.num_edges / self.n


def build_graph(n, edges):
    """Build a Graph from an array of node pairs, in either orientation.

    Each pair becomes the two int64 keys r * n + c and c * n + r; sorted,
    they list the symmetric CSR's entries row by row.  Self loops or
    duplicate pairs are rejected; use load_edge_list for lenient ingestion.
    """
    n = operator.index(n)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and edges.min() < 0:
        raise SpeclusterError("negative node index in edge list")
    if edges.size and edges.max() >= n:
        raise SpeclusterError(f"node index {edges.max()} out of range for n={n}")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise SpeclusterError("self loop in edge list")
    g = _csr_graph(n, edges)
    if g.num_edges < edges.shape[0]:
        raise SpeclusterError("duplicate edge in edge list")
    return g


def _pair_keys(n, edges):
    """The 2m int64 keys r * n + c, then c * n + r, of the (m, 2) pairs.

    A key keeps the lexicographic order of its (row, column) entry for
    indices in [0, n), which needs n**2 < 2**63.
    """
    if n * n > _INT64_MAX:
        raise SpeclusterError(f"n={n} is too large: pair keys need n**2 < 2**63")
    m = edges.shape[0]
    r, c = edges[:, 0], edges[:, 1]
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(r, n, out=keys[:m])
    keys[:m] += c
    np.multiply(c, n, out=keys[m:])
    keys[m:] += r
    return keys


def _sorted_distinct(a):
    """The distinct values of a, ascending: np.unique(a) by sorting.

    a is sorted in place, so it must be a temporary; when no value repeats
    it is itself the result.  np.unique without return_* flags goes
    through a hash table in numpy >= 2.3 and then sorts its output anyway.
    On 20k / 100k int64 draws that took 3.8 / 29 ms, against 0.19 / 1.0 ms
    for this sort plus a first-of-run mask (numpy 2.4.6, one core of a
    2-core x86 box).
    """
    a.sort()
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a if first.all() else a[first]


def _csr_graph(n, pairs):
    """The Graph of the distinct pairs among (m, 2) loopless int64 pairs.

    Their sorted distinct keys (see build_graph) are its CSR entries.
    indptr and indices are int32 when n and the entry count are at most
    _INT32_MAX, as scipy picks its own index dtype, and int64 beyond; the
    int64 keys become the indices after the mod by n and are freed before
    the data array is made.  degrees is int64.
    """
    keys = _sorted_distinct(_pair_keys(n, pairs))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    index_dtype = np.int32 if max(n, keys.size) <= _INT32_MAX else np.int64
    keys %= n
    indices = keys.astype(index_dtype, copy=False)
    del keys
    adj = sparse.csr_array(
        (np.ones(indices.size), indices, indptr.astype(index_dtype, copy=False)), shape=(n, n)
    )
    return Graph(n=n, adjacency=adj, degrees=np.diff(indptr))


def _upper_pairs(adj, start, stop):
    """The (r, c) rows, r < c, of the CSR entries start:stop, in order, as
    an int64 array of shape (pairs, 2)."""
    indptr = adj.indptr
    first = np.searchsorted(indptr, start, side="right") - 1
    last = np.searchsorted(indptr, stop, side="left")
    # each row's entries that fall inside start:stop
    counts = np.diff(np.clip(indptr[first : last + 1], start, stop))
    cols = adj.indices[start:stop]
    rows = np.repeat(np.arange(first, last, dtype=cols.dtype), counts)
    upper = cols > rows
    out = np.empty((np.count_nonzero(upper), 2), dtype=np.int64)
    out[:, 0] = rows[upper]
    out[:, 1] = cols[upper]
    return out


def load_edge_list(path, n_hint=None):
    """Read an edge-list file.

    Duplicate pairs and self loops are dropped with a counted warning.
    n is max index + 1, or n_hint if that is larger: a file cannot show
    nodes past its largest index that have no edge, so a caller that knows
    the node count (say, from a partition file's labels) passes it.  A
    file with no valid edges is an error, as is any malformed line
    (reported with its number).

    Text after '#' is a comment, and a line with nothing before its '#'
    is skipped.  ASCII text is parsed in one np.loadtxt call.  Text that
    call cannot take exactly (non-ASCII characters, a field loadtxt
    rejects, a negative index, no pairs at all) is parsed again line by
    line through util.data_lines, which accepts whatever int() does and
    reports the first bad line; both parsers give the same graph, warning
    and error.
    Each pair's two directed keys (see build_graph) are sorted once; a
    pair given t times leaves t - 1 copies of each key, which are the
    t - 1 duplicates dropped, and the distinct keys are the CSR.  The
    cost is O(edges log edges).
    """
    path = Path(path)
    pairs = _parse_text(path)
    if pairs is None:
        pairs = _parse_lines(path)
    loops = pairs[:, 0] == pairs[:, 1]
    n_loops = int(loops.sum())
    if n_loops == pairs.shape[0]:
        raise SpeclusterError(f"{path}: no edges found")
    n = int(pairs.max()) + 1
    if n_hint is not None:
        n = max(n, int(n_hint))
    if n_loops:
        pairs = pairs[~loops]
    g = _csr_graph(n, pairs)
    n_dupes = pairs.shape[0] - g.num_edges
    if n_dupes or n_loops:
        warnings.warn(
            f"{path}: dropped {n_dupes} duplicate edge(s) and {n_loops} self loop(s)",
            stacklevel=2,
        )
    return g


def _parse_text(path):
    """The (m, 2) pairs of the file in one np.loadtxt call, or None when
    only the line parser gives the right answer or error.

    The file is read once, as bytes, which loadtxt takes line by line
    through a BytesIO sharing their buffer: about one byte held per byte
    of file, besides the pairs.
    """
    text = path.read_bytes()
    # loadtxt misreads some non-ASCII characters as digits
    if not text.isascii():
        return None
    # the line parser reads text mode, where "\r\n" and "\r" end lines as "\n"
    text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            pairs = np.loadtxt(io.BytesIO(text), dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        return None
    if pairs.shape[1] != 2 or not pairs.size or pairs.min() < 0:
        return None
    return pairs


def _parse_lines(path):
    """The (m, 2) pairs of the file, parsed line by line; raises
    EdgeListParseError at the first malformed line."""
    pairs = []
    for lineno, line in data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(path, lineno, f"expected 2 fields, got {len(parts)}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(path, lineno, f"non-integer field in {parts!r}") from None
        if a < 0 or b < 0:
            raise EdgeListParseError(path, lineno, "negative node index")
        if a > _INT64_MAX or b > _INT64_MAX:
            raise EdgeListParseError(path, lineno, "node index too large")
        pairs.append((a, b))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def save_edge_list(g, path):
    """Write the canonical (sorted) edge list; inverse of load_edge_list.

    Rows are read from the CSR _SAVE_CHUNK_ROWS entries at a time, so the
    pairs, Python ints and text held at once do not grow with the edge
    count.
    """
    nnz = g.adjacency.nnz
    with open(path, "w") as fh:
        for start in range(0, nnz, _SAVE_CHUNK_ROWS):
            chunk = _upper_pairs(g.adjacency, start, min(start + _SAVE_CHUNK_ROWS, nnz))
            fh.write(("%d %d\n" * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def degree_extremes(g):
    """Minimum and maximum node degree of the sample graph."""
    if g.n < 1:
        raise SpeclusterError("empty graph")
    return int(g.degrees.min()), int(g.degrees.max())
