import tracemalloc
import warnings

import numpy as np
import pytest

from scipy import sparse

import specluster as sp
from conftest import complete_graph, path_graph, two_block_benchmark_model
from specluster import graph, metrics
from specluster.graph import build_graph


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_path_graph(tmp_path):
    g = sp.load_edge_list(write(tmp_path, "0 1\n1 2\n"))
    assert g.n == 3
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_load_drops_duplicates_and_self_loops(tmp_path):
    path = write(tmp_path, "0 1\n1 0\n2 2\n")
    with pytest.warns(UserWarning, match="1 duplicate.*1 self loop"):
        g = sp.load_edge_list(path)
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1]]


def test_load_ignores_comments_and_blank_lines(tmp_path):
    g = sp.load_edge_list(write(tmp_path, "# header\n\n0 1\n# mid\n1 2\n"))
    assert g.num_edges == 2


def test_malformed_line_reports_number(tmp_path):
    path = write(tmp_path, "0 1\nbad line here\n")
    with pytest.raises(sp.EdgeListParseError, match="2"):
        sp.load_edge_list(path)
    path = write(tmp_path, "0 1\n1 x\n")
    with pytest.raises(sp.EdgeListParseError) as err:
        sp.load_edge_list(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("comment", ["# ok", "# ok \u00e9"], ids=["ascii", "non-ascii"])
def test_text_after_hash_is_a_comment(tmp_path, comment):
    # an ASCII file takes the np.loadtxt path; a non-ASCII comment sends the
    # same lines to the line parser, which must drop "# c" alike
    path = write(tmp_path, f"0 1\n{comment}\n1 2 # c\n")
    assert (graph._parse_text(path) is None) == (not comment.isascii())
    assert graph._parse_lines(path).tolist() == [[0, 1], [1, 2]]
    g = sp.load_edge_list(path)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_fields_that_int_accepts_are_edges(tmp_path):
    g = sp.load_edge_list(write(tmp_path, "1_0 2\n+3 007\n"))
    assert g.edges.tolist() == [[2, 10], [3, 7]]
    assert g.n == 11


def test_oversized_index_reports_line(tmp_path):
    path = write(tmp_path, "0 1\n99999999999999999999 2\n")
    with pytest.raises(sp.EdgeListParseError, match="node index too large") as err:
        sp.load_edge_list(path)
    assert err.value.line_number == 2


def test_node_count_beyond_pair_keys_is_error(tmp_path):
    # n**2 must fit int64; raised before any n-sized array is allocated
    with pytest.raises(sp.SpeclusterError, match="too large"):
        sp.load_edge_list(write(tmp_path, "0 5000000000\n"))
    with pytest.raises(sp.SpeclusterError, match="too large"):
        build_graph(2**32, [(0, 1)])


def test_empty_file_is_error(tmp_path):
    with pytest.raises(sp.SpeclusterError, match="no edges"):
        sp.load_edge_list(write(tmp_path, ""))
    with pytest.raises(sp.SpeclusterError, match="no edges"):
        sp.load_edge_list(write(tmp_path, "# only comments\n"))


def test_n_hint_extends_node_count(tmp_path):
    g = sp.load_edge_list(write(tmp_path, "0 1\n"), n_hint=5)
    assert g.n == 5
    assert g.degrees.tolist() == [1, 1, 0, 0, 0]
    # hint smaller than the max index is ignored
    g = sp.load_edge_list(write(tmp_path, "0 4\n"), n_hint=2)
    assert g.n == 5


def test_line_permutation_idempotent(tmp_path):
    lines = ["0 1", "1 2", "2 3", "0 3", "1 3"]
    g1 = sp.load_edge_list(write(tmp_path, "\n".join(lines) + "\n", "a.txt"))
    g2 = sp.load_edge_list(write(tmp_path, "\n".join(reversed(lines)) + "\n", "b.txt"))
    assert np.array_equal(g1.edges, g2.edges)
    assert (g1.adjacency != g2.adjacency).nnz == 0


def test_neighbor_lists_sorted():
    g = build_graph(5, [(4, 0), (2, 0), (0, 3), (1, 0)])
    adj = g.adjacency
    assert adj.indices[adj.indptr[0] : adj.indptr[1]].tolist() == [1, 2, 3, 4]
    assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [0, 4]]
    assert g.degrees.sum() == 2 * g.num_edges


def test_save_load_roundtrip(tmp_path):
    g = build_graph(6, [(0, 5), (1, 2), (3, 4), (0, 2)])
    out = tmp_path / "round.txt"
    sp.save_edge_list(g, out)
    assert out.read_text() == "0 2\n0 5\n1 2\n3 4\n"
    g2 = sp.load_edge_list(out)
    assert np.array_equal(g.edges, g2.edges)


def _one_shot_save(g, path):
    """The edge-list writer as first written: the whole list formatted at
    once; the oracle for the chunked writer."""
    with open(path, "w") as fh:
        fh.write(("%d %d\n" * g.num_edges) % tuple(g.edges.ravel().tolist()))


def _two_hub_graph(n):
    """Node 0 joined to every node and node n // 2 to every other: both hub
    rows span several save chunks, and the middle one mixes entries below
    and above its diagonal."""
    hub = n // 2
    rest = np.delete(np.arange(n), [0, hub])
    first = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    second = np.column_stack([np.full(rest.size, hub), rest])
    return build_graph(n, np.vstack([first, second]))


def test_chunked_save_writes_the_one_shot_bytes(tmp_path):
    # the writer reads chunk CSR entries (two per edge) at a time, so its
    # boundaries fall at m = chunk / 2, mid-row, and inside hub rows
    chunk = graph._SAVE_CHUNK_ROWS
    n = 700  # 244,650 node pairs, more than 3 * chunk + 7
    pairs = np.column_stack(np.triu_indices(n, 1))
    rng = np.random.default_rng(7)
    graphs = []
    for m in (0, 1, chunk // 2 - 1, chunk // 2, chunk // 2 + 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
        pick = np.sort(rng.choice(len(pairs), size=m, replace=False))
        graphs.append(build_graph(n, pairs[pick]))
    graphs += [_two_hub_graph(3 * chunk + 9), _two_hub_graph(chunk // 2 + 1)]
    for g in graphs:
        sp.save_edge_list(g, tmp_path / "chunked.txt")
        _one_shot_save(g, tmp_path / "one_shot.txt")
        got = (tmp_path / "chunked.txt").read_bytes()
        assert got == (tmp_path / "one_shot.txt").read_bytes()
        assert got.count(b"\n") == g.num_edges


def test_save_peak_does_not_grow_with_the_edge_count(tmp_path):
    pairs = np.column_stack(np.triu_indices(700, 1))
    rng = np.random.default_rng(8)
    sp.save_edge_list(build_graph(700, pairs[:10]), tmp_path / "warm.txt")
    peaks = []
    for m in (20_000, 200_000):
        g = build_graph(700, pairs[np.sort(rng.choice(len(pairs), size=m, replace=False))])
        tracemalloc.start()
        try:
            sp.save_edge_list(g, tmp_path / "e.txt")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def _retained_bytes(make):
    """What make() returns, the bytes its allocations still hold and the
    most they held at once."""
    make()  # first calls may fill caches that later calls reuse
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        kept, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_a_graph_retains_its_csr_and_no_edge_array():
    # CSR data (float64) and int32 indices are 12 bytes per entry, two
    # entries per edge; int32 indptr and int64 degrees 12 bytes per node.
    # An (m, 2) int64 edge array beside them would be 16 bytes per edge
    # more.  The build sorts 16 bytes of int64 pair keys per edge, narrows
    # them to the 8 bytes of indices and frees them before the 16 of data
    # are made, so it peaks at 24; sample adds the 16 bytes per edge of the
    # pairs it passes.  The degree-corrected candidates, about twice the
    # kept edges, peak higher.
    n = 6000
    base = sp.BlockModel.from_sizes([n // 2, n // 2], [[0.004, 0.001], [0.001, 0.002]])
    theta = np.tile(np.linspace(0.2, 1.8, n // 2), 2)
    pairs = np.column_stack(np.triu_indices(700, 1))[::3]
    makers = [
        (lambda: build_graph(700, pairs), 28),
        (lambda: sp.sample(base, 3), 44),
        (lambda: sp.sample(sp.DegreeCorrectedModel(base=base, theta=theta), 3), 64),
    ]
    for make, peak_per_edge in makers:
        g, kept, peak = _retained_bytes(make)
        assert g.num_edges > 10_000
        assert kept <= 24 * g.num_edges + 16 * g.n + 16384, (kept, g.num_edges, g.n)
        assert peak <= peak_per_edge * g.num_edges + 16 * g.n + 16384, (peak, g.num_edges, g.n)


@pytest.mark.parametrize("n, draws", [(1, 0), (6, 0), (2, 1), (40, 60), (300, 5000), (9000, 20000)])
def test_edges_are_the_canonical_pairs_read_from_the_csr(n, draws):
    rng = np.random.default_rng(n + draws)
    pairs = rng.integers(0, n, size=(draws, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    want = np.unique(_lexsorted_canonical(pairs), axis=0)
    g = build_graph(n, want[rng.permutation(len(want))][:, ::-1])
    got = g.edges
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.shape == (len(want), 2) == (g.num_edges, 2)
    assert np.array_equal(got, want)


def _lexsorted_canonical(edges):
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    order = np.lexsort((hi, lo))
    return np.column_stack([lo[order], hi[order]])


@pytest.mark.parametrize("n", [2, 9000])
def test_build_graph_sorts_like_lexsort(n):
    rng = np.random.default_rng(n)
    keys = rng.choice(n * n, size=min(n * n, 5000), replace=False)
    pairs = np.column_stack(np.divmod(keys, n))
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    swap = rng.random(len(pairs)) < 0.5
    pairs[swap] = pairs[swap][:, ::-1]
    g = build_graph(n, pairs)
    assert g.edges.dtype == np.int64
    assert np.array_equal(g.edges, _lexsorted_canonical(pairs))
    with pytest.raises(sp.SpeclusterError, match="duplicate"):
        build_graph(n, np.vstack([pairs, pairs[-1:, ::-1]]))


def _coo_adjacency(n, edges):
    """Symmetric CSR through COO, summed and then sorted by scipy."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    adj.sort_indices()
    return adj


@pytest.mark.parametrize(
    "n, draws, spread", [(60, 400, 60), (2000, 9000, 2000), (300, 40, 300), (50, 80, 12), (5, 0, 5)]
)
def test_build_graph_csr_matches_coo_construction(n, draws, spread):
    # spread < n leaves the nodes above it isolated, and sparse draws
    # isolate some below it; draws = 0 is the empty graph
    rng = np.random.default_rng(n + draws)
    pairs = rng.integers(0, spread, size=(draws, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    pairs = np.column_stack(np.divmod(keys, n))[rng.permutation(keys.size)]
    g = build_graph(n, pairs)
    want = _coo_adjacency(n, g.edges)
    if spread < n or draws < n:
        assert (g.degrees == 0).any()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(g.adjacency, name), getattr(want, name))
    assert g.adjacency.indptr.dtype == g.adjacency.indices.dtype == np.int32
    assert g.degrees.dtype == np.int64
    assert np.array_equal(g.degrees, np.diff(want.indptr))


def test_index_dtype_is_int64_beyond_the_int32_limit(monkeypatch, tmp_path):
    # one comparison picks the index dtype; a lowered limit builds the
    # int64 side for graphs small enough to test, and every result read
    # from the CSR must equal the int32 build's bitwise
    rng = np.random.default_rng(64)
    model = sp.BlockModel.from_sizes([300, 200], [[0.05, 0.01], [0.01, 0.08]])
    dense = sp.sample(model, 5)  # 2 m > n: the entry count decides
    sparse_pairs = np.column_stack([np.arange(0, 40, 2), np.arange(1, 40, 2)])
    sp.save_edge_list(dense, tmp_path / "dense.txt")
    makers = {
        "build": lambda: build_graph(500, dense.edges),
        "sample": lambda: sp.sample(model, 5),
        "load": lambda: sp.load_edge_list(tmp_path / "dense.txt"),
        "sparse": lambda: build_graph(900, sparse_pairs),  # n > 2 m: n decides
    }
    for name, make in makers.items():
        narrow = make()
        size = max(narrow.n, narrow.adjacency.nnz)
        for limit, dtype in ((size, np.int32), (size - 1, np.int64)):
            monkeypatch.setattr(graph, "_INT32_MAX", limit)
            g = make()
            adj = g.adjacency
            assert adj.indptr.dtype == adj.indices.dtype == dtype, (name, limit)
            assert g.degrees.dtype == np.int64
            x = rng.standard_normal(g.n)
            labels = rng.integers(0, 3, size=g.n)
            for got, want in [
                (g.edges, narrow.edges),
                (g.degrees, narrow.degrees),
                (adj @ x, narrow.adjacency @ x),
                (metrics.block_counts(g, labels, 3), metrics.block_counts(narrow, labels, 3)),
            ]:
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        monkeypatch.undo()


def test_pair_keys_sort_like_lexsort_at_large_n():
    # build_graph itself would allocate an n + 1 CSR index array (16 GiB),
    # so the keys and the sort it uses are checked directly
    n = 2**31
    rng = np.random.default_rng(31)
    big = n - 1 - np.arange(4)
    pairs = np.column_stack([rng.integers(0, 50, 40), rng.integers(50, 100, 40)])
    pairs = np.vstack([pairs, [[big[0], big[1]], [0, big[2]], [big[3], 1], [big[1], big[0]]]])
    pairs = pairs[rng.permutation(len(pairs))]
    keys = graph._sorted_distinct(graph._pair_keys(n, pairs))
    directed = np.vstack([pairs, pairs[:, ::-1]])
    order = np.lexsort((directed[:, 1], directed[:, 0]))
    want = directed[order]
    dup = np.zeros(len(want), dtype=bool)
    dup[1:] = np.all(want[1:] == want[:-1], axis=1)
    assert np.array_equal(np.column_stack(np.divmod(keys, n)), want[~dup])
    # (big1, big0) repeats (big0, big1): both of its keys are dropped once
    assert dup.sum() >= 2
    assert np.sum(keys == big[0] * n + big[1]) == np.sum(keys == big[1] * n + big[0]) == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(sp.SpeclusterError, match="self loop"):
        build_graph(3, [(1, 1)])
    with pytest.raises(sp.SpeclusterError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(sp.SpeclusterError, match="out of range"):
        build_graph(2, [(0, 5)])


def test_degree_extremes():
    assert sp.degree_extremes(path_graph(3)) == (1, 2)
    assert sp.degree_extremes(complete_graph(4)) == (3, 3)


def _chernoff_upper(mu, budget):
    # smallest t with exp(-t^2 / (2 (mu + t/3))) <= budget for a Bernoulli sum
    log_inv = np.log(1.0 / budget)
    # solve t^2 - (2/3) log_inv t - 2 mu log_inv = 0
    return (2.0 / 3.0 * log_inv + np.sqrt((2.0 / 3.0 * log_inv) ** 2 + 8 * mu * log_inv)) / 2


def _chernoff_lower(mu, budget):
    return np.sqrt(2 * mu * np.log(1.0 / budget))


def test_degree_extremes_match_expected_degrees_monte_carlo():
    # Expected block degrees are 18.75 and 8.25 (row sums of B times sizes).
    # The min/max over 3000 nodes and 20 seeds must stay inside tail
    # envelopes derived from Chernoff bounds at union-bounded level 1e-3.
    model = two_block_benchmark_model()
    d_lo, d_hi = sp.population_degree_extremes(model)
    seeds = 20
    budget = 1e-3 / (seeds * model.n)
    hi_env = d_hi + _chernoff_upper(d_hi, budget)
    lo_env = max(0.0, d_lo - _chernoff_lower(d_lo, budget))
    for seed in range(seeds):
        g = sp.sample(model, seed)
        d_min, d_max = sp.degree_extremes(g)
        assert lo_env <= d_min <= d_max <= hi_env


def reference_load_edge_list(path, n_hint=None):
    """The line-by-line loader with a set of seen pairs that load_edge_list
    replaced; the oracle for its vectorized parse.  It has changed twice:
    the "node index too large" error, where it used to raise OverflowError,
    and text after '#' is a comment, where only a line led by '#' was."""
    pairs = []
    n_dupes = 0
    n_loops = 0
    max_index = -1
    seen = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise sp.EdgeListParseError(path, lineno, f"expected 2 fields, got {len(parts)}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise sp.EdgeListParseError(path, lineno, f"non-integer field in {parts!r}") from None
            if a < 0 or b < 0:
                raise sp.EdgeListParseError(path, lineno, "negative node index")
            if max(a, b) > np.iinfo(np.int64).max:
                raise sp.EdgeListParseError(path, lineno, "node index too large")
            max_index = max(max_index, a, b)
            if a == b:
                n_loops += 1
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                n_dupes += 1
                continue
            seen.add(key)
            pairs.append(key)
    if not pairs:
        raise sp.SpeclusterError(f"{path}: no edges found")
    if n_dupes or n_loops:
        warnings.warn(f"{path}: dropped {n_dupes} duplicate edge(s) and {n_loops} self loop(s)")
    edges = np.asarray(pairs, dtype=np.int64)
    n = max_index + 1
    if n_hint is not None:
        n = max(n, int(n_hint))
    return build_graph(n, edges)


_NODES = ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "11", "12"]
_ODD_FIELDS = ["+1", "1_0", "007", "-0", "1.0", "-1", "\u0661", "2\u01fe", "x", "99999999999999999999"]
_SEPARATORS = [" ", " ", " ", "\t", "  ", " \t ", "\xa0"]
_ODD_LINES = ["1 2 # c", "3", "1 2 3", "#", "   # indented", "\t", "\xa0", "0\xa01", "# \u00e9"]


def _random_edge_list(rng):
    """Text of a small edge-list file; about half are clean files that
    np.loadtxt parses, the rest hold odd fields and lines."""
    odd = rng.random() < 0.5
    lines = []
    for _ in range(rng.integers(0, 12)):
        r = rng.random()
        if r < 0.12:
            lines.append(rng.choice(["# comment", "#", "  # a # b", "", "   "]))
        elif odd and r < 0.3:
            lines.append(rng.choice(_ODD_LINES))
        else:
            fields = [rng.choice(_NODES), rng.choice(_NODES)]
            if odd and rng.random() < 0.3:
                fields[rng.integers(2)] = rng.choice(_ODD_FIELDS)
            sep = rng.choice(_SEPARATORS) if odd else rng.choice(_SEPARATORS[:-1])
            lead = rng.choice(["", "", " ", "\t"])
            lines.append(lead + sep.join(fields))
    if lines and rng.random() < 0.3:
        lines.append(lines[rng.integers(len(lines))])  # a duplicate line
    eol = rng.choice(["\n", "\n", "\r\n", "\r"])
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


def _outcome(load, path, n_hint):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = load(path, n_hint=n_hint)
        except sp.SpeclusterError as err:
            return type(err), str(err), getattr(err, "line_number", None)
    return g.n, *_graph_arrays(g), [str(w.message) for w in caught]


def _graph_arrays(g):
    """Every array of a Graph, with its dtype, for a bitwise comparison."""
    arrays = (g.edges, g.adjacency.indptr, g.adjacency.indices, g.adjacency.data, g.degrees)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def test_load_matches_line_by_line_reference(tmp_path):
    rng = np.random.default_rng(2024)
    path = tmp_path / "edges.txt"
    loaded = 0
    for _ in range(2000):
        path.write_bytes(_random_edge_list(rng).encode())
        n_hint = [None, None, 1, 40][rng.integers(4)]
        expected = _outcome(reference_load_edge_list, path, n_hint)
        assert _outcome(sp.load_edge_list, path, n_hint) == expected, path.read_bytes()
        loaded += isinstance(expected[0], int)
    assert 600 <= loaded <= 1400  # both outcomes are exercised


def test_load_parse_peak_per_byte_of_file(tmp_path):
    # the fast path parses the bytes it read through a BytesIO that shares
    # them: it holds the bytes and the pairs, about 2.4 bytes per byte of
    # this file; a StringIO copy of the text alone would be 4
    pairs = np.random.default_rng(11).integers(10_000, 100_000, size=(150_000, 2))
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in pairs.tolist()))
    graph._parse_text(path)
    tracemalloc.start()
    try:
        got = graph._parse_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, pairs)
    assert peak <= 3 * path.stat().st_size, (peak, path.stat().st_size)


def test_load_assembles_the_graph_build_graph_gives(tmp_path):
    # load_edge_list canonicalizes once and assembles the CSR itself; the
    # graph must be bitwise the one build_graph makes of the same edges
    rng = np.random.default_rng(19)
    path = tmp_path / "edges.txt"
    for trial in range(30):
        n = int(rng.integers(2, 400))
        pairs = rng.integers(0, n, size=(int(rng.integers(1, 3000)), 2))
        lines = [f"{a} {b}" for a, b in pairs]  # loops and duplicates included
        for at in rng.integers(0, len(lines), size=5):
            lines.insert(int(at), "# comment")
        path.write_text("\n".join(lines) + "\n")
        n_hint = [None, 1, n + int(rng.integers(0, 50))][trial % 3]
        expected = _outcome(reference_load_edge_list, path, n_hint)
        assert _outcome(sp.load_edge_list, path, n_hint) == expected
