"""Stochastic block models: sampling and exact population quantities.

A K-block model assigns every node a block label; an edge between nodes in
blocks k1, k2 appears independently with probability B[k1, k2].  The edge
probability matrix is P = Z B Z' with Z the binary membership matrix.  The
degree-corrected variant scales P entrywise by per-node weights theta.

Population conventions follow the matrix formulas exactly: population
degrees are row sums of P *including* the diagonal entry P_ii, while
sampled graphs never contain self loops.  The per-node mismatch is O(1)
and intentional.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DegenerateModelError,
    SingularLaplacianError,
    SizeCapError,
    SpeclusterError,
)
from .graph import _sorted_distinct, build_graph
from .util import data_lines, rng_from

DENSE_CAP = 5000

# Per-pair Bernoulli sampling above this probability; binomial edge counts below.
_BINOMIAL_P_MAX = 0.1
_CHUNK_ROWS = 512
# Degree-corrected candidate pairs whose keep test runs at once.
_THIN_CHUNK = 2**14


@dataclass(frozen=True)
class BlockModel:
    """Block membership plus symmetric block probability matrix."""

    membership: np.ndarray
    block_matrix: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.membership, dtype=np.int64)
        b = np.asarray(self.block_matrix, dtype=np.float64)
        object.__setattr__(self, "membership", z)
        object.__setattr__(self, "block_matrix", b)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise SpeclusterError("block matrix must be square")
        if not (b.min() >= 0 and b.max() <= 1):  # NaN fails too
            raise SpeclusterError("block probabilities must lie in [0, 1]")
        if not np.allclose(b, b.T, atol=1e-12):
            raise SpeclusterError("block matrix must be symmetric")
        k = b.shape[0]
        if z.min() < 0 or z.max() >= k:
            raise SpeclusterError("membership labels out of range")
        if not np.bincount(z, minlength=k).all():
            raise SpeclusterError("every block must be non-empty")

    @classmethod
    def from_sizes(cls, sizes, block_matrix):
        sizes = np.asarray(sizes, dtype=np.int64)
        membership = np.repeat(np.arange(sizes.size), sizes)
        return cls(membership=membership, block_matrix=np.asarray(block_matrix))

    @property
    def n(self):
        return self.membership.size

    @property
    def num_blocks(self):
        return self.block_matrix.shape[0]

    @property
    def block_sizes(self):
        return np.bincount(self.membership, minlength=self.num_blocks)

    @property
    def weights(self):
        return self.block_sizes / self.n


@dataclass(frozen=True)
class DegreeCorrectedModel:
    """Block model with per-node positive degree weights theta."""

    base: BlockModel
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        object.__setattr__(self, "theta", theta)
        if theta.size != self.base.n:
            raise SpeclusterError("theta length must equal node count")
        if not 0 < theta.min() <= theta.max() < np.inf:  # NaN fails too
            raise SpeclusterError("theta entries must be positive and finite")
        # Largest entry of Theta Z B Z' Theta per block pair must stay <= 1.
        tmax = _group_max(self.base.membership, theta, self.base.num_blocks)
        worst = np.outer(tmax, tmax) * self.base.block_matrix
        if worst.max() > 1 + 1e-12:
            raise SpeclusterError("theta scaling pushes an edge probability above 1")

    @property
    def n(self):
        return self.base.n


def block_degrees(model, tau=0.0):
    """Common population degree of each block: d_k = sum_l n_l B[k, l] (+ tau)."""
    return model.block_matrix @ model.block_sizes + tau


def population_degree_extremes(model):
    """Minimum and maximum expected node degree of a block model."""
    d = block_degrees(model)
    return float(d.min()), float(d.max())


# ---------------------------------------------------------------------------
# Sampling


def _decode_triangular(t, s):
    """Map pair indices t to (i, j) with 0 <= i < j < s, lexicographic order.

    Counted from the last pair, u = s(s-1)/2 - 1 - t lies in reversed row
    r = s - 2 - i, which holds u from r(r+1)/2 to (r+1)(r+2)/2 - 1.  The
    float root lands within one row of r; one integer correction each way
    makes it exact, since every product stays below s^2 < 2^63.
    """
    u = s * (s - 1) // 2 - 1 - t
    r = np.floor((np.sqrt(8 * u.astype(np.float64) + 1) - 1) / 2).astype(np.int64)
    np.clip(r, 0, s - 2, out=r)
    r -= r * (r + 1) // 2 > u
    r += (r + 1) * (r + 2) // 2 <= u
    return s - 2 - r, s - 1 - u + r * (r + 1) // 2


def _distinct_indices(rng, total, m):
    """m distinct uniform indices from range(total)."""
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    if m >= total:
        return np.arange(total, dtype=np.int64)
    if m > total // 2:
        return rng.permutation(total)[:m].astype(np.int64)
    out = _sorted_distinct(rng.integers(0, total, size=m))
    while out.size < m:
        extra = rng.integers(0, total, size=2 * (m - out.size) + 8)
        out = _sorted_distinct(np.concatenate([out, extra]))
    if out.size > m:
        out = out[rng.permutation(out.size)[:m]]
    return out


def _bernoulli_pairs(rng, s1, s2, p, within):
    """Per-pair Bernoulli draws over an s1-by-s2 grid, in row chunks.

    within=True reads the grid as the pairs of one s1-node block and keeps
    only its upper triangle.
    """
    rows_i = []
    rows_j = []
    for r0 in range(0, s1, _CHUNK_ROWS):
        r1 = min(r0 + _CHUNK_ROWS, s1)
        u = rng.random((r1 - r0, s2))
        i, j = np.nonzero(u < p)
        i = i + r0
        if within:
            keep = j > i
            i, j = i[keep], j[keep]
        rows_i.append(i)
        rows_j.append(j)
    return np.concatenate(rows_i), np.concatenate(rows_j)


def _block_pairs(labels, b, rng):
    """(m, 2) edges of the plain block model with these labels and matrix b.

    Rows (i, j) come block pair by block pair, with label[i] <= label[j].
    """
    k = b.shape[0]
    ids = [np.flatnonzero(labels == blk) for blk in range(k)]
    chunks = [np.empty((0, 2), dtype=np.int64)]
    for k1 in range(k):
        for k2 in range(k1, k):
            p = b[k1, k2]
            within = k1 == k2
            s1, s2 = ids[k1].size, ids[k2].size
            npairs = s1 * (s1 - 1) // 2 if within else s1 * s2
            if p <= 0 or npairs == 0:
                continue
            if p <= _BINOMIAL_P_MAX:
                t = _distinct_indices(rng, npairs, rng.binomial(npairs, p))
                i, j = _decode_triangular(t, s1) if within else (t // s2, t % s2)
            else:
                i, j = _bernoulli_pairs(rng, s1, s2, p, within)
            chunks.append(np.column_stack([ids[k1][i], ids[k2][j]]))
    return np.concatenate(chunks, axis=0)


def _group_max(labels, values, k):
    """Largest value in each of the k label groups."""
    out = np.zeros(k)
    np.maximum.at(out, labels, values)
    return out


def _thinning_mask(cand, u, z, cell, b, pc, theta):
    """Which candidate pairs (i, j) the uniform draws u keep: those with
    u * pc[cell_i, cell_j] < b[z_i, z_j] theta_i theta_j.

    The test runs on _THIN_CHUNK pairs at a time, so its gathers and
    products do not grow with the candidate count.
    """
    keep = np.empty(u.size, dtype=bool)
    for lo in range(0, u.size, _THIN_CHUNK):
        i, j = cand[lo : lo + _THIN_CHUNK].T
        p = b[z[i], z[j]] * theta[i] * theta[j]
        keep[lo : lo + _THIN_CHUNK] = u[lo : lo + _THIN_CHUNK] * pc[cell[i], cell[j]] < p
    return keep


def sample(model, seed):
    """Draw a graph from the model; pure function of (model, seed).

    Each unordered pair {i, j} with i != j appears independently with
    probability P_ij.  Self loops are never generated.

    A degree-corrected graph is drawn by thinning a plain one.  Each block
    is split into bands of theta within a factor 2 of each other; a
    (block, band) cell has ceiling c = its largest theta.  The plain model on
    cells, with probabilities min(B c_a c_b, 1), proposes candidate pairs,
    and each is kept with probability B theta_i theta_j over its cell
    probability.  That makes the draw exact, and at least a quarter of the
    candidates are kept.  The sparse block pairs' index draws are
    deduplicated by sorting, so the cost is O(edges log edges + n + cells^2).
    """
    rng = rng_from(seed)
    if isinstance(model, DegreeCorrectedModel):
        z = model.base.membership
        b = model.base.block_matrix
        theta = model.theta
        tmax = _group_max(z, theta, b.shape[0])
        band = np.floor(np.log2(tmax[z] / theta)).astype(np.int64)
        stride = band.max() + 1
        keys, cell = np.unique(z * stride + band, return_inverse=True)
        ceil = _group_max(cell, theta, keys.size)
        cell_block = keys // stride
        pc = np.minimum(b[np.ix_(cell_block, cell_block)] * ceil[:, None] * ceil[None, :], 1.0)
        cand = _block_pairs(cell, pc, rng)
        keep = _thinning_mask(cand, rng.random(cand.shape[0]), z, cell, b, pc, theta)
        edges = cand[keep]
        del cand, keep  # 2-3x the kept edges: free them before the build
    else:
        edges = _block_pairs(model.membership, model.block_matrix, rng)
    return build_graph(model.n, edges)


# ---------------------------------------------------------------------------
# Exact population quantities


def edge_probabilities(model):
    """Dense n-by-n edge probability matrix P (diagonal included)."""
    if model.n > DENSE_CAP:
        raise SizeCapError(f"n={model.n} exceeds dense cap {DENSE_CAP}")
    if isinstance(model, DegreeCorrectedModel):
        base = edge_probabilities(model.base)
        return model.theta[:, None] * base * model.theta[None, :]
    z = model.membership
    return model.block_matrix[z][:, z]


def _checked_degrees(d):
    """d, population degrees plus tau, refused when one of them is zero."""
    if np.any(d <= 0):
        raise SingularLaplacianError("a population degree plus tau is zero")
    return d


def population_laplacian(model, tau):
    """Dense population regularized Laplacian.

    With D = diag(P 1), this is (D + tau I)^{-1/2} (P + tau/n) (D + tau I)^{-1/2}.
    Its top eigenvalue is 1 and its rank equals the rank of the regularized
    block matrix.
    """
    p = edge_probabilities(model)
    d = _checked_degrees(p.sum(axis=1) + tau)
    inv = 1.0 / np.sqrt(d)
    lap = inv[:, None] * (p + tau / model.n) * inv[None, :]
    return (lap + lap.T) / 2


class PopulationLaplacian:
    """Matrix-free population regularized Laplacian of a plain block model.

    Applies in O(n + K^2) using the block structure.  It serves both the
    model a graph was sampled from (concentration experiments, where the
    dense form is wasteful) and the model fitted from a clustering, whose
    population Laplacian is DKest's Lhat_tau.
    """

    def __init__(self, model, tau):
        if isinstance(model, DegreeCorrectedModel):
            raise SpeclusterError("matrix-free form only supports plain block models")
        d = _checked_degrees(block_degrees(model, tau))
        self.model = model
        self.tau = float(tau)
        self.labels = model.membership
        self.num_blocks = model.num_blocks
        self.inv_sqrt_deg = 1.0 / np.sqrt(d[self.labels])
        self.block_tau = model.block_matrix + tau / model.n
        self.shape = (model.n, model.n)

    def apply(self, x):
        y = self.inv_sqrt_deg * x
        s = np.bincount(self.labels, weights=y, minlength=self.num_blocks)
        t = self.block_tau @ s
        return self.inv_sqrt_deg * t[self.labels]

    def to_dense(self):
        return population_laplacian(self.model, self.tau)


def reduced_spectrum(model, tau):
    """Eigenvalues of the block-reduced Laplacian, descending.

    Taken from the symmetric similar form W (B + tau/n) W with
    W = diag(sqrt(n_k / (d_k + tau))).
    """
    sizes = model.block_sizes
    d = _checked_degrees(block_degrees(model, tau))
    w = np.sqrt(sizes / d)
    bt = model.block_matrix + tau / model.n
    return np.linalg.eigvalsh(w[:, None] * bt * w[None, :])[::-1]


def eigen_gap(model, tau):
    """K-th largest population eigenvalue; the spectral gap of a rank-K model."""
    vals = reduced_spectrum(model, tau)
    if np.abs(vals).min() < 1e-12:
        raise DegenerateModelError("block-reduced Laplacian is numerically singular")
    gap = vals[-1]
    if gap < 1e-12:
        raise DegenerateModelError("spectral gap is not positive")
    return float(gap)


def center_distances(model):
    """Pairwise distances between population embedding centers.

    Entry (k, l) is sqrt(1/n_k + 1/n_l) for k != l; the value does not
    depend on tau.
    """
    inv = 1.0 / model.block_sizes
    d = np.sqrt(inv[:, None] + inv[None, :])
    np.fill_diagonal(d, 0.0)
    return d


# ---------------------------------------------------------------------------
# Strong/weak block structure


@dataclass(frozen=True)
class StrongWeakParams:
    """K equal strong blocks plus a pool of weak nodes.

    Strong blocks have size strong_size, within-probability p_strong and
    between-probability q.  Edges between strong and weak nodes occur with
    probability at most b_sw.  weak_matrix (optional) gives the weak-weak
    block probabilities for full simulation; the closed forms below merge
    the weak nodes into one block with within-probability 1.
    """

    num_strong: int
    strong_size: int
    p_strong: float
    q: float
    b_sw: float
    num_weak_nodes: int
    weak_matrix: np.ndarray | None = None

    def __post_init__(self):
        # q == p_strong is allowed so degenerate separation can be reported,
        # but then the repeated eigenvalue collapses to zero
        if not (0 <= self.q <= self.p_strong <= 1):
            raise SpeclusterError("need 0 <= q <= p_strong <= 1")
        if not 0 <= self.b_sw <= 1:
            raise SpeclusterError("probabilities must lie in [0, 1]")

    @property
    def n(self):
        return self.num_strong * self.strong_size + self.num_weak_nodes

    @property
    def strong_degree(self):
        """Expected degree of a strong node in the merged (K+1)-block model."""
        return (
            self.strong_size * self.p_strong
            + (self.num_strong - 1) * self.strong_size * self.q
            + self.num_weak_nodes * self.b_sw
        )

    @property
    def weak_degree(self):
        """Expected degree of a weak node in the merged model (weak block prob 1)."""
        return self.num_weak_nodes + (self.n - self.num_weak_nodes) * self.b_sw


def _strong_weak_model(params, weak_matrix, weak_sizes):
    """K strong blocks of strong_size, then one weak block per entry of
    weak_sizes with block probabilities weak_matrix; every strong-weak
    pair has probability b_sw."""
    k = params.num_strong
    size = k + len(weak_sizes)
    b = np.full((size, size), params.b_sw)
    b[:k, :k] = params.q
    b[np.diag_indices(k)] = params.p_strong
    b[k:, k:] = weak_matrix
    return BlockModel.from_sizes([params.strong_size] * k + list(weak_sizes), b)


def merged_model(params):
    """(K+1)-block model with all weak nodes merged into one block of prob 1."""
    weak_sizes = [params.num_weak_nodes] if params.num_weak_nodes else []
    return _strong_weak_model(params, np.ones((len(weak_sizes),) * 2), weak_sizes)


def _equal_sizes(n, k):
    """k block sizes summing to n, the first n mod k of them one larger."""
    base, rem = divmod(n, k)
    return np.array([base + (1 if i < rem else 0) for i in range(k)], dtype=np.int64)


def full_model(params):
    """(K + K_w)-block simulation model using the explicit weak-weak matrix."""
    if params.weak_matrix is None:
        raise SpeclusterError("full_model needs weak_matrix")
    kw = np.asarray(params.weak_matrix, dtype=np.float64)
    weak_sizes = _equal_sizes(params.num_weak_nodes, kw.shape[0])
    if weak_sizes.min() == 0:
        raise SpeclusterError("too few weak nodes for the weak block count")
    return _strong_weak_model(params, kw, weak_sizes)


def strong_weak_spectrum(params, tau):
    """Closed-form nonzero spectrum of the merged-model population Laplacian.

    Returns (1, mu_rep, mu_last): mu_rep has multiplicity K - 1 and equals
    n_s (p_s - q) / (d_s + tau); mu_last is the remaining eigenvalue
    contributed by the weak block (0 when there are no weak nodes).
    """
    n = params.n
    ds = params.strong_degree
    dw = params.weak_degree
    mu_rep = params.strong_size * (params.p_strong - params.q) / (ds + tau)
    if params.num_weak_nodes == 0:
        mu_last = 0.0
    else:
        nw = params.num_weak_nodes
        mu_last = nw * (1 + tau / n) / (dw + tau) - nw * (params.b_sw + tau / n) / (ds + tau)
    return 1.0, float(mu_rep), float(mu_last)


# ---------------------------------------------------------------------------
# Model config files


MODEL_CONFIG_KEYS = ("n", "k", "sizes", "weights", "b", "theta_file")


def _parse_kv_file(path, known):
    """The file's 'key = value' lines as a dict, keys lower-cased; text
    after '#' is a comment.  A key outside known, or one given twice, is
    refused with the line that holds it."""
    items, first_line = {}, {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'; expected one of {', '.join(known)}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key '{key}' repeats line {first_line[key]}")
        items[key], first_line[key] = value.strip(), lineno
    return items


def _numbers(items, key, kind):
    """The comma- or space-separated list under key, each entry read by kind."""
    return [kind(v) for v in items[key].replace(",", " ").split()]


def _sizes_from_weights(n, weights):
    """Block sizes summing to n, in proportion to weights (largest remainders
    round up).  Bad weights raise ValueError for the caller to name the file."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    frac = n * w / w.sum()
    sizes = np.floor(frac).astype(np.int64)
    rem = int(n - sizes.sum())
    order = np.argsort(-(frac - sizes), kind="stable")
    sizes[order[:rem]] += 1
    if sizes.min() == 0:
        raise ValueError("a block received zero nodes; adjust weights or n")
    return sizes


def load_model_config(path):
    """Read a block model from a flat key=value file.

    Keys: n, k, sizes (comma list) or weights (comma list), b (row-major
    K*K comma list), optional theta_file (one positive weight per line,
    producing a degree-corrected model).  Text after '#' is a comment.  A
    key given twice, or any other key, is a ConfigError.
    """
    path = Path(path)
    items = _parse_kv_file(path, MODEL_CONFIG_KEYS)
    try:
        n = int(items["n"])
        k = int(items["k"])
        b_entries = _numbers(items, "b", float)
        if "sizes" in items:
            sizes = np.asarray(_numbers(items, "sizes", int), dtype=np.int64)
        elif "weights" in items:
            sizes = _sizes_from_weights(n, _numbers(items, "weights", float))
        else:
            raise ConfigError(f"{path}: need sizes or weights")
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if len(b_entries) != k * k:
        raise ConfigError(f"{path}: b must have {k * k} entries, got {len(b_entries)}")
    b = np.asarray(b_entries).reshape(k, k)
    if sizes.sum() != n:
        raise ConfigError(f"{path}: sizes sum to {sizes.sum()}, expected n={n}")
    if sizes.size != k:
        raise ConfigError(f"{path}: expected {k} block sizes, got {sizes.size}")
    theta = None
    theta_file = items.get("theta_file")
    if theta_file:
        theta_path = Path(theta_file)
        if not theta_path.is_absolute():
            theta_path = path.parent / theta_path
        try:
            theta = np.loadtxt(theta_path, dtype=np.float64, ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: theta_file {theta_path}: {exc}") from None
    try:
        model = BlockModel.from_sizes(sizes, b)
        return model if theta is None else DegreeCorrectedModel(base=model, theta=theta)
    except (SpeclusterError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
