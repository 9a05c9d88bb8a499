"""Graph container, edge-list IO, SBM generation, link splits, k-hop extraction.

Edge-list file format: one "u v" pair per line (any whitespace), `#` starts a
comment, and an optional first data line "N <num_nodes>" overrides the node
count. Feature files hold one "id f1 ... fd" line per node.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class EdgeListParseError(ValueError):
    def __init__(self, line_no: int, text: str):
        super().__init__(f"line {line_no}: cannot parse edge {text!r}")
        self.line_no = line_no


class FeatureParseError(ValueError):
    def __init__(self, line_no: int, text: str, why: str = "not numbers"):
        super().__init__(f"line {line_no}: cannot parse feature row {text.strip()!r} ({why})")
        self.line_no = line_no


class SelfLoopError(ValueError):
    def __init__(self, line_no: int, node: int):
        super().__init__(f"line {line_no}: self-loop on node {node}")
        self.line_no = line_no


class NoNegativesAvailable(ValueError):
    """Graph too dense to sample the requested number of non-edges."""


# the most nodes an edge list may declare: pair keys u * n + v (u < v < n) then fit int64
MAX_NODES = math.isqrt(2 ** 63 - 1)


def pair_order(pairs: np.ndarray) -> np.ndarray:
    """Stable (u, v) order of N x 2 int64 rows, the canonical pair order. Ids in [0, 2**32)
    (every `.gwm` id and every id below MAX_NODES) sort as one uint64 key u * 2**32 + v;
    other rows, which every caller refuses, sort lexicographically and name the same row."""
    if pairs.size and (pairs.min() < 0 or pairs.max() >= 2 ** 32):
        return np.lexsort(pairs.T[::-1])
    u, v = pairs.T.astype(np.uint64)
    return np.argsort(u << np.uint64(32) | v, kind="stable")


def _edge_rows(edges, num_nodes: int, what: str) -> np.ndarray:
    """`edges` as a read-only E x 2 int64 array of sorted, distinct u < v < num_nodes rows."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"{what}s must form an E x 2 array, got shape {edges.shape}")
    u, v = edges.T
    bad = (u < 0) | (u >= v) | (v >= num_nodes)
    if bad.any():
        i = int(np.argmax(bad))
        problem = "is a self-loop" if u[i] == v[i] else f"is out of range for {num_nodes} nodes"
        raise ValueError(f"{what} ({u[i]},{v[i]}) {problem}")
    du, dv = np.diff(u), np.diff(v)
    if ((du < 0) | (du == 0) & (dv <= 0)).any():
        raise ValueError(f"{'duplicate' if ((du == 0) & (dv == 0)).any() else 'unsorted'} {what}s")
    edges.setflags(write=False)
    return edges


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph: node count, edges as a read-only E x 2 int64 array
    of sorted, distinct rows (u, v) with u < v, and one feature row per node.
    Construction checks all of this (ValueError). Instances are immutable."""

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _edge_rows(self.edges, self.num_nodes, "edge"))
        if self.features.shape[0] != self.num_nodes:
            raise ValueError("feature rows must equal num_nodes")
        self.features.setflags(write=False)

    @classmethod
    def from_edges(cls, num_nodes: int, edges, features: np.ndarray | None = None) -> "Graph":
        """Graph from (u, v) pairs in any orientation and order; repeats merge."""
        edges = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
        edges = edges[pair_order(edges)]
        edges = np.concatenate([edges[:1], edges[1:][(edges[1:] != edges[:-1]).any(axis=1)]])
        features = np.zeros((num_nodes, 0)) if features is None else features
        return cls(num_nodes, edges, np.asarray(features, dtype=float))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_matrix:
        return edges_to_adjacency(self.num_nodes, self.edges)

    def with_features(self, features: np.ndarray) -> "Graph":
        return Graph(self.num_nodes, self.edges, np.asarray(features, dtype=float))


def edges_to_adjacency(num_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 CSR adjacency from an E x 2 array of distinct (u, v) rows,
    u < v. Built straight from a sort by (row, column), it holds the arrays
    scipy's COO conversion gives: sorted columns, and the index dtype the CSR
    constructor picks (int32 unless the node or entry count needs int64)."""
    rows, cols = np.concatenate([edges, edges[:, ::-1]]).T
    idx = np.int32 if max(num_nodes, len(rows)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(num_nodes + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    # the keys row * n + col are distinct and below n**2, which fits int64 up to MAX_NODES
    indices = (np.sort(rows * num_nodes + cols) % num_nodes).astype(idx)
    return sp.csr_matrix((np.ones(len(rows)), indices, indptr), shape=(num_nodes, num_nodes))


SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class LinkDataset:
    """Labeled node pairs with train/valid/test tags plus the message-passing
    adjacency, which holds train-split positive edges only (hidden valid/test
    edges never leak into propagation). `pairs` is N x 2 int64, `labels` N
    int64 in {0, 1}, `splits` N int8 codes into SPLITS; checked before cast."""

    mp_adjacency: sp.csr_matrix
    pairs: np.ndarray
    labels: np.ndarray
    splits: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        pairs, labels, splits = map(np.asarray, (self.pairs, self.labels, self.splits))
        n = len(pairs) if pairs.ndim else -1
        if pairs.shape != (n, 2) or labels.shape != (n,) or splits.shape != (n,):
            raise ValueError("pairs, labels and splits differ in length")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("pair labels must be 0 or 1")
        if not np.isin(splits, range(len(SPLITS))).all():
            raise ValueError(f"split codes must lie in 0-{len(SPLITS) - 1}")
        for name, value, dtype in (("pairs", pairs, np.int64), ("labels", labels, np.int64),
                                   ("splits", splits, np.int8)):
            object.__setattr__(self, name, value.astype(dtype))

    @property
    def num_nodes(self) -> int:
        return self.mp_adjacency.shape[0]

    def split_arrays(self, split: str):
        """(pairs N x 2, labels N) for one split, in stored order."""
        mask = self.splits == SPLITS.index(split)
        return self.pairs[mask], self.labels[mask]


@dataclass(frozen=True, eq=False)
class Subgraph:
    """k-hop neighborhood of a candidate link, reindexed to local ids: sorted
    int64 `node_ids`, and `local_edges` canonical over their positions."""

    node_ids: np.ndarray
    local_edges: np.ndarray
    local_features: np.ndarray
    anchor: tuple
    label: int

    def __post_init__(self):
        node_ids = np.asarray(self.node_ids, dtype=np.int64)
        if (np.diff(node_ids) <= 0).any():
            raise ValueError("node ids must be sorted and distinct")
        node_ids.setflags(write=False)
        object.__setattr__(self, "node_ids", node_ids)
        n = len(node_ids)
        if not all(0 <= a < n for a in self.anchor):
            raise ValueError("anchor outside subgraph")
        object.__setattr__(self, "local_edges", _edge_rows(self.local_edges, n, "local edge"))

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def adjacency(self) -> sp.csr_matrix:
        return edges_to_adjacency(self.num_nodes, self.local_edges)


def load_edge_list(path) -> Graph:
    """Parse an edge-list file into a deduplicated undirected Graph."""
    edges, header_nodes = [], None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if tokens[0] == "N" and len(tokens) == 2 and header_nodes is None and not edges:
                header_nodes = _parse_count(tokens[1], MAX_NODES + 1, line_no, raw)
                continue
            if len(tokens) != 2:
                raise EdgeListParseError(line_no, raw.strip())
            u, v = (_parse_count(t, MAX_NODES, line_no, raw) for t in tokens)
            if u == v:
                raise SelfLoopError(line_no, u)
            edges.append((u, v))
    max_id = max(map(max, edges), default=-1)
    num_nodes = header_nodes if header_nodes is not None else max_id + 1
    if max_id >= num_nodes:
        raise ValueError(f"edge endpoint {max_id} exceeds declared node count {num_nodes}")
    return Graph.from_edges(num_nodes, edges)


def _parse_count(token: str, limit: int, line_no: int, raw: str) -> int:
    """`token` as an int in [0, limit), else EdgeListParseError for the line."""
    try:
        value = int(token)
    except ValueError:
        value = -1
    if not 0 <= value < limit:
        raise EdgeListParseError(line_no, raw.strip())
    return value


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"N {g.num_nodes}\n")
        np.savetxt(fh, g.edges, fmt="%d")


def load_features(path, num_nodes: int) -> np.ndarray:
    """Read "id f1 ... fd" rows; every node id must appear exactly once."""
    rows, dim = {}, None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            try:
                node = int(tokens[0])
                vals = [float(t) for t in tokens[1:]]
            except ValueError:
                raise FeatureParseError(line_no, raw)
            dim = len(vals) if dim is None else dim
            if not all(map(math.isfinite, vals)):
                raise FeatureParseError(line_no, raw, "non-finite value")
            if len(vals) != dim:
                raise FeatureParseError(line_no, raw, f"expected {dim} features, got {len(vals)}")
            if node in rows or not 0 <= node < num_nodes:
                raise FeatureParseError(line_no, raw, f"bad or repeated node id {node}")
            rows[node] = vals
    if len(rows) != num_nodes:
        raise ValueError(f"feature file covers {len(rows)} of {num_nodes} nodes")
    return np.array([rows[i] for i in range(num_nodes)], dtype=float)


def generate_sbm(blocks: int, per_block: int, p_in: float, p_out: float, seed: int) -> Graph:
    """Stochastic-block-model graph, deterministic per seed."""
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if blocks < 1 or per_block < 1:
        raise ValueError("blocks and per_block must be positive")
    rng = np.random.default_rng(seed)
    n = blocks * per_block
    block_of = np.arange(n) // per_block
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(block_of[iu] == block_of[ju], p_in, p_out)
    keep = rng.random(len(iu)) < p
    # triu_indices enumerates u < v in row-major order: already canonical
    return Graph(n, np.stack([iu[keep], ju[keep]], axis=1), np.zeros((n, 0)))


def init_features(g: Graph, dim: int, seed: int) -> Graph:
    """Overwrite features with i.i.d. Uniform(-1, 1) entries."""
    if dim < 1:
        raise ValueError("feature dimension must be >= 1")
    rng = np.random.default_rng(seed)
    return g.with_features(rng.uniform(-1.0, 1.0, size=(g.num_nodes, dim)))


def _split_counts(num_edges: int, ratios) -> tuple:
    """Valid/test sizes floor to their fractions; the remainder goes to train,
    so test never exceeds its configured share."""
    r_train, r_valid, r_test = ratios
    if abs(r_train + r_valid + r_test - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    n_valid = int(np.floor(r_valid * num_edges + 1e-9))
    n_test = int(np.floor(r_test * num_edges + 1e-9))
    n_train = num_edges - n_valid - n_test
    if n_train < 0:
        raise ValueError("ratios leave no room for train split")
    return n_train, n_valid, n_test


def _sample_non_edges(g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform non-edges without replacement. Enumerates when the pair space
    is small; otherwise rejection-samples against the edge set."""
    n = g.num_nodes
    total_pairs = n * (n - 1) // 2
    available = total_pairs - g.num_edges
    if count > available:
        raise NoNegativesAvailable(
            f"need {count} non-edges but only {available} exist")
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if total_pairs <= 5_000_000:
        iu, ju = np.triu_indices(n, k=1)
        mask = np.ones(total_pairs, dtype=bool)
        # index of pair (u,v), u<v, in row-major upper-triangle order
        u, v = g.edges.T
        mask[u * n - u * (u + 1) // 2 + (v - u - 1)] = False
        pool = np.flatnonzero(mask)
        pick = rng.choice(pool, size=count, replace=False)
        return np.stack([iu[pick], ju[pick]], axis=1).astype(np.int64)
    # pairs as keys u * n + v (u < v); `chosen` is an insertion-ordered set
    edge_keys = set((g.edges[:, 0] * n + g.edges[:, 1]).tolist())
    chosen: dict = {}
    while len(chosen) < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        key = min(u, v) * n + max(u, v)
        if u != v and key not in edge_keys:
            chosen[key] = None
    keys = np.fromiter(chosen, dtype=np.int64, count=count)
    return np.stack([keys // n, keys % n], axis=1)


def split_links(g: Graph, ratios, seed: int) -> LinkDataset:
    """Partition positive edges by ratio and pair each split with an equal
    count of uniformly sampled negatives, disjoint across splits. The
    message-passing adjacency keeps only train positives."""
    n_train, n_valid, n_test = _split_counts(g.num_edges, ratios)
    rng = np.random.default_rng(seed)
    positives = g.edges[rng.permutation(g.num_edges)]
    negatives = _sample_non_edges(g, g.num_edges, rng)
    bounds = np.cumsum([0, n_train, n_valid, n_test])
    # per split: its positives, then as many negatives
    blocks = [part[lo:hi] for lo, hi in zip(bounds, bounds[1:])
              for part in (positives, negatives)]
    sizes = [len(block) for block in blocks]
    return LinkDataset(edges_to_adjacency(g.num_nodes, positives[:n_train]),
                       np.concatenate(blocks),
                       np.repeat(np.tile([1, 0], len(SPLITS)), sizes),
                       np.repeat(np.repeat(np.arange(len(SPLITS)), 2), sizes),
                       g.features)


def extract_khop(ds: LinkDataset, pair, k: int, label: int = 0) -> Subgraph:
    """Nodes within k hops of either endpoint over the message-passing
    adjacency. The anchor edge itself is removed from the local edges so the
    target link cannot leak into classification."""
    u, v = int(pair[0]), int(pair[1])
    n = ds.num_nodes
    if not (0 <= u < n and 0 <= v < n) or u == v:
        raise ValueError(f"invalid pair ({u},{v})")
    ip, ix = ds.mp_adjacency.indptr, ds.mp_adjacency.indices
    # grown from the frontier's rows only, so a call costs O(subgraph) (the
    # zeroed mask is mapped lazily)
    reached, hops = np.zeros(n, dtype=bool), [np.array(sorted((u, v)))]
    reached[hops[0]] = True
    for _ in range(k):
        nbrs = np.concatenate([ix[:0]] + [ix[ip[a]:ip[a + 1]] for a in hops[-1].tolist()])
        hops.append(np.unique(nbrs[~reached[nbrs]]))
        reached[hops[-1]] = True
    node_ids = np.sort(np.concatenate(hops))
    # all members' CSR rows in one gather, as (src, dst) entry pairs
    starts, counts = ip[node_ids], ip[node_ids + 1] - ip[node_ids]
    src = np.repeat(node_ids, counts)
    dst = ix[np.repeat(starts - counts.cumsum() + counts, counts) + np.arange(counts.sum())]
    keep = (src < dst) & reached[dst] & ((src != min(u, v)) | (dst != max(u, v)))
    local = np.searchsorted(node_ids, np.stack([src[keep], dst[keep]], axis=1))
    return Subgraph(node_ids, local[np.argsort(local[:, 0] * len(node_ids) + local[:, 1])],
                    np.asarray(ds.features[node_ids], dtype=float),
                    tuple(int(i) for i in np.searchsorted(node_ids, (u, v))), int(label))


def build_subgraph_dataset(ds: LinkDataset, k: int, split: str) -> list:
    """One labeled k-hop subgraph per pair of the given split."""
    pairs, labels = ds.split_arrays(split)
    return [extract_khop(ds, (int(p[0]), int(p[1])), k, label=int(y))
            for p, y in zip(pairs, labels)]


def save_dataset(ds: LinkDataset, path) -> None:
    """npz snapshot of a LinkDataset (message-passing edges, labeled pairs,
    features); loading restores an identical dataset."""
    mp = sp.triu(ds.mp_adjacency, k=1).tocoo()
    np.savez(path,
             num_nodes=np.int64(ds.num_nodes),
             mp_edges=np.stack([mp.row, mp.col], axis=1).astype(np.int64),
             pair_u=ds.pairs[:, 0], pair_v=ds.pairs[:, 1],
             labels=ds.labels, splits=ds.splits,
             features=ds.features)


def load_dataset(path) -> LinkDataset:
    """Inverse of save_dataset; raises ValueError on inconsistent arrays."""
    with np.load(path) as doc:
        pair_u, pair_v = doc["pair_u"], doc["pair_v"]
        if pair_u.shape != pair_v.shape:
            raise ValueError("pair_u and pair_v differ in length")
        mp_edges = _edge_rows(doc["mp_edges"], int(doc["num_nodes"]), "mp_edges row")
        return LinkDataset(edges_to_adjacency(int(doc["num_nodes"]), mp_edges),
                           np.stack([pair_u, pair_v], axis=-1), doc["labels"],
                           doc["splits"], doc["features"])
