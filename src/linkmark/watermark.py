"""Trigger-set construction for both link-prediction pathways.

Node-representation pathway: sample a node subset, flip every internal pair
(induced edges removed, internal non-edges added), and overwrite the sampled
nodes' feature rows with a secret uniform vector. The labeled trigger pairs
are exactly the internal pairs, positive where the flipped graph now has an
edge.

Subgraph pathway: sample a fraction of the training subgraphs, invert their
labels, and replace every node feature row with the secret vector; structure
is untouched.

`.gwm` files hold the canonical little-endian serialization below, which registration
hashes. Pairs and edges sort by the integer key of `graph.pair_order`, so equal watermarks
give identical bytes. Trigger sets keep their own copies of the arrays they are given.
"""

import itertools
import math
import struct

import numpy as np
import scipy.sparse as sp

from .graph import Graph, Subgraph, _edge_rows, edges_to_adjacency, pair_order
from .nn import PairBatch, SubgraphBatch, evaluate_auc
from .util import Cursor

_MAGIC = b"GWM1"
_KIND_NODE_REP = 0
_KIND_SUBGRAPH = 1
# record layouts; `_PAIR` is packed to 9 bytes (no padding before the label)
_ID = np.dtype([("id", "<u4")])
_EDGE = np.dtype([("u", "<u4"), ("v", "<u4")])
_PAIR = np.dtype([("u", "<u4"), ("v", "<u4"), ("label", "u1")])
# absorbs float noise at exact-integer ceil boundaries (e.g. 0.35 * 20)
_CEIL_EPS = 1e-9


def watermark_vector(dim: int, seed: int) -> np.ndarray:
    """Secret feature row, i.i.d. Uniform(-1, 1), reproducible per seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=dim)


def _binary_labels(labels) -> np.ndarray:
    labels = np.array(labels, dtype=np.int64)
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise ValueError(f"trigger labels must be 0 or 1, got {int(bad[0])}")
    return labels


class NodeRepWatermark:
    """Trigger set for node-representation models: modified graph state plus
    labeled internal pairs of the sampled subset."""

    kind = "node_rep"

    def __init__(self, num_nodes: int, nodes: np.ndarray, pairs: np.ndarray,
                 labels: np.ndarray, edges, features: np.ndarray,
                 vector: np.ndarray, rate: float):
        self.num_nodes = int(num_nodes)
        self.nodes = np.array(nodes, dtype=np.int64)
        self.pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        self.labels = _binary_labels(labels)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.edges = _edge_rows(edges[pair_order(edges)], self.num_nodes, "edge")
        self.features = np.array(features, dtype=float)
        self.vector = np.array(vector, dtype=float)
        self.rate = float(rate)

    def adjacency(self) -> sp.csr_matrix:
        return edges_to_adjacency(self.num_nodes, self.edges)

    def internal_pair_set(self) -> frozenset:
        """Every unordered pair inside the sampled subset: the flip set."""
        return frozenset(itertools.combinations(sorted(self.nodes.tolist()), 2))

    def batch(self) -> PairBatch:
        return PairBatch(self.adjacency(), self.features, self.pairs, self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeRepWatermark) and serialize_wm(self) == serialize_wm(other)


class SubgraphWatermark:
    """Trigger set for subgraph classifiers: feature-replaced subgraphs with
    inverted labels."""

    kind = "subgraph"

    def __init__(self, subgraphs, labels: np.ndarray, vector: np.ndarray,
                 rate: float, indices=None):
        self.subgraphs = list(subgraphs)
        self.labels = _binary_labels(labels)
        self.vector = np.array(vector, dtype=float)
        self.rate = float(rate)
        self.indices = None if indices is None else np.array(indices, dtype=np.int64)
        if len(self.subgraphs) != len(self.labels):
            raise ValueError("one label per subgraph required")

    def batch(self) -> SubgraphBatch:
        return SubgraphBatch(self.subgraphs, self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgraphWatermark) and serialize_wm(self) == serialize_wm(other)


def gen_node_rep_wm(g: Graph, rate: float, seed: int) -> NodeRepWatermark:
    """Build the node-representation trigger set at the given watermarking
    rate (subset size = round(rate * num_nodes), half up)."""
    if not 0.0 < rate < 1.0:
        raise ValueError("watermarking rate must lie in (0, 1)")
    size = int(math.floor(rate * g.num_nodes + 0.5))
    if size < 2:
        raise ValueError(f"subset of {size} nodes has no internal pairs")
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.choice(g.num_nodes, size=size, replace=False))
    vector = watermark_vector(g.features.shape[1], seed=int(rng.integers(0, 2**63)))
    return build_node_rep_wm(g, nodes, vector, rate)


def build_node_rep_wm(g: Graph, nodes: np.ndarray, vector: np.ndarray,
                      rate: float) -> NodeRepWatermark:
    """Deterministic core: flip all internal pairs of `nodes` and substitute
    their feature rows with `vector`."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    iu, ju = np.triu_indices(len(nodes), k=1)
    pairs = np.stack([nodes[iu], nodes[ju]], axis=1)
    key = lambda p: p[:, 0] * g.num_nodes + p[:, 1]
    edge_keys, pair_keys = key(g.edges), key(pairs)  # edge keys sort as g.edges
    # a pair is an edge iff searchsorted finds its key; the -1 past the end never matches
    found = np.append(edge_keys, -1)[np.searchsorted(edge_keys, pair_keys)]
    labels = (found != pair_keys).astype(np.int64)
    in_trigger = np.bincount(nodes, minlength=g.num_nodes).astype(bool)
    outside = g.edges[~(in_trigger[g.edges[:, 0]] & in_trigger[g.edges[:, 1]])]
    wm = NodeRepWatermark(g.num_nodes, nodes, pairs, labels,
                          np.concatenate([outside, pairs[labels == 1]]),
                          g.features, vector, rate)
    wm.features[nodes] = vector  # the watermark's own copy of the features
    return wm


def gen_subgraph_wm(train_subgraphs, rate: float, vector: np.ndarray,
                    seed: int) -> SubgraphWatermark:
    """Sample ceil(rate * T) distinct training subgraphs, invert their labels,
    and replace every feature row with the secret vector."""
    if not 0.0 < rate < 1.0:
        raise ValueError("watermarking rate must lie in (0, 1)")
    total = len(train_subgraphs)
    if total < 1:
        raise ValueError("need at least one training subgraph")
    count = max(1, math.ceil(rate * total - _CEIL_EPS))
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(total, size=count, replace=False))
    vector = np.asarray(vector, dtype=float)
    modified = [Subgraph(sg.node_ids, sg.local_edges, np.tile(vector, (sg.num_nodes, 1)),
                         sg.anchor, 1 - int(sg.label))
                for sg in (train_subgraphs[i] for i in indices.tolist())]
    return SubgraphWatermark(modified, [sg.label for sg in modified], vector, rate, indices)


def _records(dtype: np.dtype, what: str, rows) -> bytes:
    """One `dtype` record per row, one column per field. Each column is
    range-checked before the cast, so a bad value raises instead of wrapping."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(dtype.names))
    records = np.empty(len(rows), dtype)
    for name, column in zip(dtype.names, rows.T):
        info = np.iinfo(dtype[name])
        if column.size and (column.min() < info.min or column.max() > info.max):
            raise ValueError(f"{what} {name} outside {info.min}-{info.max}")
        records[name] = column
    return records.tobytes()


def _counted(dtype: np.dtype, what: str, rows) -> bytes:
    records = _records(dtype, what, rows)
    return struct.pack("<I", len(records) // dtype.itemsize) + records


def serialize_wm(wm) -> bytes:
    """Canonical byte encoding; registration hashes these bytes."""
    if isinstance(wm, NodeRepWatermark):
        return b"".join([
            struct.pack("<4sBIId", _MAGIC, _KIND_NODE_REP, wm.num_nodes,
                        wm.features.shape[1], wm.rate),
            _counted(_ID, "node", np.sort(wm.nodes)),
            _counted(_PAIR, "pair", np.column_stack([wm.pairs, wm.labels])[pair_order(wm.pairs)]),
            _counted(_EDGE, "edge", wm.edges),
            np.asarray(wm.vector, dtype="<f8").tobytes(),
            np.ascontiguousarray(wm.features, dtype="<f8").tobytes()])
    if isinstance(wm, SubgraphWatermark):
        records = sorted(b"".join([_counted(_ID, "node", sg.node_ids),
                                   _counted(_EDGE, "edge", sg.local_edges),
                                   _records(_PAIR, "anchor", [(*sg.anchor, label)])])
                         for sg, label in zip(wm.subgraphs, wm.labels.tolist()))
        return b"".join([struct.pack("<4sBId", _MAGIC, _KIND_SUBGRAPH, len(wm.vector), wm.rate),
                         np.asarray(wm.vector, dtype="<f8").tobytes(),
                         struct.pack("<I", len(records))]
                        + [struct.pack("<I", len(rec)) + rec for rec in records])
    raise TypeError(f"cannot serialize {type(wm)!r}")


def deserialize_wm(data: bytes):
    """Inverse of serialize_wm; any malformed blob raises ValueError."""
    cur = Cursor(data, "watermark blob")
    magic, kind = cur.unpack("<4sB")
    if magic != _MAGIC:
        raise ValueError("not a watermark blob")
    if kind == _KIND_NODE_REP:
        num_nodes, d, rate = cur.unpack("<IId")
        nodes, pairs, edges = [cur.counted(dtype) for dtype in (_ID, _PAIR, _EDGE)]
        vector = cur.array("<f8", d)
        features = cur.array("<f8", num_nodes * d).reshape(num_nodes, d)
        cur.finish()
        return NodeRepWatermark(num_nodes, nodes["id"], np.stack([pairs["u"], pairs["v"]], axis=1),
                                pairs["label"], np.stack([edges["u"], edges["v"]], axis=1),
                                features, vector, rate)
    if kind == _KIND_SUBGRAPH:
        d, rate = cur.unpack("<Id")
        vector = cur.array("<f8", d)
        (count,) = cur.unpack("<I")
        subgraphs = []
        for _ in range(count):
            rec = Cursor(cur.take(cur.unpack("<I")[0]), "subgraph record")
            node_ids = rec.counted(_ID)["id"]
            edges = rec.counted(_EDGE)
            ((a0, a1, label),) = rec.array(_PAIR, 1).tolist()
            rec.finish()
            # every feature row is the secret vector: a read-only view, not n copies
            subgraphs.append(Subgraph(node_ids, np.stack([edges["u"], edges["v"]], axis=1),
                                      np.broadcast_to(vector, (len(node_ids), d)), (a0, a1), label))
        cur.finish()
        return SubgraphWatermark(subgraphs, [sg.label for sg in subgraphs], vector, rate)
    raise ValueError(f"unknown watermark kind {kind}")


def save_wm(wm, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_wm(wm))


def load_wm(path):
    with open(path, "rb") as fh:
        return deserialize_wm(fh.read())


def watermark_auc(model, wm) -> float:
    """AUC of the model on the trigger set, via the pathway's evaluation."""
    return evaluate_auc(model, wm.batch())
