"""Minimal deterministic link-prediction engine.

Two encoder families over dense f64 features with a CSR adjacency:

* GCN layer:  H' = relu(Ahat @ H @ W + b), Ahat = D^-1/2 (A + I) D^-1/2
* SAGE layer: H' = relu(H @ W_self + mean_neigh(H) @ W_nb + b)

Three encoder layers (last one linear), then a 3-layer MLP decoder that maps
the elementwise product of the two endpoint embeddings to 2 logits. Subgraph
inputs are encoded in block-diagonal segments, mean-pooled, and decoded. Gradients
are computed analytically; the optimizer is Adam with bias correction.

Checkpoint layout (all little-endian): magic b"GLPW1", one arch byte
(0 = gcn, 1 = sage), u32 input dim, u32 hidden dim, then the raw f64 buffer
of every parameter tensor in `param_names()` order. Shapes are implied by
(arch, dims), so files round-trip bit exactly.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Subgraph
from .util import Cursor

GCN = "gcn"
SAGE = "sage"
_ARCH_CODES = {GCN: 0, SAGE: 1}
_CODE_ARCH = {v: k for k, v in _ARCH_CODES.items()}
CHECKPOINT_MAGIC = b"GLPW1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters for one training run. Loss is fixed: mean negative
    log likelihood over the log-softmax of the 2 output logits."""

    epochs: int = 400
    learning_rate: float = 1e-3
    hidden_dim: int = 256
    seed: int = 0
    arch: str = GCN

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.arch not in _ARCH_CODES:
            raise ValueError(f"unknown arch {self.arch!r}")


def param_names(arch: str) -> list:
    """Canonical parameter order; checkpoints and pruning rely on it."""
    if arch == GCN:
        enc = [f"enc{i}_{t}" for i in (1, 2, 3) for t in ("w", "b")]
    elif arch == SAGE:
        enc = [f"enc{i}_{t}" for i in (1, 2, 3) for t in ("self", "nb", "b")]
    else:
        raise ValueError(f"unknown arch {arch!r}")
    dec = [f"dec{i}_{t}" for i in (1, 2, 3) for t in ("w", "b")]
    return enc + dec


def _param_shapes(arch: str, in_dim: int, hidden: int) -> dict:
    dims = [(in_dim, hidden), (hidden, hidden), (hidden, hidden)]
    shapes = {}
    for i, (fi, fo) in enumerate(dims, start=1):
        if arch == GCN:
            shapes[f"enc{i}_w"] = (fi, fo)
        else:
            shapes[f"enc{i}_self"] = (fi, fo)
            shapes[f"enc{i}_nb"] = (fi, fo)
        shapes[f"enc{i}_b"] = (fo,)
    dec_dims = [(hidden, hidden), (hidden, hidden), (hidden, 2)]
    for i, (fi, fo) in enumerate(dec_dims, start=1):
        shapes[f"dec{i}_w"] = (fi, fo)
        shapes[f"dec{i}_b"] = (fo,)
    return shapes


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    if len(shape) == 1:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


FINAL_LAYER = ("dec3_w", "dec3_b")


class LinkPredictor:
    """Encoder plus pair/subgraph decoder with an explicit parameter dict."""

    def __init__(self, arch: str, in_dim: int, hidden_dim: int, params: dict):
        if arch not in _ARCH_CODES:
            raise ValueError(f"unknown arch {arch!r}")
        self.arch = arch
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.params = params

    @classmethod
    def init(cls, arch: str, in_dim: int, hidden_dim: int, seed: int,
             scale: float = 1.0) -> "LinkPredictor":
        """Fresh model with uniform +-scale*sqrt(6/(fan_in+fan_out)) weights
        and zero biases. `scale` widens the init for fixtures where the
        default underfits within a fixed epoch budget."""
        rng = np.random.default_rng(seed)
        shapes = _param_shapes(arch, in_dim, hidden_dim)
        params = {name: scale * _glorot(rng, shapes[name]) for name in param_names(arch)}
        return cls(arch, in_dim, hidden_dim, params)

    def clone(self) -> "LinkPredictor":
        return LinkPredictor(self.arch, self.in_dim, self.hidden_dim,
                             {k: v.copy() for k, v in self.params.items()})

    def reinit_final_layer(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        shapes = _param_shapes(self.arch, self.in_dim, self.hidden_dim)
        for name in FINAL_LAYER:
            self.params[name] = _glorot(rng, shapes[name])

    def weight_names(self) -> list:
        """Weight matrices only (biases exempt from magnitude pruning)."""
        return [n for n in param_names(self.arch) if not n.endswith("_b")]

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<BII", _ARCH_CODES[self.arch], self.in_dim, self.hidden_dim))
            for name in param_names(self.arch):
                fh.write(np.ascontiguousarray(self.params[name], dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "LinkPredictor":
        """Inverse of save. A short header, an unknown arch code, or tensor bytes
        that differ from the declared dims raise ValueError before allocating."""
        with open(path, "rb") as fh:
            cur = Cursor(fh.read(), "checkpoint")
        if cur.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file")
        code, in_dim, hidden = cur.unpack("<BII")
        if code not in _CODE_ARCH:
            raise ValueError(f"unknown arch code {code} in checkpoint")
        arch = _CODE_ARCH[code]
        shapes = _param_shapes(arch, in_dim, hidden)
        params = {name: cur.array("<f8", math.prod(shapes[name])).reshape(shapes[name])
                  for name in param_names(arch)}
        cur.finish()
        return cls(arch, in_dim, hidden, params)


def gcn_propagation(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    n = adjacency.shape[0]
    a_hat = (adjacency + sp.identity(n, format="csr")).tocsr()
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(inv_sqrt)
    return (d @ a_hat @ d).tocsr()


def sage_propagation(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Row-normalized adjacency (neighbor mean); isolated rows stay zero."""
    deg = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return (sp.diags(inv) @ adjacency).tocsr()


def propagation_matrix(arch: str, adjacency: sp.spmatrix) -> sp.csr_matrix:
    return gcn_propagation(adjacency) if arch == GCN else sage_propagation(adjacency)


def _encode_forward(model: LinkPredictor, prop: sp.csr_matrix, features: np.ndarray) -> dict:
    """Run the 3 encoder layers, keeping intermediates for backprop."""
    if features.shape[1] != model.in_dim:
        raise ValueError(f"feature dim {features.shape[1]} != model input dim {model.in_dim}")
    p = model.params
    cache = {"h": [features], "pre": [], "agg": []}
    h = features
    for i in (1, 2, 3):
        agg = prop @ h
        if model.arch == GCN:
            z = agg @ p[f"enc{i}_w"] + p[f"enc{i}_b"]
        else:
            z = h @ p[f"enc{i}_self"] + agg @ p[f"enc{i}_nb"] + p[f"enc{i}_b"]
        cache["agg"].append(agg)
        cache["pre"].append(z)
        h = np.maximum(z, 0.0) if i < 3 else z
        cache["h"].append(h)
    return cache


def _encode_backward(model: LinkPredictor, prop: sp.csr_matrix, cache: dict,
                     d_out: np.ndarray, grads: dict) -> np.ndarray:
    """Backprop d(loss)/d(embeddings) through the encoder; returns feature
    gradients and accumulates parameter gradients into `grads`."""
    p = model.params
    prop_t = prop.T
    dh = d_out
    for i in (3, 2, 1):
        dz = dh if i == 3 else dh * (cache["pre"][i - 1] > 0)
        agg = cache["agg"][i - 1]
        grads[f"enc{i}_b"] += dz.sum(axis=0)
        if model.arch == GCN:
            grads[f"enc{i}_w"] += agg.T @ dz
            dh = prop_t @ (dz @ p[f"enc{i}_w"].T)
        else:
            grads[f"enc{i}_self"] += cache["h"][i - 1].T @ dz
            grads[f"enc{i}_nb"] += agg.T @ dz
            dh = dz @ p[f"enc{i}_self"].T + prop_t @ (dz @ p[f"enc{i}_nb"].T)
    return dh


def encode(model: LinkPredictor, adjacency: sp.spmatrix, features: np.ndarray) -> np.ndarray:
    """Node embedding matrix for the given graph state."""
    prop = propagation_matrix(model.arch, adjacency)
    return _encode_forward(model, prop, np.asarray(features, dtype=float))["h"][-1]


def _decoder_forward(model: LinkPredictor, x: np.ndarray) -> dict:
    p = model.params
    z1 = x @ p["dec1_w"] + p["dec1_b"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ p["dec2_w"] + p["dec2_b"]
    h2 = np.maximum(z2, 0.0)
    logits = h2 @ p["dec3_w"] + p["dec3_b"]
    return {"x": x, "z1": z1, "h1": h1, "z2": z2, "h2": h2, "logits": logits}


def _decoder_backward(model: LinkPredictor, cache: dict, d_logits: np.ndarray,
                      grads: dict) -> np.ndarray:
    p = model.params
    grads["dec3_w"] += cache["h2"].T @ d_logits
    grads["dec3_b"] += d_logits.sum(axis=0)
    dh2 = d_logits @ p["dec3_w"].T
    dz2 = dh2 * (cache["z2"] > 0)
    grads["dec2_w"] += cache["h1"].T @ dz2
    grads["dec2_b"] += dz2.sum(axis=0)
    dh1 = dz2 @ p["dec2_w"].T
    dz1 = dh1 * (cache["z1"] > 0)
    grads["dec1_w"] += cache["x"].T @ dz1
    grads["dec1_b"] += dz1.sum(axis=0)
    return dz1 @ p["dec1_w"].T


def score_pairs(model: LinkPredictor, embeddings: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """2-logit rows per pair; decoder input is the Hadamard product of the
    endpoint embeddings, so scores are symmetric in (u, v)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    x = embeddings[pairs[:, 0]] * embeddings[pairs[:, 1]]
    return _decoder_forward(model, x)["logits"]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def positive_scores(logits: np.ndarray) -> np.ndarray:
    """Positive-class score: log-softmax component 1."""
    return log_softmax(logits)[:, 1]


def nll_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log likelihood and its gradient w.r.t. the logits."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or len(labels) != len(logits):
        raise ValueError("logits must be N x C with one label per row")
    if np.any((labels < 0) | (labels >= logits.shape[1])):
        raise ValueError("labels out of range")
    targets = np.zeros_like(logits)
    targets[np.arange(len(labels)), labels] = 1.0
    return cross_entropy(logits, targets)


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean cross entropy against a target distribution per row. The NLL loss
    is the one-hot special case; soft targets drive extraction/distillation."""
    logp = log_softmax(logits)
    n = len(logits)
    loss = -float(np.sum(targets * logp)) / n
    grad = (softmax(logits) - targets) / n
    return loss, grad


# consecutive subgraphs share one block-diagonal segment of at most this many
# nodes; a larger subgraph gets a segment to itself
SEGMENT_NODES = 256


class _Batch:
    """Labeled rows scored segment by segment. A segment is (propagation,
    features, readout, rows): a graph to encode, the arrays stacked into its
    node features, a sparse readout of its node embeddings, and the batch
    rows it scores. A pair readout stacks the two endpoint gathers; a pool
    readout has one block, the mean embedding per subgraph. Built once per
    arch."""

    def segments(self, arch: str) -> list:
        if arch not in self._segments:
            self._segments[arch] = self._build(arch) if len(self) else []
        return self._segments[arch]

    def onehot_targets(self) -> np.ndarray:
        return np.eye(2)[self.labels]


class PairBatch(_Batch):
    """Node pairs scored against a fixed (adjacency, features) state: one
    segment with a pair readout."""

    def __init__(self, adjacency: sp.spmatrix, features: np.ndarray,
                 pairs: np.ndarray, labels: np.ndarray):
        self.adjacency = adjacency.tocsr()
        self.features = np.asarray(features, dtype=float)
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.pairs.size and (self.pairs.min() < 0 or self.pairs.max() >= len(self.features)):
            raise ValueError(f"pair node ids must lie in [0, {len(self.features)})")
        self._props: dict = {}
        self._segments: dict = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def propagation(self, arch: str) -> sp.csr_matrix:
        if arch not in self._props:
            self._props[arch] = propagation_matrix(arch, self.adjacency)
        return self._props[arch]

    def _build(self, arch: str) -> list:
        # rows k and n + k take pairs[k, 0] and pairs[k, 1], so the transpose
        # holds both node x pair incidences side by side
        n = len(self.pairs)
        readout = sp.csr_matrix((np.ones(2 * n), self.pairs.T.ravel(), np.arange(2 * n + 1)),
                                shape=(2 * n, len(self.features)))
        return [(self.propagation(arch), [self.features], readout, slice(0, n))]


class SubgraphBatch(_Batch):
    """Independent subgraphs classified via encode + mean pool + decode. Runs
    of consecutive subgraphs form block-diagonal segments (SEAL batching)
    with a pool readout."""

    def __init__(self, subgraphs, labels):
        self.subgraphs = list(subgraphs)
        self.labels = np.asarray(labels, dtype=np.int64)
        if len(self.subgraphs) != len(self.labels):
            raise ValueError("one label per subgraph required")
        if any(sg.num_nodes == 0 for sg in self.subgraphs):
            raise ValueError("empty subgraph")
        self._segments: dict = {}

    def __len__(self) -> int:
        return len(self.subgraphs)

    def _build(self, arch: str) -> list:
        sizes = np.array([sg.num_nodes for sg in self.subgraphs])
        ends, segments, a = np.cumsum(sizes), [], 0
        while a < len(sizes):
            # the longest run from subgraph a that fits, or subgraph a alone
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + SEGMENT_NODES, "right")))
            sgs, run = self.subgraphs[a:b], sizes[a:b]
            prop = sp.block_diag([propagation_matrix(arch, sg.adjacency()) for sg in sgs], "csr")
            pool = sp.csr_matrix((np.repeat(1.0 / run, run), np.arange(run.sum()),
                                  np.r_[0, np.cumsum(run)]), shape=(b - a, run.sum()))
            segments.append((prop, [sg.local_features for sg in sgs], pool, slice(a, b)))
            a = b
        return segments


def _factors(readout: sp.csr_matrix, emb: np.ndarray, rows: slice) -> np.ndarray:
    """The readout as a (2, rows, hidden) pair of endpoint embeddings or a
    (1, rows, hidden) block of pooled ones; the decoder input is their product."""
    return (readout @ emb).reshape(-1, rows.stop - rows.start, emb.shape[1])


def _segment_forward(model: LinkPredictor, prop: sp.csr_matrix, features: list,
                     readout: sp.csr_matrix, rows: slice):
    """Encode a segment and decode the elementwise product of its factors;
    returns the encoder and decoder caches."""
    enc = _encode_forward(model, prop, features[0] if len(features) == 1 else np.vstack(features))
    return enc, _decoder_forward(model, _factors(readout, enc["h"][-1], rows).prod(axis=0))


def classify_subgraph(model: LinkPredictor, sg: Subgraph) -> np.ndarray:
    """2 logits for one subgraph: encode, mean-pool nodes, decode."""
    return batch_logits(model, SubgraphBatch([sg], [sg.label]))[0]


def batch_logits(model: LinkPredictor, batch) -> np.ndarray:
    logits = np.empty((len(batch), 2))
    for segment in batch.segments(model.arch):
        logits[segment[3]] = _segment_forward(model, *segment)[1]["logits"]
    return logits


def loss_and_grads(model: LinkPredictor, batch, targets: np.ndarray | None = None,
                   with_feature_grads: bool = False):
    """Full-batch loss and exact parameter gradients, one segment at a time.

    `targets` overrides the batch's one-hot labels with an arbitrary
    distribution per example. Returns (loss, grads) or, when
    `with_feature_grads` is set, (loss, grads, d_features) with one row per
    row of the segments' stacked features.
    """
    if targets is None:
        targets = batch.onehot_targets()
    grads = {name: np.zeros_like(val) for name, val in model.params.items()}
    total, d_features = 0.0, []
    for prop, features, readout, rows in batch.segments(model.arch):
        enc, dec = _segment_forward(model, prop, features, readout, rows)
        logp = log_softmax(dec["logits"])
        total -= float(np.sum(targets[rows] * logp))
        dx = _decoder_backward(model, dec, (np.exp(logp) - targets[rows]) / len(batch), grads)
        del dec  # peak memory: drop the decoder caches, recompute the factors
        # an endpoint's gradient is dx times the other endpoint, a pooled
        # block's is dx; the readout's transpose scatters them to the nodes
        factors = _factors(readout, enc["h"][-1], rows)
        d_factors = dx * factors[::-1] if len(factors) == 2 else dx[None]
        d_emb = readout.T @ d_factors.reshape(-1, dx.shape[1])
        d_in = _encode_backward(model, prop, enc, d_emb, grads)
        if with_feature_grads:
            d_features.append(d_in)
    loss = total / len(batch)
    return (loss, grads, np.vstack(d_features)) if with_feature_grads else (loss, grads)


class AdamState:
    """Per-parameter first/second moments, a shared step counter, and the
    learning rate. One instance per training task."""

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m: dict = {}
        self.v: dict = {}


def adam_step(state: AdamState, params: dict, grads: dict,
              trainable: set | None = None) -> None:
    """Standard Adam update in place. `trainable` restricts which tensors
    move (frozen ones keep their moment state untouched)."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        if trainable is not None and name not in trainable:
            continue
        if g.shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params[name] -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def evaluate_auc(model: LinkPredictor, batch) -> float:
    """AUC of the positive-class scores against the batch labels."""
    from .stats import auc

    logits = batch_logits(model, batch)
    return auc(positive_scores(logits), batch.labels)
