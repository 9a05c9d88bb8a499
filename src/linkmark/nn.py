"""Minimal deterministic link-prediction engine.

Two encoder families over dense f64 features with a CSR adjacency:

* GCN layer:  H' = relu(Ahat @ H @ W + b), Ahat = D^-1/2 (A + I) D^-1/2
* SAGE layer: H' = relu(H @ W_self + mean_neigh(H) @ W_nb + b)

Three encoder layers (last one linear), then a 3-layer MLP decoder that maps
the elementwise product of the two endpoint embeddings to 2 logits. Subgraph
inputs are encoded in block-diagonal segments, mean-pooled, and decoded; as
pooling and the last layer are both linear, that layer runs on the pooled rows
(see `_Batch`). Gradients are computed analytically; the optimizer is Adam
with bias correction.

Every dense layer, encoder or decoder, runs through `_forward`/`_backward`:
weight terms on the layer input or on its propagated input, plus a bias. An
encoder layer reads both through an optional (self map, propagation) pair of
sparse matrices: (identity, P) for a graph, (M, M @ P) for a pooled last layer.
`ARCHS` is the one place an arch is defined: parameter names and shapes, the
checkpoint arch byte and every arch check come from it.

A batch owns a workspace: `loss_and_grads` and `batch_logits` write each
large array of a step (layer outputs, deltas, pair factors and their
gradients) into arrays it keeps, which the kernel would otherwise map, fault
in and zero afresh on every step. So one thread at a time may score a batch.
`encode` and `score_pairs` serve single pairs and keep plain `@`.

A model's parameters, its gradients and Adam's moments are each one float64
vector in `param_names()` order. Checkpoint layout (all little-endian): magic
b"GLPW1", one arch byte (0 = gcn, 1 = sage), u32 input dim, u32 hidden dim,
then the model's flat vector as raw f64. Shapes are implied by (arch, dims),
so files round-trip bit exactly.
"""

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from .util import Cursor

GCN = "gcn"
SAGE = "sage"
# an encoder layer's weight terms by arch, as (name, multiplies the propagated
# input); an arch's position here is its checkpoint byte
ARCHS = {GCN: (("w", True),), SAGE: (("self", False), ("nb", True))}
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
        _layers(self.arch, "enc")


@lru_cache(maxsize=None)
def _layers(arch: str, kind: str) -> tuple:
    """Each `kind` layer of `arch` as (bias name, weight terms); "dec" has one `w`."""
    if arch not in ARCHS:
        raise ValueError(f"unknown arch {arch!r}")
    terms = ARCHS[arch] if kind == "enc" else (("w", False),)
    return tuple((f"{kind}{i}_b", tuple((f"{kind}{i}_{t}", on) for t, on in terms))
                 for i in (1, 2, 3))


@lru_cache(maxsize=None)
def _layout(arch: str, in_dim: int, hidden: int) -> tuple:
    """(size, {name: (slice, shape)}): where each parameter lies in a flat
    vector that holds them all in `param_names` order."""
    dims = [(in_dim, hidden)] + [(hidden, hidden)] * 4 + [(hidden, 2)]
    layout, end = {}, 0
    for (b, terms), (fi, fo) in zip(_layers(arch, "enc") + _layers(arch, "dec"), dims):
        for name, shape in [(w, (fi, fo)) for w, _ in terms] + [(b, (fo,))]:
            layout[name] = (slice(end, end + math.prod(shape)), shape)
            end += math.prod(shape)
    return end, MappingProxyType(layout)


def param_names(arch: str) -> list:
    """Canonical parameter order; checkpoints and pruning rely on it."""
    return list(_layout(arch, 0, 0)[1])


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    if len(shape) == 1:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


# the last two entries of `param_names`, so the tail of a model's flat vector
FINAL_LAYER = ("dec3_w", "dec3_b")


class LinkPredictor:
    """Encoder plus pair/subgraph decoder. All parameters live in the float64
    vector `flat`; `params` maps each name to a view into it and is read-only,
    so a write goes through the view (`params[name][...] = x`) and stays in `flat`."""

    def __init__(self, arch: str, in_dim: int, hidden_dim: int, flat: np.ndarray):
        self.arch, self.in_dim, self.hidden_dim = arch, in_dim, hidden_dim
        self.flat = np.asarray(flat, dtype=np.float64)
        self.params = self.views(self.flat)

    def views(self, vec: np.ndarray) -> MappingProxyType:
        """Named views into `vec`, any vector laid out like `flat`."""
        size, layout = _layout(self.arch, self.in_dim, self.hidden_dim)
        if vec.shape != (size,):
            raise ValueError(f"vector of shape {vec.shape} for a model of {size} parameters")
        return MappingProxyType({name: vec[s].reshape(shape)
                                 for name, (s, shape) in layout.items()})

    @classmethod
    def init(cls, arch: str, in_dim: int, hidden_dim: int, seed: int,
             scale: float = 1.0) -> "LinkPredictor":
        """Fresh model with uniform +-scale*sqrt(6/(fan_in+fan_out)) weights
        and zero biases. `scale` widens the init for fixtures where the
        default underfits within a fixed epoch budget."""
        rng = np.random.default_rng(seed)
        tensors = [scale * _glorot(rng, shape).ravel()
                   for _, shape in _layout(arch, in_dim, hidden_dim)[1].values()]
        return cls(arch, in_dim, hidden_dim, np.concatenate(tensors))

    def clone(self) -> "LinkPredictor":
        return LinkPredictor(self.arch, self.in_dim, self.hidden_dim, self.flat.copy())

    def __reduce__(self):  # pickle rebuilds `params` from `flat`: a mapping proxy won't pickle
        return LinkPredictor, (self.arch, self.in_dim, self.hidden_dim, self.flat)

    def reinit_final_layer(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for name in FINAL_LAYER:
            self.params[name][...] = _glorot(rng, self.params[name].shape)

    def weight_names(self) -> list:
        """Weight matrices only (biases exempt from magnitude pruning)."""
        return [n for n in param_names(self.arch) if not n.endswith("_b")]

    def save(self, path) -> None:
        header = CHECKPOINT_MAGIC + struct.pack("<BII", list(ARCHS).index(self.arch),
                                                self.in_dim, self.hidden_dim)
        with open(path, "wb") as fh:
            fh.write(header + self.flat.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "LinkPredictor":
        """Inverse of save. A short header, an unknown arch code, or a body
        that differs from the declared dims raise ValueError before allocating."""
        with open(path, "rb") as fh:
            cur = Cursor(fh.read(), "checkpoint")
        if cur.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file")
        code, in_dim, hidden = cur.unpack("<BII")
        if code >= len(ARCHS):
            raise ValueError(f"unknown arch code {code} in checkpoint")
        arch = list(ARCHS)[code]
        flat = cur.array("<f8", _layout(arch, in_dim, hidden)[0])
        cur.finish()
        return cls(arch, in_dim, hidden, flat)


def gcn_propagation(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Symmetric normalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    n = adjacency.shape[0]
    a_hat = (adjacency + sp.identity(n, format="csr")).tocsr()
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d = sp.diags(inv_sqrt)
    return (d @ a_hat @ d).tocsr()


def sage_propagation(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Row-normalized adjacency (neighbor mean); isolated rows stay zero.

    Built without a sparse product, yet for a CSR input with sorted, distinct
    columns it holds the arrays of `sp.diags(inv) @ adjacency`: each row's
    entries in reverse order, as scipy's product stores them, and zero
    products dropped."""
    a = sp.csr_matrix(adjacency)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    counts = np.diff(a.indptr)
    # entry k of a row spanning [s, e) takes entry s + e - 1 - k of the input
    src = np.repeat(a.indptr[:-1] + a.indptr[1:] - 1, counts) - np.arange(a.nnz)
    data, indices, indptr = np.repeat(inv, counts) * a.data[src], a.indices[src], a.indptr.copy()
    keep = data != 0
    if not keep.all():
        kept = np.bincount(np.repeat(np.arange(len(counts)), counts)[keep], minlength=len(counts))
        data, indices, indptr = data[keep], indices[keep], np.r_[0, np.cumsum(kept)]
    return sp.csr_matrix((data, indices, indptr), shape=a.shape)


def propagation_matrix(arch: str, adjacency: sp.spmatrix) -> sp.csr_matrix:
    return gcn_propagation(adjacency) if arch == GCN else sage_propagation(adjacency)


def _slot(ws: dict, key, shape: tuple) -> np.ndarray:
    """A `shape` prefix of the workspace's (key, columns) array, grown on demand."""
    a = ws.get((key, shape[1]))
    if a is None or len(a) < shape[0]:
        a = ws[key, shape[1]] = np.empty(shape)
    return a[:shape[0]]


def _forward(model: LinkPredictor, kind: str, x: np.ndarray, maps=None, ws=None):
    """Run the `kind` layers on x (ReLU between, in place; the last linear),
    writing each output into the workspace `ws` if given. Layer i's self terms
    read `own @ h` (h itself when `own` is None) and its propagated terms `prop
    @ h`, for (own, prop) = maps[i]. Returns the output and, per layer, (bias,
    terms, self-term input, propagated input, output)."""
    if kind == "enc" and x.shape[1] != model.in_dim:
        raise ValueError(f"feature dim {x.shape[1]} != model input dim {model.in_dim}")
    p, h, cache = model.params, x, []
    for i, (b, terms) in enumerate(_layers(model.arch, kind)):
        own, prop = (None, None) if maps is None else maps[i]
        agg = None if prop is None else prop @ h
        if own is not None and not all(on for _, on in terms):
            h = own @ h
        z = None
        for w, propagated in terms:
            src = agg if propagated else h
            y = src @ p[w] if ws is None else np.matmul(src, p[w], out=_slot(
                ws, (kind, i) if z is None else "term", (len(src), p[w].shape[1])))
            z = y if z is None else np.add(z, y, out=z)
        z += p[b]
        cache.append((b, terms, h, agg, np.maximum(z, 0.0, out=z) if i < 2 else z))
        h = z
    return h, cache


def _backward(model: LinkPredictor, cache: list, dh: np.ndarray, grads: MappingProxyType,
              ws: dict, maps_t=None, input_grad: bool = True):
    """Backprop dh = d(loss)/d(output) through a `_forward` cache; accumulates
    the parameter gradients into the named views `grads` and returns the input's
    (None unless `input_grad`). `maps_t` holds the transposes of `_forward`'s
    maps. An unmapped first term forms layer i's input gradient in workspace
    delta i % 2, so the decoder's is delta 0 and delta 1 is then free; a mapped
    term's product is scattered into a new array at once and goes through "term",
    so a pooled last layer leaves the decoder's delta 0, its own dh, intact."""
    p = model.params
    for i, (b, terms, h, agg, a) in reversed(list(enumerate(cache))):
        if i < 2:
            dh *= a > 0  # the ReLU output is positive exactly where its input is
        np.add(grads[b], dh.sum(axis=0), out=grads[b])
        d_in = None
        for w, propagated in terms:
            np.add(grads[w], (agg if propagated else h).T @ dh, out=grads[w])
            if i == 0 and not input_grad:
                continue
            m_t = None if maps_t is None else maps_t[i][propagated]
            d = np.matmul(dh, p[w].T, out=_slot(
                ws, ("delta", i % 2) if d_in is None and m_t is None else "term",
                (len(dh), p[w].shape[0])))
            d = d if m_t is None else m_t @ d
            d_in = d if d_in is None else np.add(d_in, d, out=d_in)
        dh = d_in
    return dh


def encode(model: LinkPredictor, adjacency: sp.spmatrix, features: np.ndarray) -> np.ndarray:
    """Node embedding matrix for the given graph state."""
    maps = ((None, propagation_matrix(model.arch, adjacency)),) * 3
    return _forward(model, "enc", np.asarray(features, dtype=float), maps)[0]


def score_pairs(model: LinkPredictor, embeddings: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """2-logit rows per pair; decoder input is the Hadamard product of the
    endpoint embeddings, so scores are symmetric in (u, v)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    x = embeddings[pairs[:, 0]] * embeddings[pairs[:, 1]]
    return _forward(model, "dec", x)[0]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def positive_scores(logits: np.ndarray) -> np.ndarray:
    """Positive-class score: log-softmax component 1."""
    return log_softmax(logits)[:, 1]


def cross_entropy(logits: np.ndarray, targets: np.ndarray, n: int | None = None):
    """Cross entropy against a target distribution per row, summed over rows
    and divided by `n` (default: the row count), and its logit gradient. NLL
    is the one-hot special case; soft targets drive extraction/distillation."""
    logp = log_softmax(logits)
    n = len(logits) if n is None else n
    loss = -float(np.sum(targets * logp)) / n
    grad = (np.exp(logp) - targets) / n
    return loss, grad


# consecutive subgraphs share one block-diagonal segment of at most this many
# nodes; a larger subgraph gets a segment to itself
SEGMENT_NODES = 256


class _Batch:
    """Labeled rows scored segment by segment. A segment is (maps, features,
    readout, rows, maps_t, readout_t): per encoder layer the (self map,
    propagation) pair `_forward` applies, the arrays stacked into the node
    features, a sparse readout of the encoder output (None: it is already one
    row per batch row), the batch rows it scores, and the transposes for the
    backward pass. Built once per arch.

    A pair segment maps every layer by (None, P), the identity and the graph's
    propagation, and its readout stacks the two endpoint gathers. A pool
    segment mean-pools each subgraph by M, whose rows sum to 1, so its linear
    last layer can run on pooled rows: M (H Ws + P H Wn + b) = (M H) Ws + (R H)
    Wn + b with R = M P. Its last layer maps by (M, R) and it has no readout."""

    def segments(self, arch: str) -> list:
        if arch not in self._segments:
            built = self._build(arch) if len(self) else []
            self._segments[arch] = [
                (maps, features, readout, rows,
                 tuple((None if own is None else own.T, prop.T) for own, prop in maps),
                 None if readout is None else readout.T)
                for maps, features, readout, rows in built]
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
        self._segments, self._workspace = {}, {}

    def __len__(self) -> int:
        return len(self.pairs)

    def _build(self, arch: str) -> list:
        # rows k and n + k take pairs[k, 0] and pairs[k, 1], so the transpose
        # holds both node x pair incidences side by side
        n = len(self.pairs)
        readout = sp.csr_matrix((np.ones(2 * n), self.pairs.T.ravel(), np.arange(2 * n + 1)),
                                shape=(2 * n, len(self.features)))
        maps = ((None, propagation_matrix(arch, self.adjacency)),) * 3
        return [(maps, [self.features], readout, slice(0, n))]


class SubgraphBatch(_Batch):
    """Independent subgraphs classified via encode + mean pool + decode. Runs
    of consecutive subgraphs form block-diagonal segments (SEAL batching)
    whose last encoder layer runs on the pooled rows."""

    def __init__(self, subgraphs, labels):
        self.subgraphs = list(subgraphs)
        self.labels = np.asarray(labels, dtype=np.int64)
        if len(self.subgraphs) != len(self.labels):
            raise ValueError("one label per subgraph required")
        if any(sg.num_nodes == 0 for sg in self.subgraphs):
            raise ValueError("empty subgraph")
        self._segments, self._workspace = {}, {}

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
            maps = ((None, prop),) * 2 + ((pool, pool @ prop),)
            segments.append((maps, [sg.local_features for sg in sgs], None, slice(a, b)))
            a = b
        return segments


def _segment_forward(model: LinkPredictor, maps: tuple, features: list,
                     readout: sp.csr_matrix | None, rows: slice, *transposes, ws=None):
    """Encode a segment, read out its factors, a (2, rows, hidden) pair of endpoint
    embeddings or the (1, rows, hidden) pooled encoder output, and decode their product
    in the workspace `ws` (default: a new one). Returns (encoder `_forward`, factors,
    decoder's)."""
    ws = {} if ws is None else ws
    enc = _forward(model, "enc", features[0] if len(features) == 1 else np.vstack(features),
                   maps, ws)
    if readout is None:
        return enc, enc[0][None], _forward(model, "dec", enc[0], ws=ws)
    n, hidden = rows.stop - rows.start, enc[0].shape[1]
    # a pair readout is a gather; mode="clip" lets numpy write straight into
    # `out` (PairBatch checked the ids)
    factors = np.take(enc[0], readout.indices, axis=0, mode="clip",
                      out=_slot(ws, "factors", (2 * n, hidden))).reshape(2, n, hidden)
    x = np.multiply(*factors, out=_slot(ws, "x", (n, hidden)))
    return enc, factors, _forward(model, "dec", x, ws=ws)


def batch_logits(model: LinkPredictor, batch) -> np.ndarray:
    logits = np.empty((len(batch), 2))
    for segment in batch.segments(model.arch):
        logits[segment[3]] = _segment_forward(model, *segment, ws=batch._workspace)[2][0]
    return logits


def loss_and_grads(model: LinkPredictor, batch, targets: np.ndarray | None = None,
                   with_feature_grads: bool = False):
    """Full-batch loss and exact parameter gradients, one segment at a time.

    `targets` overrides the batch's one-hot labels with an arbitrary
    distribution per example. Returns (loss, grads), grads a new vector laid
    out like `model.flat`, or, when `with_feature_grads` is set, (loss, grads,
    d_features) with one row per row of the segments' stacked features.
    """
    if targets is None:
        targets = batch.onehot_targets()
    grads = np.zeros_like(model.flat)
    views, total, d_features, ws = model.views(grads), 0.0, [], batch._workspace
    for maps, features, readout, rows, maps_t, readout_t in batch.segments(model.arch):
        enc, factors, (logits, dec) = _segment_forward(model, maps, features, readout, rows,
                                                       ws=ws)
        loss, d_logits = cross_entropy(logits, targets[rows], len(batch))
        total += loss
        d_emb = _backward(model, dec, d_logits, views, ws)
        # d_emb, the decoder's input gradient, is a pooled row's; an endpoint's is d_emb times
        # the other endpoint (written over the factors through the free delta), which
        # readout.T scatters to nodes
        if readout is not None:
            spare = np.multiply(d_emb, factors[1], out=_slot(ws, ("delta", 1), d_emb.shape))
            np.multiply(d_emb, factors[0], out=factors[1])
            factors[0] = spare
            d_emb = readout_t @ factors.reshape(-1, d_emb.shape[1])
        d_in = _backward(model, enc[1], d_emb, views, ws, maps_t, with_feature_grads)
        if with_feature_grads:
            d_features.append(d_in.copy())  # the next segment reuses the workspace
    return (total, grads, np.vstack(d_features)) if with_feature_grads else (total, grads)


class AdamState:
    """First/second moment vectors laid out like the parameters, a shared
    step counter, and the learning rate. One instance per training task."""

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = self.v = None


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              trainable: slice | None = None) -> None:
    """Standard Adam update of the vector `params` in place. `trainable`
    restricts which entries move; the moments outside it stay untouched."""
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    state.step_count += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step_count
    bc2 = 1.0 - ADAM_BETA2 ** state.step_count
    sel = slice(None) if trainable is None else trainable
    p, g, m, v = (x[sel] for x in (params, grads, state.m, state.v))
    a, b = np.empty((2,) + p.shape)  # scratch; holding it between steps would raise peak RSS
    # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*(g*g)
    np.add(np.multiply(m, ADAM_BETA1, out=m), np.multiply(g, 1.0 - ADAM_BETA1, out=a), out=m)
    np.multiply(np.multiply(g, g, out=a), 1.0 - ADAM_BETA2, out=a)
    np.add(np.multiply(v, ADAM_BETA2, out=v), a, out=v)
    # params -= lr * m_hat / (sqrt(v_hat) + eps)
    np.multiply(np.divide(m, bc1, out=a), state.learning_rate, out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
    np.subtract(p, np.divide(a, b, out=a), out=p)


def evaluate_auc(model: LinkPredictor, batch) -> float:
    """AUC of the positive-class scores against the batch labels."""
    from .stats import auc

    logits = batch_logits(model, batch)
    return auc(positive_scores(logits), batch.labels)
