import pickle
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import linkmark as lm
from linkmark.graph import Subgraph
from linkmark import nn
from linkmark.nn import (SEGMENT_NODES, AdamState, PairBatch, SubgraphBatch, adam_step,
                         batch_logits, cross_entropy, encode, gcn_propagation,
                         log_softmax, loss_and_grads, positive_scores, score_pairs,
                         softmax)

from conftest import BAD_CHECKPOINTS, finite_difference_grads, max_rel_err, random_params

# seeds below are pinned to instances whose pre-activations stay clear of
# ReLU kinks; central differences are meaningless within h of a kink
FD_TOL = 1e-4


def onehot_loss(logits, labels):
    """Mean negative log likelihood: cross entropy against one-hot rows."""
    return cross_entropy(logits, np.eye(2)[labels])


def classify(model, sg):
    """2 logits for one subgraph, through a batch of one."""
    return batch_logits(model, SubgraphBatch([sg], [sg.label]))[0]


def small_pair_batch(seed, arch="gcn", d=4):
    g = lm.generate_sbm(2, 5, 0.5, 0.1, seed=seed)
    g = lm.init_features(g, d, seed=seed + 1)
    ds = lm.split_links(g, (0.8, 0.1, 0.1), seed=seed + 2)
    pairs, labels = ds.split_arrays("train")
    return PairBatch(ds.mp_adjacency, ds.features, pairs, labels)


def khop_subgraph_batch(seed):
    g = lm.generate_sbm(2, 5, 0.5, 0.1, seed=seed)
    g = lm.init_features(g, 4, seed=seed + 1)
    ds = lm.split_links(g, (0.8, 0.1, 0.1), seed=seed + 2)
    pairs, labels = ds.split_arrays("train")
    sgs = [lm.extract_khop(ds, (int(u), int(v)), 1, label=int(y))
           for (u, v), y in zip(pairs[:4], labels[:4])]
    return SubgraphBatch(sgs, labels[:4])


# a run of three subgraphs, one larger than SEGMENT_NODES on its own, then a
# run of two ending in a single node
MULTI_SEGMENT_SIZES = (120, 100, 30, 300, 5, 1)


def multi_segment_batch(seed, d=4):
    """Random subgraphs over three block-diagonal segments; the last local
    node of every subgraph is isolated."""
    rng = np.random.default_rng(seed)
    sgs = []
    for i, n in enumerate(MULTI_SEGMENT_SIZES):
        ends = rng.integers(0, max(n - 1, 1), size=(2 * n, 2))
        edges = tuple(sorted({(int(u), int(v)) for u, v in ends if u < v}))
        sgs.append(Subgraph(tuple(range(n)), edges, rng.normal(size=(n, d)), (0, n - 1), i % 2))
    return SubgraphBatch(sgs, [sg.label for sg in sgs])


class TestEncode:
    def test_zero_weights_gives_bias(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=0)
        for name in model.params:
            model.params[name][:] = 0.0
        model.params["enc3_b"][:] = -1.5
        g = lm.generate_sbm(1, 5, 0.5, 0.0, seed=1)
        g = lm.init_features(g, 4, seed=2)
        emb = encode(model, g.adjacency(), g.features)
        assert np.allclose(emb, -1.5)  # last layer linear, bias broadcast

    def test_single_node_identity_normalization(self):
        model = lm.LinkPredictor.init("gcn", 3, 4, seed=1)
        x = np.array([[0.3, -0.2, 0.5]])
        adj = sp.csr_matrix((1, 1))
        emb = encode(model, adj, x)
        # Ahat = 1, so the encoder is a plain 3-layer MLP on x
        p = model.params
        h = np.maximum(x @ p["enc1_w"] + p["enc1_b"], 0)
        h = np.maximum(h @ p["enc2_w"] + p["enc2_b"], 0)
        expected = h @ p["enc3_w"] + p["enc3_b"]
        assert np.allclose(emb, expected, atol=1e-12)

    def test_three_node_path_matches_dense_oracle(self):
        model = lm.LinkPredictor.init("gcn", 3, 4, seed=2)
        adj = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        x = np.eye(3)
        # hand-built dense normalization: D^-1/2 (A+I) D^-1/2, degrees (2,3,2)
        a_hat = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float) + np.eye(3)
        d_inv = np.diag(1.0 / np.sqrt([2, 3, 2]))
        dense = d_inv @ a_hat @ d_inv
        assert np.allclose(gcn_propagation(adj).toarray(), dense, atol=1e-12)
        p = model.params
        h = x
        for i in (1, 2, 3):
            z = dense @ h @ p[f"enc{i}_w"] + p[f"enc{i}_b"]
            h = np.maximum(z, 0) if i < 3 else z
        assert np.allclose(encode(model, adj, x), h, atol=1e-12)

    def test_sage_matches_hand_written_neighbour_mean(self):
        # path 0-1-2 plus the isolated node 3, whose neighbour mean is zero
        model = random_params(lm.LinkPredictor.init("sage", 3, 4, seed=3),
                              np.random.default_rng(4))
        adj = sp.csr_matrix(np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0],
                                      [0, 0, 0, 0]], dtype=float))
        x = np.random.default_rng(5).normal(size=(4, 3))
        p = model.params
        h = x
        for i in (1, 2, 3):
            mean_neigh = np.stack([h[1], (h[0] + h[2]) / 2, h[1], np.zeros(h.shape[1])])
            z = h @ p[f"enc{i}_self"] + mean_neigh @ p[f"enc{i}_nb"] + p[f"enc{i}_b"]
            h = np.maximum(z, 0) if i < 3 else z
        assert np.allclose(encode(model, adj, x), h, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=0)
        with pytest.raises(ValueError):
            encode(model, sp.csr_matrix((2, 2)), np.zeros((2, 3)))

    def test_deterministic(self, toy_batches):
        model = lm.LinkPredictor.init("gcn", 16, 8, seed=3)
        a = batch_logits(model, toy_batches["train"])
        b = batch_logits(model, toy_batches["train"])
        assert np.array_equal(a, b)


class TestScorePairs:
    def test_zero_embedding_masks_partner(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=4)
        emb = np.random.default_rng(0).normal(size=(3, 6))
        emb[0] = 0.0
        a = score_pairs(model, emb, np.array([[0, 1]]))
        b = score_pairs(model, emb, np.array([[0, 2]]))
        assert np.allclose(a, b)

    def test_symmetry(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=5)
        emb = np.random.default_rng(1).normal(size=(5, 6))
        fwd = score_pairs(model, emb, np.array([[1, 3], [0, 4]]))
        rev = score_pairs(model, emb, np.array([[3, 1], [4, 0]]))
        assert np.array_equal(fwd, rev)

    def test_matches_reevaluation_oracle(self):
        rng = np.random.default_rng(6)
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=6)
        random_params(model, rng)
        emb = rng.normal(size=(6, 6))
        pairs = np.array([[0, 1], [2, 5], [3, 4]])
        logits = score_pairs(model, emb, pairs)
        p = model.params
        for row, (u, v) in zip(logits, pairs):
            x = emb[u] * emb[v]
            h = np.maximum(x @ p["dec1_w"] + p["dec1_b"], 0)
            h = np.maximum(h @ p["dec2_w"] + p["dec2_b"], 0)
            expected = h @ p["dec3_w"] + p["dec3_b"]
            assert np.allclose(row, expected, atol=1e-12)


class TestNllLoss:
    def test_uniform_logits(self):
        loss, _ = onehot_loss(np.array([[0.0, 0.0]]), np.array([1]))
        assert loss == pytest.approx(np.log(2))

    def test_confident_correct_goes_to_zero(self):
        loss, _ = onehot_loss(np.array([[-30.0, 30.0]]), np.array([1]))
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(12, 2))
        labels = rng.integers(0, 2, size=12)
        _, grad = onehot_loss(logits, labels)
        h = 1e-5
        for i in range(logits.shape[0]):
            for j in range(2):
                up = logits.copy(); up[i, j] += h
                down = logits.copy(); down[i, j] -= h
                fd = (onehot_loss(up, labels)[0] - onehot_loss(down, labels)[0]) / (2 * h)
                assert abs(grad[i, j] - fd) / max(abs(fd), 1e-8) < FD_TOL

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(scale=5, size=(40, 2))
        assert np.allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-12)


class TestBackward:
    @pytest.mark.parametrize("arch,seed", [("gcn", 10), ("sage", 11)])
    def test_pair_gradients_match_fd(self, arch, seed):
        batch = small_pair_batch(seed, arch)
        model = lm.LinkPredictor.init(arch, 4, 6, seed=seed)
        random_params(model, np.random.default_rng(seed))
        grads, numeric = finite_difference_grads(model, batch)
        assert max_rel_err(grads, numeric) < FD_TOL

    @pytest.mark.parametrize("arch,seed,make_batch", [
        pytest.param("gcn", 14, khop_subgraph_batch, id="gcn-14"),
        pytest.param("sage", 15, khop_subgraph_batch, id="sage-15"),
        pytest.param("gcn", 16, multi_segment_batch, id="gcn-16-segments"),
        pytest.param("sage", 17, multi_segment_batch, id="sage-17-segments"),
    ])
    def test_subgraph_gradients_match_fd(self, arch, seed, make_batch):
        batch = make_batch(seed)
        model = lm.LinkPredictor.init(arch, 4, 6, seed=seed)
        random_params(model, np.random.default_rng(seed))
        grads, numeric = finite_difference_grads(model, batch)
        assert max_rel_err(grads, numeric) < FD_TOL

    def test_all_gradients_finite(self, toy_batches):
        model = lm.LinkPredictor.init("gcn", 16, 8, seed=12)
        _, grads = loss_and_grads(model, toy_batches["train"])
        assert np.all(np.isfinite(grads))

    def test_receptive_field_feature_grads_zero(self):
        # 10-node path, one scored pair at the left end: nodes more than
        # 3 hops from both endpoints cannot influence the loss
        g = lm.Graph.from_edges(10, [(i, i + 1) for i in range(9)])
        g = lm.init_features(g, 4, seed=1)
        adj = g.adjacency()
        batch = PairBatch(adj, g.features, np.array([[0, 1]]), np.array([1]))
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=13)
        _, _, d_features = loss_and_grads(model, batch, with_feature_grads=True)
        assert np.allclose(d_features[5:], 0.0)
        assert np.linalg.norm(d_features[:4]) > 0


    @pytest.mark.parametrize("arch,seed", [("gcn", 16), ("sage", 17)])
    def test_segment_feature_grads_match_fd(self, arch, seed):
        # the pooled last layer's input gradient, M.T and R.T scattering the
        # pooled rows' deltas back to nodes, against central differences
        batch = multi_segment_batch(seed)
        model = random_params(lm.LinkPredictor.init(arch, 4, 6, seed=seed),
                              np.random.default_rng(seed))
        _, _, d_features = loss_and_grads(model, batch, with_feature_grads=True)
        features = [sg.local_features for sg in batch.subgraphs]
        starts = np.cumsum([0] + [len(f) for f in features])
        assert d_features.shape == (starts[-1], 4)
        # the anchors, an isolated node and one more node of every subgraph
        picks = sorted({(k, j) for k, sg in enumerate(batch.subgraphs)
                        for j in (*sg.anchor, sg.num_nodes // 2)})
        step, numeric = 1e-5, []
        for k, j in picks:
            for c in range(4):
                orig = features[k][j, c]
                features[k][j, c] = orig + step
                up = loss_and_grads(model, batch)[0]
                features[k][j, c] = orig - step
                down = loss_and_grads(model, batch)[0]
                features[k][j, c] = orig
                numeric.append((up - down) / (2 * step))
        analytic = d_features[[starts[k] + j for k, j in picks]].ravel()
        numeric = np.array(numeric)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < FD_TOL


def csr_bytes(m) -> tuple:
    """A CSR matrix as its shape and the dtype and bytes of each of its arrays."""
    return (m.shape,) + tuple((a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data))


def scipy_adjacency(n, edges):
    rows, cols = np.concatenate([edges, edges[:, ::-1]]).T
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def scipy_sage(adjacency):
    deg = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return (sp.diags(inv) @ adjacency).tocsr()


def random_edges(rng, n, m):
    """Up to m distinct sorted (u, v) rows, u < v, over the first n - 1 nodes
    (so at least the last node is isolated)."""
    ends = rng.integers(0, max(n - 1, 1), size=(m, 2))
    return np.array(sorted({(int(u), int(v)) for u, v in ends if u < v}),
                    dtype=np.int64).reshape(-1, 2)


class TestDirectCsr:
    """`edges_to_adjacency` and `sage_propagation` build their CSR arrays
    directly; they must equal the scipy expressions they replace bit for bit."""

    CASES = [(1, 0), (5, 0), (2, 1), (12, 30), (40, 15), (64, 400), (300, 900)]

    @pytest.mark.parametrize("n,m", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_expressions(self, n, m, seed):
        edges = random_edges(np.random.default_rng(seed), n, m)
        adj = lm.graph.edges_to_adjacency(n, edges)
        assert csr_bytes(adj) == csr_bytes(scipy_adjacency(n, edges))
        assert adj.indices.dtype == np.int32
        assert csr_bytes(nn.sage_propagation(adj)) == csr_bytes(scipy_sage(adj))

    def test_sage_keeps_scipys_reversed_rows(self):
        adj = lm.graph.edges_to_adjacency(4, np.array([[0, 1], [0, 2], [0, 3]]))
        prop = nn.sage_propagation(adj)
        assert prop.indices[:3].tolist() == [3, 2, 1]
        assert np.allclose(prop.toarray(), scipy_sage(adj).toarray(), rtol=0, atol=0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_sage_weighted_with_explicit_zeros_and_int64_indices(self, seed):
        rng = np.random.default_rng(seed)
        adj = lm.graph.edges_to_adjacency(50, random_edges(rng, 50, 150))
        adj.data = rng.normal(size=adj.nnz)
        adj.data[::4] = 0.0  # stored zeros, and rows whose degree is <= 0
        for a in (adj, sp.csr_matrix((adj.data, adj.indices.astype(np.int64),
                                      adj.indptr.astype(np.int64)), shape=adj.shape)):
            assert csr_bytes(nn.sage_propagation(a)) == csr_bytes(scipy_sage(a))

    def test_sage_does_not_share_the_input_arrays(self):
        adj = lm.graph.edges_to_adjacency(6, random_edges(np.random.default_rng(5), 6, 10))
        prop = nn.sage_propagation(adj)
        assert not any(np.shares_memory(x, y) for x in (prop.indptr, prop.indices, prop.data)
                       for y in (adj.indptr, adj.indices, adj.data))


class TestSegments:
    def test_runs_of_whole_subgraphs(self):
        batch = multi_segment_batch(18)
        rows = [seg[3] for seg in batch.segments("gcn")]
        assert [(r.start, r.stop) for r in rows] == [(0, 3), (3, 4), (4, 6)]
        for maps, features, readout, r, maps_t, readout_t in batch.segments("gcn"):
            # the first two layers propagate by P; the last maps by (M, M @ P),
            # the mean pool M and the pooled propagation, and no readout follows
            (own, prop), hidden, (pool, pooled_prop) = maps
            (own_t, prop_t), hidden_t, (pool_t, pooled_prop_t) = maps_t
            assert own is own_t is hidden[0] is hidden_t[0] is None
            assert hidden[1] is prop and (hidden_t[1] != prop.T).nnz == 0
            assert readout is None and readout_t is None
            nodes = sum(MULTI_SEGMENT_SIZES[r.start:r.stop])
            assert prop.shape == (nodes, nodes) and pool.shape == (r.stop - r.start, nodes)
            assert (prop_t != prop.T).nnz == 0 and (pool_t != pool.T).nnz == 0
            assert nodes <= SEGMENT_NODES or r.stop - r.start == 1
            assert np.allclose(pool.sum(axis=1), 1.0)
            assert np.allclose(pooled_prop.toarray(), (pool @ prop).toarray(), rtol=0, atol=1e-15)
            assert (pooled_prop_t != pooled_prop.T).nnz == 0
            assert np.shares_memory(pooled_prop_t.data, pooled_prop.data)  # a view, not a copy

    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_batch_logits_match_rowwise_classify(self, arch):
        batch = multi_segment_batch(19)
        model = lm.LinkPredictor.init(arch, 4, 6, seed=20)
        rowwise = np.stack([classify(model, sg) for sg in batch.subgraphs])
        assert np.allclose(batch_logits(model, batch), rowwise, rtol=0, atol=1e-12)
        # reference outside the segment code: encode alone, mean, decode
        pooled = np.stack([encode(model, sg.adjacency(), sg.local_features).mean(axis=0)
                           for sg in batch.subgraphs])
        reference = nn._forward(model, "dec", pooled)[0]
        assert np.allclose(batch_logits(model, batch), reference, rtol=0, atol=1e-12)
        loss, _ = loss_and_grads(model, batch)
        assert loss == pytest.approx(onehot_loss(rowwise, batch.labels)[0], abs=1e-12)

    def test_empty_subgraph_rejected_by_batch(self):
        sg = Subgraph((0,), (), np.zeros((1, 4)), (0, 0), 0)
        object.__setattr__(sg, "node_ids", ())
        object.__setattr__(sg, "local_features", np.zeros((0, 4)))
        ok = Subgraph((0, 1), ((0, 1),), np.ones((2, 4)), (0, 1), 1)
        with pytest.raises(ValueError, match="empty subgraph"):
            SubgraphBatch([ok, sg], [1, 0])

    @pytest.mark.parametrize("node", [-1, None], ids=["negative", "n_nodes"])
    def test_out_of_range_pair_rejected(self, node):
        ok = small_pair_batch(25)
        pairs = ok.pairs.copy()
        pairs[0, 1] = len(ok.features) if node is None else node
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=26)
        for score in (batch_logits, loss_and_grads):
            with pytest.raises(ValueError, match="pair node ids"):
                score(model, PairBatch(ok.adjacency, ok.features, pairs, ok.labels))

    def test_subgraph_propagations_built_once(self, monkeypatch):
        calls = []
        real = nn.propagation_matrix
        monkeypatch.setattr(nn, "propagation_matrix",
                            lambda arch, adj: calls.append(arch) or real(arch, adj))
        batch = multi_segment_batch(21)
        model = lm.LinkPredictor.init("sage", 4, 6, seed=22)
        loss_and_grads(model, batch)
        assert len(calls) == len(batch)
        loss_and_grads(model, batch)
        assert len(calls) == len(batch)

    def test_pair_incidence_built_once(self, monkeypatch):
        builds = []
        real = PairBatch._build
        monkeypatch.setattr(PairBatch, "_build",
                            lambda self, arch: builds.append(arch) or real(self, arch))
        batch = small_pair_batch(23)
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=24)
        loss_and_grads(model, batch)
        readout = batch.segments("gcn")[0][2]
        loss_and_grads(model, batch)
        assert builds == ["gcn"]
        assert batch.segments("gcn")[0][2] is readout
        assert readout.shape == (2 * len(batch), len(batch.features))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWorkspace:
    @pytest.mark.parametrize("make_batch", [small_pair_batch, multi_segment_batch],
                             ids=["pairs", "segments"])
    def test_shared_batch_matches_fresh_batches(self, make_batch):
        # two hidden sizes on one arch, and a second arch sharing a width
        models = [random_params(lm.LinkPredictor.init(arch, 4, hidden, seed=hidden),
                                np.random.default_rng(hidden))
                  for arch, hidden in (("gcn", 6), ("gcn", 9), ("sage", 6))]
        shared, returned = make_batch(30), []
        for _ in range(2):
            for model in models:
                loss, grads, d_features = loss_and_grads(model, shared, with_feature_grads=True)
                logits = batch_logits(model, shared)
                want_loss, want_grads, want_d = loss_and_grads(model, make_batch(30),
                                                               with_feature_grads=True)
                assert loss == want_loss
                assert same_bits(grads, want_grads)
                assert same_bits(d_features, want_d)
                assert same_bits(logits, batch_logits(model, make_batch(30)))
                returned += [(a, a.copy()) for a in (grads, d_features, logits)]
        # later calls on the shared batch leave every returned array as it was
        assert all(same_bits(a, snapshot) for a, snapshot in returned)

    def test_feature_grads_of_every_segment_survive_the_next(self):
        # each segment's feature gradient matches a batch of that segment's
        # subgraphs alone, rescaled from its own row count to the whole batch's
        batch = multi_segment_batch(32)
        model = random_params(lm.LinkPredictor.init("sage", 4, 6, seed=33),
                              np.random.default_rng(33))
        _, _, d_features = loss_and_grads(model, batch, with_feature_grads=True)
        parts = []
        for segment in batch.segments("sage"):
            rows = segment[3]
            alone = SubgraphBatch(batch.subgraphs[rows], batch.labels[rows])
            d_alone = loss_and_grads(model, alone, with_feature_grads=True)[2]
            parts.append(d_alone * len(alone) / len(batch))
        assert len(parts) > 1
        assert np.allclose(d_features, np.vstack(parts), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_warm_pair_step_allocates_under_one_activation(self, arch):
        g = lm.init_features(lm.generate_sbm(2, 60, 0.3, 0.05, seed=40), 8, seed=41)
        ds = lm.split_links(g, (0.8, 0.1, 0.1), seed=42)
        batch = PairBatch(ds.mp_adjacency, ds.features, *ds.split_arrays("train"))
        hidden = 64
        model = lm.LinkPredictor.init(arch, 8, hidden, seed=43)
        loss_and_grads(model, batch)
        tracemalloc.start()
        try:
            loss_and_grads(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (pairs x hidden) float64 array; the step keeps its own in the batch
        assert peak < len(batch) * hidden * 8


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=20)
        before = {k: v.copy() for k, v in model.params.items()}
        state = AdamState(1e-3)
        adam_step(state, model.flat, np.zeros_like(model.flat))
        assert all(np.array_equal(model.params[k], before[k]) for k in before)

    def test_first_step_magnitude(self):
        # bias-corrected first step equals lr * sign(g) up to eps rounding
        params = np.array([1.0, -2.0, 3.0])
        grads = np.array([0.5, -0.1, 2.0])
        state = AdamState(1e-3)
        adam_step(state, params, grads)
        delta = params - np.array([1.0, -2.0, 3.0])
        assert np.allclose(delta, -1e-3 * np.sign(grads), atol=1e-9)

    def test_bitwise_determinism_after_ten_steps(self, toy_batches):
        runs = []
        for _ in range(2):
            model = lm.LinkPredictor.init("gcn", 16, 8, seed=21)
            state = AdamState(1e-3)
            for _ in range(10):
                _, grads = loss_and_grads(model, toy_batches["train"])
                adam_step(state, model.flat, grads)
            runs.append(model.params)
        assert all(np.array_equal(runs[0][k], runs[1][k]) for k in runs[0])


class TestFlatVector:
    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_params_are_read_only_views_of_flat(self, arch):
        model = lm.LinkPredictor.init(arch, 3, 5, seed=22)
        assert model.flat.shape == (sum(p.size for p in model.params.values()),)
        assert list(model.params) == nn.param_names(arch)
        assert all(np.shares_memory(p, model.flat) for p in model.params.values())
        with pytest.raises(TypeError):
            model.params["enc1_b"] = np.ones(5)
        model.params["enc1_b"][...] = 7.0  # writes go through the view
        assert np.count_nonzero(model.flat == 7.0) == 5

    def test_clone_shares_no_memory(self):
        model = lm.LinkPredictor.init("sage", 3, 5, seed=23)
        copy = model.clone()
        assert not np.shares_memory(copy.flat, model.flat)
        assert not any(np.shares_memory(a, b) for a in copy.params.values()
                       for b in model.params.values())
        assert copy.flat.tobytes() == model.flat.tobytes()

    def test_pickle_roundtrip_keeps_views_on_flat(self):
        model = lm.LinkPredictor.init("gcn", 3, 5, seed=25)
        back = pickle.loads(pickle.dumps(model))
        assert (back.arch, back.in_dim, back.hidden_dim) == ("gcn", 3, 5)
        assert back.flat.tobytes() == model.flat.tobytes()
        assert all(np.shares_memory(p, back.flat) for p in back.params.values())

    def test_gradients_share_the_layout(self, toy_batches):
        model = lm.LinkPredictor.init("gcn", 16, 8, seed=24)
        _, grads = loss_and_grads(model, toy_batches["train"])
        views = model.views(grads)
        assert grads.shape == model.flat.shape and not np.shares_memory(grads, model.flat)
        assert all(views[n].shape == model.params[n].shape and np.shares_memory(views[n], grads)
                   for n in model.params)
        with pytest.raises(ValueError):
            model.views(grads[:-1])


class TestClassifySubgraph:
    def single_node_subgraph(self):
        return Subgraph((7,), (), np.array([[0.4, -0.6, 0.1, 0.9]]), (0, 0), 1)

    def test_single_node_pooling_is_identity(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=30)
        sg = self.single_node_subgraph()
        logits = classify(model, sg)
        emb = encode(model, sg.adjacency(), sg.local_features)
        direct = score_pairs(model, np.vstack([emb, np.ones_like(emb)]),
                             np.array([[0, 1]]))[0]
        assert np.allclose(logits, direct, atol=1e-12)

    def test_permutation_invariance(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=31)
        rng = np.random.default_rng(32)
        feats = rng.normal(size=(4, 4))
        sg = Subgraph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), feats, (0, 3), 1)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        edges = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                             for u, v in sg.local_edges))
        sg_p = Subgraph((0, 1, 2, 3), edges, feats[inv], (int(perm[0]), int(perm[3])), 1)
        assert np.allclose(classify(model, sg), classify(model, sg_p), atol=1e-12)

    def test_matches_dense_oracle(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=33)
        rng = np.random.default_rng(34)
        feats = rng.normal(size=(4, 4))
        sg = Subgraph((0, 1, 2, 3), ((0, 1), (0, 2), (1, 3)), feats, (0, 3), 0)
        a = np.zeros((4, 4))
        for u, v in sg.local_edges:
            a[u, v] = a[v, u] = 1
        a_hat = a + np.eye(4)
        d_inv = np.diag(1 / np.sqrt(a_hat.sum(axis=1)))
        dense = d_inv @ a_hat @ d_inv
        p = model.params
        h = feats
        for i in (1, 2, 3):
            z = dense @ h @ p[f"enc{i}_w"] + p[f"enc{i}_b"]
            h = np.maximum(z, 0) if i < 3 else z
        pooled = h.mean(axis=0)
        hd = np.maximum(pooled @ p["dec1_w"] + p["dec1_b"], 0)
        hd = np.maximum(hd @ p["dec2_w"] + p["dec2_b"], 0)
        expected = hd @ p["dec3_w"] + p["dec3_b"]
        assert np.allclose(classify(model, sg), expected, atol=1e-12)

    def test_empty_subgraph_rejected(self):
        model = lm.LinkPredictor.init("gcn", 4, 6, seed=35)
        sg = Subgraph((0,), (), np.zeros((1, 4)), (0, 0), 0)
        object.__setattr__(sg, "node_ids", ())
        object.__setattr__(sg, "local_features", np.zeros((0, 4)))
        with pytest.raises(ValueError):
            classify(model, sg)


def test_loss_non_increasing_on_separable_toy(toy_batches):
    model = lm.LinkPredictor.init("gcn", 16, 32, seed=40)
    state = AdamState(1e-3)
    losses = []
    for _ in range(20):
        loss, grads = loss_and_grads(model, toy_batches["train"])
        losses.append(loss)
        adam_step(state, model.flat, grads)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_cross_entropy_reduces_to_nll():
    rng = np.random.default_rng(41)
    logits = rng.normal(size=(9, 2))
    labels = rng.integers(0, 2, size=9)
    onehot = np.zeros((9, 2))
    onehot[np.arange(9), labels] = 1.0
    a = onehot_loss(logits, labels)
    b = cross_entropy(logits, onehot)
    assert a[0] == pytest.approx(b[0], abs=1e-15)
    assert np.allclose(a[1], b[1])


def test_positive_scores_are_log_softmax_component_one():
    rng = np.random.default_rng(42)
    logits = rng.normal(size=(6, 2))
    assert np.allclose(positive_scores(logits), log_softmax(logits)[:, 1])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            lm.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            lm.TrainConfig(arch="transformer")


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ["gcn", "sage"])
    def test_roundtrip_bit_exact(self, tmp_path, arch):
        model = lm.LinkPredictor.init(arch, 5, 7, seed=50)
        path = tmp_path / "m.ckpt"
        model.save(path)
        back = lm.LinkPredictor.load(path)
        assert back.arch == arch and back.in_dim == 5 and back.hidden_dim == 7
        assert all(np.array_equal(back.params[k], model.params[k])
                   for k in model.params)
        # byte-for-byte stable re-serialization
        path2 = tmp_path / "m2.ckpt"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("arch, code, layout", [
        ("gcn", 0, [("enc1_w", (3, 5)), ("enc1_b", (5,)), ("enc2_w", (5, 5)), ("enc2_b", (5,)),
                    ("enc3_w", (5, 5)), ("enc3_b", (5,)), ("dec1_w", (5, 5)), ("dec1_b", (5,)),
                    ("dec2_w", (5, 5)), ("dec2_b", (5,)), ("dec3_w", (5, 2)), ("dec3_b", (2,))]),
        ("sage", 1, [("enc1_self", (3, 5)), ("enc1_nb", (3, 5)), ("enc1_b", (5,)),
                     ("enc2_self", (5, 5)), ("enc2_nb", (5, 5)), ("enc2_b", (5,)),
                     ("enc3_self", (5, 5)), ("enc3_nb", (5, 5)), ("enc3_b", (5,)),
                     ("dec1_w", (5, 5)), ("dec1_b", (5,)), ("dec2_w", (5, 5)), ("dec2_b", (5,)),
                     ("dec3_w", (5, 2)), ("dec3_b", (2,))]),
    ])
    def test_golden_layout(self, tmp_path, arch, code, layout):
        names = [name for name, _ in layout]
        assert nn.param_names(arch) == names
        model = lm.LinkPredictor.init(arch, 3, 5, seed=51)
        assert [model.params[name].shape for name in names] == [shape for _, shape in layout]
        model.save(tmp_path / "m.ckpt")
        body = b"".join(model.params[name].astype("<f8").tobytes() for name in names)
        assert (tmp_path / "m.ckpt").read_bytes() == (
            b"GLPW1" + struct.pack("<BII", code, 3, 5) + body)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValueError):
            lm.LinkPredictor.load(path)

    @pytest.mark.parametrize("name", sorted(BAD_CHECKPOINTS))
    def test_bad_header_rejected_in_bounded_memory(self, tmp_path, name):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(BAD_CHECKPOINTS[name])
        assert len(BAD_CHECKPOINTS["dims_past_end"]) == 78
        probe = ("import resource, sys\n"
                 "import linkmark as lm\n"
                 "try:\n"
                 "    lm.LinkPredictor.load(sys.argv[1])\n"
                 "except ValueError as exc:\n"
                 "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, exc)\n")
        # Linux carries a process's peak RSS across fork and exec, so the
        # probe is started from a small launcher rather than from pytest
        launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", probe,
                               str(path)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout, proc.stderr
        max_rss_kib = int(proc.stdout.split()[0])
        # importing linkmark alone peaks near 60 MB
        assert max_rss_kib < 128 * 1024
