import functools
import hashlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkmark as lm
from linkmark.watermark import (NodeRepWatermark, build_node_rep_wm, deserialize_wm,
                                gen_subgraph_wm, serialize_wm, watermark_vector)

from conftest import edge_set


def brute_force_flip(g, nodes):
    """Complement the induced subgraph by explicit enumeration."""
    node_set = set(int(v) for v in nodes)
    internal = {p for p in itertools.combinations(sorted(node_set), 2)}
    edges = edge_set(g.edges)
    flipped = {e for e in edges if not set(e) <= node_set}
    flipped |= {p for p in internal if p not in edges}
    labels = {p: (0 if p in edges else 1) for p in sorted(internal)}
    return flipped, labels


class TestWatermarkVector:
    def test_reproducible(self):
        assert np.array_equal(watermark_vector(16, seed=3), watermark_vector(16, seed=3))

    def test_range(self):
        w = watermark_vector(1000, seed=4)
        assert np.all((w > -1) & (w < 1))


class TestNodeRepWatermark:
    def five_node_graph(self):
        return lm.Graph.from_edges(5, [(0, 4), (1, 2), (0, 1)],
                                   features=np.arange(20.0).reshape(5, 4))

    def test_documented_example(self):
        # subset {1,2,3} with one induced edge (1,2): the two absent internal
        # pairs become positive triggers, the induced edge becomes negative
        g = self.five_node_graph()
        wm = build_node_rep_wm(g, np.array([1, 2, 3]), watermark_vector(4, 0), 0.6)
        got = {tuple(p): int(y) for p, y in zip(wm.pairs, wm.labels)}
        assert got == {(1, 2): 0, (1, 3): 1, (2, 3): 1}
        flipped = edge_set(wm.edges)
        assert (1, 3) in flipped and (2, 3) in flipped and (1, 2) not in flipped
        a = g.adjacency().toarray()
        a_wm = wm.adjacency().toarray()
        changed = {(u, v) for u in range(5) for v in range(u + 1, 5)
                   if a[u, v] != a_wm[u, v]}
        assert changed == {(1, 2), (1, 3), (2, 3)}

    def test_disconnected_subset_all_positive(self):
        g = lm.Graph.from_edges(6, [(0, 5)], features=np.zeros((6, 3)))
        wm = build_node_rep_wm(g, np.array([1, 2, 3]), watermark_vector(3, 1), 0.5)
        assert np.all(wm.labels == 1)
        assert len(wm.pairs) == 3

    def test_edges_outside_subset_untouched(self):
        g = self.five_node_graph()
        wm = build_node_rep_wm(g, np.array([1, 2, 3]), watermark_vector(4, 2), 0.6)
        a = g.adjacency().toarray()
        a_wm = wm.adjacency().toarray()
        subset = {1, 2, 3}
        for u in range(5):
            for v in range(u + 1, 5):
                if not {u, v} <= subset:
                    assert a[u, v] == a_wm[u, v]

    def test_flip_count_is_internal_pair_count(self):
        g = lm.generate_sbm(2, 10, 0.5, 0.2, seed=6)
        g = lm.init_features(g, 4, seed=7)
        wm = lm.gen_node_rep_wm(g, 0.3, seed=8)
        a = g.adjacency().toarray()
        a_wm = wm.adjacency().toarray()
        s = len(wm.nodes)
        changed = np.sum(np.triu(a != a_wm, k=1))
        assert changed == s * (s - 1) // 2

    def test_labels_agree_with_flipped_adjacency(self):
        g = lm.generate_sbm(3, 6, 0.4, 0.1, seed=9)
        g = lm.init_features(g, 4, seed=10)
        wm = lm.gen_node_rep_wm(g, 0.4, seed=11)
        a_wm = wm.adjacency().toarray()
        for (u, v), y in zip(wm.pairs, wm.labels):
            assert a_wm[u, v] == y

    def test_feature_rows_replaced_only_for_subset(self):
        g = self.five_node_graph()
        w = watermark_vector(4, 12)
        wm = build_node_rep_wm(g, np.array([1, 2, 3]), w, 0.6)
        for v in range(5):
            if v in {1, 2, 3}:
                assert np.array_equal(wm.features[v], w)
            else:
                assert np.array_equal(wm.features[v], g.features[v])

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            g = lm.generate_sbm(2, 6, 0.5, 0.25, seed=100 + trial)
            g = lm.init_features(g, 3, seed=200 + trial)
            size = int(rng.integers(2, 7))
            nodes = np.sort(rng.choice(12, size=size, replace=False))
            wm = build_node_rep_wm(g, nodes, watermark_vector(3, trial), 0.5)
            flipped, labels = brute_force_flip(g, nodes)
            assert edge_set(wm.edges) == flipped
            assert {tuple(p): int(y) for p, y in zip(wm.pairs, wm.labels)} == labels

    @pytest.mark.parametrize("kind", ["random", "empty", "complete"])
    def test_matches_isin_formulation(self, kind):
        # build_node_rep_wm as it was when np.isin found the edges
        def isin_reference(g, nodes, vector):
            nodes = np.sort(nodes)
            iu, ju = np.triu_indices(len(nodes), k=1)
            pairs = np.stack([nodes[iu], nodes[ju]], axis=1)
            key = lambda p: p[:, 0] * g.num_nodes + p[:, 1]
            labels = (~np.isin(key(pairs), key(g.edges))).astype(np.int64)
            outside = g.edges[~np.isin(g.edges, nodes).all(axis=1)]
            features = g.features.copy()
            features[nodes] = vector
            return NodeRepWatermark(g.num_nodes, nodes, pairs, labels,
                                    np.concatenate([outside, pairs[labels == 1]]),
                                    features, vector, 0.5)

        rng = np.random.default_rng(41)
        for trial in range(20):
            n = int(rng.integers(3, 40))
            if kind == "random":
                g = lm.generate_sbm(2, (n + 1) // 2, 0.4, 0.1, seed=300 + trial)
            else:
                edges = np.argwhere(np.triu(np.ones((n, n)), 1)) if kind == "complete" else []
                g = lm.Graph.from_edges(n, edges)
            g = lm.init_features(g, 3, seed=400 + trial)
            size = int(rng.integers(2, g.num_nodes + 1))
            nodes = rng.choice(g.num_nodes, size=size, replace=False)
            vector = watermark_vector(3, trial)
            wm = build_node_rep_wm(g, nodes, vector, 0.5)
            want = isin_reference(g, nodes, vector)
            assert np.array_equal(wm.labels, want.labels)
            assert np.array_equal(wm.edges, want.edges)
            assert serialize_wm(wm) == serialize_wm(want)
            if kind == "empty":
                assert wm.labels.all()
            elif kind == "complete":
                assert not wm.labels.any()

    def test_rate_governs_subset_size(self):
        g = lm.generate_sbm(2, 20, 0.3, 0.1, seed=14)
        g = lm.init_features(g, 4, seed=15)
        wm = lm.gen_node_rep_wm(g, 0.25, seed=16)
        assert len(wm.nodes) == 10  # round(0.25 * 40)

    def test_subset_too_small_rejected(self):
        g = lm.generate_sbm(2, 10, 0.3, 0.1, seed=17)
        g = lm.init_features(g, 4, seed=18)
        with pytest.raises(ValueError):
            lm.gen_node_rep_wm(g, 0.05, seed=19)  # round(1) < 2


class TestSubgraphWatermark:
    def make_subgraphs(self, count, toy_dataset):
        pairs, labels = toy_dataset.split_arrays("train")
        return [lm.extract_khop(toy_dataset, (int(u), int(v)), 1, label=int(y))
                for (u, v), y in zip(pairs[:count], labels[:count])]

    def test_thirty_percent_of_ten(self, toy_dataset):
        sgs = self.make_subgraphs(10, toy_dataset)
        wm = gen_subgraph_wm(sgs, 0.30, watermark_vector(16, 20), seed=21)
        assert len(wm.subgraphs) == 3

    def test_ceiling_keeps_at_least_one(self, toy_dataset):
        sgs = self.make_subgraphs(10, toy_dataset)
        wm = gen_subgraph_wm(sgs, 0.001, watermark_vector(16, 22), seed=23)
        assert len(wm.subgraphs) == 1

    def test_exact_integer_products_do_not_overshoot(self, toy_dataset):
        sgs = self.make_subgraphs(20, toy_dataset)
        wm = gen_subgraph_wm(sgs, 0.35, watermark_vector(16, 24), seed=25)
        assert len(wm.subgraphs) == 7  # ceil(0.35 * 20) exactly

    def test_labels_inverted_structure_untouched(self, toy_dataset):
        sgs = self.make_subgraphs(12, toy_dataset)
        wm = gen_subgraph_wm(sgs, 0.5, watermark_vector(16, 26), seed=27)
        for idx, modified in zip(wm.indices, wm.subgraphs):
            original = sgs[int(idx)]
            assert modified.label == 1 - original.label
            assert np.array_equal(modified.local_edges, original.local_edges)
            assert np.array_equal(modified.node_ids, original.node_ids)
            assert modified.anchor == original.anchor

    def test_features_all_equal_vector(self, toy_dataset):
        sgs = self.make_subgraphs(8, toy_dataset)
        w = watermark_vector(16, 28)
        wm = gen_subgraph_wm(sgs, 0.5, w, seed=29)
        for sg in wm.subgraphs:
            assert np.all(sg.local_features == w)


class TestSerialization:
    def test_serialize_deterministic(self, toy_watermark):
        assert serialize_wm(toy_watermark) == serialize_wm(toy_watermark)

    def test_pair_order_is_canonical(self, toy_graph):
        wm = lm.gen_node_rep_wm(toy_graph, 0.1, seed=30)
        order = np.random.default_rng(31).permutation(len(wm.pairs))
        shuffled = lm.NodeRepWatermark(wm.num_nodes, wm.nodes, wm.pairs[order],
                                       wm.labels[order], wm.edges, wm.features,
                                       wm.vector, wm.rate)
        assert serialize_wm(shuffled) == serialize_wm(wm)

    def test_flipped_label_changes_bytes(self, toy_graph):
        wm = lm.gen_node_rep_wm(toy_graph, 0.1, seed=32)
        tampered = lm.NodeRepWatermark(wm.num_nodes, wm.nodes, wm.pairs,
                                       1 - wm.labels, wm.edges, wm.features,
                                       wm.vector, wm.rate)
        assert serialize_wm(tampered) != serialize_wm(wm)

    def test_node_rep_roundtrip(self, toy_watermark):
        back = deserialize_wm(serialize_wm(toy_watermark))
        assert back == toy_watermark
        assert np.array_equal(back.features, toy_watermark.features)
        assert np.array_equal(back.labels, toy_watermark.labels)

    def test_subgraph_roundtrip(self, toy_dataset):
        pairs, labels = toy_dataset.split_arrays("train")
        sgs = [lm.extract_khop(toy_dataset, (int(u), int(v)), 1, label=int(y))
               for (u, v), y in zip(pairs[:6], labels[:6])]
        wm = gen_subgraph_wm(sgs, 0.5, watermark_vector(16, 33), seed=34)
        back = deserialize_wm(serialize_wm(wm))
        assert back == wm
        assert len(back.subgraphs) == len(wm.subgraphs)

    def test_file_roundtrip(self, tmp_path, toy_watermark):
        path = tmp_path / "trigger.gwm"
        lm.save_wm(toy_watermark, path)
        assert lm.load_wm(path) == toy_watermark

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            deserialize_wm(b"not a watermark")

    def test_truncated_blob_rejected(self, toy_watermark):
        blob = serialize_wm(toy_watermark)
        with pytest.raises(ValueError):
            deserialize_wm(blob[: len(blob) // 2])

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.15, max_value=0.6))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_over_random_watermarks(self, seed, rate):
        g = lm.generate_sbm(2, 8, 0.45, 0.15, seed=seed % 1000)
        g = lm.init_features(g, 3, seed=seed % 997)
        wm = lm.gen_node_rep_wm(g, rate, seed=seed)
        back = deserialize_wm(serialize_wm(wm))
        assert back == wm
        assert serialize_wm(back) == serialize_wm(wm)


class TestOwnArrays:
    """A trigger set keeps its own copies of the arrays it is given, so writing
    to one never changes another built from its arrays, or the caller's."""

    def test_node_rep_copies(self, toy_watermark):
        wm = deserialize_wm(serialize_wm(toy_watermark))
        before = serialize_wm(wm)
        other = NodeRepWatermark(wm.num_nodes, wm.nodes, wm.pairs, wm.labels, wm.edges,
                                 wm.features, wm.vector, wm.rate)
        for array in (other.nodes, other.pairs, other.labels, other.vector, other.features):
            array.flat[0] += 1
        assert serialize_wm(wm) == before
        assert serialize_wm(other) != before

    def test_subgraph_copies(self):
        wm = deserialize_wm(small_blobs()["subgraph"])
        wm.indices = np.arange(len(wm.subgraphs))
        other = lm.SubgraphWatermark(wm.subgraphs, wm.labels, wm.vector, wm.rate, wm.indices)
        for array in (other.labels, other.vector, other.indices):
            array[0] += 1
        assert serialize_wm(wm) == small_blobs()["subgraph"]
        assert wm.indices[0] == 0


@functools.lru_cache(maxsize=None)
def small_blobs() -> dict:
    """Valid `.gwm` blobs of both kinds, small enough to cut at every offset."""
    g = lm.init_features(lm.generate_sbm(2, 8, 0.45, 0.15, seed=3), 3, seed=4)
    ds = lm.split_links(g, (0.8, 0.1, 0.1), seed=6)
    sgs = lm.build_subgraph_dataset(ds, 1, "train")
    return {"node_rep": serialize_wm(lm.gen_node_rep_wm(g, 0.3, seed=5)),
            "subgraph": serialize_wm(gen_subgraph_wm(sgs, 0.3, watermark_vector(3, 7), seed=8))}


def one_subgraph_blob(length_delta: int) -> bytes:
    """A one-subgraph blob whose record declares `length_delta` more bytes
    than its fields take, padded (or cut) to match the declared length."""
    sg = lm.Subgraph((5, 9), ((0, 1),), np.zeros((2, 3)), (0, 1), 1)
    blob = serialize_wm(lm.SubgraphWatermark([sg], [1], np.zeros(3), 0.5))
    at = 4 + 1 + 4 + 8 + 3 * 8 + 4  # magic, kind, d, rate, vector, count
    (length,) = struct.unpack_from("<I", blob, at)
    record = blob[at + 4:] + b"\0" * max(length_delta, 0)
    return blob[:at] + struct.pack("<I", length + length_delta) + record[:length + length_delta]


def node_rep_header(num_nodes: int, d: int) -> bytes:
    return b"GWM1" + struct.pack("<BIId", 0, num_nodes, d, 0.1)


def node_rep_blob(edges) -> bytes:
    """A 4-node, d = 1 node-rep blob with no sampled nodes or pairs and the
    given flipped-graph edge records."""
    records = b"".join(struct.pack("<II", u, v) for u, v in edges)
    return (node_rep_header(4, 1) + struct.pack("<III", 0, 0, len(edges)) + records
            + bytes(8 * (1 + 4)))


MALFORMED = {
    # 2^31 nine-byte pair records would need 18 GiB
    "node_rep_2e31_pairs": node_rep_header(4, 1) + struct.pack("<II", 0, 2**31),
    "subgraph_d_2e31": b"GWM1" + struct.pack("<BId", 1, 2**31, 0.1),
    "features_past_end": node_rep_header(2**20, 4) + struct.pack("<III", 0, 0, 0) + bytes(32),
    "truncated_header": node_rep_header(4, 1)[:9],
    "overlong_subgraph_record": one_subgraph_blob(+1),
    "short_subgraph_record": one_subgraph_blob(-1),
    "duplicate_edge": node_rep_blob([(0, 1), (0, 1)]),
    "self_loop_edge": node_rep_blob([(2, 2)]),
    "edge_past_num_nodes": node_rep_blob([(0, 4)]),
}


class TestGoldenBytes:
    # SHA-256 of `small_blobs()`, pinned so that hashes already posted on a
    # board keep verifying: a change to the canonical bytes fails here first
    GOLDEN = {"node_rep": "1a1d570a43925f24bea197fbe4ae76cfc8f0dc198ee8c2b197919d2675b630d3",
              "subgraph": "f6cf860e77bda8aee52b22d49ab3c205239e8913fa4825dde0d96982c22246fd"}

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_serialized_bytes_are_pinned(self, kind):
        assert hashlib.sha256(small_blobs()[kind]).hexdigest() == self.GOLDEN[kind]


class TestMalformedBlobs:
    def test_one_subgraph_blob_is_valid(self):
        assert len(deserialize_wm(one_subgraph_blob(0)).subgraphs) == 1

    def test_node_rep_blob_is_valid(self):
        # records in any order load as the sorted edge array
        wm = deserialize_wm(node_rep_blob([(1, 3), (0, 1)]))
        assert wm.edges.tolist() == [[0, 1], [1, 3]]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected_with_value_error(self, name):
        with pytest.raises(ValueError):
            deserialize_wm(MALFORMED[name])

    @given(st.sampled_from(["node_rep", "subgraph"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_cut_rejected(self, kind, data):
        blob = small_blobs()[kind]
        assert serialize_wm(deserialize_wm(blob)) == blob
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(ValueError):
            deserialize_wm(blob[:cut])

    @pytest.mark.parametrize("column, value", [("pair", -1), ("pair", 2**32),
                                               ("label", 256)])
    def test_writer_refuses_to_wrap(self, toy_watermark, column, value):
        wm = toy_watermark
        pairs = wm.pairs.copy()
        if column == "pair":
            pairs[0, 0] = value
        bad = lm.NodeRepWatermark(wm.num_nodes, wm.nodes, pairs, wm.labels.copy(), wm.edges,
                                  wm.features, wm.vector, wm.rate)
        if column == "label":  # the constructor refuses it, so set it after
            bad.labels[0] = value
        with pytest.raises(ValueError, match="outside"):
            serialize_wm(bad)

    @pytest.mark.parametrize("kind", ["node_rep", "subgraph"])
    def test_trigger_labels_outside_0_1_rejected(self, kind):
        """A trigger label other than 0 or 1 is refused by the constructor and
        by the reader, which would otherwise score a pair labelled 2 as neither
        class."""
        wm = deserialize_wm(small_blobs()[kind])
        labels = wm.labels.copy()
        labels[0] = 2
        with pytest.raises(ValueError, match="0 or 1, got 2"):
            if kind == "node_rep":
                NodeRepWatermark(wm.num_nodes, wm.nodes, wm.pairs, labels, wm.edges,
                                 wm.features, wm.vector, wm.rate)
            else:
                lm.SubgraphWatermark(wm.subgraphs, labels, wm.vector, wm.rate)
        wm.labels[0] = 2  # past the constructor: the writer stores any byte
        with pytest.raises(ValueError, match="0 or 1, got 2"):
            deserialize_wm(serialize_wm(wm))
