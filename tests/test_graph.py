import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkmark as lm
from linkmark.graph import (MAX_NODES, SPLITS, EdgeListParseError, FeatureParseError,
                            NoNegativesAvailable, SelfLoopError, _edge_rows, load_dataset,
                            load_features, pair_order, save_dataset, save_edge_list)

from conftest import edge_set


def pair_set(ds, mask) -> set:
    return {(int(u), int(v)) for u, v in ds.pairs[mask]}


def write(tmp_path, text, name="g.edges"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_two_lines(self, tmp_path):
        g = lm.load_edge_list(write(tmp_path, "0 1\n1 2\n"))
        assert g.num_nodes == 3
        assert edge_set(g.edges) == {(0, 1), (1, 2)}

    def test_undirected_dedup(self, tmp_path):
        g = lm.load_edge_list(write(tmp_path, "0 1\n1 0\n"))
        assert g.num_edges == 1

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(SelfLoopError) as exc:
            lm.load_edge_list(write(tmp_path, "0 0\n"))
        assert exc.value.line_no == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(EdgeListParseError) as exc:
            lm.load_edge_list(write(tmp_path, "0 1\nnope\n"))
        assert exc.value.line_no == 2

    def test_comments_and_header(self, tmp_path):
        g = lm.load_edge_list(write(tmp_path, "# comment\nN 10\n0 1 # trailing\n"))
        assert g.num_nodes == 10
        assert edge_set(g.edges) == {(0, 1)}

    def test_header_too_small_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            lm.load_edge_list(write(tmp_path, "N 3\n0 5\n"))

    def test_node_count_past_int64_pair_keys_rejected(self, tmp_path):
        # pair keys u * n + v wrap in int64 once n * n > 2**63 - 1
        with pytest.raises(EdgeListParseError) as exc:
            lm.load_edge_list(write(tmp_path, "# big\nN 10000000000\n0 1\n"))
        assert exc.value.line_no == 2 and "N 10000000000" in str(exc.value)
        with pytest.raises(EdgeListParseError) as exc:
            lm.load_edge_list(write(tmp_path, "0 1\n1 10000000000\n"))
        assert exc.value.line_no == 2
        assert lm.load_edge_list(write(tmp_path, f"N {MAX_NODES}\n0 1\n")).num_nodes == MAX_NODES
        assert MAX_NODES ** 2 <= np.iinfo(np.int64).max < (MAX_NODES + 1) ** 2

    def test_roundtrip(self, tmp_path):
        g = lm.generate_sbm(2, 6, 0.5, 0.1, seed=3)
        path = tmp_path / "rt.edges"
        save_edge_list(g, path)
        g2 = lm.load_edge_list(path)
        assert g2.num_nodes == g.num_nodes and np.array_equal(g2.edges, g.edges)


def test_load_features(tmp_path):
    path = tmp_path / "f.features"
    path.write_text("1 0.5 -0.25\n0 1.0 2.0\n")
    feats = load_features(path, 2)
    assert np.allclose(feats, [[1.0, 2.0], [0.5, -0.25]])
    with pytest.raises(ValueError):
        load_features(path, 3)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_load_features_rejects_non_finite(tmp_path, value):
    path = tmp_path / "f.features"
    path.write_text(f"0 1.0 2.0\n1 0.5 {value}\n")
    with pytest.raises(FeatureParseError) as exc:
        load_features(path, 2)
    assert exc.value.line_no == 2 and value in str(exc.value)
    assert "cannot parse feature row" in str(exc.value)


@pytest.mark.parametrize("text,line_no", [
    ("0 1.0 2.0\n1 x 2.0\n", 2),       # not a number
    ("0 1.0 2.0\n1 0.5\n", 2),         # wrong width
    ("0 1.0 2.0\n0 0.5 0.5\n", 2),     # repeated id
    ("# c\n5 1.0 2.0\n", 2),           # id out of range
    ("-1 1.0 2.0\n", 1),               # negative id
])
def test_load_features_bad_rows_name_their_line(tmp_path, text, line_no):
    path = tmp_path / "f.features"
    path.write_text(text)
    with pytest.raises(FeatureParseError) as exc:
        load_features(path, 2)
    assert exc.value.line_no == line_no
    assert "cannot parse feature row" in str(exc.value)


class TestGenerateSbm:
    def test_two_cliques(self):
        g = lm.generate_sbm(2, 5, 1.0, 0.0, seed=1)
        assert g.num_edges == 20
        for u, v in g.edges:
            assert u // 5 == v // 5

    def test_empty(self):
        assert lm.generate_sbm(1, 4, 0.0, 0.0, seed=1).num_edges == 0

    def test_edge_count_within_3_sigma(self):
        # binomial oracle: within pairs 2*C(50,2) at p_in, cross pairs 50*50 at p_out
        within, cross = 2 * (50 * 49 // 2), 50 * 50
        mean = 0.3 * within + 0.01 * cross
        var = within * 0.3 * 0.7 + cross * 0.01 * 0.99
        g = lm.generate_sbm(2, 50, 0.3, 0.01, seed=7)
        assert abs(g.num_edges - mean) <= 3 * np.sqrt(var)

    def test_deterministic(self):
        a = lm.generate_sbm(3, 10, 0.4, 0.05, seed=42)
        b = lm.generate_sbm(3, 10, 0.4, 0.05, seed=42)
        assert np.array_equal(a.edges, b.edges)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            lm.generate_sbm(2, 5, 1.5, 0.0, seed=1)


class TestInitFeatures:
    def test_deterministic(self, toy_graph):
        a = lm.init_features(toy_graph, 8, seed=3)
        b = lm.init_features(toy_graph, 8, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_shape_and_range(self):
        g = lm.generate_sbm(1, 10, 0.3, 0.0, seed=2)
        g = lm.init_features(g, 8, seed=4)
        assert g.features.shape == (10, 8)
        assert np.all((g.features > -1) & (g.features < 1))

    def test_seeds_differ(self, toy_graph):
        a = lm.init_features(toy_graph, 8, seed=3)
        b = lm.init_features(toy_graph, 8, seed=4)
        assert not np.array_equal(a.features, b.features)


class TestSplitLinks:
    def test_ten_edge_graph_counts(self):
        g = lm.Graph.from_edges(20, [(i, i + 1) for i in range(10)])
        ds = lm.split_links(g, (0.8, 0.1, 0.1), seed=1)
        for split, expect in (("train", 8), ("valid", 1), ("test", 1)):
            pairs, labels = ds.split_arrays(split)
            assert int(labels.sum()) == expect
            assert int((labels == 0).sum()) == expect

    def test_complete_graph_has_no_negatives(self):
        k5 = lm.Graph.from_edges(5, list(itertools.combinations(range(5), 2)))
        with pytest.raises(NoNegativesAvailable):
            lm.split_links(k5, (0.8, 0.1, 0.1), seed=1)

    def test_positive_negative_disjoint(self, toy_graph, toy_dataset):
        pos = pair_set(toy_dataset, toy_dataset.labels == 1)
        neg = pair_set(toy_dataset, toy_dataset.labels == 0)
        assert pos & neg == set()
        assert pos == edge_set(toy_graph.edges)
        assert not neg & edge_set(toy_graph.edges)

    def test_positives_partition_edges(self, toy_graph, toy_dataset):
        per_split = {}
        for split in ("train", "valid", "test"):
            per_split[split] = pair_set(toy_dataset, (toy_dataset.labels == 1)
                                        & (toy_dataset.splits == SPLITS.index(split)))
        assert per_split["train"] | per_split["valid"] | per_split["test"] == edge_set(toy_graph.edges)
        assert not per_split["train"] & per_split["valid"]
        assert not per_split["train"] & per_split["test"]
        assert not per_split["valid"] & per_split["test"]

    def test_mp_adjacency_symmetric_and_train_only(self, toy_dataset):
        mp = toy_dataset.mp_adjacency
        assert (mp != mp.T).nnz == 0
        hidden = pair_set(toy_dataset, (toy_dataset.labels == 1)
                          & (toy_dataset.splits != SPLITS.index("train")))
        for u, v in hidden:
            assert mp[u, v] == 0 and mp[v, u] == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_negatives_never_edges(self, seed):
        g = lm.generate_sbm(2, 8, 0.5, 0.2, seed=5)
        ds = lm.split_links(g, (0.8, 0.1, 0.1), seed=seed)
        for u, v in pair_set(ds, ds.labels == 0):
            assert (min(u, v), max(u, v)) not in edge_set(g.edges)

    def test_rejection_sampler_on_large_sparse_graph(self):
        # 4000 nodes exceed the enumeration bound, forcing rejection sampling
        edges = [(i, i + 1) for i in range(200)]
        g = lm.Graph.from_edges(4000, edges)
        ds = lm.split_links(g, (0.8, 0.1, 0.1), seed=3)
        negs = pair_set(ds, ds.labels == 0)
        assert len(negs) == g.num_edges
        assert not negs & edge_set(g.edges)


class TestExtractKhop:
    def path_dataset(self):
        g = lm.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)],
                                features=np.eye(4))
        ds = lm.split_links(g, (1.0, 0.0, 0.0), seed=0)
        return ds

    def test_path_graph_one_hop(self):
        sg = lm.extract_khop(self.path_dataset(), (1, 2), 1)
        assert sg.node_ids.tolist() == [0, 1, 2, 3]
        assert edge_set(sg.local_edges) == {(0, 1), (2, 3)}  # anchor edge removed
        assert sg.anchor == (1, 2)

    def test_isolated_pair(self):
        g = lm.Graph.from_edges(6, [(0, 1)], features=np.eye(6))
        ds = lm.split_links(g, (1.0, 0.0, 0.0), seed=0)
        sg = lm.extract_khop(ds, (3, 4), 2)
        assert sg.node_ids.tolist() == [3, 4]
        assert sg.local_edges.shape == (0, 2)

    def test_zero_hops(self):
        sg = lm.extract_khop(self.path_dataset(), (1, 2), 0)
        assert sg.node_ids.tolist() == [1, 2]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        g = lm.generate_sbm(2, 10, 0.5, 0.1, seed=21)
        g = lm.init_features(g, 4, seed=22)
        ds = lm.split_links(g, (1.0, 0.0, 0.0), seed=0)
        perm = rng.permutation(g.num_nodes)
        relabeled = lm.Graph.from_edges(
            g.num_nodes, [(perm[u], perm[v]) for u, v in g.edges],
            features=g.features[np.argsort(perm)])
        ds_p = lm.split_links(relabeled, (1.0, 0.0, 0.0), seed=0)
        for u, v in list(g.edges)[:10]:
            sg = lm.extract_khop(ds, (u, v), 1)
            sg_p = lm.extract_khop(ds_p, (perm[u], perm[v]), 1)
            assert sg.num_nodes == sg_p.num_nodes
            # same multiset of node ids after mapping back
            assert sorted(perm[list(sg.node_ids)].tolist()) == sorted(sg_p.node_ids)
            assert len(sg.local_edges) == len(sg_p.local_edges)


def khop_reference(ds, u, v, k):
    """Set-based BFS: the pre-vectorisation extract_khop, kept as an oracle.
    Returns (node ids, local edges, anchor) as plain Python values."""
    adj = ds.mp_adjacency
    neighbours = lambda node: adj.indices[adj.indptr[node]:adj.indptr[node + 1]].tolist()
    frontier, reached = {u, v}, {u, v}
    for _ in range(k):
        nxt = set().union(*(neighbours(node) for node in frontier))
        frontier = nxt - reached
        reached |= nxt
    node_ids = sorted(reached)
    local = {node: i for i, node in enumerate(node_ids)}
    edges = sorted((local[a], local[b]) for a in node_ids for b in neighbours(a)
                   if b in local and a < b and {a, b} != {u, v})
    return node_ids, edges, (local[u], local[v])


@given(st.integers(min_value=2, max_value=14).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30),
    # node n has no edges, so an endpoint can be isolated
    st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True),
    st.integers(min_value=0, max_value=3))))
@settings(max_examples=200, deadline=None)
def test_extract_khop_matches_set_bfs(case):
    n, pairs, (u, v), k = case
    g = lm.Graph.from_edges(n + 1, [(a, b) for a, b in pairs if a != b],
                            features=np.arange(2.0 * (n + 1)).reshape(n + 1, 2))
    ds = lm.LinkDataset(g.adjacency(), np.zeros((0, 2)), np.zeros(0), np.zeros(0), g.features)
    sg = lm.extract_khop(ds, (u, v), k, label=1)
    node_ids, edges, anchor = khop_reference(ds, u, v, k)
    assert sg.node_ids.tolist() == node_ids and sg.node_ids.dtype == np.int64
    assert sg.local_edges.tolist() == [list(e) for e in edges]
    assert sg.local_edges.shape == (len(edges), 2) and sg.local_edges.dtype == np.int64
    assert sg.anchor == anchor and sg.label == 1
    assert np.array_equal(sg.local_features, g.features[node_ids])


class TestEdgeArrays:
    @pytest.mark.parametrize("edges, message", [
        ([[1, 2], [0, 1]], "unsorted"),
        ([[0, 1], [0, 1]], "duplicate"),
        ([[0, 1], [2, 2]], "self-loop"),
        ([[2, 1]], "out of range"),
        ([[0, 4]], "out of range"),
        ([[-1, 2]], "out of range"),
        ([0, 1, 2], "E x 2"),
    ])
    def test_graph_rejects_non_canonical_edges(self, edges, message):
        with pytest.raises(ValueError, match=message):
            lm.Graph(4, np.array(edges), np.zeros((4, 1)))

    def test_graph_rejects_feature_row_mismatch(self):
        with pytest.raises(ValueError, match="feature rows"):
            lm.Graph(4, np.array([[0, 1]]), np.zeros((3, 1)))

    @pytest.mark.parametrize("node_ids, local_edges, message", [
        ([3, 1], [], "sorted and distinct"),
        ([1, 1], [], "sorted and distinct"),
        ([1, 3], [[0, 2]], "out of range"),
        ([1, 3, 5], [[1, 2], [0, 1]], "unsorted"),
        ([1, 3, 5], [[0, 1], [0, 1]], "duplicate"),
    ])
    def test_subgraph_rejects_bad_arrays(self, node_ids, local_edges, message):
        with pytest.raises(ValueError, match=message):
            lm.Subgraph(node_ids, local_edges, np.zeros((len(node_ids), 1)), (0, 1), 0)

    def test_from_edges_canonicalises(self):
        g = lm.Graph.from_edges(4, [(2, 1), (0, 3), (1, 2)])
        assert g.edges.tolist() == [[0, 3], [1, 2]] and g.edges.dtype == np.int64
        assert lm.Graph.from_edges(4, []).edges.shape == (0, 2)

    def test_arrays_are_read_only(self, toy_graph, toy_dataset):
        pairs, _ = toy_dataset.split_arrays("train")
        sg = lm.extract_khop(toy_dataset, pairs[0], 1)
        for array in (toy_graph.edges, toy_graph.features, sg.node_ids, sg.local_edges):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def pair_rows(kind: str, rng: np.random.Generator) -> np.ndarray:
    """An N x 2 int64 row set of the given kind, ids in [0, 2**32)."""
    n = int(rng.integers(2, 40))
    if kind == "random":
        return rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
    if kind == "wide":  # ids spread over the whole u4 range, both ends included
        top = 2**32 - 1
        rows = rng.integers(0, 2**32, size=(3 * n, 2))
        rows[:6] = [[top, 0], [0, top], [top, top], [0, 0], [1, 0], [top - 1, top]]
        return rng.permutation(rows)
    if kind == "empty":
        return np.zeros((0, 2), dtype=np.int64)
    if kind == "complete":  # every ordered pair, shuffled
        return rng.permutation(np.argwhere(np.ones((n, n))))
    if kind == "reversed":
        return np.argwhere(np.triu(np.ones((n, n)), 1))[::-1]
    assert kind == "duplicates"  # few distinct rows, each many times
    return rng.integers(0, 3, size=(4 * n, 2))


def unique_rows(edges):
    """`Graph.from_edges`'s edge rows as np.unique over rows built them."""
    return np.unique(np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1), axis=0)


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestPairOrder:
    KINDS = ["random", "wide", "empty", "complete", "reversed", "duplicates"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_lexsort(self, kind):
        rng = np.random.default_rng(61)
        for _ in range(20):
            rows = pair_rows(kind, rng)
            # both sorts are stable, so even tied rows keep the same positions
            assert np.array_equal(pair_order(rows), np.lexsort(rows.T[::-1]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_from_edges_matches_unique_rows(self, kind):
        rng = np.random.default_rng(62)
        for _ in range(20):
            rows = pair_rows(kind, rng)
            rows = rows[rows[:, 0] != rows[:, 1]]
            n = int(rows.max()) + 1 if rows.size else 3
            g = lm.Graph.from_edges(n, rows)
            assert np.array_equal(g.edges, unique_rows(rows))
            assert g.edges.dtype == np.int64

    @pytest.mark.parametrize("rows", [
        [[-1, 2], [5, 3], [0, 1]],
        [[2, 2], [-3, 1], [0, 9]],
        [[2**32, 1], [0, 2**33], [1, 0]],
        [[0, 1], [-2**62, 2**62], [3, 3]],
    ])
    def test_refusals_name_the_same_row(self, rows):
        # rows with ids outside [0, 2**32) are refused as before, naming the same row
        rows = np.array(rows, dtype=np.int64)
        assert np.array_equal(pair_order(rows), np.lexsort(rows.T[::-1]))
        want = raised(_edge_rows, rows[np.lexsort(rows.T[::-1])], 4, "edge")
        assert raised(lm.NodeRepWatermark, 4, [], [], [], rows, np.zeros((4, 1)),
                      np.zeros(1), 0.5) == want
        want = raised(lm.Graph, 4, unique_rows(rows), np.zeros((4, 0)))
        assert raised(lm.Graph.from_edges, 4, rows) == want


def test_dataset_roundtrip(tmp_path, toy_dataset):
    path = tmp_path / "ds.npz"
    save_dataset(toy_dataset, path)
    back = load_dataset(path)
    for key in ("pairs", "labels", "splits"):
        assert np.array_equal(getattr(back, key), getattr(toy_dataset, key))
        assert getattr(back, key).dtype == getattr(toy_dataset, key).dtype
    assert (back.mp_adjacency != toy_dataset.mp_adjacency).nnz == 0
    assert np.array_equal(back.features, toy_dataset.features)


# 60 nodes declared and 19 used: 41 isolated nodes, and no feature columns
HEADER_EDGES = "N 60\n" + "".join(f"{i} {i + 1}\n" for i in range(18)) + "".join(
    f"{i + 3} {i}\n" for i in range(0, 16, 2))


class TestDatasetGraph:
    """`LinkDataset.graph()` is the graph the split was drawn from, bit for bit."""

    @pytest.mark.parametrize("saved", [False, True], ids=["in_memory", "saved"])
    @pytest.mark.parametrize("ratios", [(0.8, 0.1, 0.1), (0.6, 0.2, 0.2)])
    @pytest.mark.parametrize("source", ["sbm", "header_isolated"])
    def test_round_trip(self, tmp_path, toy_graph, source, ratios, saved):
        g = toy_graph if source == "sbm" else lm.load_edge_list(write(tmp_path, HEADER_EDGES))
        if source != "sbm":
            assert (g.num_nodes, g.features.shape, g.edges.max()) == (60, (60, 0), 18)
        ds = lm.split_links(g, ratios, seed=5)
        if saved:
            save_dataset(ds, tmp_path / "ds.npz")
            ds = load_dataset(tmp_path / "ds.npz")
        back = ds.graph()
        assert back.num_nodes == g.num_nodes
        assert back.edges.dtype == g.edges.dtype and back.edges.shape == g.edges.shape
        assert back.edges.tobytes() == g.edges.tobytes()
        assert back.features.dtype == g.features.dtype
        assert back.features.shape == g.features.shape
        assert back.features.tobytes() == g.features.tobytes()

    @pytest.mark.parametrize("pair_v, message", [([5, 3], "out of range"),
                                                 ([0, 3], "self-loop")])
    def test_bad_positive_pair_rejected(self, tmp_path, pair_v, message):
        ds = load_dataset(write_dataset_npz(tmp_path / "bad.npz",
                                            pair_v=np.array(pair_v, dtype=np.int64)))
        with pytest.raises(ValueError, match=message):
            ds.graph()


def write_dataset_npz(path, **override):
    """A hand-written dataset.npz: 4 nodes, one train positive and negative."""
    doc = {"num_nodes": np.int64(4), "mp_edges": np.array([[0, 1]], dtype=np.int64),
           "pair_u": np.array([0, 2], dtype=np.int64),
           "pair_v": np.array([1, 3], dtype=np.int64),
           "labels": np.array([1, 0], dtype=np.int64),
           "splits": np.array([0, 0], dtype=np.int8), "features": np.zeros((4, 2))}
    doc.update(override)
    np.savez(path, **doc)
    return path


class TestLoadDatasetValidation:
    def test_hand_written_file_loads(self, tmp_path):
        ds = load_dataset(write_dataset_npz(tmp_path / "ds.npz"))
        pairs, labels = ds.split_arrays("train")
        assert pairs.tolist() == [[0, 1], [2, 3]] and labels.tolist() == [1, 0]
        assert ds.split_arrays("test")[0].shape == (0, 2)

    @pytest.mark.parametrize("override, message", [
        ({"pair_v": np.array([1])}, "differ in length"),
        ({"labels": np.array([1, 0, 1])}, "differ in length"),
        ({"splits": np.array([0], dtype=np.int8)}, "differ in length"),
        ({"splits": np.array([0, 3], dtype=np.int8)}, "split codes"),
        ({"splits": np.array([0, -1], dtype=np.int8)}, "split codes"),
        # 256 would wrap to the train code 0 if it were cast before the check
        ({"splits": np.array([0, 256], dtype=np.int64)}, "split codes"),
        ({"labels": np.array([1, 2])}, "labels"),
        ({"labels": np.array([1, -1])}, "labels"),
        # a column of node ids must not be read as rows of edges
        ({"mp_edges": np.array([[0], [1]])}, "E x 2"),
        ({"mp_edges": np.array([[1, 0]])}, "out of range"),
        ({"mp_edges": np.array([[0, 1], [0, 1]])}, "duplicate"),
    ])
    def test_bad_arrays_rejected(self, tmp_path, override, message):
        with pytest.raises(ValueError, match=message):
            load_dataset(write_dataset_npz(tmp_path / "bad.npz", **override))
