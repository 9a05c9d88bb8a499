import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

import linkmark as lm
from linkmark.nn import encode, score_pairs, softmax
from linkmark.protocol import (ServeError, ServeSession, WmParams, dispute, read_board,
                               register)
from linkmark.util import sha256_hex
from linkmark.watermark import serialize_wm

# trigger AUC cohorts measured from toy clean/watermarked training runs
CLEAN_COHORT = [0.28, 0.35, 0.41, 0.46, 0.33]
WM_COHORT = [0.90, 0.93, 0.95, 0.92, 0.94]


@pytest.fixture()
def board(tmp_path):
    return tmp_path / "board.jsonl"


class TestRegister:
    def test_two_registrations_ordered(self, toy_graph, board):
        register(toy_graph, WmParams(rate=0.1), board, "alice", seed=1)
        register(toy_graph, WmParams(rate=0.1), board, "bob", seed=2)
        records = read_board(board)
        assert [r.who for r in records] == ["alice", "bob"]
        assert records[0].ts < records[1].ts

    def test_returned_watermark_hashes_to_board_entry(self, toy_graph, board):
        wm, record = register(toy_graph, WmParams(rate=0.1), board, "alice", seed=3)
        assert sha256_hex(serialize_wm(wm)) == record.wm_hash
        assert read_board(board)[0].wm_hash == record.wm_hash

    def test_deterministic_given_seed(self, toy_graph, tmp_path):
        wm1, r1 = register(toy_graph, WmParams(rate=0.1), tmp_path / "b1", "a", seed=4)
        wm2, r2 = register(toy_graph, WmParams(rate=0.1), tmp_path / "b2", "a", seed=4)
        assert r1.wm_hash == r2.wm_hash

    def test_subgraph_pathway_registration(self, toy_graph, board):
        wm, record = register(toy_graph, WmParams(pathway="subgraph", rate=0.05),
                              board, "alice", seed=5)
        assert wm.kind == "subgraph"
        assert len(record.wm_hash) == 64


class TestDispute:
    def test_unregistered_watermark_defeats_plaintiff(self, toy_graph, toy_watermark,
                                                      watermarked_model, board):
        register(toy_graph, WmParams(rate=0.1), board, "alice", seed=6)
        verdict = dispute(board, toy_watermark, watermarked_model,
                          CLEAN_COHORT, WM_COHORT, gamma=0.95, n=10_000, seed=7)
        assert verdict.winner == "defendant"
        assert verdict.reason == "no_record"

    def test_tampered_watermark_detected_via_claimed_hash(self, toy_graph,
                                                          watermarked_model, board):
        wm, record = register(toy_graph, WmParams(rate=0.1), board, "alice", seed=8)
        tampered = lm.NodeRepWatermark(wm.num_nodes, wm.nodes, wm.pairs,
                                       1 - wm.labels, wm.edges, wm.features,
                                       wm.vector, wm.rate)
        verdict = dispute(board, tampered, watermarked_model,
                          CLEAN_COHORT, WM_COHORT, gamma=0.95, n=10_000, seed=9,
                          claimed_hash=record.wm_hash)
        assert verdict.winner == "defendant"
        assert verdict.reason == "hash_mismatch"

    def test_watermarked_suspect_loses_to_plaintiff(self, toy_graph, toy_batches,
                                                    toy_config, board):
        wm, record = register(toy_graph, WmParams(rate=0.1), board, "alice", seed=11)
        suspect = lm.LinkPredictor.init("gcn", 16, 32, seed=5)
        lm.embed_interleaved(suspect, toy_batches["train"], wm.batch(), toy_config)
        verdict = dispute(board, wm, suspect, CLEAN_COHORT, WM_COHORT,
                          gamma=0.95, n=10_000, seed=12,
                          claimed_hash=record.wm_hash)
        assert verdict.winner == "plaintiff"
        assert verdict.reason == "auc_above_t"
        assert verdict.auc > verdict.threshold

    def test_clean_suspect_wins(self, toy_graph, clean_model, board):
        wm, _ = register(toy_graph, WmParams(rate=0.1), board, "alice", seed=13)
        verdict = dispute(board, wm, clean_model, CLEAN_COHORT, WM_COHORT,
                          gamma=0.95, n=10_000, seed=14)
        assert verdict.winner == "defendant"
        assert verdict.reason == "auc_below_t"

    def test_dispute_never_mutates_board(self, toy_graph, clean_model, board):
        wm, _ = register(toy_graph, WmParams(rate=0.1), board, "alice", seed=15)
        before = board.read_bytes()
        dispute(board, wm, clean_model, CLEAN_COHORT, WM_COHORT,
                gamma=0.95, n=10_000, seed=16)
        assert board.read_bytes() == before

    def test_subgraph_pathway_dispute(self, toy_graph, toy_dataset, board):
        from linkmark.graph import build_subgraph_dataset
        from linkmark.nn import SubgraphBatch

        params = WmParams(pathway="subgraph", rate=0.02, hops=1)
        wm, record = register(toy_graph, params, board, "owner", seed=21)
        assert set(wm.labels.tolist()) == {0, 1}
        everything = build_subgraph_dataset(toy_dataset, 1, "train")
        labels = np.array([sg.label for sg in everything])
        keep = np.concatenate([np.flatnonzero(labels == 1)[:20],
                               np.flatnonzero(labels == 0)[:20]])
        train_b = SubgraphBatch([everything[i] for i in keep], labels[keep])
        cfg = lm.TrainConfig(epochs=300, hidden_dim=32, seed=22)
        suspect = lm.LinkPredictor.init("gcn", 16, 32, seed=22)
        lm.embed_interleaved(suspect, train_b, wm.batch(), cfg)
        verdict = dispute(board, wm, suspect, CLEAN_COHORT, WM_COHORT,
                          gamma=0.95, n=10_000, seed=23,
                          claimed_hash=record.wm_hash)
        assert verdict.winner == "plaintiff"
        assert verdict.auc > verdict.threshold

    def test_verdict_lists_file_hashes(self, tmp_path, toy_graph, clean_model, board):
        wm, record = register(toy_graph, WmParams(rate=0.1), board, "alice", seed=17)
        ckpt = tmp_path / "suspect.ckpt"
        clean_model.save(ckpt)
        verdict = dispute(board, wm, clean_model, CLEAN_COHORT, WM_COHORT,
                          gamma=0.95, n=10_000, seed=18, checkpoint_path=ckpt)
        assert verdict.wm_hash == record.wm_hash
        assert len(verdict.checkpoint_hash) == 64
        doc = json.loads(json.dumps(asdict(verdict)))  # JSON-serializable
        assert doc["wm_hash"] == record.wm_hash


class TestServe:
    def test_defense_off_returns_raw_prediction(self, watermarked_model,
                                                toy_watermark):
        on = ServeSession.for_watermark(watermarked_model, toy_watermark, defense=True)
        off = ServeSession.for_watermark(watermarked_model, toy_watermark, defense=False)
        outside = None
        nodes = set(toy_watermark.nodes.tolist())
        for u in range(toy_watermark.num_nodes):
            if u not in nodes:
                for v in range(u + 1, toy_watermark.num_nodes):
                    if v not in nodes:
                        outside = (u, v)
                        break
            if outside:
                break
        assert off.query(*outside) == on.query(*outside)

    def test_flipped_queries_are_exactly_internal_pairs(self, watermarked_model,
                                                        toy_watermark):
        on = ServeSession.for_watermark(watermarked_model, toy_watermark, defense=True)
        off = ServeSession.for_watermark(watermarked_model, toy_watermark, defense=False)
        internal = toy_watermark.internal_pair_set()
        n = toy_watermark.num_nodes
        flipped = set()
        for u, v in itertools.combinations(range(n), 2):
            exists_on, p_on = on.query(u, v)
            exists_off, p_off = off.query(u, v)
            if p_on != p_off:
                flipped.add((u, v))
                assert p_on == pytest.approx(1.0 - p_off)
        assert flipped == internal
        s = len(toy_watermark.nodes)
        assert len(flipped) == s * (s - 1) // 2

    def test_line_protocol_format(self, watermarked_model, toy_watermark):
        session = ServeSession.for_watermark(watermarked_model, toy_watermark,
                                             defense=True)
        reply = session.handle_line("3 9")
        bit, prob = reply.split()
        assert bit in ("0", "1")
        assert 0.0 <= float(prob) <= 1.0

    @pytest.mark.parametrize("line,reply", [
        ("-1 3", "err range"), ("0 999", "err range"), ("a b", "err parse"),
        ("1 2 3", "err parse"), ("7", "err parse"), ("1 1", "err self_pair"),
    ])
    def test_bad_lines_rejected(self, watermarked_model, toy_watermark, line, reply):
        session = ServeSession.for_watermark(watermarked_model, toy_watermark,
                                             defense=True)
        assert session.handle_line(line) == reply

    def test_defense_requires_watermark(self, watermarked_model, toy_graph):
        with pytest.raises(ValueError):
            ServeSession(watermarked_model, toy_graph.adjacency(),
                         toy_graph.features, wm=None, defense=True)

    def test_query_symmetric_in_order(self, watermarked_model, toy_watermark):
        session = ServeSession.for_watermark(watermarked_model, toy_watermark,
                                             defense=True)
        assert session.query(4, 11) == session.query(11, 4)

    @staticmethod
    def per_pair(model, wm, defense):
        """Reference: (u, v) -> probability scored one pair at a time,
        inverted on the internal pairs when defended."""
        emb = encode(model, wm.adjacency(), wm.features)
        flip = wm.internal_pair_set() if defense else frozenset()

        def prob(u, v):
            p = float(softmax(score_pairs(model, emb, [[u, v]]))[0, 1])
            return 1.0 - p if (u, v) in flip else p
        return prob

    @pytest.mark.parametrize("defense", [True, False])
    def test_row_cache_matches_per_pair_path(self, watermarked_model, toy_watermark,
                                             defense):
        session = ServeSession.for_watermark(watermarked_model, toy_watermark, defense)
        want = self.per_pair(watermarked_model, toy_watermark, defense)
        n = toy_watermark.num_nodes
        for u, v in itertools.combinations(range(n), 2):
            exists, p = session.query(v, u) if (u + v) % 2 else session.query(u, v)
            assert p == pytest.approx(want(u, v), rel=0, abs=1e-12)
            assert exists == (p > 0.5)
        assert session.counts["row_misses"] == n - 1
        assert session.counts["row_hits"] == n * (n - 1) // 2 - (n - 1)
        assert session.counts["row_over_cap"] == 0

    @pytest.mark.parametrize("cap", [0, 150, 1000])
    def test_cache_stays_under_its_cap(self, monkeypatch, watermarked_model,
                                       toy_watermark, cap):
        monkeypatch.setattr(ServeSession, "ROW_CACHE_FLOATS", cap)
        session = ServeSession.for_watermark(watermarked_model, toy_watermark, True)
        want = self.per_pair(watermarked_model, toy_watermark, True)
        pairs = list(itertools.combinations(range(toy_watermark.num_nodes), 2))
        order = np.random.default_rng(0).permutation(len(pairs))
        for i in order:
            u, v = pairs[i]
            p = session.query(u, v)[1]
            assert sum(len(row) for row in session._rows.values()) <= cap
            assert p == pytest.approx(want(u, v), rel=0, abs=1e-12)
            if cap == 0:
                assert p == want(u, v)  # the per-pair path, bit for bit
        counts = session.counts
        assert counts["row_over_cap"] > 0
        assert counts["row_hits"] + counts["row_misses"] + counts["row_over_cap"] == len(pairs)
        assert counts["row_misses"] == len(session._rows)

    @pytest.mark.parametrize("u,v,code", [
        (-1, 3, "range"), (3, -1, "range"), (100, 3, "range"), (3, 105, "range"),
        (7, 7, "self_pair"),
    ])
    def test_query_raises_typed_error(self, watermarked_model, toy_watermark, u, v, code):
        session = ServeSession.for_watermark(watermarked_model, toy_watermark, True)
        assert toy_watermark.num_nodes == 100
        with pytest.raises(ServeError) as exc:
            session.query(u, v)
        assert isinstance(exc.value, ValueError) and exc.value.code == code
        assert session._rows == {} and session.counts["answered"] == 0

    def test_query_refuses_non_integer_ids(self, watermarked_model, toy_watermark):
        session = ServeSession.for_watermark(watermarked_model, toy_watermark, True)
        with pytest.raises(TypeError):
            session.query(1.5, 3)
        assert session._rows == {}
        assert session.query(np.int64(3), np.int64(1)) == session.query(1, 3)

    def test_counters_add_up_to_lines_sent(self, watermarked_model, toy_watermark):
        session = ServeSession.for_watermark(watermarked_model, toy_watermark, True)
        lines = ["0 1", "1 0", "0 5", "3 9", "-1 3", "0 999", "a b", "1 2 3", "7",
                 "1 1", "9 3", "4 4"]
        replies = [session.handle_line(line) for line in lines]
        assert sum(r.startswith("err") for r in replies) == 7
        assert session.counts == {"answered": 5, "err_parse": 3, "err_range": 2,
                                  "err_self_pair": 2, "row_hits": 3, "row_misses": 2,
                                  "row_over_cap": 0}
        errors = sum(v for k, v in session.counts.items() if k.startswith("err_"))
        assert session.counts["answered"] + errors == len(lines)
