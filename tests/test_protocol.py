import itertools
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import linkmark as lm
from linkmark import protocol
from linkmark.nn import encode, score_pairs, softmax
from linkmark.protocol import (BoardFormatError, ServeError, ServeSession, WmParams,
                               dispute, read_board, register)
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


def board_line(ts, who="x", wm_hash="ab" * 32) -> str:
    return json.dumps({"ts": ts, "hash": wm_hash, "who": who}, ensure_ascii=False) + "\n"


def cold_read(path):
    """read_board with the module cache emptied first, then put back."""
    kept = protocol._board_cache
    protocol._board_cache = (b"", (), 0)
    try:
        return read_board(path)
    finally:
        protocol._board_cache = kept


def text_mode_reference(path):
    """The text-mode parse the incremental reader must reproduce."""
    with open(path) as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    return [(float(d["ts"]), d["hash"], d["who"]) for d in docs]


def assert_reads_cold(path):
    warm = read_board(path)
    assert warm == cold_read(path)
    assert [(r.ts, r.wm_hash, r.who) for r in warm] == text_mode_reference(path)
    return warm


class TestIncrementalBoard:
    def test_appends_through_register(self, toy_graph, board):
        for i in range(4):
            _, record = register(toy_graph, WmParams(rate=0.1), board, f"o{i}", seed=40 + i)
            assert assert_reads_cold(board)[-1] == record
        assert len(read_board(board)) == 4

    def test_line_from_another_handle(self, toy_graph, board):
        register(toy_graph, WmParams(rate=0.1), board, "alice", seed=41)
        read_board(board)
        with open(board, "a") as fh:
            fh.write(board_line(2e9, "outsider"))
        assert [r.who for r in assert_reads_cold(board)] == ["alice", "outsider"]

    def test_in_place_edit_of_earlier_line(self, board):
        board.write_text(board_line(1.0, "alice") + board_line(2.0, "bobby"))
        assert_reads_cold(board)
        with open(board, "r+b") as fh:  # same length, so only the content changes
            fh.seek(board.read_bytes().index(b"alice"))
            fh.write(b"mallo")
        assert [r.who for r in assert_reads_cold(board)] == ["mallo", "bobby"]

    def test_replaced_by_shorter_file(self, board):
        board.write_text("".join(board_line(float(i), f"p{i}") for i in range(5)))
        assert len(assert_reads_cold(board)) == 5
        board.write_text(board_line(9.0, "only"))
        assert [r.who for r in assert_reads_cold(board)] == ["only"]
        board.write_text("")
        assert assert_reads_cold(board) == []

    def test_final_line_without_newline_completed_later(self, board):
        board.write_text(board_line(1.0, "a"))
        assert_reads_cold(board)
        with open(board, "a") as fh:
            fh.write(board_line(2.0, "b").rstrip("\n"))
        assert [r.who for r in assert_reads_cold(board)] == ["a", "b"]
        with open(board, "a") as fh:
            fh.write("\n" + board_line(3.0, "c")[:10])
        with pytest.raises(BoardFormatError) as warm:
            read_board(board)
        with pytest.raises(BoardFormatError) as cold:
            cold_read(board)
        assert warm.value.line_no == cold.value.line_no == 3
        with open(board, "a") as fh:
            fh.write(board_line(3.0, "c")[10:])
        assert [r.who for r in assert_reads_cold(board)] == ["a", "b", "c"]

    def test_two_boards_read_alternately(self, tmp_path):
        boards = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for step in range(4):
            for k, path in enumerate(boards):
                with open(path, "a") as fh:
                    fh.write(board_line(float(step), f"{k}-{step}"))
                assert [r.who for r in assert_reads_cold(path)] == [
                    f"{k}-{i}" for i in range(step + 1)]

    def test_crlf_and_unicode_line_separator(self, board):
        # U+2028 and U+0085 are line breaks to str.splitlines but not to a
        # text-mode file, so a record holding them stays one record
        whos = ["crlf", "sep\u2028inside", "nel\x85inside"]
        board.write_bytes("".join(board_line(float(i), w) for i, w in enumerate(whos))
                          .replace("\n", "\r\n").encode())
        assert [r.who for r in assert_reads_cold(board)] == whos
        with open(board, "ab") as fh:
            fh.write(b"\r\n" + board_line(5.0, "old-mac").replace("\n", "\r").encode())
            fh.write(board_line(6.0, "lf").encode())
        assert [r.who for r in assert_reads_cold(board)] == whos + ["old-mac", "lf"]

    def test_warm_read_then_one_append_parses_one_line(self, toy_graph, board, monkeypatch):
        board.write_text("".join(board_line(float(i), f"p{i}") for i in range(50)))
        read_board(board)
        parsed, loads = [], json.loads
        monkeypatch.setattr(protocol.json, "loads",
                            lambda text: parsed.append(text) or loads(text))
        _, record = register(toy_graph, WmParams(rate=0.1), board, "new", seed=42)
        assert read_board(board)[-1] == record
        assert len(parsed) == 1 and '"who": "new"' in parsed[0]


class TestBoardFormat:
    @pytest.mark.parametrize("text", [
        "not json at all",
        '[1.0, "ab", "x"]',
        '{"ts": 1.0, "hash": "ab"}',
        '{"ts": NaN, "hash": "ab", "who": "x"}',
        '{"ts": "1.0", "hash": "ab", "who": "x"}',
        '{"ts": 1.0, "hash": 7, "who": "x"}',
    ], ids=["garbage", "array", "missing_key", "nan_ts", "string_ts", "number_hash"])
    def test_bad_line_raises_typed_error_with_its_number(self, board, text):
        board.write_text(board_line(1.0) + "\n" + text + "\n" + board_line(2.0))
        with pytest.raises(BoardFormatError) as cold:
            cold_read(board)
        assert cold.value.line_no == 3 and "line 3" in str(cold.value)
        # the same line appended to a board this process has already read
        board.write_text(board_line(1.0) + "\n")
        read_board(board)
        with open(board, "a") as fh:
            fh.write(text + "\n" + board_line(2.0))
        with pytest.raises(BoardFormatError) as warm:
            read_board(board)
        assert str(warm.value) == str(cold.value)

    @pytest.mark.parametrize("raw", [
        b"\xff",
        b'{"ts": 1.5, "hash": "ab", "who": "caf\xe9"}',
        b'{"ts": 1.5, "hash": "ab", "who": "\xed\xa0\x80"}',
    ], ids=["lone_byte", "latin1_in_who", "encoded_surrogate"])
    def test_line_that_is_not_utf8_raises_typed_error(self, board, raw):
        first, last = board_line(1.0).encode(), board_line(2.0, "caf\u00e9").encode()
        board.write_bytes(first + raw + b"\n" + last)
        with pytest.raises(BoardFormatError) as cold:
            cold_read(board)
        assert cold.value.line_no == 2 and "line 2" in str(cold.value)
        board.write_bytes(first)
        read_board(board)
        with open(board, "ab") as fh:
            fh.write(raw + b"\n" + last)
        with pytest.raises(BoardFormatError) as warm:
            read_board(board)
        assert str(warm.value) == str(cold.value)
        board.write_bytes(first + last)  # valid UTF-8 beyond ASCII still reads
        assert [r.who for r in assert_reads_cold(board)] == ["x", "caf\u00e9"]


WRITER = """
import json, os, sys, time
import linkmark as lm
from linkmark.protocol import WmParams, register
g = lm.init_features(lm.generate_sbm(2, 20, 0.3, 0.05, seed=1), 8, seed=2)
board, name, k = sys.argv[1], sys.argv[2], int(sys.argv[3])
open(board + "." + name, "w").close()
for _ in range(10_000):  # start appending together, past both imports
    if all(os.path.exists(board + "." + w) for w in ("w0", "w1")):
        break
    time.sleep(0.005)
seeds = range(1000 * int(name[1:]), 1000 * int(name[1:]) + k)
hashes = [register(g, WmParams(rate=0.1), board, name, seed=i)[1].wm_hash for i in seeds]
print(json.dumps(hashes))
"""


def test_two_writer_processes_share_one_board(board):
    k = 15
    src = str(Path(lm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", WRITER, str(board), name, str(k)],
                              env=env, stdout=subprocess.PIPE, text=True)
             for name in ("w0", "w1")]
    try:
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert [proc.returncode for proc in procs] == [0, 0]
    receipts = json.loads(outs[0]) + json.loads(outs[1])
    records = cold_read(board)
    assert len(records) == 2 * k
    assert all(a.ts < b.ts for a, b in zip(records, records[1:]))
    on_board = {r.wm_hash for r in records}
    assert len(on_board) == 2 * k and on_board == set(receipts)


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
