"""Judge-mediated ownership workflow: registration onto an append-only
bulletin board, dispute resolution, and the adaptive serving defense.

The board is a JSONL file, one record per line:
``{"ts": <utc seconds>, "hash": "<64 hex>", "who": "<registrant>"}``.
Writes are serialized through an advisory file lock; disputes never write.
A read parses only the lines appended since this process last read a prefix
of the file (a new process parses it whole); the board is not tamper-evident.
The judge runs in-process here; the trusted-execution assumption is simulated
by file permissions and this module's narrow interface.
"""

import fcntl
import io
import json
import operator
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_subgraph_dataset, split_links
from .nn import LinkPredictor, encode, score_pairs, softmax
from .stats import dwt_threshold
from .util import derive_seed, sha256_file, sha256_hex
from .watermark import (NodeRepWatermark, gen_node_rep_wm, gen_subgraph_wm,
                        serialize_wm, watermark_auc, watermark_vector)

# (bytes, records, line count) of the last board read that ended in b"\n"
_board_cache = (b"", (), 0)


@dataclass(frozen=True)
class BulletinRecord:
    ts: float
    wm_hash: str
    who: str

    def to_json_dict(self) -> dict:
        return {"ts": self.ts, "hash": self.wm_hash, "who": self.who}


@dataclass(frozen=True)
class Verdict:
    winner: str           # "plaintiff" | "defendant"
    reason: str           # no_record | hash_mismatch | auc_below_t | auc_above_t
    threshold: float
    auc: float
    wm_hash: str = ""
    checkpoint_hash: str = ""


@dataclass(frozen=True)
class WmParams:
    """What the judge needs to generate a trigger set from a graph."""

    pathway: str = "node_rep"      # node_rep | subgraph
    rate: float = 0.1
    hops: int = 1                  # subgraph pathway only
    split_ratios: tuple = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.pathway not in ("node_rep", "subgraph"):
            raise ValueError(f"unknown pathway {self.pathway!r}")


class BoardFormatError(ValueError):
    def __init__(self, line_no: int, text: str):
        super().__init__(f"board line {line_no}: not a ts/hash/who record: {text.strip()[:80]!r}")
        self.line_no = line_no


def _parse_record(line_no: int, line: str) -> BulletinRecord:
    try:
        line.encode()  # UnicodeEncodeError: the line held bytes that are not UTF-8
        d = json.loads(line)
        ts, wm_hash, who = float(d["ts"]), d["hash"], d["who"]
        if type(d["ts"]) in (int, float) and np.isfinite(ts) and str == type(wm_hash) == type(who):
            return BulletinRecord(ts, wm_hash, who)
    except (ValueError, TypeError, KeyError, OverflowError):
        pass
    raise BoardFormatError(line_no, line)


def read_board(board_path) -> list:
    global _board_cache
    try:
        with open(board_path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return []
    seen, records, lines = _board_cache if data.startswith(_board_cache[0]) else (b"", (), 0)
    # bytes that are not UTF-8 decode to lone surrogates, which `_parse_record` refuses
    tail = list(io.TextIOWrapper(io.BytesIO(data[len(seen):]), "utf-8", "surrogateescape"))
    records += tuple(_parse_record(lines + i, t) for i, t in enumerate(tail, 1) if t.strip())
    if data.endswith(b"\n"):
        _board_cache = (data, records, lines + len(tail))
    return list(records)


def _append_record(board_path, wm_hash: str, who: str) -> BulletinRecord:
    with open(board_path, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            existing = read_board(board_path)
            ts = time.time()
            if existing and ts <= existing[-1].ts:
                # keep records strictly time-ordered even within one tick
                ts = existing[-1].ts + 1e-6
            record = BulletinRecord(ts, wm_hash, who)
            fh.write(json.dumps(record.to_json_dict()) + "\n")
            fh.flush()
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)
    return record


def generate_watermark(graph: Graph, params: WmParams, seed: int):
    """Judge-side trigger-set generation for either pathway."""
    if params.pathway == "node_rep":
        return gen_node_rep_wm(graph, params.rate, seed)
    ds = split_links(graph, params.split_ratios, derive_seed(seed, "judge-split"))
    subgraphs = build_subgraph_dataset(ds, params.hops, "train")
    vector = watermark_vector(graph.features.shape[1], derive_seed(seed, "judge-wvec"))
    return gen_subgraph_wm(subgraphs, params.rate, vector, derive_seed(seed, "judge-sample"))


def register(graph: Graph, params: WmParams, board_path, who: str, seed: int):
    """Generate the trigger set judge-side, append its hash to the board, and
    hand the watermark back to the owner."""
    wm = generate_watermark(graph, params, seed)
    wm_hash = sha256_hex(serialize_wm(wm))
    return wm, _append_record(board_path, wm_hash, who)


def dispute(board_path, wm, suspect: LinkPredictor, clean_aucs, wm_aucs,
            gamma: float, n: int, seed: int = 0, claimed_hash: str | None = None,
            checkpoint_path=None) -> Verdict:
    """Resolve an ownership claim.

    The watermark hash must appear on the board (a mismatch against the
    plaintiff's claimed hash, or a missing record, defeats the plaintiff
    outright). Otherwise the judge sets the threshold from the supplied clean
    and watermarked AUC samples and evaluates the suspect on the trigger set.
    """
    wm_hash = sha256_hex(serialize_wm(wm))
    ckpt_hash = sha256_file(checkpoint_path) if checkpoint_path else ""
    nan = float("nan")
    if claimed_hash is not None and wm_hash != claimed_hash:
        return Verdict("defendant", "hash_mismatch", nan, nan, wm_hash, ckpt_hash)
    if not any(r.wm_hash == wm_hash for r in read_board(board_path)):
        return Verdict("defendant", "no_record", nan, nan, wm_hash, ckpt_hash)
    report = dwt_threshold(clean_aucs, wm_aucs, n=n, gamma=gamma, seed=seed)
    score = watermark_auc(suspect, wm)
    winner, reason = (("plaintiff", "auc_above_t") if score > report.threshold
                      else ("defendant", "auc_below_t"))
    return Verdict(winner, reason, report.threshold, score, wm_hash, ckpt_hash)


class ServeError(ValueError):
    """A query the endpoint refuses; `code` is its `err <code>` reply."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ServeSession:
    """Prediction endpoint over a fixed graph state.

    With the defense enabled, queries landing on an internal pair of the
    trigger node subset come back inverted, so an adversary sweeping the
    endpoint reconstructs the original graph rather than the flipped one.

    The first query with lower endpoint `a` scores all pairs (a, b > a) in one
    `score_pairs` call and keeps their probabilities; later queries on that row
    index it. Rows hold at most `ROW_CACHE_FLOATS` floats in all, and past the
    cap a query is scored alone. `counts` tallies the answers, each `err` code,
    and the cache's hits, misses and over-cap fallbacks.
    """

    ROW_CACHE_FLOATS = 1 << 22

    def __init__(self, model: LinkPredictor, adjacency, features,
                 wm: NodeRepWatermark | None = None, defense: bool = False):
        if defense and wm is None:
            raise ValueError("defense requires the watermark")
        self.model = model
        # the graph state is fixed for the session, so encode once
        self.embeddings = encode(model, adjacency.tocsr(), np.asarray(features, dtype=float))
        self.flip_nodes = frozenset(wm.nodes.tolist()) if (defense and wm) else frozenset()
        self._rows, self._cached = {}, 0
        self.counts = dict.fromkeys(("answered", "err_parse", "err_range", "err_self_pair",
                                     "row_hits", "row_misses", "row_over_cap"), 0)

    @classmethod
    def for_watermark(cls, model: LinkPredictor, wm: NodeRepWatermark,
                      defense: bool) -> "ServeSession":
        """Serve the deployed (watermarked) graph state."""
        return cls(model, wm.adjacency(), wm.features, wm=wm, defense=defense)

    def _p_pos(self, pairs) -> np.ndarray:
        return softmax(score_pairs(self.model, self.embeddings, pairs))[:, 1].copy()

    def query(self, u: int, v: int):
        """(exists, probability of the reported answer's positive class). Ids
        must be integers; a node outside [0, n) raises `ServeError` "range",
        u == v "self_pair"."""
        n, u, v = len(self.embeddings), operator.index(u), operator.index(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ServeError("range", f"node outside [0, {n}) in ({u}, {v})")
        if u == v:
            raise ServeError("self_pair", f"self pair ({u}, {v})")
        a, b = (u, v) if u < v else (v, u)
        row = self._rows.get(a)
        tally = "row_hits" if row is not None else "row_over_cap"
        if row is None and self._cached + n - 1 - a <= self.ROW_CACHE_FLOATS:
            ends = np.arange(a + 1, n)
            row = self._rows[a] = self._p_pos(np.column_stack((np.full_like(ends, a), ends)))
            self._cached += len(row)
            tally = "row_misses"
        self.counts[tally] += 1
        p_pos = float(row[b - a - 1] if row is not None else self._p_pos([[a, b]])[0])
        if a in self.flip_nodes and b in self.flip_nodes:
            p_pos = 1.0 - p_pos
        self.counts["answered"] += 1
        return p_pos > 0.5, p_pos

    def handle_line(self, line: str) -> str:
        """Line protocol: query "u v", reply "1 <p>" or "0 <p>". A line that
        is not two integers gets "err parse"; a query `query` refuses gets
        "err <code>" of its `ServeError`."""
        try:
            u, v = (int(t) for t in line.split())
        except ValueError:
            code = "parse"
        else:
            try:
                exists, p = self.query(u, v)
                return f"{int(exists)} {p:.6f}"
            except ServeError as exc:
                code = exc.code
        self.counts["err_" + code] += 1
        return "err " + code
