"""Subcommand front-end wiring the library into end-to-end workflows.

Every command takes ``--out <dir>``, writes its artifacts there together with
a ``<command>_manifest.json`` recording the seed and config hash, and exits
nonzero with a machine-readable JSON error on stderr when anything fails.
All randomness flows from a single ``--seed`` through named streams, so each
stage is individually reproducible. The two fan-out commands, ``threshold``
and ``reproduce-table1``, take ``--jobs`` (default 1) to bound their worker
pool.
"""

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import embed
from .attacks import ATTACK_KINDS, attacker_split, make_report, run_attack
from .graph import (SPLITS, build_subgraph_dataset, generate_sbm, init_features,
                    load_dataset, load_edge_list, load_features, save_dataset,
                    save_edge_list, split_links)
from .nn import LinkPredictor, PairBatch, SubgraphBatch, TrainConfig, evaluate_auc
from .protocol import ServeSession, WmParams, dispute, generate_watermark, register
from .stats import dwt_threshold, finite_samples, shapiro_wilk, smoothed_bootstrap_test
from .util import derive_seed, sha256_file, sha256_hex
from .watermark import load_wm, save_wm, watermark_auc

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _fail(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    return EXIT_ERROR


def _pool_map(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        return doc
    return {}


def _write_manifest(out_dir: Path, command: str, params: dict, artifacts: dict) -> None:
    canonical = json.dumps(params, sort_keys=True)
    doc = {
        "command": command,
        "params": params,
        "seed": params.get("seed"),
        "config_sha256": sha256_hex(canonical.encode()),
        "artifacts": {name: sha256_file(path) for name, path in artifacts.items()},
    }
    with open(out_dir / f"{command}_manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_graph(edges_path, features_path=None):
    g = load_edge_list(edges_path)
    if features_path:
        return g.with_features(load_features(features_path, g.num_nodes))
    return g


def _train_cfg(doc: dict, args) -> TrainConfig:
    cfg = TrainConfig.from_json_dict(doc)
    if getattr(args, "epochs", None) is not None:
        cfg.epochs = args.epochs
    if getattr(args, "method", None):
        cfg.method = args.method
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _split_batches(ds, params: WmParams):
    """Per-split batches: scored pairs for node-representation models, or
    labeled k-hop subgraphs for subgraph classifiers."""
    out = {}
    for split in SPLITS:
        pairs, labels = ds.split_arrays(split)
        if params.pathway == "subgraph":
            out[split] = SubgraphBatch(build_subgraph_dataset(ds, params.hops, split), labels)
        else:
            out[split] = PairBatch(ds.mp_adjacency, ds.features, pairs, labels)
    return out


def write_samples_csv(values, path) -> None:
    with open(path, "w") as fh:
        for v in values:
            fh.write(f"{v}\n")


def read_samples_csv(path) -> np.ndarray:
    with open(path) as fh:
        return finite_samples([float(line) for line in fh if line.strip()])


def cmd_datagen(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    if args.edges:
        g = _load_graph(args.edges, args.features)
    else:
        g = generate_sbm(cfg.get("blocks", 2), cfg.get("per_block", 100),
                         cfg.get("p_in", 0.25), cfg.get("p_out", 0.02),
                         derive_seed(seed, "sbm"))
    dim = int(cfg.get("feature_dim", args.feature_dim))
    g = init_features(g, dim, derive_seed(seed, "features"))
    edges_path = out / "graph.edges"
    feat_path = out / "graph.features"
    save_edge_list(g, edges_path)
    with open(feat_path, "w") as fh:
        for i in range(g.num_nodes):
            row = " ".join(repr(float(x)) for x in g.features[i])
            fh.write(f"{i} {row}\n")
    params = {"seed": seed, "feature_dim": dim, "source": args.edges or "sbm", **cfg}
    _write_manifest(out, "datagen", params, {"graph.edges": edges_path,
                                             "graph.features": feat_path})
    print(f"graph: {g.num_nodes} nodes, {g.num_edges} edges -> {edges_path}")
    return EXIT_OK


def cmd_split(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    ratios = tuple(cfg.get("ratios", (0.8, 0.1, 0.1)))
    g = _load_graph(args.edges, args.features)
    ds = split_links(g, ratios, derive_seed(seed, "split"))
    ds_path = out / "dataset.npz"
    save_dataset(ds, ds_path)
    params = {"seed": seed, "ratios": list(ratios), "edges": str(args.edges)}
    _write_manifest(out, "split", params, {"dataset.npz": ds_path})
    counts = {s: len(ds.split_arrays(s)[1]) for s in SPLITS}
    print(f"split sizes: {counts} -> {ds_path}")
    return EXIT_OK


def cmd_wm_gen(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    params = WmParams.from_json_dict(cfg)
    g = _load_graph(args.edges, args.features)
    wm = generate_watermark(g, params, derive_seed(seed, "wm"))
    wm_path = out / "trigger.gwm"
    save_wm(wm, wm_path)
    _write_manifest(out, "wm-gen", {"seed": seed, "pathway": params.pathway,
                                    "rate": params.rate}, {"trigger.gwm": wm_path})
    print(f"trigger set: {params.pathway}, rate {params.rate} -> {wm_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args)
    doc = _load_config(args)
    cfg = _train_cfg(doc, args)
    cfg.method = cfg.method if args.wm else "clean"
    ds = load_dataset(args.dataset)
    batches = _split_batches(ds, WmParams.from_json_dict(doc))
    wm_batch = load_wm(args.wm).batch() if args.wm else None
    model = LinkPredictor.init(cfg.arch, ds.features.shape[1], cfg.hidden_dim,
                               derive_seed(cfg.seed, "init"))
    embed.embed_with_method(cfg.method, model, batches["train"], wm_batch, cfg)
    ckpt = out / "model.ckpt"
    model.save(ckpt)
    _write_manifest(out, "train", cfg.to_json_dict(), {"model.ckpt": ckpt})
    print(f"trained {cfg.arch}/{cfg.method} for {cfg.epochs} epochs -> {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = _out_dir(args)
    doc = _load_config(args)
    ds = load_dataset(args.dataset)
    batches = _split_batches(ds, WmParams.from_json_dict(doc))
    model = LinkPredictor.load(args.checkpoint)
    report = {
        "auc_test": evaluate_auc(model, batches["test"]),
        "auc_valid": evaluate_auc(model, batches["valid"]) if len(batches["valid"]) else None,
    }
    if args.wm:
        report["auc_wm"] = watermark_auc(model, load_wm(args.wm))
    path = out / "eval.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    _write_manifest(out, "eval", {"checkpoint": str(args.checkpoint),
                                  "seed": None}, {"eval.json": path})
    print(json.dumps(report))
    return EXIT_OK


def _threshold_task(task: dict) -> dict:
    """One (seed, kind) model training for threshold estimation; runs in a
    worker process, so everything arrives via paths, plain values and WmParams."""
    ds = load_dataset(task["dataset"])
    batches = _split_batches(ds, task["params"])
    cfg = TrainConfig.from_json_dict(task["cfg"])
    cfg.seed = task["seed"]
    wm = generate_watermark(_load_graph(task["edges"], task["features"]),
                            task["params"], derive_seed(task["seed"], "wm"))
    model = LinkPredictor.init(cfg.arch, ds.features.shape[1], cfg.hidden_dim,
                               derive_seed(cfg.seed, "init"))
    method = "clean" if task["kind"] == "clean" else cfg.method
    embed.embed_with_method(method, model, batches["train"], wm.batch(), cfg)
    return {"kind": task["kind"], "seed": task["seed"],
            "auc_wm": watermark_auc(model, wm),
            "auc_test": evaluate_auc(model, batches["test"])}


def _cohort_aucs(args, cfg_doc: dict, seed: int, count: int):
    """Train `count` clean and `count` watermarked models over the worker
    pool; returns their trigger AUCs as (clean, wm) lists in seed order."""
    tasks = [{"dataset": str(args.dataset), "edges": str(args.edges),
              "features": str(args.features) if args.features else None,
              "cfg": TrainConfig.from_json_dict(cfg_doc).to_json_dict(),
              "seed": derive_seed(seed, f"{kind}{i}"), "kind": kind,
              "params": WmParams.from_json_dict(cfg_doc)}
             for kind in ("clean", "wm") for i in range(count)]
    results = _pool_map(_threshold_task, tasks, args.jobs)
    results.sort(key=lambda r: (r["kind"], r["seed"]))
    return tuple([r["auc_wm"] for r in results if r["kind"] == kind]
                 for kind in ("clean", "wm"))


def cmd_threshold(args) -> int:
    out = _out_dir(args)
    cfg_doc = _load_config(args)
    seed = args.seed if args.seed is not None else int(cfg_doc.get("seed", 0))
    gamma = float(cfg_doc.get("gamma", args.gamma))
    n = int(cfg_doc.get("n", args.n))
    if args.clean_csv and args.wm_csv:
        clean = read_samples_csv(args.clean_csv)
        wm = read_samples_csv(args.wm_csv)
    else:
        if not (args.dataset and args.edges):
            return _fail("missing_input", "threshold needs --dataset and --edges "
                                          "unless sample CSVs are given")
        count = int(cfg_doc.get("models", args.models))
        clean, wm = map(np.array, _cohort_aucs(args, cfg_doc, seed, count))
        write_samples_csv(clean, out / "clean_aucs.csv")
        write_samples_csv(wm, out / "wm_aucs.csv")
    report = dwt_threshold(clean, wm, n=n, gamma=gamma, seed=derive_seed(seed, "dwt"))
    path = out / "threshold.json"
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    _write_manifest(out, "threshold", {"seed": seed, "gamma": gamma, "n": n},
                    {"threshold.json": path})
    print(json.dumps(report.to_json_dict()))
    return EXIT_OK


def cmd_attack(args) -> int:
    out = _out_dir(args)
    cfg_doc = _load_config(args)
    seed = args.seed if args.seed is not None else int(cfg_doc.get("seed", 0))
    kind = args.kind
    if kind not in ATTACK_KINDS:
        return _fail("unknown_attack", f"unknown attack {kind!r}")
    ds = load_dataset(args.dataset)
    wm = load_wm(args.wm)
    model = LinkPredictor.load(args.checkpoint)
    attack_batch, eval_batch = attacker_split(ds, derive_seed(seed, "attacker"))
    threshold = args.threshold
    cfg = TrainConfig.from_json_dict(cfg_doc)
    cfg.seed = seed
    attacked = run_attack(kind, model, attack_batch, cfg, fraction=args.fraction,
                          bits=args.bits, epochs=args.epochs, mix=args.mix,
                          surrogate_arch=args.surrogate_arch)
    report = make_report(kind, model, attacked, eval_batch, wm, threshold)
    path = out / f"attack_{kind}.json"
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    _write_manifest(out, "attack", {"seed": seed, "kind": kind,
                                    "threshold": threshold}, {path.name: path})
    print(json.dumps(report.to_json_dict()))
    return EXIT_OK


def cmd_register(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    g = _load_graph(args.edges, args.features)
    params = WmParams.from_json_dict(cfg)
    wm, record = register(g, params, args.board, args.who, derive_seed(seed, "wm"))
    wm_path = out / "trigger.gwm"
    save_wm(wm, wm_path)
    receipt = out / "receipt.json"
    with open(receipt, "w") as fh:
        json.dump(record.to_json_dict(), fh, indent=2)
    _write_manifest(out, "register", {"seed": seed, "who": args.who},
                    {"trigger.gwm": wm_path, "receipt.json": receipt})
    print(json.dumps(record.to_json_dict()))
    return EXIT_OK


def cmd_dispute(args) -> int:
    out = _out_dir(args)
    wm = load_wm(args.wm)
    suspect = LinkPredictor.load(args.checkpoint)
    verdict = dispute(args.board, wm, suspect,
                      read_samples_csv(args.clean_csv),
                      read_samples_csv(args.wm_csv),
                      gamma=args.gamma, n=args.n,
                      seed=derive_seed(args.seed or 0, "dispute"),
                      claimed_hash=args.claimed_hash,
                      checkpoint_path=args.checkpoint)
    path = out / "verdict.json"
    with open(path, "w") as fh:
        json.dump(verdict.to_json_dict(), fh, indent=2)
    _write_manifest(out, "dispute", {"seed": args.seed, "gamma": args.gamma,
                                     "n": args.n}, {"verdict.json": path})
    print(json.dumps(verdict.to_json_dict()))
    return EXIT_OK


def cmd_serve(args) -> int:
    model = LinkPredictor.load(args.checkpoint)
    if args.wm:
        wm = load_wm(args.wm)
        session = ServeSession.for_watermark(model, wm, defense=args.defense)
    else:
        if args.defense:
            return _fail("missing_wm", "defense requires --wm")
        g = _load_graph(args.edges, args.features)
        session = ServeSession(model, g.adjacency(), g.features)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        print(session.handle_line(line), flush=True)
    return EXIT_OK


def cmd_report(args) -> int:
    out = _out_dir(args)
    rows = []
    for path in sorted(Path(args.runs).rglob("eval.json")):
        with open(path) as fh:
            rows.append({"run": str(path.parent.name), **json.load(fh)})
    if args.table == "mainResults":
        kinds = {"clean": [], "wm": []}
        for row in rows:
            kinds["wm" if row.get("auc_wm") is not None else "clean"].append(row)
        path = out / "mainResults.csv"
        with open(path, "w") as fh:
            fh.write("auc_test_clean,auc_test_wm,auc_wm_wm\n")
            for clean_row, wm_row in zip(kinds["clean"], kinds["wm"]):
                fh.write(f"{clean_row['auc_test']},{wm_row['auc_test']},{wm_row['auc_wm']}\n")
        print(f"wrote {path}")
        _write_manifest(out, "report", {"table": args.table, "seed": None},
                        {"mainResults.csv": path})
        return EXIT_OK
    return _fail("unknown_table", f"unknown table {args.table!r}")


def cmd_reproduce_table1(args) -> int:
    out = _out_dir(args)
    cfg_doc = _load_config(args)
    seed = args.seed if args.seed is not None else int(cfg_doc.get("seed", 0))
    count = int(cfg_doc.get("models", args.models))
    clean, wm = _cohort_aucs(args, cfg_doc, seed, count)
    _, p_clean = shapiro_wilk(clean)
    _, p_wm = shapiro_wilk(wm)
    p_boot = smoothed_bootstrap_test(clean, wm, replicates=100_000,
                                     seed=derive_seed(seed, "boot"))
    doc = {"clean_auc_wm": clean, "wm_auc_wm": wm,
           "shapiro_p_clean": p_clean, "shapiro_p_wm": p_wm,
           "bootstrap_p": p_boot, "reject_null": p_boot < 0.05}
    path = out / "table1.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    csv_path = out / "table1.csv"
    with open(csv_path, "w") as fh:
        fh.write("score," + ",".join(f"i={i+1}" for i in range(count)) + "\n")
        fh.write("clean," + ",".join(f"{v:.4f}" for v in clean) + "\n")
        fh.write("wm," + ",".join(f"{v:.4f}" for v in wm) + "\n")
    _write_manifest(out, "reproduce-table1", {"seed": seed, "models": count},
                    {"table1.json": path, "table1.csv": csv_path})
    print(json.dumps({k: doc[k] for k in ("shapiro_p_clean", "shapiro_p_wm",
                                          "bootstrap_p", "reject_null")}))
    if doc["reject_null"]:
        print("null hypothesis of equal means REJECTED (p < 0.05)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkmark",
        description="Watermark link-prediction GNNs, certify ownership "
                    "thresholds, and stress-test the watermark.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True, jobs=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        if out:
            p.add_argument("--out", default=".", help="artifact directory")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker pool size")

    p = sub.add_parser("datagen", help="generate an SBM graph or import an edge list")
    common(p)
    p.add_argument("--edges", help="existing edge-list file to import")
    p.add_argument("--features", help="optional feature file")
    p.add_argument("--feature-dim", type=int, default=32)
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("split", help="split links and sample negatives")
    common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--features")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("wm-gen", help="generate a trigger set")
    common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--features")
    p.set_defaults(fn=cmd_wm_gen)

    p = sub.add_parser("train", help="train a model, optionally embedding a watermark")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--wm")
    p.add_argument("--method", choices=["clean", "genie", "finetune", "poison",
                                        "uniform", "mgda"])
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wm")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("threshold", help="train clean/watermarked cohorts and set the threshold")
    common(p, jobs=True)
    p.add_argument("--dataset")
    p.add_argument("--edges")
    p.add_argument("--features")
    p.add_argument("--models", type=int, default=10)
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--clean-csv", help="precomputed clean AUC samples (one per line)")
    p.add_argument("--wm-csv", help="precomputed watermarked AUC samples")
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("attack", help="run one removal attack and report the verdict")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wm", required=True)
    p.add_argument("--kind", required=True, help=", ".join(ATTACK_KINDS))
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--bits", type=int, default=3)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--mix", type=float, default=0.5)
    p.add_argument("--surrogate-arch", choices=["gcn", "sage"])
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("register", help="judge-side trigger generation plus board entry")
    common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--features")
    p.add_argument("--board", required=True)
    p.add_argument("--who", required=True)
    p.set_defaults(fn=cmd_register)

    p = sub.add_parser("dispute", help="resolve an ownership dispute")
    common(p)
    p.add_argument("--board", required=True)
    p.add_argument("--wm", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--clean-csv", required=True)
    p.add_argument("--wm-csv", required=True)
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--claimed-hash")
    p.set_defaults(fn=cmd_dispute)

    p = sub.add_parser("serve", help="line-protocol prediction endpoint on stdin/stdout")
    common(p, out=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wm")
    p.add_argument("--edges")
    p.add_argument("--features")
    p.add_argument("--defense", action="store_true")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("report", help="render collected eval reports as CSV tables")
    common(p)
    p.add_argument("--runs", required=True, help="directory tree of eval outputs")
    p.add_argument("--table", default="mainResults")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("reproduce-table1",
                       help="train clean/watermarked cohorts and print the "
                            "normality and bootstrap statistics")
    common(p, jobs=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--features")
    p.add_argument("--models", type=int, default=10)
    p.set_defaults(fn=cmd_reproduce_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        return _fail("missing_file", str(exc))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail("invalid_input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
