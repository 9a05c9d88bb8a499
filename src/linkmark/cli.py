"""Subcommand front-end wiring the library into end-to-end workflows.

Each setting a command reads is resolved once: the explicit flag, else the
key of the ``--config`` JSON file, else ``DEFAULTS``; no other module knows
the config format. Every command but ``serve`` writes its artifacts under
``--out`` with a ``<command>_manifest.json`` of the settings that ran and the
SHA-256 of its input files and artifacts; a path never enters the settings
or their ``config_sha256``. A failing command exits 1 with a JSON error on
stderr.
All randomness flows from the resolved ``seed`` through named streams. The
fan-out command ``threshold`` (cohort training, then Table 1) takes ``--jobs``.
"""

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .attacks import ATTACKS, attacker_split, make_report
from .embed import EMBED_METHODS
from .graph import (SPLITS, build_subgraph_dataset, generate_sbm, init_features,
                    load_dataset, load_edge_list, load_features, save_dataset,
                    save_edge_list, split_links)
from .nn import ARCHS, LinkPredictor, PairBatch, SubgraphBatch, TrainConfig, evaluate_auc
from .protocol import ServeSession, WmParams, dispute, generate_watermark, register
from .stats import dwt_threshold, finite_samples, shapiro_wilk, smoothed_bootstrap_test
from .util import derive_seed, pin_blas_threads, sha256_file, sha256_hex
from .watermark import load_wm, save_wm, watermark_auc

EXIT_OK = 0
EXIT_ERROR = 1

# Every setting by its config key. A flag whose dest is a key overrides it.
DEFAULTS = {
    "seed": 0,
    "blocks": 2, "per_block": 100, "p_in": 0.25, "p_out": 0.02, "feature_dim": 32,
    "pathway": WmParams.pathway, "rate": WmParams.rate, "hops": WmParams.hops,
    "ratios": WmParams.split_ratios,
    "arch": TrainConfig.arch, "hidden": TrainConfig.hidden_dim,
    "epochs": TrainConfig.epochs, "lr": TrainConfig.learning_rate, "method": "genie",
    "gamma": 0.95, "n": 1_000_000, "models": 10,
}


def _fail(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    return EXIT_ERROR


def _pool_map(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _settings(args) -> dict:
    """Resolve every key of DEFAULTS once: the flag if given, else the
    --config key (cast to the default's type), else the default. "config"
    holds the config document as read."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
    s = {"config": config}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        try:
            s[key] = flag if flag is not None else type(default)(config.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    if s["method"] not in EMBED_METHODS:
        raise ValueError(f"config key 'method': unknown embedding method {s['method']!r}")
    return s


def _train_config(s: dict) -> TrainConfig:
    return TrainConfig(epochs=s["epochs"], learning_rate=s["lr"], hidden_dim=s["hidden"],
                       seed=s["seed"], arch=s["arch"])


def _wm_params(s: dict) -> WmParams:
    return WmParams(s["pathway"], s["rate"], s["hops"], s["ratios"])


# input-file flags a manifest records by content hash, never by path
INPUT_FILES = ("edges", "features", "dataset", "checkpoint", "wm", "clean_csv", "wm_csv")


def _emit(args, params: dict, artifacts: list, report=None, line=None) -> int:
    """Finish a command: write `report`, a (file name, JSON document) pair,
    into --out; write the manifest over the files named in `artifacts` and
    the report, and over the input files given; print `line`, by default the
    report on one line."""
    out, names = args.out, list(artifacts)
    if report is not None:
        name, doc = report
        with open(out / name, "w") as fh:
            json.dump(doc, fh, indent=2)
        if name not in names:
            names.append(name)
        line = json.dumps(doc) if line is None else line
    manifest = {
        "command": args.command,
        "params": params,
        "seed": params.get("seed"),
        "config_sha256": sha256_hex(json.dumps(params, sort_keys=True).encode()),
        "inputs": {key: sha256_file(getattr(args, key)) for key in INPUT_FILES
                   if getattr(args, key, None)},
        "artifacts": {name: sha256_file(out / name) for name in names},
    }
    with open(out / f"{args.command}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(line)
    return EXIT_OK


def _load_graph(edges_path, features_path=None):
    g = load_edge_list(edges_path)
    if features_path:
        return g.with_features(load_features(features_path, g.num_nodes))
    return g


def _split_batch(ds, params: WmParams, split: str):
    """One split's batch: scored pairs for node-representation models, or
    labeled k-hop subgraphs for subgraph classifiers."""
    pairs, labels = ds.split_arrays(split)
    if params.pathway == "subgraph":
        return SubgraphBatch(build_subgraph_dataset(ds, params.hops, split), labels)
    return PairBatch(ds.mp_adjacency, ds.features, pairs, labels)


def write_samples_csv(values, path) -> None:
    with open(path, "w") as fh:
        for v in values:
            fh.write(f"{v}\n")


def read_samples_csv(path) -> np.ndarray:
    with open(path) as fh:
        return finite_samples([float(line) for line in fh if line.strip()])


def cmd_datagen(args, s) -> int:
    if args.edges:
        g = _load_graph(args.edges, args.features)
    else:
        g = generate_sbm(s["blocks"], s["per_block"], s["p_in"], s["p_out"],
                         derive_seed(s["seed"], "sbm"))
    g = init_features(g, s["feature_dim"], derive_seed(s["seed"], "features"))
    save_edge_list(g, args.out / "graph.edges")
    with open(args.out / "graph.features", "w") as fh:
        for i in range(g.num_nodes):
            row = " ".join(repr(float(x)) for x in g.features[i])
            fh.write(f"{i} {row}\n")
    params = {"seed": s["seed"], "feature_dim": s["feature_dim"],
              "source": "edges" if args.edges else "sbm",
              **{key: s.get(key, value) for key, value in s["config"].items()}}
    return _emit(args, params, ["graph.edges", "graph.features"],
                 line=f"graph: {g.num_nodes} nodes, {g.num_edges} edges -> "
                      f"{args.out / 'graph.edges'}")


def cmd_split(args, s) -> int:
    ds = split_links(_load_graph(args.edges, args.features), s["ratios"],
                     derive_seed(s["seed"], "split"))
    save_dataset(ds, args.out / "dataset.npz")
    counts = {split: len(ds.split_arrays(split)[1]) for split in SPLITS}
    return _emit(args, {"seed": s["seed"], "ratios": list(s["ratios"])}, ["dataset.npz"],
                 line=f"split sizes: {counts} -> {args.out / 'dataset.npz'}")


def cmd_train(args, s) -> int:
    cfg = _train_config(s)
    method = s["method"] if args.wm else "clean"
    ds = load_dataset(args.dataset)
    train = _split_batch(ds, _wm_params(s), "train")
    wm_batch = load_wm(args.wm).batch() if args.wm else None
    model = LinkPredictor.init(cfg.arch, ds.features.shape[1], cfg.hidden_dim,
                               derive_seed(cfg.seed, "init"))
    EMBED_METHODS[method](model, train, wm_batch, cfg)
    model.save(args.out / "model.ckpt")
    params = {**{key: s[key] for key in ("arch", "hidden", "epochs", "lr", "seed")},
              "method": method}
    return _emit(args, params, ["model.ckpt"],
                 line=f"trained {cfg.arch}/{method} for {cfg.epochs} epochs -> "
                      f"{args.out / 'model.ckpt'}")


def cmd_eval(args, s) -> int:
    ds, params = load_dataset(args.dataset), _wm_params(s)
    test, valid = (_split_batch(ds, params, split) for split in ("test", "valid"))
    model = LinkPredictor.load(args.checkpoint)
    report = {
        "auc_test": evaluate_auc(model, test),
        "auc_valid": evaluate_auc(model, valid) if len(valid) else None,
    }
    if args.wm:
        report["auc_wm"] = watermark_auc(model, load_wm(args.wm))
    hops = params.hops if params.pathway == "subgraph" else None
    return _emit(args, {"seed": None, "pathway": params.pathway, "hops": hops}, [],
                 ("eval.json", report))


def _threshold_task(task: dict) -> dict:
    """One (seed, kind) model training for threshold estimation; runs in a
    worker process, so everything arrives via paths and plain values."""
    s, seed = task["settings"], task["seed"]
    params = _wm_params(s)
    ds = load_dataset(task["dataset"])
    cfg = _train_config({**s, "seed": seed})
    wm = generate_watermark(ds.graph(), params, derive_seed(seed, "wm"))
    model = LinkPredictor.init(cfg.arch, ds.features.shape[1], cfg.hidden_dim,
                               derive_seed(seed, "init"))
    method = "clean" if task["kind"] == "clean" else s["method"]
    EMBED_METHODS[method](model, _split_batch(ds, params, "train"), wm.batch(), cfg)
    return {"kind": task["kind"], "seed": seed, "auc_wm": watermark_auc(model, wm)}


def _cohort_aucs(args, s: dict):
    """Train `models` clean and `models` watermarked models over the worker
    pool; returns their trigger AUCs as (clean, wm) lists in seed order."""
    tasks = [{"dataset": str(args.dataset), "settings": s,
              "seed": derive_seed(s["seed"], f"{kind}{i}"), "kind": kind}
             for kind in ("clean", "wm") for i in range(s["models"])]
    results = _pool_map(_threshold_task, tasks, args.jobs)
    results.sort(key=lambda r: (r["kind"], r["seed"]))
    return tuple([r["auc_wm"] for r in results if r["kind"] == kind]
                 for kind in ("clean", "wm"))


def _write_table1(out: Path, clean: np.ndarray, wm: np.ndarray, seed: int) -> list:
    """Table 1 of a cohort: its trigger AUCs, the Shapiro-Wilk p-value of each
    side and the smoothed bootstrap p-value, as table1.json and table1.csv."""
    p_boot = smoothed_bootstrap_test(clean, wm, replicates=100_000, seed=derive_seed(seed, "boot"))
    doc = {"clean_auc_wm": clean.tolist(), "wm_auc_wm": wm.tolist(),
           "shapiro_p_clean": shapiro_wilk(clean)[1], "shapiro_p_wm": shapiro_wilk(wm)[1],
           "bootstrap_p": p_boot, "reject_null": p_boot < 0.05}
    with open(out / "table1.json", "w") as fh:
        json.dump(doc, fh, indent=2)
    with open(out / "table1.csv", "w") as fh:
        fh.write("score," + ",".join(f"i={i + 1}" for i in range(len(clean))) + "\n")
        for name, sample in (("clean", clean), ("wm", wm)):
            fh.write(name + "," + ",".join(f"{v:.4f}" for v in sample) + "\n")
    return ["table1.json", "table1.csv"]


def cmd_threshold(args, s) -> int:
    if args.clean_csv or args.wm_csv:
        if not (args.clean_csv and args.wm_csv):
            missing = "--wm-csv" if args.clean_csv else "--clean-csv"
            return _fail("missing_input", f"threshold needs {missing} too: it reads "
                                          "both sample CSVs or neither")
        clean, wm = read_samples_csv(args.clean_csv), read_samples_csv(args.wm_csv)
    elif not args.dataset:
        return _fail("missing_input", "threshold needs --dataset unless sample CSVs are given")
    else:
        clean, wm = map(np.array, _cohort_aucs(args, s))
        write_samples_csv(clean, args.out / "clean_aucs.csv")
        write_samples_csv(wm, args.out / "wm_aucs.csv")
    report = dwt_threshold(clean, wm, n=s["n"], gamma=s["gamma"],
                           seed=derive_seed(s["seed"], "dwt"))
    artifacts = [] if args.clean_csv else ["clean_aucs.csv", "wm_aucs.csv",
                                           *_write_table1(args.out, clean, wm, s["seed"])]
    return _emit(args, {"seed": s["seed"], "gamma": s["gamma"], "n": s["n"]},
                 artifacts, ("threshold.json", asdict(report)))


def cmd_attack(args, s) -> int:
    if args.kind not in ATTACKS:
        return _fail("unknown_attack", f"unknown attack {args.kind!r}")
    ds = load_dataset(args.dataset)
    wm = load_wm(args.wm)
    model = LinkPredictor.load(args.checkpoint)
    attack_batch, eval_batch = attacker_split(ds, derive_seed(s["seed"], "attacker"))
    attacked = ATTACKS[args.kind](model, attack_batch, _train_config(s),
                                  fraction=args.fraction, bits=args.bits,
                                  epochs=args.finetune_epochs, mix=args.mix,
                                  surrogate_arch=args.surrogate_arch)
    report = make_report(args.kind, model, attacked, eval_batch, wm, args.threshold)
    params = {"seed": s["seed"], "kind": args.kind, "threshold": args.threshold}
    return _emit(args, params, [], (f"attack_{args.kind}.json", asdict(report)))


def cmd_register(args, s) -> int:
    wm, record = register(load_dataset(args.dataset).graph(), _wm_params(s), args.board,
                          args.who, derive_seed(s["seed"], "wm"))
    save_wm(wm, args.out / "trigger.gwm")
    return _emit(args, {"seed": s["seed"], "who": args.who},
                 ["trigger.gwm"], ("receipt.json", record.to_json_dict()))


def cmd_dispute(args, s) -> int:
    verdict = dispute(args.board, load_wm(args.wm), LinkPredictor.load(args.checkpoint),
                      read_samples_csv(args.clean_csv), read_samples_csv(args.wm_csv),
                      gamma=s["gamma"], n=s["n"], seed=derive_seed(s["seed"], "dwt"),
                      claimed_hash=args.claimed_hash, checkpoint_path=args.checkpoint)
    return _emit(args, {"seed": s["seed"], "gamma": s["gamma"], "n": s["n"]},
                 [], ("verdict.json", asdict(verdict)))


def cmd_serve(args, s) -> int:
    model = LinkPredictor.load(args.checkpoint)
    if args.wm:
        session = ServeSession.for_watermark(model, load_wm(args.wm), defense=args.defense)
    else:
        if args.defense:
            return _fail("missing_wm", "defense requires --wm")
        g = _load_graph(args.edges, args.features)
        session = ServeSession(model, g.adjacency(), g.features)
    for line in sys.stdin:
        if line.strip():
            print(session.handle_line(line.strip()), flush=True)
    sys.stderr.write(json.dumps(session.counts) + "\n")
    return EXIT_OK


def cmd_report(args, s) -> int:
    """One row per watermarked `eval.json`, beside the one clean row whose eval
    manifest names the same `inputs.dataset`, pathway and hops (no manifest:
    unknown ones)."""
    kinds = {"clean": [], "wm": []}
    for path in sorted(Path(args.runs).rglob("eval.json")):
        row, manifest = json.loads(path.read_text()), path.with_name("eval_manifest.json")
        doc = json.loads(manifest.read_text()) if manifest.exists() else {}
        params = doc.get("params", {})
        run = (doc.get("inputs", {}).get("dataset"), params.get("pathway"), params.get("hops"))
        kinds["wm" if row.get("auc_wm") is not None else "clean"].append((path, run, row))
    lines = []
    for path, run, wm_row in kinds["wm"]:
        clean = [row for _, r, row in kinds["clean"] if r == run]
        if len(clean) != 1:
            return _fail("unpaired_run", f"{path}: {len(clean)} clean runs on its dataset+pathway")
        lines.append(f"{clean[0]['auc_test']},{wm_row['auc_test']},{wm_row['auc_wm']}\n")
    path = args.out / "mainResults.csv"
    path.write_text("auc_test_clean,auc_test_wm,auc_wm_wm\n" + "".join(lines))
    return _emit(args, {"table": "mainResults", "seed": None},
                 ["mainResults.csv"], line=f"wrote {path}")


# Flags shared by several commands. In a command's flag list, a trailing "!"
# makes the flag required there.
FLAGS = {
    "config": dict(help="JSON config file; an explicit flag beats its keys"),
    "seed": dict(type=int, help="master seed (default: the config's seed, else 0)"),
    "out": dict(default=".", help="artifact directory"),
    "jobs": dict(type=int, default=1, help="worker pool size"),
    **dict.fromkeys(("edges", "features", "dataset", "checkpoint", "wm", "board"), {}),
    "models": dict(type=int, help="models per cohort"),
    "gamma": dict(type=float, help="certificate confidence"),
    "n": dict(type=int, help="certificate block size"),
    "clean-csv": dict(help="clean trigger-AUC samples, one per line"),
    "wm-csv": dict(help="watermarked trigger-AUC samples, one per line"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkmark",
        description="Watermark link-prediction GNNs, certify ownership "
                    "thresholds, and stress-test the watermark. Each setting is "
                    "the flag if given, else the --config key, else its default.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            key = flag.rstrip("!")
            p.add_argument(f"--{key}", required=flag.endswith("!"), **FLAGS[key])
        p.set_defaults(fn=fn)
        return p

    p = command("datagen", cmd_datagen, "generate an SBM graph or import an edge list",
                "config seed out edges features")
    p.add_argument("--feature-dim", type=int, help="feature columns")

    command("split", cmd_split, "split links and sample negatives",
            "config seed out edges! features")

    p = command("train", cmd_train, "train a model, optionally embedding a watermark",
                "config seed out dataset! wm")
    p.add_argument("--method", choices=list(EMBED_METHODS))
    p.add_argument("--epochs", type=int, help="training epochs")

    command("eval", cmd_eval, "evaluate a checkpoint", "config out dataset! checkpoint! wm")
    command("threshold", cmd_threshold, "set the threshold from sample CSVs or a trained cohort",
            "config seed out jobs dataset models gamma n clean-csv wm-csv")

    p = command("attack", cmd_attack, "run one removal attack and report the verdict",
                "config seed out dataset! checkpoint! wm!")
    p.add_argument("--kind", required=True, help=", ".join(ATTACKS))
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--fraction", type=float, default=0.2)
    p.add_argument("--bits", type=int, default=3)
    p.add_argument("--epochs", dest="finetune_epochs", type=int, default=50,
                   help="fine-tuning epochs; surrogates train for the config's epochs")
    p.add_argument("--mix", type=float, default=0.5)
    p.add_argument("--surrogate-arch", choices=list(ARCHS))

    p = command("register", cmd_register, "judge-side trigger generation plus board entry",
                "config seed out dataset! board!")
    p.add_argument("--who", required=True)

    p = command("dispute", cmd_dispute, "resolve an ownership dispute",
                "config seed out board! wm! checkpoint! clean-csv! wm-csv! gamma n")
    p.add_argument("--claimed-hash")

    p = command("serve", cmd_serve, "line-protocol prediction endpoint on stdin/stdout",
                "checkpoint! wm edges features")
    p.add_argument("--defense", action="store_true")

    p = command("report", cmd_report, "render collected eval reports as the "
                                      "mainResults CSV table", "out")
    p.add_argument("--runs", required=True, help="directory tree of eval outputs")
    return parser


def main(argv=None) -> int:
    pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        if "out" in args:
            args.out = Path(args.out)
            args.out.mkdir(parents=True, exist_ok=True)
        return args.fn(args, _settings(args))
    except FileNotFoundError as exc:
        return _fail("missing_file", str(exc))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail("invalid_input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
