#!/usr/bin/env python3
"""Full ownership workflow on a synthetic graph, driven through the CLI:

datagen -> split -> register -> train -> eval -> threshold -> dispute

Exits 0 only if every stage succeeds and the dispute resolves for the
plaintiff. Pass --out to keep the artifacts; defaults to a temp directory.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = [sys.executable, "-m", "linkmark.cli"]


def run(args, **kw):
    print("+", " ".join(str(a) for a in args))
    proc = subprocess.run([str(a) for a in args], **kw)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return proc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--models", type=int, default=4, help="cohort size per side")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="linkmark_e2e_"))
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "blocks": 2, "per_block": 50, "p_in": 0.3, "p_out": 0.02,
        "feature_dim": 16, "rate": 0.1,
        "arch": "gcn", "hidden": 32, "epochs": args.epochs, "lr": 0.001,
        "method": "genie",
    }))
    seed = str(args.seed)

    run(CLI + ["datagen", "--out", out, "--seed", seed, "--config", cfg])
    run(CLI + ["split", "--out", out, "--seed", seed, "--edges", out / "graph.edges",
               "--features", out / "graph.features", "--config", cfg])
    run(CLI + ["register", "--out", out, "--seed", seed, "--dataset", out / "dataset.npz",
               "--board", out / "board.jsonl", "--who", "owner", "--config", cfg])
    run(CLI + ["train", "--out", out, "--seed", seed, "--dataset", out / "dataset.npz",
               "--wm", out / "trigger.gwm", "--method", "genie", "--config", cfg])
    run(CLI + ["eval", "--out", out, "--dataset", out / "dataset.npz",
               "--checkpoint", out / "model.ckpt", "--wm", out / "trigger.gwm"])
    run(CLI + ["threshold", "--out", out, "--seed", seed,
               "--dataset", out / "dataset.npz", "--models", str(args.models),
               "--gamma", "0.95", "--n", "100000", "--jobs", str(args.jobs),
               "--config", cfg])
    run(CLI + ["dispute", "--out", out, "--board", out / "board.jsonl",
               "--wm", out / "trigger.gwm", "--checkpoint", out / "model.ckpt",
               "--clean-csv", out / "clean_aucs.csv", "--wm-csv", out / "wm_aucs.csv",
               "--gamma", "0.95", "--n", "100000", "--seed", seed])

    verdict = json.loads((out / "verdict.json").read_text())
    print("verdict:", verdict)
    if verdict["winner"] != "plaintiff":
        print("FAIL: expected the plaintiff to win", file=sys.stderr)
        return 1
    print(f"OK: plaintiff wins (auc {verdict['auc']:.3f} > t {verdict['threshold']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
