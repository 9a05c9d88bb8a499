#!/usr/bin/env python3
"""Run the removal-attack battery against a watermarked checkpoint and emit
one aggregate CSV (rows = attack, columns = metrics and verdict).

Needs the artifacts produced by the end-to-end pipeline (dataset, trigger
set, checkpoint) plus a decision threshold.
"""

import argparse
import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from linkmark.attacks import ATTACKS, FINETUNE_MODES, attacker_split, make_report
from linkmark.graph import load_dataset
from linkmark.nn import LinkPredictor, TrainConfig
from linkmark.util import derive_seed
from linkmark.watermark import load_wm

# (CSV label stem, attack parameters); the label stem names the attack kind,
# with the "finetune_" prefix dropped
BATTERY = (
    [("finetune_" + m, {}) for m in FINETUNE_MODES]
    + [("prune", {"fraction": f}) for f in (0.2, 0.4, 0.6, 0.8)]
    + [("quantize", {"bits": 3})]
    + [(f"fine_prune_{m}", {"fraction": f}) for m in ("FTLL", "RTAL") for f in (0.2, 0.8)]
    + [("extract_soft", {}), ("extract_hard", {}), ("extract_double", {}),
       ("distill", {})]
)


def run_task(task):
    name, params, paths, seed, surrogate_epochs = task
    ds = load_dataset(paths["dataset"])
    wm = load_wm(paths["wm"])
    model = LinkPredictor.load(paths["checkpoint"])
    attack_b, eval_b = attacker_split(ds, derive_seed(seed, "attacker"))
    cfg = TrainConfig(epochs=surrogate_epochs, hidden_dim=model.hidden_dim, seed=seed)
    attacked = ATTACKS[name.removeprefix("finetune_")](model, attack_b, cfg, **params)
    label = name + "".join(f"_{v}" for v in params.values())
    return make_report(label, model, attacked, eval_b, wm, paths["threshold"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--wm", required=True)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--threshold", type=float, required=True)
    parser.add_argument("--out", default="attack_matrix.csv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--surrogate-epochs", type=int, default=150)
    parser.add_argument("--attacks", default=None,
                        help="comma-separated name prefixes to run (default: all)")
    args = parser.parse_args()

    selected = BATTERY
    if args.attacks:
        prefixes = tuple(p.strip() for p in args.attacks.split(","))
        selected = [(n, p) for n, p in BATTERY if n.startswith(prefixes)]
    paths = {"dataset": args.dataset, "wm": args.wm,
             "checkpoint": args.checkpoint, "threshold": args.threshold}
    tasks = [(name, params, paths, args.seed, args.surrogate_epochs)
             for name, params in selected]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(run_task, tasks))
    else:
        reports = [run_task(t) for t in tasks]
    reports.sort(key=lambda r: r.kind)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["kind", "auc_test_pre",
                                                "auc_test_post", "auc_wm_pre",
                                                "auc_wm_post", "threshold",
                                                "verdict"])
        writer.writeheader()
        for report in reports:
            writer.writerow(asdict(report))
    print(f"wrote {args.out} ({len(reports)} attacks)")
    print(json.dumps({r.kind: r.verdict for r in reports}, indent=2))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
