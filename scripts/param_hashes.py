#!/usr/bin/env python3
"""Print one `name sha256-prefix` line per training and scoring recipe, so two
trees can be compared bit for bit: run this script on both and diff the
outputs.

The 50 lines on a small two-block SBM graph: trained parameters of the six
embedding methods for gcn and sage; every attack kind against a gcn and a
sage victim; feature gradients and `score_pairs` logits per arch; a gcn and
a sage subgraph run (trained parameters, then test-batch logits); and the
`serialize_wm` bytes of the node-rep and subgraph trigger sets, which are
what registration hashes.

Results depend on the BLAS thread count, so the script pins BLAS to one
thread unless the environment already sets it. Example:

    PYTHONPATH=src python3 scripts/param_hashes.py --epochs 20
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from linkmark.attacks import ATTACKS, attacker_split  # noqa: E402
from linkmark.embed import EMBED_METHODS, embed_interleaved  # noqa: E402
from linkmark.graph import (build_subgraph_dataset, generate_sbm,  # noqa: E402
                            init_features, split_links)
from linkmark.nn import (LinkPredictor, PairBatch, SubgraphBatch,  # noqa: E402
                         TrainConfig, batch_logits, encode, loss_and_grads, score_pairs)
from linkmark.watermark import (gen_node_rep_wm, gen_subgraph_wm, serialize_wm,  # noqa: E402
                                watermark_vector)

ARCHS = ("gcn", "sage")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def params_digest(model: LinkPredictor) -> str:
    return digest(*(model.params[name] for name in sorted(model.params)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--epochs", type=int, default=20,
                        help="epochs of every training recipe")
    args = parser.parse_args()

    g = init_features(generate_sbm(2, 30, 0.3, 0.05, seed=1), 8, seed=2)
    ds = split_links(g, (0.8, 0.1, 0.1), seed=3)
    train = PairBatch(ds.mp_adjacency, ds.features, *ds.split_arrays("train"))
    test_pairs = ds.split_arrays("test")[0]
    node_rep_wm = gen_node_rep_wm(g, 0.2, seed=4)
    wm_batch = node_rep_wm.batch()
    lines = []

    def fresh(arch, seed=5):
        return LinkPredictor.init(arch, ds.features.shape[1], 16, seed=seed)

    for arch in ARCHS:
        cfg = TrainConfig(epochs=args.epochs, hidden_dim=16, seed=6, arch=arch)
        for method, embed in EMBED_METHODS.items():
            model = embed(fresh(arch), train, wm_batch, cfg)
            lines.append((f"embed_{method}_{arch}", params_digest(model)))

        victim = embed_interleaved(fresh(arch), train, wm_batch, cfg)
        attack_batch, _ = attacker_split(ds, seed=7)
        for kind, attack in ATTACKS.items():
            attacked = attack(victim, attack_batch, cfg, epochs=args.epochs)
            lines.append((f"attack_{kind}_{arch}", params_digest(attacked)))

        _, grads, d_features = loss_and_grads(victim, train, with_feature_grads=True)
        views = victim.views(grads)
        lines.append((f"feature_grads_{arch}",
                      digest(d_features, *(views[n] for n in sorted(views)))))
        emb = encode(victim, ds.mp_adjacency, ds.features)
        lines.append((f"score_pairs_{arch}", digest(score_pairs(victim, emb, test_pairs))))

    sg_train = build_subgraph_dataset(ds, 1, "train")
    sg_test = build_subgraph_dataset(ds, 1, "test")
    sg_trigger = gen_subgraph_wm(sg_train, 0.1, watermark_vector(8, 8), seed=9)
    sg_wm = sg_trigger.batch()
    for arch in ARCHS:
        cfg = TrainConfig(epochs=args.epochs, hidden_dim=16, seed=10, arch=arch)
        model = embed_interleaved(fresh(arch, seed=11),
                                  SubgraphBatch(sg_train, [sg.label for sg in sg_train]),
                                  sg_wm, cfg)
        lines.append((f"subgraph_train_{arch}", params_digest(model)))
        test = SubgraphBatch(sg_test, [sg.label for sg in sg_test])
        lines.append((f"subgraph_logits_{arch}", digest(batch_logits(model, test))))

    for name, wm in (("gwm_node_rep", node_rep_wm), ("gwm_subgraph", sg_trigger)):
        lines.append((name, hashlib.sha256(serialize_wm(wm)).hexdigest()[:16]))

    for name, value in lines:
        print(name, value)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
