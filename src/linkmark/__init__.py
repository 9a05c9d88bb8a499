"""Watermarking for GNN link-prediction models: trigger-set generation,
embedding, statistically certified ownership thresholds, and an attack
battery for stress-testing the result."""

from .graph import (Graph, LinkDataset, Subgraph, build_subgraph_dataset,
                    extract_khop, generate_sbm, init_features, load_edge_list,
                    split_links)
from .nn import (GCN, SAGE, LinkPredictor, PairBatch, SubgraphBatch, TrainConfig,
                 adam_step, encode, evaluate_auc, loss_and_grads, score_pairs)
from .watermark import (NodeRepWatermark, SubgraphWatermark, gen_node_rep_wm,
                        gen_subgraph_wm, load_wm, save_wm, watermark_auc,
                        watermark_vector)
from .embed import (embed_finetune_baseline, embed_interleaved,
                    embed_poison_baseline, train_clean)
from .stats import auc, dwt_threshold, shapiro_wilk, smoothed_bootstrap_test
from .attacks import distill, extract, fine_prune, finetune, prune, quantize
from .protocol import ServeSession, WmParams, dispute, read_board, register

__version__ = "0.1.0"
