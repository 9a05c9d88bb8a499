"""Watermarking for GNN link-prediction models: trigger-set generation,
embedding, statistically certified ownership thresholds, and an attack
battery for stress-testing the result."""

from .graph import (Graph, LinkDataset, Subgraph, build_subgraph_dataset,
                    extract_khop, generate_sbm, init_features, load_edge_list,
                    split_links)
from .nn import (GCN, SAGE, AdamState, LinkPredictor, PairBatch, SubgraphBatch,
                 TrainConfig, adam_step, encode, evaluate_auc, loss_and_grads,
                 score_pairs)
from .watermark import (NodeRepWatermark, SubgraphWatermark, deserialize_wm,
                        gen_node_rep_wm, gen_subgraph_wm, load_wm, save_wm,
                        serialize_wm, watermark_auc, watermark_vector)
from .embed import (embed_finetune_baseline, embed_interleaved,
                    embed_mgda_baseline, embed_poison_baseline,
                    embed_uniform_baseline, min_norm_coefficient, train_clean)
from .stats import (ThresholdReport, auc, blocks_required, dwt_threshold,
                    kde_sample, required_sample_size, shapiro_wilk,
                    silverman_bandwidth, smoothed_bootstrap_test)
from .attacks import (AttackReport, attack_verdict, attacker_split, distill,
                      extract, fine_prune, finetune, piracy_embed, prune, quantize)
from .protocol import (BulletinRecord, ServeSession, Verdict, WmParams, dispute,
                       generate_watermark, read_board, register)

__version__ = "0.1.0"
