"""Watermark-removal and piracy attacks, with the success/failure verdict.

Every attack copies the incoming model, so runs are pure functions of
(model, data, seed). Fine-tuning attacks train on half of the test pairs
("attack half"); evaluation uses the held-out half.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .embed import fit, grads_on
from .graph import LinkDataset
from .nn import (FINAL_LAYER, LinkPredictor, PairBatch, TrainConfig, batch_logits,
                 evaluate_auc, softmax)
from .util import derive_seed
from .watermark import watermark_auc

FINETUNE_MODES = ("FTLL", "RTLL", "FTAL", "RTAL")

# utility drop an adversary is assumed unwilling to exceed
UTILITY_DROP_LIMIT = 0.10


@dataclass
class AttackReport:
    kind: str
    auc_test_pre: float
    auc_test_post: float
    auc_wm_pre: float
    auc_wm_post: float
    threshold: float
    verdict: str


def attack_verdict(auc_wm_post: float, auc_test_pre: float, auc_test_post: float,
                   threshold: float) -> str:
    """Removal fails (watermark wins) unless the trigger AUC fell to the
    threshold or below while utility dropped no more than 10 points."""
    removed = auc_wm_post <= threshold
    cheap = (auc_test_pre - auc_test_post) <= UTILITY_DROP_LIMIT
    return "watermark_failure" if (removed and cheap) else "watermark_success"


def make_report(kind: str, model_pre: LinkPredictor, model_post: LinkPredictor,
                eval_batch, wm, threshold: float) -> AttackReport:
    auc_test_pre = evaluate_auc(model_pre, eval_batch)
    auc_test_post = evaluate_auc(model_post, eval_batch)
    auc_wm_pre = watermark_auc(model_pre, wm)
    auc_wm_post = watermark_auc(model_post, wm)
    return AttackReport(kind, auc_test_pre, auc_test_post, auc_wm_pre, auc_wm_post,
                        threshold,
                        attack_verdict(auc_wm_post, auc_test_pre, auc_test_post, threshold))


def attacker_split(ds: LinkDataset, seed: int):
    """Random halves of the test pairs: (attack half, evaluation half),
    positives and negatives split separately so both halves stay balanced."""
    pairs, labels = ds.split_arrays("test")
    rng = np.random.default_rng(seed)
    first = np.zeros(len(labels), dtype=bool)
    for cls in (1, 0):
        idx = np.flatnonzero(labels == cls)
        first[idx[rng.permutation(len(idx))][:len(idx) // 2]] = True
    mk = lambda sel: PairBatch(ds.mp_adjacency, ds.features, pairs[sel], labels[sel])
    return mk(first), mk(~first)


def finetune(model: LinkPredictor, attack_batch, mode: str, epochs: int = 50,
             learning_rate: float = 1e-3, seed: int = 0) -> LinkPredictor:
    """FTLL/RTLL tune only the final decoder layer (RTLL reinitializes it
    first); FTAL/RTAL tune everything (RTAL reinitializes the final layer)."""
    if mode not in FINETUNE_MODES:
        raise ValueError(f"unknown fine-tuning mode {mode!r}")
    out = model.clone()
    if mode in ("RTLL", "RTAL"):
        out.reinit_final_layer(derive_seed(seed, "reinit"))
    final_layer = slice(-sum(out.params[name].size for name in FINAL_LAYER), None)
    trainable = final_layer if mode in ("FTLL", "RTLL") else None
    return fit(out, [(f"finetune/{mode}", grads_on(attack_batch))], epochs,
               learning_rate, trainable=trainable)


def prune(model: LinkPredictor, fraction: float) -> LinkPredictor:
    """Zero the floor(fraction * count) globally smallest-magnitude weight
    entries; biases are exempt."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    out = model.clone()
    index = out.views(np.arange(out.flat.size))
    weights = np.concatenate([index[name].ravel() for name in out.weight_names()])
    # the stable sort breaks magnitude ties by position in `weight_names` order
    cut = np.argsort(np.abs(out.flat[weights]), kind="stable")
    out.flat[weights[cut[:int(np.floor(fraction * weights.size))]]] = 0.0
    return out


def quantize(model: LinkPredictor, bits: int = 3) -> LinkPredictor:
    """Uniform affine quantize-dequantize per tensor over [min, max] with
    2^bits levels."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    out = model.clone()
    levels = 2 ** bits - 1
    for w in out.params.values():
        lo, hi = float(w.min()), float(w.max())
        if hi == lo:
            continue
        step = (hi - lo) / levels
        w[...] = lo + np.round((w - lo) / step) * step
    return out


def fine_prune(model: LinkPredictor, fraction: float, mode: str, attack_batch,
               epochs: int = 50, learning_rate: float = 1e-3, seed: int = 0) -> LinkPredictor:
    """Prune then fine-tune; pruned entries are free to regrow."""
    return finetune(prune(model, fraction), attack_batch, mode, epochs=epochs,
                    learning_rate=learning_rate, seed=seed)


def _victim_targets(victim: LinkPredictor, batch: PairBatch, label_mode: str) -> np.ndarray:
    logits = batch_logits(victim, batch)
    probs = softmax(logits)
    if label_mode == "soft":
        return probs
    if label_mode == "hard":
        return np.eye(probs.shape[1])[np.argmax(probs, axis=1)]
    raise ValueError(f"unknown label mode {label_mode!r}")


def extract(victim: LinkPredictor, surrogate_arch: str, label_mode: str,
            rounds: int, query_batch: PairBatch, cfg: TrainConfig) -> LinkPredictor:
    """Train a fresh surrogate on the victim's responses to the query pairs.
    Two rounds chain hard-label extraction victim -> s1 -> s2 over the same
    queries."""
    if rounds not in (1, 2):
        raise ValueError("rounds must be 1 or 2")
    if rounds == 2:
        label_mode = "hard"
    teacher = victim
    for r in range(rounds):
        targets = _victim_targets(teacher, query_batch, label_mode)
        teacher = LinkPredictor.init(surrogate_arch, query_batch.features.shape[1],
                                     cfg.hidden_dim, derive_seed(cfg.seed, f"extract{r}"))
        fit(teacher, [(f"extract{r}", grads_on(query_batch, targets))], cfg.epochs,
            cfg.learning_rate)
    return teacher


def distill(victim: LinkPredictor, student_arch: str, query_batch: PairBatch,
            cfg: TrainConfig, mix: float = 0.5) -> LinkPredictor:
    """Student trained on mix * victim soft targets + (1 - mix) * ground
    truth. Cross entropy is linear in the target, so the blend is a single
    target distribution; mix=1 reduces to soft extraction, mix=0 to plain
    training."""
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    soft = _victim_targets(victim, query_batch, "soft")
    targets = mix * soft + (1.0 - mix) * query_batch.onehot_targets()
    student = LinkPredictor.init(student_arch, query_batch.features.shape[1],
                                 cfg.hidden_dim, derive_seed(cfg.seed, "distill"))
    return fit(student, [("distill", grads_on(query_batch, targets))], cfg.epochs,
               cfg.learning_rate)


def _kind(run):
    """An ATTACKS entry: run(model, attack_batch, cfg, p) behind the common
    signature, where p holds the settings and `arch` is `surrogate_arch` or
    the victim's."""
    def attack(model: LinkPredictor, attack_batch, cfg: TrainConfig, *, fraction: float = 0.2,
               bits: int = 3, epochs: int = 50, mix: float = 0.5,
               surrogate_arch: str | None = None) -> LinkPredictor:
        return run(model, attack_batch, cfg, SimpleNamespace(fraction=fraction, bits=bits,
                   epochs=epochs, mix=mix, arch=surrogate_arch or model.arch))
    return attack


# every removal attack by its `--kind` name. Fine-tuning runs `epochs` epochs
# seeded by cfg.seed; extraction and distillation train a surrogate with cfg.
ATTACKS = {
    **{m: _kind(lambda v, b, cfg, p, m=m: finetune(v, b, m, epochs=p.epochs, seed=cfg.seed))
       for m in FINETUNE_MODES},
    "prune": _kind(lambda v, b, cfg, p: prune(v, p.fraction)),
    "quantize": _kind(lambda v, b, cfg, p: quantize(v, p.bits)),
    **{f"fine_prune_{m}": _kind(lambda v, b, cfg, p, m=m: fine_prune(
        v, p.fraction, m, b, epochs=p.epochs, seed=cfg.seed)) for m in FINETUNE_MODES},
    "extract_soft": _kind(lambda v, b, cfg, p: extract(v, p.arch, "soft", 1, b, cfg)),
    "extract_hard": _kind(lambda v, b, cfg, p: extract(v, p.arch, "hard", 1, b, cfg)),
    "extract_double": _kind(lambda v, b, cfg, p: extract(v, p.arch, "hard", 2, b, cfg)),
    "distill": _kind(lambda v, b, cfg, p: distill(v, p.arch, b, cfg, mix=p.mix)),
}


def piracy_embed(stolen: LinkPredictor, pirated_wm, owner_wm, test_batch,
                 epochs: int, trace_every: int = 1,
                 learning_rate: float = 1e-3) -> list:
    """Embed the adversary's trigger set into a stolen model using only the
    trigger-phase updates, tracing (epoch, test AUC, owner trigger AUC,
    pirate trigger AUC) so the utility trade-off is observable."""
    model = stolen.clone()
    trace = []

    def snapshot(epoch):
        if epoch % trace_every == 0 or epoch == epochs:
            trace.append((epoch, evaluate_auc(model, test_batch),
                          watermark_auc(model, owner_wm), watermark_auc(model, pirated_wm)))

    snapshot(0)
    fit(model, [("piracy", grads_on(pirated_wm.batch()))], epochs, learning_rate,
        after_epoch=snapshot)
    return trace
