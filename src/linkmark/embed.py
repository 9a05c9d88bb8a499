"""Watermark embedding: the interleaved two-step procedure and four baseline
schemes it is benchmarked against.

All methods run full-batch gradients (the datasets are desk scale, and it
removes a hyperparameter). Each training function mutates and returns the
model it was given.
"""

import numpy as np

from .nn import AdamState, LinkPredictor, TrainConfig, adam_step, loss_and_grads


class NonFiniteLoss(RuntimeError):
    def __init__(self, method: str, epoch: int, loss: float):
        super().__init__(f"{method}: non-finite loss {loss} at epoch {epoch}")


def fit(model: LinkPredictor, steps, epochs: int, learning_rate: float,
        trainable: slice | None = None, after_epoch=None) -> LinkPredictor:
    """The one training loop. Each epoch runs `steps` in order; a step is a
    (label, grad_fn) pair, where grad_fn(model) returns (loss, grads) and is
    followed by one Adam update through a single optimizer state. A
    non-finite loss raises NonFiniteLoss under the step's label. `trainable`,
    a slice of `model.flat`, restricts which entries move; after_epoch(done)
    runs after each epoch with the count of epochs finished."""
    opt = AdamState(learning_rate)
    for epoch in range(epochs):
        for label, grad_fn in steps:
            loss, grads = grad_fn(model)
            if not np.isfinite(loss):
                raise NonFiniteLoss(label, epoch, loss)
            adam_step(opt, model.flat, grads, trainable=trainable)
        if after_epoch is not None:
            after_epoch(epoch + 1)
    return model


def grads_on(batch, targets: np.ndarray | None = None):
    """grad_fn for the full-batch loss on one batch (optionally against
    arbitrary target distributions)."""
    return lambda model: loss_and_grads(model, batch, targets=targets)


def train_clean(model: LinkPredictor, train_batch, cfg: TrainConfig) -> LinkPredictor:
    """Plain training on the task data only."""
    return fit(model, [("train", grads_on(train_batch))], cfg.epochs, cfg.learning_rate)


def embed_interleaved(model: LinkPredictor, train_batch, wm_batch,
                      cfg: TrainConfig) -> LinkPredictor:
    """Per epoch: task gradient, optimizer update, trigger-set gradient,
    second update through the same optimizer state. An empty trigger set
    degenerates to plain training."""
    steps = [("interleaved/task", grads_on(train_batch))]
    if wm_batch is not None and len(wm_batch) > 0:
        steps.append(("interleaved/trigger", grads_on(wm_batch)))
    return fit(model, steps, cfg.epochs, cfg.learning_rate)


def embed_finetune_baseline(clean_model: LinkPredictor, wm_batch,
                            cfg: TrainConfig, epochs: int = 50) -> LinkPredictor:
    """Fine-tune a pre-trained clean model on the trigger set alone."""
    return fit(clean_model, [("finetune", grads_on(wm_batch))], epochs, cfg.learning_rate)


def _fit_combined(model: LinkPredictor, train_batch, wm_batch, cfg: TrainConfig,
                  label: str, combine) -> LinkPredictor:
    """One update per epoch on both batches: the summed loss, with
    combine(grads_t, grads_w) as the gradient."""
    def grad_fn(model):
        loss_t, grads_t = loss_and_grads(model, train_batch)
        loss_w, grads_w = loss_and_grads(model, wm_batch)
        return loss_t + loss_w, combine(grads_t, grads_w)
    return fit(model, [(label, grad_fn)], cfg.epochs, cfg.learning_rate)


def embed_poison_baseline(model: LinkPredictor, train_batch, wm_batch,
                          cfg: TrainConfig) -> LinkPredictor:
    """Trigger samples merged into the training set: one update per epoch on
    the mean loss over the combined pool."""
    n_t, n_w = len(train_batch), len(wm_batch)
    return _fit_combined(model, train_batch, wm_batch, cfg, "poison",
                         lambda grads_t, grads_w: (n_t * grads_t + n_w * grads_w) / (n_t + n_w))


def embed_uniform_baseline(model: LinkPredictor, train_batch, wm_batch,
                           cfg: TrainConfig) -> LinkPredictor:
    """Single update per epoch on the summed losses (gradients added with
    unit weights)."""
    return _fit_combined(model, train_batch, wm_batch, cfg, "uniform", np.add)


def min_norm_coefficient(g1: np.ndarray, g2: np.ndarray) -> float:
    """Weight on g1 minimizing ||a*g1 + (1-a)*g2|| over a in [0, 1].

    Closed-form two-task solution: a = ((g2 - g1) . g2) / ||g1 - g2||^2,
    clipped; the 0/0 case (equal gradients) is defined as 0.5.
    """
    diff = g1 - g2
    denom = float(diff @ diff)
    if denom == 0.0:
        return 0.5
    alpha = float((g2 - g1) @ g2) / denom
    return min(max(alpha, 0.0), 1.0)


def embed_mgda_baseline(model: LinkPredictor, train_batch, wm_batch,
                        cfg: TrainConfig) -> LinkPredictor:
    """Per epoch, step along the min-norm convex combination of the two task
    gradients. The coefficient's dot products run over the tensors in sorted
    name order, which fixes their rounding."""
    index = model.views(np.arange(model.flat.size))
    order = np.concatenate([index[name].ravel() for name in sorted(index)])

    def min_norm(grads_t, grads_w):
        a1 = min_norm_coefficient(grads_t[order], grads_w[order])
        return a1 * grads_t + (1.0 - a1) * grads_w
    return _fit_combined(model, train_batch, wm_batch, cfg, "mgda", min_norm)


def _clean_then_finetune(model, train_batch, wm_batch, cfg):
    return embed_finetune_baseline(train_clean(model, train_batch, cfg), wm_batch, cfg)


# fn(model, train_batch, wm_batch, cfg) by `--method` name. "clean" ignores the trigger
# set; "finetune" trains clean for cfg.epochs, then on the trigger set for 50 epochs.
EMBED_METHODS = {
    "clean": lambda model, train_batch, wm_batch, cfg: train_clean(model, train_batch, cfg),
    "genie": embed_interleaved,
    "finetune": _clean_then_finetune,
    "poison": embed_poison_baseline,
    "uniform": embed_uniform_baseline,
    "mgda": embed_mgda_baseline,
}
