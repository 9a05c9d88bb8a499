import numpy as np
import pytest

import linkmark as lm
from linkmark.embed import EMBED_METHODS, NonFiniteLoss, min_norm_coefficient
from linkmark.nn import AdamState, SubgraphBatch, adam_step, loss_and_grads


def fresh_model(seed=5, d=16, h=32, arch="gcn"):
    return lm.LinkPredictor.init(arch, d, h, seed=seed)


def params_equal(a, b):
    return all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


class TestInterleaved:
    def test_one_epoch_takes_exactly_two_steps(self, toy_batches, toy_watermark):
        model = fresh_model()
        cfg = lm.TrainConfig(epochs=1, hidden_dim=32, seed=5)
        opt_steps = []

        orig = adam_step

        # count optimizer steps through the shared state object
        from linkmark import embed as embed_mod
        state_holder = {}

        def counting_step(state, params, grads, trainable=None):
            state_holder["state"] = state
            return orig(state, params, grads, trainable=trainable)

        embed_mod.adam_step, saved = counting_step, embed_mod.adam_step
        try:
            lm.embed_interleaved(model, toy_batches["train"], toy_watermark.batch(), cfg)
        finally:
            embed_mod.adam_step = saved
        assert state_holder["state"].step_count == 2

    def test_step_counter_is_twice_epochs(self, toy_batches, toy_watermark):
        from linkmark import embed as embed_mod

        model = fresh_model()
        cfg = lm.TrainConfig(epochs=7, hidden_dim=32, seed=5)
        holder = {}
        saved = embed_mod.adam_step

        def spy(state, params, grads, trainable=None):
            holder["state"] = state
            return saved(state, params, grads, trainable=trainable)

        embed_mod.adam_step = spy
        try:
            lm.embed_interleaved(model, toy_batches["train"], toy_watermark.batch(), cfg)
        finally:
            embed_mod.adam_step = saved
        assert holder["state"].step_count == 14

    def test_empty_trigger_set_degenerates_to_plain_training(self, toy_batches):
        cfg = lm.TrainConfig(epochs=5, hidden_dim=32, seed=5)
        a = lm.embed_interleaved(fresh_model(), toy_batches["train"], None, cfg)
        b = lm.train_clean(fresh_model(), toy_batches["train"], cfg)
        assert params_equal(a, b)

    def test_bitwise_reproducible(self, toy_batches, toy_watermark):
        cfg = lm.TrainConfig(epochs=5, hidden_dim=32, seed=5)
        a = lm.embed_interleaved(fresh_model(), toy_batches["train"],
                                 toy_watermark.batch(), cfg)
        b = lm.embed_interleaved(fresh_model(), toy_batches["train"],
                                 toy_watermark.batch(), cfg)
        assert params_equal(a, b)

    def test_toy_run_learns_trigger_and_preserves_utility(
            self, watermarked_model, clean_model, toy_batches, toy_watermark):
        wm_auc = lm.watermark_auc(watermarked_model, toy_watermark)
        test_wm = lm.evaluate_auc(watermarked_model, toy_batches["test"])
        test_clean = lm.evaluate_auc(clean_model, toy_batches["test"])
        assert wm_auc >= 0.9
        assert test_clean - test_wm <= 0.03

    def test_non_finite_loss_aborts(self, toy_batches, toy_watermark):
        model = fresh_model()
        model.params["enc1_w"][:] = 1e200
        cfg = lm.TrainConfig(epochs=2, hidden_dim=32, seed=5)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            lm.embed_interleaved(model, toy_batches["train"], toy_watermark.batch(), cfg)


class TestMinNormCoefficient:
    def test_equal_gradients(self):
        g = np.array([0.3, -0.7, 0.2])
        assert min_norm_coefficient(g, g) == 0.5

    def test_orthogonal_unit_gradients(self):
        g1 = np.array([1.0, 0.0])
        g2 = np.array([0.0, 1.0])
        assert min_norm_coefficient(g1, g2) == pytest.approx(0.5)

    def test_clipped_when_minimum_is_inside_g1(self):
        g1 = np.array([1.0, 0.0])
        g2 = np.array([3.0, 0.0])
        assert min_norm_coefficient(g1, g2) == 1.0

    def test_matches_quadratic_minimization_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g1 = rng.normal(size=6)
            g2 = rng.normal(size=6)
            alphas = np.linspace(0, 1, 2001)
            norms = [np.linalg.norm(a * g1 + (1 - a) * g2) for a in alphas]
            best = alphas[int(np.argmin(norms))]
            assert min_norm_coefficient(g1, g2) == pytest.approx(best, abs=1e-3)


class TestBaselines:
    @pytest.mark.parametrize("method", ["poison", "uniform", "mgda"])
    def test_zero_epochs_leaves_model_unchanged(self, method, toy_batches,
                                                toy_watermark):
        model = fresh_model()
        before = model.clone()
        cfg = lm.TrainConfig(epochs=0, hidden_dim=32, seed=5)
        EMBED_METHODS[method](model, toy_batches["train"], toy_watermark.batch(), cfg)
        assert params_equal(model, before)

    def test_finetune_baseline_zero_epochs(self, toy_batches, toy_watermark):
        model = fresh_model()
        before = model.clone()
        lm.embed_finetune_baseline(model, toy_watermark.batch(),
                                   lm.TrainConfig(epochs=0, hidden_dim=32, seed=5),
                                   epochs=0)
        assert params_equal(model, before)

    def test_poison_learns_some_trigger_signal(self, toy_batches, toy_watermark,
                                               clean_model):
        cfg = lm.TrainConfig(epochs=200, hidden_dim=32, seed=5)
        model = lm.embed_poison_baseline(fresh_model(), toy_batches["train"],
                                         toy_watermark.batch(), cfg)
        poisoned = lm.watermark_auc(model, toy_watermark)
        untouched = lm.watermark_auc(clean_model, toy_watermark)
        # merged-pool embedding dilutes the trigger: it may miss the 0.8 bar
        # entirely, but it must beat a clean model while keeping utility
        assert poisoned > untouched
        drop = (lm.evaluate_auc(clean_model, toy_batches["test"])
                - lm.evaluate_auc(model, toy_batches["test"]))
        assert drop <= 0.03

    @pytest.mark.parametrize("method", ["genie", "poison", "uniform", "mgda",
                                        "finetune"])
    def test_all_methods_keep_test_auc_above_chance(self, method, toy_batches,
                                                    toy_watermark):
        cfg = lm.TrainConfig(epochs=120, hidden_dim=32, seed=5)
        model = EMBED_METHODS[method](fresh_model(), toy_batches["train"],
                                      toy_watermark.batch(), cfg)
        assert lm.evaluate_auc(model, toy_batches["test"]) >= 0.5

    def test_interleaved_drop_no_worse_than_uniform(self, toy_graph):
        # paired runs over 5 seeds: mean utility drop of the interleaved
        # method stays within one point of the summed-loss baseline's drop
        ds = lm.split_links(toy_graph, (0.8, 0.1, 0.1), seed=9)
        pairs_tr, labels_tr = ds.split_arrays("train")
        pairs_te, labels_te = ds.split_arrays("test")
        train_b = lm.PairBatch(ds.mp_adjacency, ds.features, pairs_tr, labels_tr)
        test_b = lm.PairBatch(ds.mp_adjacency, ds.features, pairs_te, labels_te)
        drops = {"genie": [], "uniform": []}
        for seed in range(5):
            wm = lm.gen_node_rep_wm(toy_graph, 0.1, seed=50 + seed)
            cfg = lm.TrainConfig(epochs=150, hidden_dim=32, seed=seed)
            clean = lm.train_clean(fresh_model(seed), train_b, cfg)
            base = lm.evaluate_auc(clean, test_b)
            for method in drops:
                model = EMBED_METHODS[method](fresh_model(seed), train_b, wm.batch(), cfg)
                drops[method].append(base - lm.evaluate_auc(model, test_b))
        assert np.mean(drops["genie"]) <= np.mean(drops["uniform"]) + 0.01


def test_sage_interleaved_learns_trigger(toy_graph, toy_batches, toy_watermark):
    cfg = lm.TrainConfig(epochs=150, hidden_dim=32, seed=5, arch="sage")
    model = lm.embed_interleaved(fresh_model(arch="sage"), toy_batches["train"],
                                 toy_watermark.batch(), cfg)
    assert lm.watermark_auc(model, toy_watermark) >= 0.9
    assert lm.evaluate_auc(model, toy_batches["test"]) >= 0.5


class TestSubgraphPathwayEmbedding:
    def test_trigger_learned_for_subgraph_classifier(self, toy_dataset):
        pairs, labels = toy_dataset.split_arrays("train")
        pos = np.flatnonzero(labels == 1)[:20]
        neg = np.flatnonzero(labels == 0)[:20]
        keep = np.concatenate([pos, neg])
        sgs = [lm.extract_khop(toy_dataset, (int(pairs[i, 0]), int(pairs[i, 1])),
                               1, label=int(labels[i])) for i in keep]
        train_b = SubgraphBatch(sgs, labels[keep])
        wm = lm.gen_subgraph_wm(sgs, 0.2, lm.watermark_vector(16, 60), seed=61)
        assert set(wm.labels.tolist()) == {0, 1}
        cfg = lm.TrainConfig(epochs=150, hidden_dim=32, seed=5)
        model = lm.embed_interleaved(fresh_model(), train_b, wm.batch(), cfg)
        assert lm.watermark_auc(model, wm) >= 0.9
