import numpy as np
import pytest

import linkmark as lm
from linkmark.attacks import (attack_verdict, attacker_split, make_report,
                              piracy_embed)
from linkmark.embed import NonFiniteLoss
from linkmark.nn import FINAL_LAYER, adam_step, batch_logits, softmax


@pytest.fixture(scope="module")
def attack_halves(toy_dataset):
    return attacker_split(toy_dataset, seed=77)


def params_equal(a, b, names=None):
    names = names or list(a.params)
    return all(np.array_equal(a.params[k], b.params[k]) for k in names)


class TestFinetune:
    def test_ftll_freezes_everything_but_final_layer(self, watermarked_model,
                                                     attack_halves):
        attack_b, _ = attack_halves
        out = lm.finetune(watermarked_model, attack_b, "FTLL", epochs=5, seed=1)
        frozen = [k for k in out.params if k not in FINAL_LAYER]
        assert params_equal(out, watermarked_model, frozen)
        assert not params_equal(out, watermarked_model, list(FINAL_LAYER))

    def test_ftll_leaves_frozen_entries_and_moments_untouched(self, watermarked_model,
                                                               attack_halves, monkeypatch):
        from linkmark import embed as embed_mod

        states = []

        def spy(state, params, grads, trainable=None):
            states.append(state)
            return adam_step(state, params, grads, trainable=trainable)

        monkeypatch.setattr(embed_mod, "adam_step", spy)
        out = lm.finetune(watermarked_model, attack_halves[0], "FTLL", epochs=3, seed=1)
        tail = sum(out.params[k].size for k in FINAL_LAYER)
        frozen = slice(0, out.flat.size - tail)
        assert out.flat[frozen].tobytes() == watermarked_model.flat[frozen].tobytes()
        state = states[-1]
        assert len(states) == 3 and state.step_count == 3
        assert state.m[frozen].tobytes() == state.v[frozen].tobytes() == bytes(8 * frozen.stop)
        assert state.m[frozen.stop:].any() and state.v[frozen.stop:].any()

    def test_rtal_zero_epochs_changes_only_final_layer(self, watermarked_model,
                                                       attack_halves):
        attack_b, _ = attack_halves
        out = lm.finetune(watermarked_model, attack_b, "RTAL", epochs=0, seed=2)
        frozen = [k for k in out.params if k not in FINAL_LAYER]
        assert params_equal(out, watermarked_model, frozen)
        assert not params_equal(out, watermarked_model, list(FINAL_LAYER))

    def test_rtll_reinitializes_before_training(self, watermarked_model,
                                                attack_halves):
        attack_b, _ = attack_halves
        out = lm.finetune(watermarked_model, attack_b, "RTLL", epochs=3, seed=3)
        frozen = [k for k in out.params if k not in FINAL_LAYER]
        assert params_equal(out, watermarked_model, frozen)

    def test_ftal_moves_all_layers(self, watermarked_model, attack_halves):
        attack_b, _ = attack_halves
        out = lm.finetune(watermarked_model, attack_b, "FTAL", epochs=3, seed=4)
        assert all(not np.array_equal(out.params[k], watermarked_model.params[k])
                   for k in out.params if k.endswith("_w"))

    def test_ftll_keeps_trigger_auc_high(self, watermarked_model, toy_watermark,
                                         attack_halves):
        attack_b, _ = attack_halves
        out = lm.finetune(watermarked_model, attack_b, "FTLL", epochs=50, seed=5)
        assert lm.watermark_auc(out, toy_watermark) >= 0.8

    def test_unknown_mode_rejected(self, watermarked_model, attack_halves):
        with pytest.raises(ValueError):
            lm.finetune(watermarked_model, attack_halves[0], "FT??")

    def test_pure_function_of_seed(self, watermarked_model, attack_halves):
        attack_b, _ = attack_halves
        a = lm.finetune(watermarked_model, attack_b, "RTAL", epochs=4, seed=9)
        b = lm.finetune(watermarked_model, attack_b, "RTAL", epochs=4, seed=9)
        assert params_equal(a, b)


class TestPrune:
    def test_zero_fraction_identity(self, watermarked_model):
        out = lm.prune(watermarked_model, 0.0)
        assert params_equal(out, watermarked_model)

    def test_full_prune_is_random_classifier(self, watermarked_model, toy_batches):
        out = lm.prune(watermarked_model, 1.0)
        assert all(np.all(out.params[k] == 0) for k in out.weight_names())
        assert lm.evaluate_auc(out, toy_batches["test"]) == 0.5

    def test_ranks_by_absolute_value(self):
        model = lm.LinkPredictor.init("gcn", 2, 3, seed=0)
        # place a known 4-entry block and make every other weight larger
        for k in model.weight_names():
            model.params[k][:] = 100.0
        model.params["dec3_w"][:2] = np.array([[-3.0, 1.0], [-2.0, 4.0]])
        total = sum(model.params[k].size for k in model.weight_names())
        out = lm.prune(model, 2.0 / total)
        assert np.array_equal(out.params["dec3_w"][:2], [[-3.0, 0.0], [0.0, 4.0]])

    def test_biases_exempt(self, watermarked_model):
        out = lm.prune(watermarked_model, 1.0)
        for k in out.params:
            if k.endswith("_b"):
                assert np.array_equal(out.params[k], watermarked_model.params[k])

    def test_idempotent(self, watermarked_model):
        once = lm.prune(watermarked_model, 0.4)
        twice = lm.prune(once, 0.4)
        assert params_equal(once, twice)

    def test_exact_count(self, watermarked_model):
        out = lm.prune(watermarked_model, 0.37)
        total = sum(out.params[k].size for k in out.weight_names())
        zeroed = sum(int(np.sum(out.params[k] == 0)) for k in out.weight_names())
        assert zeroed >= int(np.floor(0.37 * total))


class TestQuantize:
    def test_constant_tensor_unchanged(self):
        model = lm.LinkPredictor.init("gcn", 2, 3, seed=1)
        model.params["dec3_b"][:] = 0.7
        out = lm.quantize(model, bits=3)
        assert np.allclose(out.params["dec3_b"], 0.7)

    def test_high_bit_depth_near_lossless(self, watermarked_model):
        out = lm.quantize(watermarked_model, bits=52)
        for k in out.params:
            assert np.max(np.abs(out.params[k] - watermarked_model.params[k])) < 1e-9

    def test_eight_levels_recover_integer_grid(self):
        model = lm.LinkPredictor.init("gcn", 2, 2, seed=2)
        model.params["dec1_w"][...] = np.arange(8.0).reshape(2, 4)[:, :2].copy()
        grid = np.arange(8.0).reshape(4, 2)
        model.params["enc1_w"][...] = grid[:2].copy()
        tensor = np.arange(8.0)
        model.params["dec1_b"][...] = tensor[:2].copy()
        out = lm.quantize(model, bits=3)
        for name in ("dec1_w", "enc1_w", "dec1_b"):
            w, q = model.params[name], out.params[name]
            lo, hi = w.min(), w.max()
            assert q.min() == lo and q.max() == hi
            k = (q - lo) / ((hi - lo) / 7)
            assert np.allclose(k, np.round(k), rtol=0, atol=1e-9)
            assert np.all((np.round(k) >= 0) & (np.round(k) <= 7))
        assert np.array_equal(out.params["dec1_b"], [0.0, 1.0])
        # a tensor whose values already sit on the 8-level grid is exact
        full = lm.LinkPredictor.init("gcn", 8, 8, seed=3)
        full.params["enc1_b"][...] = np.arange(8.0)
        q = lm.quantize(full, bits=3)
        assert np.array_equal(q.params["enc1_b"], np.arange(8.0))

    def test_changes_weights_at_low_bits(self, watermarked_model):
        out = lm.quantize(watermarked_model, bits=3)
        assert not params_equal(out, watermarked_model)

    def test_argument_validation(self, watermarked_model):
        with pytest.raises(ValueError):
            lm.quantize(watermarked_model, bits=0)
        with pytest.raises(ValueError):
            lm.prune(watermarked_model, 1.5)


class TestFinePrune:
    def test_zero_fraction_equals_plain_finetune(self, watermarked_model,
                                                 attack_halves):
        attack_b, _ = attack_halves
        a = lm.fine_prune(watermarked_model, 0.0, "FTLL", attack_b, epochs=4, seed=6)
        b = lm.finetune(watermarked_model, attack_b, "FTLL", epochs=4, seed=6)
        assert params_equal(a, b)

    def test_report_has_both_metrics(self, watermarked_model, toy_watermark,
                                     attack_halves):
        attack_b, eval_b = attack_halves
        out = lm.fine_prune(watermarked_model, 0.8, "RTAL", attack_b, epochs=5, seed=7)
        report = make_report("fine_prune_RTAL", watermarked_model, out, eval_b,
                             toy_watermark, threshold=0.6)
        assert 0.0 <= report.auc_wm_post <= 1.0
        assert 0.0 <= report.auc_test_post <= 1.0
        assert report.verdict in ("watermark_success", "watermark_failure")

    def test_light_fine_prune_keeps_trigger(self, watermarked_model, clean_model,
                                            toy_watermark, attack_halves):
        attack_b, _ = attack_halves
        out = lm.fine_prune(watermarked_model, 0.2, "FTLL", attack_b, epochs=50, seed=8)
        survived = lm.watermark_auc(out, toy_watermark)
        assert survived >= 0.65
        assert survived > lm.watermark_auc(clean_model, toy_watermark) + 0.15


class TestExtraction:
    def test_hard_targets_are_binary(self, watermarked_model, attack_halves):
        from linkmark.attacks import _victim_targets

        attack_b, _ = attack_halves
        targets = _victim_targets(watermarked_model, attack_b, "hard")
        assert set(np.unique(targets)) <= {0.0, 1.0}
        assert np.all(targets.sum(axis=1) == 1.0)

    def test_soft_extraction_tracks_victim(self, watermarked_model, attack_halves):
        attack_b, eval_b = attack_halves
        cfg = lm.TrainConfig(epochs=150, hidden_dim=32, seed=10)
        surrogate = lm.extract(watermarked_model, "gcn", "soft", 1, attack_b, cfg)
        victim_auc = lm.evaluate_auc(watermarked_model, eval_b)
        surrogate_auc = lm.evaluate_auc(surrogate, eval_b)
        assert abs(victim_auc - surrogate_auc) <= 0.05

    def test_cross_architecture_extraction_runs(self, watermarked_model,
                                                toy_watermark, attack_halves):
        attack_b, eval_b = attack_halves
        cfg = lm.TrainConfig(epochs=60, hidden_dim=32, seed=11)
        surrogate = lm.extract(watermarked_model, "sage", "soft", 1, attack_b, cfg)
        assert surrogate.arch == "sage"
        report = make_report("extract_soft_sage", watermarked_model, surrogate,
                             eval_b, toy_watermark, threshold=0.6)
        assert report.verdict in ("watermark_success", "watermark_failure")

    def test_double_extraction_chains_hard_labels(self, watermarked_model,
                                                  attack_halves):
        attack_b, _ = attack_halves
        cfg = lm.TrainConfig(epochs=40, hidden_dim=32, seed=12)
        out = lm.extract(watermarked_model, "gcn", "hard", 2, attack_b, cfg)
        assert out.arch == "gcn"

    def test_round_count_validated(self, watermarked_model, attack_halves):
        cfg = lm.TrainConfig(epochs=5, hidden_dim=32, seed=13)
        with pytest.raises(ValueError):
            lm.extract(watermarked_model, "gcn", "hard", 3, attack_halves[0], cfg)


class TestDistill:
    def test_zero_mix_is_plain_training(self, watermarked_model, attack_halves):
        from linkmark.embed import train_clean
        from linkmark.util import derive_seed

        attack_b, _ = attack_halves
        cfg = lm.TrainConfig(epochs=30, hidden_dim=32, seed=14)
        student = lm.distill(watermarked_model, "gcn", attack_b, cfg, mix=0.0)
        plain = lm.LinkPredictor.init("gcn", 16, 32, derive_seed(14, "distill"))
        train_clean(plain, attack_b, cfg)
        assert params_equal(student, plain)

    def test_full_mix_equals_soft_extraction(self, watermarked_model, attack_halves):
        from linkmark.util import derive_seed

        attack_b, _ = attack_halves
        cfg = lm.TrainConfig(epochs=30, hidden_dim=32, seed=15)
        student = lm.distill(watermarked_model, "gcn", attack_b, cfg, mix=1.0)
        # same targets as soft extraction; only the init stream differs
        from linkmark.attacks import _victim_targets
        from linkmark.embed import fit, grads_on

        targets = _victim_targets(watermarked_model, attack_b, "soft")
        ref = lm.LinkPredictor.init("gcn", 16, 32, derive_seed(15, "distill"))
        fit(ref, [("soft", grads_on(attack_b, targets))], cfg.epochs, cfg.learning_rate)
        assert params_equal(student, ref)

    def test_distill_report_and_utility_transfer(self, watermarked_model,
                                                 toy_watermark, attack_halves):
        # at this scale the student reliably inherits utility, while trigger
        # retention varies with query coverage, so the report's verdict is
        # exercised rather than asserted one way
        attack_b, eval_b = attack_halves
        cfg = lm.TrainConfig(epochs=200, hidden_dim=32, seed=16)
        student = lm.distill(watermarked_model, "gcn", attack_b, cfg, mix=0.5)
        report = make_report("distill", watermarked_model, student, eval_b,
                             toy_watermark, threshold=0.6)
        assert abs(report.auc_test_post - report.auc_test_pre) <= 0.08
        assert 0.0 <= report.auc_wm_post <= 1.0
        assert report.verdict in ("watermark_success", "watermark_failure")


@pytest.mark.parametrize("attack", [
    lambda victim, batch: lm.finetune(victim, batch, "FTAL", epochs=2),
    lambda victim, batch: lm.extract(victim, "gcn", "soft", 1, batch,
                                     lm.TrainConfig(epochs=2, hidden_dim=32)),
], ids=["finetune", "extract"])
def test_diverging_victim_raises_instead_of_scoring(attack, attack_halves):
    victim = lm.LinkPredictor.init("gcn", 16, 32, seed=5)
    victim.params["enc1_w"][:] = 1e200
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
        attack(victim, attack_halves[0])


class TestVerdictTable:
    @pytest.mark.parametrize("wm_post,test_pre,test_post,t,expected", [
        (0.90, 0.85, 0.84, 0.6, "watermark_success"),   # trigger survives
        (0.40, 0.85, 0.60, 0.6, "watermark_success"),   # removed but utility gone
        (0.40, 0.85, 0.80, 0.6, "watermark_failure"),   # removed cheaply
        (0.90, 0.85, 0.50, 0.6, "watermark_success"),   # survives and broke itself
        (0.60, 0.85, 0.84, 0.6, "watermark_failure"),   # exactly at threshold
    ])
    def test_quadrants(self, wm_post, test_pre, test_post, t, expected):
        assert attack_verdict(wm_post, test_pre, test_post, t) == expected


@pytest.fixture(scope="module")
def trajectory(watermarked_model, toy_graph, toy_watermark, toy_batches):
    pirate_wm = lm.gen_node_rep_wm(toy_graph, 0.1, seed=64)
    return piracy_embed(watermarked_model, pirate_wm, toy_watermark,
                        toy_batches["test"], epochs=10, trace_every=2), pirate_wm


class TestPiracy:

    def test_epoch_zero_matches_pre_attack(self, trajectory, watermarked_model,
                                           toy_watermark):
        trace, _ = trajectory
        assert trace[0][0] == 0
        assert trace[0][2] == pytest.approx(
            lm.watermark_auc(watermarked_model, toy_watermark))

    def test_pirate_trigger_auc_non_decreasing_early(self, trajectory):
        trace, _ = trajectory
        pirate = [row[3] for row in trace]
        assert all(b >= a for a, b in zip(pirate, pirate[1:]))
        assert pirate[-1] >= pirate[0] + 0.2  # the pirate trigger is learned

    def test_all_three_curves_recorded(self, trajectory):
        trace, _ = trajectory
        assert [row[0] for row in trace] == [0, 2, 4, 6, 8, 10]
        for epoch, auc_test, auc_owner, auc_pirate in trace:
            assert 0.0 <= auc_test <= 1.0
            assert 0.0 <= auc_owner <= 1.0
            assert 0.0 <= auc_pirate <= 1.0


def test_attacker_split_halves_are_disjoint_and_balanced(toy_dataset):
    attack_b, eval_b = attacker_split(toy_dataset, seed=5)
    a = {tuple(p) for p in attack_b.pairs}
    b = {tuple(p) for p in eval_b.pairs}
    assert not a & b
    assert abs(len(a) - len(b)) <= 2
    assert abs(int(attack_b.labels.sum()) - int((1 - attack_b.labels).sum())) <= 1
