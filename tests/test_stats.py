import json
import math
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.optimize import brentq

import linkmark as lm
from linkmark.stats import (SidesInverted, ThresholdReport, blocks_required, dwt_threshold,
                            kde_max, kde_sample, required_sample_size, shapiro_wilk,
                            silverman_bandwidth, smoothed_bootstrap_test)
from linkmark.watermark import watermark_auc

# trigger-set AUC rows for ten clean and ten watermarked models (percent)
CLEAN_ROW = [14.37, 6.73, 12.49, 15.54, 10.21, 8.03, 4.23, 40.05, 5.02, 10.72]
WM_ROW = [97.50, 98.02, 98.09, 97.75, 97.83, 97.21, 97.47, 97.15, 97.87, 97.96]


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert lm.auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_equal_scores_is_random(self):
        assert lm.auc([0.4] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.normal(size=50)
            scores[rng.random(50) < 0.3] = scores[0]  # force ties
            labels = rng.integers(0, 2, size=50)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert lm.auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            lm.auc([0.1, 0.2], [1, 1])

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["exp", "affine", "cube"]))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed, kind):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        transform = {"exp": np.exp, "affine": lambda s: 3 * s + 2,
                     "cube": lambda s: s ** 3}[kind]
        assert lm.auc(scores, labels) == pytest.approx(
            lm.auc(transform(scores), labels), abs=1e-12)


class TestShapiroWilk:
    def test_clean_row_rejects_normality(self):
        _, p = shapiro_wilk(CLEAN_ROW)
        assert p == pytest.approx(0.001, abs=0.02)
        assert p < 0.05

    def test_wm_row_keeps_normality(self):
        _, p = shapiro_wilk(WM_ROW)
        assert p == pytest.approx(0.339, abs=0.02)
        assert p > 0.05

    def test_tiny_symmetric_sample(self):
        w, p = shapiro_wilk([1.0, 2.0, 3.0])
        assert w > 0.98 and p > 0.5

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 11, 12, 25, 80, 400, 2000])
    def test_matches_reference_implementation(self, n):
        rng = np.random.default_rng(n)
        for dist in (rng.normal, rng.exponential):
            x = dist(size=n)
            w, p = shapiro_wilk(x)
            ref = scipy_stats.shapiro(x)
            assert w == pytest.approx(ref.statistic, abs=1e-4)
            assert p == pytest.approx(ref.pvalue, abs=1e-4)

    def test_range_and_degenerate_errors(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError):
            shapiro_wilk(list(range(5001)))
        with pytest.raises(ValueError):
            shapiro_wilk([2.0] * 10)


class TestSmoothedBootstrap:
    def test_identical_samples_centered_p(self):
        x = np.linspace(0.2, 0.8, 10)
        p = smoothed_bootstrap_test(x, x, replicates=100_000, seed=1)
        assert p == pytest.approx(0.5, abs=0.05)

    def test_separated_rows_reject(self):
        p = smoothed_bootstrap_test(CLEAN_ROW, WM_ROW, replicates=100_000, seed=2)
        assert p < 0.001

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.3, 0.1, size=12)
        b = rng.normal(0.5, 0.1, size=12)
        p_fwd = smoothed_bootstrap_test(a, b, replicates=40_000, seed=4)
        p_rev = smoothed_bootstrap_test(b, a, replicates=40_000, seed=4)
        assert p_fwd + p_rev == pytest.approx(1.0, abs=0.02)

    def test_null_p_values_approximately_uniform(self):
        # 200 trials of a true null; K-S distance against uniform stays small
        rng = np.random.default_rng(5)
        p_values = []
        for trial in range(200):
            a = rng.normal(0.5, 0.1, size=8)
            b = rng.normal(0.5, 0.1, size=8)
            p_values.append(smoothed_bootstrap_test(a, b, replicates=2000,
                                                    seed=1000 + trial))
        sorted_p = np.sort(p_values)
        grid = (np.arange(1, 201)) / 200
        ks = np.max(np.abs(sorted_p - grid))
        assert ks < 0.1

    def test_p_in_unit_interval(self):
        p = smoothed_bootstrap_test([0.1, 0.2], [0.9, 0.95], replicates=500, seed=6)
        assert 0.0 < p <= 1.0


class TestSilvermanBandwidth:
    def test_constant_sample_floor(self):
        assert silverman_bandwidth([0.7] * 10) == 1e-6

    def test_standard_normal_rule(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=10_000)
        expected = 0.9 * 10_000 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected, rel=0.05)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=200)
        assert silverman_bandwidth(4.0 * x) == pytest.approx(
            4.0 * silverman_bandwidth(x), rel=1e-12)


class TestKdeSample:
    def test_zero_bandwidth_draws_from_sample(self):
        x = np.array([0.1, 0.4, 0.9])
        draws = kde_sample(x, 0.0, 500, seed=9)
        assert set(np.unique(draws)) <= set(x)

    def test_mean_matches_sample_mean(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(size=50)
        h = silverman_bandwidth(x)
        draws = kde_sample(x, h, 1_000_000, seed=11)
        sigma = np.sqrt(x.var() + h * h)
        assert abs(draws.mean() - x.mean()) < 4 * sigma / 1000.0

    def test_seeded_determinism(self):
        x = np.array([0.2, 0.5])
        assert np.array_equal(kde_sample(x, 0.1, 64, seed=12),
                              kde_sample(x, 0.1, 64, seed=12))

    def test_generator_continues_indices_then_noise(self):
        # two draws from one Generator equal the inline index-then-noise
        # sequence, with a shape as the count
        x = np.array([0.2, 0.5, 0.7])
        rng = np.random.default_rng(13)
        got = [kde_sample(x, 0.1, (4, 3), rng), kde_sample(x, 0.2, 5, rng)]
        ref = np.random.default_rng(13)
        want = []
        for h, size in ((0.1, (4, 3)), (0.2, 5)):
            picks = ref.integers(0, len(x), size=size)
            want.append(x[picks] + ref.normal(0.0, h, size=size))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestNonFiniteSamples:
    CLEAN = [0.05, 0.08, 0.10, 0.12, 0.07]
    WM = [0.95, 0.96, 0.97, 0.98, 0.94]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["dwt_threshold", "smoothed_bootstrap_test",
                                       "shapiro_wilk"])
    def test_rejected_on_either_side(self, entry, bad):
        run = {"dwt_threshold": lambda c, w: dwt_threshold(c, w, n=100, gamma=0.95),
               "smoothed_bootstrap_test": lambda c, w: smoothed_bootstrap_test(
                   c, w, replicates=100),
               "shapiro_wilk": lambda c, w: (shapiro_wilk(c), shapiro_wilk(w))}[entry]
        for clean, wm in ((self.CLEAN[:-1] + [bad], self.WM),
                          (self.CLEAN, self.WM[:-1] + [bad])):
            with pytest.raises(ValueError, match="finite"):
                run(clean, wm)


class TestBlocksRequired:
    # gamma values paired with the block counts their formula demands;
    # the 5-block row is gamma = 1 - e^-5 (its decimal is sometimes quoted
    # rounded, but 5 blocks certify exactly this confidence)
    @pytest.mark.parametrize("gamma,m", [
        (0.5, 1), (0.9, 3), (0.95, 3), (0.99, 5), (1 - math.exp(-5), 5),
    ])
    def test_block_counts(self, gamma, m):
        assert blocks_required(gamma) == m
        assert math.exp(-m) <= (1 - gamma) + 1e-12

    def test_confidence_bound_holds_for_all(self):
        for gamma in np.linspace(0.01, 0.999, 97):
            m = blocks_required(gamma)
            assert math.exp(-m) <= 1 - gamma + 1e-12

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            blocks_required(1.0)


class TestRequiredSampleSize:
    def test_equal_errors_keep_n(self):
        assert required_sample_size(4, 0.1, 0.1, dim=1) == 4

    def test_documented_minimum(self):
        assert required_sample_size(4, 0.1, 0.1, dim=1) == 4

    def test_halved_error(self):
        # ceil(4 * 2^(5/4)) = ceil(9.51) = 10
        assert required_sample_size(4, 0.1, 0.05, dim=1) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            required_sample_size(0, 0.1, 0.1)


CLEAN_FIXTURE = [0.05, 0.08, 0.10, 0.12]
WM_FIXTURE = [0.95, 0.96, 0.97, 0.98]


def reference_dwt_threshold(clean, wm, n, gamma, seed):
    """dwt_threshold as it was when it kept all 2m blocks and read the
    certificate off them; its overlap path must still match bit for bit."""
    clean, wm = np.asarray(clean, dtype=float), np.asarray(wm, dtype=float)
    m = blocks_required(gamma)
    h_clean, h_wm = silverman_bandwidth(clean), silverman_bandwidth(wm)
    rng = np.random.default_rng(seed)
    clean_blocks = [kde_sample(clean, h_clean, n, rng) for _ in range(m)]
    wm_blocks = [kde_sample(wm, h_wm, n, rng) for _ in range(m)]
    highest_clean = max(b.max() for b in clean_blocks)
    lowest_wm = min(b.min() for b in wm_blocks)
    if highest_clean < lowest_wm:
        t = 0.5 * (highest_clean + lowest_wm)
        return ThresholdReport(float(t), n, m, gamma, [0.0] * m, [0.0] * m,
                               True, h_clean, h_wm)
    all_clean = np.sort(np.concatenate(clean_blocks))
    all_wm = np.sort(np.concatenate(wm_blocks))
    candidates = np.unique(np.concatenate([all_clean, all_wm]))
    fp = len(all_clean) - np.searchsorted(all_clean, candidates, side="right")
    fn = np.searchsorted(all_wm, candidates, side="right")
    total = fp / len(all_clean) + fn / len(all_wm)
    t = float(candidates[int(np.argmin(total))])
    fpr = [float(np.mean(b > t)) for b in clean_blocks]
    fnr = [float(np.mean(b <= t)) for b in wm_blocks]
    return ThresholdReport(t, n, m, gamma, fpr, fnr, False, h_clean, h_wm)


class TestDwtThreshold:
    def test_separated_fixture_certifies(self):
        report = dwt_threshold(CLEAN_FIXTURE, WM_FIXTURE, n=1_000_000,
                               gamma=0.95, seed=13)
        assert report.certificate
        assert report.m == 3
        assert all(f == 0.0 for f in report.observed_fpr)
        assert all(f == 0.0 for f in report.observed_fnr)
        assert 0.2 < report.threshold < 0.9

    def test_certificate_implies_zero_rates(self):
        report = dwt_threshold(CLEAN_FIXTURE, WM_FIXTURE, n=10_000,
                               gamma=0.9973, seed=14)
        if report.certificate:
            assert set(report.observed_fpr) == {0.0}
            assert set(report.observed_fnr) == {0.0}

    def test_certificate_rates_verified_by_independent_redraw(self):
        # replaying the two exact extremes from the seed, solved here with
        # brentq on the KDE's tail mass, must put the threshold in their gap;
        # then no draw of any block is misclassified
        rng = np.random.default_rng(21)
        certificates = 0
        for trial in range(60):
            clean = np.clip(rng.normal(0.35, 0.12, size=5), 0, 1)
            wm = np.clip(rng.normal(0.75, 0.12, size=5), 0, 1)
            if clean.mean() >= wm.mean():
                continue
            rep = dwt_threshold(clean, wm, n=200, gamma=0.95, seed=trial)
            if not rep.certificate:
                continue
            certificates += 1
            replay = np.random.default_rng(trial)
            extremes = []
            for sample, h, sign in ((clean, rep.h_clean, 1.0), (wm, rep.h_wm, -1.0)):
                u = (replay.integers(1 << 52) + 0.5) / (1 << 52)
                tail = -math.expm1(math.log(u) / (rep.m * 200))
                x = sign * sample
                gap = lambda t: scipy_stats.norm.sf(t, x, h).mean() - tail
                extremes.append(sign * brentq(gap, x.min() - 50 * h, x.max() + 50 * h,
                                              xtol=1e-15))
            highest_clean, lowest_wm = extremes
            assert highest_clean < rep.threshold < lowest_wm
            assert rep.threshold == pytest.approx(0.5 * (highest_clean + lowest_wm),
                                                  abs=1e-12)
        assert certificates > 5  # the property was actually exercised

    @pytest.mark.parametrize("sample,side", [(CLEAN_ROW, "max"), (WM_ROW, "min"),
                                             (CLEAN_FIXTURE, "max"), (CLEAN_FIXTURE, "min")],
                             ids=["clean_row-max", "wm_row-min", "fixture-max", "fixture-min"])
    def test_exact_extreme_matches_brute_force(self, sample, side):
        # 800 exact extremes of N = 2000 KDE draws against 800 brute-force
        # ones, from fixed seeds: a two-sample KS test must not reject
        x = np.asarray(sample, dtype=float)
        h = silverman_bandwidth(x)
        sign = 1.0 if side == "max" else -1.0
        rng = np.random.default_rng(31)
        exact = [sign * kde_max(sign * x, h, 2000, rng) for _ in range(800)]
        brute = sign * (sign * kde_sample(x, h, (800, 2000), 32)).max(axis=1)
        assert scipy_stats.ks_2samp(exact, brute).pvalue > 0.01

    def test_certificate_at_a_billion_draws_in_bounded_memory(self):
        probe = ("import resource\n"
                 "from linkmark.stats import dwt_threshold\n"
                 "r = dwt_threshold([0.05, 0.08, 0.10, 0.12], [0.95, 0.96, 0.97, 0.98],\n"
                 "                  n=10**9, gamma=0.9999, seed=5)\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, r.certificate)\n")
        # Linux carries a process's peak RSS across fork and exec, so the
        # probe is started from a small launcher rather than from pytest
        launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        max_rss_kib, certificate = proc.stdout.split()
        assert certificate == "True"
        # 2m blocks of 1e9 draws would need some 10^11 bytes
        assert int(max_rss_kib) < 200 * 1024

    def test_overlapping_samples_fall_back_to_sweep(self):
        rng = np.random.default_rng(15)
        clean = rng.normal(0.45, 0.1, size=8)
        wm = rng.normal(0.55, 0.1, size=8)
        report = dwt_threshold(clean, wm, n=2000, gamma=0.95, seed=16)
        assert not report.certificate
        assert any(f > 0 for f in report.observed_fpr + report.observed_fnr)
        assert clean.min() < report.threshold < wm.max()

    def test_second_look_never_certifies(self):
        # at these seeds the exact extremes overlap but the blocks drawn after
        # them separate: no certificate, and the sweep's rates are all zero
        clean, wm = [0.30, 0.35, 0.40, 0.45], [0.60, 0.65, 0.70, 0.75]
        second_looks = 0
        for seed in range(60):
            got = dwt_threshold(clean, wm, n=20, gamma=0.95, seed=seed)
            if got.certificate or not reference_dwt_threshold(clean, wm, 20, 0.95,
                                                              seed).certificate:
                continue
            second_looks += 1
            assert got.observed_fpr == got.observed_fnr == [0.0] * got.m
        assert second_looks > 5

    def test_deterministic_per_seed(self):
        a = dwt_threshold(CLEAN_FIXTURE, WM_FIXTURE, n=1000, gamma=0.95, seed=17)
        b = dwt_threshold(CLEAN_FIXTURE, WM_FIXTURE, n=1000, gamma=0.95, seed=17)
        assert a.threshold == b.threshold
        assert a.observed_fpr == b.observed_fpr

    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    @pytest.mark.parametrize("inputs", ["separating", "overlapping"])
    def test_matches_reference_bit_for_bit(self, inputs, seed):
        if inputs == "separating":
            clean, wm, gamma = [v / 100 for v in CLEAN_ROW], [v / 100 for v in WM_ROW], 0.99
        else:
            rng = np.random.default_rng(15)
            clean, wm = rng.normal(0.45, 0.1, size=8), rng.normal(0.55, 0.1, size=8)
            gamma = 0.95
        got = asdict(dwt_threshold(clean, wm, n=5000, gamma=gamma, seed=seed))
        want = asdict(reference_dwt_threshold(clean, wm, 5000, gamma, seed))
        assert got["certificate"] == (inputs == "separating")
        if inputs == "separating":  # t comes from the exact extremes, not the blocks
            del got["threshold"], want["threshold"]
        assert got == want

    def test_sides_inverted(self):
        with pytest.raises(SidesInverted):
            dwt_threshold(WM_FIXTURE, CLEAN_FIXTURE, n=100, gamma=0.95, seed=18)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            dwt_threshold([0.1, 0.2, 0.3], WM_FIXTURE, n=100, gamma=0.95, seed=19)

    def test_samples_must_be_unit_interval(self):
        with pytest.raises(ValueError):
            dwt_threshold([5.0, 8.0, 10.0, 12.0], [95.0, 96.0, 97.0, 98.0],
                          n=100, gamma=0.95, seed=19)

    def test_report_roundtrips_to_json(self):
        report = dwt_threshold(CLEAN_FIXTURE, WM_FIXTURE, n=1000, gamma=0.95, seed=20)
        doc = json.loads(json.dumps(asdict(report)))
        assert doc["certificate"] == report.certificate
        assert doc["threshold"] == report.threshold
        assert doc["h_clean"] > 0 and doc["h_wm"] > 0


class TestVerifyOwnership:
    # owned means the trigger-set AUC is above the threshold, as in `dispute`
    def test_threshold_one_never_owned(self, watermarked_model, toy_watermark):
        assert not watermark_auc(watermarked_model, toy_watermark) > 1.0

    def test_watermarked_model_owned_at_sane_threshold(self, watermarked_model,
                                                       toy_watermark):
        assert watermark_auc(watermarked_model, toy_watermark) > 0.7

    def test_clean_model_not_owned(self, clean_model, toy_watermark):
        assert not watermark_auc(clean_model, toy_watermark) > 0.7
