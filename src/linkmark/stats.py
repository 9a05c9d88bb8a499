"""Ownership statistics: AUC, normality test, smoothed bootstrap, KDE
threshold selection with a rule-of-three confidence certificate.

The threshold procedure estimates the score distributions of clean and
watermarked models with Gaussian KDEs (Silverman bandwidth per group) and
certifies FPR, FNR < 1/n at confidence gamma when m = ceil(-ln(1 - gamma))
blocks of n draws from each separate: zero misclassifications in m blocks of
n Bernoulli trials bound the failure probability, as (1-p)^(mn) <= e^-m for
p >= 1/n. The largest clean and the smallest watermarked of the m*n draws
decide it, each drawn exactly (a maximum of N i.i.d. draws has CDF F^N).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri

# absorbs float noise at exact-integer boundaries of ceil()
_CEIL_EPS = 1e-12


class SidesInverted(ValueError):
    """Clean sample mean is not below the watermarked sample mean."""


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count
    one half. Mann-Whitney rank formulation, O(n log n)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-d arrays")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=float)
    # average ranks over tie groups (1-based)
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + e + 1)
    rank_sum = float(np.sum(ranks[labels == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def finite_samples(sample) -> np.ndarray:
    """`sample` as a float array; a NaN or infinite entry raises ValueError."""
    x = np.asarray(sample, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    return x


def shapiro_wilk(sample):
    """W statistic and upper-tail p-value via the AS R94 polynomial
    approximation (valid for 3 <= n <= 5000)."""
    x = np.sort(finite_samples(sample))
    n = len(x)
    if n < 3 or n > 5000:
        raise ValueError(f"sample size {n} outside [3, 5000]")
    if x[-1] == x[0]:
        raise ValueError("zero variance sample")
    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    ssm = float(np.sum(m * m))
    rsn = 1.0 / math.sqrt(n)
    a = np.empty(n)
    if n == 3:
        a[:] = (-math.sqrt(0.5), 0.0, math.sqrt(0.5))
    else:
        c = m / math.sqrt(ssm)
        a_n = (-2.706056 * rsn**5 + 4.434685 * rsn**4 - 2.071190 * rsn**3
               - 0.147981 * rsn**2 + 0.221157 * rsn + c[-1])
        if n > 5:
            a_n1 = (-3.582633 * rsn**5 + 5.682633 * rsn**4 - 1.752461 * rsn**3
                    - 0.293762 * rsn**2 + 0.042981 * rsn + c[-2])
            phi = (ssm - 2.0 * m[-1]**2 - 2.0 * m[-2]**2) / (1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2)
            a[2:-2] = m[2:-2] / math.sqrt(phi)
            a[-2], a[1] = a_n1, -a_n1
        else:
            phi = (ssm - 2.0 * m[-1]**2) / (1.0 - 2.0 * a_n**2)
            a[1:-1] = m[1:-1] / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n
    w = float(np.dot(a, x)) ** 2 / float(np.sum((x - x.mean()) ** 2))
    w = min(w, 1.0)
    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, min(max(p, 0.0), 1.0)
    if n <= 11:
        g = -2.273 + 0.459 * n
        wt = -math.log(g - math.log1p(-w))
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
    else:
        ln_n = math.log(n)
        wt = math.log1p(-w)
        mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n**2 + 0.0038915 * ln_n**3
        sigma = math.exp(-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n**2)
    z = (wt - mu) / sigma
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return w, p


def silverman_bandwidth(sample) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5); degenerate dispersion falls back
    to the other measure, and a fully constant sample gets a 1e-6 floor."""
    x = np.asarray(sample, dtype=float)
    if len(x) < 2:
        raise ValueError("bandwidth needs at least 2 points")
    std = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    iqr_term = float(q75 - q25) / 1.34
    spreads = [s for s in (std, iqr_term) if s > 0.0]
    if not spreads:
        return 1e-6
    return max(0.9 * min(spreads) * len(x) ** (-0.2), 1e-6)


def kde_sample(sample, bandwidth: float, count, seed) -> np.ndarray:
    """Draws from the Gaussian KDE: a uniformly chosen datum plus
    N(0, bandwidth^2) noise. `count` may be a shape; `seed` may be a
    Generator, which then advances (indices first, then noise)."""
    x = np.asarray(sample, dtype=float)
    rng = np.random.default_rng(seed)
    draws = x[rng.integers(0, len(x), size=count)]
    draws += rng.normal(0.0, bandwidth, size=count)
    return draws


def smoothed_bootstrap_test(clean, watermarked, replicates: int = 100_000,
                            seed: int = 0) -> float:
    """One-sided p-value for mean(watermarked) - mean(clean) > 0.

    The null is built by re-centering both groups onto the pooled mean, then
    each replicate resamples both groups with replacement and smooths with
    that group's Silverman bandwidth.
    """
    a = finite_samples(watermarked)
    b = finite_samples(clean)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    observed = float(a.mean() - b.mean())
    pooled = float(np.concatenate([a, b]).mean())
    a_null = a - a.mean() + pooled
    b_null = b - b.mean() + pooled
    h_a = silverman_bandwidth(a) if len(a) > 1 else 0.0
    h_b = silverman_bandwidth(b) if len(b) > 1 else 0.0
    rng = np.random.default_rng(seed)
    draws_a = kde_sample(a_null, h_a, (replicates, len(a)), rng)
    draws_b = kde_sample(b_null, h_b, (replicates, len(b)), rng)
    diffs = draws_a.mean(axis=1) - draws_b.mean(axis=1)
    return (1.0 + int(np.sum(diffs >= observed))) / (replicates + 1.0)


def blocks_required(gamma: float) -> int:
    """m = ceil(-ln(1 - gamma)): zero failures in m blocks of n trials give
    FPR, FNR < 1/n at confidence gamma."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    return max(1, math.ceil(-math.log1p(-gamma) - _CEIL_EPS))


def required_sample_size(n0: int, eps0: float, eps1: float, dim: int = 1) -> int:
    """Sample size reaching MSE eps1 given n0 samples reach eps0, using the
    KDE error scaling MSE ~ n^(-4/(4+d))."""
    if min(n0, eps0, eps1) <= 0:
        raise ValueError("arguments must be positive")
    return math.ceil(n0 * (eps0 / eps1) ** ((4.0 + dim) / 4.0) - _CEIL_EPS)


@dataclass
class ThresholdReport:
    """Outcome of threshold selection: the threshold, the (n, m, gamma)
    certificate parameters, per-block observed error rates, and the KDE
    bandwidths actually used."""

    threshold: float
    n: int
    m: int
    gamma: float
    observed_fpr: list
    observed_fnr: list
    certificate: bool
    h_clean: float
    h_wm: float


def kde_max(sample, bandwidth: float, count, rng) -> float:
    """Largest of `count` KDE draws, exactly: bisects sf(t) = 1 - U^(1/count),
    U in (0, 1) from `rng`, to the float grid within 50 bandwidths of `sample`."""
    u = (rng.integers(1 << 52) + 0.5) / (1 << 52)
    target = math.log(-math.expm1(math.log(u) / count)) + math.log(len(sample))
    lo, hi = sample.min() - 50.0 * bandwidth, sample.max() + 50.0 * bandwidth
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        above = np.logaddexp.reduce(log_ndtr((sample - mid) / bandwidth)) > target
        lo, hi = (mid, hi) if above else (lo, mid)
    return float(hi)


def dwt_threshold(clean, watermarked, n: int, gamma: float, seed: int = 0) -> ThresholdReport:
    """Pick a decision threshold between the clean and watermarked AUC
    distributions.

    From `default_rng(seed)`, draws the largest of m*n clean KDE draws, then
    the smallest of m*n watermarked ones (`kde_max`). If they separate, so
    does every block of n: the threshold is the midpoint of the gap, and the
    (n, m, gamma) certificate holds with observed FPR = FNR = 0. Otherwise it
    re-seeds, draws the 2m blocks and minimizes FPR + FNR over the pooled
    draws (ties toward the lower threshold, favoring the defendant); this
    second look never certifies, even if these blocks separate.
    """
    clean = finite_samples(clean)
    wm = finite_samples(watermarked)
    if len(clean) < 4 or len(wm) < 4:
        raise ValueError("at least 4 samples per side are required")
    for side in (clean, wm):
        if np.any((side < 0.0) | (side > 1.0)):
            raise ValueError("AUC samples must lie in [0, 1]")
    if clean.mean() >= wm.mean():
        raise SidesInverted("clean mean must be below watermarked mean")
    if n < 1:
        raise ValueError("n must be positive")
    m = blocks_required(gamma)
    h_clean = silverman_bandwidth(clean)
    h_wm = silverman_bandwidth(wm)
    rng = np.random.default_rng(seed)
    highest_clean = kde_max(clean, h_clean, m * n, rng)
    lowest_wm = -kde_max(-wm, h_wm, m * n, rng)
    if highest_clean < lowest_wm:
        t = 0.5 * (highest_clean + lowest_wm)
        return ThresholdReport(float(t), n, m, gamma, [0.0] * m, [0.0] * m,
                               True, h_clean, h_wm)
    rng = np.random.default_rng(seed)
    clean_blocks = [kde_sample(clean, h_clean, n, rng) for _ in range(m)]
    wm_blocks = [kde_sample(wm, h_wm, n, rng) for _ in range(m)]
    all_clean = np.sort(np.concatenate(clean_blocks))
    all_wm = np.sort(np.concatenate(wm_blocks))
    candidates = np.unique(np.concatenate([all_clean, all_wm]))
    # classified watermarked iff score > t
    fp = len(all_clean) - np.searchsorted(all_clean, candidates, side="right")
    fn = np.searchsorted(all_wm, candidates, side="right")
    total = fp / len(all_clean) + fn / len(all_wm)
    best = int(np.argmin(total))  # argmin takes the first, lowest-t optimum
    t = float(candidates[best])
    fpr = [float(np.mean(b > t)) for b in clean_blocks]
    fnr = [float(np.mean(b <= t)) for b in wm_blocks]
    return ThresholdReport(t, n, m, gamma, fpr, fnr, False, h_clean, h_wm)
