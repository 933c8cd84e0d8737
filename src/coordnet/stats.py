"""Statistics kernel: rank correlation, rank-sum tests, AUC, resampling.

Everything here is deterministic. Seeded procedures use numpy's PCG64
generator with explicit 64-bit seeds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from coordnet.corpus import SECONDS_PER_DAY, Corpus, day_of_timestamp

# Bytes one bootstrap chunk may hold: its int64 indices plus the float64
# values they gather, 16 bytes per draw. PCG64's integers() yields the
# same draws however the rows are split between calls, so the budget
# bounds memory without changing any SE.
_BOOTSTRAP_BYTES = 4 << 20


@dataclass
class StatResult:
    """A statistic with its p-value, sample sizes, and optional SE."""

    statistic: float | None
    p_value: float | None
    n: tuple[int, ...]
    se: float | None = None
    method: str = ""


def left_sum(values: Iterable[float]) -> float:
    """The float sum of values added left to right, as the builtin sum()
    adds floats before Python 3.12. From 3.12, sum() compensates its
    rounding, so its last bits differ; this sum has the same bits on
    every supported Python."""
    total = 0.0
    for value in values:
        total += value
    return total


def make_rng(seed: int) -> np.random.Generator:
    """The toolkit-wide generator: PCG64 with an explicit 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _rank(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The ranks of rankdata, and the size of each group of equal
    values, in ascending order of value."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], arr.size] - 1
    sizes = ends - starts + 1
    ranks = np.empty(arr.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, sizes)
    return ranks, sizes


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Ranks starting at 1; ties receive the average of their ranks.

    Every rank is an integer or a half-integer, so sums of ranks are
    exact in any order.
    """
    return _rank(values)[0]


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def t_approx_p(r: float, n: int) -> float:
    """Two-sided p of a correlation r (already clamped to [-1, 1]) over
    n pairs, from the t approximation with n - 2 degrees of freedom."""
    r = float(r)  # so the p is a builtin float whatever type r has
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t = r * math.sqrt(df / (1.0 - r * r))
    return min(1.0, student_t_two_sided(abs(t), df))


# The Student t tail below uses only math. scipy.special.stdtr gives the
# same p to within 4e-13 relative, but importing scipy.special costs a
# CLI process ~0.37 s and +26 MiB of peak RSS over numpy alone (Python
# 3.11, scipy 1.17, 2-vCPU VM); scipy stays a test oracle.

_LN_SQRT_PI = 0.5 * math.log(math.pi)
_TINY = 1e-300
_EPS = 2.0**-53


def _ln_gamma_ratio_half(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a), a > 0.

    For large a the lgamma difference cancels (it loses about a * eps),
    so there the asymptotic series is used; its first omitted term is
    below 1e-16 at a = 25.
    """
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv = 1.0 / a
    inv2 = inv * inv
    return 0.5 * math.log(a) - inv * (
        1.0 / 8.0 - inv2 * (1.0 / 192.0 - inv2 * (1.0 / 640.0 - inv2 * (17.0 / 14336.0)))
    )


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction of I_x(a, b), y = 1 - x, by modified Lentz
    (Numerical Recipes, 3rd ed., 6.4). Converges fast for
    x < (a + 1) / (a + b + 2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    # 1 - qab * x / qap, written so it does not cancel: with b <= 1 as a
    # sum of positive terms, with b > 1 (so x is small here) directly.
    d = ((1.0 - b) + qab * y) / qap if b <= 1.0 else 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    c = 1.0
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) >= _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _bgrat_p(m: int) -> list[float]:
    """The coefficients p_0..p_{m-1} of DiDonato & Morris (1992), eq. 9.4,
    at b = 1/2."""
    odd_fact = [math.factorial(2 * k + 1) for k in range(m)]
    p = [1.0]
    for n in range(1, m):
        s = left_sum((k / 2.0 - n) * p[n - k] / odd_fact[k] for k in range(1, n))
        p.append(s / n - 0.5 / odd_fact[n])
    return p


# Where the expansion is used (a >= 15, q <= 1) it converges in at most
# 10 terms.
_BGRAT_P = _bgrat_p(20)


def _t_tail_large_df(a: float, q: float) -> float:
    """I_x(a, 1/2) at x = 1 / (1 + q) for a >= 15 and q <= 1, by the
    asymptotic expansion in a of DiDonato & Morris, "Significant digit
    computation of the incomplete beta function ratios" (ACM TOMS 18,
    1992), section 9 (their BGRAT).

    The continued fraction loses about a * eps here, where x is near 1.
    The expansion is a sum of positive terms led by erfc(sqrt(u)),
    u = (a - 1/4) ln(1 + q), the normal limit of the t tail.
    """
    big_t = a - 0.25
    lx = -math.log1p(q)
    u = -big_t * lx
    h = math.exp(-u) * math.sqrt(u / math.pi)
    k = math.erfc(math.sqrt(u))
    total = k
    lx2 = 0.25 * lx * lx
    lxp = 1.0
    t4 = 4.0 * big_t * big_t
    for n in range(1, len(_BGRAT_P)):
        k = ((2 * n - 1.5) * (2 * n - 0.5) * k + (u + 2 * n - 0.5) * lxp * h) / t4
        lxp *= lx2
        term = _BGRAT_P[n] * k
        total += term
        if abs(term) <= _EPS * total:
            break
    return math.exp(_ln_gamma_ratio_half(a) - 0.5 * math.log(big_t)) * total


def student_t_two_sided(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df > 0 degrees of freedom, t >= 0:
    the regularized incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2).

    Against 40-digit arithmetic (df 1 to 1e4, t 1e-8 to 1e8) the relative
    error stays below 1e-13 where the result is above 1e-100, and below
    2e-13 down to 1e-300. Exactly 1.0 at t = 0.
    """
    t2 = t * t
    if t2 == 0.0:  # p rounds to 1 long before t * t underflows
        return 1.0
    a = 0.5 * df
    if a >= 15.0 and t2 <= df:
        return _t_tail_large_df(a, t2 / df)
    x = df / (df + t2)
    y = t2 / (df + t2)  # 1 - x without the subtraction
    # ln(x^a y^(1/2) / B(a, 1/2))
    ln_front = (
        -a * math.log1p(t2 / df)
        - 0.5 * math.log1p(df / t2)
        + _ln_gamma_ratio_half(a)
        - _LN_SQRT_PI
    )
    if x < (a + 1.0) / (a + 2.5):
        return math.exp(ln_front) * _beta_cf(a, 0.5, x, y) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(0.5, a, y, x) / 0.5


# ---------------------------------------------------------------------------
# Spearman rank correlation
# ---------------------------------------------------------------------------


def spearman_matrix(matrix) -> list[list[float | None]]:
    """Spearman's rho of every two columns of matrix (a row per
    observation) as plain floats in [-1, 1]: 1.0 on the diagonal, else
    None for a constant column or fewer than 3 rows.

    The centred rankdata ranks are multiplied as one matrix. Ranks are
    integers or half-integers, so below about 300,000 rows every sum is
    exact and rho has the same bits in any summation order. The ranks,
    filled a column at a time and centred and squared in place, are the
    one temporary of matrix's size.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n, k = matrix.shape
    rho = [[1.0 if i == j else None for j in range(k)] for i in range(k)]
    if n < 3:
        return rho
    centred = np.empty((n, k))
    for j in range(k):
        centred[:, j] = rankdata(matrix[:, j])
    centred -= centred.mean(axis=0)
    cov = (centred.T @ centred).tolist()
    sq = np.square(centred, out=centred).sum(axis=0).tolist()
    for i in range(k):
        for j in range(i + 1, k):
            if sq[i] and sq[j]:
                r = max(-1.0, min(1.0, cov[i][j] / math.sqrt(sq[i] * sq[j])))
                rho[i][j] = rho[j][i] = r
    return rho


def spearman(x: Sequence[float], y: Sequence[float]) -> StatResult:
    """Spearman's rho: Pearson correlation of average-ranked data.

    p-value is two-sided from the t approximation with n-2 degrees of
    freedom. Constant input leaves the statistic undefined (None).
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ValueError("spearman requires at least 3 pairs")
    rho = spearman_matrix(np.array((x, y), dtype=np.float64).T)[0][1]
    if rho is None:
        return StatResult(None, None, (n,), method="spearman-undefined")
    return StatResult(rho, t_approx_p(rho, n), (n,), method="spearman-t")


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


def _exact_u_counts(n1: int, n2: int) -> list[int]:
    """Count n1-subsets of ranks 1..n1+n2 by U value (no ties)."""
    max_u = n1 * n2
    ways = [[0] * (max_u + 1) for _ in range(n1 + 1)]
    ways[0][0] = 1
    # Classic recurrence: adding one more b-observation either leaves each
    # arrangement alone or shifts every a-rank past it.
    for r in range(1, n1 + n2 + 1):
        for k in range(min(n1, r), 0, -1):
            row = ways[k]
            prev = ways[k - 1]
            base = r - k  # b-observations below the new a-observation
            for u in range(max_u - base, -1, -1):
                if prev[u]:
                    row[u + base] += prev[u]
    return ways[n1]


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], method: str = "auto"
) -> StatResult:
    """Two-sample Mann-Whitney U with two-sided p.

    The statistic is U for the first sample. Small untied samples
    (n1 + n2 <= 16) get an exact p from the null distribution of U;
    otherwise the normal approximation with tie and continuity
    corrections is used.
    """
    n1, n2 = len(a), len(b)
    if not n1 or not n2:
        raise ValueError("mann_whitney_u requires non-empty samples")
    combined = np.concatenate(
        (np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    )
    ranks, sizes = _rank(combined)
    u_a = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    ties = sizes[sizes > 1].tolist()
    has_ties = bool(ties)

    if method == "exact" or (method == "auto" and n1 + n2 <= 16 and not has_ties):
        if has_ties:
            raise ValueError("exact p is not defined for tied samples")
        counts = _exact_u_counts(n1, n2)
        # |2u - n1*n2| >= |2U - n1*n2| in exact integer arithmetic
        d_obs = abs(int(round(2 * u_a)) - n1 * n2)
        hits = sum(c for u, c in enumerate(counts) if abs(2 * u - n1 * n2) >= d_obs)
        p = hits / math.comb(n1 + n2, n1)
        return StatResult(u_a, p, (n1, n2), method="mwu-exact")

    n = n1 + n2
    tie_term = sum(t**3 - t for t in ties)
    if n > 1:
        var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    else:
        var = 0.0
    if var <= 0.0:
        return StatResult(u_a, 1.0, (n1, n2), method="mwu-normal")
    mu = n1 * n2 / 2.0
    z = max(0.0, abs(u_a - mu) - 0.5) / math.sqrt(var)
    p = 2.0 * _norm_sf(z)
    return StatResult(u_a, min(1.0, p), (n1, n2), method="mwu-normal")


# ---------------------------------------------------------------------------
# ROC-AUC
# ---------------------------------------------------------------------------


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> StatResult:
    """Rank-based AUC: P(positive outranks negative), ties counted 1/2.

    Computed as U/(n1*n0) from the positive-vs-negative rank sum; the
    p-value is the two-sided normal approximation against AUC = 0.5.
    """
    if len(scores) != len(labels):
        raise ValueError(f"length mismatch: {len(scores)} vs {len(labels)}")
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    if not pos or not neg:
        raise ValueError("roc_auc requires both classes")
    res = mann_whitney_u(pos, neg, method="normal")
    auc = res.statistic / (len(pos) * len(neg))
    return StatResult(auc, res.p_value, (len(pos), len(neg)), method="auc-rank")


def reshuffle_eval(
    rows: Sequence[tuple[float, int]],
    splits: int = 10,
    train_frac: float = 0.5,
    seed: int = 0,
) -> StatResult:
    """Repeated-reshuffle evaluation of a fixed scorer.

    Each split shuffles the rows, holds out the tail (1 - train_frac)
    fraction, and computes AUC there. Returns the mean AUC with its
    standard error across splits. Splits whose held-out half lacks one
    of the classes are skipped and counted in n[2].
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"--train-frac must be in (0, 1), got {train_frac!r}")
    if splits < 1:
        raise ValueError(f"--splits must be at least 1, got {splits}")
    n = len(rows)
    if n < 4:
        raise ValueError("reshuffle_eval requires at least 4 rows")
    labels = [l for _, l in rows]
    if not any(labels) or all(labels):
        raise ValueError("reshuffle_eval requires both classes")
    rng = make_rng(seed)
    n_train = int(n * train_frac)
    aucs = []
    skipped = 0
    for _ in range(splits):
        perm = rng.permutation(n)
        held = [rows[i] for i in perm[n_train:]]
        held_labels = [l for _, l in held]
        if not any(held_labels) or all(held_labels):
            skipped += 1
            continue
        aucs.append(roc_auc([s for s, _ in held], held_labels).statistic)
    if not aucs:
        return StatResult(None, None, (n, 0, skipped), method="reshuffle-auc-pcg64")
    mean = left_sum(aucs) / len(aucs)
    if len(aucs) > 1:
        var = left_sum((x - mean) ** 2 for x in aucs) / (len(aucs) - 1)
        se = math.sqrt(var / len(aucs))
    else:
        se = 0.0
    return StatResult(mean, None, (n, len(aucs), skipped), se=se, method="reshuffle-auc-pcg64")


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def bootstrap_se(values: Sequence[float], b: int = 1000, seed: int = 0) -> float:
    """Bootstrap standard error of the mean over b resamples drawn by
    make_rng(seed)."""
    if b < 2:
        raise ValueError(f"bootstrap_se requires at least 2 resamples, got {b}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("bootstrap_se requires at least 2 values")
    rng = make_rng(seed)
    means = np.empty(b, dtype=np.float64)
    rows = max(1, _BOOTSTRAP_BYTES // (16 * arr.size))
    done = 0
    while done < b:
        m = min(rows, b - done)
        idx = rng.integers(0, arr.size, size=(m, arr.size))
        means[done : done + m] = arr[idx].mean(axis=1)
        done += m
    return float(means.std(ddof=1))


# ---------------------------------------------------------------------------
# Cohen's kappa
# ---------------------------------------------------------------------------


def kappa_from_table(table: Sequence[Sequence[int]]) -> float | None:
    """Cohen's kappa from a 2x2 agreement table [[n11, n10], [n01, n00]].

    Computed in integer arithmetic so clean ratios stay exact. None when
    chance agreement is 1 (both annotators constant and equal).
    """
    (n11, n10), (n01, n00) = table
    n = n11 + n10 + n01 + n00
    if n == 0:
        return None
    chance = (n11 + n10) * (n11 + n01) + (n01 + n00) * (n10 + n00)
    den = n * n - chance
    if den == 0:
        return None
    num = n * (n11 + n00) - chance
    return num / den


def cohens_kappa(annotations: Sequence[Sequence[int | None]]) -> StatResult:
    """Unweighted mean pairwise Cohen's kappa over >= 2 annotators.

    annotations[i][j] is annotator i's binary label for item j, or None
    where the annotator did not see the item. Pairs with no overlap or
    undefined kappa are skipped and counted in n[2].
    """
    if len(annotations) < 2:
        raise ValueError("cohens_kappa requires at least 2 annotators")
    n_items = len(annotations[0])
    if any(len(row) != n_items for row in annotations):
        raise ValueError("annotators must label the same item list")
    kappas = []
    skipped = 0
    for x, y in combinations(annotations, 2):
        counts = [[0, 0], [0, 0]]
        for xi, yi in zip(x, y):
            if xi is None or yi is None:
                continue
            counts[1 - int(xi)][1 - int(yi)] += 1
        k = kappa_from_table(counts)
        if k is None:
            skipped += 1
        else:
            kappas.append(k)
    if not kappas:
        return StatResult(None, None, (len(annotations), n_items, skipped), method="kappa-pairwise")
    return StatResult(
        left_sum(kappas) / len(kappas),
        None,
        (len(annotations), n_items, skipped),
        method="kappa-pairwise",
    )


# ---------------------------------------------------------------------------
# Column-wise cluster deltas
# ---------------------------------------------------------------------------


def mean_ses(values: np.ndarray) -> list[float]:
    """Ideal bootstrap SE of each column's mean: the limit of the
    Monte-Carlo bootstrap_se as b grows, sqrt(sum((x - mean)**2)) / n
    (Efron & Tibshirani, An Introduction to the Bootstrap, 1993). Exact,
    O(n) and draw-free.

    A column whose values are all equal, one row included, gives exactly
    0.0; x - x.mean() alone leaves ~1e-17 for a column of 0.1s.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    out = []
    for j in range(values.shape[1]):
        x = values[:, j]
        if x.min() == x.max():
            out.append(0.0)
            continue
        d = x - x.mean()
        out.append(math.sqrt(float((d * d).sum())) / n)
    return out


def column_deltas(
    cluster_values: np.ndarray,
    baseline_values: np.ndarray,
    *,
    baseline_se: Sequence[float] | None = None,
) -> list[dict]:
    """Per-column mean difference of cluster vs baseline matrices.

    Returns one dict per column with delta (mean difference), se (the
    two sides' mean_ses combined in quadrature), and the two-sided
    Mann-Whitney p for the column samples. baseline_se, when given, is
    mean_ses(baseline_values) computed once by a caller comparing many
    clusters against one baseline.
    """
    cluster_values = np.asarray(cluster_values, dtype=np.float64)
    baseline_values = np.asarray(baseline_values, dtype=np.float64)
    if cluster_values.size == 0 or baseline_values.size == 0:
        raise ValueError("column_deltas requires non-empty inputs")
    if cluster_values.shape[1] != baseline_values.shape[1]:
        raise ValueError("column count mismatch")
    if baseline_se is None:
        baseline_se = mean_ses(baseline_values)
    cluster_se = mean_ses(cluster_values)
    out = []
    for j in range(cluster_values.shape[1]):
        cl = cluster_values[:, j]
        bl = baseline_values[:, j]
        delta = float(cl.mean() - bl.mean())
        p = mann_whitney_u(cl, bl, method="normal").p_value
        out.append({"delta": delta, "se": math.hypot(cluster_se[j], baseline_se[j]), "p": p})
    return out


# ---------------------------------------------------------------------------
# Corpus-facing aggregates
# ---------------------------------------------------------------------------


def day_codes(records: Sequence) -> np.ndarray:
    """Each record's UTC day (from its timestamp attribute) as days since
    1970-01-01 (floor, so instants before 1970 fall on the right day)."""
    ts = np.fromiter((r.timestamp for r in records), dtype=np.int64, count=len(records))
    return ts // 86400


def daily_means(days: np.ndarray) -> Callable[[np.ndarray], list[tuple[str, float | None]]]:
    """Per-day means of values, as a function of values, with days as
    day_codes gives them: every day from the earliest to the latest, and
    None for a day with no values. The day span, the counts and the day
    names are computed once.

    bincount adds each day's values in input order, so every mean has
    the bits of a running sum divided by the count.
    """
    if len(days) == 0:
        return lambda values: []
    first = int(days.min())
    offsets = days - first
    counts = np.bincount(offsets)
    names = [day_of_timestamp((first + k) * SECONDS_PER_DAY) for k in range(len(counts))]
    present, divisors = counts.astype(bool).tolist(), np.maximum(counts, 1)

    def series(values: np.ndarray) -> list[tuple[str, float | None]]:
        means = (np.bincount(offsets, weights=values) / divisors).tolist()
        return [(d, mean if p else None) for d, mean, p in zip(names, means, present)]

    return series


def daily_mean_confidence(
    table, tweets: Iterable, characteristic: str
) -> list[tuple[str, float | None]]:
    """Per-UTC-day mean confidence of one characteristic over `tweets`,
    records with tweet_id and timestamp attributes."""
    tweets = list(tweets)
    values = table.rows_for([t.tweet_id for t in tweets])[:, table.column_index(characteristic)]
    return daily_means(day_codes(tweets))(values)


def language_mix(corpus: Corpus, accounts: Iterable[str] | None = None) -> dict[str, dict[str, float]]:
    """Per-account fraction of tweets per language tag (fractions sum to 1)."""
    wanted = corpus.accounts() if accounts is None else sorted(set(accounts))
    by_code: dict[int, dict[str, int]] = {}
    for (code, lang), n in Counter(zip(corpus.account_codes, corpus.language_codes)).items():
        by_code.setdefault(code, {})[corpus.languages[lang]] = n
    out: dict[str, dict[str, float]] = {}
    for account in wanted:
        counts = by_code.get(corpus.code_of.get(account))
        if not counts:
            continue
        total = sum(counts.values())
        out[account] = {lang: counts[lang] / total for lang in sorted(counts)}
    return out
