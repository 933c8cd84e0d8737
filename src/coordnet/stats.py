"""Statistics kernel: rank correlation, rank-sum tests, AUC, resampling.

Everything here is deterministic. Seeded procedures use numpy's PCG64
generator with explicit 64-bit seeds; per-column resampling seeds are
derived through SeedSequence so results never depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from coordnet.corpus import Corpus, TweetRecord, day_of_timestamp

_BOOTSTRAP_CHUNK = 512  # fixed so the PCG64 stream is consumed identically


@dataclass
class StatResult:
    """A statistic with its p-value, sample sizes, and optional SE."""

    statistic: float | None
    p_value: float | None
    n: tuple[int, ...]
    se: float | None = None
    method: str = ""

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n": list(self.n),
            "se": self.se,
            "method": self.method,
        }


def make_rng(seed: int) -> np.random.Generator:
    """The toolkit-wide generator: PCG64 with an explicit 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def rankdata(values: Sequence[float]) -> list[float]:
    """Ranks starting at 1; ties receive the average of their ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _tie_counts(values: Sequence[float]) -> list[int]:
    counts = []
    for v in sorted(values):
        if counts and v == last:
            counts[-1] += 1
        else:
            counts.append(1)
        last = v
    return counts


# ---------------------------------------------------------------------------
# Spearman rank correlation
# ---------------------------------------------------------------------------


def _pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = vx = vy = 0.0
    for xi, yi in zip(x, y):
        dx = xi - mx
        dy = yi - my
        cov += dx * dy
        vx += dx * dx
        vy += dy * dy
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def spearman(x: Sequence[float], y: Sequence[float], method: str = "t") -> StatResult:
    """Spearman's rho: Pearson correlation of average-ranked data.

    p-value is two-sided from the t approximation with n-2 degrees of
    freedom; method="exact" enumerates permutations (n <= 10 only).
    Constant input leaves the statistic undefined (None).
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ValueError("spearman requires at least 3 pairs")
    rx = rankdata(x)
    ry = rankdata(y)
    rho = _pearson(rx, ry)
    if rho is None:
        return StatResult(None, None, (n,), method="spearman-undefined")
    rho = max(-1.0, min(1.0, rho))
    if method == "exact":
        if n > 10:
            raise ValueError("exact spearman p limited to n <= 10")
        hits = 0
        total = 0
        target = abs(rho) - 1e-12
        for perm in permutations(ry):
            r = _pearson(rx, perm)
            total += 1
            if r is not None and abs(r) >= target:
                hits += 1
        return StatResult(rho, hits / total, (n,), method="spearman-exact")
    if abs(rho) >= 1.0:
        p = 0.0
    else:
        # Imported here, not at module top: every CLI process imports
        # this module, and loading scipy.special costs each one ~0.2 s.
        from scipy.special import stdtr

        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return StatResult(rho, min(1.0, p), (n,), method="spearman-t")


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


def _u_statistic(a: Sequence[float], b: Sequence[float]) -> tuple[float, list[float]]:
    combined = list(a) + list(b)
    ranks = rankdata(combined)
    r_a = sum(ranks[: len(a)])
    u_a = r_a - len(a) * (len(a) + 1) / 2.0
    return u_a, ranks


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
    if not a or not b:
        raise ValueError("mann_whitney_u requires non-empty samples")
    n1, n2 = len(a), len(b)
    u_a, ranks = _u_statistic(a, b)
    ties = _tie_counts(list(a) + list(b))
    has_ties = any(t > 1 for t in ties)

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
    mean = sum(aucs) / len(aucs)
    if len(aucs) > 1:
        var = sum((x - mean) ** 2 for x in aucs) / (len(aucs) - 1)
        se = math.sqrt(var / len(aucs))
    else:
        se = 0.0
    return StatResult(mean, None, (n, len(aucs), skipped), se=se, method="reshuffle-auc-pcg64")


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def bootstrap_se(
    values: Sequence[float], b: int = 1000, seed: int | tuple[int, ...] = 0
) -> float:
    """Bootstrap standard error of the mean over b seeded resamples.

    seed is an int or a tuple of ints; PCG64 seeds either through
    SeedSequence, so an int seed draws exactly as make_rng(seed).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ValueError("bootstrap_se requires at least 2 values")
    rng = np.random.Generator(np.random.PCG64(seed))
    means = np.empty(b, dtype=np.float64)
    done = 0
    while done < b:
        m = min(_BOOTSTRAP_CHUNK, b - done)
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
        sum(kappas) / len(kappas),
        None,
        (len(annotations), n_items, skipped),
        method="kappa-pairwise",
    )


def group_mean_kappa(
    annotations_by_characteristic: dict[str, Sequence[Sequence[int | None]]]
) -> dict:
    """Per-characteristic pairwise kappa plus its unweighted group mean."""
    per = {
        name: cohens_kappa(annotations).statistic
        for name, annotations in annotations_by_characteristic.items()
    }
    defined = [v for v in per.values() if v is not None]
    return {
        "per_characteristic": per,
        "mean": (sum(defined) / len(defined)) if defined else None,
    }


# ---------------------------------------------------------------------------
# Column-wise cluster deltas
# ---------------------------------------------------------------------------


def column_deltas(
    cluster_values: np.ndarray,
    baseline_values: np.ndarray,
    b: int = 1000,
    seed: int = 0,
) -> list[dict]:
    """Per-column mean difference of cluster vs baseline matrices.

    Returns one dict per column with delta (mean difference), se (the
    two bootstrap SEs combined in quadrature), and the two-sided
    Mann-Whitney p for the column samples. Column resampling seeds are
    derived from (seed, column, side) so results are order-independent.
    """
    cluster_values = np.asarray(cluster_values, dtype=np.float64)
    baseline_values = np.asarray(baseline_values, dtype=np.float64)
    if cluster_values.size == 0 or baseline_values.size == 0:
        raise ValueError("column_deltas requires non-empty inputs")
    if cluster_values.shape[1] != baseline_values.shape[1]:
        raise ValueError("column count mismatch")
    out = []
    for j in range(cluster_values.shape[1]):
        cl = cluster_values[:, j]
        bl = baseline_values[:, j]
        delta = float(cl.mean() - bl.mean())
        se_c = bootstrap_se(cl, b, (seed, j, 0)) if cl.size > 1 else 0.0
        se_b = bootstrap_se(bl, b, (seed, j, 1)) if bl.size > 1 else 0.0
        p = mann_whitney_u(cl.tolist(), bl.tolist(), method="normal").p_value
        out.append({"delta": delta, "se": math.hypot(se_c, se_b), "p": p})
    return out


# ---------------------------------------------------------------------------
# Corpus-facing aggregates
# ---------------------------------------------------------------------------


def daily_mean_series(
    day_values: Iterable[tuple[str, float]],
) -> list[tuple[str, float | None]]:
    """Collapse (day, value) pairs to per-day means over the full range.

    Days between the earliest and latest observed day with no values
    yield None.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for day, value in day_values:
        sums[day] = sums.get(day, 0.0) + value
        counts[day] = counts.get(day, 0) + 1
    if not sums:
        return []
    start = date.fromisoformat(min(sums))
    end = date.fromisoformat(max(sums))
    out = []
    current = start
    while current <= end:
        key = current.isoformat()
        if key in sums:
            out.append((key, sums[key] / counts[key]))
        else:
            out.append((key, None))
        current += timedelta(days=1)
    return out


def daily_mean_confidence(
    table, tweets: Iterable[TweetRecord], characteristic: str
) -> list[tuple[str, float | None]]:
    """Per-UTC-day mean confidence of one characteristic over `tweets`."""
    idx = table.column_index(characteristic)
    pairs = (
        (day_of_timestamp(t.timestamp), float(table.get(t.tweet_id)[idx])) for t in tweets
    )
    return daily_mean_series(pairs)


def language_mix(corpus: Corpus, accounts: Iterable[str] | None = None) -> dict[str, dict[str, float]]:
    """Per-account fraction of tweets per language tag (fractions sum to 1)."""
    wanted = corpus.accounts() if accounts is None else sorted(set(accounts))
    out: dict[str, dict[str, float]] = {}
    for account in wanted:
        recs = corpus.records_for_account(account)
        if not recs:
            continue
        counts: dict[str, int] = {}
        for rec in recs:
            counts[rec.language] = counts.get(rec.language, 0) + 1
        total = len(recs)
        out[account] = {lang: counts[lang] / total for lang in sorted(counts)}
    return out
