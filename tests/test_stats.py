"""Statistics kernel against independent oracles.

Oracles here deliberately take different routes than the production
code: scipy rank transforms + numpy Pearson for spearman, direct
pair-counting for U and AUC, and full combinatorial enumeration for
exact Mann-Whitney p-values.
"""

import itertools
import math
import random

import numpy as np
import pytest
import scipy.stats

from coordnet.stats import (
    bootstrap_se,
    cohens_kappa,
    column_deltas,
    day_codes,
    daily_mean_confidence,
    daily_means,
    kappa_from_table,
    language_mix,
    left_sum,
    mann_whitney_u,
    mean_ses,
    rankdata,
    reshuffle_eval,
    roc_auc,
    spearman,
)

from coordnet import stats
from helpers import (
    corpus_of,
    oracle_daily_mean_confidence,
    oracle_mann_whitney_u,
    oracle_mean_se,
    oracle_rankdata,
    oracle_spearman_pearson,
    random_report_inputs,
    rank_test_matrix,
    rec,
    records_of,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_spearman(x, y):
    rx = scipy.stats.rankdata(x, method="average")
    ry = scipy.stats.rankdata(y, method="average")
    return float(np.corrcoef(rx, ry)[0, 1])


def oracle_u(a, b):
    """U as a direct pair count: wins + half-ties for sample a."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def oracle_exact_p(a, b):
    """Two-sided exact p by enumerating every group arrangement."""
    combined = list(a) + list(b)
    n1 = len(a)
    n = len(combined)
    mu = n1 * (n - n1) / 2.0
    d_obs = abs(oracle_u(a, b) - mu)
    hits = 0
    total = 0
    for combo in itertools.combinations(range(n), n1):
        chosen = set(combo)
        aa = [combined[i] for i in combo]
        bb = [combined[i] for i in range(n) if i not in chosen]
        total += 1
        if abs(oracle_u(aa, bb) - mu) >= d_obs - 1e-9:
            hits += 1
    return hits / total


def oracle_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    return oracle_u(pos, neg) / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------


class TestLeftSum:
    def test_adds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum (the builtin
        # sum() of floats from Python 3.12) gives 1.0
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum(iter([0.1, 0.2, 0.3])) == 0.1 + 0.2 + 0.3
        assert left_sum([]) == 0.0


class TestRankdata:
    def test_matches_loop_oracle_bitwise(self):
        rnd = random.Random(21)
        cases = [[], [0.5], [2, 1, 2, 3, 1], [0.0, -0.0, 0.0, 1.0]]
        for _ in range(200):
            n = rnd.randint(1, 60)
            pool = [rnd.random() for _ in range(rnd.randint(1, n))]
            cases.append([rnd.choice(pool) for _ in range(n)])
        for values in cases:
            assert rankdata(values).tolist() == oracle_rankdata(values)

    def test_rank_sums_are_exact(self):
        # every rank is a half-integer, so any summation order agrees
        rnd = random.Random(22)
        values = [rnd.choice((0.1, 0.2, 0.3)) for _ in range(10_001)]
        ranks = rankdata(values)
        assert float(ranks.sum()) == sum(oracle_rankdata(values)) == 10_001 * 10_002 / 2


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]).statistic == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]).statistic == -1.0

    def test_hand_example_matches_rank_pearson_oracle(self):
        x = [1, 2, 3, 4, 5]
        y = [2, 1, 4, 3, 5]
        expected = oracle_spearman(x, y)  # = 0.8 by hand: 1 - 6*4/120
        assert abs(expected - 0.8) < 1e-12
        assert abs(spearman(x, y).statistic - expected) < 1e-12

    def test_matches_oracle_with_ties_randomized(self):
        rnd = random.Random(11)
        for _ in range(200):
            n = rnd.randint(3, 40)
            x = [rnd.randint(0, 8) / 2.0 for _ in range(n)]
            y = [rnd.randint(0, 8) / 2.0 for _ in range(n)]
            expected = oracle_spearman(x, y)
            got = spearman(x, y).statistic
            if math.isnan(expected):
                assert got is None
            else:
                assert abs(got - expected) < 1e-12

    def test_constant_input_undefined(self):
        res = spearman([1.0, 1.0, 1.0], [1, 2, 3])
        assert res.statistic is None
        assert res.p_value is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2])

    def test_p_matches_scipy_t_approximation(self):
        rnd = random.Random(3)
        for _ in range(50):
            n = rnd.randint(4, 30)
            x = [rnd.random() for _ in range(n)]
            y = [rnd.random() for _ in range(n)]
            res = spearman(x, y)
            ref = scipy.stats.spearmanr(x, y)
            assert abs(res.statistic - ref.statistic) < 1e-12
            assert abs(res.p_value - ref.pvalue) < 1e-9

    def test_perfect_rho_gives_zero_p(self):
        assert spearman([1, 2, 3, 4], [2, 4, 6, 8]).p_value == 0.0

    def test_invariant_under_increasing_transform(self):
        rnd = random.Random(5)
        x = [rnd.random() for _ in range(12)]
        y = [rnd.random() for _ in range(12)]
        base = spearman(x, y)
        warped = spearman([math.exp(v) for v in x], [v**3 for v in y])
        assert warped.statistic == base.statistic
        assert warped.p_value == base.p_value


class TestStudentTail:
    """t_approx_p computes the Student t tail itself; scipy is the oracle."""

    T_GRID = np.logspace(-8, 8, 801)

    @pytest.mark.parametrize(
        "df, closed_form",
        [
            (1, lambda t: (2.0 / math.pi) * math.atan2(1.0, t)),
            (2, lambda t: 2.0 / (math.sqrt(2.0 + t * t) * (math.sqrt(2.0 + t * t) + t))),
        ],
    )
    def test_matches_closed_forms(self, df, closed_form):
        for t in self.T_GRID.tolist():
            ref = closed_form(t)
            assert abs(stats.student_t_two_sided(t, df) - ref) <= 1e-13 * ref, t

    @pytest.mark.parametrize("df", list(range(1, 11)) + [30, 100, 2761, 10**5, 5 * 10**6, 10**7])
    def test_matches_scipy_stdtr(self, df):
        # 1e-11: a continued fraction alone loses about df * eps / 2 near
        # |t| = 2 (3e-10 at df = 1e7). |r| stays >= 1e-3, since at df = 1
        # stdtr itself is off by up to 3e-9 for |t| near 1e-8.
        from scipy.special import stdtr

        edge = [1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1e-3, math.sqrt(0.5)]
        # and r where |t| runs from 0.25 to 6, the body of the t tail
        edge += [t / math.sqrt(df + t * t) for t in np.linspace(0.25, 6, 24).tolist()]
        rs = np.linspace(-0.999, 0.999, 201).tolist() + edge + [-r for r in edge]
        for r in rs:
            t = r * math.sqrt(df / (1.0 - r * r))
            ref = min(1.0, 2.0 * float(stdtr(df, -abs(t))))
            p = stats.t_approx_p(r, df + 2)
            if p < 1e-300 or ref < 1e-300:
                assert p < 1e-300 and ref < 1e-300, r
            else:
                assert abs(p - ref) <= 1e-11 * ref, r

    def test_exact_values_and_type(self):
        for n in (3, 4, 30, 2763, 10**6):
            assert stats.t_approx_p(1.0, n) == 0.0
            assert stats.t_approx_p(-1.0, n) == 0.0
            assert stats.t_approx_p(0.0, n) == 1.0
            for r in (np.float64(0.3), 0.3, -0.999999, 1e-9):
                assert type(stats.t_approx_p(r, n)) is float


class TestRankCore:
    """spearman and mann_whitney_u share one ranking and one correlation
    core; the pairwise Pearson loop and the second sort for ties they
    replaced are the bitwise reference."""

    ROWS = (3, 4, 5, 17, 250, 10_000)

    @pytest.mark.parametrize("n", ROWS)
    def test_spearman_matches_pearson_loop_bitwise(self, n):
        matrix = rank_test_matrix(n, n, 6)
        for i, j in itertools.combinations(range(6), 2):
            x, y = matrix[:, i].tolist(), matrix[:, j].tolist()
            assert repr(spearman(x, y).statistic) == repr(oracle_spearman_pearson(x, y))

    @pytest.mark.parametrize("n", ROWS)
    def test_mann_whitney_matches_unique_tie_count_bitwise(self, n):
        matrix = rank_test_matrix(n + 1, n, 5)
        for j in range(5):
            column = matrix[:, j].tolist()
            for cut in sorted({1, n // 2, n - 1}):
                a, b = column[:cut], column[cut:]
                for method in ("auto", "normal"):
                    got = mann_whitney_u(a, b, method=method)
                    assert repr(got) == repr(oracle_mann_whitney_u(a, b, method=method))

    def test_spearman_matrix_is_plain_floats(self):
        rho = stats.spearman_matrix(rank_test_matrix(7, 40, 5))
        assert {type(r) for row in rho for r in row} == {float, type(None)}
        assert [rho[i][i] for i in range(5)] == [1.0] * 5
        assert rho[2] == [None, None, 1.0, None, None]  # the constant column
        assert stats.spearman_matrix(rank_test_matrix(7, 2, 3)) == [
            [1.0, None, None], [None, 1.0, None], [None, None, 1.0]
        ]


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


class TestMannWhitney:
    def test_complete_separation(self):
        assert mann_whitney_u([1, 2], [3, 4]).statistic == 0.0

    def test_identical_samples_give_half(self):
        for sample in ([1, 2], [3, 3, 3], [1.5, 2.5, 9, 9]):
            res = mann_whitney_u(sample, list(sample))
            assert res.statistic == len(sample) ** 2 / 2.0

    def test_hand_example_interleaved(self):
        res = mann_whitney_u([1, 3, 5], [2, 4])
        assert res.statistic == oracle_u([1, 3, 5], [2, 4]) == 3.0
        assert res.p_value == oracle_exact_p([1, 3, 5], [2, 4]) == 1.0
        assert res.method == "mwu-exact"

    def test_exact_matches_enumeration_all_small_shapes(self):
        rnd = random.Random(23)
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                if n1 + n2 > 8:
                    continue
                for _ in range(5):
                    pool = rnd.sample(range(100), n1 + n2)
                    a = [float(v) for v in pool[:n1]]
                    b = [float(v) for v in pool[n1:]]
                    res = mann_whitney_u(a, b)
                    assert res.method == "mwu-exact"
                    assert abs(res.p_value - oracle_exact_p(a, b)) < 1e-12
                    assert res.statistic == oracle_u(a, b)

    def test_u_statistic_matches_pair_count_with_ties(self):
        rnd = random.Random(29)
        for _ in range(100):
            a = [rnd.randint(0, 5) for _ in range(rnd.randint(1, 20))]
            b = [rnd.randint(0, 5) for _ in range(rnd.randint(1, 20))]
            assert mann_whitney_u(a, b).statistic == oracle_u(a, b)

    def test_ties_fall_back_to_normal(self):
        res = mann_whitney_u([1, 1], [1, 2])
        assert res.method == "mwu-normal"

    def test_exact_refuses_ties(self):
        with pytest.raises(ValueError, match="tied"):
            mann_whitney_u([1, 1], [1, 2], method="exact")

    def test_normal_close_to_exact_when_min_n_at_least_3(self):
        # agreement bound holds from min(n1, n2) >= 3 (max gap 0.0375)
        for n1 in range(3, 6):
            for n2 in range(3, 6):
                if n1 + n2 > 8:
                    continue
                values = list(range(n1 + n2))
                for combo in itertools.combinations(range(n1 + n2), n1):
                    chosen = set(combo)
                    a = [float(values[i]) for i in combo]
                    b = [float(values[i]) for i in range(n1 + n2) if i not in chosen]
                    p_exact = mann_whitney_u(a, b, method="exact").p_value
                    p_norm = mann_whitney_u(a, b, method="normal").p_value
                    assert abs(p_exact - p_norm) < 0.05

    def test_all_values_tied_p_is_one(self):
        assert mann_whitney_u([2, 2], [2, 2, 2]).p_value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1])

    def test_invariant_under_increasing_transform(self):
        a = [0.1, 0.5, 0.5, 2.0]
        b = [0.3, 0.7, 1.1]
        base = mann_whitney_u(a, b)
        warped = mann_whitney_u([math.exp(v) for v in a], [math.exp(v) for v in b])
        assert warped.statistic == base.statistic
        assert warped.p_value == base.p_value

    def test_large_sample_p_matches_scipy(self):
        rnd = random.Random(41)
        a = [rnd.gauss(0, 1) for _ in range(40)]
        b = [rnd.gauss(0.5, 1) for _ in range(35)]
        res = mann_whitney_u(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert abs(res.statistic - ref.statistic) < 1e-9
        assert abs(res.p_value - ref.pvalue) < 1e-9


# ---------------------------------------------------------------------------
# ROC-AUC
# ---------------------------------------------------------------------------


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]).statistic == 1.0

    def test_all_scores_equal(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]).statistic == 0.5

    def test_hand_example(self):
        # pairs: (0.9>0.6), (0.9>0.1), (0.4<0.6), (0.4>0.1) -> 3/4
        res = roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        assert res.statistic == 0.75
        assert res.statistic == oracle_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])

    def test_matches_pair_count_oracle_randomized(self):
        rnd = random.Random(17)
        for _ in range(100):
            n = rnd.randint(4, 30)
            scores = [rnd.randint(0, 10) / 10.0 for _ in range(n)]
            labels = [rnd.randint(0, 1) for _ in range(n)]
            if not any(labels) or all(labels):
                continue
            assert abs(roc_auc(scores, labels).statistic - oracle_auc(scores, labels)) < 1e-12

    def test_auc_identity_with_u(self):
        rnd = random.Random(19)
        for _ in range(200):
            n = rnd.randint(4, 25)
            scores = [rnd.randint(0, 6) / 6.0 for _ in range(n)]
            labels = [rnd.randint(0, 1) for _ in range(n)]
            if not any(labels) or all(labels):
                continue
            pos = [s for s, l in zip(scores, labels) if l]
            neg = [s for s, l in zip(scores, labels) if not l]
            u = mann_whitney_u(pos, neg, method="normal").statistic
            assert abs(roc_auc(scores, labels).statistic - u / (len(pos) * len(neg))) < 1e-12

    def test_score_negation_complements(self):
        rnd = random.Random(31)
        for _ in range(50):
            n = rnd.randint(4, 20)
            scores = [rnd.randint(0, 5) / 5.0 for _ in range(n)]
            labels = [rnd.randint(0, 1) for _ in range(n)]
            if not any(labels) or all(labels):
                continue
            auc = roc_auc(scores, labels).statistic
            neg = roc_auc([-s for s in scores], labels).statistic
            assert abs(auc + neg - 1.0) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc([0.1, 0.9], [1, 1])


class TestReshuffleEval:
    @staticmethod
    def _rows(n, rnd, informative):
        rows = []
        for _ in range(n):
            label = rnd.randint(0, 1)
            score = float(label) if informative else rnd.random()
            rows.append((score, label))
        return rows

    def test_scores_equal_labels(self):
        rnd = random.Random(2)
        rows = self._rows(60, rnd, informative=True)
        res = reshuffle_eval(rows, splits=10, seed=5)
        assert res.statistic == 1.0
        assert res.se == 0.0

    def test_uninformative_scores_near_half(self):
        rnd = random.Random(6)
        rows = self._rows(400, rnd, informative=False)
        res = reshuffle_eval(rows, splits=10, seed=9)
        assert abs(res.statistic - 0.5) <= 3 * res.se

    def test_seed_determinism(self):
        rnd = random.Random(8)
        rows = self._rows(50, rnd, informative=False)
        a = reshuffle_eval(rows, seed=123)
        b = reshuffle_eval(rows, seed=123)
        assert a.statistic == b.statistic and a.se == b.se
        c = reshuffle_eval(rows, seed=124)
        assert c.statistic != a.statistic

    def test_degenerate_splits_counted(self):
        # 5 rows, one positive: held-out halves often single-class
        rows = [(0.9, 1), (0.1, 0), (0.2, 0), (0.3, 0), (0.4, 0)]
        res = reshuffle_eval(rows, splits=20, seed=0)
        skipped = res.n[2]
        assert res.n[1] + skipped == 20
        assert skipped > 0


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


class TestBootstrapSE:
    def test_constant_list(self):
        assert bootstrap_se([3.0, 3.0, 3.0, 3.0], b=200, seed=1) == 0.0

    def test_seed_reproducible(self):
        values = [0.1, 0.4, 0.9, 0.2, 0.7]
        assert bootstrap_se(values, b=500, seed=42) == bootstrap_se(values, b=500, seed=42)
        assert bootstrap_se(values, b=500, seed=42) != bootstrap_se(values, b=500, seed=43)

    def test_zero_one_matches_analytic(self):
        # SE of the mean of {0,1}: sd/sqrt(2) = 0.5/sqrt(2) = 0.35355...
        se = bootstrap_se([0.0, 1.0], b=10_000, seed=7)
        assert abs(se - 0.5 / math.sqrt(2)) / (0.5 / math.sqrt(2)) < 0.10

    def test_requires_two_values(self):
        with pytest.raises(ValueError):
            bootstrap_se([1.0], b=10, seed=0)

    @pytest.mark.parametrize("b", [-1, 0, 1])
    def test_requires_two_resamples(self, b):
        # one resample has no spread to measure: std(ddof=1) would be nan
        with pytest.raises(ValueError, match="at least 2 resamples"):
            bootstrap_se([0.1, 0.4, 0.9], b=b, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 7, 257])
    def test_chunk_budget_does_not_change_se(self, monkeypatch, n):
        values = np.random.default_rng(n).random(n)
        b = 100
        expected = bootstrap_se(values, b=b, seed=521)
        for rows in (1, 7, b, b + 3):
            monkeypatch.setattr(stats, "_BOOTSTRAP_BYTES", 16 * n * rows)
            assert bootstrap_se(values, b=b, seed=521) == expected

    def test_chunk_memory_bounded(self):
        import tracemalloc

        values = np.random.default_rng(0).random(200_000)
        tracemalloc.start()
        try:
            bootstrap_se(values, b=50, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stats._BOOTSTRAP_BYTES + (1 << 20)


# ---------------------------------------------------------------------------
# Cohen's kappa
# ---------------------------------------------------------------------------


class TestKappa:
    def test_identical_annotators(self):
        labels = [0, 1, 1, 0, 1]
        assert cohens_kappa([labels, list(labels)]).statistic == 1.0

    def test_perfect_disagreement_balanced(self):
        a = [0, 1, 0, 1]
        b = [1, 0, 1, 0]
        assert cohens_kappa([a, b]).statistic == -1.0

    def test_contingency_table_exact(self):
        # p_o = 0.7, p_e = (25*30 + 25*20)/2500 = 0.5, kappa = 0.4
        assert kappa_from_table([[20, 5], [10, 15]]) == 0.4

    def test_annotator_path_realizes_table(self):
        a = [1] * 25 + [0] * 25
        b = [1] * 20 + [0] * 5 + [1] * 10 + [0] * 15
        assert cohens_kappa([a, b]).statistic == 0.4

    def test_none_entries_restrict_overlap(self):
        a = [1, 0, None, 1, 0, 1, 0, 1]
        b = [1, 0, 1, None, 0, 1, 0, 1]
        assert cohens_kappa([a, b]).statistic == 1.0

    def test_undefined_when_both_constant_equal(self):
        res = cohens_kappa([[1, 1, 1], [1, 1, 1]])
        assert res.statistic is None
        assert res.n[2] == 1  # skipped pair counted

    def test_mean_over_annotator_pairs(self):
        a = [0, 1, 0, 1]
        b = [0, 1, 0, 1]
        c = [1, 0, 1, 0]
        # pairs: (a,b)=1, (a,c)=-1, (b,c)=-1 -> mean -1/3
        res = cohens_kappa([a, b, c])
        assert abs(res.statistic - (-1 / 3)) < 1e-12

    def test_matches_scipy_randomized(self):
        rnd = random.Random(13)
        for _ in range(50):
            n = rnd.randint(5, 60)
            a = [rnd.randint(0, 1) for _ in range(n)]
            b = [rnd.randint(0, 1) for _ in range(n)]
            counts = [[0, 0], [0, 0]]
            for x, y in zip(a, b):
                counts[1 - x][1 - y] += 1
            mine = kappa_from_table(counts)
            po = sum(1 for x, y in zip(a, b) if x == y) / n
            pe = (
                (a.count(1) * b.count(1)) + (a.count(0) * b.count(0))
            ) / n**2
            if pe == 1.0:
                assert mine is None
            else:
                assert abs(mine - (po - pe) / (1 - pe)) < 1e-12


# ---------------------------------------------------------------------------
# Column deltas / daily series / language mix
# ---------------------------------------------------------------------------


class TestMeanSes:
    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 4099])
    def test_matches_two_pass_oracle_bitwise(self, n):
        rnd = np.random.default_rng(n)
        matrix = np.column_stack(
            [rnd.random(n), rnd.choice([0.0, 0.25, 1.0], n), rnd.random(n) ** 8]
        )
        got = mean_ses(matrix)
        assert got == [oracle_mean_se(matrix[:, j]) for j in range(3)]
        assert all(se > 0.0 for se in got)

    def test_one_row_is_zero(self):
        assert mean_ses(np.array([[0.3, 0.0, 1.0]])) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [2, 3, 10, 333, 1000])
    def test_equal_values_give_exact_zero(self, n):
        values = (0.1, 0.7, 1 / 3)
        matrix = np.tile(values, (n, 1))
        # centring alone leaves ~1e-17 here: x - x.mean() is not all zeros
        assert mean_ses(matrix) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("seed,n", [(1, 5), (2, 40), (3, 300)])
    def test_monte_carlo_bootstrap_converges_to_it(self, seed, n):
        # bootstrap_se is the sd of b resample means, whose relative
        # Monte-Carlo error is about 1/sqrt(2b) = 0.5 % at b = 20,000;
        # 3 % is six of those
        values = np.random.default_rng(seed).random(n)
        exact = mean_ses(values[:, None])[0]
        mc = bootstrap_se(values, b=20_000, seed=seed)
        assert abs(mc - exact) / exact < 0.03


class TestColumnDeltas:
    def test_same_sample_zero_delta_high_p(self):
        base = np.array([[0.2], [0.4], [0.6], [0.8], [0.5], [0.3]])
        out = column_deltas(base, base.copy())
        assert out[0]["delta"] == 0.0
        assert out[0]["p"] > 0.9
        assert out[0]["se"] == math.hypot(oracle_mean_se(base[:, 0]), oracle_mean_se(base[:, 0]))

    def test_extreme_separation(self):
        cl = np.ones((30, 2))
        bl = np.zeros((40, 2))
        out = column_deltas(cl, bl)
        for col in out:
            assert col["delta"] == 1.0
            assert col["p"] < 1e-9
            assert col["se"] == 0.0

    def test_column_order_stable(self):
        rnd = np.random.default_rng(3)
        cl = rnd.random((20, 3))
        bl = rnd.random((25, 3))
        a = column_deltas(cl, bl)
        assert a == column_deltas(cl, bl)
        # each column's result depends on that column alone
        single = column_deltas(cl[:, 1:2], bl[:, 1:2])
        assert single == [a[1]]

    def test_baseline_se_given_once(self):
        rnd = np.random.default_rng(4)
        cl = rnd.random((9, 4))
        bl = rnd.random((50, 4))
        assert column_deltas(cl, bl, baseline_se=mean_ses(bl)) == column_deltas(cl, bl)


MAY_1_2017 = 17287  # days since 1970-01-01


class TestDailySeries:
    def test_fills_gaps_with_none(self):
        series = daily_means(np.array([MAY_1_2017, MAY_1_2017, MAY_1_2017 + 2]))(
            np.array([0.4, 0.6, 1.0])
        )
        assert series == [
            ("2017-05-01", 0.5),
            ("2017-05-02", None),
            ("2017-05-03", 1.0),
        ]

    def test_empty(self):
        assert daily_means(np.array([], dtype=np.int64))(np.array([])) == []

    def test_day_codes_floor_before_1970(self):
        records = [rec(1, "a", -1), rec(2, "a", 0), rec(3, "a", -86_400), rec(4, "a", -86_401)]
        assert day_codes(records).tolist() == [-1, 0, -1, -2]
        series = daily_means(day_codes(records))(np.array([1.0, 2.0, 3.0, 4.0]))
        assert series == [("1969-12-30", 4.0), ("1969-12-31", 2.0), ("1970-01-01", 2.0)]

    def test_planted_peak_day_is_argmax(self):
        # low everywhere, 0.9 planted on one date: the series must peak there
        import io

        from coordnet.sociolinguistics import (
            CHARACTERISTICS,
            characteristic_index,
            load_confidences,
        )
        rnd = random.Random(14)
        peak_day = "2017-05-07"
        day_seconds = {"2017-05-01": 1493596800, "2017-05-04": 1493856000, "2017-05-07": 1494115200}
        records = []
        lines = ["tweet_id," + ",".join(CHARACTERISTICS)]
        col = characteristic_index("vote_for")
        tid = 0
        for day, base_ts in day_seconds.items():
            for _ in range(20):
                tid += 1
                records.append(rec(tid, f"a{tid % 5}", base_ts + rnd.randint(0, 86_399)))
                values = ["0"] * len(CHARACTERISTICS)
                values[col] = "0.9" if day == peak_day else str(round(rnd.uniform(0.0, 0.4), 3))
                lines.append(f"{tid}," + ",".join(values))
        table = load_confidences(io.StringIO("\n".join(lines) + "\n"))
        series = daily_mean_confidence(table, records, "vote_for")
        defined = [(day, v) for day, v in series if v is not None]
        assert max(defined, key=lambda dv: dv[1])[0] == peak_day


    def test_daily_mean_confidence_matches_loop_oracle_bitwise(self):
        corpus, table = random_report_inputs(seed=31)
        for name in ("vote_for", "economy", "amusement"):
            records = records_of(corpus)
            expected = oracle_daily_mean_confidence(table, records, name)
            assert daily_mean_confidence(table, records, name) == expected
        assert daily_mean_confidence(table, [], "vote_for") == []


class TestLanguageMix:
    def test_all_french(self):
        corpus = corpus_of(*(rec(i, "a", language="fr") for i in range(3)))
        assert language_mix(corpus) == {"a": {"fr": 1.0}}

    def test_three_one_split(self):
        corpus = corpus_of(
            rec(1, "a", language="fr"),
            rec(2, "a", language="fr"),
            rec(3, "a", language="fr"),
            rec(4, "a", language="en"),
        )
        assert language_mix(corpus)["a"] == {"en": 0.25, "fr": 0.75}

    def test_fractions_sum_to_one(self):
        rnd = random.Random(9)
        records = [
            rec(i, f"acct{rnd.randint(0, 3)}", language=rnd.choice(["fr", "en", "und"]))
            for i in range(40)
        ]
        mix = language_mix(corpus_of(*records))
        for account, fractions in mix.items():
            assert abs(sum(fractions.values()) - 1.0) < 1e-12
