"""Report socio-linguistic sections against per-record loop oracles.

The oracles rebuild each artifact the way the report did before it
worked on per-record arrays: one tweet list per scope, one table row
lookup per tweet, one day string per tweet, and both SE sides computed for
every scope by a two-pass oracle. The files must match byte for byte.
"""

import math
import random

import numpy as np
import pytest

from coordnet import report, stats
from coordnet import sociolinguistics as sl
from coordnet.graph import Cluster, cluster_ids

from helpers import (
    has_row,
    member_of,
    oracle_correlation_matrices,
    oracle_daily_mean_confidence,
    oracle_mean_se,
    random_report_inputs,
    rank_test_matrix,
    records_of,
    table_matrix,
    table_of,
    table_row,
)

TOP = 3


def oracle_tweet_ids(corpus, accounts, member):
    return [r.tweet_id for r in records_of(corpus) if (r.account_id in accounts) is member]


def oracle_rows(table, ids):
    return np.vstack([table_row(table, t) for t in ids])


def oracle_deltas(corpus, table, clusters, coordinated):
    baseline = oracle_rows(table, oracle_tweet_ids(corpus, coordinated, member=False))
    scopes = [(report.ALL_COORDINATED_SCOPE, coordinated)]
    scopes += [(str(c.id), c.members) for c in clusters[:TOP]]
    rows = []
    for name, members in scopes:
        ids = oracle_tweet_ids(corpus, set(members), member=True)
        if not ids:
            continue
        cluster = oracle_rows(table, ids)
        for j, col in enumerate(sl.CHARACTERISTICS):
            cl, bl = cluster[:, j], baseline[:, j]
            se = math.hypot(oracle_mean_se(cl), oracle_mean_se(bl))
            p = stats.mann_whitney_u(cl, bl, method="normal").p_value
            rows.append((name, col, float(cl.mean() - bl.mean()), se, p))
    return ("cluster", "characteristic", "delta", "se", "p"), rows


def label_table(table):
    """The 0/1 labels of sl.binarize at 0.5, gathered through the row
    codes, as a table with table's ids."""
    labels = sl.binarize(table, 0.5)[np.frombuffer(table.codes, dtype=np.intc)]
    return table_of(table.tweet_ids, labels, table.provenance)


def oracle_binarized(corpus, table, coordinated):
    labels = label_table(table)
    coord = oracle_rows(labels, oracle_tweet_ids(corpus, coordinated, member=True))
    base = oracle_rows(labels, oracle_tweet_ids(corpus, coordinated, member=False))
    rows = []
    for j, name in enumerate(sl.CHARACTERISTICS):
        c = float(coord[:, j].mean())
        b = float(base[:, j].mean())
        rows.append((name, c, b, c - b))
    return ("characteristic", "coordinated_rate", "baseline_rate", "delta"), rows


def oracle_daily(corpus, table, clusters, coordinated):
    records = records_of(corpus)
    scopes = [
        (report.ALL_COORDINATED_SCOPE, [r for r in records if r.account_id in coordinated]),
        (report.BASELINE_SCOPE, [r for r in records if r.account_id not in coordinated]),
    ]
    for c in clusters[:TOP]:
        scopes.append((str(c.id), [r for r in records if r.account_id in c.members]))
    rows = []
    for scope, tweets in scopes:
        for name in sl.CHARACTERISTICS:
            for day, mean in oracle_daily_mean_confidence(table, tweets, name):
                rows.append((day, scope, name, mean))
    return ("day", "scope", "characteristic", "mean_confidence"), rows


def oracle_confidence_vs_binarized(corpus, table):
    labels = label_table(table)
    records = records_of(corpus)
    by_char = {}
    for name in sl.CHARACTERISTICS:
        conf = oracle_daily_mean_confidence(table, records, name)
        binr = oracle_daily_mean_confidence(labels, records, name)
        pairs = [(c, b) for (_, c), (_, b) in zip(conf, binr) if c is not None and b is not None]
        by_char[name] = (
            stats.spearman([c for c, _ in pairs], [b for _, b in pairs]).statistic
            if len(pairs) >= 3
            else None
        )
    defined = [v for v in by_char.values() if v is not None]
    return {"per_characteristic": by_char, "median": float(np.median(defined)) if defined else None}


@pytest.fixture(scope="module")
def inputs():
    corpus, table = random_report_inputs(seed=41)
    clusters = [
        Cluster(1, {"a1", "a2", "a3", "a4"}),
        Cluster(2, {"a5", "a6"}),
        Cluster(3, {"solo"}),  # one tweet: its SE is 0.0
        Cluster(4, {"a7", "a8"}),  # beyond TOP: counts only as coordinated
    ]
    coordinated = set().union(*(c.members for c in clusters))
    return corpus, table, clusters, coordinated


def scopes_of(cols, clusters, corpus):
    return report._scope_masks(cluster_ids(clusters, corpus)[cols.account], clusters, TOP)


def _same_file(tmp_path, produced, header, rows):
    expected = tmp_path / "expected.csv"
    report._write_csv(expected, header, rows)
    assert produced.read_bytes() == expected.read_bytes()


def test_inputs_have_the_hard_shapes(inputs):
    corpus, table, _, _ = inputs
    records = records_of(corpus)
    ids = [r.tweet_id for r in records]
    assert len(set(ids)) == len(ids)  # ingest keeps one record per tweet_id
    assert any(not has_row(table, t) for t in ids)
    assert min(r.timestamp for r in records) < 0
    assert len({c for c in table_matrix(table)[:, 0]}) < len(table)


def test_cluster_deltas_match_oracle(tmp_path, inputs):
    corpus, table, clusters, coordinated = inputs
    path = tmp_path / "deltas.csv"
    cols = report.RecordColumns(corpus, table)
    report.write_cluster_deltas(cols, table, scopes_of(cols, clusters, corpus), path)
    _same_file(tmp_path, path, *oracle_deltas(corpus, table, clusters, coordinated))
    solo = [line.split(",") for line in path.read_text().splitlines() if line.startswith("3,")]
    assert len(solo) == sl.N_CHARACTERISTICS
    # the one-tweet side is exactly 0.0, so each SE is the baseline's alone
    baseline = table.rows_at(cols.code[~member_of(corpus, coordinated)[cols.account]])
    assert [float(se) for *_, se, _ in solo] == stats.mean_ses(baseline)


def test_cluster_deltas_draw_no_resamples(tmp_path, inputs, monkeypatch):
    corpus, table, clusters, _ = inputs

    def refuse(*args, **kwargs):
        raise AssertionError("the report drew bootstrap resamples")

    monkeypatch.setattr(stats, "bootstrap_se", refuse)
    monkeypatch.setattr(stats, "make_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    cols = report.RecordColumns(corpus, table)
    path = tmp_path / "deltas.csv"
    report.write_cluster_deltas(cols, table, scopes_of(cols, clusters, corpus), path)
    assert len(path.read_text().splitlines()) == 1 + sl.N_CHARACTERISTICS * (1 + TOP)


def test_binarized_rates_match_oracle(tmp_path, inputs):
    corpus, table, _, coordinated = inputs
    path = tmp_path / "binarized_rates.csv"
    cols = report.RecordColumns(corpus, table)
    labels = sl.binarize(table, 0.5)
    coord_mask = member_of(corpus, coordinated)[cols.account]
    report.write_binarized_rates(cols, labels, coord_mask, path)
    _same_file(tmp_path, path, *oracle_binarized(corpus, table, coordinated))


def test_daily_confidence_matches_oracle(tmp_path, inputs):
    corpus, table, clusters, coordinated = inputs
    path = tmp_path / "daily_confidence.csv"
    cols = report.RecordColumns(corpus, table)
    report.write_daily_confidence(cols, table, scopes_of(cols, clusters, corpus), path)
    header, rows = oracle_daily(corpus, table, clusters, coordinated)
    assert any(mean is None for *_, mean in rows)  # the empty days stay empty
    _same_file(tmp_path, path, header, rows)


def test_confidence_vs_binarized_matches_oracle(inputs):
    corpus, table, _, _ = inputs
    cols = report.RecordColumns(corpus, table)
    got = report.confidence_vs_binarized(cols, table, sl.binarize(table, 0.5))
    assert got == oracle_confidence_vs_binarized(corpus, table)


def test_missing_tweets_counts_distinct_ids(inputs):
    corpus, table, _, _ = inputs
    expected = sum(not has_row(table, r.tweet_id) for r in records_of(corpus))
    assert report.RecordColumns(corpus, table).missing_tweets() == expected


def test_correlation_matrices_share_spearman_bits():
    # ranks are half-integers, so the matrix product and spearman's
    # pairwise loop give the same rho, and one p helper the same p
    rnd = random.Random(3)
    matrix = np.array(
        [[rnd.choice((0.0, 0.2, 0.4, 0.6)) for _ in range(sl.N_CHARACTERISTICS)] for _ in range(30)]
    )
    table = table_of([f"t{i}" for i in range(30)], matrix)
    rho, pval = report.correlation_matrices(table)
    for i, j in ((0, 1), (2, 9), (5, 23)):
        res = stats.spearman(matrix[:, i].tolist(), matrix[:, j].tolist())
        assert rho[i][j] == res.statistic
        assert pval[i][j] == res.p_value
        assert not math.isnan(pval[i][j])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 250, 10_000])
def test_correlation_matrices_match_matrix_oracle_bitwise(n):
    matrix = rank_test_matrix(n, n, sl.N_CHARACTERISTICS)
    table = table_of([f"t{i}" for i in range(n)], matrix)
    assert repr(report.correlation_matrices(table)) == repr(oracle_correlation_matrices(matrix))
