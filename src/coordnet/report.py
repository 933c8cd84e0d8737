"""Report bundle: the plot-ready CSV/JSON files a run emits.

Every artifact is recomputable from the corpus cache, the edge files,
and the confidence table; the bundle manifest records a sha256 for each
file plus the digest of the run configuration. Output is byte-identical
for identical inputs and seed, at any thread count.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from coordnet import graph as graphmod
from coordnet import sociolinguistics as sl
from coordnet import stats
from coordnet.config import ReportConfig
from coordnet.corpus import SECONDS_PER_DAY, Corpus, day_of_timestamp, daily_volume
from coordnet.formats import fmt, write_clusters
from coordnet.manifest import RunManifest
from coordnet.sources import csv_writer

BASELINE_SCOPE = "non_coordinated"
ALL_COORDINATED_SCOPE = "all_coordinated"


def _write_csv(path: Path, header, rows) -> int:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv_writer(fp)
        writer.writerow(header)
        count = 0
        for row in rows:
            writer.writerow([fmt(v) for v in row])
            count += 1
    return count


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True, indent=2)
        fp.write("\n")


def write_daily_volume(corpus: Corpus, path: Path) -> int:
    rows = (
        (day, counts["original"], counts["reply"], counts["retweet"])
        for day, counts in daily_volume(corpus)
    )
    return _write_csv(path, ("day", "original", "reply", "retweet"), rows)


def write_activity_shares(corpus: Corpus, member: np.ndarray, path: Path) -> int:
    rows = (
        (day, shares["original"], shares["reply"], shares["retweet"])
        for day, shares in graphmod.activity_shares(corpus, member)
    )
    return _write_csv(path, ("day", "original", "reply", "retweet"), rows)


def write_duplicate_shares(
    corpus: Corpus, path: Path, scope: str
) -> dict[str, tuple[float | None, int]]:
    shares = graphmod.duplicate_shares(corpus, scope)
    _write_csv(
        path,
        ("account_id", "share", "n_originals"),
        ((acct, share, n) for acct, (share, n) in shares.items()),
    )
    return shares


def correlation_matrices(table: sl.CharacteristicTable):
    """Spearman rho (stats.spearman_matrix) and p for every
    characteristic pair over per-tweet confidences; None where undefined
    (constant column or < 3 rows)."""
    rho = stats.spearman_matrix(table.rows_at(np.frombuffer(table.codes, dtype=np.intc)))
    pval = [[None if r is None else 0.0 for r in row] for row in rho]
    for i, row in enumerate(rho):
        for j in range(i + 1, len(row)):
            if row[j] is not None:
                pval[i][j] = pval[j][i] = stats.t_approx_p(row[j], len(table))
    return rho, pval


def write_matrix(matrix, path: Path) -> None:
    header = ("characteristic",) + sl.CHARACTERISTICS
    rows = (
        (sl.CHARACTERISTICS[i],) + tuple(matrix[i]) for i in range(sl.N_CHARACTERISTICS)
    )
    _write_csv(path, header, rows)


class RecordColumns:
    """Per-record arrays the socio-linguistic sections share, built once
    per report: the UTC day code, the author's account code and the
    confidence row code (-1 where the tweet has none, which reads the
    zero line of table.row_matrix and of sl.binarize's labels)."""

    def __init__(self, corpus: Corpus, table: sl.CharacteristicTable):
        self.day = np.asarray(corpus.timestamps, dtype=np.int64) // SECONDS_PER_DAY
        self.account = np.asarray(corpus.account_codes, dtype=np.int64)
        self.code = table.codes_of(corpus.tweet_ids)

    def missing_tweets(self) -> int:
        """Corpus tweets without a confidence row."""
        return int((self.code < 0).sum())


def _scope_masks(record_cluster: np.ndarray, clusters, top_clusters: int):
    """(name, record mask) for all coordinated accounts, then each of the
    top clusters, from the cluster id of each record's author."""
    scopes = [(ALL_COORDINATED_SCOPE, record_cluster > 0)]
    scopes += [(str(c.id), record_cluster == c.id) for c in clusters[:top_clusters]]
    return scopes


def write_cluster_deltas(
    cols: RecordColumns, table: sl.CharacteristicTable, scopes, path: Path
) -> None:
    """Per scope of _scope_masks, each characteristic's mean confidence
    minus the baseline's (records outside the first scope)."""
    baseline = table.rows_at(cols.code[~scopes[0][1]])
    rows = []
    baseline_se = stats.mean_ses(baseline) if len(baseline) else None
    for scope_name, mask in scopes:
        cluster = table.rows_at(cols.code[mask])
        if not len(cluster) or not len(baseline):
            continue
        deltas = stats.column_deltas(cluster, baseline, baseline_se=baseline_se)
        for name, d in zip(sl.CHARACTERISTICS, deltas):
            rows.append((scope_name, name, d["delta"], d["se"], d["p"]))
    _write_csv(path, ("cluster", "characteristic", "delta", "se", "p"), rows)


def write_binarized_rates(
    cols: RecordColumns, labels: np.ndarray, coord_mask: np.ndarray, path: Path
) -> dict:
    """Per characteristic, the share of label 1 among coordinated and
    baseline records; labels is sl.binarize's, one line per row code."""
    coord_codes, base_codes = cols.code[coord_mask], cols.code[~coord_mask]
    rows = []
    rates = {}
    for j, name in enumerate(sl.CHARACTERISTICS):
        c = float(labels[coord_codes, j].mean()) if len(coord_codes) else None
        b = float(labels[base_codes, j].mean()) if len(base_codes) else None
        delta = (c - b) if c is not None and b is not None else None
        rows.append((name, c, b, delta))
        rates[name] = {"coordinated": c, "baseline": b, "delta": delta}
    _write_csv(path, ("characteristic", "coordinated_rate", "baseline_rate", "delta"), rows)
    return rates


def write_daily_confidence(
    cols: RecordColumns, table: sl.CharacteristicTable, scopes, path: Path
) -> None:
    scopes = [scopes[0], (BASELINE_SCOPE, ~scopes[0][1]), *scopes[1:]]
    # each scope's days are named once, for every characteristic
    means = [stats.daily_means(cols.day[mask]) for _, mask in scopes]
    series = {}
    for j, name in enumerate(sl.CHARACTERISTICS):
        values = table.row_matrix[cols.code, j]
        for (scope_name, mask), scope_means in zip(scopes, means):
            series[scope_name, name] = scope_means(values[mask])
    rows = [
        (day, scope_name, name, mean)
        for scope_name, _ in scopes
        for name in sl.CHARACTERISTICS
        for day, mean in series[scope_name, name]
    ]
    _write_csv(path, ("day", "scope", "characteristic", "mean_confidence"), rows)


def write_language_mix(corpus: Corpus, cluster_of: np.ndarray, path: Path) -> None:
    names, ids = corpus.account_ids, cluster_of.tolist()
    mix = stats.language_mix(corpus, [names[c] for c in np.flatnonzero(cluster_of).tolist()])
    rows = []
    for account in sorted(mix):
        for lang, frac in mix[account].items():
            rows.append((account, ids[corpus.code_of[account]], lang, frac))
    _write_csv(path, ("account_id", "cluster_id", "language", "fraction"), rows)


def story_share(corpus: Corpus, member: np.ndarray, story_hashtags) -> dict:
    """Share of story-hashtag tweets by coordinated accounts (member, a
    bool per account code); story_hashtags as ReportConfig keeps them."""
    tags = set(story_hashtags)
    if not tags:
        return {"hashtags": [], "coordinated": None, "total": None, "share": None}
    # each distinct hashtag list decided once, then gathered by code
    story = np.array([not tags.isdisjoint(h) for h in corpus.hashtags], dtype=bool)
    story = story[corpus.hashtag_codes]
    total = int(story.sum())
    coord = int((story & member[corpus.account_codes]).sum())
    return {
        "hashtags": sorted(tags),
        "coordinated": coord,
        "total": total,
        "share": (coord / total) if total else None,
    }


def confidence_vs_binarized(
    cols: RecordColumns, table: sl.CharacteristicTable, labels: np.ndarray
) -> dict:
    """Spearman of daily mean confidence vs daily mean binarized label
    (labels is sl.binarize's, one line per row code), per
    characteristic, with the median over defined values."""
    by_char = {}
    values = []
    daily = stats.daily_means(cols.day)
    for j, name in enumerate(sl.CHARACTERISTICS):
        conf = daily(table.row_matrix[cols.code, j])
        binr = daily(labels[cols.code, j])
        xs = []
        ys = []
        for (day, c), (_, b) in zip(conf, binr):
            if c is not None and b is not None:
                xs.append(c)
                ys.append(b)
        if len(xs) >= 3:
            rho = stats.spearman(xs, ys).statistic
        else:
            rho = None
        by_char[name] = rho
        if rho is not None:
            values.append(rho)
    # the bits of np.median, whose first call imports numpy.ma (~11 ms)
    values.sort()
    half = len(values) // 2
    median = (values[half] + values[~half]) / 2 if values else None
    return {"per_characteristic": by_char, "median": median}


def write_report_bundle(
    corpus: Corpus,
    coordination: tuple[list[graphmod.Cluster], np.ndarray],
    table: sl.CharacteristicTable | None,
    outdir,
    config: ReportConfig = ReportConfig(),
    *,
    seed: int = 0,
    run_manifest: RunManifest | None = None,
) -> dict:
    """Emit the full analysis bundle of graph.coordination's result into
    outdir under config's settings; returns the summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = run_manifest or RunManifest("report", seed=seed)
    written: list[Path] = []

    def emit(name: str) -> Path:
        path = outdir / name
        written.append(path)
        return path

    clusters, cluster_of = coordination
    member = cluster_of > 0
    n_coordinated = int(member.sum())

    manifest.counts["records"] = len(corpus)
    manifest.counts["accounts"] = len(corpus.account_ids)
    manifest.counts["coordinated_accounts"] = n_coordinated
    manifest.counts["clusters"] = len(clusters)
    rng_range = corpus.time_range()
    if rng_range:
        manifest.set_time_range(
            day_of_timestamp(rng_range[0]), day_of_timestamp(rng_range[1])
        )

    write_daily_volume(corpus, emit("daily_volume.csv"))
    write_activity_shares(corpus, member, emit("activity_shares.csv"))
    dup_shares = write_duplicate_shares(
        corpus, emit("duplicate_shares.csv"), config.duplicate_scope
    )
    write_clusters(clusters, emit("clusters.csv"))

    interactions = graphmod.retweet_interactions(corpus, member)
    story = story_share(corpus, member, config.story_hashtags)

    n_accounts = len(corpus.account_ids)
    user_share = (n_coordinated / n_accounts) if n_accounts else None

    code_of, is_in = corpus.code_of, member.tolist()
    dup_coord = [s for a, (s, _) in dup_shares.items() if s is not None and is_in[code_of[a]]]
    dup_base = [s for a, (s, _) in dup_shares.items() if s is not None and not is_in[code_of[a]]]
    if dup_coord and dup_base:
        dup_test = stats.mann_whitney_u(dup_coord, dup_base, method="normal")
        duplicate_comparison = {
            "coordinated_mean": stats.left_sum(dup_coord) / len(dup_coord),
            "baseline_mean": stats.left_sum(dup_base) / len(dup_base),
            "p": dup_test.p_value,
            "n": [len(dup_coord), len(dup_base)],
        }
    else:
        duplicate_comparison = None

    summary = {
        "seed": seed,
        "manifest_digest": None,  # filled below
        "user_share": user_share,
        "coordinated_accounts": n_coordinated,
        "total_accounts": n_accounts,
        "story_share": story,
        "interactions": asdict(interactions),
        "duplicate_scope": config.duplicate_scope,
        "duplicate_comparison": duplicate_comparison,
        "quantile_base": "retweet similarity quantile computed over candidate pairs with nonzero similarity",
        "binarize_threshold": config.binarize_threshold,
        "clusters": [
            {"id": c.id, "size": c.size, "label": c.label}
            for c in clusters[: config.top_clusters]
        ],
        "sociolinguistics": None,
    }

    if table is not None and len(table):
        cols = RecordColumns(corpus, table)
        scopes = _scope_masks(cluster_of[cols.account], clusters, config.top_clusters)
        rho, pval = correlation_matrices(table)
        write_matrix(rho, emit("correlations.csv"))
        write_matrix(pval, emit("correlation_pvalues.csv"))
        write_cluster_deltas(cols, table, scopes, emit("deltas.csv"))
        labels = sl.binarize(table, config.binarize_threshold)
        rates = write_binarized_rates(cols, labels, scopes[0][1], emit("binarized_rates.csv"))
        write_daily_confidence(cols, table, scopes, emit("daily_confidence.csv"))
        summary["sociolinguistics"] = {
            "provenance": table.provenance,
            "rows": len(table),
            "missing_tweets": cols.missing_tweets(),
            "binarized_rates": rates,
            "confidence_vs_binarized": confidence_vs_binarized(cols, table, labels),
        }
    else:
        summary["notice"] = "socio-linguistic sections omitted: no confidence table provided"

    write_language_mix(corpus, cluster_of, emit("language_mix.csv"))

    summary["manifest_digest"] = manifest.digest
    _write_json(emit("summary.json"), summary)

    for path in sorted(written, key=lambda p: p.name):
        manifest.add_artifact(path)
    manifest.write(outdir / "manifest.json")
    return summary
