"""Report bundle: the plot-ready CSV/JSON files a run emits.

Every artifact is recomputable from the corpus cache, the edge files,
and the confidence table; the bundle manifest records a sha256 for each
file plus the digest of the run configuration. Output is byte-identical
for identical inputs and seed, at any thread count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from coordnet import graph as graphmod
from coordnet import sociolinguistics as sl
from coordnet import stats
from coordnet.corpus import SECONDS_PER_DAY, Corpus, day_of_timestamp, daily_volume
from coordnet.detectors import EdgeTable
from coordnet.formats import fmt
from coordnet.graph import CoordinationGraph
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


def write_activity_shares(corpus: Corpus, coordinated: set[str], path: Path) -> int:
    rows = (
        (day, shares["original"], shares["reply"], shares["retweet"])
        for day, shares in graphmod.activity_shares(corpus, coordinated)
    )
    return _write_csv(path, ("day", "original", "reply", "retweet"), rows)


def write_duplicate_shares(
    corpus: Corpus, path: Path, scope: str
) -> dict[str, tuple[float | None, int]]:
    shares = graphmod.duplicate_shares(corpus, None, scope)
    _write_csv(
        path,
        ("account_id", "share", "n_originals"),
        ((acct, share, n) for acct, (share, n) in shares.items()),
    )
    return shares


def write_clusters(clusters, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv_writer(fp)
        writer.writerow(("cluster_id", "size", "label", "member_ids"))
        for c in clusters:
            writer.writerow([c.id, c.size, c.label] + sorted(c.members))


def correlation_matrices(table: sl.CharacteristicTable):
    """Spearman rho and p for every characteristic pair over per-tweet
    confidences; None where undefined (constant column or < 3 rows).

    Columns are ranked once and correlated as a matrix product, which is
    the same rank-Pearson definition stats.spearman uses pairwise.
    """
    n = sl.N_CHARACTERISTICS
    rho = [[None] * n for _ in range(n)]
    pval = [[None] * n for _ in range(n)]
    for i in range(n):
        rho[i][i] = 1.0
        pval[i][i] = 0.0
    m = len(table)
    if m < 3:
        return rho, pval
    ranks = np.column_stack([stats.rankdata(table.matrix[:, j]) for j in range(n)])
    centered = ranks - ranks.mean(axis=0)
    sq = (centered**2).sum(axis=0)
    cov = centered.T @ centered
    for i in range(n):
        for j in range(i + 1, n):
            if sq[i] == 0.0 or sq[j] == 0.0:
                continue
            r = max(-1.0, min(1.0, cov[i, j] / math.sqrt(sq[i] * sq[j])))
            rho[i][j] = rho[j][i] = r
            pval[i][j] = pval[j][i] = stats.t_approx_p(r, m)
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
    confidence-table row (-1 where the tweet has none)."""

    def __init__(self, corpus: Corpus, table: sl.CharacteristicTable):
        self.code_of = corpus.code_of
        self.day = np.asarray(corpus.timestamps, dtype=np.int64) // SECONDS_PER_DAY
        self.account = np.asarray(corpus.account_codes, dtype=np.int64)
        self.row = table.row_indices(corpus.tweet_ids)

    def accounts_mask(self, accounts) -> np.ndarray:
        """True for the records of the given accounts."""
        member = np.zeros(len(self.code_of), dtype=bool)
        member[[self.code_of[a] for a in accounts if a in self.code_of]] = True
        return member[self.account]

    def missing_tweets(self) -> int:
        """Corpus tweets without a confidence row."""
        return int((self.row < 0).sum())


def _scope_masks(cols: RecordColumns, clusters, coordinated: set[str], top_clusters: int):
    """(name, record mask) for all coordinated accounts, then each of the
    top clusters."""
    scopes = [(ALL_COORDINATED_SCOPE, cols.accounts_mask(coordinated))]
    scopes += [(str(c.id), cols.accounts_mask(c.members)) for c in clusters[:top_clusters]]
    return scopes


def write_cluster_deltas(
    cols: RecordColumns, table: sl.CharacteristicTable, scopes, path: Path
) -> None:
    """Per scope of _scope_masks, each characteristic's mean confidence
    minus the baseline's (records outside the first scope)."""
    baseline = table.rows_at(cols.row[~scopes[0][1]])
    rows = []
    baseline_se = stats.mean_ses(baseline) if len(baseline) else None
    for scope_name, mask in scopes:
        cluster = table.rows_at(cols.row[mask])
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
    baseline records; labels is sl.binarize's matrix."""
    coord_rows, base_rows = cols.row[coord_mask], cols.row[~coord_mask]
    rows = []
    rates = {}
    for j, name in enumerate(sl.CHARACTERISTICS):
        c = float(_record_column(labels, coord_rows, j).mean()) if len(coord_rows) else None
        b = float(_record_column(labels, base_rows, j).mean()) if len(base_rows) else None
        delta = (c - b) if c is not None and b is not None else None
        rows.append((name, c, b, delta))
        rates[name] = {"coordinated": c, "baseline": b, "delta": delta}
    _write_csv(path, ("characteristic", "coordinated_rate", "baseline_rate", "delta"), rows)
    return rates


def _record_column(matrix: np.ndarray, rows: np.ndarray, j: int) -> np.ndarray:
    """Column j of matrix at each record's row; 0.0 where the row is -1."""
    out = np.zeros(len(rows), dtype=np.float64)
    found = rows >= 0
    out[found] = matrix[rows[found], j]
    return out


def write_daily_confidence(
    cols: RecordColumns, table: sl.CharacteristicTable, scopes, path: Path
) -> None:
    scopes = [scopes[0], (BASELINE_SCOPE, ~scopes[0][1]), *scopes[1:]]
    days = [cols.day[mask] for _, mask in scopes]
    series = {}
    for j, name in enumerate(sl.CHARACTERISTICS):
        values = _record_column(table.matrix, cols.row, j)
        for (scope_name, mask), scope_days in zip(scopes, days):
            series[scope_name, name] = stats.daily_mean_series(scope_days, values[mask])
    rows = [
        (day, scope_name, name, mean)
        for scope_name, _ in scopes
        for name in sl.CHARACTERISTICS
        for day, mean in series[scope_name, name]
    ]
    _write_csv(path, ("day", "scope", "characteristic", "mean_confidence"), rows)


def write_language_mix(
    corpus: Corpus, clusters, coordinated: set[str], path: Path
) -> None:
    cluster_of = {}
    for c in clusters:
        for member in c.members:
            cluster_of[member] = c.id
    mix = stats.language_mix(corpus, coordinated)
    rows = []
    for account in sorted(mix):
        for lang, frac in mix[account].items():
            rows.append((account, cluster_of.get(account, 0), lang, frac))
    _write_csv(path, ("account_id", "cluster_id", "language", "fraction"), rows)


def story_share(corpus: Corpus, coordinated: set[str], story_hashtags) -> dict:
    """Share of story-hashtag tweets authored by coordinated accounts."""
    tags = {t.lower().lstrip("#") for t in story_hashtags if t}
    if not tags:
        return {"hashtags": [], "coordinated": None, "total": None, "share": None}
    total = 0
    coord = 0
    names = corpus.account_ids
    for code, hashtags in zip(corpus.account_codes, corpus.hashtags):
        if not hashtags or tags.isdisjoint(hashtags):
            continue
        total += 1
        if names[code] in coordinated:
            coord += 1
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
    (labels is sl.binarize's matrix), per characteristic, with the
    median over defined values."""
    by_char = {}
    values = []
    for j, name in enumerate(sl.CHARACTERISTICS):
        conf = stats.daily_mean_series(cols.day, _record_column(table.matrix, cols.row, j))
        binr = stats.daily_mean_series(cols.day, _record_column(labels, cols.row, j))
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
    median = float(np.median(values)) if values else None
    return {"per_characteristic": by_char, "median": median}


def write_report_bundle(
    corpus: Corpus,
    edge_tables: Iterable[EdgeTable],
    table: sl.CharacteristicTable | None,
    outdir,
    *,
    story_hashtags=(),
    seed: int = 0,
    binarize_threshold: float = 0.5,
    duplicate_scope: str = "account",
    top_clusters: int = 5,
    run_manifest: RunManifest | None = None,
) -> dict:
    """Emit the full analysis bundle into outdir; returns the summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = run_manifest or RunManifest("report", seed=seed)
    written: list[Path] = []

    def emit(name: str) -> Path:
        path = outdir / name
        written.append(path)
        return path

    edge_tables = list(edge_tables)
    coord_graph = CoordinationGraph.from_edges(*edge_tables)
    clusters = graphmod.label_clusters(
        graphmod.connected_components(coord_graph), corpus
    )
    coordinated = set(coord_graph.nodes)

    manifest.counts["records"] = len(corpus)
    manifest.counts["accounts"] = len(corpus.account_ids)
    manifest.counts["edges"] = sum(len(t) for t in edge_tables)
    manifest.counts["coordinated_accounts"] = len(coordinated)
    manifest.counts["clusters"] = len(clusters)
    rng_range = corpus.time_range()
    if rng_range:
        manifest.set_time_range(
            day_of_timestamp(rng_range[0]), day_of_timestamp(rng_range[1])
        )

    write_daily_volume(corpus, emit("daily_volume.csv"))
    write_activity_shares(corpus, coordinated, emit("activity_shares.csv"))
    dup_shares = write_duplicate_shares(corpus, emit("duplicate_shares.csv"), duplicate_scope)
    write_clusters(clusters, emit("clusters.csv"))

    interactions = graphmod.retweet_interactions(corpus, coordinated)
    story = story_share(corpus, coordinated, story_hashtags)

    n_accounts = len(corpus.account_ids)
    user_share = (len(coordinated) / n_accounts) if n_accounts else None

    dup_coord = [s for a, (s, _) in dup_shares.items() if s is not None and a in coordinated]
    dup_base = [s for a, (s, _) in dup_shares.items() if s is not None and a not in coordinated]
    if dup_coord and dup_base:
        dup_test = stats.mann_whitney_u(dup_coord, dup_base, method="normal")
        duplicate_comparison = {
            "coordinated_mean": sum(dup_coord) / len(dup_coord),
            "baseline_mean": sum(dup_base) / len(dup_base),
            "p": dup_test.p_value,
            "n": [len(dup_coord), len(dup_base)],
        }
    else:
        duplicate_comparison = None

    summary = {
        "seed": seed,
        "manifest_digest": None,  # filled below
        "user_share": user_share,
        "coordinated_accounts": len(coordinated),
        "total_accounts": n_accounts,
        "story_share": story,
        "interactions": interactions.as_dict(),
        "duplicate_scope": duplicate_scope,
        "duplicate_comparison": duplicate_comparison,
        "quantile_base": "retweet similarity quantile computed over candidate pairs with nonzero similarity",
        "binarize_threshold": binarize_threshold,
        "clusters": [
            {"id": c.id, "size": c.size, "label": c.label} for c in clusters[:top_clusters]
        ],
        "sociolinguistics": None,
    }

    if table is not None and len(table):
        cols = RecordColumns(corpus, table)
        scopes = _scope_masks(cols, clusters, coordinated, top_clusters)
        rho, pval = correlation_matrices(table)
        write_matrix(rho, emit("correlations.csv"))
        write_matrix(pval, emit("correlation_pvalues.csv"))
        write_cluster_deltas(cols, table, scopes, emit("deltas.csv"))
        labels = sl.binarize(table, binarize_threshold)
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

    write_language_mix(corpus, clusters, coordinated, emit("language_mix.csv"))

    summary["manifest_digest"] = manifest.digest
    _write_json(emit("summary.json"), summary)

    for path in sorted(written, key=lambda p: p.name):
        manifest.add_artifact(path)
    manifest.write(outdir / "manifest.json")
    return summary
