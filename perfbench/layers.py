"""Per-layer metrics from the spans of traced pipeline repetitions.

A span's self time is its duration minus the durations of its direct
children; its self RSS rise is its rise in ru_maxrss minus its
children's. Summed over a layer, self times plus each stage's start-up
(process wall time outside the root span) add up to the traced wall time.
"""

from __future__ import annotations

import statistics

LAYERS = ("startup", "cli", "corpus", "detectors", "kernels", "formats", "graph",
          "sociolinguistics", "stats", "report", "manifest")
TAGS = ("rt", "time")

# report.<artifact>_s: the spans that produce each bundle artifact
ARTIFACTS = {
    "daily_volume": ("report.write_daily_volume",),
    "activity_shares": ("report.write_activity_shares",),
    "duplicate_shares": ("report.write_duplicate_shares",),
    "clusters": ("report.write_clusters",),
    "correlations": ("report.correlation_matrices", "report.write_matrix"),
    "deltas": ("report.write_cluster_deltas",),
    "binarized_rates": ("report.write_binarized_rates",),
    "daily_confidence": ("report.write_daily_confidence",),
    "confidence_vs_binarized": ("report.confidence_vs_binarized",),
    "language_mix": ("report.write_language_mix",),
}


def unit_of(name: str) -> str:
    base = name.removesuffix(".rt").removesuffix(".time")
    if base.endswith("_per_s"):
        return "1/s"
    if base.endswith("_s"):
        return "s"
    if base.endswith("_mib"):
        return "MiB"
    if base.endswith("kept_ratio"):
        return "ratio"
    return "count"


def _flatten(stages: list[dict]) -> list[dict]:
    """All spans of one repetition with dur, self and rss_self filled in."""
    out = []
    for stage in stages:
        spans = stage["spans"]
        for s in spans:
            s["dur"] = s["end"] - s["start"]
            s["self"] = s["dur"]
            s["rss_self"] = s["rss_rise_kib"]
        for s in spans:
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                parent["self"] -= s["dur"]
                parent["rss_self"] -= s["rss_rise_kib"]
        root = sum(s["dur"] for s in spans if s["parent"] is None)
        out.append({"name": "startup.process", "layer": "startup", "tag": None,
                    "dur": stage["wall_s"] - root, "self": stage["wall_s"] - root,
                    "rss_self": 0, "counts": {}})
        out.extend(spans)
    return out


def rep_metrics(stages: list[dict]) -> dict[str, float]:
    spans = _flatten(stages)

    def dur(*names, tag=None):
        return sum(s["dur"] for s in spans
                   if s["name"] in names and (tag is None or s["tag"] == tag))

    def count(name, key, tag=None):
        return sum(s["counts"].get(key, 0) for s in spans
                   if s["name"] == name and (tag is None or s["tag"] == tag))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    parse_s = dur("corpus.parse_corpus")
    m["corpus.parse_s"] = parse_s
    m["corpus.loads"] = sum(1 for s in spans if s["name"] == "corpus.parse_corpus")
    m["corpus.records_per_s"] = ratio(count("corpus.parse_corpus", "records"), parse_s)

    for tag in TAGS:
        m[f"detectors.vectors_s.{tag}"] = dur("detectors.build_account_vectors", tag=tag)
        m[f"detectors.docs.{tag}"] = count("detectors.build_account_vectors", "docs", tag)
        m[f"detectors.nnz.{tag}"] = count("detectors.build_account_vectors", "nnz", tag)
        m[f"detectors.pairs_self_s.{tag}"] = sum(
            s["self"] for s in spans
            if s["name"] == "detectors.candidate_pair_similarities" and s["tag"] == tag
        )
        candidates = count("detectors.candidate_pair_similarities", "candidates", tag)
        detector = "retweet" if tag == "rt" else "time"
        edges = count(f"detectors.detect_{detector}_coordination", "edges", tag)
        m[f"detectors.candidates.{tag}"] = candidates
        m[f"detectors.edges.{tag}"] = edges
        m[f"detectors.kept_ratio.{tag}"] = ratio(edges, candidates)
    m["detectors.hashtag_s"] = dur("detectors.detect_hashtag_coordination")
    m["detectors.hashtag_edges"] = count("detectors.detect_hashtag_coordination", "edges")

    for tag in TAGS:
        accumulate_s = dur("kernels.accumulate_pair_products", tag=tag)
        products = count("kernels.accumulate_pair_products", "pair_products", tag)
        m[f"kernels.accumulate_s.{tag}"] = accumulate_s
        m[f"kernels.pair_products.{tag}"] = products
        m[f"kernels.pairs_per_s.{tag}"] = ratio(products, accumulate_s)

    m["formats.write_edges_s"] = dur("formats.write_edges_csv")
    m["formats.read_edges_s"] = dur("formats.read_edges_csv")
    m["formats.edge_rows"] = count("formats.write_edges_csv", "rows") + count(
        "formats.read_edges_csv", "rows"
    )

    m["graph.from_edges_s"] = dur("graph.from_edges")
    m["graph.components_s"] = dur("graph.connected_components")
    m["graph.label_s"] = dur("graph.label_clusters")
    m["graph.duplicate_shares_s"] = dur("graph.duplicate_shares")
    m["graph.activity_shares_s"] = dur("graph.activity_shares")
    m["graph.retweet_interactions_s"] = dur("graph.retweet_interactions")

    m["sociolinguistics.score_s"] = dur("sociolinguistics.score_corpus")
    m["sociolinguistics.load_s"] = dur("sociolinguistics.load_confidences")
    m["sociolinguistics.tweets_scored"] = count("sociolinguistics.score_corpus", "tweets")

    m["stats.column_deltas_s"] = dur("stats.column_deltas")
    m["stats.bootstrap_draws"] = count("stats.column_deltas", "bootstrap_draws")
    m["stats.daily_mean_confidence_s"] = dur("stats.daily_mean_confidence")

    for artifact, names in ARTIFACTS.items():
        m[f"report.{artifact}_s"] = dur(*names)
    m["report.bundle_s"] = dur("report.write_report_bundle")

    m["manifest.write_s"] = sum(s["dur"] for s in spans if s["layer"] == "manifest")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self"] for s in spans if s["layer"] == layer)
        if layer != "startup":
            m[f"{layer}.rss_rise_mib"] = sum(
                s["rss_self"] for s in spans if s["layer"] == layer
            ) / 1024.0
    m["trace.wall_s"] = sum(stage["wall_s"] for stage in stages)
    return m


def per_layer(traced: list[list[dict]], untraced_pipeline_s: list[float],
              backend_checks: list[list[dict]]) -> tuple[dict, list[str]]:
    """Medians over traced repetitions, plus the tracing overhead."""
    per_rep = [rep_metrics(stages) for stages in traced]
    values = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
    untraced = statistics.median(untraced_pipeline_s)
    values["trace.untraced_pipeline_s"] = untraced
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced
    checks = [c for rep in backend_checks for c in rep]
    backends = checks[0]["backends"] if checks else []
    values["kernels.backends_importable"] = len(backends)

    wall = values["trace.wall_s"]
    lines = [f"traced: {len(traced)} repetitions, medians; wall {wall:.3f} s, untraced "
             f"pipeline_s {untraced:.3f} s, overhead {values['trace.overhead_s']:+.3f} s "
             f"(each stage is its own process in both)"]
    if len(backends) > 1:
        identical = all(c["identical"] for c in checks if c["identical"] is not None)
        postings = sum(c["postings"] for c in checks)
        lines.append(f"kernel backends {', '.join(backends)}: {postings} postings replayed, "
                     f"bit-identical={identical}")
    else:
        lines.append(f"kernel backends importable: {', '.join(backends) or 'none'}; "
                     "cross-backend check not run (needs two)")
    lines.append(f"{'layer':>18} {'self_s':>10} {'share':>7} {'rss_rise_mib':>13}")
    for layer in LAYERS:
        self_s = values[f"{layer}.self_s"]
        rss = values.get(f"{layer}.rss_rise_mib")
        rss_text = f"{rss:13.1f}" if rss is not None else f"{'-':>13}"
        lines.append(f"{layer:>18} {self_s:10.3f} {self_s / wall:7.1%} {rss_text}")
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    return metrics, lines
