"""Command-line interface: ingest -> detect -> cluster -> score -> report.

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 internal
error. With --json-errors failures are additionally machine-readable on
stderr.

Each stage imports the modules it computes with inside its cmd_*
function, so `ingest` and `--version` never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from coordnet import __version__
from coordnet.config import DETECTORS, DetectorConfig
from coordnet.corpus import day_of_timestamp, load_cache, parse_corpus
from coordnet.manifest import RunManifest
from coordnet.sources import csv_reader

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

# DetectorConfig field -> the type of its default, for the config file
# and the flags alike
_DETECTOR_TYPES = {f.name: type(f.default) for f in fields(DetectorConfig)}


def load_config_file(path) -> dict:
    """Parse a `key = value` config file (# starts a comment)."""
    out = {}
    with open(path, "r", encoding="utf-8") as fp:
        for line_no, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key in _DETECTOR_TYPES:
                    out[key] = _DETECTOR_TYPES[key](value)
                elif key == "binarize_threshold":
                    out[key] = float(value)
                elif key == "story_hashtags":
                    out[key] = [t.strip() for t in value.split(",") if t.strip()]
                elif key == "duplicate_scope":
                    out[key] = value
                else:
                    raise ValueError(f"unknown config key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return out


def detector_config(config: dict, args) -> DetectorConfig:
    overrides = {k: v for k, v in config.items() if k in _DETECTOR_TYPES}
    for name in _DETECTOR_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return DetectorConfig(**overrides)


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _config_snapshot(cfg: DetectorConfig, extra: dict | None = None) -> dict:
    snap = {f.name: getattr(cfg, f.name) for f in fields(DetectorConfig)}
    if extra:
        snap.update(extra)
    return snap


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, config) -> int:
    out = Path(args.out)
    corpus = parse_corpus(args.input, strict=args.strict)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fp:
        corpus.write_cache(fp)
    manifest = RunManifest("ingest", seed=args.seed)
    manifest.add_input("corpus", args.input)
    manifest.counts["records"] = len(corpus)
    manifest.counts["skipped"] = corpus.skipped
    for reason, n in corpus.skip_reasons.items():
        manifest.counts[f"skipped_{reason}"] = n
    manifest.counts["accounts"] = len(corpus.account_ids)
    manifest.counts["days"] = len(set(corpus.day_codes()))
    rng = corpus.time_range()
    if rng:
        manifest.set_time_range(day_of_timestamp(rng[0]), day_of_timestamp(rng[1]))
    manifest.add_artifact(out)
    manifest.write(out.with_suffix(out.suffix + ".manifest.json"))
    print(
        f"ingested {len(corpus)} records ({corpus.skipped} skipped) -> {out}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_detect(args, config) -> int:
    from coordnet import detectors as det
    from coordnet import formats

    cfg = detector_config(config, args)
    corpus = load_cache(args.cache)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    enabled = (
        [d.strip() for d in args.detectors.split(",") if d.strip()]
        if args.detectors
        else list(DETECTORS)
    )
    diagnostics: dict[str, int] = {}
    results = det.detect_all(corpus, cfg, enabled, diagnostics)

    flagged_sets = {}
    for name in DETECTORS:
        edges, flagged = results[name]
        flagged_sets[name] = flagged
        with open(outdir / f"edges_{name}.csv", "w", encoding="utf-8", newline="") as fp:
            formats.write_edges_csv(edges, fp)
        with open(outdir / f"flagged_{name}.txt", "w", encoding="utf-8", newline="") as fp:
            formats.write_account_list(flagged, fp)

    union = set().union(*flagged_sets.values())
    with open(outdir / "flagged_union.txt", "w", encoding="utf-8", newline="") as fp:
        formats.write_account_list(union, fp)

    overlap = {
        "enabled": sorted(enabled),
        "flagged_counts": {name: len(flagged_sets[name]) for name in DETECTORS},
        "union": len(union),
        "overlaps": {
            f"{x}&{y}": len(flagged_sets[x] & flagged_sets[y])
            for i, x in enumerate(DETECTORS)
            for y in DETECTORS[i + 1 :]
        },
    }
    with open(outdir / "overlap.json", "w", encoding="utf-8") as fp:
        json.dump(overlap, fp, sort_keys=True, indent=2)
        fp.write("\n")

    manifest = RunManifest(
        "detect", seed=args.seed, config=_config_snapshot(cfg, {"detectors": sorted(enabled)})
    )
    manifest.add_input("cache", args.cache)
    manifest.counts["records"] = len(corpus)
    for name in DETECTORS:
        manifest.counts[f"edges_{name}"] = len(results[name][0])
        manifest.counts[f"flagged_{name}"] = len(flagged_sets[name])
    manifest.counts["flagged_union"] = len(union)
    manifest.counts.update(diagnostics)
    for artifact in sorted(p.name for p in outdir.iterdir() if p.name != "detect.manifest.json"):
        manifest.add_artifact(outdir / artifact)
    manifest.write(outdir / "detect.manifest.json")
    print(
        "flagged accounts: "
        + ", ".join(f"{name}={len(flagged_sets[name])}" for name in DETECTORS)
        + f", union={len(union)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _edge_files(paths) -> list[Path]:
    """Edge inputs: a directory stands for its edges_*.csv in name order;
    a file is taken as given."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("edges_*.csv")) if path.is_dir() else [path])
    return files


def cmd_cluster(args, config) -> int:
    from coordnet import formats
    from coordnet import graph as graphmod
    from coordnet import report as reportmod

    corpus = load_cache(args.cache)
    tables = [formats.read_edges_csv(path) for path in _edge_files(args.edges)]
    graph = graphmod.CoordinationGraph.from_edges(*tables)
    clusters = graphmod.label_clusters(graphmod.connected_components(graph), corpus)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    reportmod.write_clusters(clusters, out)
    print(f"{len(clusters)} clusters -> {out}", file=sys.stderr)
    return EXIT_OK


def cmd_score(args, config) -> int:
    from coordnet import sociolinguistics as sl

    corpus = load_cache(args.cache)
    lexicon = sl.load_lexicon(args.lexicon) if args.lexicon else sl.builtin_lexicon()
    table = sl.score_corpus(corpus, lexicon)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fp:
        sl.write_confidences(table, fp)
    manifest = RunManifest("score", seed=args.seed, config={"lexicon_entries": len(lexicon)})
    manifest.add_input("cache", args.cache)
    if args.lexicon:
        manifest.add_input("lexicon", args.lexicon)
    manifest.counts["tweets_scored"] = len(table)
    manifest.add_artifact(out)
    manifest.write(out.with_suffix(out.suffix + ".manifest.json"))
    print(f"scored {len(table)} tweets -> {out}", file=sys.stderr)
    return EXIT_OK


def cmd_report(args, config) -> int:
    from coordnet import formats
    from coordnet import report as reportmod
    from coordnet import sociolinguistics as sl

    # Checked before anything is read, so a bad value leaves no partial bundle.
    _at_least(args.top_clusters, 0, "--top-clusters")
    corpus = load_cache(args.cache)
    if not args.edges:
        raise ValueError("missing input: --edges (edge CSV files or a detect output directory)")
    tables = [formats.read_edges_csv(path) for path in _edge_files(args.edges)]

    table = None
    if args.confidences:
        table = sl.load_confidences(args.confidences)

    story = (
        [t.strip() for t in args.story_hashtags.split(",") if t.strip()]
        if args.story_hashtags
        else config.get("story_hashtags", [])
    )
    duplicate_scope = args.duplicate_scope or config.get("duplicate_scope", "account")
    threshold = (
        args.binarize_threshold
        if args.binarize_threshold is not None
        else config.get("binarize_threshold", 0.5)
    )

    cfg = detector_config(config, args)
    manifest = RunManifest(
        "report",
        seed=args.seed,
        config=_config_snapshot(
            cfg,
            {
                "story_hashtags": sorted(t.lower().lstrip("#") for t in story),
                "duplicate_scope": duplicate_scope,
                "binarize_threshold": threshold,
                "top_clusters": args.top_clusters,
            },
        ),
    )
    manifest.add_input("cache", args.cache)
    if args.confidences:
        manifest.add_input("confidences", args.confidences)
        manifest.counts["confidence_missing_values"] = table.missing_values

    summary = reportmod.write_report_bundle(
        corpus,
        tables,
        table,
        args.outdir,
        story_hashtags=story,
        seed=args.seed,
        binarize_threshold=threshold,
        duplicate_scope=duplicate_scope,
        top_clusters=args.top_clusters,
        run_manifest=manifest,
    )
    if "notice" in summary:
        print(summary["notice"], file=sys.stderr)
    print(f"report bundle -> {args.outdir}", file=sys.stderr)
    return EXIT_OK


def _read_columns(path, names: list[str], aligned: bool = False) -> dict[str, list[float]]:
    """Extract named numeric columns from a CSV.

    aligned=True keeps columns row-aligned (a row with any empty named
    cell is dropped entirely), which paired tests require; otherwise
    empty cells are skipped per column (columns may differ in length).
    """
    with csv_reader(path, csv.DictReader) as reader:
        missing = [n for n in names if n not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"missing columns in {path}: {', '.join(missing)}")
        out: dict[str, list[float]] = {n: [] for n in names}
        for row in reader:
            cells = {n: row[n].strip() for n in names}
            if aligned:
                if all(cells.values()):
                    for n in names:
                        out[n].append(float(cells[n]))
            else:
                for n in names:
                    if cells[n]:
                        out[n].append(float(cells[n]))
    return out


def cmd_stats(args, config) -> int:
    from coordnet import stats

    if args.test == "spearman":
        cols = _read_columns(args.csv, [args.x, args.y], aligned=True)
        result = stats.spearman(cols[args.x], cols[args.y])
    elif args.test == "mannwhitney":
        cols = _read_columns(args.csv, [args.a, args.b])
        result = stats.mann_whitney_u(cols[args.a], cols[args.b])
    elif args.test == "auc":
        cols = _read_columns(args.csv, [args.scores, args.labels], aligned=True)
        result = stats.roc_auc(cols[args.scores], [int(v) for v in cols[args.labels]])
    elif args.test == "reshuffle":
        cols = _read_columns(args.csv, [args.scores, args.labels], aligned=True)
        rows = list(zip(cols[args.scores], [int(v) for v in cols[args.labels]]))
        result = stats.reshuffle_eval(
            rows, splits=args.splits, train_frac=args.train_frac, seed=args.seed
        )
    elif args.test == "bootstrap":
        cols = _read_columns(args.csv, [args.col])
        se = stats.bootstrap_se(cols[args.col], b=args.resamples, seed=args.seed)
        result = stats.StatResult(se, None, (len(cols[args.col]),), method="bootstrap-se-pcg64")
    elif args.test == "kappa":
        names = [c.strip() for c in args.cols.split(",") if c.strip()]
        if len(names) < 2:
            raise ValueError("kappa requires at least 2 annotator columns")
        # row-aligned; empty cells mean "annotator did not label this item"
        with csv_reader(args.csv, csv.DictReader) as reader:
            missing = [n for n in names if n not in (reader.fieldnames or [])]
            if missing:
                raise ValueError(f"missing columns in {args.csv}: {', '.join(missing)}")
            annotations: list[list[int | None]] = [[] for _ in names]
            for row in reader:
                for i, n in enumerate(names):
                    cell = row[n].strip()
                    annotations[i].append(int(cell) if cell else None)
        result = stats.cohens_kappa(annotations)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown test {args.test!r}")
    payload = result.as_dict()
    payload["seed"] = args.seed
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    """One --flag per DetectorConfig field, typed like its default; a flag
    overrides the config file."""
    for name, type_ in _DETECTOR_TYPES.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=type_, dest=name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coordnet",
        description="Detect and characterize coordinated account networks in a tweet corpus.",
    )
    parser.add_argument("--version", action="version", version=f"coordnet {__version__}")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed for resampling")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; does not change output"
    )
    parser.add_argument("--strict", action="store_true", help="abort on first malformed line")
    parser.add_argument("--json-errors", action="store_true", help="machine-readable errors on stderr")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and cache a JSONL corpus")
    p.add_argument("input")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("detect", help="run the coordination detectors")
    p.add_argument("cache")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--detectors", help="comma list from: hashtag,retweet,time")
    _add_detector_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("cluster", help="connected components of edge lists")
    p.add_argument("cache")
    p.add_argument("edges", nargs="+", help="edge CSV files or a detect output directory")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("score", help="lexicon-score tweet confidences")
    p.add_argument("cache")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--lexicon", help="CSV characteristic,phrase,weight[,language]")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="emit the analysis bundle")
    p.add_argument("cache")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--edges", nargs="+", help="edge CSV files or a detect output directory")
    p.add_argument("--confidences", help="confidence CSV (external or scored)")
    p.add_argument("--story-hashtags", help="comma list of story hashtags")
    p.add_argument("--duplicate-scope", choices=("account", "corpus"))
    p.add_argument("--binarize-threshold", type=float)
    p.add_argument("--top-clusters", type=int, default=5)
    _add_detector_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stats", help="ad-hoc tests on CSV columns")
    p.add_argument(
        "test", choices=("spearman", "mannwhitney", "auc", "reshuffle", "bootstrap", "kappa")
    )
    p.add_argument("--csv", required=True)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--scores")
    p.add_argument("--labels")
    p.add_argument("--col")
    p.add_argument("--cols", help="comma list of annotator columns (kappa)")
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--splits", type=int, default=10)
    p.add_argument("--train-frac", type=float, default=0.5)
    p.set_defaults(func=cmd_stats)

    return parser


def _emit_error(exc: Exception, code: int, json_errors: bool) -> None:
    if json_errors:
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        line_no = getattr(exc, "line_no", None)
        if line_no is not None:
            payload["line"] = line_no
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    print(f"coordnet: error: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_errors = getattr(args, "json_errors", False)
    try:
        config = load_config_file(args.config) if args.config else {}
        return args.func(args, config)
    except ValueError as exc:  # CorpusError and TableError among them
        _emit_error(exc, EXIT_VALIDATION, json_errors)
        return EXIT_VALIDATION
    except OSError as exc:
        _emit_error(exc, EXIT_IO, json_errors)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error(exc, EXIT_INTERNAL, json_errors)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
