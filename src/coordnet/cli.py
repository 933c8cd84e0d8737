"""Command-line interface: ingest -> detect -> cluster -> score -> report.

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 internal
error. With --json-errors failures are additionally machine-readable on
stderr.

Each stage imports the modules it computes with inside its cmd_*
function, so `--version`, `ingest` and `score` never load numpy;
cmd_detect, cmd_cluster, cmd_report and cmd_stats do.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

from coordnet import __version__
from coordnet.config import DETECTORS, DetectorConfig, ReportConfig, detector_set
from coordnet.corpus import day_of_timestamp, load_cache, parse_corpus
from coordnet.manifest import RunManifest
from coordnet.sources import csv_reader, line_ends, number

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def _parse(type_):
    """The parse of a setting's text by the type of its default, for the
    config file and the flags alike: an int or a float refuses digit
    underscores, as sources.number does, and an empty text; a tuple is a
    comma list of its non-empty items; a str is taken as it is. Named
    after type_, so a flag's usage error reads "invalid int value: '1_0'"."""

    def parse(text: str):
        if type_ is tuple:
            return tuple(t.strip() for t in text.split(",") if t.strip())
        if type_ is not str and ("_" in text or not text):
            raise ValueError(f"not a number: {text!r}")
        return type_(text)

    parse.__name__ = type_.__name__
    return parse


# Every setting's name -> its parse.
_SETTINGS = {
    f.name: _parse(type(f.default)) for cls in (DetectorConfig, ReportConfig) for f in fields(cls)
}


def load_config_file(path) -> dict:
    """Parse a `key = value` config file; "#" starts a comment at a line's
    start or after whitespace, so `story_hashtags = a,#b` keeps "#b". A
    value whose first character is "#" and the next not a space, as in
    `story_hashtags = #a,#b`, is an error rather than a comment, and so
    is a byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{line_ends(data[: exc.start], False) + 1}: not valid UTF-8") from None
    out = {}
    # newline=None: lines end as open() in text mode ends them
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            if key not in _SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            tag = re.match(r"\s*(#\S+)", raw.partition("=")[2])
            if tag:
                raise ValueError(
                    f"value starts with '#': {tag[1]!r}; write tags without '#'"
                )
            out[key] = _SETTINGS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return out


def settings(cls, config: dict, args):
    """cls with each field from its flag, else from the config file, else
    its default. An empty comma list is no flag, so --story-hashtags ""
    keeps the file's tags."""
    values = {}
    for f in fields(cls):
        flag = getattr(args, f.name, None)
        if flag not in (None, ()):
            values[f.name] = flag
        elif f.name in config:
            values[f.name] = config[f.name]
    return cls(**values)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, config) -> int:
    out = Path(args.out)
    corpus = parse_corpus(args.input, strict=args.strict)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as fp:
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

    cfg = settings(DetectorConfig, config, args)
    enabled = detector_set(
        [d.strip() for d in args.detectors.split(",") if d.strip()]
        if args.detectors
        else DETECTORS
    )
    corpus = load_cache(args.cache)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    diagnostics: dict[str, int] = {}
    results = det.detect_all(corpus, cfg, enabled, diagnostics)
    written: list[Path] = []

    def emit(name: str) -> Path:
        written.append(outdir / name)
        return written[-1]

    flagged_sets = {}
    for name in DETECTORS:
        edges, flagged = results[name]
        flagged_sets[name] = flagged
        with open(emit(f"edges_{name}.csv"), "w", encoding="utf-8", newline="") as fp:
            formats.write_edges_csv(edges, fp)
        with open(emit(f"flagged_{name}.txt"), "w", encoding="utf-8", newline="") as fp:
            formats.write_account_list(flagged, fp)

    union = set().union(*flagged_sets.values())
    with open(emit("flagged_union.txt"), "w", encoding="utf-8", newline="") as fp:
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
    with open(emit("overlap.json"), "w", encoding="utf-8") as fp:
        json.dump(overlap, fp, sort_keys=True, indent=2)
        fp.write("\n")

    manifest = RunManifest(
        "detect", seed=args.seed, config={**asdict(cfg), "detectors": sorted(enabled)}
    )
    manifest.add_input("cache", args.cache)
    manifest.counts["records"] = len(corpus)
    for name in DETECTORS:
        manifest.counts[f"edges_{name}"] = len(results[name][0])
        manifest.counts[f"flagged_{name}"] = len(flagged_sets[name])
    manifest.counts["flagged_union"] = len(union)
    manifest.counts.update(diagnostics)
    for path in written:
        manifest.add_artifact(path)
    manifest.write(outdir / "detect.manifest.json")
    print(
        "flagged accounts: "
        + ", ".join(f"{name}={len(flagged_sets[name])}" for name in DETECTORS)
        + f", union={len(union)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _edge_files(paths) -> list[Path]:
    """Edge inputs: a directory stands for its edges_*.csv in name order,
    and one without any is a ValueError; a file is taken as given."""
    files = []
    for path in map(Path, paths):
        if not path.is_dir():
            files.append(path)
            continue
        found = sorted(path.glob("edges_*.csv"))
        if not found:
            raise ValueError(f"no edges_*.csv in directory {str(path)!r}")
        files.extend(found)
    return files


def cmd_cluster(args, config) -> int:
    from coordnet import formats
    from coordnet import graph as graphmod

    edge_files = _edge_files(args.edges)
    corpus = load_cache(args.cache)
    tables = [formats.read_edges_csv(path) for path in edge_files]
    clusters, _ = graphmod.coordination(corpus, tables)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_clusters(clusters, out)
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
    from coordnet import graph as graphmod
    from coordnet import report as reportmod
    from coordnet import sociolinguistics as sl

    # Built before anything is read, so a bad value leaves no partial bundle.
    cfg = settings(ReportConfig, config, args)
    if not args.edges:
        raise ValueError("missing input: --edges (edge CSV files or a detect output directory)")
    edge_files = _edge_files(args.edges)
    corpus = load_cache(args.cache)
    tables = [formats.read_edges_csv(path) for path in edge_files]
    coordination = graphmod.coordination(corpus, tables)

    table = None
    if args.confidences:
        table = sl.load_confidences(args.confidences)

    manifest = RunManifest("report", seed=args.seed, config=asdict(cfg))
    manifest.add_input("cache", args.cache)
    # numbered roles: two edge files may share a name
    for i, path in enumerate(edge_files, start=1):
        manifest.add_input(f"edges.{i}", path)
    manifest.counts["edges"] = sum(len(t) for t in tables)
    if args.confidences:
        manifest.add_input("confidences", args.confidences)
        manifest.counts["confidence_missing_values"] = table.missing_values

    summary = reportmod.write_report_bundle(
        corpus, coordination, table, args.outdir, cfg, seed=args.seed, run_manifest=manifest
    )
    if "notice" in summary:
        print(summary["notice"], file=sys.stderr)
    print(f"report bundle -> {args.outdir}", file=sys.stderr)
    return EXIT_OK


def _read_columns(path, names: list[str], labels=()) -> dict[str, list]:
    """Extract named columns from a CSV, row-aligned, with None for an
    empty cell (a short row's missing cells included).

    A cell of a column in labels must be 0 or 1 and is read as an int;
    any other cell must be a finite number (nan, inf, 1e309 and text are
    not). A bad cell is a ValueError naming the file, line and column.
    """
    with csv_reader(path, csv.DictReader) as reader:
        missing = [n for n in names if n not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"missing columns in {path}: {', '.join(missing)}")
        out: dict[str, list] = {n: [] for n in names}
        for row in reader:
            for n, column in out.items():
                cell = (row[n] or "").strip()
                try:
                    column.append(_label(cell) if n in labels else _number(cell))
                except ValueError as exc:
                    raise ValueError(
                        f"{path}, line {reader.line_num}, column {n!r}: {cell!r} is not {exc}"
                    ) from None
    return out


def _number(cell: str) -> float | None:
    """A numeric cell's finite value; None when it is empty."""
    if not cell:
        return None
    try:
        value = number(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("a finite number")
    return value


def _label(cell: str) -> int | None:
    """A label cell's 0 or 1; None when it is empty."""
    if cell not in ("", "0", "1"):
        raise ValueError("0 or 1")
    return int(cell) if cell else None


def _paired(cols: dict[str, list]) -> dict[str, list]:
    """The rows without an empty cell, as the paired tests take them."""
    rows = [row for row in zip(*cols.values()) if None not in row]
    return {n: [row[i] for row in rows] for i, n in enumerate(cols)}


def _present(column: list) -> list:
    """A column's cells that are not empty."""
    return [v for v in column if v is not None]


# The column flags each stats test reads.
_STATS_FLAGS = {
    "spearman": ("x", "y"),
    "mannwhitney": ("a", "b"),
    "auc": ("scores", "labels"),
    "reshuffle": ("scores", "labels"),
    "bootstrap": ("col",),
    "kappa": ("cols",),
}


def cmd_stats(args, config) -> int:
    from coordnet import stats

    missing = [f"--{flag}" for flag in _STATS_FLAGS[args.test] if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"stats {args.test} requires {' and '.join(missing)}")
    if args.test == "spearman":
        cols = _paired(_read_columns(args.csv, [args.x, args.y]))
        result = stats.spearman(cols[args.x], cols[args.y])
    elif args.test == "mannwhitney":
        cols = _read_columns(args.csv, [args.a, args.b])
        result = stats.mann_whitney_u(_present(cols[args.a]), _present(cols[args.b]))
    elif args.test == "auc":
        cols = _paired(_read_columns(args.csv, [args.scores, args.labels], labels=[args.labels]))
        result = stats.roc_auc(cols[args.scores], cols[args.labels])
    elif args.test == "reshuffle":
        cols = _paired(_read_columns(args.csv, [args.scores, args.labels], labels=[args.labels]))
        rows = list(zip(cols[args.scores], cols[args.labels]))
        result = stats.reshuffle_eval(
            rows, splits=args.splits, train_frac=args.train_frac, seed=args.seed
        )
    elif args.test == "bootstrap":
        values = _present(_read_columns(args.csv, [args.col])[args.col])
        se = stats.bootstrap_se(values, b=args.resamples, seed=args.seed)
        result = stats.StatResult(se, None, (len(values),), method="bootstrap-se-pcg64")
    elif args.test == "kappa":
        names = [c.strip() for c in args.cols.split(",") if c.strip()]
        if len(names) < 2:
            raise ValueError("kappa requires at least 2 annotator columns")
        # an empty cell: the annotator did not label this item
        cols = _read_columns(args.csv, names, labels=names)
        result = stats.cohens_kappa([cols[n] for n in names])
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown test {args.test!r}")
    payload = asdict(result)
    payload["seed"] = args.seed
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_setting_flags(p: argparse.ArgumentParser, cls) -> None:
    """One --flag per field of cls, parsed as the config file's value is;
    a flag overrides the config file."""
    for f in fields(cls):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_SETTINGS[f.name], dest=f.name)


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
    _add_setting_flags(p, DetectorConfig)
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
    _add_setting_flags(p, ReportConfig)
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
        for key, attr in (("line", "line_no"), ("block", "block")):
            if getattr(exc, attr, None) is not None:
                payload[key] = getattr(exc, attr)
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
