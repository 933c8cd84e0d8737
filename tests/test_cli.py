"""CLI subcommands, exit codes, and file interfaces."""

import csv
import json
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordnet.cli import main
from coordnet.corpus import record_to_json
from coordnet.formats import read_edges_csv
from coordnet.sociolinguistics import CHARACTERISTICS

from helpers import BASE_TS, jsonl_line, rec, subprocess_env


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fp:
        for r in records:
            fp.write(record_to_json(r) + "\n")


@pytest.fixture
def small_corpus_file(tmp_path):
    """Two hashtag-coordinated accounts + background accounts."""
    records = [
        rec(1, "coord-a", BASE_TS, hashtags=["v", "w", "x", "y", "z"], text="vote for unity"),
        rec(2, "coord-b", BASE_TS + 60, hashtags=["v", "w", "x", "y", "z"], text="vote for unity"),
        rec(3, "coord-a", BASE_TS + 120, hashtags=["leakstory"], text="the story"),
        rec(4, "plain-1", BASE_TS + 180, hashtags=["leakstory"], text="curious"),
        rec(5, "plain-2", BASE_TS + 240, text="unrelated fr text", language="fr"),
        rec(6, "plain-2", BASE_TS + 86400, kind="reply", mentions=["coord-a"], text="hm"),
        rec(7, "plain-1", BASE_TS + 86460, kind="retweet", rt_id="1", rt_account="coord-a"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    return path


class TestIngest:
    def test_round_trip_and_manifest(self, tmp_path, small_corpus_file):
        cache = tmp_path / "cache.jsonl"
        assert main(["ingest", str(small_corpus_file), "-o", str(cache)]) == 0
        manifest = json.loads((tmp_path / "cache.jsonl.manifest.json").read_text())
        assert manifest["counts"]["records"] == 7
        assert manifest["counts"]["skipped"] == 0
        assert manifest["digest"]

    def test_rerun_identical_digest(self, tmp_path, small_corpus_file):
        cache = tmp_path / "cache.jsonl"
        main(["ingest", str(small_corpus_file), "-o", str(cache)])
        first = json.loads((tmp_path / "cache.jsonl.manifest.json").read_text())
        main(["ingest", str(small_corpus_file), "-o", str(cache)])
        second = json.loads((tmp_path / "cache.jsonl.manifest.json").read_text())
        assert first["digest"] == second["digest"]
        assert first == second

    def test_lenient_default_skips(self, tmp_path, capsys):
        src = tmp_path / "mixed.jsonl"
        src.write_text(
            jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="original")
            + "\nnot json\n"
        )
        cache = tmp_path / "cache.jsonl"
        assert main(["ingest", str(src), "-o", str(cache)]) == 0
        assert "1 skipped" in capsys.readouterr().err

    def test_lenient_skips_unrenderable_timestamp(self, tmp_path, capsys):
        src = tmp_path / "mixed.jsonl"
        src.write_text(
            jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="original")
            + '\n{"tweet_id": "u", "account_id": "a", "timestamp": 1e300, "kind": "original"}\n'
        )
        cache = tmp_path / "cache.jsonl"
        assert main(["ingest", str(src), "-o", str(cache)]) == 0
        assert "1 skipped" in capsys.readouterr().err

    def test_strict_bad_line_exit_1_with_line_number(self, tmp_path, capsys):
        src = tmp_path / "mixed.jsonl"
        src.write_text("not json\n")
        cache = tmp_path / "cache.jsonl"
        assert main(["--strict", "ingest", str(src), "-o", str(cache)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_json_errors(self, tmp_path, capsys):
        src = tmp_path / "mixed.jsonl"
        src.write_text("{}\n")
        assert main(["--strict", "--json-errors", "ingest", str(src), "-o", str(tmp_path / "c")]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(err_lines[0])
        assert payload["error"] == "CorpusError"
        assert payload["line"] == 1

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path / "c")]) == 2


def test_cli_import_loads_no_scipy_submodules():
    # scipy.special and scipy.sparse each cost a CLI process time and
    # RSS; they load only in the calls that need them.
    probe = (
        "import sys, coordnet.cli; "
        "print(sorted(m for m in ('scipy.special', 'scipy.sparse') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Property: no input line aborts a lenient ingest or exits 3
# ---------------------------------------------------------------------------

_BASE_RECORDS = [
    {"tweet_id": "t1", "account_id": "a1", "timestamp": BASE_TS, "kind": "original",
     "text": "hi #x", "hashtags": ["X", "y"], "language": "en", "mentions": ["a2"]},
    {"tweet_id": 2, "account_id": "a2", "timestamp": "2017-05-01T10:00:00Z",
     "kind": "reply", "mentions": ["a1"]},
    {"tweet_id": "t3", "account_id": "a3", "timestamp": BASE_TS + 60, "kind": "retweet",
     "retweeted_tweet_id": "t1", "retweeted_account_id": "a1"},
]
_FIELDS = sorted({k for r in _BASE_RECORDS for k in r}) + ["unknown_field"]

_strings = st.one_of(
    st.text(max_size=8),
    # lone UTF-16 surrogates: valid as JSON escapes, not writable as UTF-8
    st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2),
)
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    _strings,
    st.lists(st.one_of(_strings, st.integers(), st.none()), max_size=3),
    st.dictionaries(_strings, st.integers(), max_size=2),
)
_max_offset = timedelta(hours=23, minutes=59)
_offsets = st.timedeltas(min_value=-_max_offset, max_value=_max_offset)
_timestamps = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.sampled_from([1e300, -1e300, 2**63, -(2**63), -62135596801, 253402300800]),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.floats().map(repr),
    st.datetimes(timezones=st.none() | st.builds(timezone, _offsets)).map(datetime.isoformat),
    st.text(max_size=25),
)


@st.composite
def _mutated_record_line(draw):
    """A valid record with up to two fields deleted or replaced by a
    value of any type, a string or string list, or any timestamp."""
    record = dict(draw(st.sampled_from(_BASE_RECORDS)))
    for field in draw(st.lists(st.sampled_from(_FIELDS), max_size=2, unique=True)):
        action = draw(st.sampled_from(("delete", "junk", "same-type")))
        if action == "delete":
            record.pop(field, None)
        elif action == "junk":
            record[field] = draw(_junk)
        elif field == "timestamp":
            record[field] = draw(_timestamps)
        elif isinstance(record.get(field), list):
            record[field] = draw(st.lists(_strings, max_size=3))
        else:
            record[field] = draw(_strings)
    return json.dumps(record)


_lines = st.one_of(
    _mutated_record_line(),
    _mutated_record_line(),
    _junk.map(json.dumps),  # a JSON value that is not an object
    st.text(min_size=1, max_size=30).filter(
        lambda s: s.strip() and "\n" not in s and "\r" not in s
    ),
    # nesting past the recursion limit (hypothesis raises it while testing)
    st.integers(min_value=50_000, max_value=60_000).map(lambda n: "[" * n + "]" * n),
    st.just('{"tweet_id": "t", "account_id": "a", "kind": "original", "timestamp": %s}' % ("9" * 5000)),
)


class TestIngestProperty:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(lines=st.lists(_lines, min_size=1, max_size=6))
    def test_every_line_parsed_or_skipped(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "input.jsonl"
            src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            cache = Path(tmp) / "cache.jsonl"
            assert main(["ingest", str(src), "-o", str(cache)]) == 0
            counts = json.loads(Path(str(cache) + ".manifest.json").read_text())["counts"]
            assert counts["records"] + counts["skipped"] == len(lines)
            strict = main(["--strict", "ingest", str(src), "-o", str(cache)])
            assert strict == (0 if counts["skipped"] == 0 else 1)


@pytest.fixture
def detect_run(tmp_path, small_corpus_file):
    cache = tmp_path / "cache.jsonl"
    outdir = tmp_path / "det"
    main(["ingest", str(small_corpus_file), "-o", str(cache)])
    assert main(["detect", str(cache), "-o", str(outdir)]) == 0
    return cache, outdir


class TestDetect:
    def test_planted_pair_flagged(self, detect_run):
        _, outdir = detect_run
        edges = read_edges_csv(outdir / "edges_hashtag.csv")
        assert [(e.a, e.b) for e in edges] == [("coord-a", "coord-b")]
        assert edges[0].evidence == "v|w|x|y|z"
        union = (outdir / "flagged_union.txt").read_text().split()
        assert union == ["coord-a", "coord-b"]

    def test_overlap_counts_match_set_ops(self, detect_run):
        _, outdir = detect_run
        overlap = json.loads((outdir / "overlap.json").read_text())
        flagged = {}
        for name in ("hashtag", "retweet", "time"):
            flagged[name] = set((outdir / f"flagged_{name}.txt").read_text().split())
        assert overlap["flagged_counts"] == {k: len(v) for k, v in flagged.items()}
        assert overlap["union"] == len(flagged["hashtag"] | flagged["retweet"] | flagged["time"])
        for pair, count in overlap["overlaps"].items():
            x, y = pair.split("&")
            assert count == len(flagged[x] & flagged[y])

    def test_disabled_detectors_emit_empty(self, tmp_path, detect_run):
        cache, _ = detect_run
        outdir = tmp_path / "det2"
        assert main(["detect", str(cache), "-o", str(outdir), "--detectors", "hashtag"]) == 0
        assert read_edges_csv(outdir / "edges_retweet.csv") == []
        assert (outdir / "flagged_time.txt").read_text() == ""

    def test_unknown_detector_rejected(self, tmp_path, detect_run, capsys):
        cache, _ = detect_run
        assert main(["detect", str(cache), "-o", str(tmp_path / "x"), "--detectors", "psychic"]) == 1

    def test_config_file_overridden_by_flag(self, tmp_path, small_corpus_file, capsys):
        cache = tmp_path / "cache.jsonl"
        main(["ingest", str(small_corpus_file), "-o", str(cache)])
        config = tmp_path / "run.conf"
        config.write_text("hashtag_k = 6\n# comment\ntime_threshold = 0.95\n")
        outdir = tmp_path / "det6"
        assert main(["--config", str(config), "detect", str(cache), "-o", str(outdir)]) == 0
        assert read_edges_csv(outdir / "edges_hashtag.csv") == []  # k=6 > run length
        outdir2 = tmp_path / "det5"
        assert (
            main(
                [
                    "--config",
                    str(config),
                    "detect",
                    str(cache),
                    "-o",
                    str(outdir2),
                    "--hashtag-k",
                    "5",
                ]
            )
            == 0
        )
        assert len(read_edges_csv(outdir2 / "edges_hashtag.csv")) == 1

    def test_bad_config_value_rejected(self, tmp_path, detect_run):
        cache, _ = detect_run
        config = tmp_path / "bad.conf"
        config.write_text("retweet_top_frac = 2.0\n")
        assert main(["--config", str(config), "detect", str(cache), "-o", str(tmp_path / "y")]) == 1


class TestClusterScoreReport:
    def test_cluster_command(self, tmp_path, detect_run):
        cache, outdir = detect_run
        out = tmp_path / "clusters.csv"
        assert main(["cluster", str(cache), str(outdir / "edges_hashtag.csv"), "-o", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["cluster_id", "size", "label", "member_ids"]
        assert rows[1][:3] == ["1", "2", "v"]
        assert rows[1][3:] == ["coord-a", "coord-b"]

    def test_score_command(self, tmp_path, detect_run):
        cache, _ = detect_run
        out = tmp_path / "conf.csv"
        assert main(["score", str(cache), "-o", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "tweet_id"
        assert len(rows) == 8  # header + 7 tweets
        # "vote for unity" trips the vote_for phrase
        vote_col = rows[0].index("vote_for")
        by_id = {r[0]: r for r in rows[1:]}
        assert float(by_id["1"][vote_col]) > 0.5

    def test_report_full_and_partial(self, tmp_path, detect_run, capsys):
        cache, det_out = detect_run
        conf = tmp_path / "conf.csv"
        main(["score", str(cache), "-o", str(conf)])
        bundle = tmp_path / "bundle"
        code = main(
            [
                "report",
                str(cache),
                "-o",
                str(bundle),
                "--edges",
                str(det_out),
                "--confidences",
                str(conf),
                "--story-hashtags",
                "leakstory",
            ]
        )
        assert code == 0
        summary = json.loads((bundle / "summary.json").read_text())
        assert summary["story_share"]["coordinated"] == 1
        assert summary["story_share"]["total"] == 2
        assert summary["story_share"]["share"] == 0.5
        assert summary["user_share"] == 2 / 4
        assert summary["interactions"]["replies_from_outside"] == 1
        # report consumed a CSV file, so the table is external from its view
        assert summary["sociolinguistics"]["provenance"] == "external"
        cvb = summary["sociolinguistics"]["confidence_vs_binarized"]
        assert set(cvb["per_characteristic"]) == set(CHARACTERISTICS)
        for name in (
            "daily_volume.csv",
            "activity_shares.csv",
            "duplicate_shares.csv",
            "clusters.csv",
            "correlations.csv",
            "correlation_pvalues.csv",
            "deltas.csv",
            "binarized_rates.csv",
            "daily_confidence.csv",
            "language_mix.csv",
            "manifest.json",
            "summary.json",
        ):
            assert (bundle / name).exists(), name
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert summary["manifest_digest"] == manifest["digest"]
        assert "summary.json" in manifest["artifacts"]

        # partial run: no confidences -> sections omitted, exit 0, notice
        partial = tmp_path / "partial"
        code = main(["report", str(cache), "-o", str(partial), "--edges", str(det_out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "omitted" in err
        assert not (partial / "correlations.csv").exists()
        summary2 = json.loads((partial / "summary.json").read_text())
        assert summary2["sociolinguistics"] is None
        assert "notice" in summary2

    def test_report_with_no_flagged_accounts(self, tmp_path, small_corpus_file):
        cache = tmp_path / "cache.jsonl"
        main(["ingest", str(small_corpus_file), "-o", str(cache)])
        det = tmp_path / "det"
        # k=6 exceeds every hashtag run: nothing flagged anywhere
        main(["detect", str(cache), "-o", str(det), "--hashtag-k", "6"])
        bundle = tmp_path / "bundle"
        assert main(["report", str(cache), "-o", str(bundle), "--edges", str(det)]) == 0
        summary = json.loads((bundle / "summary.json").read_text())
        assert summary["coordinated_accounts"] == 0
        assert summary["user_share"] == 0.0
        assert summary["interactions"]["intra_share"] is None
        assert summary["duplicate_comparison"] is None

    def test_report_requires_edges(self, tmp_path, detect_run, capsys):
        cache, _ = detect_run
        assert main(["report", str(cache), "-o", str(tmp_path / "b")]) == 1
        assert "--edges" in capsys.readouterr().err

    def test_report_rejects_bad_confidences(self, tmp_path, detect_run, capsys):
        cache, det_out = detect_run
        bad = tmp_path / "bad_conf.csv"
        bad.write_text(
            "tweet_id," + ",".join(CHARACTERISTICS) + "\n"
            "1," + ",".join(["1.2"] + ["0.0"] * (len(CHARACTERISTICS) - 1)) + "\n"
        )
        code = main(
            ["report", str(cache), "-o", str(tmp_path / "b"), "--edges", str(det_out),
             "--confidences", str(bad)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "vote_for" in err

    def test_activity_share_csv_schema(self, tmp_path, detect_run):
        cache, det_out = detect_run
        bundle = tmp_path / "b2"
        main(["report", str(cache), "-o", str(bundle), "--edges", str(det_out)])
        rows = list(csv.reader((bundle / "activity_shares.csv").open()))
        assert rows[0] == ["day", "original", "reply", "retweet"]
        # day 2 has no originals -> empty cell (null)
        assert rows[2][1] == ""


class TestStatsCommand:
    def test_spearman_json(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,10\n2,20\n3,30\n")
        assert main(["stats", "spearman", "--csv", str(path), "--x", "x", "--y", "y"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 1.0
        assert payload["method"] == "spearman-t"

    def test_mannwhitney(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,3\n2,4\n")
        assert main(["stats", "mannwhitney", "--csv", str(path), "--a", "a", "--b", "b"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 0.0

    def test_auc(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("score,label\n0.9,1\n0.4,1\n0.6,0\n0.1,0\n")
        main(["stats", "auc", "--csv", str(path), "--scores", "score", "--labels", "label"])
        assert json.loads(capsys.readouterr().out)["statistic"] == 0.75

    def test_bootstrap_seeded(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("v\n0\n1\n")
        main(["--seed", "7", "stats", "bootstrap", "--csv", str(path), "--col", "v", "--resamples", "2000"])
        first = json.loads(capsys.readouterr().out)
        main(["--seed", "7", "stats", "bootstrap", "--csv", str(path), "--col", "v", "--resamples", "2000"])
        second = json.loads(capsys.readouterr().out)
        assert first["statistic"] == second["statistic"]
        assert first["seed"] == 7

    def test_kappa(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        rows = ["r1,r2"] + ["1,1"] * 20 + ["1,0"] * 5 + ["0,1"] * 10 + ["0,0"] * 15
        path.write_text("\n".join(rows) + "\n")
        main(["stats", "kappa", "--csv", str(path), "--cols", "r1,r2"])
        assert json.loads(capsys.readouterr().out)["statistic"] == 0.4

    def test_missing_column_rejected(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x\n1\n")
        assert main(["stats", "spearman", "--csv", str(path), "--x", "x", "--y", "y"]) == 1

    def test_paired_tests_drop_incomplete_rows(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,10\n2,\n3,30\n4,40\n")
        assert main(["stats", "spearman", "--csv", str(path), "--x", "x", "--y", "y"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == [3]  # the incomplete row is dropped as a pair
        assert payload["statistic"] == 1.0

    def test_mannwhitney_columns_may_differ_in_length(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,3\n2,4\n,5\n")
        assert main(["stats", "mannwhitney", "--csv", str(path), "--a", "a", "--b", "b"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == [2, 3]

    def test_kappa_empty_cells_are_missing_annotations(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("r1,r2\n1,1\n0,0\n1,\n,0\n0,1\n1,1\n")
        assert main(["stats", "kappa", "--csv", str(path), "--cols", "r1,r2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # overlap items: (1,1),(0,0),(0,1),(1,1)
        a, b = [1, 0, 0, 1], [1, 0, 1, 1]
        counts = [[0, 0], [0, 0]]
        for x, y in zip(a, b):
            counts[1 - x][1 - y] += 1
        from coordnet.stats import kappa_from_table

        assert payload["statistic"] == kappa_from_table(counts)

    def test_config_error_carries_location(self, tmp_path, detect_run, capsys):
        cache, _ = detect_run
        config = tmp_path / "bad.conf"
        config.write_text("hashtag_k = five\n")
        assert main(["--config", str(config), "detect", str(cache), "-o", str(tmp_path / "z")]) == 1
        assert "bad.conf:1" in capsys.readouterr().err
