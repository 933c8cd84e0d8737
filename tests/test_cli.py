"""CLI subcommands, exit codes, and file interfaces."""

import csv
import io
import itertools
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
from coordnet.corpus import KINDS, CorpusError, load_cache, parse_corpus
from coordnet.formats import (
    read_account_list,
    read_edges_csv,
    write_account_list,
    write_edges_csv,
)
from coordnet.sociolinguistics import CHARACTERISTICS, load_confidences
from coordnet.sources import csv_writer

from helpers import (
    BASE_TS,
    FIELDS,
    Edge,
    edge_table,
    edges_of,
    jsonl_line,
    parse_one,
    rec,
    record_to_json,
    records_of,
    subprocess_env,
)


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
        # a clean corpus adds no skipped_<reason> key
        assert manifest["counts"] == {"records": 7, "skipped": 0, "accounts": 4, "days": 2}
        assert manifest["digest"]

    def test_skips_counted_by_reason(self, tmp_path):
        ok = {"tweet_id": "t", "account_id": "a", "timestamp": 0, "kind": "original"}
        bad = {
            "invalid_json": b"not json",
            "not_utf8": json.dumps(dict(ok, text="?")).encode().replace(b"?", b"\xff"),
            "lone_surrogate": json.dumps(dict(ok, text="\ud800")).encode(),
            "not_object": b"[1, 2]",
            "missing_field": json.dumps({"tweet_id": "t", "kind": "original"}).encode(),
            "bad_kind": json.dumps(dict(ok, kind="quote")).encode(),
            "bad_text": json.dumps(dict(ok, text=5)).encode(),
            "bad_language": json.dumps(dict(ok, language=["en"])).encode(),
            "retweet_rule": json.dumps(dict(ok, kind="retweet")).encode(),
            "bad_id": json.dumps(dict(ok, tweet_id=True)).encode(),
            "bad_timestamp": json.dumps(dict(ok, timestamp="someday")).encode(),
            "bad_list": json.dumps(dict(ok, hashtags="x")).encode(),
            # every line above holds tweet_id "t" too, but fails first
            "duplicate_tweet_id": json.dumps(dict(ok, account_id="b", text="x")).encode(),
        }
        src = tmp_path / "mixed.jsonl"
        src.write_bytes(b"\n".join([json.dumps(ok).encode(), *bad.values(), b""]))
        cache = tmp_path / "cache.jsonl"
        assert main(["ingest", str(src), "-o", str(cache)]) == 0
        counts = json.loads((tmp_path / "cache.jsonl.manifest.json").read_text())["counts"]
        assert counts == dict(
            {"records": 1, "skipped": len(bad), "accounts": 1, "days": 1},
            **{f"skipped_{reason}": 1 for reason in bad},
        )

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

    def test_first_record_of_a_tweet_id_kept(self, tmp_path, capsys):
        src = tmp_path / "dup.jsonl"
        src.write_text(
            jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="quote")  # malformed
            + "\n" + jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="original")
            + "\n" + jsonl_line(tweet_id="u", account_id="a", timestamp=0, kind="original")
            + "\n" + jsonl_line(tweet_id="t", account_id="b", timestamp=9, kind="reply")
            + "\n"
        )
        cache = tmp_path / "cache.jsonl"
        assert main(["ingest", str(src), "-o", str(cache)]) == 0
        assert "2 skipped" in capsys.readouterr().err
        counts = json.loads((tmp_path / "cache.jsonl.manifest.json").read_text())["counts"]
        assert counts["skipped_duplicate_tweet_id"] == 1 and counts["skipped_bad_kind"] == 1
        corpus = load_cache(cache)
        assert corpus.tweet_ids == ["t", "u"] and corpus.account_ids == ["a"]
        assert main(["--strict", "ingest", str(src), "-o", str(cache)]) == 1
        assert "line 1: kind must be one of" in capsys.readouterr().err
        src.write_text("\n".join(src.read_text().splitlines()[1:]) + "\n")
        assert main(["--strict", "--json-errors", "ingest", str(src), "-o", str(cache)]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err_lines[0])["line"] == 3
        assert err_lines[1] == "coordnet: error: line 3: duplicate tweet_id 't'"

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


_IMPORT_PROBE = """
import json, sys
import coordnet.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(json.dumps(scipy_modules()))
codes = [coordnet.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, scipy_modules()]))
"""


def test_cli_import_loads_no_scipy_submodules(tmp_path):
    # scipy costs a CLI process time and RSS; only the Spearman p-value
    # loads it (scipy.special, in a report with confidences). detect
    # runs the pair kernel for both vector detectors, and cluster and
    # report find components, all on numpy alone.
    records = []
    for account, ids in (("x", "s"), ("y", "s"), ("z", "u")):
        for i in range(12):
            ts = BASE_TS + (i if account != "z" else 100 + i) * 3600
            records.append(rec(f"{account}{i}", account, ts, "retweet", rt_id=f"{ids}{i}"))
    src, cache, det = tmp_path / "corpus.jsonl", tmp_path / "cache.jsonl", tmp_path / "det"
    write_jsonl(src, records)
    assert main(["ingest", str(src), "-o", str(cache)]) == 0
    stages = [
        ["detect", str(cache), "-o", str(det)],
        ["cluster", str(cache), str(det), "-o", str(tmp_path / "clusters.csv")],
        ["report", str(cache), "-o", str(tmp_path / "bundle"), "--edges", str(det)],
    ]
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(stages)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    after_import, after_stages = out.stdout.strip().splitlines()
    assert json.loads(after_import) == []
    assert json.loads(after_stages) == [[0, 0, 0], []]
    # both vector detectors saw three eligible accounts and kept x-y
    counts = json.loads((det / "detect.manifest.json").read_text())["counts"]
    assert counts["edges_retweet"] == counts["edges_time"] == 1


_NUMPY_PROBE = """
import json, sys
import coordnet.cli

def numpy_modules():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))

try:
    coordnet.cli.main(["--version"])
except SystemExit:
    pass
after_version = numpy_modules()
code = coordnet.cli.main(json.loads(sys.argv[1]))
print(json.dumps([after_version, code, numpy_modules()]))
"""


def test_version_and_ingest_load_no_numpy(tmp_path):
    # Importing numpy is a large share of a short stage; only the stages
    # that compute on arrays load it.
    src, cache = tmp_path / "corpus.jsonl", tmp_path / "cache.jsonl"
    write_jsonl(src, [rec(1, "a", hashtags=["x"]), rec(2, "b", kind="retweet")])
    argv = ["ingest", str(src), "-o", str(cache)]
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argv)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[], 0, []]
    assert len(load_cache(cache)) == 2


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
            by_reason = [n for key, n in counts.items() if key.startswith("skipped_")]
            assert sum(by_reason) == counts["skipped"] and 0 not in by_reason
            strict = main(["--strict", "ingest", str(src), "-o", str(cache)])
            assert strict == (0 if counts["skipped"] == 0 else 1)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(lines=st.lists(_lines, min_size=1, max_size=6))
    def test_columns_match_per_line_path(self, lines):
        # Oracle: parse_corpus on each line alone, then the first valid
        # record of a tweet_id is kept and a later one is a duplicate.
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "input.jsonl"
            src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            records, errors = [], []
            with open(src, encoding="utf-8", errors="surrogateescape") as fp:
                for line_no, line in enumerate(fp, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = parse_one(line)
                    except CorpusError as exc:
                        errors.append(str(exc).replace("line 1:", f"line {line_no}:", 1))
                        continue
                    if record.tweet_id in {r.tweet_id for r in records}:
                        errors.append(f"line {line_no}: duplicate tweet_id {record.tweet_id!r}")
                    else:
                        records.append(record)
            corpus = parse_corpus(src)
            assert (len(corpus), corpus.skipped) == (len(records), len(errors))
            columns = {
                "tweet_id": corpus.tweet_ids,
                "account_id": [corpus.account_ids[c] for c in corpus.account_codes],
                "timestamp": list(corpus.timestamps),
                "kind": [KINDS[k] for k in corpus.kinds],
                "text": corpus.texts,
                "hashtags": corpus.hashtags,
                "language": corpus.languages,
                "retweeted_tweet_id": corpus.retweeted_tweet_ids,
                "retweeted_account_id": corpus.retweeted_account_ids,
                "mentions": corpus.mentions,
            }
            assert tuple(columns) == FIELDS
            for name, column in columns.items():
                assert column == [getattr(r, name) for r in records], name
            if errors:
                with pytest.raises(CorpusError) as info:
                    parse_corpus(src, strict=True)
                assert str(info.value) == errors[0]
            else:
                assert records_of(parse_corpus(src, strict=True)) == records


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
        edges = edges_of(read_edges_csv(outdir / "edges_hashtag.csv"))
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
        assert edges_of(read_edges_csv(outdir / "edges_retweet.csv")) == []
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
        assert edges_of(read_edges_csv(outdir / "edges_hashtag.csv")) == []  # k=6 > run length
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


_EDGE_HEADER = "account_a,account_b,detector,score,evidence\n"
_GOOD_EDGE = "p,q,hashtag,1.0,k\n"
_HEADER_MESSAGE = "edge CSV must start with header account_a,account_b,detector,score,evidence"
_RANGE_MESSAGE = "edge score must be in [0, 1]"
_ORDER_MESSAGE = "edge endpoints must satisfy a < b"

BAD_EDGE_FILES = {
    "bad-header": ("a,b,detector,score,evidence\n" + _GOOD_EDGE, _HEADER_MESSAGE),
    "empty-file": ("", _HEADER_MESSAGE),
    "4-fields": ("x,y,hashtag,1.0\n", "edge row must have 5 fields, got 4"),
    "6-fields": ("x,y,hashtag,1.0,k,extra\n", "edge row must have 5 fields, got 6"),
    "unknown-detector": ("x,y,psychic,1.0,k\n", "unknown detector in edge file: 'psychic'"),
    "a-equals-b": ("x,x,hashtag,1.0,k\n", _ORDER_MESSAGE),
    "a-after-b": ("y,x,hashtag,1.0,k\n", _ORDER_MESSAGE),
    "score-negative": ("x,y,time,-0.5,cosine\n", _RANGE_MESSAGE),
    "score-above-one": ("x,y,time,1.5,cosine\n", _RANGE_MESSAGE),
    "score-nan": ("x,y,time,nan,cosine\n", _RANGE_MESSAGE),
    "score-not-a-number": ("x,y,time,abc,cosine\n", "could not convert string to float: 'abc'"),
    # the first failing check wins: fields, detector, score parse, order, range
    "fields-before-detector": ("x,y,psychic,1.0\n", "edge row must have 5 fields, got 4"),
    "detector-before-score": ("x,y,psychic,abc,k\n", "unknown detector in edge file: 'psychic'"),
    "score-parse-before-order": ("y,x,time,abc,cosine\n", "could not convert string to float: 'abc'"),
    "order-before-range": ("y,x,time,1.5,cosine\n", _ORDER_MESSAGE),
}


class TestEdgeFile:
    """The checks read_edges_csv makes on every row, and their messages."""

    @pytest.mark.parametrize("case", sorted(BAD_EDGE_FILES))
    def test_bad_edge_file_rejected(self, tmp_path, detect_run, capsys, case):
        body, message = BAD_EDGE_FILES[case]
        if "header" not in case and case != "empty-file":
            body = _EDGE_HEADER + _GOOD_EDGE + body
        path = tmp_path / "edges.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_edges_csv(path)
        assert str(info.value) == message
        cache, _ = detect_run
        capsys.readouterr()
        assert main(["cluster", str(cache), str(path), "-o", str(tmp_path / "c.csv")]) == 1
        assert message in capsys.readouterr().err

    def test_write_read_round_trip(self):
        ids = ["a,b", 'q"uote', "line\nbreak", "nul\x00", "nul", " pad ", "é", "z" * 200_000]
        edges = [
            Edge(x, y, detector, score, key)
            for (x, y), detector, score, key in zip(
                itertools.combinations(sorted(ids), 2),
                itertools.cycle(("hashtag", "retweet", "time")),
                itertools.cycle((1.0, 0.1 + 0.2, 0.0, 1 / 3)),
                itertools.cycle(("k|l", "cosine", "x" * 150_000)),
            )
        ]
        fp = io.StringIO(newline="")
        write_edges_csv(edge_table(edges), fp)
        fp.seek(0)
        assert edges_of(read_edges_csv(fp)) == edges

    def test_bare_carriage_return_round_trip(self):
        ids = ["a\rb", "c\rd", "\r", "plain"]
        edges = [
            Edge(x, y, "hashtag", 1.0, key)
            for (x, y), key in zip(
                itertools.combinations(sorted(ids), 2), itertools.cycle(("v\rw|x", "k"))
            )
        ]
        fp = io.StringIO(newline="")
        write_edges_csv(edge_table(edges), fp)
        assert '\n"a\rb","c\rd",hashtag,1.0,k\n"a\rb",plain,hashtag,1.0,"v\rw|x"\n' in fp.getvalue()
        fp.seek(0)
        assert edges_of(read_edges_csv(fp)) == edges

    def test_rows_without_carriage_return_keep_their_bytes(self):
        rows = [("a,b", "line\nbreak", 'q"uote'), ("plain", "", "é")]
        plain = io.StringIO(newline="")
        csv.writer(plain, lineterminator="\n").writerows(rows)
        for strings in (None, [s for row in rows for s in row]):
            fp = io.StringIO(newline="")
            csv_writer(fp, strings).writerows(rows)
            assert fp.getvalue() == plain.getvalue()

    def test_blank_lines_skipped(self, tmp_path, detect_run):
        path = tmp_path / "edges.csv"
        path.write_text(
            _EDGE_HEADER + "\n" + "coord-a,coord-b,hashtag,1.0,k\n\n\n" + "p,q,time,0.5,cosine\n",
            encoding="utf-8",
        )
        edges = edges_of(read_edges_csv(path))
        assert [(e.a, e.b, e.detector, e.score, e.evidence) for e in edges] == [
            ("coord-a", "coord-b", "hashtag", 1.0, "k"),
            ("p", "q", "time", 0.5, "cosine"),
        ]
        cache, _ = detect_run
        out = tmp_path / "c.csv"
        assert main(["cluster", str(cache), str(path), "-o", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert [row[3:] for row in rows[1:]] == [["coord-a", "coord-b"], ["p", "q"]]


class TestAccountList:
    def test_round_trip(self, tmp_path):
        ids = {"a\nb", " pad ", "c", "x,y", 'q"', "r\rs"}
        path = tmp_path / "flagged.txt"
        with open(path, "w", encoding="utf-8", newline="") as fp:
            write_account_list(ids, fp)
        assert read_account_list(path) == ids

    def test_plain_ids_keep_their_bytes(self):
        ids = ["b", " pad ", "a-1", "é", "tab\there"]
        fp = io.StringIO(newline="")
        write_account_list(ids, fp)
        assert fp.getvalue() == "".join(f"{i}\n" for i in sorted(ids))
        assert read_account_list(io.StringIO(fp.getvalue() + "\n", newline="")) == set(ids)


def test_carriage_return_ids_pass_every_stage(tmp_path):
    # Account ids, tweet ids and hashtags holding a lone "\r": every
    # file a stage writes and a later stage reads back reads as written.
    tags = ["v\rw", "w", "x", "y", "z"]
    records = [
        rec("t\r1", "a\rb", BASE_TS, hashtags=tags, text="vote"),
        rec("t2", "c\rd", BASE_TS + 60, hashtags=tags, text="vote"),
        rec("t3", "plain", BASE_TS + 120, text="other"),
    ]
    src, cache, det = tmp_path / "corpus.jsonl", tmp_path / "cache.jsonl", tmp_path / "det"
    conf, clusters = tmp_path / "confidences.csv", tmp_path / "clusters.csv"
    write_jsonl(src, records)
    assert main(["ingest", str(src), "-o", str(cache)]) == 0
    assert main(["detect", str(cache), "-o", str(det)]) == 0
    edges = edges_of(read_edges_csv(det / "edges_hashtag.csv"))
    assert [(e.a, e.b, e.evidence) for e in edges] == [("a\rb", "c\rd", "v\rw|w|x|y|z")]
    assert read_account_list(det / "flagged_union.txt") == {"a\rb", "c\rd"}
    assert main(["cluster", str(cache), str(det), "-o", str(clusters)]) == 0
    with open(clusters, encoding="utf-8", newline="") as fp:
        assert list(csv.reader(fp))[1] == ["1", "2", "v\rw", "a\rb", "c\rd"]
    assert main(["score", str(cache), "-o", str(conf)]) == 0
    assert load_confidences(conf).tweet_ids == ["t\r1", "t2", "t3"]
    bundle = tmp_path / "bundle"
    argv = ["report", str(cache), "-o", str(bundle), "--edges", str(det)]
    assert main(argv + ["--confidences", str(conf)]) == 0
    with open(bundle / "duplicate_shares.csv", encoding="utf-8", newline="") as fp:
        assert [row[0] for row in csv.reader(fp)] == ["account_id", "a\rb", "c\rd", "plain"]


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
        assert manifest["counts"]["confidence_missing_values"] == 0
        assert "bootstrap_b" not in manifest["config"]

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
        counts = json.loads((partial / "manifest.json").read_text())["counts"]
        assert "confidence_missing_values" not in counts

    def test_report_manifest_counts_empty_confidence_cells(self, tmp_path, detect_run):
        cache, det_out = detect_run
        conf, bundle = tmp_path / "conf.csv", tmp_path / "bundle"
        assert main(["score", str(cache), "-o", str(conf)]) == 0
        lines = conf.read_text().splitlines()
        for i in (1, 2):
            cells = lines[i].split(",")
            cells[1] = cells[3] = ""
            lines[i] = ",".join(cells)
        conf.write_text("\n".join(lines) + "\n")
        argv = ["report", str(cache), "-o", str(bundle), "--edges", str(det_out),
                "--confidences", str(conf)]
        assert main(argv) == 0
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["counts"]["confidence_missing_values"] == 4

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

    @pytest.mark.parametrize("flagged", [False, True])
    def test_missing_tweets_counts_corpus_tweets_without_rows(self, tmp_path, flagged):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [rec(i, f"acct-{i % 2}", BASE_TS + 60 * i) for i in range(1, 5)])
        cache = tmp_path / "cache.jsonl"
        main(["ingest", str(corpus), "-o", str(cache)])
        conf = tmp_path / "conf.csv"
        conf.write_text(
            "tweet_id," + ",".join(CHARACTERISTICS) + "\n"
            "1," + ",".join(["0.5"] * len(CHARACTERISTICS)) + "\n"
        )
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "account_a,account_b,detector,score,evidence\n"
            + ("acct-0,acct-1,hashtag,1.0,x\n" if flagged else "")
        )
        bundle = tmp_path / "bundle"
        code = main(["report", str(cache), "-o", str(bundle), "--edges", str(edges),
                     "--confidences", str(conf)])
        assert code == 0
        summary = json.loads((bundle / "summary.json").read_text())
        assert summary["coordinated_accounts"] == (2 if flagged else 0)
        assert summary["sociolinguistics"]["missing_tweets"] == 3

    def test_report_requires_edges(self, tmp_path, detect_run, capsys):
        cache, _ = detect_run
        assert main(["report", str(cache), "-o", str(tmp_path / "b")]) == 1
        assert "--edges" in capsys.readouterr().err

    def test_report_rejects_negative_top_clusters(self, tmp_path, detect_run, capsys):
        # clusters[:-1] would silently drop the last cluster
        cache, det_out = detect_run
        bundle = tmp_path / "b"
        argv = ["report", str(cache), "-o", str(bundle), "--edges", str(det_out),
                "--top-clusters", "-1"]
        assert main(argv) == 1
        assert "--top-clusters must be at least 0, got -1" in capsys.readouterr().err
        assert not bundle.exists()

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


def _confidence_csv(last_cell):
    head = "tweet_id," + ",".join(CHARACTERISTICS) + "\n"
    return head + "1," + ",".join(["0.5"] * (len(CHARACTERISTICS) - 1) + [last_cell]) + "\n"


class TestCsvInputs:
    def test_long_hashtags_pass_every_stage(self, tmp_path):
        # the evidence key joins five 30,000-character tags: 150,004
        # characters, more than the csv module's default field limit
        tags = ["v" * 30_000, "w" * 30_000, "x" * 30_000, "y" * 30_000, "z" * 30_000]
        src = tmp_path / "corpus.jsonl"
        write_jsonl(
            src,
            [
                rec(1, "coord-a", BASE_TS, hashtags=tags),
                rec(2, "coord-b", BASE_TS + 60, hashtags=tags),
                rec(3, "plain", BASE_TS + 120, hashtags=["x"]),
            ],
        )
        cache, det, clusters = tmp_path / "cache.jsonl", tmp_path / "det", tmp_path / "c.csv"
        assert main(["ingest", str(src), "-o", str(cache)]) == 0
        assert main(["detect", str(cache), "-o", str(det)]) == 0
        assert main(["cluster", str(cache), str(det), "-o", str(clusters)]) == 0
        bundle = tmp_path / "bundle"
        assert main(["report", str(cache), "-o", str(bundle), "--edges", str(det)]) == 0
        edges = edges_of(read_edges_csv(det / "edges_hashtag.csv"))
        assert [e.evidence for e in edges] == ["|".join(tags)]
        for path in (clusters, bundle / "clusters.csv"):
            rows = list(csv.reader(path.open()))
            assert [row[:2] + row[3:] for row in rows[1:]] == [["1", "2", "coord-a", "coord-b"]]
        summary = json.loads((bundle / "summary.json").read_text())
        assert summary["coordinated_accounts"] == 2

    @pytest.mark.parametrize("fault", ["broken-quote", "oversized-field"])
    @pytest.mark.parametrize("reader", ["confidences", "lexicon", "stats"])
    def test_csv_error_is_located_validation_error(
        self, tmp_path, detect_run, capsys, reader, fault
    ):
        # a quote that never closes runs on to the end of the file, past
        # the csv module's field limit, as one oversized field does
        cache, det = detect_run
        bad = tmp_path / "bad.csv"
        out = str(tmp_path / "out")
        cell = '"0.5\n' + "0.5\n" * 50_000 if fault == "broken-quote" else "9" * 200_000
        if reader == "confidences":
            bad.write_text(_confidence_csv(cell))
            argv = ["report", str(cache), "-o", out, "--edges", str(det), "--confidences", str(bad)]
        elif reader == "lexicon":
            bad.write_text("characteristic,phrase,weight\nvote_for,vote," + cell + "\n")
            argv = ["score", str(cache), "-o", out, "--lexicon", str(bad)]
        else:
            bad.write_text("x,y\n1,10\n2," + cell + "\n")
            argv = ["stats", "spearman", "--csv", str(bad), "--x", "x", "--y", "y"]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{bad}, line " in err and "field larger than field limit (131072)" in err

    @pytest.mark.parametrize("reader", ["edges", "confidences", "lexicon", "stats"])
    def test_unclosed_quote_is_located_error(self, tmp_path, detect_run, capsys, reader):
        # a quote that never closes, under the field limit, followed by
        # rows it would swallow if the reader were not strict
        cache, det = detect_run
        bad = tmp_path / "bad.csv"
        out = str(tmp_path / "out")
        cell = '"k\n'
        if reader == "edges":
            bad.write_text(_EDGE_HEADER + "a,b,hashtag,1.0," + cell + _GOOD_EDGE + "p,q,time,0.5,cosine\n")
            argv = ["cluster", str(cache), str(bad), "-o", out]
        elif reader == "confidences":
            bad.write_text(_confidence_csv(cell) + "2," + ",".join(["0.5"] * len(CHARACTERISTICS)) + "\n")
            argv = ["report", str(cache), "-o", out, "--edges", str(det), "--confidences", str(bad)]
        elif reader == "lexicon":
            bad.write_text("characteristic,phrase,weight\nvote_for,vote," + cell + "vote_for,poll,1.0\n")
            argv = ["score", str(cache), "-o", out, "--lexicon", str(bad)]
        else:
            bad.write_text("x,y\n1,10\n2," + cell + "3,30\n4,40\n")
            argv = ["stats", "spearman", "--csv", str(bad), "--x", "x", "--y", "y"]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{bad}, line " in err and "unexpected end of data" in err


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

    @pytest.mark.parametrize("b", ["-1", "0", "1"])
    def test_bootstrap_rejects_fewer_than_two_resamples(self, tmp_path, capsys, b):
        path = tmp_path / "data.csv"
        path.write_text("v\n0\n1\n")
        assert main(["stats", "bootstrap", "--csv", str(path), "--col", "v", "--resamples", b]) == 1
        assert f"requires at least 2 resamples, got {b}" in capsys.readouterr().err

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
