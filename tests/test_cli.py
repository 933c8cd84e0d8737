"""CLI subcommands, exit codes, and file interfaces."""

import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordnet import formats
from coordnet.cli import load_config_file, main
from coordnet.config import DETECTORS, DetectorConfig, ReportConfig
from coordnet.corpus import KINDS, CorpusError, load_cache, parse_corpus
from coordnet.formats import (
    read_account_list,
    read_edges_csv,
    write_account_list,
    write_edges_csv,
)
from coordnet.manifest import file_sha256
from coordnet.sociolinguistics import CHARACTERISTICS, load_confidences, load_lexicon
from coordnet.sources import csv_writer

from helpers import (
    BASE_TS,
    FIELDS,
    column,
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


def cache_holding(tmp_path, ids):
    """A cache with one original tweet by each of ids, for edge files
    whose accounts no detect run wrote."""
    src, cache = tmp_path / "holders.jsonl", tmp_path / "holders.cache.jsonl"
    write_jsonl(src, [rec(f"h{i}", a, BASE_TS + i) for i, a in enumerate(ids)])
    assert main(["ingest", str(src), "-o", str(cache)]) == 0
    return cache


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
            "bad_hashtag": json.dumps(dict(ok, hashtags=["A", "b|c"])).encode(),
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

    def test_hashtag_holding_the_key_separator_skipped(self, tmp_path, capsys):
        # ["a|b", "c"] and ["a", "b|c"] share no hashtag, but joined into
        # 2-gram keys with "|" they would share "a|b|c"
        src = tmp_path / "pipes.jsonl"
        write_jsonl(src, [rec(1, "x", hashtags=["a|b", "c"]), rec(2, "y", hashtags=["a", "b|c"])])
        cache = tmp_path / "cache.jsonl"
        assert main(["ingest", str(src), "-o", str(cache)]) == 0
        counts = json.loads((tmp_path / "cache.jsonl.manifest.json").read_text())["counts"]
        assert counts == {"records": 0, "skipped": 2, "skipped_bad_hashtag": 2, "accounts": 0, "days": 0}
        assert main(["--strict", "ingest", str(src), "-o", str(cache)]) == 1
        assert "line 1: a hashtag holds '|'" in capsys.readouterr().err

    def test_piped_input_records_no_digest(self, tmp_path, small_corpus_file):
        # <(cat corpus.jsonl): the stage drains the pipe, so reading it
        # again for a digest would digest an empty stream. (An anonymous
        # pipe, not a FIFO, so a second read ends at once instead of
        # waiting for a writer.) A regular file keeps its digest.
        data = small_corpus_file.read_bytes()
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        assert main(["ingest", f"/dev/fd/{read_end}", "-o", str(tmp_path / "piped.jsonl")]) == 0
        os.close(read_end)
        assert main(["ingest", str(small_corpus_file), "-o", str(tmp_path / "file.jsonl")]) == 0
        piped, plain = (
            json.loads((tmp_path / f"{name}.jsonl.manifest.json").read_text())
            for name in ("piped", "file")
        )
        assert piped["inputs"]["corpus"] == {"path": str(read_end), "sha256": None, "bytes": None}
        assert plain["inputs"]["corpus"] == {
            "path": "corpus.jsonl",
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
        assert piped["counts"] == plain["counts"]
        assert piped["artifacts"]["piped.jsonl"] == plain["artifacts"]["file.jsonl"]

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
import contextlib, io, json, sys
import coordnet.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(json.dumps(scipy_modules()))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = coordnet.cli.main(argv)
    print(json.dumps([argv[0], code, scipy_modules()]))
"""

# lexicon phrases for every language, so each tweet scores on a few
# characteristics and the confidence columns correlate
_PHRASES = ("vote for", "vote against", "scandal", "economy", "terrorism", "religion", "taxes")


def _probe_corpus(tmp_path):
    """Three accounts of 12 retweets carrying lexicon phrases, ingested:
    x and y retweet the same tweets in the same hours, and post one
    original each with the same five hashtags. Returns the cache."""
    rnd = random.Random(11)
    records = []
    for account, ids in (("x", "s"), ("y", "s"), ("z", "u")):
        for i in range(12):
            ts = BASE_TS + (i if account != "z" else 100 + i) * 3600
            text = " and ".join(p for p in _PHRASES if rnd.random() < 0.4)
            records.append(rec(f"{account}{i}", account, ts, "retweet", text=text, rt_id=f"{ids}{i}"))
    tags = ["h1", "h2", "h3", "h4", "h5"]
    records += [rec(f"{a}-tags", a, BASE_TS + 50 * 3600, hashtags=tags) for a in ("x", "y")]
    src, cache = tmp_path / "corpus.jsonl", tmp_path / "cache.jsonl"
    write_jsonl(src, records)
    assert main(["ingest", str(src), "-o", str(cache)]) == 0
    return cache


def test_cli_import_loads_no_scipy_submodules(tmp_path):
    # scipy would cost a CLI process time and RSS, and no stage needs it:
    # detect runs the pair kernel for both vector detectors, cluster and
    # report find components on numpy alone, and the Spearman p-value of
    # report --confidences and stats spearman is computed in stats.
    cache = _probe_corpus(tmp_path)
    det, conf = tmp_path / "det", tmp_path / "conf.csv"
    stages = [
        ["detect", str(cache), "-o", str(det)],
        ["cluster", str(cache), str(det), "-o", str(tmp_path / "clusters.csv")],
        ["score", str(cache), "-o", str(conf)],
        ["report", str(cache), "-o", str(tmp_path / "bundle"), "--edges", str(det),
         "--confidences", str(conf)],
        ["stats", "spearman", "--csv", str(conf), "--x", "vote_for", "--y", "economy"],
    ]
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(stages)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    after_import, *after_stages = out.stdout.strip().splitlines()
    assert json.loads(after_import) == []
    assert [json.loads(line) for line in after_stages] == [[argv[0], 0, []] for argv in stages]
    # both vector detectors saw three eligible accounts and kept x-y
    counts = json.loads((det / "detect.manifest.json").read_text())["counts"]
    assert counts["edges_retweet"] == counts["edges_time"] == 1
    # the report reached the p-value
    pvalues = list(csv.reader((tmp_path / "bundle" / "correlation_pvalues.csv").open()))
    assert any(cell not in ("", "0.0") for row in pvalues[1:] for cell in row[1:])


def test_correlation_bundle_cells_are_plain_numbers(tmp_path):
    # Under numpy 2 an np.float64 reaching formats.fmt is written as
    # "np.float64(...)", which float() cannot read back.
    cache = _probe_corpus(tmp_path)
    det, conf, bundle = tmp_path / "det", tmp_path / "conf.csv", tmp_path / "bundle"
    assert main(["detect", str(cache), "-o", str(det)]) == 0
    assert main(["score", str(cache), "-o", str(conf)]) == 0
    assert main(["report", str(cache), "-o", str(bundle), "--edges", str(det), "--confidences", str(conf)]) == 0
    for name, lo, hi in (("correlations.csv", -1.0, 1.0), ("correlation_pvalues.csv", 0.0, 1.0)):
        rows = list(csv.reader((bundle / name).open()))
        cells = [cell for row in rows[1:] for cell in row[1:] if cell]
        assert len(cells) > len(CHARACTERISTICS), name  # more than the diagonal
        for cell in cells:
            assert lo <= float(cell) <= hi, (name, cell)


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
    # that compute on arrays load it, and ingest and score do not.
    src, cache = tmp_path / "corpus.jsonl", tmp_path / "cache.jsonl"
    conf = tmp_path / "conf.csv"
    write_jsonl(src, [rec(1, "a", hashtags=["x"], text="vote for taxes"),
                      rec(2, "b", kind="retweet")])
    for argv in (["ingest", str(src), "-o", str(cache)], ["score", str(cache), "-o", str(conf)]):
        out = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argv)],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [[], 0, []]
    assert len(load_cache(cache)) == 2
    assert load_confidences(conf).tweet_ids == ["1", "2"]


_MODULE_PROBE = """
import json, sys
import coordnet.cli

code = coordnet.cli.main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.startswith("coordnet"))
print(json.dumps([code, loaded, "numpy.ma" in sys.modules]))
"""


@pytest.mark.parametrize(
    "stage, unloaded",
    [
        ("cluster", ["report", "sociolinguistics", "stats", "detectors", "kernels", "_pairsim_py"]),
        ("report", ["detectors", "kernels", "_pairsim_py"]),
        ("report-confidences", ["detectors", "kernels", "_pairsim_py"]),
        ("score", ["formats", "graph", "stats", "report", "detectors", "kernels", "_pairsim_py"]),
        ("detect", ["report", "sociolinguistics", "stats", "graph"]),
    ],
)
def test_stages_load_only_the_modules_they_run(tmp_path, stage, unloaded):
    # A module a stage imports but never runs is start-up time in every
    # run; np.median's first call imports numpy.ma, and so does np.unique
    # when it returns neither index, inverse nor counts.
    cache = _probe_corpus(tmp_path)
    det, conf = tmp_path / "det", tmp_path / "conf.csv"
    assert main(["detect", str(cache), "-o", str(det)]) == 0
    assert (det / "edges_hashtag.csv").read_text().count("\n") == 2  # x-y, h1|h2|h3|h4|h5
    argv = {
        "detect": ["detect", str(cache), "-o", str(tmp_path / "det2")],
        "cluster": ["cluster", str(cache), str(det), "-o", str(tmp_path / "clusters.csv")],
        "report": ["report", str(cache), "-o", str(tmp_path / "b"), "--edges", str(det)],
        "report-confidences": ["report", str(cache), "-o", str(tmp_path / "b"), "--edges",
                               str(det), "--confidences", str(conf)],
        "score": ["score", str(cache), "-o", str(conf)],
    }[stage]
    if stage == "report-confidences":
        assert main(["score", str(cache), "-o", str(conf)]) == 0
    out = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(argv)],
        env=subprocess_env(), capture_output=True, text=True, check=True,
    )
    code, loaded, numpy_ma = json.loads(out.stdout.strip().splitlines()[-1])
    assert code == 0
    assert [m for m in unloaded if f"coordnet.{m}" in loaded] == []
    assert not numpy_ma


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
                "text": column(corpus, "texts"),
                "hashtags": column(corpus, "hashtags"),
                "language": column(corpus, "languages"),
                "retweeted_tweet_id": column(corpus, "retweeted_tweet_ids"),
                "retweeted_account_id": column(corpus, "retweeted_account_ids"),
                "mentions": column(corpus, "mentions"),
            }
            assert tuple(columns) == FIELDS
            for name, values in columns.items():
                assert values == [getattr(r, name) for r in records], name
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

    def test_unknown_detector_writes_nothing(self, tmp_path, capsys):
        # the names are checked before the cache is read (this one does
        # not exist) and before the output directory is made
        out = tmp_path / "x"
        argv = ["detect", str(tmp_path / "missing.jsonl"), "-o", str(out), "--detectors", "time,bogus"]
        assert main(argv) == 1
        assert "unknown detectors: ['bogus']" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_lists_only_the_files_this_run_wrote(self, tmp_path, detect_run):
        cache, first = detect_run
        outdir = tmp_path / "again"
        (outdir / "sub").mkdir(parents=True)
        (outdir / "stale.txt").write_text("left over\n")
        assert main(["detect", str(cache), "-o", str(outdir)]) == 0
        manifest = json.loads((outdir / "detect.manifest.json").read_text())
        assert manifest["artifacts"] == json.loads(
            (first / "detect.manifest.json").read_text()
        )["artifacts"]
        assert sorted(manifest["artifacts"]) == sorted(
            [f"edges_{d}.csv" for d in DETECTORS] + [f"flagged_{d}.txt" for d in DETECTORS]
            + ["flagged_union.txt", "overlap.json"]
        )

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


class TestSettings:
    """Every DetectorConfig and ReportConfig field: one parse for its
    config file line and its flag; the flag wins over the file, the file
    over the default."""

    @pytest.mark.parametrize(
        "line", ["hashtag_k = 1_0", "retweet_top_frac = 0.0_5", "binarize_threshold = 0.2_5"]
    )
    def test_config_number_with_underscore_is_located_error(
        self, tmp_path, detect_run, capsys, line
    ):
        # int() and float() read "1_0" as 10
        cache, _ = detect_run
        config = tmp_path / "bad.conf"
        config.write_text(f"# settings\n{line}\n")
        out = tmp_path / "x"
        assert main(["--config", str(config), "detect", str(cache), "-o", str(out)]) == 1
        value = line.split(" = ")[1]
        assert f"{config}:2: not a number: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config-file"])
    def test_time_bin_wider_than_int64_seconds_is_rejected_first(self, tmp_path, capsys, route):
        # the time detector divides int64 timestamps by the bin width in
        # seconds: one minute more overflowed there (exit 3)
        widest = (2**63 - 1) // 60
        assert DetectorConfig(time_bin_minutes=widest).time_bin_minutes == widest
        argv = ["detect", str(tmp_path / "no-cache.jsonl"), "-o", str(tmp_path / "x")]
        if route == "flag":
            argv += ["--time-bin-minutes", str(widest + 1)]
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"time_bin_minutes = {widest + 1}\n")
            argv = ["--config", str(config), *argv]
        assert main(argv) == 1
        assert f"time_bin_minutes must be <= {widest}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, message",
        [
            ("detect", ["--hashtag-k", "1_0"], "invalid int value: '1_0'"),
            ("detect", ["--time-threshold", "0.9_9"], "invalid float value: '0.9_9'"),
            ("report", ["--top-clusters", "0_1"], "invalid int value: '0_1'"),
            ("report", ["--binarize-threshold", "0.2_5"], "invalid float value: '0.2_5'"),
        ],
    )
    def test_flag_number_with_underscore_is_usage_error(
        self, tmp_path, detect_run, capsys, command, flag, message
    ):
        cache, det_out = detect_run
        argv = [command, str(cache), "-o", str(tmp_path / "x"), *flag]
        if command == "report":
            argv += ["--edges", str(det_out)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {flag[0]}: {message}" in capsys.readouterr().err

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# settings\n   # indented comment\n"
            "story_hashtags = A,#b # two tags\nhashtag_k = 6\t# after a tab\n"
        )
        values = load_config_file(config)
        assert values == {"story_hashtags": ("A", "#b"), "hashtag_k": 6}
        assert ReportConfig(story_hashtags=values["story_hashtags"]).story_hashtags == ("a", "b")

    @pytest.mark.parametrize(
        "line, value",
        [
            ("story_hashtags = #leak,#vote", "#leak,#vote"),
            ("story_hashtags=#leak", "#leak"),
            ("top_clusters =\t#5 # five", "#5"),
        ],
    )
    def test_value_starting_with_hash_is_located_error(
        self, tmp_path, detect_run, capsys, line, value
    ):
        # a "#" after whitespace starts a comment, so "#leak,#vote" read
        # as a comment would leave the run with no story tags
        cache, det_out = detect_run
        config = tmp_path / "bad.conf"
        config.write_text(f"# settings\n{line}\n")
        bundle = tmp_path / "b"
        argv = ["--config", str(config), "report", str(cache), "-o", str(bundle), "--edges", str(det_out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{config}:2: value starts with '#': {value!r}; write tags without '#'" in err
        assert not bundle.exists()

    def test_hash_then_space_is_an_empty_value_and_a_comment(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("story_hashtags =   # none yet\n")
        assert load_config_file(config) == {"story_hashtags": ()}
        config.write_text("top_clusters = # five\n")
        with pytest.raises(ValueError) as info:
            load_config_file(config)
        assert str(info.value) == f"{config}:1: not a number: ''"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_config_byte_not_utf8_is_located_error(self, tmp_path, detect_run, capsys, newline):
        # a Latin-1 "é" in the comment on line 3, counted as text reading
        # counts lines: "\r\n" and a lone "\r" end one line each
        cache, _ = detect_run
        config = tmp_path / "bad.conf"
        lines = ["hashtag_k = 5", "", "# r\xe9glages", "top_clusters = 2", ""]
        config.write_bytes(newline.join(lines).encode("latin-1"))
        with pytest.raises(ValueError) as info:
            load_config_file(config)
        assert str(info.value) == f"{config}:3: not valid UTF-8"
        out = tmp_path / "x"
        assert main(["--config", str(config), "detect", str(cache), "-o", str(out)]) == 1
        assert f"{config}:3: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()
        # the same bytes in UTF-8 read as before
        config.write_bytes(newline.join(lines).encode("utf-8"))
        assert load_config_file(config) == {"hashtag_k": 5, "top_clusters": 2}

    def test_story_hashtags_distinct_and_non_empty(self):
        tags = ReportConfig(story_hashtags=("#", "a", "A", "#a", "##B", "c")).story_hashtags
        assert tags == ("a", "b", "c")

    def test_report_takes_no_detector_flags(self, tmp_path, detect_run, capsys):
        cache, det_out = detect_run
        argv = ["report", str(cache), "-o", str(tmp_path / "b"), "--edges", str(det_out)]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--hashtag-k", "6"])
        assert info.value.code == 2
        assert "unrecognized arguments: --hashtag-k 6" in capsys.readouterr().err

    def test_report_settings_from_flag_then_file_then_default(self, tmp_path, detect_run):
        cache, det_out = detect_run
        config = tmp_path / "run.conf"
        config.write_text("hashtag_k = 6\nstory_hashtags = LeakStory\ntop_clusters = 0\n")
        bundle = tmp_path / "b"
        argv = ["--config", str(config), "report", str(cache), "-o", str(bundle),
                "--edges", str(det_out), "--top-clusters", "2", "--story-hashtags", ""]
        assert main(argv) == 0
        snapshot = json.loads((bundle / "manifest.json").read_text())["config"]
        assert "hashtag_k" not in snapshot  # report uses no detector setting
        assert snapshot["story_hashtags"] == ["leakstory"]  # an empty flag keeps the file's
        assert snapshot["top_clusters"] == 2  # flag over file
        assert snapshot["duplicate_scope"] == "account"  # default
        summary = json.loads((bundle / "summary.json").read_text())
        assert summary["story_share"]["hashtags"] == ["leakstory"]
        assert len(summary["clusters"]) == 1  # the one cluster, under a limit of 2

    def test_defaults_in_config_file_change_no_byte(self, tmp_path, detect_run):
        cache, _ = detect_run
        lines = [
            f"{f.name} = {','.join(f.default) if isinstance(f.default, tuple) else f.default}"
            for cls in (DetectorConfig, ReportConfig)
            for f in fields(cls)
        ]
        assert len(lines) == 10
        config = tmp_path / "defaults.conf"
        config.write_text("\n".join(lines) + "\n")
        conf = tmp_path / "conf.csv"
        assert main(["score", str(cache), "-o", str(conf)]) == 0
        outputs = []
        for name, prefix in (("plain", []), ("config", ["--config", str(config)])):
            det, bundle = tmp_path / name / "det", tmp_path / name / "bundle"
            assert main(prefix + ["detect", str(cache), "-o", str(det)]) == 0
            assert main(prefix + ["report", str(cache), "-o", str(bundle), "--edges", str(det),
                                  "--confidences", str(conf)]) == 0
            root = tmp_path / name
            outputs.append(
                {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
            )
        assert len(outputs[0]) == 21
        assert outputs[1] == outputs[0]


_EDGE_HEADER = "account_a,account_b,detector,score,evidence\n"
_GOOD_EDGE = "p,q,hashtag,1.0,k\n"
_HEADER_MESSAGE = "edge CSV must start with header account_a,account_b,detector,score,evidence"
# A bad row names the file (the test's path fills {}) and its line: the
# third, after the header and a good row.
_ROW = "{}, line 3: "
_RANGE_MESSAGE = _ROW + "edge score must be in [0, 1]"
_ORDER_MESSAGE = _ROW + "edge endpoints must satisfy a < b"

BAD_EDGE_FILES = {
    "bad-header": ("a,b,detector,score,evidence\n" + _GOOD_EDGE, _HEADER_MESSAGE),
    "empty-file": ("", _HEADER_MESSAGE),
    "4-fields": ("x,y,hashtag,1.0\n", _ROW + "edge row must have 5 fields, got 4"),
    "6-fields": ("x,y,hashtag,1.0,k,extra\n", _ROW + "edge row must have 5 fields, got 6"),
    "unknown-detector": ("x,y,psychic,1.0,k\n", _ROW + "unknown detector in edge file: 'psychic'"),
    "a-equals-b": ("x,x,hashtag,1.0,k\n", _ORDER_MESSAGE),
    "a-after-b": ("y,x,hashtag,1.0,k\n", _ORDER_MESSAGE),
    "score-negative": ("x,y,time,-0.5,cosine\n", _RANGE_MESSAGE),
    "score-above-one": ("x,y,time,1.5,cosine\n", _RANGE_MESSAGE),
    "score-nan": ("x,y,time,nan,cosine\n", _RANGE_MESSAGE),
    "score-not-a-number": ("x,y,time,abc,cosine\n", _ROW + "edge score is not a number: 'abc'"),
    # float() reads "0.2_5" as 0.25; no writer puts "_" in a score
    "score-underscore": ("x,y,time,0.2_5,cosine\n", _ROW + "edge score is not a number: '0.2_5'"),
    # the first failing check wins: fields, detector, score parse, order, range
    "fields-before-detector": ("x,y,psychic,1.0\n", _ROW + "edge row must have 5 fields, got 4"),
    "detector-before-score": ("x,y,psychic,abc,k\n", _ROW + "unknown detector in edge file: 'psychic'"),
    "score-parse-before-order": ("y,x,time,abc,cosine\n", _ROW + "edge score is not a number: 'abc'"),
    "order-before-range": ("y,x,time,1.5,cosine\n", _ORDER_MESSAGE),
}



def _no_row_loop(source):
    raise AssertionError("the row loop read a file the block reader splits")


def read_back(fp, tmp_path, monkeypatch):
    """read_edges_csv of a file holding what fp holds. A file that needs
    no CSV quoting and holds no blank line is read by the block reader
    alone: the row loop raises."""
    text = fp.getvalue()
    path = tmp_path / "read_back.csv"
    path.write_bytes(text.encode("utf-8"))
    plain = "\n\n" not in text and not any(b.decode() in text for b in formats._ROW_LOOP_BYTES)
    with monkeypatch.context() as patch:
        if plain:
            patch.setattr(formats, "_read_edges_rows", _no_row_loop)
        return read_edges_csv(path)


def same_table(got, want):
    """Two EdgeTables hold the same ids, keys and columns, score bits and
    dtypes included."""
    assert got.accounts == want.accounts
    assert got.keys == want.keys
    for column in ("a", "b", "detector", "score", "evidence"):
        x, y = getattr(got, column), getattr(want, column)
        assert x.dtype == y.dtype, column
        assert x.tobytes() == y.tobytes(), column


class TestEdgeFile:
    """The checks read_edges_csv makes on every row, and their messages."""

    @pytest.mark.parametrize("case", sorted(BAD_EDGE_FILES))
    def test_bad_edge_file_rejected(self, tmp_path, detect_run, capsys, case):
        body, message = BAD_EDGE_FILES[case]
        if "header" not in case and case != "empty-file":
            body = _EDGE_HEADER + _GOOD_EDGE + body
        path = tmp_path / "edges.csv"
        path.write_text(body, encoding="utf-8")
        message = message.format(path)
        with pytest.raises(ValueError) as info:
            read_edges_csv(path)
        assert str(info.value) == message
        cache, _ = detect_run
        capsys.readouterr()
        assert main(["cluster", str(cache), str(path), "-o", str(tmp_path / "c.csv")]) == 1
        assert message in capsys.readouterr().err

    def test_write_read_round_trip(self, tmp_path, monkeypatch):
        quoted = ["a,b", 'q"uote', "line\nbreak"]
        plain = ["nul\x00", "nul", " pad ", "é", "z" * 200_000, "10", "9"]
        for ids in (quoted + plain, plain):
            edges = [
                Edge(x, y, detector, score, key)
                for (x, y), detector, score, key in zip(
                    itertools.combinations(sorted(ids), 2),
                    itertools.cycle(("hashtag", "retweet", "time")),
                    itertools.cycle((1.0, 0.1 + 0.2, 0.0, 1 / 3)),
                    itertools.cycle(("k|l", "cosine", "x" * 150_000, "")),
                )
            ]
            fp = io.StringIO(newline="")
            write_edges_csv(edge_table(edges), fp)
            assert edges_of(read_back(fp, tmp_path, monkeypatch)) == edges
            # a text source, not a path, is read by the row loop
            assert edges_of(read_edges_csv(io.StringIO(fp.getvalue(), newline=""))) == edges

    def test_bare_carriage_return_round_trip(self, tmp_path, monkeypatch):
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
        assert edges_of(read_back(fp, tmp_path, monkeypatch)) == edges

    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("lone_cr", [False, True])
    def test_written_bytes_match_csv_writer_at_any_block_size(
        self, tmp_path, monkeypatch, block, lone_cr
    ):
        # the writer renders each string once and joins rows a block at
        # a time; csv_writer writing one row per edge is the reference
        if block is not None:
            monkeypatch.setattr(formats, "_WRITE_ROWS", block)
        quoted = ["a,b", 'q"uote', "line\nbreak"] + (["lone\rcr"] if lone_cr else [])
        plain = ["plain", " pad ", "10", "9", "é", "z"]
        # the second file needs no quoting, so the block reader reads it
        for ids, keys in (
            (quoted + plain, ("", "k|l", 'x,"y"', "cosine") + (("v\rw",) if lone_cr else ())),
            (plain, ("", "k|l", "cosine")),
        ):
            edges = [
                Edge(x, y, detector, score, key)
                for (x, y), detector, score, key in zip(
                    itertools.combinations(sorted(ids), 2),
                    itertools.cycle(("hashtag", "retweet", "time")),
                    itertools.cycle((1.0, 0.1 + 0.2, 0.0, 1 / 3, 1e-05, -0.0)),
                    itertools.cycle(keys),
                )
            ]
            want = io.StringIO(newline="")
            writer = csv_writer(want, [s for e in edges for s in (e.a, e.b, e.evidence)])
            writer.writerow(formats.EDGE_HEADER)
            writer.writerows((e.a, e.b, e.detector, repr(e.score), e.evidence) for e in edges)
            got = io.StringIO(newline="")
            write_edges_csv(edge_table(edges), got)
            assert got.getvalue() == want.getvalue()
            assert ",hashtag,1.0,\n" in got.getvalue()  # an empty key is an empty cell
            assert edges_of(read_back(got, tmp_path, monkeypatch)) == edges

    def test_rows_without_carriage_return_keep_their_bytes(self):
        rows = [("a,b", "line\nbreak", 'q"uote'), ("plain", "", "é")]
        plain = io.StringIO(newline="")
        csv.writer(plain, lineterminator="\n").writerows(rows)
        for strings in (None, [s for row in rows for s in row]):
            fp = io.StringIO(newline="")
            csv_writer(fp, strings).writerows(rows)
            assert fp.getvalue() == plain.getvalue()

    def test_blank_lines_skipped(self, tmp_path):
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
        cache = cache_holding(tmp_path, ["coord-a", "coord-b", "p", "q"])
        out = tmp_path / "c.csv"
        assert main(["cluster", str(cache), str(path), "-o", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert [row[3:] for row in rows[1:]] == [["coord-a", "coord-b"], ["p", "q"]]



# The lowest character, which both readers read.
_LOWEST = "\x00"
# Ids of 1 to 17 bytes, among them pairs that differ only by a trailing
# NUL, and ids of one length from 8 bytes up in pairs, so each way the
# block reader keys a field (an integer of up to 8 bytes, a length byte
# under 8, a string of words over 8) meets equal and unequal fields.
_ORACLE_IDS = [
    "10", "9", "a", "a" + _LOWEST, "z", "é", "é|x", " pad ",
    "abcdefg", "abcdefg" + _LOWEST, "abcdefgh", "abcdefgh" + _LOWEST,
    "u" * 9, "u" * 8 + "v", "w" * 17, "w" * 16 + _LOWEST,
]


def _oracle_edge_text(rows):
    """The lines of an edge file of rows pairs of _ORACLE_IDS in str
    order (not byte-length or numeric order) with every detector,
    scores whose text round-trips exactly, and keys among them an empty
    one, drawn afresh for every row."""
    pairs = [(x, y) for x, y in itertools.combinations(_ORACLE_IDS, 2) if x != y]
    scores = ("1e-05", "-0.0", "0.30000000000000004", "1.0", "0.0", "0.5")
    keys = ("", "k|l", "#a|#b|#c|#d|#e", "#a|#b|#c|#d|#f", "x" * 40, "é|ü", "cosine")
    rng = random.Random(rows)
    lines = [_EDGE_HEADER]
    for i in range(rows):
        x, y = sorted(rng.choice(pairs))
        detector = ("hashtag", "retweet", "time")[i % 3]
        lines.append(f"{x},{y},{detector},{rng.choice(scores)},{rng.choice(keys)}\n")
    return lines


def _oracle_run_text(rows):
    """The lines of an edge file of rows pairs of _ORACLE_IDS as the
    writer orders them (by account_a, then account_b) whose detector,
    score and key come in runs: the first 3/8 of the rows hold one
    detector, score and 14-byte key, the last 3/8 others with the empty
    key, and each row of the quarter between draws its own detector,
    score and one of 50 keys."""
    rng = random.Random(rows)
    pairs = sorted(tuple(sorted(rng.sample(_ORACLE_IDS, 2))) for _ in range(rows))
    lines = [_EDGE_HEADER]
    for i, (x, y) in enumerate(pairs):
        if i < 3 * rows // 8:
            rest = "hashtag,1.0,#a|#b|#c|#d|#e"
        elif i < 5 * rows // 8:
            detector = rng.choice(("hashtag", "retweet", "time"))
            rest = f"{detector},{rng.random()!r},k{rng.randrange(50)}|{'x' * rng.randrange(12)}"
        else:
            rest = "retweet,0.30000000000000004,"
        lines.append(f"{x},{y},{rest}\n")
    return lines


class TestEdgeBlocks:
    """The block reader against the row loop, which stays the reference:
    the same table for every file the block reader splits, and the same
    message for every file it hands back."""

    @staticmethod
    def variants(lines):
        """name -> (file text, whether the block reader splits it)."""
        text = "".join(lines)
        late = len(lines) - 3
        return {
            "plain": (text, True),
            "no-final-newline": (text[:-1], True),
            "blank-lines": ("".join(lines[:1] + ["\n"] + lines[1:late] + ["\n\n"] + lines[late:]), False),
            "crlf": (text.replace("\n", "\r\n"), False),
            "crlf-rows": (lines[0] + "".join(lines[1:]).replace("\n", "\r\n"), False),
            "late-quoted-id": ("".join(lines[:late] + ['"qx",z,hashtag,1.0,k\n'] + lines[late:]), False),
        }

    def same_as_row_loop(self, tmp_path, monkeypatch, read_bytes, lines):
        """Every variant of lines read with _READ_BYTES read_bytes ("line":
        the first row's length; None: the default) gives the row loop's
        table, by the block reader when the variant allows it."""
        if read_bytes == "line":
            read_bytes = len(lines[1].encode())
        if read_bytes is not None:
            monkeypatch.setattr(formats, "_READ_BYTES", read_bytes)
        row_loop = formats._read_edges_rows
        for name, (text, split) in self.variants(lines).items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(text.encode("utf-8"))
            assert read_bytes is not None or len(text) > 3 * formats._READ_BYTES
            want = row_loop(path)
            assert len(want) == len(lines) - 1 + (name == "late-quoted-id")
            calls = []
            monkeypatch.setattr(formats, "_read_edges_rows", lambda source: calls.append(1) or row_loop(source))
            same_table(read_edges_csv(path), want)
            assert calls == ([] if split else [1]), name
            monkeypatch.setattr(formats, "_read_edges_rows", row_loop)

    @pytest.mark.parametrize("read_bytes, rows", [(3, 200), ("line", 200), (None, 30_000)])
    def test_block_reader_matches_row_loop(self, tmp_path, monkeypatch, read_bytes, rows):
        self.same_as_row_loop(tmp_path, monkeypatch, read_bytes, _oracle_edge_text(rows))

    @pytest.mark.parametrize("read_bytes", [3, "line", None])
    def test_runs_match_row_loop(self, tmp_path, monkeypatch, read_bytes):
        rows = 200 if read_bytes else formats._READ_BYTES // 8
        lines = _oracle_run_text(rows)
        if read_bytes is None:
            # a run spans the first block and more, then the rows that
            # differ fill more than a block, then a run fills whole blocks
            cut = [len("".join(lines[: 1 + rows * i // 8]).encode()) for i in (3, 5, 8)]
            assert cut[0] > 1.5 * formats._READ_BYTES
            assert cut[1] - cut[0] > formats._READ_BYTES
            assert cut[2] - cut[1] > 2 * formats._READ_BYTES
        self.same_as_row_loop(tmp_path, monkeypatch, read_bytes, lines)

    def test_pipe_is_read_by_the_row_loop(self, tmp_path, detect_run):
        # a pipe cannot be read twice, so its rows are read once, from the
        # start, by the row loop: the same table and clusters as a file
        _, outdir = detect_run
        text = "".join(_oracle_edge_text(300)) + (outdir / "edges_hashtag.csv").read_text().split("\n", 1)[1]
        path = tmp_path / "edges.csv"
        path.write_text(text, encoding="utf-8")
        cache = cache_holding(tmp_path, read_edges_csv(path).accounts)
        pipe = tmp_path / "edges.pipe"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "w", encoding="utf-8") as fp:
                fp.write(text)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        same_table(read_edges_csv(pipe), read_edges_csv(path))
        feeder.join()
        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        assert main(["cluster", str(cache), str(pipe), "-o", str(tmp_path / "pipe.csv")]) == 0
        feeder.join()
        assert main(["cluster", str(cache), str(path), "-o", str(tmp_path / "file.csv")]) == 0
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("case", sorted(BAD_EDGE_FILES))
    def test_bad_row_in_a_later_block(self, tmp_path, monkeypatch, case, blank):
        body, message = BAD_EDGE_FILES[case]
        good = [f"p{i:04d},q{i:04d},hashtag,1.0,k\n" for i in range(300)]
        blanks = ["\n", "\n"] if blank else []
        if "header" not in case and case != "empty-file":
            body = "".join([_EDGE_HEADER, *good, *blanks, body])
            message = message.replace("line 3", f"line {len(good) + len(blanks) + 2}")
        # blocks of ~3 rows, and account order checked 64 rows at a time
        monkeypatch.setattr(formats, "_READ_BYTES", 100)
        monkeypatch.setattr(formats, "_WRITE_ROWS", 64)
        path = tmp_path / "edges.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_edges_csv(path)
        assert str(info.value) == message.format(path)


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


def test_nul_ids_pass_every_stage(tmp_path, monkeypatch):
    # Account ids, tweet ids, a hashtag, a mention and a retweeted
    # account id holding NUL: every stage exits 0, the ids come back
    # byte for byte, and the block reader reads every edge file.
    monkeypatch.setattr(formats, "_read_edges_rows", _no_row_loop)
    tags = ["v\x00w", "w", "x", "y", "z"]
    records = [
        rec("t\x001", "a\x00b", BASE_TS, hashtags=tags, text="vote", mentions=["m\x00n"]),
        rec("t2", "c\x00d", BASE_TS + 60, hashtags=tags, text="vote"),
        rec("t3", "plain", BASE_TS + 120, kind="retweet", rt_id="t\x001", rt_account="a\x00b"),
    ]
    src, cache, det = tmp_path / "corpus.jsonl", tmp_path / "cache.jsonl", tmp_path / "det"
    conf, clusters = tmp_path / "confidences.csv", tmp_path / "clusters.csv"
    write_jsonl(src, records)
    assert main(["ingest", str(src), "-o", str(cache)]) == 0
    assert records_of(load_cache(cache)) == records
    assert main(["detect", str(cache), "-o", str(det)]) == 0
    assert (det / "edges_hashtag.csv").read_bytes().endswith(b"\na\x00b,c\x00d,hashtag,1.0,v\x00w|w|x|y|z\n")
    edges = edges_of(read_edges_csv(det / "edges_hashtag.csv"))
    assert [(e.a, e.b, e.evidence) for e in edges] == [("a\x00b", "c\x00d", "v\x00w|w|x|y|z")]
    assert main(["cluster", str(cache), str(det), "-o", str(clusters)]) == 0
    assert clusters.read_bytes().endswith(b"\n1,2,v\x00w,a\x00b,c\x00d\n")
    assert main(["score", str(cache), "-o", str(conf)]) == 0
    assert [line.split(b",")[0] for line in conf.read_bytes().splitlines()[1:]] == [b"t\x001", b"t2", b"t3"]
    assert load_confidences(conf).tweet_ids == ["t\x001", "t2", "t3"]
    argv = ["report", str(cache), "-o", str(tmp_path / "bundle"), "--edges", str(det)]
    assert main(argv + ["--confidences", str(conf)]) == 0


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

    def test_report_manifest_records_edge_inputs(self, tmp_path, detect_run):
        cache, det_out = detect_run
        other = tmp_path / "other"
        other.mkdir()
        (other / "edges_hashtag.csv").write_text("account_a,account_b,detector,score,evidence\n")
        bundle = tmp_path / "bundle"
        argv = ["report", str(cache), "-o", str(bundle), "--edges", str(det_out),
                str(other / "edges_hashtag.csv")]
        assert main(argv) == 0
        manifest = json.loads((bundle / "manifest.json").read_text())
        files = [det_out / f"edges_{d}.csv" for d in DETECTORS] + [other / "edges_hashtag.csv"]
        assert manifest["inputs"] == {
            "cache": manifest["inputs"]["cache"],
            **{
                f"edges.{i}": {
                    "path": path.name, "sha256": file_sha256(path), "bytes": path.stat().st_size,
                }
                for i, path in enumerate(files, start=1)
            },
        }
        assert manifest["counts"]["edges"] == 1
        assert set(manifest["config"]) == {f.name for f in fields(ReportConfig)}

    @pytest.mark.parametrize("command", ["cluster", "report"])
    def test_edges_naming_accounts_the_cache_lacks_are_refused(
        self, tmp_path, detect_run, capsys, command
    ):
        cache, _ = detect_run
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "account_a,account_b,detector,score,evidence\n"
            "coord-a,coord-b,hashtag,1.0,k\nforeign-1,foreign-2,hashtag,1.0,k\n"
        )
        out = tmp_path / "out"
        argv = (["cluster", str(cache), str(edges), "-o", str(out / "clusters.csv")]
                if command == "cluster"
                else ["report", str(cache), "-o", str(out), "--edges", str(edges)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "2 accounts in the edges are not in the cache, the first 'foreign-1'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "report"])
    def test_edge_directory_without_edge_files_is_refused(
        self, tmp_path, detect_run, capsys, command
    ):
        cache, _ = detect_run
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        argv = (["cluster", str(cache), str(empty), "-o", str(out / "clusters.csv")]
                if command == "cluster"
                else ["report", str(cache), "-o", str(out), "--edges", str(empty)])
        assert main(argv) == 1
        assert f"no edges_*.csv in directory {str(empty)!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_requires_edges(self, tmp_path, detect_run, capsys):
        # checked before the cache is read, so a wrong cache path too
        # gives the usage error
        for cache in (detect_run[0], tmp_path / "missing.jsonl"):
            bundle = tmp_path / "b"
            assert main(["report", str(cache), "-o", str(bundle)]) == 1
            assert "missing input: --edges" in capsys.readouterr().err
            assert not bundle.exists()

    def test_report_rejects_negative_top_clusters(self, tmp_path, detect_run, capsys):
        # clusters[:-1] would silently drop the last cluster
        cache, det_out = detect_run
        bundle = tmp_path / "b"
        argv = ["report", str(cache), "-o", str(bundle), "--edges", str(det_out),
                "--top-clusters", "-1"]
        assert main(argv) == 1
        assert "--top-clusters must be at least 0, got -1" in capsys.readouterr().err
        assert not bundle.exists()

    @pytest.mark.parametrize("confidences", [False, True])
    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--binarize-threshold", "1.5"], None, "in (0, 1), got 1.5"),
            (["--binarize-threshold", "nan"], None, "in (0, 1), got nan"),
            ([], "binarize_threshold = 0\n", "in (0, 1), got 0.0"),
            ([], "duplicate_scope = bogus\n", "one of account, corpus, got 'bogus'"),
            (["--duplicate-scope", "bogus"], None, "one of account, corpus, got 'bogus'"),
        ],
    )
    def test_report_rejects_bad_option_before_writing(
        self, tmp_path, detect_run, capsys, confidences, flags, config, message
    ):
        cache, det_out = detect_run
        argv = ["report", str(cache), "-o", str(tmp_path / "b"), "--edges", str(det_out), *flags]
        if confidences:
            conf = tmp_path / "conf.csv"
            assert main(["score", str(cache), "-o", str(conf)]) == 0
            argv += ["--confidences", str(conf)]
        if config:
            (tmp_path / "report.conf").write_text(config)
            argv = ["--config", str(tmp_path / "report.conf")] + argv
        (tmp_path / "b").mkdir()
        capsys.readouterr()
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert list((tmp_path / "b").iterdir()) == []

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


# Each reader's rows with a byte that is not UTF-8 ("@" marks it) on line
# 4, after a CRLF row long enough that the text reader decodes the bad
# byte while the rows before it are still unread.
_LONG = "n" * 20_000
_NOT_UTF8 = {
    "edges": _EDGE_HEADER + f"a,b,hashtag,1.0,{_LONG}\r\n" + _GOOD_EDGE + "r,s,hashtag,1.0,k@\n",
    "confidences": "tweet_id," + ",".join(CHARACTERISTICS) + "\n"
    + "".join(f"{tid},{','.join(['0.5'] * len(CHARACTERISTICS))}\n" for tid in (_LONG, "2", "3@")),
    "lexicon": f"characteristic,phrase,weight\nvote_for,{_LONG},0.5\r\nvote_for,poll,1.0\nvote_for,p@ll,1.0\n",
    "stats": f"x,y,note\n1,10,{_LONG}\r\n2,20,n\n3,30,n@\n",
}


def _not_utf8_argv(reader, bad, cache, det, out):
    return {
        "edges": ["cluster", str(cache), str(bad), "-o", out],
        "confidences": ["report", str(cache), "-o", out, "--edges", str(det), "--confidences", str(bad)],
        "lexicon": ["score", str(cache), "-o", out, "--lexicon", str(bad)],
        "stats": ["stats", "spearman", "--csv", str(bad), "--x", "x", "--y", "y"],
    }[reader]


class TestNotUtf8:
    """A byte that is not UTF-8 in a CSV input is exit 1 naming the file
    and the line that holds it."""

    @pytest.mark.parametrize("reader", sorted(_NOT_UTF8))
    def test_bad_byte_is_located_validation_error(self, tmp_path, detect_run, capsys, reader):
        cache, det = detect_run
        bad = tmp_path / "bad.csv"
        bad.write_bytes(_NOT_UTF8[reader].encode().replace(b"@", b"\xff"))
        capsys.readouterr()
        assert main(_not_utf8_argv(reader, bad, cache, det, str(tmp_path / "out"))) == 1
        assert f"{bad}, line 4: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "load", [read_edges_csv, load_confidences, load_lexicon, read_account_list]
    )
    def test_every_reader_names_file_and_line(self, tmp_path, load):
        # a cut-off character at the end of line 2 and a lone CR line end
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x\rab\xe2\x82\n")
        with pytest.raises(ValueError) as info:
            load(bad)
        assert str(info.value) == f"{bad}, line 2: not valid UTF-8"

    def test_pipe_names_its_line(self, tmp_path, detect_run, capsys):
        # a pipe cannot be read again, so the line comes from the bytes
        # counted as they were read: line 3,003, some 100 KiB in
        cache, _ = detect_run
        rows = "".join(f"p{i:05d},q{i:05d},hashtag,1.0,k\n" for i in range(3_000))
        body = (_EDGE_HEADER + _GOOD_EDGE + rows).encode() + b"r,s,hashtag,1.0,\xffk\n"
        pipe = tmp_path / "edges.pipe"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "wb") as fp:
                fp.write(body)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        capsys.readouterr()
        assert main(["cluster", str(cache), str(pipe), "-o", str(tmp_path / "c.csv")]) == 1
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert f"{pipe}, line 3003: not valid UTF-8" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "test, given, missing",
        [
            ("spearman", [], "--x and --y"),
            ("spearman", ["--x", "x"], "--y"),
            ("mannwhitney", [], "--a and --b"),
            ("auc", [], "--scores and --labels"),
            ("reshuffle", ["--labels", "x"], "--scores"),
            ("bootstrap", [], "--col"),
            ("kappa", [], "--cols"),
        ],
    )
    def test_missing_column_flag_rejected(self, tmp_path, capsys, test, given, missing):
        path = tmp_path / "data.csv"
        path.write_text("x\n1\n")
        assert main(["stats", test, "--csv", str(path), *given]) == 1
        assert f"stats {test} requires {missing}" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "test, flags, body, line, column, cell",
        [
            # a nan would be ranked as a value
            ("spearman", ["--x", "x", "--y", "y"], "x,y\n1,1\n2,nan\n3,3\n4,4\n", 3, "y", "nan"),
            # an infinite score would be ranked as a value
            ("auc", ["--scores", "s", "--labels", "l"], "s,l\n0.9,1\ninf,1\n0.5,0\n", 3, "s", "inf"),
            ("reshuffle", ["--scores", "s", "--labels", "l"],
             "s,l\n0.9,1\n0.2,0\n0.4,1\n-inf,0\n", 5, "s", "-inf"),
            # the mean of +-1e309 (inf) is nan
            ("bootstrap", ["--col", "v"], "v\n1e309\n-1e309\n", 2, "v", "1e309"),
            ("mannwhitney", ["--a", "a", "--b", "b"], "a,b\n1,2\n,x\n", 3, "b", "x"),
            # float() reads "_" as a digit separator: 1_0 would be 10
            ("spearman", ["--x", "v", "--y", "w"], "v,w\n1_0,3\n2,1\n3,2\n", 2, "v", "1_0"),
        ],
        ids=["spearman-nan", "auc-inf", "reshuffle-minus-inf", "bootstrap-overflow", "mannwhitney-text",
             "spearman-underscore"],
    )
    def test_cell_not_finite_is_located_validation_error(
        self, tmp_path, capsys, test, flags, body, line, column, cell
    ):
        path = tmp_path / "data.csv"
        path.write_text(body)
        assert main(["stats", test, "--csv", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert f"{path}, line {line}, column '{column}': '{cell}' is not a finite number" in err

    @pytest.mark.parametrize("cell", ["-1", "2", "1.0"])
    def test_kappa_label_not_binary_is_located_validation_error(self, tmp_path, capsys, cell):
        # -1 would index past the 2x2 agreement table, and 2 count as a 0
        path = tmp_path / "data.csv"
        path.write_text(f"r1,r2\n1,1\n0,{cell}\n0,0\n")
        assert main(["stats", "kappa", "--csv", str(path), "--cols", "r1,r2"]) == 1
        assert f"{path}, line 3, column 'r2': '{cell}' is not 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("test", ["auc", "reshuffle"])
    @pytest.mark.parametrize("cell", ["0.9", "2", "-1", "1.0", "inf"])
    def test_label_not_binary_is_located_validation_error(self, tmp_path, capsys, test, cell):
        # int() read 0.9 as a negative and 2 as a positive
        path = tmp_path / "data.csv"
        path.write_text(f"s,l\n0.9,1\n0.1,{cell}\n0.5,0\n0.3,1\n")
        assert main(["stats", test, "--csv", str(path), "--scores", "s", "--labels", "l"]) == 1
        assert f"{path}, line 3, column 'l': '{cell}' is not 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # -1 and 0 held out every row in every split
            ("--train-frac", "-1", "--train-frac must be in (0, 1), got -1.0"),
            ("--train-frac", "0", "--train-frac must be in (0, 1), got 0.0"),
            # 1.5, 0 and -3 scored no split
            ("--train-frac", "1.5", "--train-frac must be in (0, 1), got 1.5"),
            ("--train-frac", "nan", "--train-frac must be in (0, 1), got nan"),
            ("--splits", "0", "--splits must be at least 1, got 0"),
            ("--splits", "-3", "--splits must be at least 1, got -3"),
        ],
    )
    def test_reshuffle_out_of_range_setting_rejected(self, tmp_path, capsys, flag, value, message):
        path = tmp_path / "data.csv"
        path.write_text("s,l\n0.9,1\n0.1,0\n0.8,1\n0.2,0\n0.7,1\n0.3,0\n")
        argv = ["stats", "reshuffle", "--csv", str(path), "--scores", "s", "--labels", "l"]
        assert main([*argv, flag, value]) == 1
        assert message in capsys.readouterr().err

    def test_bad_cell_of_an_incomplete_row_is_an_error(self, tmp_path, capsys):
        # the paired tests drop the row, but every cell is checked
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,1\n,nan\n3,3\n4,4\n")
        assert main(["stats", "spearman", "--csv", str(path), "--x", "x", "--y", "y"]) == 1
        assert f"{path}, line 3, column 'y': 'nan' is not a finite number" in capsys.readouterr().err

    def test_one_column_named_twice_is_read_once(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x\n1\n2\n3\n")
        assert main(["stats", "spearman", "--csv", str(path), "--x", "x", "--y", "x"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == [3] and payload["statistic"] == 1.0

    def test_short_row_cells_are_empty(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,10\n2\n3,30\n4,40\n")
        assert main(["stats", "spearman", "--csv", str(path), "--x", "x", "--y", "y"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == [3]
        path.write_text("r1,r2\n1,1\n0\n0,0\n")
        assert main(["stats", "kappa", "--csv", str(path), "--cols", "r1,r2"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == [2, 3, 0]

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
