"""The ingest cache: column blocks that Corpus.write_cache writes and
load_cache reads back, with every check the per-record reload made."""

import dataclasses
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coordnet.corpus
from coordnet.cli import main
from coordnet.corpus import CACHE_ROWS, KINDS, Corpus, CorpusError, load_cache, parse_corpus

from helpers import BASE_TS, corpus_of, rec, records_of

COLUMNS = [
    "tweet_ids", "account_ids", "code_of", "account_codes", "timestamps", "kinds", "texts",
    "hashtags", "languages", "retweeted_tweet_ids", "retweeted_account_ids", "mentions",
]


def cache_lines(corpus) -> list[str]:
    fp = io.StringIO()
    corpus.write_cache(fp)
    return fp.getvalue().splitlines(keepends=True)


# ---------------------------------------------------------------------------
# Oracle: load_cache(write_cache(c)) holds parse_corpus's columns
# ---------------------------------------------------------------------------

_ids = st.one_of(
    st.text(min_size=1, max_size=6),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.sampled_from(["a\x00b", "a\rb", "é", "😀", "\\ud800"]),
)
_texts = st.one_of(
    st.text(st.characters(blacklist_categories=["Cs"]), max_size=12),
    # NUL, CR, non-ASCII, a surrogate pair, and escaped backslashes
    # before text that reads like a surrogate escape
    st.sampled_from(["\x00", "a\r\nb", "naïve", "😀 x", "\\ud800", "\\\\ud83d", " "]),
)
_tags = st.lists(
    st.one_of(st.text(max_size=4), st.sampled_from(["ΑΣ", "İx", "Straße"])), max_size=3
)


@st.composite
def _input_record(draw) -> dict:
    kind = draw(st.sampled_from(KINDS))
    obj = {
        "tweet_id": draw(_ids),
        "account_id": draw(_ids),
        "timestamp": draw(st.integers(min_value=-62135596800, max_value=253402300799)),
        "kind": kind,
        "text": draw(_texts),
        "hashtags": draw(_tags),
        "language": draw(st.sampled_from(["en", "fr", "und", "", "zh-Hant"])),
        "mentions": draw(st.lists(st.text(max_size=4), max_size=2)),
    }
    if kind == "retweet":
        obj["retweeted_tweet_id"] = draw(_ids)
    if draw(st.booleans()):
        obj["retweeted_account_id"] = draw(st.one_of(st.none(), _ids))
    return obj


def _tweet_id(line: str) -> str:
    """The tweet_id ingest reads from a valid input line."""
    return str(json.loads(line)["tweet_id"])


@st.composite
def _input_lines(draw) -> list[str]:
    """Lines cycled from a few drawn records until 0, 1, 7, CACHE_ROWS
    or CACHE_ROWS + 1 distinct tweet ids are reached; a third of the
    lines keep their record's tweet_id, so later ones repeat it. Every
    `stride` lines the accounts move on to new ids, so accounts are also
    first seen in later blocks."""
    templates = draw(st.lists(_input_record(), min_size=1, max_size=5))
    n = draw(st.sampled_from([0, 1, 7, CACHE_ROWS, CACHE_ROWS + 1]))
    stride = draw(st.sampled_from([1, 300, CACHE_ROWS + 1]))
    ascii_only = draw(st.booleans())
    lines, distinct = [], set()
    for i in itertools.count():
        if len(distinct) == n:
            return lines
        obj = dict(templates[i % len(templates)])
        if i % 3:
            obj["tweet_id"] = f"{obj['tweet_id']}.{i}"
        if i >= stride:
            obj["account_id"] = f"{obj['account_id']}/{i // stride}"
        lines.append(json.dumps(obj, ensure_ascii=ascii_only) + "\n")
        distinct.add(_tweet_id(lines[-1]))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(lines=_input_lines())
def test_load_cache_equals_parse_corpus(lines):
    # ingest keeps the first line of each tweet_id and skips the rest
    kept = dict.fromkeys(map(_tweet_id, lines))
    repeats = len(lines) - len(kept)
    with tempfile.TemporaryDirectory() as tmp:
        src, cache = Path(tmp) / "input.jsonl", Path(tmp) / "cache.jsonl"
        src.write_text("".join(lines), encoding="utf-8")
        parsed = parse_corpus(src)
        with open(cache, "w", encoding="utf-8") as fp:
            parsed.write_cache(fp)
        loaded = load_cache(cache)
    assert parsed.skip_reasons == ({"duplicate_tweet_id": repeats} if repeats else {})
    assert parsed.tweet_ids == list(kept)
    assert len(loaded) == len(kept)
    for name in COLUMNS:
        assert getattr(loaded, name) == getattr(parsed, name), name
    assert all(type(t) is tuple for t in loaded.hashtags + loaded.mentions)


def test_blocks_hold_cache_rows_records():
    records = [rec(i, f"a{i % 5}", BASE_TS + i) for i in range(2 * CACHE_ROWS + 1)]
    blocks = [json.loads(line) for line in cache_lines(corpus_of(*records))]
    assert [len(b["tweet_ids"]) for b in blocks] == [CACHE_ROWS, CACHE_ROWS, 1]
    assert [b["accounts"] for b in blocks] == [["a0", "a1", "a2", "a3", "a4"], [], []]


def test_empty_cache_loads_empty_corpus(tmp_path):
    assert cache_lines(Corpus()) == []
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"")
    corpus = load_cache(path)
    assert len(corpus) == 0
    assert corpus.account_ids == [] and corpus.code_of == {}


# ---------------------------------------------------------------------------
# Malformed caches: every check rejects its case, naming file and line
# ---------------------------------------------------------------------------

# Two blocks of three rows. Block 1 uses accounts a, c; block 2 uses
# b and d first, then a again.
_RECORDS = [
    rec("t1", "a", BASE_TS, hashtags=["x", "y"], text="one", language="en", mentions=["b"]),
    rec("t2", "a", BASE_TS + 60, "retweet", rt_id="t0", rt_account="z"),
    rec("t3", "c", BASE_TS + 120, "reply", text="three"),
    rec("t4", "b", BASE_TS + 180, "retweet", rt_id="t1", rt_account="a"),
    rec("t5", "d", BASE_TS + 240, hashtags=["x"], text="five"),
    rec("t6", "a", BASE_TS + 86400, text="six", language="fr"),
]


@pytest.fixture(scope="module")
def block_lines() -> list[str]:
    saved = coordnet.corpus.CACHE_ROWS
    coordnet.corpus.CACHE_ROWS = 3
    try:
        return cache_lines(corpus_of(*_RECORDS))
    finally:
        coordnet.corpus.CACHE_ROWS = saved


@pytest.fixture(scope="module")
def edges_dir(tmp_path_factory) -> Path:
    """A detect output directory for the stages that also read edges."""
    tmp = tmp_path_factory.mktemp("edges")
    src, cache = tmp / "input.jsonl", tmp / "cache.jsonl"
    src.write_text("".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in _RECORDS))
    assert main(["ingest", str(src), "-o", str(cache)]) == 0
    assert main(["detect", str(cache), "-o", str(tmp / "det")]) == 0
    return tmp / "det"


def _mutated_cache(path: Path, block_lines, which: int, mutate) -> Path:
    """block_lines with block `which` (from 1) passed through mutate,
    which edits the decoded block in place or returns the new line."""
    lines = list(block_lines)
    block = json.loads(lines[which - 1])
    lines[which - 1] = (mutate(block) or json.dumps(block, ensure_ascii=False)) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _set(key, value):
    def mutate(block):
        block[key] = value
    return mutate


def _put(key, row, value):
    def mutate(block):
        block[key][row] = value
    return mutate


def _append(key, value):
    def mutate(block):
        block[key].append(value)
    return mutate


def _drop_last(key):
    def mutate(block):
        block[key].pop()
    return mutate


def _raw(old, new):
    def mutate(block):
        return json.dumps(block, ensure_ascii=False).replace(old, new)
    return mutate


def _del_key(block):
    del block["languages"]


def _deep(block):
    return json.dumps(block)[:-1] + ',"extra":' + "[" * 50_000 + "]" * 50_000 + "}"


# name: (block mutated, mutation, a phrase of the error message)
MUTATIONS = {
    "tweet_ids-not-list": (1, _set("tweet_ids", "t1"), "tweet_ids must be a list"),
    "tweet_id-int": (1, _put("tweet_ids", 0, 1), "tweet_ids must hold only str"),
    "tweet_id-empty": (1, _put("tweet_ids", 2, ""), "tweet_ids holds an empty string"),
    "tweet_id-repeated-in-block": (1, _put("tweet_ids", 2, "t1"), "repeats a tweet id"),
    "tweet_id-repeated-across-blocks": (2, _put("tweet_ids", 1, "t2"), "repeats a tweet id"),
    "account-int": (1, _put("accounts", 0, 7), "accounts must hold only str"),
    "account-empty": (1, _put("accounts", 1, ""), "accounts holds an empty string"),
    "account-repeated-in-block": (1, _put("accounts", 1, "a"), "repeats an account id"),
    "account-repeated-across-blocks": (2, _put("accounts", 0, "a"), "repeats an account id"),
    "account-unused": (1, _append("accounts", "q"), "in order of first use"),
    "accounts-out-of-order": (2, _set("account_codes", [3, 2, 0]), "in order of first use"),
    "account_code-bool": (2, _put("account_codes", 1, True), "account_codes must hold only int"),
    "account_code-float": (1, _put("account_codes", 0, 0.0), "account_codes must hold only int"),
    "account_code-past-table": (1, _put("account_codes", 2, 2), "account_codes must lie in [0, 1]"),
    "account_code-negative": (1, _put("account_codes", 1, -1), "account_codes must lie in"),
    "timestamp-bool": (1, _put("timestamps", 0, True), "timestamps must hold only int"),
    "timestamp-float": (1, _put("timestamps", 0, 1.5), "timestamps must hold only int"),
    "timestamp-string": (1, _put("timestamps", 0, "2017-05-01"), "timestamps must hold only int"),
    "timestamp-past-9999": (1, _put("timestamps", 0, 253402300800), "timestamps must lie in"),
    "timestamp-before-1": (2, _put("timestamps", 2, -62135596801), "timestamps must lie in"),
    "timestamp-5000-digits": (1, _raw(str(BASE_TS), "9" * 5000), ""),
    "kind-3": (1, _put("kinds", 0, 3), "kinds must lie in [0, 2]"),
    "kind-negative": (1, _put("kinds", 2, -1), "kinds must lie in"),
    "kind-bool": (1, _put("kinds", 0, False), "kinds must hold only int"),
    "text-null": (1, _put("texts", 1, None), "texts must hold only str"),
    "hashtags-uppercase": (1, _put("hashtags", 0, ["x", "Y"]), "hashtags must be lowercase"),
    "hashtags-sigma": (2, _put("hashtags", 1, ["ΑΣ"]), "hashtags must be lowercase"),
    "hashtags-not-list": (1, _put("hashtags", 0, "x"), "hashtags must hold only list"),
    "hashtag-int": (1, _put("hashtags", 0, [1]), "hashtags must hold lists of strings"),
    "language-empty": (1, _put("languages", 0, ""), "languages holds an empty string"),
    "language-int": (1, _put("languages", 0, 1), "languages must hold only str"),
    "retweet-without-id": (1, _put("retweeted_tweet_ids", 1, None), "if and only if"),
    "original-with-id": (1, _put("retweeted_tweet_ids", 0, "t9"), "if and only if"),
    "kind-made-retweet": (2, _put("kinds", 1, 2), "if and only if"),
    "retweeted_tweet_id-empty": (1, _put("retweeted_tweet_ids", 1, ""), "holds an empty string"),
    "retweeted_tweet_id-int": (1, _put("retweeted_tweet_ids", 1, 5), "only str or null"),
    "retweeted_account_id-empty": (1, _put("retweeted_account_ids", 1, ""), "empty string"),
    "retweeted_account_id-bool": (2, _put("retweeted_account_ids", 0, False), "str or null"),
    "mention-int": (1, _put("mentions", 0, [3]), "mentions must hold lists of strings"),
    "mentions-null": (1, _put("mentions", 1, None), "mentions must hold only list"),
    "texts-short": (1, _drop_last("texts"), "texts holds 2 rows, tweet_ids 3"),
    "timestamps-short": (2, _drop_last("timestamps"), "timestamps holds 2 rows"),
    "kinds-short": (1, _drop_last("kinds"), "kinds holds 2 rows"),
    "mentions-short": (2, _drop_last("mentions"), "mentions holds 2 rows"),
    "account_codes-short": (1, _drop_last("account_codes"), "account_codes holds 2 rows"),
    "key-missing": (1, _del_key, "a cache block is a JSON object with keys"),
    "key-extra": (2, _set("extra", []), "a cache block is a JSON object with keys"),
    "not-object": (1, lambda block: "[]", "a cache block is a JSON object"),
    "record-line": (1, lambda block: json.dumps({"tweet_id": "t1"}), "re-run `coordnet ingest`"),
    "lone-surrogate-escape": (1, _raw('"one"', '"\\ud800"'), "surrogate escape"),
    "surrogate-pair-escape": (2, _raw('"five"', '"\\ud83d\\ude00"'), "surrogate escape"),
    "deep-nesting": (2, _deep, "nested too deeply"),
    "truncated": (2, lambda block: json.dumps(block)[:-7], "invalid JSON"),
}


def test_unmutated_blocks_load(tmp_path, block_lines):
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(block_lines), encoding="utf-8")
    corpus = load_cache(path)
    assert records_of(corpus) == _RECORDS
    assert corpus.account_ids == ["a", "c", "b", "d"]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_malformed_block_rejected_with_file_and_line(tmp_path, block_lines, name):
    which, mutate, phrase = MUTATIONS[name]
    path = _mutated_cache(tmp_path / "cache.jsonl", block_lines, which, mutate)
    with pytest.raises(CorpusError) as err:
        load_cache(path)
    assert err.value.line_no == which
    assert str(err.value).startswith(f"{path}: line {which}: ")
    assert phrase in str(err.value)


@pytest.mark.parametrize(
    "old, new, phrase",
    [
        (b"three", b"thr\xffe", "not valid UTF-8"),
        (b"five", b"f\xed\xa0\x80", "not valid UTF-8"),  # an encoded lone surrogate
    ],
    ids=["invalid-byte", "encoded-surrogate"],
)
def test_undecodable_block_rejected(tmp_path, block_lines, old, new, phrase):
    data = "".join(block_lines).encode()
    assert data.count(old) == 1
    path = tmp_path / "cache.jsonl"
    path.write_bytes(data.replace(old, new))
    which = 1 + data[: data.index(old)].count(b"\n")
    with pytest.raises(CorpusError) as err:
        load_cache(path)
    assert err.value.line_no == which
    assert phrase in str(err.value)


# ---------------------------------------------------------------------------
# Every stage after ingest: a malformed cache exits 1, never 3
# ---------------------------------------------------------------------------


def _stage_codes(cache: Path, edges_dir: Path, out: Path) -> list[int]:
    return [
        main(["detect", str(cache), "-o", str(out / "det")]),
        main(["cluster", str(cache), str(edges_dir), "-o", str(out / "clusters.csv")]),
        main(["score", str(cache), "-o", str(out / "conf.csv")]),
        main(["report", str(cache), "-o", str(out / "bundle"), "--edges", str(edges_dir)]),
    ]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_stage_exits_1_naming_file_and_line(
    tmp_path, block_lines, edges_dir, capsys, name
):
    which, mutate, _ = MUTATIONS[name]
    path = _mutated_cache(tmp_path / "cache.jsonl", block_lines, which, mutate)
    assert _stage_codes(path, edges_dir, tmp_path) == [1, 1, 1, 1]
    assert capsys.readouterr().err.count(f"{path}: line {which}: ") == 4


def test_truncated_cache_file_exits_1(tmp_path, block_lines, edges_dir, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(block_lines)[:-10], encoding="utf-8")
    assert main(["detect", str(path), "-o", str(tmp_path / "det")]) == 1
    assert f"{path}: line 2: invalid JSON" in capsys.readouterr().err


def test_per_record_cache_asks_for_reingest(tmp_path, capsys):
    # the cache layout before column blocks: one record per line
    path = tmp_path / "cache.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        corpus_of(*_RECORDS).to_jsonl(fp)
    assert main(["detect", str(path), "-o", str(tmp_path / "det")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 1: " in err and "re-run `coordnet ingest`" in err


_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3)), max_size=4),
)


@st.composite
def _block_mutation(draw):
    """(block number, mutation): a column or one cell replaced by any
    JSON value, a cell dropped or repeated, or text spliced into the line."""
    which = draw(st.sampled_from([1, 2]))
    key = draw(st.sampled_from(sorted(coordnet.corpus._BLOCK_KEYS)))
    action = draw(st.sampled_from(["column", "cell", "drop", "repeat", "splice"]))
    junk = draw(_junk)
    row = draw(st.integers(min_value=0, max_value=2))
    splice = draw(st.sampled_from(["\\ud800", "\\udc00", "[" * 50_000, "Z", ",", '"', "\\u0041"]))
    at = draw(st.integers(min_value=0, max_value=400))

    def mutate(block):
        column = block[key]
        if action == "splice":
            line = json.dumps(block, ensure_ascii=False)
            return line[:at] + splice + line[at:]
        if action == "column":
            block[key] = junk
        elif column:
            cell = min(row, len(column) - 1)
            if action == "cell":
                column[cell] = junk
            elif action == "drop":
                column.pop(cell)
            else:
                column.append(column[cell])
        return None

    return which, mutate


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(mutation=_block_mutation())
def test_mutated_cache_never_exits_3(block_lines, edges_dir, mutation):
    which, mutate = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = _mutated_cache(tmp / "cache.jsonl", block_lines, which, mutate)
        try:
            load_cache(path)
            expected = 0
        except CorpusError:
            expected = 1
        assert _stage_codes(path, edges_dir, tmp) == [expected] * 4
