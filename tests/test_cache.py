"""The ingest cache: column blocks that Corpus.write_cache writes and
load_cache reads back, with every check the per-record reload made. A
block is a JSON header line, then its integer columns as little-endian
offsets from their bases and its tweet ids' UTF-8 bytes after their
common prefix; decode_blocks and encode_block read and write that layout
independently of coordnet.corpus."""

import copy
import dataclasses
import io
import itertools
import json
import tempfile
from os.path import commonprefix
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coordnet.corpus
from coordnet.cli import main
from coordnet.config import DetectorConfig
from coordnet.corpus import CACHE_ROWS, KINDS, Corpus, CorpusError, load_cache, parse_corpus
from coordnet.detectors import build_account_vectors
from coordnet.graph import retweet_interactions

from helpers import (
    BASE_TS,
    assert_vectors_match_reference,
    corpus_of,
    member_of,
    oracle_retweet_interactions,
    rec,
    records_of,
)

COLUMNS = [
    "tweet_ids", "timestamps", "kinds", "code_of", "account_ids", "account_codes",
    "texts", "text_codes", "hashtags", "hashtag_codes", "languages", "language_codes",
    "retweeted_tweet_ids", "retweeted_tweet_codes", "retweeted_account_ids",
    "retweeted_account_codes", "mentions", "mention_codes",
]


CODE_KEYS = [codes for _, codes, *_ in coordnet.corpus._CODED]
# A block body's integer columns, in order; each has a base and a width
# in the header.
INTEGER_KEYS = ["timestamps", "kinds", "suffix_lengths", *CODE_KEYS]


def cache_bytes(corpus) -> bytes:
    fp = io.BytesIO()
    corpus.write_cache(fp)
    return fp.getvalue()


def decode_blocks(data: bytes) -> list[tuple[dict, dict]]:
    """Each block of a cache as (header, columns): the decoded JSON
    header line, and the body's integer columns as lists of ints, each
    offset read at its column's width and added to its base (a width of
    0 reads the base on every row); then suffixes, each tweet id's bytes
    after the header's prefix."""
    blocks, at = [], 0
    while at < len(data):
        end = data.index(b"\n", at) + 1
        header = json.loads(data[at:end])
        rows, at = header["rows"], end
        columns = {}
        for key, base, width in zip(INTEGER_KEYS, header["bases"], header["widths"]):
            cells = data[at : at + rows * width]
            assert len(cells) == rows * width, "cache ends inside a block body"
            columns[key] = [
                base + int.from_bytes(cells[i * width : (i + 1) * width], "little", signed=True)
                for i in range(rows)
            ]
            at += rows * width
        columns["suffixes"] = []
        for length in columns["suffix_lengths"]:
            columns["suffixes"].append(data[at : at + length])
            at += length
        assert sum(columns["suffix_lengths"]) == header["suffix_bytes"]
        blocks.append((header, columns))
    return blocks


def tweet_ids(header: dict, columns: dict) -> list[str]:
    """A decoded block's tweet ids: the prefix, then each suffix."""
    return [header["prefix"] + suffix.decode() for suffix in columns["suffixes"]]


def encode_body(header: dict, columns: dict, widths: list[int], byteorder="little") -> bytes:
    """columns as a block body: each integer column's offsets from its
    base in the header, as signed ints of its entry of widths,
    little-endian unless byteorder says otherwise, then the suffixes."""
    return b"".join(
        (value - base).to_bytes(width, byteorder, signed=True)
        for key, base, width in zip(INTEGER_KEYS, header["bases"], widths)
        for value in columns[key]
    ) + b"".join(columns["suffixes"])


def encode_block(header: dict, columns: dict, widths: list[int], byteorder="little") -> bytes:
    """header as one JSON line, then encode_body(...)."""
    return _canonical(header) + b"\n" + encode_body(header, columns, widths, byteorder)


def _canonical(value) -> bytes:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def narrowest(values: list[int]) -> int:
    """The fewest bytes of a signed int that hold every value: 0 when
    every value is 0."""
    if not any(values):
        return 0
    return next(
        w for w in (1, 2, 4, 8) if all(-(1 << 8 * w - 1) <= v < 1 << 8 * w - 1 for v in values)
    )


def offsets(header: dict, columns: dict) -> list[list[int]]:
    """Each integer column's offsets from its base."""
    return [
        [value - base for value in columns[key]]
        for key, base in zip(INTEGER_KEYS, header["bases"])
    ]


def assert_block_layout(header: dict, columns: dict) -> None:
    """A block as write_cache must write it: its prefix the tweet ids'
    longest common prefix, each base the midpoint of its column's
    smallest and largest value, each width the narrowest that holds the
    column's offsets."""
    assert header["prefix"] == commonprefix(tweet_ids(header, columns))
    assert header["bases"] == [
        (min(columns[key]) + max(columns[key])) // 2 for key in INTEGER_KEYS
    ]
    assert header["widths"] == list(map(narrowest, offsets(header, columns)))


def assert_tables_in_first_use_order(corpus) -> None:
    """Each coded column's table holds distinct entries, in the order
    the rows first use them: write_cache writes a block's new entries
    from that alone."""
    for table, (_, codes, *_) in zip(corpus._tables(), coordnet.corpus._CODED):
        used = [c for c in dict.fromkeys(getattr(corpus, codes)) if c != -1]
        assert used == list(range(len(table))), codes
        assert len(set(table)) == len(table), codes


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
# ingest refuses a hashtag that holds "|" (bad_hashtag), so none is drawn
_tags = st.lists(
    st.one_of(
        st.text(st.characters(blacklist_characters="|"), max_size=4),
        st.sampled_from(["ΑΣ", "İx", "Straße"]),
    ),
    max_size=3,
)
_languages = st.sampled_from(["en", "fr", "und", "", "zh-Hant", "ja\x00", "ελ"])
_mentions = st.lists(st.one_of(st.text(max_size=4), st.sampled_from(["m\x00", "é"])), max_size=2)
# Pools that the lines of _input_lines draw shared values from
_POOLS = {
    "text": _texts,
    "hashtags": _tags,
    "mentions": _mentions,
    "language": _languages,
    "retweeted_tweet_id": _ids,
    "retweeted_account_id": st.one_of(st.none(), _ids),
}


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
        "language": draw(_languages),
        "mentions": draw(_mentions),
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
    first seen in later blocks. When pools are drawn, each coded field
    cycles through its own few pooled values at its own period, so
    values repeat across rows and blocks in every combination, and
    every `stride` lines a text is new."""
    templates = draw(st.lists(_input_record(), min_size=1, max_size=5))
    n = draw(st.sampled_from([0, 1, 7, CACHE_ROWS, CACHE_ROWS + 1]))
    stride = draw(st.sampled_from([1, 300, CACHE_ROWS + 1]))
    ascii_only = draw(st.booleans())
    pools = draw(
        st.none()
        | st.fixed_dictionaries({f: st.lists(v, min_size=1, max_size=3) for f, v in _POOLS.items()})
    )
    lines, distinct = [], set()
    for i in itertools.count():
        if len(distinct) == n:
            return lines
        obj = dict(templates[i % len(templates)])
        if i % 3:
            obj["tweet_id"] = f"{obj['tweet_id']}.{i}"
        if i >= stride:
            obj["account_id"] = f"{obj['account_id']}/{i // stride}"
        for period, (field, pool) in enumerate((pools or {}).items(), start=2):
            if field != "retweeted_tweet_id" or obj["kind"] == "retweet":
                obj[field] = pool[i // period % len(pool)]
        if pools and i % stride == 0:
            obj["text"] += f"/{i}"
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
        with open(cache, "wb") as fp:
            parsed.write_cache(fp)
        loaded = load_cache(cache)
        # loading and writing back gives the same bytes
        assert cache_bytes(loaded) == cache.read_bytes()
        blocks = decode_blocks(cache.read_bytes())
    assert parsed.skip_reasons == ({"duplicate_tweet_id": repeats} if repeats else {})
    assert parsed.tweet_ids == list(kept)
    assert len(loaded) == len(kept)
    for name in COLUMNS:
        assert getattr(loaded, name) == getattr(parsed, name), name
    assert all(type(t) is tuple for t in loaded.hashtags + loaded.mentions)
    assert_tables_in_first_use_order(parsed)
    assert_tables_in_first_use_order(loaded)
    # each integer column as offsets from its block's midpoint at the
    # narrowest width, and the tweet ids after their longest common prefix
    for header, columns in blocks:
        assert_block_layout(header, columns)
    assert [i for block in blocks for i in tweet_ids(*block)] == parsed.tweet_ids
    assert [code for _, columns in blocks for code in columns["text_codes"]] == list(
        parsed.text_codes
    )


# Rows without a retweet target hold code -1, and the last entry of each
# nullable table is what -1 would read as a list index: retweeted tweet
# "y" and retweeted account "a", which is coordinated below.
_NO_TARGET = [
    rec("t1", "a", BASE_TS, "retweet", rt_id="x", rt_account="c"),
    rec("t2", "b", BASE_TS + 60, "retweet", rt_id="x"),
    rec("t3", "b", BASE_TS + 120, text="three"),
    rec("t4", "c", BASE_TS + 180, "retweet", rt_id="y", rt_account="a"),
    rec("t5", "a", BASE_TS + 240, "reply", mentions=["c"]),
    rec("t6", "c", BASE_TS + 300, "retweet", rt_id="y"),
    rec("t7", "a", BASE_TS + 360, "retweet", rt_id="y"),
    rec("t8", "b", BASE_TS + 420, "retweet", rt_id="x"),
]


def test_no_target_code_never_reads_the_last_entry(tmp_path):
    parsed = corpus_of(*_NO_TARGET)
    cache = tmp_path / "cache.jsonl"
    with open(cache, "wb") as fp:
        parsed.write_cache(fp)
    for corpus in (parsed, load_cache(cache)):
        assert (corpus.retweeted_tweet_ids[-1], corpus.retweeted_account_ids[-1]) == ("y", "a")
        assert -1 in corpus.retweeted_tweet_codes and -1 in corpus.retweeted_account_codes
        assert records_of(corpus) == _NO_TARGET
        for coordinated in ({"a", "b"}, {"a"}, {"b", "c"}):
            member = member_of(corpus, coordinated)
            assert retweet_interactions(corpus, member) == oracle_retweet_interactions(
                corpus, coordinated
            )
        cfg = DetectorConfig(retweet_min=1, time_min=1)
        assert_vectors_match_reference(corpus, cfg)
        assert len(build_account_vectors(corpus, "retweeted_id", cfg)) == 3


def test_blocks_hold_cache_rows_records():
    records = [rec(i, f"a{i % 5}", BASE_TS + i) for i in range(2 * CACHE_ROWS + 1)]
    blocks = decode_blocks(cache_bytes(corpus_of(*records)))
    assert [h["rows"] for h, _ in blocks] == [CACHE_ROWS, CACHE_ROWS, 1]
    assert [h["accounts"] for h, _ in blocks] == [["a0", "a1", "a2", "a3", "a4"], [], []]
    assert [c["timestamps"][0] for _, c in blocks] == [BASE_TS, BASE_TS + CACHE_ROWS,
                                                       BASE_TS + 2 * CACHE_ROWS]


def test_empty_cache_loads_empty_corpus(tmp_path):
    assert cache_bytes(Corpus()) == b""
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"")
    corpus = load_cache(path)
    assert len(corpus) == 0
    assert corpus.account_ids == [] and corpus.code_of == {}


# ---------------------------------------------------------------------------
# Code widths and byte order
# ---------------------------------------------------------------------------

# One more row than codes that fit in 2 bytes: every row's text is new,
# so the text codes run 0..32768 and cross the 1- and 2-byte bounds at
# rows 128 and 32768. Accounts cycle through 129 ids (codes 0..128);
# every third row is a retweet, so -1 fills the two retweet columns
# between the retweeted codes; hashtag and mention lists repeat a few.
_WIDE_ROWS = 32769


@pytest.fixture(scope="module")
def wide_corpus():
    lines = []
    for i in range(_WIDE_ROWS):
        obj = {"tweet_id": f"t{i}", "account_id": f"a{i % 129}", "timestamp": BASE_TS + i,
               "kind": KINDS[i % 3], "text": f"text {i}", "hashtags": [f"h{i % 7}"],
               "language": "en", "mentions": [f"m{i % 5}"] if i % 2 else []}
        if i % 3 == 2:
            obj["retweeted_tweet_id"] = f"t{i // 2}"
            obj["retweeted_account_id"] = f"a{i % 200}"
        lines.append(json.dumps(obj))
    corpus = parse_corpus(lines, strict=True)
    assert max(corpus.text_codes) == 32768 and max(corpus.account_codes) == 128
    return corpus


def _round_trip(corpus, path: Path) -> bytes:
    """corpus written to path, loaded and checked column by column, and
    the loaded corpus's cache bytes."""
    with open(path, "wb") as fp:
        corpus.write_cache(fp)
    loaded = load_cache(path)
    for name in COLUMNS:
        assert getattr(loaded, name) == getattr(corpus, name), name
    return cache_bytes(loaded)


# Blocks of two rows, each (timestamps, tweet ids, then the prefix, the
# timestamps' width and the suffix lengths' width that write_cache gives
# them). A base is (smallest + largest) // 2, so a block whose values
# span 2**(8w) - 2 has offsets within w bytes, one more takes the next
# width, and equal values take none. Suffix lengths count UTF-8 bytes,
# not characters, and a prefix ends on a character: "é" and "è" share
# their first byte but no character.
_MIN_TS, _MAX_TS = -62135596800, 253402300799  # years 1 and 9999
_BOUNDARY_BLOCKS = [
    ((BASE_TS, BASE_TS), ("s", "ß"), "", 0, 1),  # no common prefix
    ((BASE_TS, BASE_TS + 254), ("x" + "a" * 254, "x"), "x", 1, 1),  # an id equal to the prefix
    ((BASE_TS + 255, BASE_TS), ("y" + "b" * 255, "y"), "y", 2, 2),
    ((BASE_TS - 65534, BASE_TS), ("é" * 128, "e"), "", 2, 2),  # 256 bytes, 128 characters
    ((BASE_TS, BASE_TS + 65535), ("éa", "èa"), "", 4, 0),
    ((-1, 2**32 - 3), ("h0", "h1"), "h", 4, 0),
    ((0, 2**32 - 1), ("i", "j"), "", 8, 0),
    ((_MAX_TS, _MIN_TS), ("k", "l"), "", 8, 0),
]


@pytest.fixture(scope="module")
def boundary_corpus():
    return corpus_of(*(
        rec(tweet_id, "a", ts)
        for stamps, ids, *_ in _BOUNDARY_BLOCKS
        for tweet_id, ts in zip(ids, stamps)
    ))


@pytest.mark.parametrize("rows", [1, 2, 3, CACHE_ROWS])
def test_each_block_writes_codes_at_their_narrowest_width(
    tmp_path, wide_corpus, boundary_corpus, monkeypatch, rows
):
    monkeypatch.setattr(coordnet.corpus, "CACHE_ROWS", rows)
    path = tmp_path / "cache.jsonl"
    for corpus in (boundary_corpus, wide_corpus):
        assert _round_trip(corpus, path) == path.read_bytes()
        blocks = decode_blocks(path.read_bytes())
        assert len(blocks) == -(-len(corpus) // rows)
        for block in blocks:
            assert_block_layout(*block)
    boundary = decode_blocks(cache_bytes(boundary_corpus))
    if rows == 2:
        assert [(h["prefix"], h["widths"][0], h["widths"][2]) for h, _ in boundary] == [
            block[2:] for block in _BOUNDARY_BLOCKS
        ]
    # a block of one row holds only constant columns; in larger ones the
    # codes spread over 1 byte (accounts cycle through 129) or 2 (a
    # retweet's target tweet lies thousands of codes past -1)
    code_widths = {w for header, _ in blocks for w in header["widths"][3:]}
    assert code_widths == ({0} if rows == 1 else {0, 1, 2})
    for key in ("retweeted_tweet_codes", "retweeted_account_codes"):
        assert -1 in (code for _, columns in blocks for code in columns[key])


def _rewidened(header: dict, columns: dict, width: int) -> bytes:
    """The block with each integer column written at width bytes where
    that is wider than its own and allowed (8 for timestamps only)."""
    header = dict(header)
    header["widths"] = [
        max(w, width) if width < 8 or i == 0 else w for i, w in enumerate(header["widths"])
    ]
    return encode_block(header, columns, header["widths"])


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_every_allowed_width_loads_the_same_rows(tmp_path, wide_corpus, boundary_corpus, width):
    # write_cache writes each column at its narrowest width; load_cache
    # reads any allowed width: kinds in up to 4 bytes, codes and lengths
    # that fill 4 bytes, timestamps that fill 8
    path = tmp_path / "cache.jsonl"
    for corpus in (wide_corpus, boundary_corpus):
        path.write_bytes(b"".join(
            _rewidened(*block, width) for block in decode_blocks(cache_bytes(corpus))
        ))
        loaded = load_cache(path)
        for name in COLUMNS:
            assert getattr(loaded, name) == getattr(corpus, name), name


def test_big_endian_branch_swaps_every_item(tmp_path, wide_corpus, monkeypatch):
    native = tmp_path / "native.jsonl"
    assert _round_trip(wide_corpus, native) == native.read_bytes()
    # A big-endian host swaps each item of each column to little-endian
    # on write and back on load. Forced on a little-endian host, the
    # swaps write each item big-endian, and the load reads it back, at
    # the narrowest widths and at 4 bytes.
    monkeypatch.setattr(coordnet.corpus, "_BIG_ENDIAN", True)
    swapped = tmp_path / "swapped.jsonl"
    assert _round_trip(wide_corpus, swapped) == swapped.read_bytes()
    blocks = decode_blocks(native.read_bytes())
    assert swapped.read_bytes() == b"".join(
        encode_block(header, columns, header["widths"], "big") for header, columns in blocks
    )
    wider = decode_blocks(b"".join(_rewidened(*block, 4) for block in blocks))
    swapped.write_bytes(b"".join(
        encode_block(header, columns, header["widths"], "big") for header, columns in wider
    ))
    loaded = load_cache(swapped)
    for name in COLUMNS:
        assert getattr(loaded, name) == getattr(wide_corpus, name), name


# ---------------------------------------------------------------------------
# Malformed caches: every check rejects its case, naming file and block
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
def blocks() -> list[tuple[dict, dict]]:
    saved = coordnet.corpus.CACHE_ROWS
    coordnet.corpus.CACHE_ROWS = 3
    try:
        return decode_blocks(cache_bytes(corpus_of(*_RECORDS)))
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


def _mutated_cache(path: Path, blocks, which: int, mutate) -> Path:
    """blocks written to path with block `which` (from 1) passed through
    mutate, which edits the header and columns in place or returns the
    block's bytes. Edited columns are written at the block's own widths,
    each widened as far as the column's offsets now need, unless mutate
    set the widths."""
    data = []
    for n, (header, columns) in enumerate(blocks, start=1):
        header, columns = copy.deepcopy(header), copy.deepcopy(columns)
        widths = list(header["widths"])
        raw = mutate(header, columns) if n == which else None
        if raw is None:
            if _canonical(header.get("widths")) == _canonical(widths):
                widths = list(map(max, widths, map(narrowest, offsets(header, columns))))
                header["widths"] = widths
            raw = encode_block(header, columns, widths)
        data.append(raw)
    path.write_bytes(b"".join(data))
    return path


def _part(header, columns, key):
    return columns if key in columns else header


def _set(key, value):
    def mutate(header, columns):
        _part(header, columns, key)[key] = value
    return mutate


def _put(key, row, value):
    def mutate(header, columns):
        _part(header, columns, key)[key][row] = value
    return mutate


def _append(key, value):
    def mutate(header, columns):
        _part(header, columns, key)[key].append(value)
    return mutate


def _drop_last(key):
    def mutate(header, columns):
        _part(header, columns, key)[key].pop()
    return mutate


def _raw(old, new):
    """The header's JSON text with old replaced by new."""
    def mutate(header, columns):
        line = _canonical(header).decode("utf-8").replace(old, new)
        return line.encode() + b"\n" + encode_body(header, columns, header["widths"])
    return mutate


def _tail(cut=0, extra=b""):
    """The block's bytes with cut bytes taken off the end and extra added."""
    def mutate(header, columns):
        raw = encode_block(header, columns, header["widths"])
        return raw[: len(raw) - cut] + extra
    return mutate


def _del_key(header, columns):
    del header["languages"]


def _deep(header, columns):
    return _raw("}", ',"extra":' + "[" * 50_000 + "]" * 50_000 + "}")(header, columns)


def _header(key, value, index=None):
    """The header's key (or its entry at index) set to value, and the
    body written as before."""
    def mutate(header, columns):
        body = encode_body(header, columns, header["widths"])
        if index is None:
            header[key] = value
        else:
            header[key][index] = value
        return _canonical(header) + b"\n" + body
    return mutate


def _id(row, raw: bytes):
    """Tweet id `row` of the block set to the bytes raw, the others
    kept: the prefix moves into the suffixes, and their lengths and
    suffix_bytes follow them."""
    def mutate(header, columns):
        prefix = header["prefix"].encode()
        columns["suffixes"] = [prefix + suffix for suffix in columns["suffixes"]]
        columns["suffixes"][row] = raw
        columns["suffix_lengths"] = list(map(len, columns["suffixes"]))
        header["prefix"], header["suffix_bytes"] = "", sum(columns["suffix_lengths"])
    return mutate


def _both(first, second):
    def mutate(header, columns):
        first(header, columns)
        second(header, columns)
    return mutate


def _timestamp(row, value):
    """Timestamp `row` of the block set to value, with the offsets
    written in 8 bytes."""
    def mutate(header, columns):
        columns["timestamps"][row] = value
        header["widths"][0] = 8
        return encode_block(header, columns, header["widths"])
    return mutate


def _base(value):
    """The timestamps' base set to value, keeping their offsets."""
    def mutate(header, columns):
        columns["timestamps"] = [t - header["bases"][0] + value for t in columns["timestamps"]]
        header["bases"][0] = value
    return mutate


def _constant(column, value):
    """Every row of column set to value, written as a constant column:
    width 0 and value its base."""
    def mutate(header, columns):
        at = INTEGER_KEYS.index(column)
        columns[column] = [value] * header["rows"]
        header["bases"][at], header["widths"][at] = value, 0
        return encode_block(header, columns, header["widths"])
    return mutate


def _long_prefix(header, columns):
    """A block of 16 times CACHE_ROWS rows, its integer columns constant
    (width 0) and its tweet ids a 1 MB prefix and distinct 2-byte
    suffixes: a file of about 1 MB whose ids would take about 16 GB."""
    rows = 16 * CACHE_ROWS
    suffixes = b"".join(bytes((i >> 7, i & 127)) for i in range(rows))
    header.update(rows=rows, prefix="p" * 10**6, suffix_bytes=len(suffixes), widths=[0] * 10)
    header["bases"][2] = 2
    return _canonical(header) + b"\n" + suffixes


def _code_widths(columns) -> list[int]:
    """Each code column's narrowest width for its codes as they are."""
    return [narrowest(columns[key]) or 1 for key in CODE_KEYS]


def _timestamp_base_block(header, columns):
    """The block as the layout before this one wrote it: one base, for
    the timestamps, and 9 widths; the kinds as int8, each tweet id's
    byte length, the codes as they are, then the ids' bytes."""
    stamps = columns["timestamps"]
    line = {"rows": header["rows"], "base": (min(stamps) + max(stamps)) // 2}
    line.update((table, header[table]) for table, *_ in coordnet.corpus._CODED)
    ids = [i.encode() for i in tweet_ids(header, columns)]
    offsets = [t - line["base"] for t in stamps]
    line["widths"] = [narrowest(offsets), narrowest(list(map(len, ids))), *_code_widths(columns)]
    body = b"".join(o.to_bytes(line["widths"][0], "little", signed=True) for o in offsets)
    body += bytes(columns["kinds"])
    body += b"".join(len(i).to_bytes(line["widths"][1], "little", signed=True) for i in ids)
    body += b"".join(
        c.to_bytes(w, "little", signed=True)
        for key, w in zip(CODE_KEYS, line["widths"][2:])
        for c in columns[key]
    )
    return _canonical(line) + b"\n" + body + b"".join(ids)


def _previous_block(header, columns):
    """The block as the first binary layout wrote it: the tweet ids in
    the header line, and the timestamps as int64 in the body."""
    line = {"tweet_ids": tweet_ids(header, columns)}
    line.update((table, header[table]) for table, *_ in coordnet.corpus._CODED)
    line["widths"] = _code_widths(columns)
    body = b"".join(t.to_bytes(8, "little", signed=True) for t in columns["timestamps"])
    body += bytes(columns["kinds"])
    body += b"".join(
        c.to_bytes(w, "little", signed=True)
        for key, w in zip(CODE_KEYS, line["widths"])
        for c in columns[key]
    )
    return _canonical(line) + b"\n" + body


def _json_block(header, columns):
    """The block as the JSON-only cache layout wrote it: the integer
    columns in the line, beside the tables."""
    block = {"tweet_ids": tweet_ids(header, columns),
             "timestamps": columns["timestamps"], "kinds": columns["kinds"]}
    for table, codes, *_ in coordnet.corpus._CODED:
        block[table], block[codes] = header[table], columns[codes]
    return _canonical(block) + b"\n"


def _uncode(header, columns):
    """Block 1 as coordnet wrote it before the columns after accounts
    were coded: each of them in full, row by row."""
    block = json.loads(_json_block(header, columns))
    for table, codes, *_ in coordnet.corpus._CODED[1:]:
        values = block[table]
        block[table] = [None if c < 0 else values[c] for c in block.pop(codes)]
    return _canonical(block) + b"\n"


def _drop_retweet(header, columns):
    # row 1 of block 1 loses its retweeted_tweet_id, and the table its entry
    columns["retweeted_tweet_codes"][1] = -1
    header["retweeted_tweet_ids"] = []


def _width(column, value):
    """The entry of widths of column (one of INTEGER_KEYS) set to value."""
    return _put("widths", INTEGER_KEYS.index(column), value)


# The error of a width that is not one of those allowed for its column.
WIDTHS = "then 0, 1, 2 or 4 for the kinds, the tweet id suffix lengths and each code column"
# The error of a body that ends before or after its header says.
NOT_A_HEADER = "the block's body is followed by bytes that start no block header"

# name: (block mutated, mutation, a phrase of the error message[, the
# block named when it is not the mutated one]). A code column's bytes
# cannot hold a bool or a float, so each `*_code-bool` case (and
# `account_code-float`) puts that value where the column's width goes:
# a width that equals 1 but is not an int is refused. Both blocks share
# the prefix "t"; block 1's timestamps take 1-byte offsets and block
# 2's 4-byte ones, and block 2's mention codes are constant (width 0).
MUTATIONS = {
    "rows-not-int": (1, _set("rows", "3"), "rows must be an int"),
    "rows-bool": (1, _set("rows", True), "rows must be an int"),
    "rows-negative": (2, _set("rows", -1), "rows must be an int of at least 0"),
    # no rows to use the block's new table entries
    "rows-zero": (
        2, lambda header, columns: _tail(cut=36)(dict(header, rows=0, suffix_bytes=0), columns),
        "accounts must list the values the block uses first",
    ),
    "rows-past-cache-rows": (2, _set("rows", CACHE_ROWS + 1), f"and at most {CACHE_ROWS}"),
    "rows-many-with-long-prefix": (1, _long_prefix, f"rows must be an int of at least 0 and at"),
    "prefix-int": (1, _header("prefix", 7), "prefix must be a string"),
    "prefix-null": (2, _header("prefix", None), "prefix must be a string"),
    "suffix_bytes-bool": (1, _header("suffix_bytes", True), "suffix_bytes must be an int of at least 0"),
    "suffix_bytes-float": (2, _header("suffix_bytes", 3.0), "suffix_bytes must be an int"),
    "suffix_bytes-negative": (2, _header("suffix_bytes", -1), "suffix_bytes must be an int of at"),
    "base-float": (1, _header("bases", 1493632860.0, 0), "bases must list 10 ints"),
    "base-null": (2, _header("bases", None, 3), "bases must list 10 ints"),
    "base-bool": (2, _header("bases", True, 1), "bases must list 10 ints"),
    "bases-null": (2, _header("bases", None), "bases must list 10 ints"),
    "bases-short": (1, _header("bases", [0] * 9), "bases must list 10 ints"),
    "bases-long": (2, _header("bases", [0] * 11), "bases must list 10 ints"),
    "base-past-9999": (1, _base(253402300799), "timestamps must lie in"),
    "base-before-1": (2, _base(-62135596800), "timestamps must lie in"),
    "tweet_id-empty": (1, _id(2, b""), "tweet id suffix lengths must lie in [1, "),
    "tweet_id-invalid-utf8": (1, _id(0, b"t\xff"), "a tweet id is not valid UTF-8"),
    "tweet_id-encoded-surrogate": (2, _id(1, b"\xed\xa0\x80"), "a tweet id is not valid UTF-8"),
    # the ids' bytes are valid UTF-8 together, "t\xc3\xa9", but not each
    "tweet_id-split-character": (
        1, _both(_id(0, b"t\xc3"), _id(1, b"\xa9")), "a tweet id is not valid UTF-8"
    ),
    # a suffix that starts inside a character, after the prefix "t"
    "tweet_id-suffix-split-character": (2, _put("suffixes", 1, b"\xa9"), "not valid UTF-8"),
    "tweet_id-length-negative": (1, _put("suffix_lengths", 1, -2), "lengths must lie in [0, "),
    "tweet_id-lengths-overrun": (
        1, _put("suffix_lengths", 2, 9), "the tweet id suffix lengths sum to 11 bytes, not "
        "suffix_bytes 3",
    ),
    "tweet_id-lengths-underrun": (
        2, _put("suffix_lengths", 0, 0), "the tweet id suffix lengths sum to 2 bytes, not "
        "suffix_bytes 3",
    ),
    "tweet_id-repeated-in-block": (1, _id(2, b"t1"), "repeats a tweet id"),
    "tweet_id-repeated-across-blocks": (2, _id(1, b"t2"), "repeats a tweet id"),
    "account-int": (1, _put("accounts", 0, 7), "accounts must hold only str"),
    "account-empty": (1, _put("accounts", 1, ""), "accounts holds an empty string"),
    "account-repeated-in-block": (1, _put("accounts", 1, "a"), "accounts repeats an entry"),
    "account-repeated-across-blocks": (2, _put("accounts", 0, "a"), "accounts repeats an entry"),
    "account-unused": (1, _append("accounts", "q"), "in order of use"),
    "accounts-out-of-order": (2, _set("account_codes", [3, 2, 0]), "in order of use"),
    "account_code-bool": (2, _width("account_codes", True), WIDTHS),
    "account_code-float": (1, _width("account_codes", 1.0), WIDTHS),
    "account_code-past-table": (1, _put("account_codes", 2, 2), "account_codes must lie in [0, 1]"),
    "account_code-negative": (1, _put("account_codes", 1, -1), "account_codes must lie in"),
    "account_code-past-table-no-new": (
        2, _both(_set("accounts", []), _set("account_codes", [0, 1, 2])),
        "account_codes must lie in [0, 1]",
    ),
    "timestamp-past-9999": (1, _timestamp(0, 253402300800), "timestamps must lie in"),
    "timestamp-before-1": (2, _timestamp(2, -62135596801), "timestamps must lie in"),
    "timestamp-int64-max": (
        1, lambda header, columns: _timestamp(1, header["bases"][0] + 2**63 - 1)(header, columns),
        "timestamps must lie in",
    ),
    "kind-3": (1, _put("kinds", 0, 3), "kinds must lie in [0, 2]"),
    "kind-negative": (1, _put("kinds", 2, -1), "kinds must lie in"),
    "kind-constant-3": (2, _constant("kinds", 3), "kinds must lie in [0, 2]"),
    "text-null": (1, _put("texts", 1, None), "texts must hold only str"),
    "text-repeated-in-block": (1, _put("texts", 2, "one"), "texts repeats an entry"),
    "text-repeated-across-blocks": (2, _put("texts", 1, "one"), "texts repeats an entry"),
    "text-unused": (2, _append("texts", "seven"), "texts must list"),
    "texts-out-of-order": (1, _set("text_codes", [1, 0, 2]), "texts must list"),
    "text_code-bool": (1, _width("text_codes", False), WIDTHS),
    "text_code-past-table": (2, _put("text_codes", 2, 5), "text_codes must lie in [0, 4]"),
    "text_code-127": (2, _put("text_codes", 0, 127), "text_codes must lie in [0, 4]"),
    "text_code-minus-one": (1, _put("text_codes", 1, -1), "text_codes must lie in [0, 2]"),
    "hashtags-uppercase": (1, _put("hashtags", 0, ["x", "Y"]), "hashtags must be lowercase"),
    "hashtags-sigma": (2, _put("hashtags", 0, ["ΑΣ"]), "hashtags must be lowercase"),
    "hashtags-not-list": (1, _put("hashtags", 0, "x"), "hashtags must hold only list"),
    "hashtag-separator": (2, _put("hashtags", 0, ["a|b"]), "a hashtag holds '|'"),
    "hashtag-int": (1, _put("hashtags", 0, [1]), "hashtags must hold lists of strings"),
    "hashtags-repeated": (2, _put("hashtags", 0, ["x", "y"]), "hashtags repeats an entry"),
    "hashtags-out-of-order": (1, _set("hashtag_codes", [1, 0, 0]), "hashtags must list"),
    "hashtag_code-bool": (2, _width("hashtag_codes", True), WIDTHS),
    "hashtag_code-past-table": (1, _put("hashtag_codes", 2, 2), "hashtag_codes must lie in [0, 1]"),
    "hashtag_code-minus-one": (2, _put("hashtag_codes", 0, -1), "hashtag_codes must lie in"),
    "language-empty": (1, _put("languages", 0, ""), "languages holds an empty string"),
    "language-int": (1, _put("languages", 0, 1), "languages must hold only str"),
    "language-repeated": (2, _put("languages", 0, "und"), "languages repeats an entry"),
    "languages-out-of-order": (1, _set("language_codes", [1, 0, 0]), "languages must list"),
    "language_code-bool": (1, _width("language_codes", True), WIDTHS),
    "language_code-past-table": (2, _put("language_codes", 0, 3), "language_codes must lie in"),
    "language_code-minus-one": (1, _put("language_codes", 0, -1), "language_codes must lie in"),
    "retweet-without-id": (1, _drop_retweet, "if and only if"),
    "original-with-id": (1, _put("retweeted_tweet_codes", 0, 0), "if and only if"),
    "kind-made-retweet": (2, _put("kinds", 1, 2), "if and only if"),
    # as many -1s as non-retweets, but on the retweet
    "retweet-id-moved-to-original": (1, _set("retweeted_tweet_codes", [0, -1, -1]), "if and only if"),
    "retweeted_tweet_id-empty": (1, _put("retweeted_tweet_ids", 0, ""), "holds an empty string"),
    "retweeted_tweet_id-int": (1, _put("retweeted_tweet_ids", 0, 5), "ids must hold only str"),
    "retweeted_tweet_id-null": (2, _put("retweeted_tweet_ids", 0, None), "must hold only str"),
    "retweeted_tweet_id-repeated": (2, _put("retweeted_tweet_ids", 0, "t0"), "repeats an entry"),
    "retweeted_tweet_id-unused": (1, _append("retweeted_tweet_ids", "t9"), "in order of use"),
    "retweeted_tweet_code-bool": (2, _width("retweeted_tweet_codes", True), WIDTHS),
    "retweeted_tweet_code-past-table": (2, _put("retweeted_tweet_codes", 0, 2), "lie in [-1, 1]"),
    "retweeted_tweet_code-minus-two": (1, _put("retweeted_tweet_codes", 0, -2), "lie in [-1, 0]"),
    "retweeted_account_id-empty": (1, _put("retweeted_account_ids", 0, ""), "empty string"),
    "retweeted_account_id-bool": (2, _put("retweeted_account_ids", 0, False), "only str"),
    "retweeted_account_id-repeated": (2, _put("retweeted_account_ids", 0, "z"), "repeats an entry"),
    "retweeted_account_code-bool": (1, _width("retweeted_account_codes", False), WIDTHS),
    "retweeted_account_code-past-table": (
        1, _put("retweeted_account_codes", 2, 1), "retweeted_account_codes must lie in [-1, 0]"
    ),
    "mention-int": (1, _put("mentions", 0, [3]), "mentions must hold lists of strings"),
    "mentions-null": (1, _put("mentions", 1, None), "mentions must hold only list"),
    "mentions-repeated": (1, _put("mentions", 1, ["b"]), "mentions repeats an entry"),
    "mentions-unused": (2, _append("mentions", ["q"]), "mentions must list"),
    "mention_code-bool": (2, _width("mention_codes", True), WIDTHS),
    "mention_code-past-table": (2, _put("mention_codes", 1, 2), "mention_codes must lie in [0, 1]"),
    "mention_code-minus-one": (1, _put("mention_codes", 0, -1), "mention_codes must lie in"),
    "mention_code-constant-past-table": (
        2, _constant("mention_codes", 2), "mention_codes must lie in [0, 1]"
    ),
    "widths-3": (1, _width("text_codes", 3), WIDTHS),
    "widths-string": (1, _width("hashtag_codes", "2"), WIDTHS),
    "widths-8-code": (1, _width("language_codes", 8), WIDTHS),
    "widths-8-kinds": (2, _width("kinds", 8), WIDTHS),
    "widths-8-tweet-id-lengths": (2, _width("suffix_lengths", 8), WIDTHS),
    "widths-3-timestamps": (1, _width("timestamps", 3), WIDTHS),
    "widths-5000-digits": (2, _raw('"widths":[', '"widths":[' + "1" * 5000 + ","), ""),
    "widths-short": (1, _drop_last("widths"), "widths must list 10 widths"),
    "widths-long": (2, _append("widths", 1), "widths must list 10 widths"),
    "widths-not-list": (1, _set("widths", 1), "widths must list"),
    # A width of 0 where the rows differ: the body holds more bytes than
    # the widths call for, and the block's last bytes start no header.
    "widths-0": (1, _width("text_codes", 0), NOT_A_HEADER),
    "widths-0-last-block": (2, _width("account_codes", 0), NOT_A_HEADER),
    # A column one row short or long changes the body's size: the body
    # ends before the next block's header (or the file), or after it.
    "texts-short": (2, _drop_last("text_codes"), "the file ends 1 bytes short of the block's"),
    "timestamps-short": (2, _drop_last("timestamps"), "the file ends 4 bytes short"),
    "kinds-short": (2, _drop_last("kinds"), "the file ends 1 bytes short"),
    "mentions-short": (1, _drop_last("mention_codes"), NOT_A_HEADER),
    "account_codes-short": (2, _drop_last("account_codes"), "the file ends 1 bytes short"),
    "retweeted_account_codes-long": (1, _append("retweeted_account_codes", -1), NOT_A_HEADER),
    "body-one-byte-short": (2, _tail(cut=1), "the file ends 1 bytes short of the block's 36 body"),
    "columns-short": (2, _tail(cut=10), "the file ends 10 bytes short of the block's 36 body"),
    "bytes-after-last-block": (2, _tail(extra=b"\x00\x07"), NOT_A_HEADER),
    "header-start-after-last-block": (
        2, _tail(extra=b'{"rows"'), "the file ends inside a block header", 3
    ),
    "key-missing": (1, _del_key, "a cache block header is a JSON object with keys"),
    "key-extra": (2, _set("extra", []), "a cache block header is a JSON object with keys"),
    "not-object": (1, lambda header, columns: b"[]\n", "a cache block header is a JSON object"),
    "record-line": (
        1, lambda header, columns: b'{"tweet_id": "t1"}\n', "re-run `coordnet ingest`"
    ),
    "uncoded-block": (1, _uncode, "re-run `coordnet ingest`"),
    "json-block": (1, _json_block, "re-run `coordnet ingest`"),
    "previous-binary-block": (1, _previous_block, "re-run `coordnet ingest`"),
    "timestamp-base-block": (1, _timestamp_base_block, "re-run `coordnet ingest`"),
    "lone-surrogate-escape": (1, _raw('"one"', '"\\ud800"'), "surrogate escape"),
    "surrogate-pair-escape": (2, _raw('"five"', '"\\ud83d\\ude00"'), "surrogate escape"),
    "deep-nesting": (2, _deep, "nested too deeply"),
    "truncated": (2, _raw('"widths":', '"widths"'), "invalid JSON"),
}


def test_unmutated_blocks_load(tmp_path, blocks, monkeypatch):
    path = _mutated_cache(tmp_path / "cache.jsonl", blocks, 0, None)
    corpus = load_cache(path)
    assert records_of(corpus) == _RECORDS
    assert corpus.account_ids == ["a", "c", "b", "d"]
    # encode_block writes the bytes write_cache does
    monkeypatch.setattr(coordnet.corpus, "CACHE_ROWS", 3)
    assert cache_bytes(corpus) == path.read_bytes()


def _named_block(name) -> int:
    """The block the error of MUTATIONS[name] names."""
    which, _, _, *at = MUTATIONS[name]
    return at[0] if at else which


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_malformed_block_rejected_with_file_and_line(tmp_path, blocks, name):
    which, mutate, phrase, *_ = MUTATIONS[name]
    path = _mutated_cache(tmp_path / "cache.jsonl", blocks, which, mutate)
    with pytest.raises(CorpusError) as err:
        load_cache(path)
    # a body holds binary, so a block, not a line, locates the error
    block = _named_block(name)
    assert err.value.block == block and err.value.line_no is None
    assert str(err.value).startswith(f"{path}: block {block}: ")
    assert phrase in str(err.value)


@pytest.mark.parametrize(
    "old, new, which, phrase",
    [
        ("three", b"thr\xffe", 1, "not valid UTF-8"),
        ("five", b"f\xed\xa0\x80", 2, "not valid UTF-8"),  # an encoded lone surrogate
    ],
    ids=["invalid-byte", "encoded-surrogate"],
)
def test_undecodable_block_rejected(tmp_path, blocks, old, new, which, phrase):
    def mutate(header, columns):
        return _raw(old, "@@")(header, columns).replace(b"@@", new)

    path = _mutated_cache(tmp_path / "cache.jsonl", blocks, which, mutate)
    with pytest.raises(CorpusError) as err:
        load_cache(path)
    assert err.value.block == which
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
def test_every_stage_exits_1_naming_file_and_line(tmp_path, blocks, edges_dir, capsys, name):
    which, mutate, *_ = MUTATIONS[name]
    path = _mutated_cache(tmp_path / "cache.jsonl", blocks, which, mutate)
    assert _stage_codes(path, edges_dir, tmp_path) == [1, 1, 1, 1]
    assert capsys.readouterr().err.count(f"{path}: block {_named_block(name)}: ") == 4


def test_truncated_cache_file_exits_1(tmp_path, blocks, edges_dir, capsys):
    path = _mutated_cache(tmp_path / "cache.jsonl", blocks, 2, _tail(cut=3))
    assert main(["--json-errors", "detect", str(path), "-o", str(tmp_path / "det")]) == 1
    payload, message = capsys.readouterr().err.splitlines()
    assert json.loads(payload)["block"] == 2 and "line" not in json.loads(payload)
    assert message.startswith(f"coordnet: error: {path}: block 2: the file ends 3 bytes short")


def test_per_record_cache_asks_for_reingest(tmp_path, capsys):
    # the cache layout before column blocks: one record per line
    path = tmp_path / "cache.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        corpus_of(*_RECORDS).to_jsonl(fp)
    assert main(["detect", str(path), "-o", str(tmp_path / "det")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: block 1: " in err and "re-run `coordnet ingest`" in err


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
    """(block number, mutation): a header value or one of its cells
    replaced by any JSON value, a body cell replaced by any offset its
    width holds (1 byte for a constant column; a suffix by any bytes, its
    length kept), a cell dropped or repeated, or bytes spliced into the
    block."""
    which = draw(st.sampled_from([1, 2]))
    key = draw(st.sampled_from(sorted(
        coordnet.corpus._HEADER_KEYS | {"suffixes", *INTEGER_KEYS}
    )))
    action = draw(st.sampled_from(["column", "cell", "drop", "repeat", "splice"]))
    junk = draw(_junk)
    number = draw(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    blob = draw(st.one_of(st.binary(max_size=4), st.sampled_from([b"\xed\xa0\x80", b"\xc3"])))
    row = draw(st.integers(min_value=0, max_value=2))
    splice = draw(st.sampled_from(
        [b"\\ud800", b"\\udc00", b"[" * 50_000, b"Z", b",", b'"', b"\\u0041", b"\n", b"\xff", b"\x00"]
    ))
    at = draw(st.integers(min_value=0, max_value=400))

    def mutate(header, columns):
        if action == "splice":
            raw = encode_block(header, columns, header["widths"])
            return raw[:at] + splice + raw[at:]
        # the body as written before a header value changes
        body = encode_body(header, columns, header["widths"])
        part = _part(header, columns, key)
        column = part[key]
        if part is columns and action in ("column", "cell"):
            if key == "suffixes":
                value = blob
            else:
                # any offset from the column's base that its bytes hold
                index = INTEGER_KEYS.index(key)
                width = max(header["widths"][index], 1)
                value = (number + (1 << 63)) % (1 << 8 * width) - (1 << 8 * width - 1)
                value += header["bases"][index]
            if action == "column":
                part[key] = [value] * len(column)
            else:
                column[min(row, len(column) - 1)] = value
        elif action == "column" or type(column) is not list:
            part[key] = junk
        elif column:
            cell = min(row, len(column) - 1)
            if action == "cell":
                column[cell] = junk
            elif action == "drop":
                column.pop(cell)
            else:
                column.append(column[cell])
        return _canonical(header) + b"\n" + body if part is header else None

    return which, mutate


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(mutation=_block_mutation())
def test_mutated_cache_never_exits_3(blocks, edges_dir, mutation):
    which, mutate = mutation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = _mutated_cache(tmp / "cache.jsonl", blocks, which, mutate)
        try:
            load_cache(path)
            expected = 0
        except CorpusError:
            expected = 1
        assert _stage_codes(path, edges_dir, tmp) == [expected] * 4
