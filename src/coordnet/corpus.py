"""Tweet corpus ingestion, text normalization, and indexing.

Input is UTF-8 line-delimited JSON, one record per line. Each line is
validated and its fields are appended to a columnar Corpus: one column
per field, each but tweet ids, timestamps and kinds a table of distinct
values and an integer code per row. A Corpus comes from one of two
places: parse_corpus parses input, and the stages after ingest read the
cache of column blocks that Corpus.write_cache writes and load_cache
checks and loads. The cache holds the same tables and codes: each table
entry written once in a block's JSON header line, then the block's
columns as little-endian binary. Timestamps are offsets from a base in
the header, tweet ids their UTF-8 bytes after the byte length of each,
and every offset, length and code is written at the narrowest width
that holds its block's values. This module does not import numpy, so
ingest never loads it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from collections import Counter
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, compress, count
from struct import Struct
from typing import Callable, Iterator

from coordnet.sources import open_text

KINDS = ("original", "reply", "retweet")
# Codes in Corpus.kinds: indexes into KINDS.
ORIGINAL, REPLY, RETWEET = range(len(KINDS))
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

SECONDS_PER_DAY = 86400
# Joins the tags of a hashtag k-gram key (detectors), so no hashtag may
# hold it: ["a|b", "c"] and ["a", "b|c"] would share the key "a|b|c".
HASHTAG_SEPARATOR = "|"


class CorpusError(ValueError):
    """A malformed record or unreadable corpus stream; source, when
    given, names the file the line (or cache block) is in."""

    def __init__(
        self, message: str, line_no: int | None = None, source=None, block: int | None = None
    ):
        self.line_no = line_no
        self.block = block
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if block is not None:
            message = f"block {block}: {message}"
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)


class RecordError(ValueError):
    """A rejected input line, with the reason ingest counts it under
    (Corpus.skip_reasons)."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


def day_of_timestamp(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z
_MIN_TIMESTAMP = -62135596800
_MAX_TIMESTAMP = 253402300799


def parse_timestamp(value) -> int:
    """Parse an epoch-seconds number or ISO-8601 string to UTC seconds.

    A fraction of a second rounds down, so an instant before 1970 stays
    on its day. Non-finite numbers and instants outside years 1-9999 UTC
    (which day_of_timestamp cannot render) raise ValueError.
    """
    # A plain int (every cached record's form) needs no conversion;
    # bool is a subclass of int, so it still takes the checked path.
    ts = value if type(value) is int else _parse_timestamp(value)
    if not _MIN_TIMESTAMP <= ts <= _MAX_TIMESTAMP:
        raise ValueError(f"timestamp out of range (years 1-9999 UTC): {value!r}")
    return ts


def _parse_timestamp(value) -> int:
    if isinstance(value, bool):
        raise ValueError("timestamp must be a number or ISO-8601 string")
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"non-finite timestamp: {value!r}")
        return math.floor(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return math.floor(float(text))
        except OverflowError:
            raise ValueError(f"unparseable timestamp: {value!r}") from None
        except ValueError:
            pass
        # fromisoformat reads a trailing Z but not z
        if text.endswith("Z") or text.endswith("z"):
            text = text[:-1] + "+00:00"
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ValueError(f"unparseable timestamp: {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return math.floor(dt.timestamp())
    raise ValueError(f"unparseable timestamp: {value!r}")


def _as_timestamp(value) -> int:
    try:
        return parse_timestamp(value)
    except ValueError as exc:
        raise RecordError("bad_timestamp", str(exc)) from None


def _as_id(value, name: str) -> str:
    if isinstance(value, str):
        if not value:
            raise RecordError("bad_id", f"{name} must be non-empty")
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise RecordError("bad_id", f"{name} must be a string")


def _as_str_list(value, name: str) -> tuple[str, ...]:
    if value is None:
        return ()
    # An empty list, the common case, skips building the all() generator.
    if not isinstance(value, list) or (value and not all(isinstance(x, str) for x in value)):
        raise RecordError("bad_list", f"{name} must be a list of strings")
    return tuple(value)


def _as_hashtags(value) -> tuple[str, ...]:
    tags = tuple(map(str.lower, _as_str_list(value, "hashtags")))
    if tags and HASHTAG_SEPARATOR in "".join(tags):
        raise RecordError("bad_hashtag", f"a hashtag holds {HASHTAG_SEPARATOR!r}")
    return tags


def _validate_record(obj, emit: Callable):
    """Check one decoded JSON object and return emit(fields).

    emit receives the normalized fields positionally (tweet_id,
    account_id, timestamp, kind, text, hashtags, language,
    retweeted_tweet_id, retweeted_account_id, mentions), and only once
    every check has passed. Raises RecordError, with the reason ingest
    counts, on any schema violation; hashtags are lowercased here
    (matching on the platform is case-insensitive) and may not hold
    HASHTAG_SEPARATOR.
    """
    if not isinstance(obj, dict):
        raise RecordError("not_object", "record must be a JSON object")
    for required in ("tweet_id", "account_id", "timestamp", "kind"):
        if obj.get(required) is None:
            raise RecordError("missing_field", f"missing field: {required}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise RecordError("bad_kind", f"kind must be one of {KINDS}, got {kind!r}")
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise RecordError("bad_text", "text must be a string")
    language = obj.get("language")
    if language is None or language == "":
        language = "und"
    elif not isinstance(language, str):
        raise RecordError("bad_language", "language must be a string")
    rt_tweet = obj.get("retweeted_tweet_id")
    rt_account = obj.get("retweeted_account_id")
    if kind == "retweet" and rt_tweet is None:
        raise RecordError("retweet_rule", "retweet record lacks retweeted_tweet_id")
    if kind != "retweet" and rt_tweet is not None:
        raise RecordError("retweet_rule", f"{kind} record carries retweeted_tweet_id")
    return emit(
        _as_id(obj["tweet_id"], "tweet_id"),
        _as_id(obj["account_id"], "account_id"),
        _as_timestamp(obj["timestamp"]),
        kind,
        text,
        _as_hashtags(obj.get("hashtags")),
        language,
        None if rt_tweet is None else _as_id(rt_tweet, "retweeted_tweet_id"),
        None if rt_account is None else _as_id(rt_account, "retweeted_account_id"),
        _as_str_list(obj.get("mentions"), "mentions"),
    )


# A JSON escape of a UTF-16 surrogate: half of a pair, or a lone one.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def _decode_line(line: str):
    """The JSON value of one line; ValueError when the line is not
    UTF-8 JSON that could be written back out as UTF-8.

    Undecodable bytes (kept as surrogates by parse_corpus) and lone
    surrogate escapes are rejected here: either would parse, then fail
    when the record is written back out as UTF-8.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError("not_utf8", "line is not valid UTF-8") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError("invalid_json", f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise RecordError("invalid_json", "invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer past int_max_str_digits
        raise RecordError("invalid_json", str(exc)) from None
    if _SURROGATE_ESCAPE_RE.search(line):
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError("lone_surrogate", "string holds a lone UTF-16 surrogate") from None
    return obj


# The canonical JSON form of records and cache block headers: json.dumps with
# non-default arguments would build a new JSONEncoder per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def _encode_record(
    tweet_id, account_id, timestamp, kind, text, hashtags, language, rt_tweet, rt_account, mentions
) -> str:
    """Canonical one-line JSON form of a record's fields (in the order
    _validate_record emits them); tuples encode as JSON arrays."""
    return _ENCODER.encode(
        {
            "tweet_id": tweet_id,
            "account_id": account_id,
            "timestamp": timestamp,
            "kind": kind,
            "text": text,
            "hashtags": hashtags,
            "language": language,
            "retweeted_tweet_id": rt_tweet,
            "retweeted_account_id": rt_account,
            "mentions": mentions,
        }
    )


class Corpus:
    """Records as columns, one per field, with derived index views.

    Row i of every column is the i-th record. Beside tweet_ids, the
    timestamps (UTC seconds) and kind codes (ORIGINAL, REPLY, RETWEET)
    are stdlib arrays. Every other field is a table of its distinct
    values in order of first use and an array("i") of a code per row
    (_CODED names both): account_ids[account_codes[i]] wrote row i,
    texts[text_codes[i]] is its text, and so on. -1, in the two retweet
    columns only, stands for no target; a row's hashtags or mentions are
    one tuple entry, () for none. code_of maps an account id back to its
    code. Nothing here needs numpy, and the arrays convert to numpy
    arrays without a copy.
    """

    def __init__(self):
        # lines parse_corpus skipped
        self.skipped = 0
        # reason -> lines skipped for it (RecordError.reason); sums to skipped
        self.skip_reasons: dict[str, int] = {}
        self.tweet_ids: list[str] = []
        self.account_ids: list[str] = []
        self.code_of: dict[str, int] = {}
        self.account_codes = array("i")
        self.timestamps = array("q")
        self.kinds = array("b")
        for table, codes, *_ in _CODED[1:]:
            setattr(self, table, [])
            setattr(self, codes, array("i"))

    def _appender(self) -> Callable:
        """An emit for _validate_record that appends one row, or raises
        RecordError for a tweet_id an earlier row holds: the first
        record of a tweet_id is the one kept."""
        claimed: set[str] = set()
        claim = claimed.add
        code_of, names = self.code_of, self.account_ids
        texts, tags, languages, rt_tweets, rt_accounts, mention_lists = (
            _Coder(getattr(self, table), nullable) for table, _, _, nullable in _CODED[1:]
        )
        add_tweet, add_account = self.tweet_ids.append, self.account_codes.append
        add_ts, add_kind = self.timestamps.append, self.kinds.append
        add_text, add_tags = self.text_codes.append, self.hashtag_codes.append
        add_language = self.language_codes.append
        add_rt_tweet = self.retweeted_tweet_codes.append
        add_rt_account = self.retweeted_account_codes.append
        add_mentions = self.mention_codes.append

        def append(
            tweet_id, account_id, timestamp, kind, text, hashtags, language,
            rt_tweet, rt_account, mentions,
        ):
            if tweet_id in claimed:
                raise RecordError("duplicate_tweet_id", f"duplicate tweet_id {tweet_id!r}")
            claim(tweet_id)
            code = code_of.get(account_id)
            if code is None:
                code = code_of[account_id] = len(names)
                names.append(account_id)
            add_tweet(tweet_id)
            add_account(code)
            add_ts(timestamp)
            add_kind(_KIND_CODES[kind])
            add_text(texts[text])
            add_tags(tags[hashtags])
            add_language(languages[language])
            add_rt_tweet(rt_tweets[rt_tweet])
            add_rt_account(rt_accounts[rt_account])
            add_mentions(mention_lists[mentions])

        return append

    def __len__(self) -> int:
        return len(self.tweet_ids)

    def _fields(self) -> Iterator[tuple]:
        """Each row's fields, in the order _validate_record emits them."""
        # a nullable table reads None at code -1
        account, *coded = (
            map((table + [None] if nullable else table).__getitem__, getattr(self, codes))
            for table, (_, codes, _, nullable) in zip(self._tables(), _CODED)
        )
        return zip(
            self.tweet_ids, account, self.timestamps, map(KINDS.__getitem__, self.kinds), *coded
        )

    def _tables(self) -> list[list]:
        """Each coded column's table, in _CODED order."""
        return [self.account_ids, *(getattr(self, table) for table, *_ in _CODED[1:])]

    def day_codes(self) -> list[int]:
        """Each row's UTC day as days since 1970-01-01 (floor division,
        so instants before 1970 fall on the right day)."""
        return [ts // SECONDS_PER_DAY for ts in self.timestamps]

    def accounts(self) -> list[str]:
        return sorted(self.account_ids)

    def time_range(self) -> tuple[int, int] | None:
        if not self.timestamps:
            return None
        return min(self.timestamps), max(self.timestamps)

    def to_jsonl(self, fp) -> None:
        write = fp.write
        for fields in self._fields():
            write(_encode_record(*fields))
            write("\n")

    def write_cache(self, fp) -> None:
        """Write the columns to a binary file as cache blocks of
        CACHE_ROWS rows; load_cache reads them back. A block is one
        canonical JSON header line, then its body, raw and
        little-endian. The header holds the block's rows, the base of
        its timestamps, (smallest + largest) // 2, each coded column's
        (_CODED) table entries that its rows use first, in code order,
        and widths, the bytes per value of the timestamps, the tweet id
        lengths and each coded column, in body order. The tables being
        in order of first use, a block's new entries run from the end of
        the earlier blocks' entries to its largest code. The body holds
        each timestamp's offset from the base, the kinds as int8, each
        tweet id's UTF-8 byte length, then each coded column's codes,
        all as signed ints of their width: the narrowest of 1, 2, 4 (and
        8, for offsets only) bytes that holds the block's smallest and
        largest value. Last come the tweet ids' UTF-8 bytes."""
        tables = self._tables()
        known = [0] * len(_CODED)
        for start in range(0, len(self), CACHE_ROWS):
            rows = slice(start, start + CACHE_ROWS)
            timestamps = self.timestamps[rows]
            low, high = min(timestamps), max(timestamps)
            base = (low + high) // 2
            tweet_ids = list(map(str.encode, self.tweet_ids[rows]))
            lengths = array("i", map(len, tweet_ids))
            widths = [_width(low - base, high - base), _width(min(lengths), max(lengths))]
            header = {"rows": len(tweet_ids), "base": base}
            body = [
                _little_endian(array(_WIDTHS[widths[0]], map(base.__rsub__, timestamps))),
                self.kinds[rows].tobytes(),
                _narrow(lengths, widths[1]),
            ]
            for i, (table_key, codes_key, *_) in enumerate(_CODED):
                codes = getattr(self, codes_key)[rows]
                low, high = min(codes), max(codes)
                end = max(known[i], high + 1)
                header[table_key] = tables[i][known[i] : end]
                known[i] = end
                widths.append(_width(low, high))
                body.append(_narrow(codes, widths[-1]))
            header["widths"] = widths
            body.append(b"".join(tweet_ids))
            fp.write(_ENCODER.encode(header).encode("utf-8"))
            fp.write(b"\n")
            fp.write(b"".join(body))


class _Coder(dict):
    """value -> code for one coded column as parse_corpus reads it: each
    value new to the corpus takes the next code and joins table, and
    None is coded -1 when nullable."""

    def __init__(self, table: list, nullable: bool):
        super().__init__({None: -1} if nullable else {})
        self.table = table

    def __missing__(self, value) -> int:
        code = self[value] = len(self.table)
        self.table.append(value)
        return code


def parse_corpus(source, strict: bool = False) -> Corpus:
    """Parse a JSONL stream (path, file object, or iterable of lines).

    Each line is validated straight into the columns; lines stream
    through, so only the corpus and a set of its tweet ids are held.
    Blank lines are ignored. The first record of a tweet_id is kept; a
    later line with that id is rejected as duplicate_tweet_id, and a
    line claims its id only once it passes every other check. Lenient
    mode (the default) skips rejected lines and reports the count via
    Corpus.skipped; strict mode aborts on the first one with its line
    number.
    """
    corpus = Corpus()
    append = corpus._appender()
    reasons: Counter = Counter()
    # surrogateescape: an undecodable byte fails its own line in
    # _decode_line instead of the whole read.
    with open_text(source, errors="surrogateescape") as fp:
        for line_no, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                _validate_record(_decode_line(line), append)
            except ValueError as exc:
                if strict:
                    raise CorpusError(str(exc), line_no=line_no) from None
                reasons[getattr(exc, "reason", "other")] += 1
    corpus.skipped = sum(reasons.values())
    corpus.skip_reasons = dict(reasons)
    return corpus


# ---------------------------------------------------------------------------
# The cache: column blocks
# ---------------------------------------------------------------------------

# Rows per cache block: one header decode and one bulk check per column
# per block. A larger block adds its decoded objects to a stage's peak RSS.
CACHE_ROWS = 1024

# Widths in bytes, narrowest first, with the array typecode of a signed
# int that wide: a block writes each integer column but the kinds at the
# narrowest width that holds the column's smallest and largest value. Only
# timestamp offsets may take 8 bytes; lengths and codes fit in 4.
_WIDTHS = {1: "b", 2: "h", 4: "i", 8: "q"}
# A part of a body is read in reads of at most this many bytes, so that a
# header that claims more than the file holds allocates no more than it.
_READ_BYTES = 1 << 20
# The body is little-endian. A big-endian host swaps each column's items
# on write and on load, and narrows and widens codes through arrays of
# their width; a little-endian one moves the bytes with slices.
_BIG_ENDIAN = sys.byteorder == "big"
# bytes.translate table: 0xff for a byte whose sign bit is set, else 0.
_SIGN_BYTES = bytes(0xFF if b & 0x80 else 0 for b in range(256))

# A \u escape of a UTF-16 surrogate: an odd run of backslashes before the
# u, so an escaped backslash followed by "ud800" text does not match.
_BLOCK_SURROGATE_RE = re.compile(r"(?<!\\)(?:\\\\)*\\u[dD][89a-fA-F]")


def _little_endian(column: array) -> bytes:
    """column's items as little-endian bytes on any host."""
    if _BIG_ENDIAN:
        column = column[:]
        column.byteswap()
    return column.tobytes()


def _read(fp, size: int, what: str) -> bytes:
    """The next size bytes of fp, the part of a block body that what
    names; ValueError when the file ends first."""
    parts = []
    left = size
    while left > 0:
        part = fp.read(min(left, _READ_BYTES))
        if not part:
            raise ValueError(
                f"the file ends {left} bytes short of the block's {size} bytes of {what}"
            )
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _from_little_endian(column: array, data: bytes) -> array:
    """column with the little-endian items in data appended."""
    column.frombytes(data)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _width(low: int, high: int) -> int:
    """The narrowest code width that holds every int from low to high."""
    return next(w for w in _WIDTHS if -(1 << 8 * w - 1) <= low and high < 1 << 8 * w - 1)


def _narrow(codes: array, width: int) -> bytes:
    """An array("i") as little-endian signed ints of width bytes (at most
    4), which hold every code: on a little-endian host, the first width
    bytes of each 4-byte code."""
    if _BIG_ENDIAN:
        return _little_endian(array(_WIDTHS[width], codes))
    wide = codes.tobytes()
    if width == 4:
        return wide
    narrow = bytearray(len(codes) * width)
    for i in range(width):
        narrow[i::width] = wide[i::4]
    return bytes(narrow)


def _widen(narrow: bytes, width: int, typecode: str = "i") -> array:
    """Little-endian signed ints of width bytes as an array of typecode,
    "i" or "q": on a little-endian host, each int's bytes, then copies
    of its sign bit."""
    size = array(typecode).itemsize
    if _BIG_ENDIAN:
        values = _from_little_endian(array(_WIDTHS[width]), narrow)
        return values if width == size else array(typecode, values)
    if width != size:
        wide = bytearray(len(narrow) // width * size)
        for i in range(width):
            wide[i::size] = narrow[i::width]
        signs = narrow[width - 1 :: width].translate(_SIGN_BYTES)
        for i in range(width, size):
            wide[i::size] = signs
        narrow = wide
    values = array(typecode)
    values.frombytes(narrow)
    return values


@lru_cache(maxsize=2)
def _lanes(rows: int) -> tuple[int, int]:
    """The integer of rows 64-bit lanes that each hold 1, and the one
    whose lanes each hold 2**63."""
    lanes = ((1 << 64 * rows) - 1) // ((1 << 64) - 1)
    return lanes, lanes << 63


def _plus(base: int, offsets: array) -> bytes:
    """The native bytes of an array("q") of base + each item of offsets,
    an array("q") whose sums all lie in int64.

    Read as one unsigned integer, the items' bytes hold each item in a
    64-bit lane. Flipping each lane's top bit turns an item x into
    x + 2**63, in [0, 2**64). Adding base to every lane at once then
    carries into no other lane, since each sum + 2**63 lies in
    [0, 2**64) too, and a second flip turns the lanes back: a few
    integer operations per block instead of an add per row."""
    lanes, top = _lanes(len(offsets))
    shifted = int.from_bytes(offsets.tobytes(), sys.byteorder) ^ top
    return ((shifted + base * lanes) ^ top).to_bytes(8 * len(offsets), sys.byteorder)


def _column(block: dict, key: str, types: tuple) -> list:
    """block[key], checked to be a list of values of exactly these types
    (a bool is not an int)."""
    column = block[key]
    if type(column) is not list:
        raise ValueError(f"{key} must be a list")
    if not set(map(type, column)).issubset(types):
        raise ValueError(f"{key} must hold only {' or '.join(t.__name__ for t in types)} values")
    return column


def _strings(block: dict, key: str) -> list[str]:
    return _column(block, key, (str,))


def _ids(block: dict, key: str) -> list[str]:
    column = _strings(block, key)
    if "" in column:
        raise ValueError(f"{key} holds an empty string")
    return column


def _in_range(column: array, key: str, low: int, high: int) -> None:
    if column and not (low <= min(column) and max(column) <= high):
        raise ValueError(f"{key} must lie in [{low}, {high}]")


def _string_lists(block: dict, key: str) -> list[tuple[str, ...]]:
    lists = _column(block, key, (list,))
    if not set(map(type, chain.from_iterable(lists))).issubset((str,)):
        raise ValueError(f"{key} must hold lists of strings")
    return list(map(tuple, lists))


def _hashtag_lists(block: dict, key: str) -> list[tuple[str, ...]]:
    lists = _string_lists(block, key)
    joined = "\n".join(chain.from_iterable(lists))
    if joined.lower() != joined:
        raise ValueError(f"{key} must be lowercase")
    if HASHTAG_SEPARATOR in joined:
        raise ValueError(f"a hashtag holds {HASHTAG_SEPARATOR!r}")
    return lists


# The coded columns: (table, codes, the check of the table's entries,
# whether None is allowed and coded -1). Each name is a Corpus attribute,
# but the accounts table is Corpus.account_ids; the table names are block
# header keys. A block's table lists the entries new to the file, in
# order of first use; each row holds a code into the file's table, the
# Corpus table.
_CODED = (
    ("accounts", "account_codes", _ids, False),
    ("texts", "text_codes", _strings, False),
    ("hashtags", "hashtag_codes", _hashtag_lists, False),
    ("languages", "language_codes", _ids, False),
    ("retweeted_tweet_ids", "retweeted_tweet_codes", _ids, True),
    ("retweeted_account_ids", "retweeted_account_codes", _ids, True),
    ("mentions", "mention_codes", _string_lists, False),
)
_HEADER_KEYS = frozenset(("rows", "base", *(table for table, *_ in _CODED), "widths"))
# bytes(kinds).translate(_RETWEET_FLAGS): 1 for a retweet, else 0
_RETWEET_FLAGS = bytes(kind == RETWEET for kind in range(256))


def _decode_header(line: bytes) -> dict:
    """The JSON object of one block header line, with exactly the
    header keys."""
    if not line.endswith(b"\n"):
        raise ValueError(
            "the file ends inside a block header: a truncated cache, or bytes after its last block"
        )
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("block header is not valid UTF-8") from None
    if ("\\ud" in text or "\\uD" in text) and _BLOCK_SURROGATE_RE.search(text):
        raise ValueError("block header holds a UTF-16 surrogate escape")
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if type(header) is dict and header.keys() == _HEADER_KEYS:
        return header
    if type(header) is dict and header.keys() & {"tweet_id", "tweet_ids", "timestamps"}:
        raise ValueError(
            "a record or a block of an older layout, not a cache block header: a cache from an "
            "older coordnet (or a corpus not yet ingested); re-run `coordnet ingest` to rebuild "
            "the cache"
        )
    raise ValueError(
        f"a cache block header is a JSON object with keys {', '.join(sorted(_HEADER_KEYS))}"
    )


def _widths(header: dict) -> list[int]:
    """header's widths: 1, 2, 4 or 8 bytes for the timestamp offsets,
    then 1, 2 or 4 for the tweet id lengths and each code column."""
    widths = header["widths"]
    if (
        type(widths) is not list
        or len(widths) != 2 + len(_CODED)
        or not set(map(type, widths)).issubset((int,))
        or not set(widths).issubset(_WIDTHS)
        or 8 in widths[1:]
    ):
        raise ValueError(
            f"widths must list {2 + len(_CODED)} widths: 1, 2, 4 or 8 bytes for the timestamps, "
            "then 1, 2 or 4 for the tweet id lengths and each code column"
        )
    return widths


# The Structs that split tweet ids are made here, not through
# struct.unpack, whose cache keeps up to 100 compiled formats of a block's
# size each; only the few formats of ids of one length are kept.
@lru_cache(maxsize=4)
def _id_struct(length: int, rows: int) -> Struct:
    """The Struct that splits rows ids of length bytes each."""
    return Struct("<" + f"{length}s" * rows)


def _tweet_ids(fp, lengths: array) -> list[str]:
    """The block's tweet ids, read from fp: each its length of UTF-8
    bytes."""
    rows = len(lengths)
    first = lengths[0] if rows else 1
    uniform = lengths.count(first) == rows  # ids of one length, as is common
    if (first if uniform else min(lengths)) < 1:
        raise ValueError("tweet_ids holds an empty id")
    split = _id_struct(first, rows) if uniform else Struct("<" + "%ds" * rows % tuple(lengths))
    parts = split.unpack(_read(fp, split.size, "tweet ids"))
    try:
        return list(map(bytes.decode, parts))
    except UnicodeDecodeError:
        raise ValueError("a tweet id is not valid UTF-8") from None


def _codes(header: dict, column: tuple, values: list, seen: set, codes: array) -> None:
    """Check one coded column of a block: its table's entries join the
    file's values (and seen), and its codes index them."""
    table, key, check, nullable = column
    entries = check(header, table)
    known = len(values)
    seen.update(entries)
    if len(seen) != known + len(entries):
        raise ValueError(f"{table} repeats an entry of the file's table")
    values.extend(entries)
    low = -1 if nullable else 0
    if not entries:
        _in_range(codes, key, low, known - 1)
        return
    # the block's new entries, in the order its rows first use them (so
    # no code lies past the table)
    distinct = dict.fromkeys(codes)
    fresh = [c for c in distinct if c >= known]
    if fresh != list(range(known, len(values))) or min(distinct, default=low) < low:
        _in_range(codes, key, low, len(values) - 1)
        raise ValueError(f"{table} must list the values the block uses first, in order of use")


def _extend(corpus: Corpus, header: dict, fp, tables: list, claimed: set) -> None:
    """Read the body of the block whose header is given from fp, check
    the block in bulk and append its rows to corpus; tables holds each
    coded column's (corpus table, set of its entries) and claimed the
    tweet ids of the blocks before it."""
    rows, base = header["rows"], header["base"]
    if type(rows) is not int or rows < 0:
        raise ValueError("rows must be an int of at least 0")
    if type(base) is not int:
        raise ValueError("base must be an int")
    timestamp_width, length_width, *code_widths = widths = _widths(header)
    body = _read(fp, rows * (1 + sum(widths)), "columns")
    start = timestamp_width * rows
    offsets = _widen(body[:start], timestamp_width, "q")
    # offsets of this width reach at most half either side of the base,
    # so only a base near year 1 or 9999 needs their own range checked
    half = 1 << 8 * timestamp_width - 1
    if offsets and not (_MIN_TIMESTAMP <= base - half and base + half <= _MAX_TIMESTAMP):
        if not (_MIN_TIMESTAMP <= base + min(offsets) and base + max(offsets) <= _MAX_TIMESTAMP):
            raise ValueError(f"timestamps must lie in [{_MIN_TIMESTAMP}, {_MAX_TIMESTAMP}]")
    kind_bytes = body[start : start + rows]
    kinds = array("b", kind_bytes)
    _in_range(kinds, "kinds", 0, len(KINDS) - 1)
    start += rows
    lengths = _widen(body[start : start + length_width * rows], length_width)
    start += length_width * rows
    codes = {}
    for column, table, width in zip(_CODED, tables, code_widths):
        end = start + width * rows
        codes[column[1]] = _widen(body[start:end], width)
        _codes(header, column, *table, codes[column[1]])
        start = end
    # retweets hold a retweeted tweet code, so the -1s are the other rows
    retweeted = codes["retweeted_tweet_codes"]
    retweets = kind_bytes.translate(_RETWEET_FLAGS)
    if -1 in compress(retweeted, retweets) or retweeted.count(-1) != rows - kinds.count(RETWEET):
        raise ValueError("a row has retweeted_tweet_id if and only if it is a retweet")
    tweet_ids = _tweet_ids(fp, lengths)
    known = len(claimed)
    claimed.update(tweet_ids)
    if len(claimed) != known + rows:
        raise ValueError("tweet_ids repeats a tweet id")

    corpus.tweet_ids.extend(tweet_ids)
    corpus.timestamps.frombytes(_plus(base, offsets))
    corpus.kinds.extend(kinds)
    for key, column in codes.items():
        getattr(corpus, key).extend(column)


def load_cache(path) -> Corpus:
    """Load the cache that Corpus.write_cache wrote to path.

    Per block, one json.loads of the header line and two reads of the
    body, its integer columns and then its tweet ids, then every column
    is checked in bulk: each table entry once, the integer columns as
    arrays. So a block holds nothing a record that ingest accepted could
    not: exact types (a bool is not an int), non-empty ids and language
    tags, lowercase hashtags without HASHTAG_SEPARATOR, lists of
    strings, widths of 1, 2 or 4 bytes (or 8, for timestamp offsets
    only), codes within their table (-1, for none, only in the two
    retweet columns) and new table entries distinct and in order of
    first use, timestamps (base + offset) in years 1-9999, valid kind
    codes, a retweeted_tweet_id code on retweets and only there, tweet
    ids non-empty, valid UTF-8 and distinct across the whole file, a
    body of exactly the bytes its header's rows and widths and its id
    lengths call for, strict UTF-8 and no surrogate escapes in the
    headers. Any other content, a cache written before the timestamps
    were offsets and the tweet ids sized bytes among it, raises
    CorpusError naming the file and the block. The tables and codes
    become the corpus's as they are.
    """
    corpus = Corpus()
    tables = [(table, set()) for table in corpus._tables()]
    claimed: set[str] = set()
    with open(path, "rb") as fp:
        for block in count(1):
            line = fp.readline()
            if not line:
                break
            try:
                _extend(corpus, _decode_header(line), fp, tables, claimed)
            except ValueError as exc:
                raise CorpusError(str(exc), block=block, source=path) from None
    del tables, claimed  # freed before code_of is built, so they do not add to its peak
    corpus.code_of.update(zip(corpus.account_ids, range(len(corpus.account_ids))))
    return corpus


# ---------------------------------------------------------------------------
# Text normalization
# ---------------------------------------------------------------------------

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_WS_RE = re.compile(r"\s+")
# Keep ASCII alphanumerics, whitespace, and "@", so "@user" placeholders
# survive; "#" marks are removed before this runs.
_NON_KEEP_RE = re.compile(r"[^0-9A-Za-z\s@]", re.ASCII)


def _normalize_pass(s: str, strip_punct_nonascii: bool) -> str:
    s = _URL_RE.sub(" ", s)
    # Trailing space keeps the placeholder from fusing with following
    # word characters once punctuation is stripped.
    s = _MENTION_RE.sub("@user ", s)
    s = s.replace("#", "").lower()
    if strip_punct_nonascii:
        s = _NON_KEEP_RE.sub("", s)
    return _WS_RE.sub(" ", s).strip()


def normalize_text(text: str, strip_punct_nonascii: bool = True) -> str:
    """Deterministically normalize text; idempotent in either setting.

    Steps apply in a fixed order: URLs stripped, mentions replaced by
    "@user", hashtag marks removed, lowercased, then punctuation and
    non-ASCII stripped unless strip_punct_nonascii is False (the
    lexicon's phrase matching keeps accented characters); whitespace is
    always collapsed. The pass is iterated to a fixed point because
    stripping punctuation can expose new mention tokens (e.g. "@!t" ->
    "@t"); no step reintroduces punctuation or "@", so this converges
    within three passes.

    A first pass whose output holds no "@", "http" or "www" is already
    the fixed point, so the confirming pass is skipped: no URL or mention
    can match, "#" is gone, str.lower is idempotent on every code point,
    and the punctuation strip and the whitespace collapse have run.
    """
    s = _normalize_pass(text, strip_punct_nonascii)
    if "@" not in s and "http" not in s and "www" not in s:
        return s
    while True:
        again = _normalize_pass(s, strip_punct_nonascii)
        if again == s:
            return s
        s = again


def daily_volume(corpus: Corpus) -> list[tuple[str, dict[str, int]]]:
    """Per-UTC-day record counts split by kind, sorted by day."""
    by_day: dict[int, list[int]] = {}
    for (day, kind), n in Counter(zip(corpus.day_codes(), corpus.kinds)).items():
        by_day.setdefault(day, [0] * len(KINDS))[kind] = n
    # Day codes sort like the YYYY-MM-DD days they render as.
    return [
        (day_of_timestamp(day * SECONDS_PER_DAY), dict(zip(KINDS, counts)))
        for day, counts in sorted(by_day.items())
    ]
