"""Tweet corpus ingestion, text normalization, and indexing.

Input is UTF-8 line-delimited JSON, one record per line. Each line is
validated and its fields are appended to a columnar Corpus: one column
per field, each but tweet ids, timestamps and kinds a table of distinct
values and an integer code per row. A Corpus comes from one of two
places: parse_corpus parses input, and the stages after ingest read the
cache of column blocks that Corpus.write_cache writes and load_cache
checks and loads. The cache holds the same tables and codes: each table
entry written once in a block's JSON header line, then the block's
columns as little-endian binary. What a block's rows share is written
once, in its header: each integer column (timestamps, kinds, tweet id
lengths, codes) is written as offsets from the column's base at the
narrowest width that holds them, none for a column of one value, and
the tweet ids as their common prefix, then each one's UTF-8 bytes
after it. This module does not import numpy, so ingest never loads it.
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
from itertools import accumulate, chain, count
from operator import itemgetter
from os.path import commonprefix
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
    text = obj.get("text")
    if text is None:
        text = ""
    elif not isinstance(text, str):
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
        little-endian. The header holds the block's rows, prefix (the
        longest common prefix of its tweet ids), suffix_bytes (the
        UTF-8 bytes of the ids after it), each coded column's (_CODED)
        table entries that its rows use first, in code order, and a
        base and a width for each of the ten integer columns, in body
        order: timestamps, kinds, tweet id suffix lengths, then each
        coded column's codes. The tables being in order of first use, a
        block's new entries run from the end of the earlier blocks'
        entries to its largest code. A column's base is its block's
        (smallest + largest) // 2, and its width the narrowest of 0, 1,
        2, 4 (and 8, for timestamps only) bytes that holds each value's
        offset from the base: 0 when every row equals the base. The
        body holds each integer column's offsets as signed ints of its
        width, then the ids' suffixes."""
        tables = self._tables()
        known = [0] * len(_CODED)
        for start in range(0, len(self), CACHE_ROWS):
            rows = slice(start, start + CACHE_ROWS)
            prefix, lengths, length_bounds, suffixes = _split_ids(self.tweet_ids[rows])
            header = {"rows": len(lengths), "prefix": prefix, "suffix_bytes": len(suffixes)}
            timestamps, kinds = self.timestamps[rows], self.kinds[rows]
            codes = [getattr(self, key)[rows] for _, key, *_ in _CODED]
            # the kinds present, by byte search rather than a pass over the rows
            used = [kind for kind in range(len(KINDS)) if kind in kinds.tobytes()]
            columns = [timestamps, kinds, lengths, *codes]
            bounds = [(min(timestamps), max(timestamps)), (used[0], used[-1]), length_bounds]
            bounds += ((min(column), max(column)) for column in codes)
            for i, (table_key, *_) in enumerate(_CODED):
                end = max(known[i], bounds[3 + i][1] + 1)
                header[table_key] = tables[i][known[i] : end]
                known[i] = end
            bases = [(low + high) // 2 for low, high in bounds]
            widths = [_width(low - base, high - base) for (low, high), base in zip(bounds, bases)]
            header["bases"], header["widths"] = bases, widths
            fp.write(_ENCODER.encode(header).encode("utf-8"))
            fp.write(b"\n")
            fp.write(b"".join(map(_offsets, columns, bases, widths)))
            fp.write(suffixes)


def _split_ids(tweet_ids: list[str]) -> tuple[str, array, tuple[int, int], bytes]:
    """A block's tweet ids as their longest common prefix, each one's
    UTF-8 byte length after it, the smallest and largest of those, and
    those bytes in turn. The prefix ends on a character, so each suffix
    is valid UTF-8."""
    encoded = list(map(str.encode, tweet_ids))
    if len(set(map(len, encoded))) > 1:
        prefix = commonprefix(tweet_ids)
        suffixes = list(map(itemgetter(slice(len(prefix.encode()), None)), encoded))
        lengths = array("i", map(len, suffixes))
        return prefix, lengths, (min(lengths), max(lengths)), b"".join(suffixes)
    # ids of one length, as is common: the prefix and the suffixes follow
    # from the ids' bytes a position at a time, ~0.17 ms faster per
    # 1,024-row block than the slices above (2 vCPUs)
    rows, length, joined = len(encoded), len(encoded[0]), b"".join(encoded)
    cut = 0
    while cut < length and joined[cut::length] == joined[cut : cut + 1] * rows:
        cut += 1
    # a byte 0b10xxxxxx continues a character
    while cut < length and 0x80 <= joined[cut] < 0xC0:
        cut -= 1
    suffixes = bytearray(rows * (length - cut))
    for i in range(cut, length):
        suffixes[i - cut :: length - cut] = joined[i::length]
    suffix = length - cut
    return joined[:cut].decode(), array("i", [suffix]) * rows, (suffix, suffix), bytes(suffixes)


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
# int that wide: a block writes each integer column's offsets from its
# base at the narrowest width that holds them, and no bytes (width 0)
# when every row equals the base. Only timestamps may take 8 bytes;
# kinds, lengths and codes fit in 4.
_WIDTHS = {1: "b", 2: "h", 4: "i", 8: "q"}
_ALLOWED_WIDTHS = frozenset((0, *_WIDTHS))
# A body is read in reads of at most this many bytes, so that a header
# that claims more than the file holds allocates no more than it.
_READ_BYTES = 1 << 20
# The body is little-endian. A big-endian host swaps each column's items
# on write and on load, and narrows and widens them through arrays of
# their width; a little-endian one moves the bytes with slices.
_BIG_ENDIAN = sys.byteorder == "big"
# bytes.translate table: each byte with its top bit flipped.
_FLIP_TOP = bytes(b ^ 0x80 for b in range(256))

# A \u escape of a UTF-16 surrogate: an odd run of backslashes before the
# u, so an escaped backslash followed by "ud800" text does not match.
_BLOCK_SURROGATE_RE = re.compile(r"(?<!\\)(?:\\\\)*\\u[dD][89a-fA-F]")


def _read(fp, size: int) -> bytes:
    """The next size bytes of fp, a block's body; ValueError when the
    file ends first."""
    parts = []
    left = size
    while left > 0:
        part = fp.read(min(left, _READ_BYTES))
        if not part:
            raise ValueError(f"the file ends {left} bytes short of the block's {size} body bytes")
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _width(low: int, high: int) -> int:
    """The narrowest width that holds every int from low to high: 0
    when both are 0."""
    if low == high == 0:
        return 0
    return next(w for w in _WIDTHS if -(1 << 8 * w - 1) <= low and high < 1 << 8 * w - 1)


@lru_cache(maxsize=16)
def _lanes(rows: int, size: int) -> tuple[int, int]:
    """The integer of rows lanes of size bytes that each hold 1, and the
    one whose lanes each hold their top bit."""
    bits = 8 * size
    lanes = ((1 << bits * rows) - 1) // ((1 << bits) - 1)
    return lanes, lanes << bits - 1


def _plus(base: int, values: array) -> bytes:
    """The native bytes of base + each item of values, an array of
    signed ints whose sums all lie in its typecode's range.

    Read as one unsigned integer, the items' bytes hold each item in a
    lane of its size. Flipping each lane's top bit turns an item x of b
    bits into x + 2**(b-1), in [0, 2**b). Adding base to every lane at
    once then carries into no other lane, since each sum + 2**(b-1) lies
    in [0, 2**b) too, and a second flip turns the lanes back: a few
    integer operations per column of a block instead of an add per
    row."""
    size = values.itemsize
    lanes, top = _lanes(len(values), size)
    shifted = int.from_bytes(values.tobytes(), sys.byteorder) ^ top
    return ((shifted + base * lanes) ^ top).to_bytes(size * len(values), sys.byteorder)


def _offsets(column: array, base: int, width: int) -> bytes:
    """Each item of column less base, as little-endian signed ints of
    width bytes, which hold every such offset: on a little-endian host,
    the first width bytes of each item's."""
    if not width:
        return b""
    wide = _plus(-base, column)
    size = column.itemsize
    if _BIG_ENDIAN:
        offsets = array(column.typecode)
        offsets.frombytes(wide)
        offsets = array(_WIDTHS[width], offsets)
        offsets.byteswap()
        return offsets.tobytes()
    if width == size:
        return wide
    narrow = bytearray(len(column) * width)
    for i in range(width):
        narrow[i::width] = wide[i::size]
    return bytes(narrow)


def _based(
    data: bytes, base: int, width: int, rows: int, size: int, key: str, low: int, high: int
) -> bytes:
    """base + each offset in data, little-endian signed ints of width
    bytes, as little-endian items of size bytes; ValueError unless every
    sum lies in [low, high], which size bytes hold.

    Each offset o goes into a lane of its own as o + half, where half is
    2**(8 * width - 1), so in [0, 2 * half). A lane is an item, or one
    byte wider when o fills the item, so its top bit lies above 2 * half.
    Read as one integer, the lanes then take one addition per check and
    per sum, and no lane carries into the next: adding 2**(b-1) - least
    to each lane of b bits sets its top bit where o + half >= least, and
    adding base - half + 2**(b-1) leaves base + o + 2**(b-1), in
    [0, 2**b) once the sums are checked, whose low size bytes are the
    sum's (or, in a lane of size bytes, its bytes with the top bit
    flipped)."""
    lane = size if width < size else width + 1
    spread = bytearray(rows * lane)
    for i in range(width - 1):
        spread[i::lane] = data[i::width]
    spread[width - 1 :: lane] = data[width - 1 :: width].translate(_FLIP_TOP)
    lanes, top = _lanes(rows, lane)
    half, mid = 1 << 8 * width - 1, 1 << 8 * lane - 1
    biased = int.from_bytes(spread, "little")
    # each o + half must lie in [least, most]
    least, most = low - base + half, high - base + half
    if (least > 0 and (biased + (mid - min(least, 2 * half)) * lanes) & top != top) or (
        most < 2 * half - 1 and (biased + (mid - 1 - max(most, -1)) * lanes) & top
    ):
        raise ValueError(f"{key} must lie in [{low}, {high}]")
    sums = biased + (base - half + mid) * lanes
    if lane == size:
        return (sums ^ top).to_bytes(rows * size, "little")
    sums = sums.to_bytes(rows * lane, "little")
    items = bytearray(rows * size)
    for i in range(size):
        items[i::size] = sums[i::lane]
    return items


def _integers(
    data: bytes, base: int, width: int, rows: int, typecode: str, key: str, low: int, high: int,
    new: tuple[str, int] | None = None,
) -> array:
    """The integer column whose offsets from base data holds, each a
    little-endian signed int of width bytes, as an array of typecode;
    ValueError unless every value lies in [low, high], which typecode
    holds. new, for a code column whose table gained entries in the
    block, is (the table's name, the first of them): the rows must use
    the entries from it to high first, in order."""
    values = array(typecode)
    if not width:
        if rows and not low <= base <= high:
            raise ValueError(f"{key} must lie in [{low}, {high}]")
        values = array(typecode, [base]) * rows
    elif _BIG_ENDIAN:
        offsets = array(_WIDTHS[width])
        offsets.frombytes(data)
        offsets.byteswap()
        if offsets and not (low <= base + min(offsets) and base + max(offsets) <= high):
            raise ValueError(f"{key} must lie in [{low}, {high}]")
        # summed in items that hold both the offsets and the sums
        wide = _WIDTHS[max(width, values.itemsize)]
        sums = array(wide)
        sums.frombytes(_plus(base, array(wide, offsets)))
        values.extend(sums if wide == typecode else array(typecode, sums))
    else:
        values.frombytes(_based(data, base, width, rows, values.itemsize, key, low, high))
    if new:
        table, fresh = new
        if [c for c in dict.fromkeys(values) if c >= fresh] != list(range(fresh, high + 1)):
            raise ValueError(f"{table} must list the values the block uses first, in order of use")
    return values


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
# The integer columns of a block body, in order, each with a base and a
# width in the header: timestamps, kinds, tweet id suffix lengths, codes.
_INTEGER_COLUMNS = 3 + len(_CODED)
_HEADER_KEYS = frozenset(
    ("rows", "prefix", "suffix_bytes", *(table for table, *_ in _CODED), "bases", "widths")
)
# bytes.translate tables: 1 for a kind code but RETWEET, and 1 for a byte
# whose sign bit is set
_NOT_RETWEET = bytes(kind != RETWEET for kind in range(256))
_NEGATIVE = bytes(b >= 0x80 for b in range(256))
# The byte of a native array("i") item that holds its sign.
_SIGN_BYTE = 3 if sys.byteorder == "little" else 0
# The largest value of an array("i") item: a bound on tweet id lengths.
_INT32_MAX = (1 << 31) - 1


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
    if type(header) is dict and header.keys() & {"tweet_id", "tweet_ids", "timestamps", "base"}:
        raise ValueError(
            "a record or a block of an older layout, not a cache block header: a cache from an "
            "older coordnet (or a corpus not yet ingested); re-run `coordnet ingest` to rebuild "
            "the cache"
        )
    raise ValueError(
        f"a cache block header is a JSON object with keys {', '.join(sorted(_HEADER_KEYS))}"
    )


def _ints(header: dict, key: str) -> list[int]:
    """header[key], checked to list an int for each integer column."""
    values = header[key]
    if (
        type(values) is not list
        or len(values) != _INTEGER_COLUMNS
        or not set(map(type, values)).issubset((int,))
    ):
        raise ValueError(f"{key} must list {_INTEGER_COLUMNS} ints, one per integer column")
    return values


def _widths(header: dict) -> list[int]:
    """header's widths: 0, 1, 2, 4 or 8 bytes for the timestamps, then
    0, 1, 2 or 4 for the kinds, the tweet id suffix lengths and each
    code column."""
    widths = header["widths"]
    if (
        type(widths) is not list
        or len(widths) != _INTEGER_COLUMNS
        or not set(map(type, widths)).issubset((int,))
        or not set(widths).issubset(_ALLOWED_WIDTHS)
        or 8 in widths[1:]
    ):
        raise ValueError(
            f"widths must list {_INTEGER_COLUMNS} widths: 0, 1, 2, 4 or 8 bytes for the "
            "timestamps, then 0, 1, 2 or 4 for the kinds, the tweet id suffix lengths and each "
            "code column"
        )
    return widths


# The Structs that split tweet ids are made here, not through
# struct.unpack, whose cache keeps up to 100 compiled formats of a block's
# size each; only the few formats of ids of one length are kept.
@lru_cache(maxsize=4)
def _id_struct(length: int, rows: int) -> Struct:
    """The Struct that splits rows ids of length bytes each."""
    return Struct(f"{length}s" * rows)


def _tweet_ids(prefix: str, lengths: array, uniform: bool, suffixes: bytes) -> list[str]:
    """The block's tweet ids: prefix, then each suffix in turn of
    suffixes, its length of UTF-8 bytes; uniform when every length is
    the first. Each id is decoded whole, which checks its suffix, since
    the prefix ends on a character."""
    rows = len(lengths)
    start = prefix.encode()
    if uniform:
        # ids of one length, as is common: each byte position of the
        # ids is filled at once, from the prefix or from the suffixes
        suffix = lengths[0] if rows else 0
        length = len(start) + suffix
        ids = bytearray(rows * length)
        for i in range(len(start)):
            ids[i::length] = start[i : i + 1] * rows
        for i in range(suffix):
            ids[len(start) + i :: length] = suffixes[i::suffix]
        parts = _id_struct(length, rows).unpack(ids)
    else:
        parts = map(start.__add__, Struct("%ds" * rows % tuple(lengths)).unpack(suffixes))
    try:
        return list(map(bytes.decode, parts))
    except UnicodeDecodeError:
        raise ValueError("a tweet id is not valid UTF-8") from None


def _extend(corpus: Corpus, header: dict, fp, tables: list, claimed: set) -> None:
    """Read the body of the block whose header is given from fp, check
    the block in bulk and append its rows to corpus; tables holds each
    coded column's (corpus table, set of its entries) and claimed the
    tweet ids of the blocks before it."""
    rows, prefix, suffix_bytes = header["rows"], header["prefix"], header["suffix_bytes"]
    # write_cache writes no more rows to a block, so the ids, each the
    # prefix and a suffix, take at most CACHE_ROWS times the block's size
    if type(rows) is not int or not 0 <= rows <= CACHE_ROWS:
        raise ValueError(f"rows must be an int of at least 0 and at most {CACHE_ROWS}")
    if type(prefix) is not str:
        raise ValueError("prefix must be a string")
    if type(suffix_bytes) is not int or suffix_bytes < 0:
        raise ValueError("suffix_bytes must be an int of at least 0")
    bases, widths = _ints(header, "bases"), _widths(header)
    body = _read(fp, rows * sum(widths) + suffix_bytes)
    if fp.peek(1)[:1] not in (b"", b"{"):
        raise ValueError("the block's body is followed by bytes that start no block header")
    ends = list(accumulate((width * rows for width in widths), initial=0))
    # each integer column's (bytes, base, width), in body order
    columns = [(body[a:b], *bw) for a, b, *bw in zip(ends, ends[1:], bases, widths)]
    timestamps = _integers(*columns[0], rows, "q", "timestamps", _MIN_TIMESTAMP, _MAX_TIMESTAMP)
    kinds = _integers(*columns[1], rows, "b", "kinds", 0, len(KINDS) - 1)
    # with no prefix, a suffix is the whole id, which may not be empty
    lengths = _integers(
        *columns[2], rows, "i", "tweet id suffix lengths", 0 if prefix else 1, _INT32_MAX
    )
    first = lengths[0] if rows else 0
    uniform = not widths[2] or lengths.count(first) == rows
    total = first * rows if uniform else sum(lengths)
    if total != suffix_bytes:
        raise ValueError(
            f"the tweet id suffix lengths sum to {total} bytes, not suffix_bytes {suffix_bytes}"
        )
    codes = {}
    for (table, key, check, nullable), (values, seen), column in zip(_CODED, tables, columns[3:]):
        entries = check(header, table)
        known = len(values)
        seen.update(entries)
        if len(seen) != known + len(entries):
            raise ValueError(f"{table} repeats an entry of the file's table")
        values.extend(entries)
        codes[key] = _integers(
            *column, rows, "i", key, -1 if nullable else 0, len(values) - 1,
            (table, known) if entries else None,
        )
    # retweets hold a retweeted tweet code and the other rows -1, its one
    # negative code: the sign byte of each row's code says which
    negative = codes["retweeted_tweet_codes"].tobytes()[_SIGN_BYTE::4].translate(_NEGATIVE)
    if negative != kinds.tobytes().translate(_NOT_RETWEET):
        raise ValueError("a row has retweeted_tweet_id if and only if it is a retweet")
    tweet_ids = _tweet_ids(prefix, lengths, uniform, body[ends[-1] :])
    known = len(claimed)
    claimed.update(tweet_ids)
    if len(claimed) != known + rows:
        raise ValueError("tweet_ids repeats a tweet id")

    corpus.tweet_ids.extend(tweet_ids)
    corpus.timestamps.extend(timestamps)
    corpus.kinds.extend(kinds)
    for key, column in codes.items():
        getattr(corpus, key).extend(column)


def load_cache(path) -> Corpus:
    """Load the cache that Corpus.write_cache wrote to path.

    Per block, one json.loads of the header line and one read of the
    body, whose size follows from the header, then every column is
    checked in bulk: each table entry once, the integer columns as
    arrays, each base added to its column's offsets at once. So a block
    holds nothing a record that ingest accepted could not: exact types
    (a bool is not an int), at most CACHE_ROWS rows, a str prefix,
    non-empty ids and language tags, lowercase hashtags without
    HASHTAG_SEPARATOR, lists of strings, an int base and a width of 0,
    1, 2 or 4 bytes (or 8, for timestamps only) for each integer column,
    codes within their table (-1, for none, only in the two retweet
    columns) and new table entries distinct and in order of first use,
    timestamps in years 1-9999, valid kind codes, a retweeted_tweet_id
    code on retweets and only there, tweet id suffixes whose lengths sum
    to the header's suffix_bytes, each valid UTF-8, full ids non-empty
    and distinct across the whole file, a body of exactly the bytes its
    header calls for, followed by the end of the file or a "{" (a body
    that runs on past its size into bytes starting with "{" is then
    refused by the next block's checks, naming that block), strict
    UTF-8 and no surrogate escapes in the headers. Any other content, a
    cache of an earlier layout among it, raises CorpusError naming the
    file and the block. The tables and codes become the corpus's as
    they are.
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
