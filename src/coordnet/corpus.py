"""Tweet corpus ingestion, text normalization, and indexing.

Input is UTF-8 line-delimited JSON, one record per line. Each line is
validated and its fields are appended to a columnar Corpus: one column
per field, account ids interned as integer codes, with a per-account
index view derived on first use. A Corpus comes from one of two places:
parse_corpus parses input, and the stages after ingest read the cache
of column blocks that Corpus.write_cache writes and load_cache checks
and loads. This module does not import numpy, so ingest never loads it.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, repeat
from operator import is_not
from types import NoneType
from typing import Callable, Iterator

from coordnet.sources import open_text

KINDS = ("original", "reply", "retweet")
# Codes in Corpus.kinds: indexes into KINDS.
ORIGINAL, REPLY, RETWEET = range(len(KINDS))
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

SECONDS_PER_DAY = 86400


class CorpusError(ValueError):
    """A malformed record or unreadable corpus stream; source, when
    given, names the file the line is in."""

    def __init__(self, message: str, line_no: int | None = None, source=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
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

    Non-finite numbers and instants outside years 1-9999 UTC (which
    day_of_timestamp cannot render) raise ValueError.
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
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(float(text))
        except OverflowError:
            raise ValueError(f"unparseable timestamp: {value!r}") from None
        except ValueError:
            pass
        # fromisoformat in 3.10 rejects a trailing Z
        if text.endswith("Z") or text.endswith("z"):
            text = text[:-1] + "+00:00"
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise ValueError(f"unparseable timestamp: {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
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


def _validate_record(obj, emit: Callable):
    """Check one decoded JSON object and return emit(fields).

    emit receives the normalized fields positionally (tweet_id,
    account_id, timestamp, kind, text, hashtags, language,
    retweeted_tweet_id, retweeted_account_id, mentions), and only once
    every check has passed. Raises RecordError, with the reason ingest
    counts, on any schema violation; hashtags are lowercased here
    (matching on the platform is case-insensitive).
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
    language = obj.get("language") or "und"
    if not isinstance(language, str):
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
        tuple(map(str.lower, _as_str_list(obj.get("hashtags"), "hashtags"))),
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


# The canonical JSON form of records and cache blocks: json.dumps with
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

    Row i of every column is the i-th record. Accounts are interned:
    account_ids[account_codes[i]] wrote row i, codes in order of first
    appearance, and code_of maps an account id back to its code.
    Timestamps (UTC seconds), account codes and kind codes (ORIGINAL,
    REPLY, RETWEET) are stdlib arrays, the other columns lists; a row
    without hashtags or mentions holds (). Nothing here needs numpy,
    and the arrays convert to numpy arrays without a copy.
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
        self.texts: list[str] = []
        self.hashtags: list[tuple[str, ...]] = []
        self.languages: list[str] = []
        self.retweeted_tweet_ids: list[str | None] = []
        self.retweeted_account_ids: list[str | None] = []
        self.mentions: list[tuple[str, ...]] = []

    def _appender(self) -> Callable:
        """An emit for _validate_record that appends one row, or raises
        RecordError for a tweet_id an earlier row holds: the first
        record of a tweet_id is the one kept. Repeated language tags and
        retweeted account ids share one string."""
        claimed: set[str] = set()
        claim = claimed.add
        code_of, names = self.code_of, self.account_ids
        share = {}.setdefault
        add_tweet, add_account = self.tweet_ids.append, self.account_codes.append
        add_ts, add_kind, add_text = self.timestamps.append, self.kinds.append, self.texts.append
        add_tags, add_language = self.hashtags.append, self.languages.append
        add_rt_tweet = self.retweeted_tweet_ids.append
        add_rt_account = self.retweeted_account_ids.append
        add_mentions = self.mentions.append

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
            add_text(text)
            add_tags(hashtags)
            add_language(share(language, language))
            add_rt_tweet(rt_tweet)
            add_rt_account(share(rt_account, rt_account))
            add_mentions(mentions)

        return append

    def __len__(self) -> int:
        return len(self.tweet_ids)

    def _fields(self) -> Iterator[tuple]:
        """Each row's fields, in the order _validate_record emits them."""
        return zip(
            self.tweet_ids,
            map(self.account_ids.__getitem__, self.account_codes),
            self.timestamps,
            map(KINDS.__getitem__, self.kinds),
            self.texts,
            self.hashtags,
            self.languages,
            self.retweeted_tweet_ids,
            self.retweeted_account_ids,
            self.mentions,
        )

    def day_codes(self) -> list[int]:
        """Each row's UTC day as days since 1970-01-01 (floor division,
        so instants before 1970 fall on the right day)."""
        return [ts // SECONDS_PER_DAY for ts in self.timestamps]

    @cached_property
    def account_index(self) -> dict[str, list[int]]:
        """Account id -> its rows, ascending; accounts in code order."""
        rows: list[list[int]] = [[] for _ in self.account_ids]
        for i, code in enumerate(self.account_codes):
            rows[code].append(i)
        return dict(zip(self.account_ids, rows))

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
        """Write the columns to a text file as cache blocks, one
        canonical JSON line per CACHE_ROWS rows; load_cache reads them
        back. Each block lists the account ids its rows use first, in
        code order, so the blocks rebuild the same account table."""
        seen = 0
        for start in range(0, len(self), CACHE_ROWS):
            rows = slice(start, start + CACHE_ROWS)
            codes = self.account_codes[rows]
            first_unseen = max(seen, max(codes) + 1)
            block = {
                "tweet_ids": self.tweet_ids[rows],
                "accounts": self.account_ids[seen:first_unseen],
                "account_codes": codes.tolist(),
                "timestamps": self.timestamps[rows].tolist(),
                "kinds": self.kinds[rows].tolist(),
                "texts": self.texts[rows],
                "hashtags": self.hashtags[rows],
                "languages": self.languages[rows],
                "retweeted_tweet_ids": self.retweeted_tweet_ids[rows],
                "retweeted_account_ids": self.retweeted_account_ids[rows],
                "mentions": self.mentions[rows],
            }
            fp.write(_ENCODER.encode(block))
            fp.write("\n")
            seen = first_unseen


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

# Rows per cache block: one json.loads and one bulk check per column per
# block. A larger block adds its decoded objects to a stage's peak RSS.
CACHE_ROWS = 1024

_BLOCK_KEYS = frozenset(
    (
        "tweet_ids", "accounts", "account_codes", "timestamps", "kinds", "texts",
        "hashtags", "languages", "retweeted_tweet_ids", "retweeted_account_ids", "mentions",
    )
)
# A \u escape of a UTF-16 surrogate: an odd run of backslashes before the
# u, so an escaped backslash followed by "ud800" text does not match.
_BLOCK_SURROGATE_RE = re.compile(r"(?<!\\)(?:\\\\)*\\u[dD][89a-fA-F]")


def _column(block: dict, key: str, types: tuple, rows: int | None = None) -> list:
    """block[key], checked to be a list of values of exactly these types
    (a bool is not an int) and, when rows is given, that long."""
    column = block[key]
    if type(column) is not list:
        raise ValueError(f"{key} must be a list")
    if rows is not None and len(column) != rows:
        raise ValueError(f"{key} holds {len(column)} rows, tweet_ids {rows}")
    if not set(map(type, column)).issubset(types):
        names = " or ".join("null" if t is NoneType else t.__name__ for t in types)
        raise ValueError(f"{key} must hold only {names} values")
    return column


def _ids(block: dict, key: str, rows: int | None = None, nullable: bool = False) -> list:
    column = _column(block, key, (str, NoneType) if nullable else (str,), rows)
    if "" in column:
        raise ValueError(f"{key} holds an empty string")
    return column


def _in_range(column: list, key: str, low: int, high: int) -> None:
    if column and not (low <= min(column) and max(column) <= high):
        raise ValueError(f"{key} must lie in [{low}, {high}]")


def _string_lists(block: dict, key: str, rows: int) -> list[str]:
    """The strings of a column of string lists, flattened."""
    strings = list(chain.from_iterable(_column(block, key, (list,), rows)))
    if not set(map(type, strings)).issubset((str,)):
        raise ValueError(f"{key} must hold lists of strings")
    return strings


def _decode_block(line: bytes) -> dict:
    """The JSON object of one cache line, with exactly the block keys."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("block is not valid UTF-8") from None
    if ("\\ud" in text or "\\uD" in text) and _BLOCK_SURROGATE_RE.search(text):
        raise ValueError("block holds a UTF-16 surrogate escape")
    try:
        block = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if type(block) is dict and block.keys() == _BLOCK_KEYS:
        return block
    if type(block) is dict and "tweet_id" in block:
        raise ValueError(
            "a record, not a cache block: a per-record cache from an older coordnet "
            "(or a corpus not yet ingested); re-run `coordnet ingest` to rebuild the cache"
        )
    raise ValueError(f"a cache block is a JSON object with keys {', '.join(sorted(_BLOCK_KEYS))}")


def _extend(corpus: Corpus, block: dict, share: Callable, claimed: set) -> None:
    """Check one decoded block in bulk and append its rows to corpus;
    claimed holds the tweet ids of the blocks before it."""
    tweet_ids = _ids(block, "tweet_ids")
    rows = len(tweet_ids)
    known = len(claimed)
    claimed.update(tweet_ids)
    if len(claimed) != known + rows:
        raise ValueError("tweet_ids repeats a tweet id")
    accounts = _ids(block, "accounts")
    codes = _column(block, "account_codes", (int,), rows)
    timestamps = _column(block, "timestamps", (int,), rows)
    kinds = _column(block, "kinds", (int,), rows)
    texts = _column(block, "texts", (str,), rows)
    hashtags = _string_lists(block, "hashtags", rows)
    languages = _ids(block, "languages", rows)
    rt_tweets = _ids(block, "retweeted_tweet_ids", rows, nullable=True)
    rt_accounts = _ids(block, "retweeted_account_ids", rows, nullable=True)
    _string_lists(block, "mentions", rows)

    code_of, names = corpus.code_of, corpus.account_ids
    known = len(names)
    code_of.update(zip(accounts, range(known, known + len(accounts))))
    if len(code_of) != known + len(accounts):
        raise ValueError("accounts repeats an account id")
    names.extend(accounts)
    _in_range(codes, "account_codes", 0, len(names) - 1)
    # the block's new accounts, in the order its rows first use them
    if [c for c in dict.fromkeys(codes) if c >= known] != list(range(known, len(names))):
        raise ValueError("accounts must list the ids the block uses first, in order of first use")
    _in_range(timestamps, "timestamps", _MIN_TIMESTAMP, _MAX_TIMESTAMP)
    _in_range(kinds, "kinds", 0, len(KINDS) - 1)
    if list(map(RETWEET.__eq__, kinds)) != list(map(is_not, rt_tweets, repeat(None))):
        raise ValueError("a row has retweeted_tweet_id if and only if it is a retweet")
    joined = "\n".join(hashtags)
    if joined.lower() != joined:
        raise ValueError("hashtags must be lowercase")

    corpus.tweet_ids.extend(tweet_ids)
    corpus.account_codes.fromlist(codes)
    corpus.timestamps.fromlist(timestamps)
    corpus.kinds.fromlist(kinds)
    corpus.texts.extend(texts)
    corpus.hashtags.extend(map(tuple, block["hashtags"]))
    corpus.languages.extend(map(share, languages, languages))
    corpus.retweeted_tweet_ids.extend(rt_tweets)
    corpus.retweeted_account_ids.extend(map(share, rt_accounts, rt_accounts))
    corpus.mentions.extend(map(tuple, block["mentions"]))


def load_cache(path) -> Corpus:
    """Load the cache that Corpus.write_cache wrote to path.

    One json.loads per block, then every column is checked in bulk, so
    a block holds nothing a record that ingest accepted could not: exact
    types (a bool is not an int), non-empty ids, account codes within
    the account table and in order of first use, timestamps in years
    1-9999, valid kind codes, retweeted_tweet_id on retweets and only
    there, lowercase hashtags, distinct account ids, distinct tweet ids
    across the whole file, strict UTF-8 and no surrogate escapes. Any
    other content raises CorpusError naming the file and the line.
    """
    corpus = Corpus()
    # Repeated language tags and retweeted account ids share one string.
    share = {}.setdefault
    claimed: set[str] = set()
    with open(path, "rb") as fp:
        for line_no, line in enumerate(fp, start=1):
            try:
                _extend(corpus, _decode_block(line), share, claimed)
            except ValueError as exc:
                raise CorpusError(str(exc), line_no=line_no, source=path) from None
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
    """
    s = _normalize_pass(text, strip_punct_nonascii)
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
