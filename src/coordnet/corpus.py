"""Tweet corpus ingestion, text normalization, and indexing.

Input is UTF-8 line-delimited JSON, one record per line. Records are
validated and normalized into immutable TweetRecord objects; a Corpus
holds them together with per-account and per-day (UTC) index views.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator

KINDS = ("original", "reply", "retweet")

SECONDS_PER_DAY = 86400

# Serialization order of the line format; unknown input fields are ignored.
_RECORD_FIELDS = (
    "tweet_id",
    "account_id",
    "timestamp",
    "kind",
    "text",
    "hashtags",
    "language",
    "retweeted_tweet_id",
    "retweeted_account_id",
    "mentions",
)


class CorpusError(ValueError):
    """A malformed record or unreadable corpus stream."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One message: original tweet, reply, or retweet."""

    tweet_id: str
    account_id: str
    timestamp: int  # UTC seconds
    kind: str
    text: str = ""
    hashtags: tuple[str, ...] = ()
    language: str = "und"
    retweeted_tweet_id: str | None = None
    retweeted_account_id: str | None = None
    mentions: tuple[str, ...] = ()

    def day(self) -> str:
        """UTC calendar day of this record, as YYYY-MM-DD."""
        return day_of_timestamp(self.timestamp)


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
    ts = _parse_timestamp(value)
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


def _as_id(value, name: str) -> str:
    if isinstance(value, str):
        if not value:
            raise ValueError(f"{name} must be non-empty")
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"{name} must be a string")


def _as_str_list(value, name: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{name} must be a list of strings")
    return tuple(value)


def parse_record(obj: dict) -> TweetRecord:
    """Validate one decoded JSON object into a TweetRecord.

    Raises ValueError on any schema violation; hashtags are lowercased
    here (matching on the platform is case-insensitive).
    """
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    for required in ("tweet_id", "account_id", "timestamp", "kind"):
        if obj.get(required) is None:
            raise ValueError(f"missing field: {required}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    language = obj.get("language") or "und"
    if not isinstance(language, str):
        raise ValueError("language must be a string")
    rt_tweet = obj.get("retweeted_tweet_id")
    rt_account = obj.get("retweeted_account_id")
    if kind == "retweet" and rt_tweet is None:
        raise ValueError("retweet record lacks retweeted_tweet_id")
    if kind != "retweet" and rt_tweet is not None:
        raise ValueError(f"{kind} record carries retweeted_tweet_id")
    return TweetRecord(
        tweet_id=_as_id(obj["tweet_id"], "tweet_id"),
        account_id=_as_id(obj["account_id"], "account_id"),
        timestamp=parse_timestamp(obj["timestamp"]),
        kind=kind,
        text=text,
        hashtags=tuple(t.lower() for t in _as_str_list(obj.get("hashtags"), "hashtags")),
        language=language,
        retweeted_tweet_id=None if rt_tweet is None else _as_id(rt_tweet, "retweeted_tweet_id"),
        retweeted_account_id=None
        if rt_account is None
        else _as_id(rt_account, "retweeted_account_id"),
        mentions=_as_str_list(obj.get("mentions"), "mentions"),
    )


# A JSON escape of a UTF-16 surrogate: half of a pair, or a lone one.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_line(line: str) -> TweetRecord:
    """Parse one JSONL line; ValueError for anything not a valid record.

    Undecodable bytes (kept as surrogates by parse_corpus) and lone
    surrogate escapes are rejected here: either would parse, then fail
    when the record is written back out as UTF-8.
    """
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("line is not valid UTF-8") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if _SURROGATE_ESCAPE_RE.search(line):
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("string holds a lone UTF-16 surrogate") from None
    return parse_record(obj)


def record_to_json(rec: TweetRecord) -> str:
    """Canonical one-line JSON form; round-trips through parse_line."""
    obj = {
        "tweet_id": rec.tweet_id,
        "account_id": rec.account_id,
        "timestamp": rec.timestamp,
        "kind": rec.kind,
        "text": rec.text,
        "hashtags": list(rec.hashtags),
        "language": rec.language,
        "retweeted_tweet_id": rec.retweeted_tweet_id,
        "retweeted_account_id": rec.retweeted_account_id,
        "mentions": list(rec.mentions),
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def iter_records(
    lines: Iterable[str],
    strict: bool = False,
    skip_counter: list[int] | None = None,
) -> Iterator[TweetRecord]:
    """Stream TweetRecords from an iterable of JSONL lines.

    Blank lines are ignored. In strict mode the first malformed line
    aborts with its line number; in lenient mode malformed lines are
    counted into skip_counter[0] and skipped. This is the bounded-memory
    ingestion path: nothing is retained beyond the record being yielded.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield parse_line(line)
        except ValueError as exc:
            if strict:
                raise CorpusError(str(exc), line_no=line_no) from None
            if skip_counter is not None:
                skip_counter[0] += 1


class Corpus:
    """Immutable record store with per-account and per-day index views."""

    def __init__(self, records: list[TweetRecord], skipped: int = 0):
        self.records = records
        self.skipped = skipped
        self.account_index: dict[str, list[int]] = {}
        self.day_index: dict[str, list[int]] = {}
        for i, rec in enumerate(records):
            self.account_index.setdefault(rec.account_id, []).append(i)
            self.day_index.setdefault(rec.day(), []).append(i)

    def __len__(self) -> int:
        return len(self.records)

    def accounts(self) -> list[str]:
        return sorted(self.account_index)

    def days(self) -> list[str]:
        return sorted(self.day_index)

    def records_for_account(self, account_id: str) -> list[TweetRecord]:
        return [self.records[i] for i in self.account_index.get(account_id, [])]

    def records_for_day(self, day: str) -> list[TweetRecord]:
        return [self.records[i] for i in self.day_index.get(day, [])]

    def time_range(self) -> tuple[int, int] | None:
        if not self.records:
            return None
        stamps = [r.timestamp for r in self.records]
        return min(stamps), max(stamps)

    def to_jsonl(self, fp) -> None:
        for rec in self.records:
            fp.write(record_to_json(rec))
            fp.write("\n")


def parse_corpus(source, strict: bool = False) -> Corpus:
    """Parse a JSONL stream (path, file object, or iterable of lines).

    Lenient mode (the default) skips malformed lines and reports the
    count via Corpus.skipped; strict mode aborts on the first one.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        # surrogateescape: an undecodable byte fails its own line in
        # parse_line instead of the whole read.
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fp:
            return parse_corpus(fp, strict=strict)
    skip_counter = [0]
    records = list(iter_records(source, strict=strict, skip_counter=skip_counter))
    return Corpus(records, skipped=skip_counter[0])


# ---------------------------------------------------------------------------
# Text normalization
# ---------------------------------------------------------------------------

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_WS_RE = re.compile(r"\s+")
# Keep ASCII alphanumerics, whitespace, and the @/# sigils; "#" removal is
# governed solely by strip_hashtag_marks, and "@user" placeholders survive.
_NON_KEEP_RE = re.compile(r"[^0-9A-Za-z\s@#]", re.ASCII)


@dataclass(frozen=True)
class NormalizeOptions:
    strip_urls: bool = True
    replace_mentions: bool = True
    strip_hashtag_marks: bool = True
    lowercase: bool = True
    strip_punct_nonascii: bool = True


DEFAULT_NORMALIZE = NormalizeOptions()

# Punctuation/non-ASCII stripping would delete accented characters, so the
# phrase-matching normalization used by the lexicon scorer keeps them.
MATCH_NORMALIZE = NormalizeOptions(strip_punct_nonascii=False)


def _normalize_pass(s: str, options: NormalizeOptions) -> str:
    if options.strip_urls:
        s = _URL_RE.sub(" ", s)
    if options.replace_mentions:
        # Trailing space keeps the placeholder from fusing with following
        # word characters once punctuation is stripped.
        s = _MENTION_RE.sub("@user ", s)
    if options.strip_hashtag_marks:
        s = s.replace("#", "")
    if options.lowercase:
        s = s.lower()
    if options.strip_punct_nonascii:
        s = _NON_KEEP_RE.sub("", s)
    return _WS_RE.sub(" ", s).strip()


def normalize_text(text: str, options: NormalizeOptions = DEFAULT_NORMALIZE) -> str:
    """Deterministically normalize text; idempotent for any option set.

    Options apply in a fixed order: URLs, mentions, hashtag marks, case,
    punctuation/non-ASCII; whitespace is always collapsed. The pass is
    iterated to a fixed point because stripping punctuation can expose
    new mention tokens (e.g. "@!t" -> "@t"); no step reintroduces
    punctuation or "@", so this converges within three passes.
    """
    s = _normalize_pass(text, options)
    while True:
        again = _normalize_pass(s, options)
        if again == s:
            return s
        s = again


def daily_volume(corpus: Corpus) -> list[tuple[str, dict[str, int]]]:
    """Per-UTC-day record counts split by kind, sorted by day."""
    out = []
    for day in corpus.days():
        counts = {kind: 0 for kind in KINDS}
        for rec in corpus.records_for_day(day):
            counts[rec.kind] += 1
        out.append((day, counts))
    return out
