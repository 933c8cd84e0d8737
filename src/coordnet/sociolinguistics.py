"""Per-tweet confidences for the socio-linguistic characteristics.

Confidences arrive either from an externally produced CSV table or from
the built-in deterministic lexicon scorer (a stand-in that lets the
pipeline run end-to-end without model inference). All values live in
[0, 1]; binarization thresholds them into 0/1 labels.

A CharacteristicTable holds each distinct confidence row once and a
row code per tweet. score_corpus builds one and write_confidences writes
it with the standard library alone, so the `score` stage never loads
numpy; load_confidences reads one back. The numpy view of its rows that
the report gathers through (row_matrix, binarize) imports numpy.
"""

from __future__ import annotations

import csv
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import accumulate, chain, repeat
from typing import TYPE_CHECKING, Iterable, Iterator

from coordnet.config import check_threshold
from coordnet.corpus import Corpus, normalize_text
from coordnet.sources import csv_cells, csv_reader, number

if TYPE_CHECKING:
    import numpy as np

ATTITUDES = ("vote_for", "vote_against", "moral", "immoral")

CONCERNS = (
    "economy",
    "terrorism",
    "religion",
    "immigration",
    "international_alliances",
    "russia_relations",
    "national_identity",
    "environment",
    "misinformation",
    "democracy",
)

EMOTIONS = (
    "anger_hate",
    "embarrassment_shame",
    "admiration_love",
    "optimism_hope",
    "joy_happiness",
    "pride_national",
    "fear_pessimism",
    "amusement",
    "positive_other",
    "negative_other",
)

CHARACTERISTICS: tuple[str, ...] = ATTITUDES + CONCERNS + EMOTIONS

GROUP_OF = {name: "attitude" for name in ATTITUDES}
GROUP_OF.update({name: "concern" for name in CONCERNS})
GROUP_OF.update({name: "emotion" for name in EMOTIONS})

# Accepted alternate column/row names ("sarcasm" is the amusement group's
# other common label).
ALIASES = {"sarcasm": "amusement"}

_COLUMN_INDEX = {name: i for i, name in enumerate(CHARACTERISTICS)}

N_CHARACTERISTICS = len(CHARACTERISTICS)

assert N_CHARACTERISTICS == len(ATTITUDES) + len(CONCERNS) + len(EMOTIONS)

# Tweets whose lines are built at a time while writing, which bounds
# the writer's memory above the table itself.
_WRITE_ROWS = 4096
# Distinct confidence row tails whose row codes load_confidences keeps
# (each tail under 1 KiB), so a file of distinct rows costs at most
# ~3 MiB of them.
_PARSED_TAILS = 1 << 12


def canonical_name(name: str) -> str:
    key = name.strip().lower()
    key = ALIASES.get(key, key)
    if key not in _COLUMN_INDEX:
        raise ValueError(f"unknown characteristic: {name!r}")
    return key


def characteristic_index(name: str) -> int:
    return _COLUMN_INDEX[canonical_name(name)]


class TableError(ValueError):
    """A malformed confidence or lexicon file."""


class CharacteristicTable:
    """Per-tweet confidences with each distinct row held once: tweet
    tweet_ids[i] has row codes[i], and row c is the N_CHARACTERISTICS
    values of rows from c * N_CHARACTERISTICS on, in CHARACTERISTICS
    order, each in [0, 1].

    Tweets without a row read as all zeros (external model runs may not
    cover every tweet).
    """

    def __init__(self, tweet_ids: list[str], codes: array, rows: array, provenance: str):
        self.tweet_ids = tweet_ids
        self.codes = codes
        self.rows = rows
        self.provenance = provenance
        self.missing_values = 0

    def __len__(self) -> int:
        return len(self.tweet_ids)

    @cached_property
    def row_matrix(self) -> np.ndarray:
        """The rows as a float64 matrix, one line per code, then a line of
        zeros, which code -1 indexes."""
        import numpy as np

        rows = np.frombuffer(self.rows, dtype=np.float64).reshape(-1, N_CHARACTERISTICS)
        return np.vstack([rows, np.zeros(N_CHARACTERISTICS)])

    @cached_property
    def _code_of(self) -> dict[str, int]:
        """tweet_id -> row code, built on the first lookup (scoring never
        looks a tweet up)."""
        return dict(zip(self.tweet_ids, self.codes))

    def codes_of(self, tweet_ids: Iterable[str]) -> np.ndarray:
        """Row code of each tweet; -1 where the table has none."""
        import numpy as np

        return np.fromiter(map(self._code_of.get, tweet_ids, repeat(-1)), dtype=np.int64)

    def rows_at(self, codes: np.ndarray) -> np.ndarray:
        """The confidence row of each code; zeros where a code is -1."""
        return self.row_matrix[codes]

    def rows_for(self, tweet_ids: Iterable[str]) -> np.ndarray:
        """Confidence matrix for the given tweets (zeros where missing)."""
        return self.rows_at(self.codes_of(tweet_ids))

    def column_index(self, name: str) -> int:
        return characteristic_index(name)


def load_confidences(source) -> CharacteristicTable:
    """Load an external confidence CSV: tweet_id plus one column per
    registered characteristic.

    Columns may appear in any order; unknown or absent characteristics,
    duplicate tweet_ids, and out-of-range values are errors. Empty cells
    default to 0.0 and are counted in missing_values.
    """
    import numpy as np

    with csv_reader(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise TableError("empty confidence file") from None
        if not header or header[0].strip().lower() != "tweet_id":
            raise TableError("first column must be tweet_id")
        columns = []
        for raw in header[1:]:
            try:
                columns.append(canonical_name(raw))
            except ValueError:
                raise TableError(f"unknown column: {raw!r}") from None
        seen_cols = set(columns)
        if len(seen_cols) != len(columns):
            dupes = sorted({c for c in columns if columns.count(c) > 1})
            raise TableError(f"duplicate columns: {', '.join(dupes)}")
        missing = [name for name in CHARACTERISTICS if name not in seen_cols]
        if missing:
            raise TableError(f"missing columns: {', '.join(missing)}")

        # Each row parses in bulk with float(); a row float() refuses (an
        # empty cell, a non-number) or that holds "_" (which float() reads
        # as a digit separator) goes through _parse_cells, the per-cell
        # loop that counts empties and words every error. score writes few
        # distinct row tails (898 at 105k tweets), so the codes of the first
        # _PARSED_TAILS distinct tails that parse are kept for the lines
        # that repeat them; any other line takes a new code. A tail is keyed
        # by its cells joined with ",", which no cell that parses holds. Codes
        # follow first use and values stay in file column order until the
        # end, so the first out-of-range value of rows is the first in the file.
        width = len(columns) + 1
        tweet_ids: list[str] = []
        seen_ids: set[str] = set()
        codes = array("i")
        rows = array("d")
        row_lines = array("q")
        missing_values = 0
        code_of: dict[str, int] = {}
        try:
            for row in reader:
                if not row:
                    continue
                line_no = reader.line_num
                if len(row) != width:
                    raise TableError(f"row {line_no}: expected {width} fields, got {len(row)}")
                tid = row[0]
                if tid in seen_ids:
                    raise TableError(f"row {line_no}: duplicate tweet_id {tid!r}")
                seen_ids.add(tid)
                tail = ",".join(row[1:])
                code = code_of.get(tail)
                if code is None:
                    code = len(row_lines)
                    try:
                        if "_" in tail:
                            raise ValueError
                        values = list(map(float, row[1:]))
                    except ValueError:
                        values, empty = _parse_cells(line_no, columns, row[1:])
                        missing_values += empty
                    else:
                        if len(code_of) < _PARSED_TAILS:
                            code_of[tail] = code
                    rows.extend(values)
                    row_lines.append(line_no)
                tweet_ids.append(tid)
                codes.append(code)
        except (ValueError, csv.Error):
            # whatever stops the read at this row, an out-of-range value
            # in an earlier row is the error the file shows first
            _check_range(rows, row_lines, columns)
            raise
        _check_range(rows, row_lines, columns)
    order = [columns.index(name) for name in CHARACTERISTICS]
    by_file = np.frombuffer(rows, dtype=np.float64).reshape(-1, len(columns))
    rows = array("d", by_file.take(order, axis=1).tobytes())
    table = CharacteristicTable(tweet_ids, codes, rows, provenance="external")
    table.missing_values = missing_values
    return table


def _parse_cells(line_no: int, columns: list[str], cells: list[str]) -> tuple[list[float], int]:
    """One row's cells as floats in file column order, with an empty
    cell as 0.0, and the number of empty cells; TableError at the first
    cell that is not a number or lies outside [0, 1]."""
    values = []
    empty = 0
    for col_name, cell in zip(columns, cells):
        if cell.strip() == "":
            empty += 1
            values.append(0.0)
            continue
        try:
            v = number(cell)
        except ValueError:
            raise TableError(f"row {line_no}, column {col_name}: not a number: {cell!r}") from None
        if not 0.0 <= v <= 1.0:
            raise TableError(f"row {line_no}, column {col_name}: value {v} outside [0, 1]")
        values.append(v)
    return values, empty


def _check_range(rows: array, row_lines: array, columns: list[str]) -> None:
    """TableError naming the first value of rows (of len(columns) values
    in file column order, row r read first on line row_lines[r])
    outside [0, 1], nan included."""
    import numpy as np

    values = np.frombuffer(rows, dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        k = int(bad.argmax())
        row, col = divmod(k, len(columns))
        raise TableError(
            f"row {row_lines[row]}, column {columns[col]}: value {float(values[k])} outside [0, 1]"
        )


def write_confidences(table: CharacteristicTable, fp) -> None:
    """The confidence CSV: a tweet_id,<characteristics> header, then one
    line per tweet in table order, as csv_writer writes it. Each row is
    rendered once, as the tail after a line's id cell."""
    fp.write(",".join(("tweet_id",) + CHARACTERISTICS) + "\n")
    rows, n = table.rows, N_CHARACTERISTICS
    tails = ["," + ",".join(map(repr, rows[i : i + n])) + "\n" for i in range(0, len(rows), n)]
    for lo in range(0, len(table), _WRITE_ROWS):
        cells = csv_cells(table.tweet_ids[lo : lo + _WRITE_ROWS])
        codes = table.codes[lo : lo + _WRITE_ROWS]
        fp.write("".join(map(str.__add__, cells, map(tails.__getitem__, codes))))


# ---------------------------------------------------------------------------
# Lexicon scorer
# ---------------------------------------------------------------------------

_LEXICON_HEADER = ("characteristic", "phrase", "weight", "language")


@dataclass(frozen=True)
class LexiconEntry:
    characteristic: str
    phrase: str
    weight: float
    language: str | None = None


class Lexicon:
    r"""Weighted phrase lists per characteristic, combined by noisy-OR.

    A phrase is matched against normalized text, which holds no "\n", so
    it must be non-empty and hold no "\n" itself.
    """

    def __init__(self, entries: list[LexiconEntry]):
        for e in entries:
            if not e.phrase or "\n" in e.phrase:
                raise ValueError(f"phrase must be non-empty, without a line break: {e.phrase!r}")
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(source) -> Lexicon:
    """Load a lexicon CSV: the header characteristic,phrase,weight with
    an optional fourth column language, then one entry per row, with a
    cell per header column (a row may leave off its language cell)."""
    with csv_reader(source) as reader:
        header = next(reader, None)
        if header is None:
            raise TableError("empty lexicon file")
        names = tuple(h.strip().lower() for h in header)
        if names not in (_LEXICON_HEADER[:3], _LEXICON_HEADER):
            raise TableError(
                f"lexicon header must be {','.join(_LEXICON_HEADER[:3])}[,language], "
                f"got {','.join(header)!r}"
            )
        entries = []
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if not 3 <= len(row) <= len(names):
                raise TableError(f"row {line_no}: expected {len(names)} fields, got {len(row)}")
            try:
                name = canonical_name(row[0])
            except ValueError as exc:
                raise TableError(f"row {line_no}: {exc}") from None
            phrase = normalize_text(row[1], strip_punct_nonascii=False)
            if not phrase:
                raise TableError(f"row {line_no}: empty phrase")
            try:
                weight = number(row[2])
            except ValueError:
                raise TableError(f"row {line_no}: weight not a number: {row[2]!r}") from None
            if not 0.0 < weight <= 1.0:
                raise TableError(f"row {line_no}: weight {weight} outside (0, 1]")
            language = row[3].strip() if len(row) == 4 and row[3].strip() else None
            entries.append(LexiconEntry(name, phrase, weight, language))
        return Lexicon(entries)


def builtin_lexicon() -> Lexicon:
    """The packaged demonstration lexicon (deterministic stand-in scorer)."""
    ref = resources.files("coordnet.data").joinpath("default_lexicon.csv")
    with ref.open("r", encoding="utf-8") as fp:
        return load_lexicon(fp)


def score_corpus(corpus: Corpus, lexicon: Lexicon) -> CharacteristicTable:
    """Score every record of the corpus with the lexicon, one row code per
    record in corpus order (ingest keeps one record per tweet_id).

    A tweet's confidence per characteristic is the noisy-OR of its
    matched phrases: 1 - prod(1 - w) over every occurrence. Matching runs
    on normalized text (URLs stripped, mentions replaced, hashtag marks
    removed, lowercased; accents kept), and an entry with a language
    applies only to tweets tagged with it.

    Each text code is normalized once, and the texts of one language
    that normalize alike are one unit, numbered in order of first row.
    Each entry scans the joined units of every language it applies to
    once (_phrase_hits), and multiplies miss *= (1 - w) ** hits per unit
    in entry order, so the bits equal a per-text loop's.
    """
    normalized = [normalize_text(t, strip_punct_nonascii=False) for t in corpus.texts]
    # (language code, text code) -> unit, keys in order of first row
    pairs = dict.fromkeys(zip(corpus.language_codes, corpus.text_codes))
    # language -> normalized text -> unit
    languages: dict[str, dict[str, int]] = {}
    n_units = 0
    for language, text in pairs:
        units = languages.setdefault(corpus.languages[language], {})
        unit = units.get(normalized[text])
        if unit is None:
            unit = units[normalized[text]] = n_units
            n_units += 1
        pairs[language, text] = unit

    scans = {}
    for language, units in languages.items():
        starts = list(accumulate((len(t) + 1 for t in units), initial=0))
        scans[language] = ("\n".join(units), starts, list(units.values()))
    del languages

    miss: dict[int, list[float]] = {}
    for e in lexicon.entries:
        col = _COLUMN_INDEX[e.characteristic]
        keep = 1.0 - e.weight
        for language, (joined, starts, unit_of) in scans.items():
            if e.language is not None and e.language != language:
                continue
            for i, hits in _phrase_hits(joined, starts, e.phrase):
                unit = unit_of[i]
                m = miss.get(unit)
                if m is None:
                    m = miss[unit] = [1.0] * N_CHARACTERISTICS
                m[col] *= keep**hits

    # Units share few miss vectors, so each distinct one is turned into
    # its confidence row once.
    ones = (1.0,) * N_CHARACTERISTICS
    code_of: dict[tuple[float, ...], int] = {}
    code_of_miss: dict[tuple[float, ...], int] = {}
    row_codes = array("i")
    for unit in range(n_units):
        m = tuple(miss.get(unit, ones))
        code = code_of_miss.get(m)
        if code is None:
            row = tuple([1.0 - x for x in m])
            code = code_of_miss[m] = code_of.setdefault(row, len(code_of))
        row_codes.append(code)
    units = map(pairs.__getitem__, zip(corpus.language_codes, corpus.text_codes))
    codes = array("i", map(row_codes.__getitem__, units))
    rows = array("d", chain.from_iterable(code_of))
    return CharacteristicTable(corpus.tweet_ids, codes, rows, provenance="lexicon")


def _phrase_hits(joined: str, starts: list[int], phrase: str) -> Iterator[tuple[int, int]]:
    r"""(i, hits) for each text i of joined that holds the phrase, in
    ascending i, where joined is texts without "\n" joined with "\n" and
    text i starts at starts[i].

    hits is what re.findall(r"(?<!\w)" + re.escape(phrase) + r"(?!\w)")
    counts in that text: hits do not overlap, and neither neighbour of a
    hit is a word character (str.isalnum() or "_"). The search resumes at
    a hit's end, and one character on after an occurrence that fails a
    boundary. A phrase cannot span the "\n" between two texts.
    """
    find = joined.find
    size = len(phrase)
    current = count = 0
    at = find(phrase)
    while at >= 0:
        end = at + size
        before = joined[at - 1] if at else "\n"
        after = joined[end : end + 1]
        if before.isalnum() or before == "_" or after.isalnum() or after == "_":
            at = find(phrase, at + 1)
            continue
        i = bisect_right(starts, at) - 1
        if i != current and count:
            yield current, count
            count = 0
        current = i
        count += 1
        at = find(phrase, end)
    if count:
        yield current, count


def binarize(table: CharacteristicTable, threshold: float = 0.5) -> np.ndarray:
    """The table's confidences thresholded into 0/1 labels (label 1 iff
    value >= threshold), line for line of table.row_matrix: indexed with
    the same codes, they give each tweet's labels, and zeros at code -1."""
    import numpy as np

    check_threshold(threshold)
    return np.where(table.row_matrix >= threshold, 1.0, 0.0)
