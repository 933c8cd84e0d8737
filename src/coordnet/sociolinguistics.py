"""Per-tweet confidences for the socio-linguistic characteristics.

Confidences arrive either from an externally produced CSV table or from
the built-in deterministic lexicon scorer (a stand-in that lets the
pipeline run end-to-end without model inference). All values live in
[0, 1]; binarization thresholds them into 0/1 labels.

The scorer and its writer (score_corpus, write_confidences) use the
standard library alone, so the `score` stage never loads numpy. The
confidence table the report reads (load_confidences,
CharacteristicTable, binarize) holds a numpy matrix; those functions
import numpy where they run.
"""

from __future__ import annotations

import csv
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import accumulate
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
# Distinct confidence row tails whose parsed values load_confidences
# keeps (each under 1 KiB), so a file of distinct rows costs at most
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
    """tweet_id -> one confidence in [0, 1] per registered characteristic.

    Tweets without a row read as all zeros (external model runs may not
    cover every tweet).
    """

    def __init__(self, tweet_ids: list[str], matrix: np.ndarray, provenance: str):
        self.tweet_ids = tweet_ids
        self.matrix = matrix
        self.provenance = provenance
        self.missing_values = 0

    def __len__(self) -> int:
        return len(self.tweet_ids)

    @cached_property
    def _row_of(self) -> dict[str, int]:
        """tweet_id -> row, built on the first lookup (scoring never looks
        a row up)."""
        return {tid: i for i, tid in enumerate(self.tweet_ids)}

    def row_indices(self, tweet_ids: Iterable[str]) -> np.ndarray:
        """Row of each tweet in matrix; -1 where the table has none."""
        import numpy as np

        return np.fromiter((self._row_of.get(tid, -1) for tid in tweet_ids), dtype=np.int64)

    def rows_at(self, rows: np.ndarray) -> np.ndarray:
        """Matrix rows at row_indices positions; zeros where a row is -1."""
        import numpy as np

        out = np.zeros((len(rows), N_CHARACTERISTICS), dtype=np.float64)
        found = rows >= 0
        out[found] = self.matrix[rows[found]]
        return out

    def rows_for(self, tweet_ids: Iterable[str]) -> np.ndarray:
        """Confidence matrix for the given tweets (zeros where missing)."""
        return self.rows_at(self.row_indices(tweet_ids))

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
        # loop that counts empties and words every error. Values stay in
        # file column order until the end, so the first out-of-range cell
        # in row-major order is the one that loop would have named first.
        # score writes few distinct row tails (898 at 105k tweets), so the
        # values of the first _PARSED_TAILS distinct tails that parse are
        # kept. A tail is keyed by its cells joined with ",", which no cell
        # that parses holds, so a key names one tail.
        width = len(columns) + 1
        tweet_ids: list[str] = []
        seen_ids: set[str] = set()
        flat = array("d")
        line_nos = array("q")
        missing_values = 0
        parsed: dict[str, array] = {}
        try:
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise TableError(f"row {line_no}: expected {width} fields, got {len(row)}")
                tid = row[0]
                if tid in seen_ids:
                    raise TableError(f"row {line_no}: duplicate tweet_id {tid!r}")
                seen_ids.add(tid)
                tail = ",".join(row[1:])
                values = parsed.get(tail)
                if values is None:
                    try:
                        if "_" in tail:
                            raise ValueError
                        values = array("d", map(float, row[1:]))
                    except ValueError:
                        values, empty = _parse_cells(line_no, columns, row[1:])
                        missing_values += empty
                    else:
                        if len(parsed) < _PARSED_TAILS:
                            parsed[tail] = values
                tweet_ids.append(tid)
                flat.extend(values)
                line_nos.append(line_no)
        except (ValueError, csv.Error):
            # whatever stops the read at this row, an out-of-range value
            # in an earlier row is the error the file shows first
            _check_range(flat, line_nos, columns)
            raise
        _check_range(flat, line_nos, columns)
    order = [columns.index(name) for name in CHARACTERISTICS]
    matrix = np.frombuffer(flat, dtype=np.float64).reshape(-1, len(columns)).take(order, axis=1)
    table = CharacteristicTable(tweet_ids, matrix, provenance="external")
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


def _check_range(flat: array, line_nos: array, columns: list[str]) -> None:
    """TableError naming the first value of flat (rows of len(columns)
    values in file column order) outside [0, 1], nan included."""
    import numpy as np

    values = np.frombuffer(flat, dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        k = int(bad.argmax())
        row, col = divmod(k, len(columns))
        raise TableError(
            f"row {line_nos[row]}, column {columns[col]}: value {float(values[k])} outside [0, 1]"
        )


class ConfidenceRows:
    """Scored tweets with each distinct confidence row held once: tweet
    tweet_ids[i] has the confidences rows[codes[i]], one float per
    registered characteristic in CHARACTERISTICS order."""

    def __init__(self, tweet_ids: list[str], codes: array, rows: list[tuple[float, ...]]):
        self.tweet_ids = tweet_ids
        self.codes = codes
        self.rows = rows

    def __len__(self) -> int:
        return len(self.tweet_ids)


def write_confidences(table: ConfidenceRows, fp) -> None:
    """The confidence CSV: a tweet_id,<characteristics> header, then one
    line per tweet in table order, as csv_writer writes it. Each
    distinct row is rendered once, as the tail after a line's id cell."""
    fp.write(",".join(("tweet_id",) + CHARACTERISTICS) + "\n")
    tails = ["," + ",".join(map(repr, row)) + "\n" for row in table.rows]
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
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
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


def score_corpus(corpus: Corpus, lexicon: Lexicon) -> ConfidenceRows:
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
    return ConfidenceRows(corpus.tweet_ids, codes, list(code_of))


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
    """The table's confidences thresholded into a 0/1 label matrix, row
    for row (label 1 iff value >= threshold)."""
    import numpy as np

    check_threshold(threshold)
    return np.where(table.matrix >= threshold, 1.0, 0.0)
