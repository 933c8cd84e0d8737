"""Per-tweet confidences for the socio-linguistic characteristics.

Confidences arrive either from an externally produced CSV table or from
the built-in deterministic lexicon scorer (a stand-in that lets the
pipeline run end-to-end without model inference). All values live in
[0, 1]; binarization thresholds them into 0/1 labels.
"""

from __future__ import annotations

import csv
import re
from array import array
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

import numpy as np

from coordnet.corpus import Corpus, normalize_text
from coordnet.sources import csv_reader, csv_writer

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
        self._row_of = {tid: i for i, tid in enumerate(tweet_ids)}

    def __len__(self) -> int:
        return len(self.tweet_ids)

    def row_indices(self, tweet_ids: Iterable[str]) -> np.ndarray:
        """Row of each tweet in matrix; -1 where the table has none."""
        return np.fromiter((self._row_of.get(tid, -1) for tid in tweet_ids), dtype=np.int64)

    def rows_at(self, rows: np.ndarray) -> np.ndarray:
        """Matrix rows at row_indices positions; zeros where a row is -1."""
        out = np.zeros((len(rows), N_CHARACTERISTICS), dtype=np.float64)
        found = rows >= 0
        out[found] = self.matrix[rows[found]]
        return out

    def rows_for(self, tweet_ids: Iterable[str]) -> np.ndarray:
        """Confidence matrix for the given tweets (zeros where missing)."""
        return self.rows_at(self.row_indices(tweet_ids))

    def column_index(self, name: str) -> int:
        return characteristic_index(name)

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, characteristic_index(name)]


def load_confidences(source) -> CharacteristicTable:
    """Load an external confidence CSV: tweet_id plus one column per
    registered characteristic.

    Columns may appear in any order; unknown or absent characteristics,
    duplicate tweet_ids, and out-of-range values are errors. Empty cells
    default to 0.0 and are counted in missing_values.
    """
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
        # empty cell, a non-number) goes through _parse_cells, the per-cell
        # loop that counts empties and words every error. Values stay in
        # file column order until the end, so the first out-of-range cell
        # in row-major order is the one that loop would have named first.
        width = len(columns) + 1
        tweet_ids: list[str] = []
        seen_ids: set[str] = set()
        flat = array("d")
        line_nos = array("q")
        missing_values = 0
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
                try:
                    values = list(map(float, row[1:]))
                except ValueError:
                    values, empty = _parse_cells(line_no, columns, row[1:])
                    missing_values += empty
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
            v = float(cell)
        except ValueError:
            raise TableError(f"row {line_no}, column {col_name}: not a number: {cell!r}") from None
        if not 0.0 <= v <= 1.0:
            raise TableError(f"row {line_no}, column {col_name}: value {v} outside [0, 1]")
        values.append(v)
    return values, empty


def _check_range(flat: array, line_nos: array, columns: list[str]) -> None:
    """TableError naming the first value of flat (rows of len(columns)
    values in file column order) outside [0, 1], nan included."""
    values = np.frombuffer(flat, dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        k = int(bad.argmax())
        row, col = divmod(k, len(columns))
        raise TableError(
            f"row {line_nos[row]}, column {columns[col]}: value {float(values[k])} outside [0, 1]"
        )


def write_confidences(table: CharacteristicTable, fp) -> None:
    writer = csv_writer(fp, table.tweet_ids)
    writer.writerow(("tweet_id",) + CHARACTERISTICS)
    for i, tid in enumerate(table.tweet_ids):
        writer.writerow([tid] + [repr(float(v)) for v in table.matrix[i]])


# ---------------------------------------------------------------------------
# Lexicon scorer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LexiconEntry:
    characteristic: str
    phrase: str
    weight: float
    language: str | None = None


class Lexicon:
    """Weighted phrase lists per characteristic, combined by noisy-OR."""

    def __init__(self, entries: list[LexiconEntry]):
        self.entries = entries
        self._compiled = [
            (
                e.language,
                _COLUMN_INDEX[e.characteristic],
                e.phrase,
                re.compile(r"(?<!\w)" + re.escape(e.phrase) + r"(?!\w)").findall,
                e.weight,
            )
            for e in entries
        ]
        self._by_language: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def matchers(self, language: str) -> list[tuple]:
        """(column, phrase, findall, weight) of every entry that applies
        to a tweet tagged language, in entry order."""
        found = self._by_language.get(language)
        if found is None:
            found = self._by_language[language] = [
                matcher
                for entry_language, *matcher in self._compiled
                if entry_language is None or entry_language == language
            ]
        return found


def load_lexicon(source) -> Lexicon:
    """Load a lexicon CSV: characteristic,phrase,weight[,language]."""
    with csv_reader(source) as reader:
        header = next(reader, None)
        if header is None:
            raise TableError("empty lexicon file")
        entries = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise TableError(f"row {line_no}: expected characteristic,phrase,weight")
            name = canonical_name(row[0])
            phrase = normalize_text(row[1], strip_punct_nonascii=False)
            if not phrase:
                raise TableError(f"row {line_no}: empty phrase")
            try:
                weight = float(row[2])
            except ValueError:
                raise TableError(f"row {line_no}: weight not a number: {row[2]!r}") from None
            if not 0.0 < weight <= 1.0:
                raise TableError(f"row {line_no}: weight {weight} outside (0, 1]")
            language = row[3].strip() if len(row) > 3 and row[3].strip() else None
            entries.append(LexiconEntry(name, phrase, weight, language))
        return Lexicon(entries)


def builtin_lexicon() -> Lexicon:
    """The packaged demonstration lexicon (deterministic stand-in scorer)."""
    ref = resources.files("coordnet.data").joinpath("default_lexicon.csv")
    with ref.open("r", encoding="utf-8") as fp:
        return load_lexicon(fp)


def _score_text(text: str, language: str, lexicon: Lexicon) -> np.ndarray:
    """Noisy-OR confidence per characteristic from matched phrases, for
    a tweet with this text and language tag.

    Each occurrence of a matched phrase contributes its weight:
    confidence = 1 - prod(1 - w) over occurrences. Matching runs on
    normalized text (URLs stripped, mentions replaced, hashtag marks
    removed, lowercased; accents kept).
    """
    text = normalize_text(text, strip_punct_nonascii=False)
    miss = np.ones(N_CHARACTERISTICS, dtype=np.float64)
    for col, phrase, findall, weight in lexicon.matchers(language):
        # A match is the phrase itself (the pattern only adds lookarounds),
        # so a phrase absent from the text has none.
        if phrase not in text:
            continue
        hits = len(findall(text))
        if hits:
            miss[col] *= (1.0 - weight) ** hits
    return 1.0 - miss


def score_corpus(corpus: Corpus, lexicon: Lexicon) -> CharacteristicTable:
    """Score every record of the corpus with the lexicon, one row per
    record in corpus order (ingest keeps one record per tweet_id)."""
    scores = [_score_text(t, lang, lexicon) for t, lang in zip(corpus.texts, corpus.languages)]
    matrix = (
        np.vstack(scores) if scores else np.empty((0, N_CHARACTERISTICS), dtype=np.float64)
    )
    return CharacteristicTable(corpus.tweet_ids, matrix, provenance="lexicon")


def binarize(table: CharacteristicTable, threshold: float = 0.5) -> np.ndarray:
    """The table's confidences thresholded into a 0/1 label matrix, row
    for row (label 1 iff value >= threshold)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    return np.where(table.matrix >= threshold, 1.0, 0.0)
