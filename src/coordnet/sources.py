"""Opening inputs and writing CSV: every reader takes a path or an
already-open text file, and every CSV writer comes from csv_writer."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Iterable, Sequence


def is_path(source) -> bool:
    """Whether source names a file (str, bytes or os.PathLike)."""
    return isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")


@contextmanager
def open_text(source, **open_kwargs):
    """Yield source opened as UTF-8 text when it is a path (is_path);
    yield it unchanged when it is a file object or any other iterable of
    lines. A file opened here is closed on exit."""
    if is_path(source):
        with open(source, "r", encoding="utf-8", **open_kwargs) as fp:
            yield fp
    else:
        yield source


def number(cell: str) -> float:
    """float(cell), except that a cell holding "_", which float() reads
    as a digit separator ("1_0" is 10.0), is a ValueError too."""
    if "_" in cell:
        raise ValueError(f"not a number: {cell!r}")
    return float(cell)


class RowError(ValueError):
    """A row that breaks its file's format; raised inside a csv_reader
    block, it is reported with the input's name and the row's line."""


@contextmanager
def csv_reader(source, factory=csv.reader):
    """Yield factory(fp, strict=True) over open_text(source, newline="").

    Strict, so a quote that never closes is an error at the end of the
    input instead of one field that swallows every later row. A csv.Error
    raised while the block reads (that, stray text after a closing quote,
    a field over csv.field_size_limit) or a RowError the block raises
    becomes a ValueError naming the input and its line, so the CLI
    reports it as a validation failure.
    """
    with open_text(source, newline="") as fp:
        reader = factory(fp, strict=True)
        try:
            yield reader
        except (csv.Error, RowError) as exc:
            name = getattr(fp, "name", None) or "<input>"
            raise ValueError(f"{name}, line {reader.line_num}: {exc}") from None


class _LineFeedRows:
    """Text file proxy for a csv.writer whose rows end with "\r\n":
    each row goes to fp ending with "\n" instead."""

    def __init__(self, fp):
        self._write = fp.write

    def write(self, row: str):
        return self._write(row[:-2] + "\n")


def csv_writer(fp, strings: Iterable[str] | None = None):
    """A csv.writer onto fp with "\n" row ends whose rows read back as
    written.

    csv.writer quotes only the fields that hold a delimiter, a quote or
    a character of its line terminator, so with "\n" alone a field
    holding a lone "\r" goes out bare and ends the row when read back.
    This writer ends rows with "\r\n", which quotes such a field too,
    and writes "\n" in its place. Rows without "\r" keep their bytes.
    strings, when given, holds every string any row will carry; when
    none holds "\r", the plain "\n" writer is returned, which writes the
    same bytes without a call per row.
    """
    if strings is not None and not any("\r" in s for s in strings):
        return csv.writer(fp, lineterminator="\n")
    return csv.writer(_LineFeedRows(fp), lineterminator="\r\n")


def csv_cells(strings: Sequence[str]) -> list[str]:
    """Each string as csv_writer writes it as one field of a row of
    several: joining a row's cells with "," and ending it with "\n"
    gives the bytes csv_writer writes for that row. (Both of its row
    ends quote a string without "\r" alike, so a cell does not depend
    on the other strings.)"""
    rows: list[str] = []
    # A field alone in its row is quoted when empty, so each string goes
    # out beside an empty field, and the ",\n" after it is cut.
    writer = csv_writer(SimpleNamespace(write=rows.append), strings)
    writer.writerows((s, "") for s in strings)
    return [row[:-2] for row in rows]
