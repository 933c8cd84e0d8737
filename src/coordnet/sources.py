"""Opening inputs and writing CSV: every reader takes a path or an
already-open text file, and every CSV writer comes from csv_writer."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from typing import Iterable


@contextmanager
def open_text(source, **open_kwargs):
    """Yield source opened as UTF-8 text when it is a path (str, bytes or
    os.PathLike); yield it unchanged when it is a file object or any
    other iterable of lines. A file opened here is closed on exit."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", **open_kwargs) as fp:
            yield fp
    else:
        yield source


@contextmanager
def csv_reader(source, factory=csv.reader):
    """Yield factory(fp, strict=True) over open_text(source, newline="").

    Strict, so a quote that never closes is an error at the end of the
    input instead of one field that swallows every later row. A csv.Error
    raised while the block reads (that, stray text after a closing quote,
    a field over csv.field_size_limit) becomes a ValueError naming the
    input and its line, so the CLI reports it as a validation failure.
    """
    with open_text(source, newline="") as fp:
        reader = factory(fp, strict=True)
        try:
            yield reader
        except csv.Error as exc:
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
