"""Opening inputs: every reader takes a path or an already-open text file."""

from __future__ import annotations

import csv
from contextlib import contextmanager


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
