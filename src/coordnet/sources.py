"""Opening inputs and writing CSV: every reader takes a path or an
already-open text file, and every CSV writer comes from csv_writer."""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager, nullcontext
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
    """Yield factory(fp, strict=True) over source read as UTF-8 text with
    newline="" (a path is opened here and closed on exit; any other
    source is used as it is, as open_text does).

    Strict, so a quote that never closes is an error at the end of the
    input instead of one field that swallows every later row. A csv.Error
    raised while the block reads (that, stray text after a closing quote,
    a field over csv.field_size_limit) or a RowError the block raises
    becomes a ValueError naming the input and its line, so the CLI
    reports it as a validation failure. So do bytes of a path that are
    not UTF-8: _LineEnds counts the line ends of the bytes read, so the
    line holding them is known for a pipe too.
    """
    if is_path(source):
        binary = _LineEnds(io.FileIO(source))
        text = io.TextIOWrapper(binary, encoding="utf-8", newline="")
    else:
        binary, text = None, nullcontext(source)
    with text as fp:
        reader = factory(fp, strict=True)
        name = getattr(fp, "name", None) or "<input>"
        try:
            yield reader
        except (csv.Error, RowError) as exc:
            raise ValueError(f"{name}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            if binary is None:
                raise
            raise ValueError(f"{name}, line {binary.line_of(exc)}: not valid UTF-8") from None


def line_ends(data: bytes, after_cr: bool) -> int:
    """The line ends in data ("\n", "\r\n" or a lone "\r", as text
    reading with newline="" ends lines), where after_cr says whether the
    bytes before data end with "\r"."""
    ends = data.count(b"\n")
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    return ends - (after_cr and data.startswith(b"\n"))


class _LineEnds(io.BufferedReader):
    """A binary file that counts the line ends of the chunks read1 gave
    before its last one, for a text file over it that reads by read1."""

    def __init__(self, raw):
        super().__init__(raw)
        self.lines = 0  # line ends before self.chunk
        self.after_cr = False  # whether the bytes before self.chunk end with "\r"
        self.chunk = b""

    def read1(self, size=-1):
        if self.chunk:
            self.lines += line_ends(self.chunk, self.after_cr)
            self.after_cr = self.chunk.endswith(b"\r")
        self.chunk = super().read1(size)
        return self.chunk

    def line_of(self, exc: UnicodeDecodeError) -> int:
        """The 1-based line of the first byte exc refuses. The decoder
        saw the last chunk after the start of a character cut off at the
        end of the chunk before, which holds no line end."""
        start = exc.start - (len(exc.object) - len(self.chunk))
        return self.lines + line_ends(self.chunk[: max(start, 0)], self.after_cr) + 1


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
