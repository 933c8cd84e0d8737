"""Shared CSV/line formats used across pipeline stages.

Floats are written with repr() (shortest round-trip form) so output is
byte-stable; empty cells encode null.

Edge files (EdgeTable): whatever write_edges_csv writes, read_edges_csv
reads back, whatever the length of an account id or evidence key.
Account lists: whatever write_account_list writes, read_account_list
reads back. write_clusters writes clusters.csv.
"""

from __future__ import annotations

import csv
import os
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from coordnet.config import DETECTORS
from coordnet.sources import RowError, csv_cells, csv_reader, csv_writer, is_path, number

ORDER_ERROR = "edge endpoints must satisfy a < b"
SCORE_ERROR = "edge score must be in [0, 1]"


@dataclass(eq=False)
class EdgeTable:
    """Coordination edges as columns over interned codes.

    Row i joins accounts[a[i]] < accounts[b[i]] with detector
    DETECTORS[detector[i]], score[i] and evidence keys[evidence[i]].
    accounts may hold ids that no row uses. Each detector's output and
    each edge file is one table; nothing builds a per-edge object.
    """

    accounts: list[str]
    a: np.ndarray
    b: np.ndarray
    detector: np.ndarray
    score: np.ndarray
    keys: list[str]
    evidence: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.int32)
        self.b = np.asarray(self.b, dtype=np.int32)
        self.detector = np.asarray(self.detector, dtype=np.int8)
        self.score = np.asarray(self.score, dtype=np.float64)
        self.evidence = np.asarray(self.evidence, dtype=np.int32)

    @classmethod
    def empty(cls) -> "EdgeTable":
        return cls([], [], [], [], [], [], [])

    def __len__(self) -> int:
        return len(self.a)

    def used(self) -> np.ndarray:
        """Codes of the accounts some row joins, ascending."""
        mask = np.zeros(len(self.accounts), dtype=bool)
        mask[self.a] = True
        mask[self.b] = True
        return np.flatnonzero(mask)

    def endpoints(self) -> set[str]:
        """The accounts some row joins."""
        return {self.accounts[i] for i in self.used().tolist()}


EDGE_HEADER = ("account_a", "account_b", "detector", "score", "evidence")

# An evidence key joins k hashtags of any length, so no field limit
# suits every edge file; this one fits a C long on every platform.
_EDGE_FIELD_LIMIT = 2**31 - 1
_DETECTOR_CODES = {name: i for i, name in enumerate(DETECTORS)}
# Rows rendered to text at a time while writing, which bounds the
# writer's memory above the table itself; the reader checks account
# order as many rows at a time.
_WRITE_ROWS = 1 << 13
# Bytes read at a time while reading; a block ends after its last "\n",
# so it grows to hold a longer line. Blocks stay small because their
# temporaries add to the reading stage's peak RSS: on hashtag-burst,
# 256 KiB blocks read about a third faster but raised report's peak RSS
# by ~3 MiB (32 KiB and 64 KiB measured alike).
_READ_BYTES = 1 << 16
_HEADER_LINE = (",".join(EDGE_HEADER) + "\n").encode()
# The separators of a row the block reader splits: four "," and a "\n".
_SEPARATORS = np.frombuffer(b",,,,\n", dtype=np.uint8)
# Bytes only the row loop reads: CSV quoting and "\r" (a row end to
# csv.reader).
_ROW_LOOP_BYTES = (b'"', b"\r")


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_edges_csv(edges: EdgeTable, fp) -> None:
    """The header, then one row per edge: the bytes csv_writer writes.

    Each account id, evidence key and detector name is rendered as a
    cell once, and each distinct score of a block (by its bit pattern)
    as its repr once per block, into one object array of cells. A block
    of rows is then one "".join over the cells that a numpy matrix of
    cell numbers takes from it: no format call per row, no Python int
    per cell, and no temporary beyond a block.
    """
    fp.write(",".join(EDGE_HEADER) + "\n")
    fixed = [cell + "," for cell in csv_cells(edges.accounts)]
    detector_base = len(fixed)
    fixed += [cell + "," for cell in csv_cells(DETECTORS)]
    key_base = len(fixed)
    fixed += [cell + "\n" for cell in csv_cells(edges.keys)]
    score_base = len(fixed)
    # the last _WRITE_ROWS slots take a block's score cells
    pool = np.empty(score_base + min(len(edges), _WRITE_ROWS), dtype=object)
    pool[:score_base] = fixed
    bases = np.array([0, 0, detector_base, score_base, key_base])
    bits = edges.score.view(np.uint64)
    for lo in range(0, len(edges), _WRITE_ROWS):
        rows = slice(lo, lo + _WRITE_ROWS)
        distinct, score = np.unique(bits[rows], return_inverse=True)
        pool[score_base : score_base + len(distinct)] = [
            repr(value) + "," for value in distinct.view(np.float64).tolist()
        ]
        cells = np.empty((len(score), 5), dtype=np.intp)
        cells[:, 0] = edges.a[rows]
        cells[:, 1] = edges.b[rows]
        cells[:, 2] = edges.detector[rows]
        cells[:, 3] = score
        cells[:, 4] = edges.evidence[rows]
        cells += bases
        fp.write("".join(pool.take(cells.ravel()).tolist()))


def read_edges_csv(source) -> EdgeTable:
    """Read and check an edge file: the header, then rows of 5 fields
    with a known detector, account_a < account_b and a score in [0, 1]
    written as a number without "_". A bad row is an error naming the
    file and line. Blank lines are skipped. Account ids and evidence
    keys are interned in first-seen order, and no row leaves a Python
    object behind.

    A regular file is read _READ_BYTES at a time and split and checked
    with numpy a block at a time (_read_blocks). A file that needs the
    CSV quoting rules (a '"' or a "\r"), holds a blank line or fails a
    check, and any other source (a pipe, a file object), is read by the
    row loop (_read_edges_rows), which reads from the start again, gives
    the same table for every file both accept and is the one place that
    words an error.
    """
    if is_path(source) and os.path.isfile(source):
        with open(source, "rb") as fp:
            table = _read_blocks(fp)
        if table is not None:
            return table
    return _read_edges_rows(source)


def _read_edges_rows(source) -> EdgeTable:
    """read_edges_csv by csv.reader, a row at a time; the columns grow as
    typed arrays."""
    accounts: dict[str, int] = {}
    keys: dict[str, int] = {}
    intern = accounts.setdefault
    a, b, evidence = array("i"), array("i"), array("i")
    detector, score = array("b"), array("d")
    limit = csv.field_size_limit(_EDGE_FIELD_LIMIT)
    try:
        with csv_reader(source) as reader:
            header = next(reader, None)
            if header is None or tuple(header) != EDGE_HEADER:
                raise ValueError(f"edge CSV must start with header {','.join(EDGE_HEADER)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 5:
                    raise RowError(f"edge row must have 5 fields, got {len(row)}")
                x, y, name, text, key = row
                code = _DETECTOR_CODES.get(name)
                if code is None:
                    raise RowError(f"unknown detector in edge file: {name!r}")
                try:
                    value = number(text)
                except ValueError:
                    raise RowError(f"edge score is not a number: {text!r}") from None
                if x >= y:
                    raise RowError(ORDER_ERROR)
                if not 0.0 <= value <= 1.0:
                    raise RowError(SCORE_ERROR)
                a.append(intern(x, len(accounts)))
                b.append(intern(y, len(accounts)))
                detector.append(code)
                score.append(value)
                evidence.append(keys.setdefault(key, len(keys)))
    finally:
        csv.field_size_limit(limit)
    return EdgeTable(list(accounts), a, b, detector, score, list(keys), evidence)


def write_account_list(accounts: Iterable[str], fp) -> None:
    """One account id per line, sorted: a one-column CSV, so an id
    holding a comma, a quote, CR or LF is quoted and any other id keeps
    its bytes. fp should be opened with newline=""."""
    accounts = sorted(accounts)
    csv_writer(fp, accounts).writerows((account,) for account in accounts)


def read_account_list(source) -> set[str]:
    """The ids write_account_list wrote, byte for byte; blank lines are
    skipped."""
    with csv_reader(source) as reader:
        return {row[0] for row in reader if row}


def write_clusters(clusters, path) -> None:
    """clusters.csv: a header, then a row per cluster, members sorted."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv_writer(fp)
        writer.writerow(("cluster_id", "size", "label", "member_ids"))
        for c in clusters:
            writer.writerow([c.id, c.size, c.label] + sorted(c.members))


def _read_blocks(fp) -> EdgeTable | None:
    """The edge table of binary file fp, a block at a time; None when
    the row loop must read it: the first line is not the header, or a
    block holds a byte of _ROW_LOOP_BYTES, a line without exactly four
    ",", an unknown detector, a score number() refuses or outside
    [0, 1], ids out of order or bytes that are not UTF-8.

    The lines are counted first, so the columns are allocated once, a
    row per line: grown a block at a time as typed arrays instead, they
    raised report's peak RSS on hashtag-burst by ~1 MiB. Only a block's
    distinct ids, keys, detector names and score strings are decoded (an
    id or key only the first time the file holds it), and the checks run
    once per distinct value or as array compares. account_a < account_b
    is checked last, for the whole file at once, on the ranks of its
    account ids in str order.
    """
    rows = _line_count(fp.read) - 1
    fp.seek(0)
    if fp.read(len(_HEADER_LINE)) != _HEADER_LINE:
        return None
    accounts: list[str] = []
    keys: list[str] = []
    account_codes: dict[bytes, int] = {}
    key_codes: dict[bytes, int] = {}
    a, b, evidence = (np.empty(rows, dtype=np.int32) for _ in range(3))
    detector, score = np.empty(rows, dtype=np.int8), np.empty(rows, dtype=np.float64)
    lo = 0
    try:
        for block in _blocks(fp.read):
            if any(byte in block for byte in _ROW_LOOP_BYTES):
                return None
            fields = _split(block)
            if fields is None:
                return None
            columns = [_distinct(block, *bounds) for bounds in fields]
            (ids, id_of), (names, name_of), (texts, text_of), (block_keys, key_of) = columns
            detectors = [_DETECTOR_CODES.get(name.decode("utf-8")) for name in names]
            if None in detectors:
                return None
            values = [number(text.decode("utf-8")) for text in texts]
            if not all(0.0 <= value <= 1.0 for value in values):
                return None
            pairs = id_of.reshape(-1, 2)
            codes = _intern(account_codes, accounts, ids)
            hi = lo + len(pairs)
            a[lo:hi] = codes[pairs[:, 0]]
            b[lo:hi] = codes[pairs[:, 1]]
            detector[lo:hi] = np.array(detectors, dtype=np.int8)[name_of]
            score[lo:hi] = np.array(values, dtype=np.float64)[text_of]
            evidence[lo:hi] = _intern(key_codes, keys, block_keys)[key_of]
            lo = hi
    except ValueError:  # a UnicodeError, a score number() refuses, or more rows than lines
        return None
    if lo != rows:
        return None
    rank = np.empty(len(accounts), dtype=np.intp)
    rank[sorted(range(len(accounts)), key=accounts.__getitem__)] = np.arange(len(accounts))
    for lo in range(0, rows, _WRITE_ROWS):
        if not (rank[a[lo : lo + _WRITE_ROWS]] < rank[b[lo : lo + _WRITE_ROWS]]).all():
            return None
    return EdgeTable(accounts, a, b, detector, score, keys, evidence)


def _line_count(read) -> int:
    """The number of lines in the bytes read(size) returns, a last line
    without "\n" included."""
    lines, last = 0, b"\n"
    while chunk := read(_READ_BYTES):
        lines += chunk.count(b"\n")
        last = chunk[-1:]
    return lines + (last != b"\n")


def _blocks(read):
    """The bytes read(size) returns, _READ_BYTES at a time, in blocks
    cut after their last "\n" (a block holds at least one line). The
    last line gets a "\n" when it has none."""
    parts: list = []
    while chunk := read(_READ_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join((*parts, memoryview(chunk)[:cut]))
            parts = []
        if cut < len(chunk):
            parts.append(chunk[cut:])
    if parts:
        yield b"".join((*parts, b"\n"))


def _split(block: bytes):
    """For each of the 5 columns, the start and end offsets of its field
    in each line of block (row-major over the two id columns, so ids run
    in the order rows name them); None unless every line holds exactly
    four ","."""
    text = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((text == 44) | (text == 10))
    if len(seps) % 5:
        return None
    if not (text[seps].reshape(-1, 5) == _SEPARATORS).all():
        return None
    # a field starts after the separator before it
    starts = np.empty_like(seps)
    starts[0] = 0
    starts[1:] = seps[:-1] + 1
    starts, ends = starts.reshape(-1, 5), seps.reshape(-1, 5)
    return [
        (starts[:, :2].ravel(), ends[:, :2].ravel()),
        *((starts[:, j], ends[:, j]) for j in range(2, 5)),
    ]


def _distinct(block: bytes, starts: np.ndarray, ends: np.ndarray):
    """The distinct fields block[start:end] in first-seen order, and each
    field's index into them.

    Fields are grouped by byte length, so none is padded to the widest.
    The fields of one length n are picked from a view of block as n-byte
    strings, one starting at each byte, and sorted as whole byte strings.
    """
    lengths = ends - starts
    if (lengths == lengths[0]).all():
        groups = [np.arange(len(starts))]
    else:
        by_length = lengths.argsort(kind="stable")
        groups = np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1)
    inverse = np.empty(len(starts), dtype=np.intp)
    firsts: list[np.ndarray] = []
    for group in groups:
        size = int(lengths[group[0]])
        strings = np.ndarray((len(block) - size + 1,), f"V{size}", block, 0, (1,))
        first, codes = _unique(strings[starts[group]])
        inverse[group] = codes + sum(map(len, firsts))
        firsts.append(group[first])
    first = np.concatenate(firsts)
    order = first.argsort(kind="stable")
    renumber = np.empty(len(order), dtype=np.intp)
    renumber[order] = np.arange(len(order))
    fields = map(slice, starts[first[order]].tolist(), ends[first[order]].tolist())
    return list(map(block.__getitem__, fields)), renumber[inverse]


def _unique(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each distinct value of key, in sorted order, the index of its
    first occurrence; and for each element, the number of its value. (A
    stable sort puts each value's first occurrence first among its
    equals.) np.unique gives the same, but its cumsum of bools and extra
    temporaries measured ~8 % slower and +0.2 MiB on report's peak RSS."""
    order = key.argsort(kind="stable")
    ordered = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    heads = new.nonzero()[0]
    runs = np.empty(len(heads), dtype=np.intp)
    np.subtract(heads[1:], heads[:-1], out=runs[:-1])
    runs[-1] = len(key) - heads[-1]
    inverse = np.empty(len(key), dtype=np.intp)
    inverse[order] = np.arange(len(heads)).repeat(runs)
    return order[heads], inverse


def _intern(codes: dict[bytes, int], strings: list[str], fields: list[bytes]) -> np.ndarray:
    """The codes of a block's distinct fields, given in first-seen order:
    a field the file has not held before is decoded, appended to strings
    and takes the next code."""
    found = list(map(codes.get, fields))
    if None in found:
        for i, field in enumerate(fields):
            if found[i] is None:
                found[i] = codes[field] = len(strings)
                strings.append(field.decode("utf-8"))
    return np.array(found, dtype=np.int32)
