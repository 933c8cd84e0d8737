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
# so it grows to hold a longer line. Much of a block's cost is a fixed
# number of numpy calls, so larger blocks read faster (hashtag-burst's
# edge file: ~0.115 s at 64 KiB, ~0.066 s at 256 KiB), while the block
# reader's temporaries, about three blocks, add to the reading stage's
# peak RSS.
_READ_BYTES = 1 << 18
_HEADER_LINE = (",".join(EDGE_HEADER) + "\n").encode()
# Bytes only the row loop reads: CSV quoting and "\r" (a row end to
# csv.reader).
_ROW_LOOP_BYTES = (b'"', b"\r")
# What the block reader appends to each block: the 8 bytes from any
# byte of a line can then be read as one integer.
_PAD = bytes(7)
# Masks that keep the first n bytes of a big-endian uint64.
_HIGH_BYTES = np.array([(1 << 64) - (1 << 64 - 8 * n) for n in range(9)], dtype=np.uint64)


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
    raised report's peak RSS on hashtag-burst by ~1 MiB. A block is
    split into its separators' offsets (_split), then read a column at
    a time, each column reduced to its distinct fields (_distinct) and
    its temporaries freed before the next column's are made. Only an id
    or key the file has not held before is decoded (in first-seen
    order, so codes are first-seen codes), and a block's distinct
    detector names and score strings; the checks run once per distinct
    value or as array compares. account_a < account_b is checked last,
    for the whole file at once, on the ranks of its account ids in str
    order.
    """
    rows = _line_count(fp) - 1
    fp.seek(0)
    if fp.read(len(_HEADER_LINE)) != _HEADER_LINE:
        return None
    table = EdgeTable(
        [], np.empty(rows, dtype=np.int32), np.empty(rows, dtype=np.int32),
        np.empty(rows, dtype=np.int8), np.empty(rows, dtype=np.float64), [], np.empty(rows, dtype=np.int32),
    )
    account_codes: dict[bytes, int] = {}
    key_codes: dict[bytes, int] = {}
    lo = 0
    try:
        for block in _blocks(fp.read):
            lo = _read_block(block, table, lo, account_codes, key_codes)
            del block  # so the next block is made with only the table alive
            if lo is None:
                return None
    except ValueError:  # a UnicodeError, a score number() refuses, or more rows than lines
        return None
    if lo != rows:
        return None
    accounts, a, b = table.accounts, table.a, table.b
    rank = np.empty(len(accounts), dtype=np.intp)
    rank[sorted(range(len(accounts)), key=accounts.__getitem__)] = np.arange(len(accounts))
    for lo in range(0, rows, _WRITE_ROWS):
        if not (rank[a[lo : lo + _WRITE_ROWS]] < rank[b[lo : lo + _WRITE_ROWS]]).all():
            return None
    return table


def _read_block(block: bytes, table: EdgeTable, lo: int, account_codes: dict, key_codes: dict) -> int | None:
    """Fill table's rows from lo on with the lines of block, and return
    the row after them; None when the row loop must read the file. Ids
    and keys are interned into table.accounts and table.keys through
    account_codes and key_codes."""
    if any(byte in block for byte in _ROW_LOOP_BYTES):
        return None
    cuts = _split(block)
    if cuts is None:
        return None
    rows = slice(lo, lo + len(cuts))

    def column(j):
        return _distinct(block, cuts[:, j] + 1, cuts[:, j + 1])

    # ids take codes in the order rows name them: a row's account_a,
    # then its account_b
    (xs, x_first, x_of), (ys, y_first, y_of) = column(0), column(1)
    codes = _intern(account_codes, table.accounts, xs + ys, np.concatenate((2 * x_first, 2 * y_first + 1)))
    table.a[rows] = codes[x_of]
    table.b[rows] = codes[len(xs) :][y_of]
    del x_of, y_of
    names, _, name_of = column(2)
    detectors = [_DETECTOR_CODES.get(name.decode("utf-8")) for name in names]
    if None in detectors:
        return None
    table.detector[rows] = np.array(detectors, dtype=np.int8)[name_of]
    del name_of
    texts, _, text_of = column(3)
    values = [number(text.decode("utf-8")) for text in texts]
    if not all(0.0 <= value <= 1.0 for value in values):
        return None
    table.score[rows] = np.array(values, dtype=np.float64)[text_of]
    del text_of
    block_keys, key_first, key_of = column(4)
    table.evidence[rows] = _intern(key_codes, table.keys, block_keys, key_first)[key_of]
    return rows.stop


def _line_count(fp) -> int:
    """The number of lines in binary file fp from where it is, a last
    line without "\n" included."""
    lines, last = 0, 10
    buffer = bytearray(_READ_BYTES)
    text = np.frombuffer(buffer, dtype=np.uint8)
    while size := fp.readinto(buffer):
        lines += np.count_nonzero(text[:size] == 10)
        last = buffer[size - 1]
    return lines + (last != 10)


def _blocks(read):
    """The bytes read(size) returns, _READ_BYTES at a time, in blocks
    cut after their last "\n" (a block holds at least one line). The
    last line gets a "\n" when it has none. Each block is followed by
    _PAD, so the 8 bytes from any byte of its lines lie in it."""
    parts: list = []
    while chunk := read(_READ_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            parts.append(chunk)
            continue
        block = b"".join((*parts, memoryview(chunk)[:cut], _PAD))
        parts = [chunk[cut:]]
        del chunk  # only the block stays alive while it is read,
        yield block
        del block  # and not while the next one is made
    if any(parts):
        yield b"".join((*parts, b"\n", _PAD))


def _split(block: bytes) -> np.ndarray | None:
    """A row per line of block: the offset of the "\n" before the line
    (-1 for the first), of its four "," and of its "\n", so field j of
    the line is block[cuts[j] + 1 : cuts[j + 1]]. None unless every line
    holds exactly four ",".

    "," and "\n" are found in two scans, one bool array alive at a time,
    and the offsets are kept as int32 (int64 in a block of 2 GiB).
    """
    text = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(text == 10)
    commas = np.flatnonzero(text == 44)
    if len(commas) != 4 * len(ends):
        return None
    cuts = np.empty((len(ends), 6), dtype=np.int32 if len(block) < 2**31 else np.int64)
    cuts[0, 0] = -1
    cuts[1:, 0] = ends[:-1]
    cuts[:, 1:5] = commas.reshape(-1, 4)
    cuts[:, 5] = ends
    # with four "," a line in all, each line holds exactly four when its
    # first follows the line's start and its last precedes its end
    if not ((cuts[:, 0] < cuts[:, 1]).all() and (cuts[:, 4] < cuts[:, 5]).all()):
        return None
    return cuts


def _distinct(block: bytes, starts: np.ndarray, ends: np.ndarray):
    """The distinct fields block[start:end] (in no particular order),
    the index of each one's first occurrence, and each field's index
    into them.

    When every field is under 8 bytes, fields are compared as
    _word_keys with the field's length in the low byte, which the bytes
    of a field under 8 bytes never reach. Otherwise they are grouped by
    byte length, so none is padded to the widest, and compared as _keys.
    """
    lengths = ends - starts
    if lengths.max() < 8:
        first, inverse = _unique(_word_keys(block, starts, lengths) | lengths.astype(np.uint64))
    elif (lengths == lengths[0]).all():
        first, inverse = _unique(_keys(block, starts, int(lengths[0])))
    else:
        by_length = lengths.argsort(kind="stable")
        inverse = np.empty(len(starts), dtype=np.intp)
        firsts: list[np.ndarray] = []
        for group in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
            first, codes = _unique(_keys(block, starts[group], int(lengths[group[0]])))
            inverse[group] = codes + sum(map(len, firsts))
            firsts.append(group[first])
        first = np.concatenate(firsts)
    fields = map(slice, starts[first].tolist(), ends[first].tolist())
    return list(map(block.__getitem__, fields)), first, inverse


def _keys(block: bytes, starts: np.ndarray, size: int) -> np.ndarray:
    """Keys that are equal where the size-byte fields of block at starts
    are, and that sort as the fields do: _word_keys up to 8 bytes, else
    each field as a string of 8-byte words (a void scalar) zero-padded
    past the field, which _heads compares a word at a time."""
    if size <= 8:
        return _word_keys(block, starts, size)
    width = 8 * -(-size // 8)
    keys = np.ndarray((len(block) - width + 1,), f"V{width}", block, 0, (1,))[starts]
    keys.view(np.uint8).reshape(len(keys), width)[:, size:] = 0
    return keys


def _word_keys(block: bytes, starts: np.ndarray, size) -> np.ndarray:
    """Each field of block at starts, of size bytes (one length, or each
    field's; at most 8), as one big-endian uint64 whose bytes past the
    field are zero. Integers sort ~5x faster than bytes, and an edge
    file's ids, ascending within a run of account_a, reach the stable
    sort in ready-made runs."""
    keys = np.ndarray((len(block) - 7,), ">u8", block, 0, (1,))[starts].astype(np.uint64)
    keys &= _HIGH_BYTES[size]
    return keys


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each distinct value of keys, the index of its first
    occurrence; and for each key, the number of its value.

    A key equal to the key before it joins that key's run, and only the
    first key of each run is sorted: an edge file repeats a detector, a
    score and an evidence key over many rows and is sorted by
    account_a, so most columns of a block are a few runs.
    """
    heads = _heads(keys)
    if len(heads) == 1:
        return heads, np.zeros(len(keys), dtype=np.intp)
    if len(heads) == len(keys):  # no runs: keys are sorted without a copy
        return _sorted_unique(keys)
    first, value_of_head = _sorted_unique(keys[heads])
    return heads[first], value_of_head.repeat(_run_lengths(heads, len(keys)))


def _sorted_unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_unique by one stable sort of keys, which puts each value's first
    occurrence first among its equals."""
    order = keys.argsort(kind="stable")
    values = _heads(keys[order])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.arange(len(values)).repeat(_run_lengths(values, len(keys)))
    return order[values], inverse


def _run_lengths(heads: np.ndarray, end: int) -> np.ndarray:
    """The length of each run that starts at heads, the last one ending
    at end."""
    lengths = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
    lengths[-1] = end - heads[-1]
    return lengths


def _heads(keys: np.ndarray) -> np.ndarray:
    """The indices of the keys that differ from the key before them, 0
    included."""
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    if keys.dtype.kind != "V" or keys.itemsize > 64:
        new[1:] = keys[1:] != keys[:-1]
    else:  # a word at a time, ~6x faster than comparing void scalars
        # while a field is a few words
        words = keys.view(np.uint64).reshape(len(keys), -1)
        np.not_equal(words[1:, 0], words[:-1, 0], out=new[1:])
        for j in range(1, words.shape[1]):
            new[1:] |= words[1:, j] != words[:-1, j]
    return np.flatnonzero(new)


def _intern(codes: dict[bytes, int], strings: list[str], fields: list[bytes], first: np.ndarray) -> np.ndarray:
    """The codes of fields (which may repeat), whose first occurrences
    in the file are in the order of first: a field the file has not held
    before takes the next code in that order, decoded and appended to
    strings."""
    found = list(map(codes.get, fields))
    if None in found:
        for i in first.argsort(kind="stable").tolist():
            if found[i] is None:
                found[i] = codes.setdefault(fields[i], len(strings))
                if found[i] == len(strings):
                    strings.append(fields[i].decode("utf-8"))
    return np.array(found, dtype=np.int32)
