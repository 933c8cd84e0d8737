"""Shared CSV/line formats used across pipeline stages.

Floats are written with repr() (shortest round-trip form) so output is
byte-stable; empty cells encode null.

Edge files: whatever write_edges_csv writes, read_edges_csv reads back,
whatever the length of an account id or evidence key. Account lists:
whatever write_account_list writes, read_account_list reads back.
"""

from __future__ import annotations

import csv
from array import array
from typing import Iterable

from coordnet.detectors import DETECTORS, ORDER_ERROR, SCORE_ERROR, EdgeTable
from coordnet.sources import RowError, csv_cells, csv_reader, csv_writer, number

EDGE_HEADER = ("account_a", "account_b", "detector", "score", "evidence")

# An evidence key joins k hashtags of any length, so no field limit
# suits every edge file; this one fits a C long on every platform.
_EDGE_FIELD_LIMIT = 2**31 - 1
_DETECTOR_CODES = {name: i for i, name in enumerate(DETECTORS)}
# Rows rendered to text at a time while writing, which bounds the
# writer's memory above the table itself.
_WRITE_ROWS = 1 << 13
_EDGE_ROW = "{},{},{},{},{}\n".format


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_edges_csv(edges: EdgeTable, fp) -> None:
    """The header, then one row per edge: the bytes csv_writer writes.
    Each account id, evidence key and detector name is rendered as a
    cell once; rows are joined from those cells and the scores' reprs
    (a float formats as its repr) a block at a time."""
    fp.write(",".join(EDGE_HEADER) + "\n")
    account = csv_cells(edges.accounts).__getitem__
    key = csv_cells(edges.keys).__getitem__
    detector = csv_cells(DETECTORS).__getitem__
    for lo in range(0, len(edges), _WRITE_ROWS):
        rows = slice(lo, lo + _WRITE_ROWS)
        fp.write(
            "".join(
                map(
                    _EDGE_ROW,
                    map(account, edges.a[rows].tolist()),
                    map(account, edges.b[rows].tolist()),
                    map(detector, edges.detector[rows].tolist()),
                    edges.score[rows].tolist(),
                    map(key, edges.evidence[rows].tolist()),
                )
            )
        )


def read_edges_csv(source) -> EdgeTable:
    """Read and check an edge file: the header, then rows of 5 fields
    with a known detector, account_a < account_b and a score in [0, 1]
    written as a number without "_". A bad row is an error naming the
    file and line. Blank lines are skipped. Account ids and evidence
    keys are interned in first-seen order; the columns grow as typed
    arrays, so no row leaves a Python object behind."""
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
