"""Record builders and pure-Python oracles shared across test modules."""

import json
import math
import os
import random
from dataclasses import astuple, dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple

import numpy as np

import coordnet
from coordnet.config import DETECTORS
from coordnet.corpus import day_of_timestamp, parse_corpus
from coordnet.detectors import EdgeTable
from coordnet.sociolinguistics import N_CHARACTERISTICS, CharacteristicTable

BASE_TS = 1493632800  # 2017-05-01T10:00:00Z


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One message, field for field as the validator emits it."""

    tweet_id: str
    account_id: str
    timestamp: int  # UTC seconds
    kind: str
    text: str = ""
    hashtags: tuple[str, ...] = ()
    language: str = "und"
    retweeted_tweet_id: str | None = None
    retweeted_account_id: str | None = None
    mentions: tuple[str, ...] = ()


FIELDS = tuple(TweetRecord.__dataclass_fields__)


def record_to_json(r: TweetRecord) -> str:
    """The canonical one-line JSON form of a record."""
    return json.dumps(dict(zip(FIELDS, astuple(r))), ensure_ascii=False, separators=(",", ":"))


def records_of(corpus) -> list[TweetRecord]:
    """Every row of a corpus as a TweetRecord."""
    return [TweetRecord(*fields) for fields in corpus._fields()]


def parse_one(line: str) -> TweetRecord:
    """The record parse_corpus makes of one line; CorpusError if it is
    rejected."""
    return records_of(parse_corpus([line], strict=True))[0]


def rec(
    tweet_id,
    account,
    ts=BASE_TS,
    kind="original",
    text="",
    hashtags=(),
    language="und",
    rt_id=None,
    rt_account=None,
    mentions=(),
):
    if kind == "retweet" and rt_id is None:
        rt_id = f"src-{tweet_id}"
    return TweetRecord(
        tweet_id=str(tweet_id),
        account_id=str(account),
        timestamp=int(ts),
        kind=kind,
        text=text,
        hashtags=tuple(t.lower() for t in hashtags),
        language=language,
        retweeted_tweet_id=rt_id,
        retweeted_account_id=rt_account,
        mentions=tuple(mentions),
    )


def corpus_of(*records):
    """The corpus parse_corpus builds from the records' JSON lines."""
    return parse_corpus([record_to_json(r) for r in records], strict=True)


class Edge(NamedTuple):
    """One coordination edge by account id: a < b."""

    a: str
    b: str
    detector: str
    score: float
    evidence: str


def edges_of(table: EdgeTable) -> list[Edge]:
    """The rows of an EdgeTable as Edge tuples, in table order."""
    accounts, keys = table.accounts, table.keys
    return [
        Edge(accounts[x], accounts[y], DETECTORS[d], s, keys[e])
        for x, y, d, s, e in zip(
            table.a.tolist(), table.b.tolist(), table.detector.tolist(),
            table.score.tolist(), table.evidence.tolist(),
        )
    ]


def edge_table(edges) -> EdgeTable:
    """The EdgeTable of the given edges, in their order."""
    accounts: dict[str, int] = {}
    keys: dict[str, int] = {}
    a, b, detector, score, evidence = [], [], [], [], []
    for e in edges:
        a.append(accounts.setdefault(e.a, len(accounts)))
        b.append(accounts.setdefault(e.b, len(accounts)))
        detector.append(DETECTORS.index(e.detector))
        score.append(e.score)
        evidence.append(keys.setdefault(e.evidence, len(keys)))
    return EdgeTable(list(accounts), a, b, detector, score, list(keys), evidence)


def has_row(table, tweet_id) -> bool:
    """Whether a CharacteristicTable holds a row for the tweet."""
    return bool(table.row_indices([tweet_id])[0] >= 0)


def table_row(table, tweet_id):
    """A tweet's confidence row; zeros when the table has none."""
    if has_row(table, tweet_id):
        return table.matrix[table.row_indices([tweet_id])[0]]
    return np.zeros(N_CHARACTERISTICS)


def top_fraction_cutoff(sims, top_frac: float) -> float:
    """Nearest-rank cutoff: the ceil(top_frac * m)-th largest similarity."""
    k = max(1, math.ceil(top_frac * len(sims)))
    return float(sorted(sims.tolist(), reverse=True)[k - 1])


def jsonl_line(**kwargs):
    kwargs.setdefault("text", "")
    return json.dumps(kwargs)


def subprocess_env():
    """os.environ with PYTHONPATH leading to the coordnet under test, so a
    child interpreter imports it whether or not PYTHONPATH was set."""
    src = str(Path(coordnet.__file__).resolve().parents[1])
    parts = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(parts))


# ---------------------------------------------------------------------------
# Oracles: the per-element loops the array code replaced, kept as the
# bitwise reference for it.
# ---------------------------------------------------------------------------


def oracle_rankdata(values):
    """Ranks starting at 1; ties receive the average of their ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def oracle_daily_mean_series(day_values):
    """Collapse (ISO day, value) pairs to per-day means over the full
    range, None on days without values."""
    sums = {}
    counts = {}
    for day, value in day_values:
        sums[day] = sums.get(day, 0.0) + value
        counts[day] = counts.get(day, 0) + 1
    if not sums:
        return []
    current = date.fromisoformat(min(sums))
    end = date.fromisoformat(max(sums))
    out = []
    while current <= end:
        key = current.isoformat()
        out.append((key, sums[key] / counts[key] if key in sums else None))
        current += timedelta(days=1)
    return out


def oracle_daily_mean_confidence(table, tweets, characteristic):
    """Per-UTC-day mean confidence, one table row lookup per tweet."""
    idx = table.column_index(characteristic)
    return oracle_daily_mean_series(
        (day_of_timestamp(t.timestamp), float(table_row(table, t.tweet_id)[idx])) for t in tweets
    )


def oracle_mean_se(values) -> float:
    """Ideal bootstrap SE of the mean in two passes over one contiguous
    column: sqrt(sum((x - mean)**2)) / n, and 0.0 when every value
    equals the first."""
    x = np.array(values, dtype=np.float64)
    if all(v == x[0] for v in x.tolist()):
        return 0.0
    mean = x.sum() / len(x)
    return math.sqrt(float(((x - mean) ** 2).sum())) / len(x)


def random_report_inputs(seed, n_records=400, n_accounts=40):
    """A seeded corpus and confidence table with the shapes the report's
    array paths must handle: tweets without a confidence row, tied
    confidences, instants before 1970 and days without tweets."""
    rnd = random.Random(seed)
    # 1969-12-25 .. 1970-01-09, with 1969-12-28 and 1970-01-03 left empty
    days = [d for d in range(-7, 9) if d not in (-4, 2)]
    records = []
    for i in range(n_records):
        ts = rnd.choice(days) * 86_400 + rnd.randrange(86_400)
        records.append(rec(f"t{i}", f"a{rnd.randrange(n_accounts)}", ts))
    # a one-tweet account, for a cluster scope with a single tweet
    records.append(rec("solo", "solo", 3 * 86_400))
    distinct = sorted({r.tweet_id for r in records})
    covered = [t for t in distinct if rnd.random() < 0.8]
    matrix = np.array(
        [[rnd.choice((0.0, 0.1, 0.5, 0.5, 0.9, 1.0)) for _ in range(N_CHARACTERISTICS)]
         for _ in covered]
    )
    table = CharacteristicTable(covered, matrix, provenance="external")
    return corpus_of(*records), table


class UnionFind:
    """Disjoint sets over hashable items, union by size + path compression."""

    def __init__(self):
        self._parent: dict = {}
        self._size: dict = {}

    def add(self, item) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item):
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def groups(self) -> list[set]:
        by_root: dict = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return list(by_root.values())


def oracle_components(edges, extra_nodes=()):
    """(cluster id, member set) per connected component of Edge tuples,
    by union-find over the account ids themselves: size descending, then
    smallest member, ids from 1."""
    uf = UnionFind()
    for node in extra_nodes:
        uf.add(node)
    for edge in sorted(set(edges), key=lambda e: (e.a, e.b, e.detector, e.evidence)):
        uf.add(edge.a)
        uf.add(edge.b)
        uf.union(edge.a, edge.b)
    groups = uf.groups()
    groups.sort(key=lambda g: (-len(g), min(g)))
    return list(enumerate(groups, start=1))
