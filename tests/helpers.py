"""Record builders and pure-Python oracles shared across test modules."""

import importlib.util
import json
import math
import os
import random
import re
from array import array
from collections import Counter
from dataclasses import astuple, dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple

import numpy as np

import coordnet
from coordnet.config import DETECTORS, DetectorConfig
from coordnet.corpus import (
    _CODED,
    KINDS,
    ORIGINAL,
    REPLY,
    RETWEET,
    SECONDS_PER_DAY,
    day_of_timestamp,
    normalize_text,
    parse_corpus,
)
from coordnet.detectors import AccountVectors, EdgeTable, build_account_vectors
from coordnet.graph import InteractionCounts
from coordnet.sociolinguistics import (
    N_CHARACTERISTICS,
    CharacteristicTable,
    characteristic_index,
)
from coordnet import stats
from coordnet.stats import left_sum

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


def column(corpus, table: str) -> list:
    """Each row's value of one of the corpus's coded columns, named by
    its table ("texts", "hashtags", ...): the table entry of the row's
    code, None where the code is -1."""
    codes = getattr(corpus, {t: c for t, c, *_ in _CODED}[table])
    values = getattr(corpus, table)
    return [values[c] if c >= 0 else None for c in codes]


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


def member_of(corpus, ids) -> np.ndarray:
    """For each account code of the corpus: is that account one of ids."""
    ids = set(ids)
    return np.array([name in ids for name in corpus.account_ids], dtype=bool)


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
    return bool(table.codes_of([tweet_id])[0] >= 0)


def table_row(table, tweet_id):
    """A tweet's confidence row, read from the table's flat rows at its
    code; zeros when the table has none."""
    code = int(table.codes_of([tweet_id])[0])
    if code < 0:
        return np.zeros(N_CHARACTERISTICS)
    return np.array(table.rows[code * N_CHARACTERISTICS : (code + 1) * N_CHARACTERISTICS])


def table_matrix(table) -> np.ndarray:
    """A CharacteristicTable as one matrix line per tweet, each read
    from the table's flat rows at the tweet's code."""
    n = N_CHARACTERISTICS
    lines = [table.rows[c * n : (c + 1) * n] for c in table.codes]
    return np.array(lines, dtype=np.float64).reshape(-1, n)


def table_of(tweet_ids, matrix, provenance="external") -> CharacteristicTable:
    """A CharacteristicTable giving tweet tweet_ids[i] line i of matrix,
    with each distinct line (bit for bit) held once."""
    lines = np.ascontiguousarray(matrix, dtype=np.float64).reshape(-1, N_CHARACTERISTICS)
    code_of: dict[bytes, int] = {}
    codes = array("i", (code_of.setdefault(line.tobytes(), len(code_of)) for line in lines))
    return CharacteristicTable(list(tweet_ids), codes, array("d", b"".join(code_of)), provenance)


def top_fraction_cutoff(sims, top_frac: float) -> float:
    """Nearest-rank cutoff: the ceil(top_frac * m)-th largest similarity."""
    k = max(1, math.ceil(top_frac * len(sims)))
    return float(sorted(sims.tolist(), reverse=True)[k - 1])


def reference_account_vectors(corpus, term, cfg=DetectorConfig()):
    """The per-account dict build that detectors.build_account_vectors
    replaced, kept as its bitwise reference: account -> (entries, norm)
    for the eligible accounts in id order, entries {term id: weight} in
    ascending term order without zero weights, norm the left-to-right
    sum of their squares under a square root."""
    codes = corpus.account_codes
    if term == "retweeted_id":
        targets = column(corpus, "retweeted_tweet_ids")
        pairs = Counter(
            (code, target)
            for code, kind, target in zip(codes, corpus.kinds, targets)
            if kind == RETWEET
        )
    else:
        bin_seconds = cfg.time_bin_minutes * 60
        pairs = Counter(zip(codes, [ts // bin_seconds for ts in corpus.timestamps]))
    counts: dict[str, dict] = {}
    for (code, value), tf in pairs.items():
        counts.setdefault(corpus.account_ids[code], {})[value] = tf
    minimum = cfg.retweet_min if term == "retweeted_id" else cfg.time_min
    included = sorted(acct for acct, per in counts.items() if sum(per.values()) > minimum)
    n_docs = len(included)
    df: dict = {}
    for acct in included:
        for value in counts[acct]:
            df[value] = df.get(value, 0) + 1
    term_ids = {value: i for i, value in enumerate(sorted(df))}
    vectors = {}
    for acct in included:
        weights = {
            term_ids[value]: tf * math.log((1 + n_docs) / (1 + df[value]))
            for value, tf in counts[acct].items()
        }
        entries = {t: w for t, w in sorted(weights.items()) if w != 0.0}
        vectors[acct] = (entries, math.sqrt(left_sum(w * w for w in entries.values())))
    return vectors


def assert_vectors_match_reference(corpus, cfg=DetectorConfig()):
    """build_account_vectors gives reference_account_vectors' rows, term
    ids, weights and norms bit for bit, for both terms."""
    for term in ("retweeted_id", "time_bin"):
        vectors = build_account_vectors(corpus, term, cfg)
        want = reference_account_vectors(corpus, term, cfg)
        assert list(vectors) == list(want)
        assert list(vectors.accounts.values()) == list(range(len(want)))
        assert len(vectors.indptr) == len(want) + 1 and vectors.indptr[0] == 0
        for r, (entries, norm) in enumerate(want.values()):
            lo, hi = vectors.indptr[r], vectors.indptr[r + 1]
            assert vectors.terms[lo:hi].tolist() == list(entries)
            assert [w.hex() for w in vectors.weights[lo:hi].tolist()] == [
                w.hex() for w in entries.values()
            ]
            assert float(vectors.norms[r]).hex() == norm.hex()
        assert vectors.indptr[-1] == len(vectors.terms) == len(vectors.weights)


def account_vectors(entries) -> AccountVectors:
    """AccountVectors of {account: {term id: weight}}: zero weights
    dropped, norms summed as the builder sums them."""
    accounts = sorted(entries)
    rows = [sorted((t, w) for t, w in entries[a].items() if w != 0.0) for a in accounts]
    return AccountVectors(
        {a: r for r, a in enumerate(accounts)},
        np.cumsum([0] + [len(row) for row in rows]),
        np.array([t for row in rows for t, _ in row], dtype=np.int64),
        np.array([w for row in rows for _, w in row], dtype=np.float64),
        np.array([math.sqrt(left_sum(w * w for _, w in row)) for row in rows]),
    )


def jsonl_line(**kwargs):
    kwargs.setdefault("text", "")
    return json.dumps(kwargs)


def perfbench_workloads():
    """perfbench/workloads.py, the benchmark's corpus generators."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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


def oracle_score_text(text, language, lexicon):
    """The per-text scorer that sociolinguistics.score_corpus replaced:
    the noisy-OR confidence per characteristic of one tweet, with every
    entry that applies to its language counting the matches of its
    lookaround pattern in the normalized text."""
    text = normalize_text(text, strip_punct_nonascii=False)
    miss = np.ones(N_CHARACTERISTICS, dtype=np.float64)
    for e in lexicon.entries:
        if e.language is not None and e.language != language:
            continue
        hits = len(re.findall(r"(?<!\w)" + re.escape(e.phrase) + r"(?!\w)", text))
        if hits:
            miss[characteristic_index(e.characteristic)] *= (1.0 - e.weight) ** hits
    return 1.0 - miss


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


# The rank statistics as they were before one ranking and one
# correlation core served them, kept as their bitwise reference.


def oracle_spearman_pearson(x, y):
    """stats.spearman's rho by a pairwise Pearson loop over the ranks;
    None for a constant input."""
    rx = stats.rankdata(x).tolist()
    ry = stats.rankdata(y).tolist()
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = vx = vy = 0.0
    for xi, yi in zip(rx, ry):
        dx = xi - mx
        dy = yi - my
        cov += dx * dy
        vx += dx * dx
        vy += dy * dy
    if vx == 0.0 or vy == 0.0:
        return None
    return max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))


def oracle_correlation_matrices(matrix):
    """report.correlation_matrices over a confidence matrix, by the
    report's own rank / centre / matrix-product code."""
    m, n = matrix.shape
    rho = [[None] * n for _ in range(n)]
    pval = [[None] * n for _ in range(n)]
    for i in range(n):
        rho[i][i] = 1.0
        pval[i][i] = 0.0
    if m < 3:
        return rho, pval
    ranks = np.column_stack([stats.rankdata(matrix[:, j]) for j in range(n)])
    centered = ranks - ranks.mean(axis=0)
    sq = (centered**2).sum(axis=0)
    cov = centered.T @ centered
    for i in range(n):
        for j in range(i + 1, n):
            if sq[i] == 0.0 or sq[j] == 0.0:
                continue
            r = max(-1.0, min(1.0, float(cov[i, j]) / math.sqrt(sq[i] * sq[j])))
            rho[i][j] = rho[j][i] = r
            pval[i][j] = pval[j][i] = stats.t_approx_p(r, m)
    return rho, pval


def oracle_mann_whitney_u(a, b, method="auto"):
    """stats.mann_whitney_u with its ties counted by a second sort
    (np.unique) instead of from the ranking."""
    n1, n2 = len(a), len(b)
    combined = np.concatenate((np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))
    u_a = float(stats.rankdata(combined)[:n1].sum()) - n1 * (n1 + 1) / 2.0
    sizes = np.unique(combined, return_counts=True)[1]
    ties = sizes[sizes > 1].tolist()
    if method == "exact" or (method == "auto" and n1 + n2 <= 16 and not ties):
        counts = stats._exact_u_counts(n1, n2)
        d_obs = abs(int(round(2 * u_a)) - n1 * n2)
        hits = sum(c for u, c in enumerate(counts) if abs(2 * u - n1 * n2) >= d_obs)
        return stats.StatResult(u_a, hits / math.comb(n1 + n2, n1), (n1, n2), method="mwu-exact")
    n = n1 + n2
    tie_term = sum(t**3 - t for t in ties)
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if var <= 0.0:
        return stats.StatResult(u_a, 1.0, (n1, n2), method="mwu-normal")
    z = max(0.0, abs(u_a - n1 * n2 / 2.0) - 0.5) / math.sqrt(var)
    return stats.StatResult(u_a, min(1.0, 2.0 * stats._norm_sf(z)), (n1, n2), method="mwu-normal")


def rank_test_matrix(seed, n, k):
    """A seeded n x k matrix whose columns the rank statistics must
    handle, by j % 5: distinct values, three tied levels, a constant
    column, many tied levels, and each half one repeated value."""
    rng = np.random.default_rng(seed)
    half = np.where(np.arange(n) < n // 2, 0.1, 0.9)
    kinds = (
        lambda: rng.random(n),
        lambda: rng.choice([0.0, 0.5, 1.0], n),
        lambda: np.full(n, 0.25),
        lambda: rng.integers(0, 21, n) / 4,
        lambda: half,
    )
    return np.column_stack([kinds[j % 5]() for j in range(k)])


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
    return corpus_of(*records), table_of(covered, matrix)


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


def oracle_components(edges):
    """(cluster id, member set) per connected component of Edge tuples,
    by union-find over the account ids themselves: size descending, then
    smallest member, ids from 1."""
    uf = UnionFind()
    for edge in sorted(set(edges), key=lambda e: (e.a, e.b, e.detector, e.evidence)):
        uf.add(edge.a)
        uf.add(edge.b)
        uf.union(edge.a, edge.b)
    groups = uf.groups()
    groups.sort(key=lambda g: (-len(g), min(g)))
    return list(enumerate(groups, start=1))


# The report's coordinated-account sections as they were when membership
# was a set of account ids, kept as the reference for the per-code
# member array.


def oracle_retweet_interactions(corpus, coordinated: set[str]) -> InteractionCounts:
    """graph.retweet_interactions with one set lookup per author, target
    and mention."""
    intra = 0
    outside_retweets = 0
    outside_replies = 0
    coordinated_actions = 0
    member = [name in coordinated for name in corpus.account_ids]
    for code, kind, target, mentions in zip(
        corpus.account_codes,
        corpus.kinds,
        column(corpus, "retweeted_account_ids"),
        column(corpus, "mentions"),
    ):
        author_in = member[code]
        if kind == RETWEET:
            if author_in:
                coordinated_actions += 1
            if target is not None and target in coordinated:
                if author_in:
                    intra += 1
                else:
                    outside_retweets += 1
        elif kind == REPLY and not author_in:
            if any(m in coordinated for m in mentions):
                outside_replies += 1
    of_content = intra + outside_retweets
    return InteractionCounts(
        intra_retweets=intra,
        retweets_from_outside=outside_retweets,
        replies_from_outside=outside_replies,
        intra_share=(intra / of_content) if of_content else None,
        intra_share_of_actions=(intra / coordinated_actions) if coordinated_actions else None,
    )


def oracle_activity_shares(corpus, coordinated: set[str]):
    """graph.activity_shares with one set lookup per account."""
    member = [name in coordinated for name in corpus.account_ids]
    day_kinds = list(zip(corpus.day_codes(), corpus.kinds))
    totals = Counter(day_kinds)
    coord = Counter(dk for dk, code in zip(day_kinds, corpus.account_codes) if member[code])
    out = []
    for day in sorted({day for day, _ in totals}):
        shares = {}
        for code, kind in enumerate(KINDS):
            total = totals[day, code]
            shares[kind] = (coord[day, code] / total) if total else None
        out.append((day_of_timestamp(day * SECONDS_PER_DAY), shares))
    return out


def oracle_duplicate_shares(corpus, scope: str = "account"):
    """graph.duplicate_shares with a list of normalized texts per account
    and a Counter per count."""
    texts_of: dict[int, list[str]] = {}
    for code, kind, text in zip(corpus.account_codes, corpus.kinds, corpus.text_codes):
        if kind == ORIGINAL:
            texts_of.setdefault(code, []).append(normalize_text(corpus.texts[text]))
    corpus_counts = Counter(t for texts in texts_of.values() for t in texts)
    out = {}
    for account in corpus.accounts():
        texts = texts_of.get(corpus.code_of[account])
        if not texts:
            out[account] = (None, 0)
            continue
        counts = corpus_counts if scope == "corpus" else Counter(texts)
        dup = sum(1 for t in texts if counts[t] >= 2)
        out[account] = (dup / len(texts), len(texts))
    return out


def oracle_story_share(corpus, coordinated: set[str], story_hashtags) -> dict:
    """report.story_share with one set lookup per story tweet."""
    tags = set(story_hashtags)
    if not tags:
        return {"hashtags": [], "coordinated": None, "total": None, "share": None}
    total = 0
    coord = 0
    names = corpus.account_ids
    for code, hashtags in zip(corpus.account_codes, column(corpus, "hashtags")):
        if not hashtags or tags.isdisjoint(hashtags):
            continue
        total += 1
        if names[code] in coordinated:
            coord += 1
    return {
        "hashtags": sorted(tags),
        "coordinated": coord,
        "total": total,
        "share": (coord / total) if total else None,
    }
