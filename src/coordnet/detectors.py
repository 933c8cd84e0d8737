"""Coordination detectors: shared hashtag sequences, retweet and
tweet-time similarity.

All three detectors generate candidate pairs through inverted indexes
(never all-pairs scans) and emit canonical, deduplicated, sorted edge
tables, so output is identical for any input record order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from coordnet import kernels
from coordnet.config import DETECTORS, DetectorConfig
from coordnet.corpus import ORIGINAL, RETWEET, Corpus

HASHTAG_SEPARATOR = "|"


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


class SparseVector:
    """Non-negative sparse vector with a cached Euclidean norm.

    Zero-weight entries are dropped; entries are stored in ascending
    term order so norms and dot products are order-deterministic.
    """

    __slots__ = ("entries", "norm")

    def __init__(self, entries: dict[int, float]):
        self.entries = {t: w for t, w in sorted(entries.items()) if w != 0.0}
        self.norm = math.sqrt(sum(w * w for w in self.entries.values()))

    def __len__(self) -> int:
        return len(self.entries)


def tfidf_weight(tf: int, df: int, n_docs: int) -> float:
    """Frozen weighting: tf * ln((1 + n_docs) / (1 + df))."""
    if tf < 1:
        raise ValueError("tf must be >= 1")
    if not 1 <= df <= n_docs:
        raise ValueError("df must satisfy 1 <= df <= n_docs")
    return tf * math.log((1 + n_docs) / (1 + df))


# ---------------------------------------------------------------------------
# Hashtag-sequence detector
# ---------------------------------------------------------------------------


def _key_windows(tags: tuple[str, ...], k: int) -> set[str]:
    """Every contiguous length-k window of tags, each joined with
    HASHTAG_SEPARATOR; empty when there are fewer than k tags."""
    return {HASHTAG_SEPARATOR.join(tags[i : i + k]) for i in range(len(tags) - k + 1)}


def _index_posts(posts: Iterable[tuple[str, tuple[str, ...]]], k: int) -> dict[str, set[str]]:
    """Key -> accounts over (account_id, hashtags) of original tweets."""
    index: dict[str, set[str]] = {}
    for account, tags in posts:
        if len(tags) < k:
            continue
        for key in _key_windows(tags, k):
            index.setdefault(key, set()).add(account)
    return index


def edges_from_hashtag_index(index: dict[str, set[str]]) -> EdgeTable:
    """One edge per account pair per shared key, in (a, b, key) order.

    Accounts and keys are coded by their rank in sorted order, so code
    order is string order and a lexsort over the codes gives the
    canonical order. Groups of equal size make their pairs together,
    with one np.triu_indices per size.
    """
    keys = sorted(key for key, members in index.items() if len(members) >= 2)
    if not keys:
        return EdgeTable.empty()
    accounts = sorted(set().union(*(index[key] for key in keys)))
    code = {acct: i for i, acct in enumerate(accounts)}
    sizes = np.fromiter((len(index[key]) for key in keys), dtype=np.int64, count=len(keys))
    members = np.fromiter(
        itertools.chain.from_iterable(sorted(map(code.__getitem__, index[key])) for key in keys),
        dtype=np.int32,
        count=int(sizes.sum()),
    )
    starts = np.cumsum(sizes) - sizes
    parts = []
    for m in np.unique(sizes).tolist():
        groups = np.flatnonzero(sizes == m)
        block = members[starts[groups, None] + np.arange(m)]  # rows ascend
        i, j = np.triu_indices(m, 1)
        parts.append(
            (block[:, i].ravel(), block[:, j].ravel(), np.repeat(groups.astype(np.int32), len(i)))
        )
    a, b, evidence = [np.concatenate(column) for column in zip(*parts)]
    del parts
    order = np.lexsort((evidence, b, a))
    a, b, evidence = a[order], b[order], evidence[order]
    n = len(order)
    del order
    return EdgeTable(
        accounts, a, b, np.full(n, DETECTORS.index("hashtag"), dtype=np.int8),
        np.ones(n), keys, evidence,
    )


def detect_hashtag_coordination(
    corpus: Corpus, cfg: DetectorConfig = DetectorConfig()
) -> EdgeTable:
    """Edges between accounts sharing an original-tweet hashtag k-gram."""
    names = corpus.account_ids
    posts = (
        (names[code], tags)
        for code, kind, tags in zip(corpus.account_codes, corpus.kinds, corpus.hashtags)
        if kind == ORIGINAL and tags
    )
    return edges_from_hashtag_index(_index_posts(posts, cfg.hashtag_k))


# ---------------------------------------------------------------------------
# TF-IDF account vectors (retweet-identity and time-bin terms)
# ---------------------------------------------------------------------------


def build_account_vectors(
    corpus: Corpus, term: str, cfg: DetectorConfig = DetectorConfig()
) -> dict[str, SparseVector]:
    """Per-account TF-IDF vectors over retweeted ids or time bins.

    term="retweeted_id": documents are accounts with more than
    cfg.retweet_min retweets; terms are the ids they retweet.
    term="time_bin": documents are accounts with more than cfg.time_min
    tweets of any kind; terms are timestamp // (time_bin_minutes * 60).
    Document frequencies count included accounts only.
    """
    if term not in ("retweeted_id", "time_bin"):
        raise ValueError(f"unknown term kind: {term!r}")

    codes = corpus.account_codes
    if term == "retweeted_id":
        pairs = Counter(
            (code, target)
            for code, kind, target in zip(codes, corpus.kinds, corpus.retweeted_tweet_ids)
            if kind == RETWEET
        )
    else:
        bin_seconds = cfg.time_bin_minutes * 60
        pairs = Counter(zip(codes, [ts // bin_seconds for ts in corpus.timestamps]))
    by_code: dict[int, dict] = {}
    for (code, value), tf in pairs.items():
        by_code.setdefault(code, {})[value] = tf
    counts = {corpus.account_ids[code]: per for code, per in by_code.items()}

    minimum = cfg.retweet_min if term == "retweeted_id" else cfg.time_min
    included = sorted(acct for acct, per in counts.items() if sum(per.values()) > minimum)
    n_docs = len(included)
    if n_docs == 0:
        return {}

    df: dict = {}
    for acct in included:
        for value in counts[acct]:
            df[value] = df.get(value, 0) + 1
    term_ids = {value: i for i, value in enumerate(sorted(df))}

    vectors = {}
    for acct in included:
        entries = {
            term_ids[value]: tfidf_weight(tf, df[value], n_docs)
            for value, tf in counts[acct].items()
        }
        vectors[acct] = SparseVector(entries)
    return vectors


# ---------------------------------------------------------------------------
# Candidate-pair similarity via the accumulation kernel
# ---------------------------------------------------------------------------


def candidate_pair_similarities(
    vectors: dict[str, SparseVector], selector=None
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Cosine similarity for the account pairs sharing a stored term.

    Returns (keys, sims, accounts): accounts are the vectors' ids with a
    nonzero norm, sorted; keys are the kernel's int64 pair keys
    (a << 32) | b over indices into accounts, a < b, ascending; sims are
    the aligned cosines clipped to [0, 1]. Pairs sharing no term have
    similarity zero and are not generated. Callers decode only the pairs
    they keep (see _edges_from_pairs).

    Without a selector every candidate pair is returned. With one
    (AboveThreshold, TopFraction), the kernel runs once per block
    function selector.passes() yields, each row block's (keys, clipped
    sims) going through it, and the result is selector.kept() of the
    last run's output; memory is then O(kept + one block).

    Weights are unit-normalized before the term-at-a-time accumulation
    kernel runs, so accumulated dots are the cosines.
    """
    accounts = sorted(acct for acct, vec in vectors.items() if vec.norm > 0.0)
    if len(accounts) < 2:
        return _no_pairs() + (accounts,)

    # Postings: flatten each vector's (ascending) entries in account
    # order, then a stable sort by term keeps accounts ascending within
    # each term.
    vecs = [vectors[acct] for acct in accounts]
    lengths = np.fromiter((len(v.entries) for v in vecs), dtype=np.int64, count=len(vecs))
    nnz = int(lengths.sum())
    terms = np.fromiter(
        itertools.chain.from_iterable(v.entries for v in vecs), dtype=np.int64, count=nnz
    )
    weights = np.fromiter(
        itertools.chain.from_iterable(v.entries.values() for v in vecs),
        dtype=np.float64,
        count=nnz,
    )
    inv_norms = 1.0 / np.fromiter((v.norm for v in vecs), dtype=np.float64, count=len(vecs))
    weights *= np.repeat(inv_norms, lengths)
    order = np.argsort(terms, kind="stable")
    acct_idx = np.repeat(np.arange(len(accounts), dtype=np.int32), lengths)[order]
    weights = weights[order]
    _, counts = np.unique(terms, return_counts=True)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    if selector is None:
        keys, dots = kernels.accumulate_pair_products(offsets, acct_idx, weights)
        return keys, np.clip(dots, 0.0, 1.0), accounts
    for block in selector.passes():
        keys, sims = kernels.accumulate_pair_products(
            offsets, acct_idx, weights,
            select=lambda keys, dots, block=block: block(keys, np.clip(dots, 0.0, 1.0)),
        )
    return selector.kept(keys, sims) + (accounts,)


def _no_pairs() -> tuple[np.ndarray, np.ndarray]:
    """New empty (keys, sims) arrays."""
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)


class AboveThreshold:
    """Selector keeping the pairs whose similarity strictly exceeds
    threshold, in one kernel pass. candidates counts every pair seen."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.candidates = 0

    def passes(self):
        yield self._select

    def _select(self, keys, sims):
        self.candidates += len(keys)
        keep = sims > self.threshold
        return keys[keep], sims[keep]

    def kept(self, keys, sims):
        return keys, sims


class TopFraction:
    """Selector keeping the pairs at or above the nearest-rank cutoff,
    the k-th largest similarity over all m candidate pairs, in two
    kernel passes.

    Pass 1 counts the candidates m, which gives k = max(1, ceil(frac·m)).
    Pass 2 pools each block's pairs; whenever the pool outgrows twice
    what it held after its last cut (and 2k), it is cut to the pairs at
    or above its k-th largest similarity, ties included. That value never
    exceeds the k-th largest over all candidates, so the pool keeps every
    pair at or above the cutoff, and its own k-th largest at the end is
    the cutoff. Blocks arrive in key order and masks keep order, so the
    pool stays in key order. k is 0 when there are no candidates.
    """

    def __init__(self, frac: float):
        self.frac = frac
        self.candidates = 0
        self.k = 0
        self._keys: list[np.ndarray] = []
        self._sims: list[np.ndarray] = []
        self._size = 0
        self._limit = 0
        self._floor = -math.inf

    def passes(self):
        yield self._count
        if self.candidates:
            self.k = max(1, math.ceil(self.frac * self.candidates))
            self._limit = 2 * self.k
            yield self._pool

    def _count(self, keys, sims):
        self.candidates += len(keys)
        return _no_pairs()

    def _pool(self, keys, sims):
        keep = sims >= self._floor
        self._keys.append(keys[keep])
        self._sims.append(sims[keep])
        self._size += len(self._keys[-1])
        if self._size > self._limit:
            self._cut()
        return _no_pairs()

    def _cut(self):
        """Cut the pool to the pairs at or above its k-th largest."""
        keys, sims = np.concatenate(self._keys), np.concatenate(self._sims)
        self._floor = _kth_largest(sims, self.k)
        keep = sims >= self._floor
        self._keys, self._sims = [keys[keep]], [sims[keep]]
        self._size = len(self._keys[0])
        self._limit = 2 * max(self.k, self._size)

    def kept(self, keys, sims):
        if not self.k:
            return keys, sims
        self._cut()
        return self._keys[0], self._sims[0]


def _edges_from_pairs(
    keys: np.ndarray, sims: np.ndarray, accounts: list[str], detector: str
) -> EdgeTable:
    """Kept pair keys as edges with evidence "cosine".

    Keys ascend and accounts are sorted, so the rows are in canonical order.
    """
    n = len(keys)
    return EdgeTable(
        accounts, keys >> 32, keys & 0xFFFFFFFF, np.full(n, DETECTORS.index(detector)),
        sims, ["cosine"], np.zeros(n),
    )


def _kth_largest(sims: np.ndarray, k: int) -> float:
    """The k-th largest of sims, 1 <= k <= sims.size."""
    m = sims.size
    return float(np.partition(sims, m - k)[m - k])


# Diagnostics of the vector detectors that detect_all adds to counts.
VECTOR_COUNTS = ("docs_retweet", "docs_time", "candidates_retweet", "candidates_time", "retweet_k")


def detect_retweet_coordination(
    corpus: Corpus, cfg: DetectorConfig = DetectorConfig(), counts: dict | None = None
) -> tuple[EdgeTable, set[str]]:
    """Flag the top retweet_top_frac fraction of candidate-pair cosines.

    The quantile is taken over candidate pairs (those sharing at least
    one retweeted id); boundary ties are all included. counts, when
    given, receives docs_retweet, candidates_retweet and retweet_k (the
    cutoff's rank among the candidates).
    """
    vectors = build_account_vectors(corpus, "retweeted_id", cfg)
    top = TopFraction(cfg.retweet_top_frac)
    keys, sims, accounts = candidate_pair_similarities(vectors, top)
    if counts is not None:
        counts.update(docs_retweet=len(vectors), candidates_retweet=top.candidates, retweet_k=top.k)
    edges = _edges_from_pairs(keys, sims, accounts, "retweet")
    return edges, edges.endpoints()


def detect_time_coordination(
    corpus: Corpus, cfg: DetectorConfig = DetectorConfig(), counts: dict | None = None
) -> tuple[EdgeTable, set[str]]:
    """Flag candidate pairs whose time-bin cosine strictly exceeds the
    configured threshold. counts, when given, receives docs_time and
    candidates_time."""
    vectors = build_account_vectors(corpus, "time_bin", cfg)
    above = AboveThreshold(cfg.time_threshold)
    keys, sims, accounts = candidate_pair_similarities(vectors, above)
    if counts is not None:
        counts.update(docs_time=len(vectors), candidates_time=above.candidates)
    edges = _edges_from_pairs(keys, sims, accounts, "time")
    return edges, edges.endpoints()


def detect_all(
    corpus: Corpus,
    cfg: DetectorConfig = DetectorConfig(),
    enabled: Iterable[str] = DETECTORS,
    counts: dict | None = None,
) -> dict[str, tuple[EdgeTable, set[str]]]:
    """Run the enabled detectors; disabled ones yield empty results.

    counts, when given, receives every VECTOR_COUNTS key, 0 for a
    disabled detector.
    """
    enabled = set(enabled)
    unknown = enabled - set(DETECTORS)
    if unknown:
        raise ValueError(f"unknown detectors: {sorted(unknown)}")
    if counts is not None:
        counts.update(dict.fromkeys(VECTOR_COUNTS, 0))
    out: dict[str, tuple[EdgeTable, set[str]]] = {}
    for name in DETECTORS:
        if name not in enabled:
            out[name] = (EdgeTable.empty(), set())
        elif name == "hashtag":
            edges = detect_hashtag_coordination(corpus, cfg)
            out[name] = (edges, edges.endpoints())
        elif name == "retweet":
            out[name] = detect_retweet_coordination(corpus, cfg, counts)
        else:
            out[name] = detect_time_coordination(corpus, cfg, counts)
    return out
