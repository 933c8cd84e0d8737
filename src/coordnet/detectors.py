"""Coordination detectors: shared hashtag sequences, retweet and
tweet-time similarity.

All three detectors generate candidate pairs through inverted indexes
(never all-pairs scans) and emit canonical, deduplicated, sorted edge
lists, so output is identical for any input record order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from coordnet import kernels
from coordnet.corpus import Corpus, TweetRecord

HASHTAG_SEPARATOR = "|"

DETECTORS = ("hashtag", "retweet", "time")


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable thresholds for the three detectors."""

    hashtag_k: int = 5
    retweet_top_frac: float = 0.005
    retweet_min: int = 10
    time_bin_minutes: int = 30
    time_threshold: float = 0.99
    time_min: int = 10

    def validate(self) -> None:
        if self.hashtag_k < 2:
            raise ValueError("hashtag_k must be >= 2")
        if not 0.0 < self.retweet_top_frac < 1.0:
            raise ValueError("retweet_top_frac must be in (0, 1)")
        if not 0.0 < self.time_threshold <= 1.0:
            raise ValueError("time_threshold must be in (0, 1]")
        if self.retweet_min < 1 or self.time_min < 1:
            raise ValueError("eligibility minima must be >= 1")
        if self.time_bin_minutes < 1:
            raise ValueError("time_bin_minutes must be >= 1")


@dataclass(frozen=True, slots=True)
class CoordinationEdge:
    """Undirected evidence link between two accounts (a < b)."""

    a: str
    b: str
    detector: str
    score: float
    evidence: str

    def __post_init__(self):
        if self.a >= self.b:
            raise ValueError("edge endpoints must satisfy a < b")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("edge score must be in [0, 1]")

    @classmethod
    def canonical(cls, x: str, y: str, detector: str, score: float, evidence: str):
        if x == y:
            raise ValueError("self-edges are not allowed")
        a, b = (x, y) if x < y else (y, x)
        return cls(a, b, detector, score, evidence)

    def sort_key(self):
        return (self.a, self.b, self.detector, self.evidence)


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


def hashtag_key_set(tweet: TweetRecord, k: int) -> set[str]:
    """All contiguous length-k windows over the tweet's ordered hashtags.

    Tags are joined with HASHTAG_SEPARATOR; empty when the tweet has
    fewer than k hashtags. Callers pass original tweets only.
    """
    tags = tweet.hashtags
    if len(tags) < k:
        return set()
    return {HASHTAG_SEPARATOR.join(tags[i : i + k]) for i in range(len(tags) - k + 1)}


def hashtag_account_index(
    records: Iterable[TweetRecord], k: int
) -> dict[str, set[str]]:
    """Inverted index: hashtag k-gram key -> accounts that posted it.

    Streams its input; the working set is the index itself, so this is
    the bounded-memory path for large corpora.
    """
    index: dict[str, set[str]] = {}
    for rec in records:
        if rec.kind != "original" or len(rec.hashtags) < k:
            continue
        for key in hashtag_key_set(rec, k):
            index.setdefault(key, set()).add(rec.account_id)
    return index


def edges_from_hashtag_index(index: dict[str, set[str]]) -> list[CoordinationEdge]:
    edges = []
    for key in sorted(index):
        accounts = sorted(index[key])
        if len(accounts) < 2:
            continue
        for i, a in enumerate(accounts):
            for b in accounts[i + 1 :]:
                edges.append(CoordinationEdge(a, b, "hashtag", 1.0, key))
    edges.sort(key=CoordinationEdge.sort_key)
    return edges


def detect_hashtag_coordination(
    corpus: Corpus, cfg: DetectorConfig = DetectorConfig()
) -> list[CoordinationEdge]:
    """Edges between accounts sharing an original-tweet hashtag k-gram."""
    return detect_hashtag_stream(corpus.records, cfg)


def detect_hashtag_stream(
    records: Iterable[TweetRecord], cfg: DetectorConfig = DetectorConfig()
) -> list[CoordinationEdge]:
    cfg.validate()
    return edges_from_hashtag_index(hashtag_account_index(records, cfg.hashtag_k))


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
    cfg.validate()
    if term not in ("retweeted_id", "time_bin"):
        raise ValueError(f"unknown term kind: {term!r}")

    counts: dict[str, dict] = {}
    totals: dict[str, int] = {}
    bin_seconds = cfg.time_bin_minutes * 60
    for rec in corpus.records:
        if term == "retweeted_id":
            if rec.kind != "retweet":
                continue
            value = rec.retweeted_tweet_id
        else:
            value = rec.timestamp // bin_seconds
        totals[rec.account_id] = totals.get(rec.account_id, 0) + 1
        per = counts.setdefault(rec.account_id, {})
        per[value] = per.get(value, 0) + 1

    minimum = cfg.retweet_min if term == "retweeted_id" else cfg.time_min
    included = sorted(acct for acct, total in totals.items() if total > minimum)
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
    vectors: dict[str, SparseVector]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Cosine similarity for every account pair sharing a stored term.

    Returns (keys, sims, accounts): accounts are the vectors' ids with a
    nonzero norm, sorted; keys are the kernel's int64 pair keys
    (a << 32) | b over indices into accounts, a < b, ascending; sims are
    the aligned cosines clipped to [0, 1]. Pairs sharing no term have
    similarity zero and are not generated. Callers threshold on the
    arrays and decode only the pairs they keep (see _edges_from_pairs).

    Weights are unit-normalized before the term-at-a-time accumulation
    kernel runs, so accumulated dots are the cosines.
    """
    accounts = sorted(acct for acct, vec in vectors.items() if vec.norm > 0.0)
    if len(accounts) < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), accounts

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
    _, counts = np.unique(terms, return_counts=True)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    keys, dots = kernels.accumulate_pair_products(offsets, acct_idx, weights[order])
    return keys, np.clip(dots, 0.0, 1.0), accounts


def _edges_from_pairs(
    keys: np.ndarray, sims: np.ndarray, accounts: list[str], detector: str
) -> list[CoordinationEdge]:
    """Decode kept pair keys into edges, in canonical order.

    Keys ascend and accounts are sorted, so the edges come out sorted.
    """
    return [
        CoordinationEdge(accounts[key >> 32], accounts[key & 0xFFFFFFFF], detector, s, "cosine")
        for key, s in zip(keys.tolist(), sims.tolist())
    ]


def top_fraction_cutoff(sims: np.ndarray, top_frac: float) -> float:
    """Nearest-rank cutoff: the ceil(top_frac * m)-th largest similarity."""
    m = sims.size
    k = max(1, math.ceil(top_frac * m))
    return float(np.partition(sims, m - k)[m - k])


def detect_retweet_coordination(
    corpus: Corpus, cfg: DetectorConfig = DetectorConfig()
) -> tuple[list[CoordinationEdge], set[str]]:
    """Flag the top retweet_top_frac fraction of candidate-pair cosines.

    The quantile is taken over candidate pairs (those sharing at least
    one retweeted id); boundary ties are all included.
    """
    cfg.validate()
    vectors = build_account_vectors(corpus, "retweeted_id", cfg)
    keys, sims, accounts = candidate_pair_similarities(vectors)
    if not len(keys):
        return [], set()
    keep = sims >= top_fraction_cutoff(sims, cfg.retweet_top_frac)
    edges = _edges_from_pairs(keys[keep], sims[keep], accounts, "retweet")
    return edges, _endpoints(edges)


def detect_time_coordination(
    corpus: Corpus, cfg: DetectorConfig = DetectorConfig()
) -> tuple[list[CoordinationEdge], set[str]]:
    """Flag candidate pairs whose time-bin cosine strictly exceeds the
    configured threshold."""
    cfg.validate()
    vectors = build_account_vectors(corpus, "time_bin", cfg)
    keys, sims, accounts = candidate_pair_similarities(vectors)
    keep = sims > cfg.time_threshold
    edges = _edges_from_pairs(keys[keep], sims[keep], accounts, "time")
    return edges, _endpoints(edges)


def _endpoints(edges: Iterable[CoordinationEdge]) -> set[str]:
    flagged = set()
    for edge in edges:
        flagged.add(edge.a)
        flagged.add(edge.b)
    return flagged


def detect_all(
    corpus: Corpus,
    cfg: DetectorConfig = DetectorConfig(),
    enabled: Iterable[str] = DETECTORS,
) -> dict[str, tuple[list[CoordinationEdge], set[str]]]:
    """Run the enabled detectors; disabled ones yield empty results."""
    enabled = set(enabled)
    unknown = enabled - set(DETECTORS)
    if unknown:
        raise ValueError(f"unknown detectors: {sorted(unknown)}")
    out: dict[str, tuple[list[CoordinationEdge], set[str]]] = {}
    for name in DETECTORS:
        if name not in enabled:
            out[name] = ([], set())
        elif name == "hashtag":
            edges = detect_hashtag_coordination(corpus, cfg)
            out[name] = (edges, _endpoints(edges))
        elif name == "retweet":
            out[name] = detect_retweet_coordination(corpus, cfg)
        else:
            out[name] = detect_time_coordination(corpus, cfg)
    return out
