"""Coordination detectors: shared hashtag sequences, retweet and
tweet-time similarity.

All three detectors generate candidate pairs through inverted indexes
(never all-pairs scans) and emit canonical, deduplicated, sorted edge
tables, so output is identical for any input record order.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from coordnet import kernels
from coordnet.config import DETECTORS, DetectorConfig, detector_set
from coordnet.corpus import HASHTAG_SEPARATOR, ORIGINAL, RETWEET, Corpus
from coordnet.formats import EdgeTable


@dataclass(eq=False)
class AccountVectors(Mapping):
    """The eligible accounts' TF-IDF vectors as one CSR matrix.

    accounts maps each account id to its row r, ids ascending with r,
    zero-norm rows included: dense term ids terms[indptr[r]:indptr[r + 1]],
    ascending, with their nonzero weights, and the row's Euclidean norm
    norms[r], zero only for an empty row. As a read-only Mapping, an
    account id maps to its row's term ids.
    """

    accounts: dict[str, int]
    indptr: np.ndarray
    terms: np.ndarray
    weights: np.ndarray
    norms: np.ndarray

    def __getitem__(self, account: str) -> np.ndarray:
        r = self.accounts[account]
        return self.terms[self.indptr[r] : self.indptr[r + 1]]

    def __iter__(self):
        return iter(self.accounts)

    def __len__(self) -> int:
        return len(self.accounts)


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
    canonical order. The int32 columns a, b and evidence are allocated
    once, C(m, 2) rows per key shared by m accounts, and filled a group
    size at a time: for every group of that size at once, member i's
    pairs with the members after it are a slice of each group's rows.
    The rows are then ordered by one lexsort and gathered a column at a
    time, so the peak is the three columns, the int64 order and one
    gathered column, ~24 B per row; detector and score are made after
    the order is freed.
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
    n = int((sizes * (sizes - 1) // 2).sum())
    a, b, evidence = (np.empty(n, dtype=np.int32) for _ in range(3))
    lo = 0
    # sorted(set()), not np.unique, which imports numpy.ma
    for m in sorted(set(sizes.tolist())):
        groups = np.flatnonzero(sizes == m)
        block = members[starts[groups, None] + np.arange(m)]  # rows ascend
        hi = lo + len(groups) * (m * (m - 1) // 2)
        _fill_pairs(block, a[lo:hi], b[lo:hi])
        evidence[lo:hi].reshape(len(groups), -1)[:] = groups[:, None]
        lo = hi
    order = np.lexsort((evidence, b, a))
    a = a[order]
    b = b[order]
    evidence = evidence[order]
    del order
    return EdgeTable(
        accounts, a, b, np.full(n, DETECTORS.index("hashtag"), dtype=np.int8),
        np.ones(n), keys, evidence,
    )


def _fill_pairs(block: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Write the member pairs (i < j, in (i, j) order) of each row of
    block, a row after another, into a and b."""
    m = block.shape[1]
    a, b = a.reshape(len(block), -1), b.reshape(len(block), -1)
    lo = 0
    for i in range(m - 1):
        hi = lo + m - 1 - i
        a[:, lo:hi] = block[:, i, None]
        b[:, lo:hi] = block[:, i + 1 :]
        lo = hi


def detect_hashtag_coordination(
    corpus: Corpus, cfg: DetectorConfig = DetectorConfig()
) -> EdgeTable:
    """Edges between accounts sharing an original-tweet hashtag k-gram."""
    names, lists = corpus.account_ids, corpus.hashtags
    windowed = [len(tags) >= cfg.hashtag_k for tags in lists]
    # each distinct (account, hashtag list) with a k-gram, indexed once
    posts = dict.fromkeys(
        (code, tags)
        for code, kind, tags in zip(corpus.account_codes, corpus.kinds, corpus.hashtag_codes)
        if kind == ORIGINAL and windowed[tags]
    )
    index = _index_posts(((names[code], lists[tags]) for code, tags in posts), cfg.hashtag_k)
    del posts  # freed before the edge build
    return edges_from_hashtag_index(index)


# ---------------------------------------------------------------------------
# TF-IDF account vectors (retweet-identity and time-bin terms)
# ---------------------------------------------------------------------------


def build_account_vectors(
    corpus: Corpus, term: str, cfg: DetectorConfig = DetectorConfig()
) -> AccountVectors:
    """Per-account TF-IDF vectors over retweeted ids or time bins.

    term="retweeted_id": documents are accounts with more than
    cfg.retweet_min retweets; terms are the ids they retweet, numbered
    in string order.
    term="time_bin": documents are accounts with more than cfg.time_min
    tweets of any kind; terms are timestamp // (time_bin_minutes * 60).
    Document frequencies count included accounts only. An entry weighs
    tf * ln((1 + n_docs) / (1 + df)); zero weights are not stored.
    """
    if term not in ("retweeted_id", "time_bin"):
        raise ValueError(f"unknown term kind: {term!r}")

    names = corpus.account_ids
    codes = np.asarray(corpus.account_codes)
    if term == "retweeted_id":
        retweets = np.asarray(corpus.kinds) == RETWEET
        eligible = np.bincount(codes[retweets], minlength=len(names)) > cfg.retweet_min
        kept = eligible[codes] & retweets
        targets = np.asarray(corpus.retweeted_tweet_codes)[kept]
        # Term ids: the targets' table entries ranked in Python's str order.
        vocab = sorted(set(targets.tolist()), key=corpus.retweeted_tweet_ids.__getitem__)
        rank = np.zeros(len(corpus.retweeted_tweet_ids), dtype=np.int64)
        rank[vocab] = np.arange(len(vocab))
        terms = rank[targets]
    else:
        eligible = np.bincount(codes, minlength=len(names)) > cfg.time_min
        kept = eligible[codes]
        bins = np.asarray(corpus.timestamps)[kept] // (cfg.time_bin_minutes * 60)
        vocab, terms = np.unique(bins, return_inverse=True)
    included = sorted(np.flatnonzero(eligible).tolist(), key=names.__getitem__)
    n_docs = len(included)
    row_of = np.zeros(len(names), dtype=np.int64)
    row_of[included] = np.arange(n_docs)

    # One entry per (row, term), in that order, with its count as tf. A
    # key row * len(vocab) + term fits int64 below 3e9 records.
    pairs, tf = np.unique(row_of[codes[kept]] * len(vocab) + terms, return_counts=True)
    rows, terms = np.divmod(pairs, len(vocab))
    df = np.bincount(terms, minlength=len(vocab))
    dfs, df_rank = np.unique(df, return_inverse=True)
    idf = np.array([math.log((1 + n_docs) / (1 + d)) for d in dfs.tolist()])
    weights = tf * idf[df_rank[terms]]
    nonzero = weights != 0.0
    rows, terms, weights = rows[nonzero], terms[nonzero], weights[nonzero]

    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_docs), out=indptr[1:])
    # bincount adds in input order, ascending terms within a row, so a
    # norm has the bits of the left-to-right sum of its squares.
    norms = np.sqrt(np.bincount(rows, weights=weights * weights, minlength=n_docs))
    accounts = {names[c]: r for r, c in enumerate(included)}
    return AccountVectors(accounts, indptr, terms, weights, norms)


# ---------------------------------------------------------------------------
# Candidate-pair similarity via the accumulation kernel
# ---------------------------------------------------------------------------


def candidate_pair_similarities(
    vectors: AccountVectors, selector
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Cosine similarity for the selected account pairs sharing a stored
    term.

    Returns (keys, sims, accounts): accounts are the vectors' ids with a
    nonzero norm, sorted; keys are the kernel's int64 pair keys
    (a << 32) | b over indices into accounts, a < b, ascending; sims are
    the aligned cosines clipped to [0, 1]. Pairs sharing no term have
    similarity zero and are not generated. Callers decode only the pairs
    they keep (see _edges_from_pairs).

    The kernel runs once. Each row block's (keys, clipped sims) goes
    through selector.select (AboveThreshold, TopFraction) with most, the
    most candidate pairs the postings can give: min(C(n, 2), P) over the
    n accounts, where P = sum_t C(len_t, 2) counts the products of the
    term postings. The result is selector.kept() of what the blocks
    kept, so memory is O(kept + one block), never the candidate list.

    Weights are unit-normalized before the term-at-a-time accumulation
    kernel runs, so accumulated dots are the cosines.
    """
    keep = vectors.norms > 0.0
    accounts = list(itertools.compress(vectors.accounts, keep))

    # Postings: only zero-norm rows are empty, so every entry is a kept
    # row's. A stable sort by term keeps accounts ascending within each
    # term.
    lengths = np.diff(vectors.indptr)[keep]
    weights = vectors.weights * np.repeat(1.0 / vectors.norms[keep], lengths)
    order = np.argsort(vectors.terms, kind="stable")
    acct_idx = np.repeat(np.arange(len(accounts), dtype=np.int32), lengths)[order]
    weights = weights[order]
    counts = np.bincount(vectors.terms)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    most = min(math.comb(len(accounts), 2), int((counts * (counts - 1) // 2).sum()))
    keys, sims = kernels.accumulate_pair_products(
        offsets, acct_idx, weights,
        select=lambda keys, dots: selector.select(keys, np.clip(dots, 0.0, 1.0), most),
    )
    return selector.kept(keys, sims) + (accounts,)


class AboveThreshold:
    """Selector keeping the pairs whose similarity strictly exceeds
    threshold. candidates counts every pair seen."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.candidates = 0

    def select(self, keys, sims, most):
        self.candidates += len(keys)
        keep = sims > self.threshold
        return keys[keep], sims[keep]

    def kept(self, keys, sims):
        return keys, sims


class TopFraction:
    """Selector keeping the pairs at or above the nearest-rank cutoff,
    the k-th largest similarity over all m candidate pairs,
    k = max(1, ceil(frac·m)), in the one kernel pass that counts m.

    select pools each block's pairs. m is not known until the pass ends,
    but it is at most the postings' most, so k is at most
    k' = max(1, ceil(frac·most)). Whenever the pool outgrows twice what
    it held after its last cut (and 2k'), it is cut to the pairs at or
    above its k'-th largest similarity, ties included. That value never
    exceeds the k'-th largest over all candidates, which never exceeds
    the k-th largest, so the pool keeps every pair at or above the
    cutoff. kept() makes a last cut at the pool's k-th largest, which is
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
        self._last_cut = 0
        self._floor = -math.inf

    def select(self, keys, sims, most):
        self.candidates += len(keys)
        keep = sims >= self._floor
        self._keys.append(keys[keep])
        self._sims.append(sims[keep])
        self._size += len(self._keys[-1])
        bound = max(1, math.ceil(self.frac * most))
        if self._size > 2 * max(bound, self._last_cut):
            self._cut(bound)
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    def _cut(self, rank: int):
        """Cut the pool to the pairs at or above its rank-th largest."""
        keys, sims = np.concatenate(self._keys), np.concatenate(self._sims)
        self._floor = _kth_largest(sims, rank)
        keep = sims >= self._floor
        self._keys, self._sims = [keys[keep]], [sims[keep]]
        self._size = self._last_cut = len(self._keys[0])

    def kept(self, keys, sims):
        if not self.candidates:
            return keys, sims
        self.k = max(1, math.ceil(self.frac * self.candidates))
        self._cut(self.k)
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
    enabled = detector_set(enabled)
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
