"""Detector contracts against brute-force all-pairs oracles."""

import itertools
import math
import random

import numpy as np
import pytest

from coordnet import kernels
from coordnet.corpus import Corpus
from coordnet.detectors import (
    CoordinationEdge,
    DetectorConfig,
    SparseVector,
    build_account_vectors,
    detect_all,
    detect_hashtag_coordination,
    detect_retweet_coordination,
    detect_time_coordination,
    hashtag_key_set,
    tfidf_weight,
    top_fraction_cutoff,
)

from helpers import BASE_TS, corpus_of, rec

# Kernel row-block sizes the equivalence tests run at: the default, one
# row per block, and a size that leaves a ragged last block.
BLOCK_SIZES = (kernels.BLOCK_ROWS, 1, 7)


def cosine(u: SparseVector, v: SparseVector) -> float:
    """dot(u, v) / (|u| |v|), clamped to [0, 1]; requires nonzero norms."""
    if u.norm == 0.0 or v.norm == 0.0:
        raise ValueError("cosine is undefined for zero-norm vectors")
    if len(v) < len(u):
        u, v = v, u
    dot = 0.0
    other = v.entries
    for term, w in u.entries.items():
        wv = other.get(term)
        if wv is not None:
            dot += w * wv
    return min(1.0, max(0.0, dot / (u.norm * v.norm)))


# ---------------------------------------------------------------------------
# Brute-force oracles (dense, all-pairs; independent of the inverted index)
# ---------------------------------------------------------------------------


def oracle_hashtag_pairs(corpus, k):
    """Pairwise 5-gram set intersection over all account pairs."""
    grams = {}
    for r in corpus.records:
        if r.kind != "original":
            continue
        keys = {"|".join(r.hashtags[i : i + k]) for i in range(len(r.hashtags) - k + 1)}
        grams.setdefault(r.account_id, set()).update(keys)
    flagged = set()
    for a, b in itertools.combinations(sorted(grams), 2):
        if grams[a] & grams[b]:
            flagged.add((a, b))
    return flagged


def oracle_vector_pairs(corpus, term, cfg):
    """Dense TF-IDF matrix + all-pairs cosine, thresholded per detector."""
    counts = {}
    totals = {}
    for r in corpus.records:
        if term == "retweeted_id":
            if r.kind != "retweet":
                continue
            value = r.retweeted_tweet_id
        else:
            value = r.timestamp // (cfg.time_bin_minutes * 60)
        totals[r.account_id] = totals.get(r.account_id, 0) + 1
        counts.setdefault(r.account_id, {}).setdefault(value, 0)
        counts[r.account_id][value] += 1
    minimum = cfg.retweet_min if term == "retweeted_id" else cfg.time_min
    accounts = sorted(a for a, t in totals.items() if t > minimum)
    if len(accounts) < 2:
        return set()
    terms = sorted({v for a in accounts for v in counts[a]})
    t_index = {v: i for i, v in enumerate(terms)}
    df = {v: sum(1 for a in accounts if v in counts[a]) for v in terms}
    n = len(accounts)
    dense = np.zeros((n, len(terms)))
    for i, a in enumerate(accounts):
        for v, tf in counts[a].items():
            dense[i, t_index[v]] = tf * math.log((1 + n) / (1 + df[v]))
    norms = np.linalg.norm(dense, axis=1)
    keep = norms > 0
    sims = {}
    for i, j in itertools.combinations(range(n), 2):
        if not (keep[i] and keep[j]):
            continue
        s = float(dense[i] @ dense[j]) / (norms[i] * norms[j])
        if s > 0:
            sims[(accounts[i], accounts[j])] = s
    if not sims:
        return set()
    if term == "retweeted_id":
        values = sorted(sims.values(), reverse=True)
        cutoff = values[max(1, math.ceil(cfg.retweet_top_frac * len(values))) - 1]
        return {pair for pair, s in sims.items() if s >= cutoff}
    return {pair for pair, s in sims.items() if s > cfg.time_threshold}


def random_corpus(rnd, n_accounts=40):
    """Randomized mixed-activity corpus for oracle equivalence runs."""
    records = []
    tid = 0
    popular_tweets = [f"pop{i}" for i in range(12)]
    tag_pool = [f"tag{i}" for i in range(8)]
    for a in range(n_accounts):
        account = f"acct{a:03d}"
        profile = rnd.random()
        for _ in range(rnd.randint(0, 30)):
            tid += 1
            ts = BASE_TS + rnd.randint(0, 80) * 1800 + rnd.randint(0, 1799)
            kind = rnd.choice(["original", "original", "reply", "retweet"])
            if kind == "retweet":
                # skewed targets so some accounts share retweet profiles
                target = popular_tweets[int(profile * 4) + rnd.randint(0, 7)]
                records.append(rec(tid, account, ts, "retweet", rt_id=target))
            elif kind == "original" and rnd.random() < 0.5:
                k = rnd.randint(0, 7)
                tags = [rnd.choice(tag_pool) for _ in range(k)]
                records.append(rec(tid, account, ts, "original", hashtags=tags))
            else:
                records.append(rec(tid, account, ts, kind))
    rnd.shuffle(records)
    return corpus_of(*records)


# ---------------------------------------------------------------------------
# Unit pieces
# ---------------------------------------------------------------------------


class TestHashtagKeySet:
    def test_single_window(self):
        t = rec(1, "a", hashtags=["a", "b", "c", "d", "e"])
        assert hashtag_key_set(t, 5) == {"a|b|c|d|e"}

    def test_two_windows(self):
        t = rec(1, "a", hashtags=["a", "b", "c", "d", "e", "f"])
        assert hashtag_key_set(t, 5) == {"a|b|c|d|e", "b|c|d|e|f"}

    def test_below_threshold(self):
        t = rec(1, "a", hashtags=["a", "b", "c"])
        assert hashtag_key_set(t, 5) == set()


class TestTfidfWeight:
    def test_single_doc_degenerate(self):
        assert tfidf_weight(1, 1, 1) == 0.0

    def test_hand_arithmetic(self):
        assert tfidf_weight(2, 1, 3) == 2 * math.log(2)
        assert abs(tfidf_weight(2, 1, 3) - 1.386294) < 1e-6

    def test_ubiquitous_term(self):
        assert tfidf_weight(1, 100, 100) == 0.0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            tfidf_weight(0, 1, 1)
        with pytest.raises(ValueError):
            tfidf_weight(1, 0, 1)
        with pytest.raises(ValueError):
            tfidf_weight(1, 3, 2)


class TestCosine:
    def test_identity(self):
        v = SparseVector({1: 0.3, 5: 1.2, 9: 0.01})
        assert abs(cosine(v, v) - 1.0) < 1e-12

    def test_disjoint_supports(self):
        assert cosine(SparseVector({1: 1.0}), SparseVector({2: 1.0})) == 0.0

    def test_hand_arithmetic(self):
        u = SparseVector({1: 1.0, 2: 1.0})
        v = SparseVector({1: 1.0})
        assert abs(cosine(u, v) - 1 / math.sqrt(2)) < 1e-12

    def test_symmetry(self):
        rnd = random.Random(2)
        for _ in range(50):
            u = SparseVector({t: rnd.random() for t in rnd.sample(range(20), 6)})
            v = SparseVector({t: rnd.random() for t in rnd.sample(range(20), 9)})
            assert abs(cosine(u, v) - cosine(v, u)) < 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine(SparseVector({}), SparseVector({1: 1.0}))

    def test_zero_entries_dropped_and_norm_cached(self):
        v = SparseVector({1: 0.0, 2: 3.0, 3: 4.0})
        assert set(v.entries) == {2, 3}
        assert abs(v.norm - 5.0) < 1e-9 * 5.0


class TestBuildAccountVectors:
    def test_eligibility_strictly_more_than_min(self):
        records = [
            rec(f"a{i}", "ten", kind="retweet", rt_id="x") for i in range(10)
        ] + [rec(f"b{i}", "eleven", kind="retweet", rt_id="x") for i in range(11)]
        vectors = build_account_vectors(corpus_of(*records), "retweeted_id")
        assert "ten" not in vectors
        assert "eleven" in vectors

    def test_tf_counts_repeat_retweets(self):
        records = [rec(i, "a", kind="retweet", rt_id="same") for i in range(11)]
        vectors = build_account_vectors(corpus_of(*records), "retweeted_id")
        # single included account: df = n_docs = 1 -> weight ln(2/2) = 0
        assert len(vectors["a"]) == 0

    def test_time_bins_split_on_boundary(self):
        # "a" tweets in one bin; "b" elsewhere keeps df < n_docs
        records = [rec(i, "a", BASE_TS, "original") for i in range(11)]
        records += [rec(100 + i, "b", BASE_TS + 86400, "original") for i in range(11)]
        corpus = corpus_of(
            *records,
            rec(200, "c", BASE_TS + 600, "original"),  # 00:10 within bin
            rec(201, "c", BASE_TS + 2400, "original"),  # 00:40 -> next bin
        )
        vectors = build_account_vectors(corpus, "time_bin")
        assert "c" not in vectors  # only 2 tweets
        bins_a = set(vectors["a"].entries)
        assert len(bins_a) == 1

    def test_two_bins_for_ten_forty(self):
        mk = [rec(i, "a", BASE_TS + (600 if i % 2 else 2400), "original") for i in range(11)]
        mk += [rec(100 + i, "b", BASE_TS + 86400, "original") for i in range(11)]
        vectors = build_account_vectors(corpus_of(*mk), "time_bin")
        assert len(vectors["a"].entries) == 2


class TestKernelBackends:
    @staticmethod
    def _random_postings(rnd, n_accounts=60, n_terms=40, max_len=8, stride=1):
        offsets = [0]
        accounts = []
        weights = []
        for _ in range(n_terms):
            members = sorted(rnd.sample(range(n_accounts), rnd.randint(0, max_len)))
            accounts.extend(m * stride for m in members)
            weights.extend(rnd.random() for _ in members)
            offsets.append(len(accounts))
        return (
            np.array(offsets, dtype=np.int64),
            np.array(accounts, dtype=np.int32),
            np.array(weights, dtype=np.float64),
        )

    def test_backends_bitwise_identical(self, monkeypatch):
        rnd = random.Random(77)
        default = kernels.get_backend("python")
        reference = kernels.get_backend("reference")
        cases = [self._random_postings(rnd) for _ in range(20)]
        # more than 4096 accounts: many blocks at any block size
        cases += [self._random_postings(rnd, 9000, 3000, 30) for _ in range(2)]
        # account indices with gaps
        cases.append(self._random_postings(rnd, 200, 80, 12, stride=7))
        # single-member postings only
        cases.append(self._random_postings(rnd, 50, 30, 1))
        # all postings empty
        cases.append(self._random_postings(rnd, 50, 30, 0))
        expected = [reference(*case) for case in cases]
        # every block edge and column offset, not only the default's
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
            for case, (k2, d2) in zip(cases, expected):
                k1, d1 = default(*case)
                assert k1.dtype == k2.dtype and d1.dtype == d2.dtype
                assert np.array_equal(k1, k2)
                # bitwise: same add order, no fma
                assert np.array_equal(d1.view(np.int64), d2.view(np.int64))

    def test_get_backend_survives_rebinding(self, monkeypatch):
        default = kernels.get_backend("python")
        reference = kernels.get_backend("reference")
        monkeypatch.setattr(kernels, "accumulate_pair_products", lambda *a: None)
        assert kernels.get_backend("python") is default
        assert kernels.get_backend("reference") is reference
        assert kernels.available_backends() == ["python", "reference"]

    def test_python_backend_matches_dense_accumulation(self):
        rnd = random.Random(78)
        python = kernels.get_backend("python")
        offsets, accounts, weights = self._random_postings(rnd, n_accounts=20, n_terms=15)
        keys, dots = python(offsets, accounts, weights)
        dense = np.zeros((20, 15))
        for t in range(15):
            for p in range(offsets[t], offsets[t + 1]):
                dense[accounts[p], t] = weights[p]
        got = {(int(k) >> 32, int(k) & 0xFFFFFFFF): d for k, d in zip(keys, dots)}
        for i, j in itertools.combinations(range(20), 2):
            expected = float(dense[i] @ dense[j])
            if (i, j) in got:
                assert abs(got[(i, j)] - expected) < 1e-12
            else:
                assert expected == 0.0

    def test_empty_postings(self):
        python = kernels.get_backend("python")
        keys, dots = python(
            np.array([0], dtype=np.int64),
            np.array([], dtype=np.int32),
            np.array([], dtype=np.float64),
        )
        assert keys.size == 0 and dots.size == 0


# ---------------------------------------------------------------------------
# Detectors end to end
# ---------------------------------------------------------------------------


class TestHashtagDetector:
    def test_two_accounts_one_edge(self):
        corpus = corpus_of(
            rec(1, "x", hashtags=["a", "b", "c", "d", "e"]),
            rec(2, "y", hashtags=["a", "b", "c", "d", "e"]),
        )
        edges = detect_hashtag_coordination(corpus)
        assert edges == [CoordinationEdge("x", "y", "hashtag", 1.0, "a|b|c|d|e")]

    def test_same_account_twice_no_edge(self):
        corpus = corpus_of(
            rec(1, "x", hashtags=["a", "b", "c", "d", "e"]),
            rec(2, "x", hashtags=["a", "b", "c", "d", "e"]),
        )
        assert detect_hashtag_coordination(corpus) == []

    def test_retweets_do_not_participate(self):
        corpus = corpus_of(
            rec(1, "x", hashtags=["a", "b", "c", "d", "e"]),
            rec(2, "y", kind="retweet", rt_id="1", hashtags=["a", "b", "c", "d", "e"]),
        )
        assert detect_hashtag_coordination(corpus) == []

    def test_planted_keys_edge_counts(self):
        # 3 accounts share K1, 2 accounts share K2, disjoint -> 3 + 1 edges
        k1 = ["k", "l", "m", "n", "o"]
        k2 = ["p", "q", "r", "s", "t"]
        corpus = corpus_of(
            rec(1, "a1", hashtags=k1),
            rec(2, "a2", hashtags=k1),
            rec(3, "a3", hashtags=k1),
            rec(4, "b1", hashtags=k2),
            rec(5, "b2", hashtags=k2),
        )
        edges = detect_hashtag_coordination(corpus)
        assert len(edges) == 4
        pairs = {(e.a, e.b) for e in edges}
        assert pairs == oracle_hashtag_pairs(corpus, 5)

    def test_matches_oracle_randomized(self):
        rnd = random.Random(101)
        for trial in range(10):
            corpus = random_corpus(rnd, n_accounts=25)
            edges = detect_hashtag_coordination(corpus)
            pairs = {(e.a, e.b) for e in edges}
            assert pairs == oracle_hashtag_pairs(corpus, 5)

    def test_monotone_in_k(self):
        rnd = random.Random(55)
        for _ in range(5):
            corpus = random_corpus(rnd, n_accounts=20)
            pairs_by_k = []
            for k in (3, 4, 5, 6):
                cfg = DetectorConfig(hashtag_k=k)
                pairs_by_k.append({(e.a, e.b) for e in detect_hashtag_coordination(corpus, cfg)})
            for smaller, larger in zip(pairs_by_k[1:], pairs_by_k[:-1]):
                assert smaller <= larger


class TestRetweetDetector:
    def test_fewer_than_two_eligible(self):
        records = [rec(i, "only", kind="retweet", rt_id=f"t{i}") for i in range(15)]
        edges, flagged = detect_retweet_coordination(corpus_of(*records))
        assert edges == [] and flagged == set()

    def test_single_similar_pair_flagged(self):
        records = []
        tid = 0
        # x and y retweet the same ids; z retweets disjoint ids
        for i in range(12):
            for account in ("x", "y"):
                tid += 1
                records.append(rec(tid, account, kind="retweet", rt_id=f"shared{i}"))
            tid += 1
            records.append(rec(tid, "z", kind="retweet", rt_id=f"solo{i}"))
        edges, flagged = detect_retweet_coordination(
            corpus_of(*records), DetectorConfig(retweet_top_frac=0.5)
        )
        assert flagged == {"x", "y"}
        assert len(edges) == 1
        assert edges[0].evidence == "cosine"

    def test_identical_profiles_always_flagged(self):
        rnd = random.Random(3)
        records = []
        tid = 0
        for account in ("x", "y"):
            for i in range(11):
                tid += 1
                records.append(rec(tid, account, kind="retweet", rt_id=f"t{i % 4}"))
        # noise accounts with partially overlapping profiles
        for a in range(8):
            for i in range(11):
                tid += 1
                records.append(
                    rec(tid, f"n{a}", kind="retweet", rt_id=f"t{rnd.randint(0, 9)}")
                )
        edges, flagged = detect_retweet_coordination(corpus_of(*records))
        assert {"x", "y"} <= flagged

    def test_matches_oracle_randomized(self, monkeypatch):
        rnd = random.Random(7)
        cfg = DetectorConfig(retweet_top_frac=0.1)
        for _ in range(10):
            corpus = random_corpus(rnd)
            oracle = oracle_vector_pairs(corpus, "retweeted_id", cfg)
            for block_rows in BLOCK_SIZES:
                monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
                edges, _ = detect_retweet_coordination(corpus, cfg)
                assert {(e.a, e.b) for e in edges} == oracle


class TestTimeDetector:
    def test_identical_time_profiles(self):
        # background accounts keep the shared bins below df = n_docs
        # (ubiquitous terms weigh zero under the frozen TF-IDF)
        records = []
        tid = 0
        for account in ("x", "y"):
            for i in range(11):
                tid += 1
                records.append(rec(tid, account, BASE_TS + i * 1800, "original"))
        for a in range(4):
            for i in range(11):
                tid += 1
                records.append(rec(tid, f"bg{a}", BASE_TS + (50 + i * 3 + a) * 1800, "original"))
        edges, flagged = detect_time_coordination(corpus_of(*records))
        assert flagged == {"x", "y"}
        assert all(e.score > 0.99 for e in edges)

    def test_disjoint_bins_no_candidates(self):
        records = []
        tid = 0
        for i in range(11):
            tid += 1
            records.append(rec(tid, "x", BASE_TS + i * 1800, "original"))
        for i in range(11):
            tid += 1
            records.append(rec(tid, "y", BASE_TS + (100 + i) * 1800, "original"))
        edges, flagged = detect_time_coordination(corpus_of(*records))
        assert edges == [] and flagged == set()

    def test_matches_oracle_randomized_200_accounts(self, monkeypatch):
        rnd = random.Random(12)
        cfg = DetectorConfig()
        corpus = random_corpus(rnd, n_accounts=200)
        oracle = oracle_vector_pairs(corpus, "time_bin", cfg)
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(kernels, "BLOCK_ROWS", block_rows)
            edges, flagged = detect_time_coordination(corpus, cfg)
            assert {(e.a, e.b) for e in edges} == oracle

    def test_monotone_in_threshold(self):
        rnd = random.Random(13)
        corpus = random_corpus(rnd, n_accounts=60)
        previous = None
        for threshold in (0.5, 0.8, 0.95, 0.999):
            cfg = DetectorConfig(time_threshold=threshold)
            pairs = {(e.a, e.b) for e in detect_time_coordination(corpus, cfg)[0]}
            if previous is not None:
                assert pairs <= previous
            previous = pairs


class TestDeterminism:
    def test_record_order_invariance(self):
        rnd = random.Random(21)
        corpus = random_corpus(rnd, n_accounts=30)
        shuffled_records = list(corpus.records)
        rnd.shuffle(shuffled_records)
        shuffled = Corpus(shuffled_records)
        for detector in ("hashtag", "retweet", "time"):
            a = detect_all(corpus, enabled=[detector])[detector]
            b = detect_all(shuffled, enabled=[detector])[detector]
            assert a[0] == b[0]
            assert a[1] == b[1]

    def test_edges_canonical_no_self_loops_no_duplicates(self):
        rnd = random.Random(22)
        corpus = random_corpus(rnd, n_accounts=30)
        for detector, (edges, _) in detect_all(corpus).items():
            seen = set()
            for e in edges:
                assert e.a < e.b
                key = (e.a, e.b, e.detector, e.evidence)
                assert key not in seen
                seen.add(key)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            CoordinationEdge("b", "a", "hashtag", 1.0, "k")
        with pytest.raises(ValueError):
            CoordinationEdge.canonical("a", "a", "hashtag", 1.0, "k")
        assert CoordinationEdge.canonical("b", "a", "time", 1.0, "cosine").a == "a"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(hashtag_k=1).validate()
        with pytest.raises(ValueError):
            DetectorConfig(retweet_top_frac=0.0).validate()
        with pytest.raises(ValueError):
            DetectorConfig(time_threshold=1.5).validate()
        with pytest.raises(ValueError):
            DetectorConfig(retweet_min=0).validate()
        DetectorConfig().validate()

    def test_cutoff_nearest_rank(self):
        sims = np.array([0.9, 0.5, 0.7, 0.3])
        # top 50% of 4 -> 2nd largest = 0.7
        assert top_fraction_cutoff(sims, 0.5) == 0.7
        # tiny fraction -> k = 1 -> max
        assert top_fraction_cutoff(sims, 0.001) == 0.9
