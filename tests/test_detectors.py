"""Detector contracts against brute-force all-pairs oracles."""

import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coordnet import kernels
from coordnet.detectors import (
    DetectorConfig,
    AboveThreshold,
    SparseVector,
    TopFraction,
    _index_posts,
    build_account_vectors,
    candidate_pair_similarities,
    detect_all,
    detect_hashtag_coordination,
    detect_retweet_coordination,
    detect_time_coordination,
    edges_from_hashtag_index,
    tfidf_weight,
)

from helpers import BASE_TS, Edge, corpus_of, edges_of, rec, records_of, top_fraction_cutoff

# Kernel pair-product budgets per row block the equivalence tests run
# at: the default, one row per block, and a budget that leaves ragged
# blocks of a few rows.
PAIR_BUDGETS = (kernels.PAIR_BUDGET, 1, 7)


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
    for r in records_of(corpus):
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
    for r in records_of(corpus):
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


def hashtag_keys(tags, k):
    """The hashtag k-gram keys one original tweet with these tags posts."""
    return set(_index_posts([("a", tuple(tags))], k))


class TestHashtagKeySet:
    def test_single_window(self):
        assert hashtag_keys(["a", "b", "c", "d", "e"], 5) == {"a|b|c|d|e"}

    def test_two_windows(self):
        assert hashtag_keys(["a", "b", "c", "d", "e", "f"], 5) == {"a|b|c|d|e", "b|c|d|e|f"}

    def test_below_threshold(self):
        assert hashtag_keys(["a", "b", "c"], 5) == set()


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
    def _random_postings(
        rnd, n_accounts=60, n_terms=40, max_len=8, stride=1, dtype=np.int32, zero_frac=0.0
    ):
        offsets = [0]
        accounts = []
        weights = []
        for _ in range(n_terms):
            members = sorted(rnd.sample(range(n_accounts), rnd.randint(0, max_len)))
            accounts.extend(m * stride for m in members)
            # a zero-weight term (one every document has) adds only zeros
            zero = rnd.random() < zero_frac
            weights.extend(0.0 if zero else rnd.random() for _ in members)
            offsets.append(len(accounts))
        return (
            np.array(offsets, dtype=np.int64),
            np.array(accounts, dtype=dtype),
            np.array(weights, dtype=np.float64),
        )

    @staticmethod
    def _assert_bitwise(got, expected):
        (k1, d1), (k2, d2) = got, expected
        assert k1.dtype == k2.dtype and d1.dtype == d2.dtype
        assert np.array_equal(k1, k2)
        # bitwise: same add order, no fma
        assert np.array_equal(d1.view(np.int64), d2.view(np.int64))

    def test_backends_bitwise_identical(self, monkeypatch):
        rnd = random.Random(77)
        default = kernels.get_backend("python")
        reference = kernels.get_backend("reference")
        cases = [self._random_postings(rnd) for _ in range(20)]
        # thousands of accounts: many blocks at any budget
        cases += [self._random_postings(rnd, 9000, 3000, 30) for _ in range(2)]
        # 30k accounts, short postings: sparse blocks, sorted keys
        cases.append(self._random_postings(rnd, 30000, 6000, 4))
        # account indices with gaps
        cases.append(self._random_postings(rnd, 200, 80, 12, stride=7))
        # int64 account indices
        cases.append(self._random_postings(rnd, 300, 60, 20, dtype=np.int64))
        # zero-weight terms: pairs sharing only those are left out
        cases += [self._random_postings(rnd, 40, 30, 10, zero_frac=0.5) for _ in range(3)]
        # single-member postings only
        cases.append(self._random_postings(rnd, 50, 30, 1))
        # all postings empty
        cases.append(self._random_postings(rnd, 50, 30, 0))
        expected = [reference(*case) for case in cases]
        # every block boundary, not only the default budget's
        for budget in PAIR_BUDGETS:
            monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
            for case, want in zip(cases, expected):
                self._assert_bitwise(default(*case), want)

    def test_one_call_takes_both_block_paths(self, monkeypatch):
        # Accounts 0-59 share 300 terms: their first rows fill a block
        # each and sum on the dense grid. The last of them and 40,000
        # accounts in pairs sum by sorted keys.
        rnd = random.Random(79)
        offsets = [0]
        accounts = []
        for _ in range(300):
            accounts.extend(range(60))
            offsets.append(len(accounts))
        for _ in range(2000):
            accounts.extend(sorted(rnd.sample(range(60, 40000), 2)))
            offsets.append(len(accounts))
        case = (
            np.array(offsets, dtype=np.int64),
            np.array(accounts, dtype=np.int32),
            np.array([rnd.random() for _ in accounts], dtype=np.float64),
        )
        calls = {"_dense_sums": 0, "_sorted_sums": 0}
        for name in calls:
            def counted(*args, _inner=getattr(kernels, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(kernels, name, counted)
        got = kernels.get_backend("python")(*case)
        assert calls["_dense_sums"] > 0 and calls["_sorted_sums"] > 0
        self._assert_bitwise(got, kernels.get_backend("reference")(*case))

    def test_zero_sum_pairs_left_out(self):
        # term 0 (weight 0) joins 0-1-2; term 1 joins 0-1 with weight
        python = kernels.get_backend("python")
        case = (
            np.array([0, 3, 5], dtype=np.int64),
            np.array([0, 1, 2, 0, 1], dtype=np.int32),
            np.array([0.0, 0.0, 0.0, 0.5, 0.5]),
        )
        keys, dots = python(*case)
        assert keys.tolist() == [1] and dots.tolist() == [0.25]
        self._assert_bitwise((keys, dots), kernels.get_backend("reference")(*case))

    def test_peak_memory_bounded_by_budget(self):
        # 120 accounts in each of 100 terms: 714,000 products for 7,140
        # pairs. Beyond its output (and the copy that joins the blocks),
        # the kernel holds per-entry arrays and one block's products, so
        # its peak must not grow with the product count.
        n_accounts, n_terms = 120, 100
        offsets = np.arange(n_terms + 1, dtype=np.int64) * n_accounts
        accounts = np.tile(np.arange(n_accounts, dtype=np.int32), n_terms)
        weights = np.random.default_rng(81).random(len(accounts)) + 0.5
        python = kernels.get_backend("python")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            keys, dots = python(offsets, accounts, weights)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = keys.nbytes + dots.nbytes
        assert len(keys) == n_accounts * (n_accounts - 1) // 2
        assert peak - output <= output + 128 * kernels.PAIR_BUDGET + 64 * len(accounts)

    def test_peak_memory_with_empty_select_bounded_by_budget(self):
        # The postings above through a select that keeps nothing: with no
        # output to hold, the kernel's peak is its per-entry arrays and
        # one block, whatever the pair count.
        n_accounts, n_terms = 120, 100
        offsets = np.arange(n_terms + 1, dtype=np.int64) * n_accounts
        accounts = np.tile(np.arange(n_accounts, dtype=np.int32), n_terms)
        weights = np.random.default_rng(81).random(len(accounts)) + 0.5
        seen = []

        def keep_nothing(keys, dots):
            seen.append(len(keys))
            none = np.zeros(len(keys), dtype=bool)
            return keys[none], dots[none]

        python = kernels.get_backend("python")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            keys, dots = python(offsets, accounts, weights, select=keep_nothing)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(keys) == 0 and len(seen) > 1
        assert sum(seen) == n_accounts * (n_accounts - 1) // 2
        assert peak <= 128 * kernels.PAIR_BUDGET + 64 * len(accounts)

    def test_select_sees_each_block_in_key_order(self, monkeypatch):
        rnd = random.Random(80)
        python = kernels.get_backend("python")
        cases = [self._random_postings(rnd, 300, 200, 20) for _ in range(3)]
        for budget in PAIR_BUDGETS:
            monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
            for case in cases:
                full_keys, full_dots = python(*case)
                blocks = []

                def above_median(keys, dots):
                    blocks.append(keys)
                    keep = dots > np.median(full_dots)
                    return keys[keep], dots[keep]

                got = python(*case, select=above_median)
                # the blocks partition the full output, in order
                assert np.array_equal(np.concatenate(blocks), full_keys)
                keep = full_dots > np.median(full_dots)
                self._assert_bitwise(got, (full_keys[keep], full_dots[keep]))

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
        assert edges_of(edges) == [Edge("x", "y", "hashtag", 1.0, "a|b|c|d|e")]

    def test_same_account_twice_no_edge(self):
        corpus = corpus_of(
            rec(1, "x", hashtags=["a", "b", "c", "d", "e"]),
            rec(2, "x", hashtags=["a", "b", "c", "d", "e"]),
        )
        assert edges_of(detect_hashtag_coordination(corpus)) == []

    def test_retweets_do_not_participate(self):
        corpus = corpus_of(
            rec(1, "x", hashtags=["a", "b", "c", "d", "e"]),
            rec(2, "y", kind="retweet", rt_id="1", hashtags=["a", "b", "c", "d", "e"]),
        )
        assert edges_of(detect_hashtag_coordination(corpus)) == []

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
        pairs = {(e.a, e.b) for e in edges_of(edges)}
        assert pairs == oracle_hashtag_pairs(corpus, 5)

    def test_matches_oracle_randomized(self):
        rnd = random.Random(101)
        for trial in range(10):
            corpus = random_corpus(rnd, n_accounts=25)
            edges = detect_hashtag_coordination(corpus)
            pairs = {(e.a, e.b) for e in edges_of(edges)}
            assert pairs == oracle_hashtag_pairs(corpus, 5)

    def test_edge_table_matches_object_loop(self):
        # the per-pair loop and sort the array build replaced: every row,
        # in (a, b, key) order, over groups of many sizes that overlap
        for seed in range(20):
            rnd = random.Random(seed)
            names = [f"u{i}" for i in range(40)] + ["u1\x00", "u10\x00", "", "\x00"]
            index = {
                f"k{j}" + "\x00" * (j % 3): set(rnd.sample(names, rnd.randrange(1, 12)))
                for j in range(rnd.randrange(0, 30))
            }
            want = [
                Edge(a, b, "hashtag", 1.0, key)
                for key in index
                for a, b in itertools.combinations(sorted(index[key]), 2)
            ]
            want.sort(key=lambda e: (e.a, e.b, e.detector, e.evidence))
            assert edges_of(edges_from_hashtag_index(index)) == want

    def test_monotone_in_k(self):
        rnd = random.Random(55)
        for _ in range(5):
            corpus = random_corpus(rnd, n_accounts=20)
            pairs_by_k = []
            for k in (3, 4, 5, 6):
                cfg = DetectorConfig(hashtag_k=k)
                pairs_by_k.append({(e.a, e.b) for e in edges_of(detect_hashtag_coordination(corpus, cfg))})
            for smaller, larger in zip(pairs_by_k[1:], pairs_by_k[:-1]):
                assert smaller <= larger


class TestRetweetDetector:
    def test_fewer_than_two_eligible(self):
        records = [rec(i, "only", kind="retweet", rt_id=f"t{i}") for i in range(15)]
        edges, flagged = detect_retweet_coordination(corpus_of(*records))
        assert len(edges) == 0 and flagged == set()

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
        assert edges_of(edges)[0].evidence == "cosine"

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
            for budget in PAIR_BUDGETS:
                monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
                edges, _ = detect_retweet_coordination(corpus, cfg)
                assert {(e.a, e.b) for e in edges_of(edges)} == oracle


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
        assert all(e.score > 0.99 for e in edges_of(edges))

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
        assert len(edges) == 0 and flagged == set()

    def test_matches_oracle_randomized_200_accounts(self, monkeypatch):
        rnd = random.Random(12)
        cfg = DetectorConfig()
        corpus = random_corpus(rnd, n_accounts=200)
        oracle = oracle_vector_pairs(corpus, "time_bin", cfg)
        for budget in PAIR_BUDGETS:
            monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
            edges, flagged = detect_time_coordination(corpus, cfg)
            assert {(e.a, e.b) for e in edges_of(edges)} == oracle

    def test_monotone_in_threshold(self):
        rnd = random.Random(13)
        corpus = random_corpus(rnd, n_accounts=60)
        previous = None
        for threshold in (0.5, 0.8, 0.95, 0.999):
            cfg = DetectorConfig(time_threshold=threshold)
            pairs = {(e.a, e.b) for e in edges_of(detect_time_coordination(corpus, cfg)[0])}
            if previous is not None:
                assert pairs <= previous
            previous = pairs


def tied_retweet_corpus(n_accounts=90, group_every=3):
    """Every group_every-th account retweets the same eleven ids (equal
    profiles, so their pairs tie at cosine 1); the rest retweet at
    random from a pool that overlaps them. Group members interleave with
    the others in id order, so the ties spread over many row blocks."""
    rnd = random.Random(31)
    records = []
    for a in range(n_accounts):
        for i in range(11):
            target = f"g{i}" if a % group_every == 0 else f"g{rnd.randrange(16)}"
            records.append(rec(len(records), f"acct{a:03d}", kind="retweet", rt_id=target))
    return corpus_of(*records)


class TestBlockSelect:
    """The detectors select pairs block by block; the oracle is the full
    candidate list from the kernel without select, then the detector's
    mask over all of it, compared key for key and bit for bit."""

    @staticmethod
    def _full(vectors, detector, cfg):
        keys, sims, accounts = candidate_pair_similarities(vectors)
        if detector == "retweet":
            if not len(sims):
                return keys, sims, accounts, 0, 0
            k = max(1, math.ceil(cfg.retweet_top_frac * len(sims)))
            keep = sims >= top_fraction_cutoff(sims, cfg.retweet_top_frac)
        else:
            k = 0
            keep = sims > cfg.time_threshold
        return keys[keep], sims[keep], accounts, len(sims), k

    def _assert_matches_full(self, corpus, cfg):
        for detector, term, detect in (
            ("retweet", "retweeted_id", detect_retweet_coordination),
            ("time", "time_bin", detect_time_coordination),
        ):
            vectors = build_account_vectors(corpus, term, cfg)
            keys, sims, accounts, m, k = self._full(vectors, detector, cfg)
            counts = {}
            edges, _ = detect(corpus, cfg, counts)
            assert edges.accounts == accounts
            assert np.array_equal(edges.a, keys >> 32)
            assert np.array_equal(edges.b, keys & 0xFFFFFFFF)
            assert np.array_equal(edges.score.view(np.int64), sims.view(np.int64))
            assert counts[f"candidates_{detector}"] == m
            assert counts[f"docs_{detector}"] == len(vectors)
            if detector == "retweet":
                assert counts["retweet_k"] == k

    @pytest.mark.parametrize("budget", PAIR_BUDGETS)
    def test_random_corpora(self, monkeypatch, budget):
        monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
        rnd = random.Random(41)
        for i, frac in enumerate((0.005, 0.1, 0.5, 0.9)):
            corpus = random_corpus(rnd, n_accounts=60 + 40 * i)
            for threshold in (0.5, 0.99):
                cfg = DetectorConfig(retweet_top_frac=frac, time_threshold=threshold)
                self._assert_matches_full(corpus, cfg)

    @pytest.mark.parametrize("budget", PAIR_BUDGETS)
    def test_ties_straddle_the_cutoff(self, monkeypatch, budget):
        monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
        cuts = []
        cut = TopFraction._cut
        monkeypatch.setattr(TopFraction, "_cut", lambda self: (cuts.append(1), cut(self)))
        corpus = tied_retweet_corpus()
        cfg = DetectorConfig(retweet_top_frac=0.05)
        vectors = build_account_vectors(corpus, "retweeted_id", cfg)
        _, sims, _ = candidate_pair_similarities(vectors)
        top = np.sort(sims)[::-1]
        k = math.ceil(0.05 * len(sims))
        # 435 tied pairs of the 30 group members, the cutoff inside them
        assert top[0] == top[k - 1] == top[434] > top[435]
        self._assert_matches_full(corpus, cfg)
        assert len(cuts) > 1

    def test_no_candidates(self):
        # m = 0: two eligible accounts sharing no retweeted id
        records = [rec(i, "x", kind="retweet", rt_id=f"x{i}") for i in range(11)]
        records += [rec(100 + i, "y", kind="retweet", rt_id=f"y{i}") for i in range(11)]
        counts = {}
        edges, flagged = detect_retweet_coordination(corpus_of(*records), counts=counts)
        assert len(edges) == 0 and flagged == set()
        assert counts == {"docs_retweet": 2, "candidates_retweet": 0, "retweet_k": 0}

    def test_one_candidate(self):
        # m = 1, so k = 1: x and y share ids, z shares none
        records = []
        for i in range(11):
            records.append(rec(len(records), "x", kind="retweet", rt_id=f"s{i}"))
            records.append(rec(len(records), "y", kind="retweet", rt_id=f"s{i % 5}"))
            records.append(rec(len(records), "z", kind="retweet", rt_id=f"z{i}"))
        corpus = corpus_of(*records)
        self._assert_matches_full(corpus, DetectorConfig())
        counts = {}
        edges, _ = detect_retweet_coordination(corpus, counts=counts)
        assert len(edges) == 1 and counts["candidates_retweet"] == counts["retweet_k"] == 1

    def test_k_equals_candidates(self):
        # x, y, z pairwise share "c" (w does not, so its weight is not
        # zero): m = 3 and k = ceil(0.9 * 3) = 3 keeps every candidate
        records = []
        for account in ("x", "y", "z"):
            for i in range(11):
                rt_id = "c" if i < 3 else f"{account}{i}"
                records.append(rec(len(records), account, kind="retweet", rt_id=rt_id))
        records += [rec(len(records) + i, "w", kind="retweet", rt_id=f"w{i}") for i in range(11)]
        corpus = corpus_of(*records)
        cfg = DetectorConfig(retweet_top_frac=0.9)
        self._assert_matches_full(corpus, cfg)
        counts = {}
        edges, _ = detect_retweet_coordination(corpus, cfg, counts)
        assert len(edges) == counts["candidates_retweet"] == counts["retweet_k"] == 3

    def test_selectors_return_new_arrays(self):
        keys = np.arange(6, dtype=np.int64)
        sims = np.linspace(0.0, 1.0, 6)
        above, top = AboveThreshold(0.5), TopFraction(0.5)
        blocks = list(above.passes())
        for block in top.passes():  # the count pass, then the pool pass
            blocks.append(block)
            block(keys, sims)
        assert len(blocks) == 3
        for block in blocks:
            for out in block(keys, sims):
                assert out.base is None


class TestDeterminism:
    def test_record_order_invariance(self):
        rnd = random.Random(21)
        corpus = random_corpus(rnd, n_accounts=30)
        shuffled_records = records_of(corpus)
        rnd.shuffle(shuffled_records)
        shuffled = corpus_of(*shuffled_records)
        for detector in ("hashtag", "retweet", "time"):
            a = detect_all(corpus, enabled=[detector])[detector]
            b = detect_all(shuffled, enabled=[detector])[detector]
            assert edges_of(a[0]) == edges_of(b[0])
            assert a[1] == b[1]

    def test_edges_canonical_no_self_loops_no_duplicates(self):
        rnd = random.Random(22)
        corpus = random_corpus(rnd, n_accounts=30)
        for detector, (edges, _) in detect_all(corpus).items():
            seen = set()
            for e in edges_of(edges):
                assert e.a < e.b
                key = (e.a, e.b, e.detector, e.evidence)
                assert key not in seen
                seen.add(key)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="hashtag_k must be >= 2"):
            DetectorConfig(hashtag_k=1)
        with pytest.raises(ValueError, match="retweet_top_frac"):
            DetectorConfig(retweet_top_frac=0.0)
        with pytest.raises(ValueError, match="time_threshold"):
            DetectorConfig(time_threshold=1.5)
        with pytest.raises(ValueError, match="eligibility minima"):
            DetectorConfig(retweet_min=0)
        with pytest.raises(ValueError, match="time_bin_minutes"):
            replace(DetectorConfig(), time_bin_minutes=0)
        DetectorConfig()

    def test_cutoff_nearest_rank(self):
        sims = np.array([0.9, 0.5, 0.7, 0.3])
        # top 50% of 4 -> 2nd largest = 0.7
        assert top_fraction_cutoff(sims, 0.5) == 0.7
        # tiny fraction -> k = 1 -> max
        assert top_fraction_cutoff(sims, 0.001) == 0.9
