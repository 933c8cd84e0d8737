"""Clustering and activity analyses."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordnet import graph as graph_module
from coordnet.config import DUPLICATE_SCOPES
from coordnet.corpus import KINDS
from coordnet.detectors import EdgeTable
from coordnet.graph import (
    Cluster,
    CoordinationGraph,
    activity_shares,
    cluster_ids,
    connected_components,
    coordination,
    duplicate_shares,
    label_clusters,
    retweet_interactions,
)
from coordnet.report import story_share

from helpers import (
    BASE_TS,
    Edge,
    UnionFind,
    corpus_of,
    edge_table,
    edges_of,
    member_of,
    oracle_activity_shares,
    oracle_components,
    oracle_duplicate_shares,
    oracle_retweet_interactions,
    oracle_story_share,
    rec,
)


def edge(a, b, detector="hashtag", evidence="k"):
    return Edge(min(a, b), max(a, b), detector, 1.0, evidence)


def table(*edges):
    return edge_table(edges)


class TestConnectedComponents:
    def test_empty_graph(self):
        assert connected_components(CoordinationGraph()) == []

    def test_textbook_components(self):
        graph = CoordinationGraph.from_edges(
            table(edge("a", "b"), edge("b", "c"), edge("d", "e"))
        )
        clusters = connected_components(graph)
        assert [c.members for c in clusters] == [{"a", "b", "c"}, {"d", "e"}]
        assert [c.id for c in clusters] == [1, 2]
        assert [c.size for c in clusters] == [3, 2]

    def test_size_then_min_member_ordering(self):
        graph = CoordinationGraph.from_edges(
            table(edge("m", "n"), edge("a", "b"), edge("x", "y"), edge("x", "z"))
        )
        clusters = connected_components(graph)
        assert [sorted(c.members)[0] for c in clusters] == ["x", "a", "m"]

    def test_planted_sizes_recovered(self):
        rnd = random.Random(5)
        edges = []
        sizes = [90, 30, 16, 5, 3]
        names = []
        offset = 0
        for size in sizes:
            members = [f"acct{offset + i:05d}" for i in range(size)]
            names.append(set(members))
            offset += size
            # random spanning structure, not a clique
            for i in range(1, size):
                edges.append(edge(members[rnd.randrange(i)], members[i]))
        clusters = connected_components(CoordinationGraph.from_edges(table(*edges)))
        assert [c.size for c in clusters] == sizes
        assert [c.members for c in clusters] == names

    def test_union_find_groups(self):
        uf = UnionFind()
        for x in "abcdef":
            uf.add(x)
        uf.union("a", "b")
        uf.union("c", "b")
        uf.union("e", "f")
        groups = sorted(uf.groups(), key=lambda g: (-len(g), min(g)))
        assert groups == [{"a", "b", "c"}, {"e", "f"}, {"d"}]


def assert_matches_oracle(tables):
    """Components of the tables' graph equal the string union-find's:
    same members, same ids, same order."""
    graph = CoordinationGraph.from_edges(*(edge_table(t) for t in tables))
    got = [(c.id, c.members) for c in connected_components(graph)]
    want = oracle_components([e for t in tables for e in t])
    assert got == want
    assert set(graph.names) == set().union(*(members for _, members in want))
    return graph


def assert_codes_match_oracle(n, pairs):
    """Components of the graph over nodes 0..n-1 with the given distinct
    code pairs equal the string union-find's. Node i is named so that
    name order differs from code order."""
    names = [f"n{(7919 * i) % n:07d}" for i in range(n)] if n else []
    a = np.array([x for x, _ in pairs], dtype=np.int32)
    b = np.array([y for _, y in pairs], dtype=np.int32)
    graph = CoordinationGraph(names=names, edges=[(np.arange(n, dtype=np.int32), a, b)])
    got = [(c.id, c.members) for c in connected_components(graph)]
    assert got == oracle_components([edge(names[x], names[y]) for x, y in pairs])
    return got


class TestComponentsOracle:
    def test_random_graphs(self):
        for seed in range(30):
            rnd = random.Random(seed)
            names = []
            for i in range(rnd.randrange(2, 200)):
                names.append(f"u{i:03d}")
                if rnd.random() < 0.2:  # an id that differs only by a trailing NUL
                    names.append(f"u{i:03d}\x00")
            tables = [[] for _ in range(rnd.randrange(1, 4))]
            for _ in range(rnd.randrange(0, 3 * len(names))):
                x, y = rnd.sample(names, 2)
                detector = rnd.choice(("hashtag", "retweet", "time"))
                rnd.choice(tables).append(edge(x, y, detector, rnd.choice("kl")))
            assert_matches_oracle(tables)

    def test_shuffled_path_50k(self):
        rnd = random.Random(50)
        names = [f"p{i}" for i in range(50_000)]
        rnd.shuffle(names)
        edges = [edge(x, y) for x, y in zip(names, names[1:])]
        rnd.shuffle(edges)
        graph = assert_matches_oracle([edges[:20_000], edges[20_000:]])
        assert len(connected_components(graph)) == 1

    def test_same_edge_from_two_detectors(self):
        both = [edge("a", "b", "hashtag"), edge("a", "b", "time", "cosine")]
        assert_matches_oracle([both, [edge("b", "a", "retweet")], [edge("c", "d")]])

    def test_empty_graph(self):
        assert assert_matches_oracle([]).names == []
        assert assert_codes_match_oracle(0, []) == []

    @pytest.mark.parametrize("order", ["ascending", "descending", "alternating"])
    def test_path_codes(self, order):
        n = 5_000
        codes = list(range(n))
        if order == "descending":
            codes.reverse()
        elif order == "alternating":  # 0, n-1, 1, n-2, ...
            codes = [x for pair in zip(codes, reversed(codes)) for x in pair][:n]
        got = assert_codes_match_oracle(n, list(zip(codes, codes[1:])))
        assert len(got) == 1

    def test_star_centre_has_largest_code(self):
        n = 2_000
        got = assert_codes_match_oracle(n, [(leaf, n - 1) for leaf in range(n - 1)])
        assert [len(members) for _, members in got] == [n]

    def test_10k_two_node_components(self):
        rnd = random.Random(10)
        codes = list(range(20_000))
        rnd.shuffle(codes)
        got = assert_codes_match_oracle(20_000, list(zip(codes[::2], codes[1::2])))
        assert [len(members) for _, members in got] == [2] * 10_000

    def test_700_account_clique(self):
        got = assert_codes_match_oracle(700, list(itertools.combinations(range(700), 2)))
        assert [len(members) for _, members in got] == [700]

    def test_accounts_no_row_joins_are_not_nodes(self):
        # a vector detector's table lists every eligible account
        rows = EdgeTable(["x", "a", "unused", "b"], [1], [3], [2], [0.5], ["cosine"], [0])
        graph = CoordinationGraph.from_edges(rows, EdgeTable.empty())
        assert set(graph.names) == {"a", "b"}
        assert [c.members for c in connected_components(graph)] == [{"a", "b"}]

    def test_trailing_nul_ids_are_distinct(self):
        graph = assert_matches_oracle([[edge("a", "b")], [edge("a\x00", "c"), edge("c", "d")]])
        clusters = connected_components(graph)
        assert [c.members for c in clusters] == [{"a\x00", "c", "d"}, {"a", "b"}]


def chunked_tables():
    """Edge tables that make a small chunk of rows matter: a long path
    whose rows arrive from both ends, a pair on many rows of two tables,
    tables listing accounts no row joins (as a vector detector's do) and
    ids that differ by a trailing NUL."""
    rnd = random.Random(3)
    names = [f"p{i:03d}" for i in range(120)]
    rnd.shuffle(names)
    path = [edge(x, y) for x, y in zip(names, names[1:])]
    path = [e for pair in zip(path, reversed(path)) for e in pair][: len(path)]
    repeated = [edge("r1", "r2")] * 5 + [edge("r2", "r3", "time", "cosine")]
    unused = EdgeTable(
        ["x", "u1", "n\x00", "unused", "n", "u2"], [1, 4, 2], [5, 2, 5], [2, 2, 1],
        [0.5, 0.5, 1.0], ["cosine"], [0, 0, 0],
    )
    return [
        edge_table(path[:70]),
        edge_table(repeated + [edge("n", "r1")]),
        unused,
        EdgeTable.empty(),
        edge_table(path[70:] + repeated[:2] + [edge("a", "a\x00"), edge("a\x00", "b")]),
    ]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_chunked_components_match_oracle(monkeypatch, rows):
    monkeypatch.setattr(graph_module, "_COMPONENT_ROWS", rows)
    tables = chunked_tables()
    graph = CoordinationGraph.from_edges(*tables)
    got = [(c.id, c.members) for c in connected_components(graph)]
    want = oracle_components([e for t in tables for e in edges_of(t)])
    assert got == want
    assert "unused" not in graph.names and "x" not in graph.names
    assert [len(members) for _, members in got][:2] == [120, 7]


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_chunked_path_codes_match_oracle(monkeypatch, rows):
    # descending codes: every chunk hooks the root the last chunk made
    monkeypatch.setattr(graph_module, "_COMPONENT_ROWS", rows)
    codes = list(range(400))[::-1]
    got = assert_codes_match_oracle(400, list(zip(codes, codes[1:])))
    assert len(got) == 1


def label_of(members, corpus):
    return label_clusters([Cluster(id=1, members=set(members))], corpus)[0].label


class TestLabelCluster:
    def test_most_frequent_hashtag(self):
        corpus = corpus_of(
            rec(1, "a", hashtags=["lepen"]),
            rec(2, "a", hashtags=["lepen", "macron"]),
            rec(3, "b", hashtags=["lepen"]),
        )
        assert label_of({"a", "b"}, corpus) == "lepen"

    def test_no_hashtags_empty_label(self):
        corpus = corpus_of(rec(1, "a"))
        assert label_of({"a"}, corpus) == ""

    def test_tie_breaks_lexicographically(self):
        corpus = corpus_of(
            rec(1, "a", hashtags=["b", "a"]),
            rec(2, "a", hashtags=["a", "b"]),
        )
        assert label_of({"a"}, corpus) == "a"

    def test_retweets_excluded(self):
        corpus = corpus_of(
            rec(1, "a", hashtags=["x"]),
            rec(2, "a", kind="retweet", rt_id="9", hashtags=["y", "y", "y"]),
        )
        assert label_of({"a"}, corpus) == "x"

    def test_label_clusters_fills_all(self):
        corpus = corpus_of(rec(1, "a", hashtags=["t"]), rec(2, "b"))
        clusters = [Cluster(1, {"a"}), Cluster(2, {"b"}), Cluster(3, {"not-in-corpus"})]
        labeled = label_clusters(clusters, corpus)
        assert [c.label for c in labeled] == ["t", "", ""]


class TestCoordination:
    def test_labeled_clusters_and_cluster_id_per_account_code(self):
        corpus = corpus_of(
            rec(1, "x"), rec(2, "c", hashtags=["t"]), rec(3, "a"), rec(4, "e"),
            rec(5, "d", hashtags=["u"]), rec(6, "b"),
        )
        tables = [table(edge("a", "b"), edge("d", "e")), table(edge("b", "c"))]
        clusters, cluster_of = coordination(corpus, tables)
        assert [(c.id, c.members, c.label) for c in clusters] == [
            (1, {"a", "b", "c"}, "t"), (2, {"d", "e"}, "u"),
        ]
        assert cluster_of.dtype == np.int32
        assert dict(zip(corpus.account_ids, cluster_of.tolist())) == {
            "x": 0, "c": 1, "a": 1, "e": 2, "d": 2, "b": 1,
        }

    def test_no_edges_no_coordinated_account(self):
        corpus = corpus_of(rec(1, "a"), rec(2, "b"))
        clusters, cluster_of = coordination(corpus, [EdgeTable.empty()])
        assert clusters == [] and cluster_of.tolist() == [0, 0]

    def test_edge_accounts_the_corpus_lacks_are_refused(self):
        corpus = corpus_of(rec(1, "a"), rec(2, "b"))
        tables = [table(edge("a", "b"), edge("b", "zz"), edge("a\x00", "b"))]
        with pytest.raises(ValueError, match=r"2 accounts .* the first 'zz'"):
            coordination(corpus, tables)

    def test_cluster_ids_leave_out_members_the_corpus_lacks(self):
        corpus = corpus_of(rec(1, "a"), rec(2, "b"), rec(3, "c"))
        clusters = [Cluster(3, {"c", "gone"}), Cluster(7, {"a"})]
        assert cluster_ids(clusters, corpus).tolist() == [7, 0, 3]


def random_membership_corpus(seed):
    """A seeded corpus whose retweets target and whose replies mention
    posting accounts, accounts that never post, and no one; "a" posts
    beside "a\x00"."""
    rnd = random.Random(seed)
    posters = ["a", "a\x00"] + [f"u{i}" for i in range(10)]
    silent = ["ghost", "a\x00\x00"]
    records = []
    for i in range(400):
        author = rnd.choice(posters)
        ts = BASE_TS + rnd.randrange(-2, 4) * 86_400 + rnd.randrange(86_400)
        tags = rnd.sample(["s1", "s2", "x"], rnd.randrange(3))
        kind = rnd.choice(("original", "reply", "retweet"))
        if kind == "retweet":
            target = rnd.choice(posters + silent + [None])
            records.append(rec(i, author, ts, kind, rt_id=f"o{i}", rt_account=target))
        elif kind == "reply":
            mentions = rnd.sample(posters + silent, rnd.randrange(3))
            records.append(rec(i, author, ts, kind, hashtags=tags, mentions=mentions))
        else:
            records.append(rec(i, author, ts, kind, hashtags=tags))
    return corpus_of(*records)


@pytest.mark.parametrize("seed", range(8))
def test_member_array_sections_match_the_id_set_oracles(seed):
    corpus = random_membership_corpus(seed)
    rnd = random.Random(seed)
    names = corpus.account_ids
    assert {"a", "a\x00"} <= set(names) and "ghost" not in names
    assert "ghost" in corpus.retweeted_account_ids
    sets = [set(), set(names), {"a"}, {"a\x00"}, set(rnd.sample(names, len(names) // 2))]
    for coordinated in sets:
        member = member_of(corpus, coordinated)
        assert retweet_interactions(corpus, member) == oracle_retweet_interactions(
            corpus, coordinated
        )
        assert activity_shares(corpus, member) == oracle_activity_shares(corpus, coordinated)
        for tags in ((), ("s1",), ("s1", "s2"), ("nowhere",)):
            assert story_share(corpus, member, tags) == oracle_story_share(
                corpus, coordinated, tags
            )
    # replies from outside that mention coordinated accounts do occur
    assert oracle_retweet_interactions(corpus, {"a"}).replies_from_outside > 0


class TestRetweetInteractions:
    def test_no_retweets(self):
        corpus = corpus_of(rec(1, "a"))
        counts = retweet_interactions(corpus, member_of(corpus, {"a"}))
        assert counts.intra_retweets == 0
        assert counts.intra_share is None

    def test_empty_coordinated_set(self):
        corpus = corpus_of(rec(1, "a", kind="retweet", rt_id="9", rt_account="b"))
        counts = retweet_interactions(corpus, member_of(corpus, set()))
        assert counts.intra_retweets == 0
        assert counts.retweets_from_outside == 0
        assert counts.intra_share is None

    def test_one_third_fixture(self):
        # 6 retweets of coordinated content; 2 by coordinated authors
        coordinated = {"c1", "c2"}
        records = [
            rec(1, "c1", kind="original", text="seed"),
            rec(2, "c1", kind="retweet", rt_id="1", rt_account="c2"),
            rec(3, "c2", kind="retweet", rt_id="1", rt_account="c1"),
            rec(4, "o1", kind="retweet", rt_id="1", rt_account="c1"),
            rec(5, "o2", kind="retweet", rt_id="1", rt_account="c1"),
            rec(6, "o3", kind="retweet", rt_id="1", rt_account="c2"),
            rec(7, "o4", kind="retweet", rt_id="1", rt_account="c2"),
            rec(8, "o5", kind="retweet", rt_id="9", rt_account="o1"),  # not coordinated content
        ]
        corpus = corpus_of(*records)
        counts = retweet_interactions(corpus, member_of(corpus, coordinated))
        assert counts.intra_retweets == 2
        assert counts.retweets_from_outside == 4
        assert counts.intra_share == 2 / 6
        # both coordinated retweet actions hit coordinated content here
        assert counts.intra_share_of_actions == 1.0

    def test_replies_from_outside_via_mentions(self):
        corpus = corpus_of(
            rec(1, "out", kind="reply", mentions=["coord"]),
            rec(2, "out", kind="reply", mentions=["other"]),
            rec(3, "coord", kind="reply", mentions=["coord"]),
        )
        counts = retweet_interactions(corpus, member_of(corpus, {"coord"}))
        assert counts.replies_from_outside == 1

    def test_partition_identity(self):
        rnd = random.Random(31)
        accounts = [f"a{i}" for i in range(20)]
        coordinated = set(accounts[:6])
        records = []
        for i in range(300):
            author = rnd.choice(accounts)
            target = rnd.choice(accounts)
            records.append(rec(i, author, kind="retweet", rt_id=f"t{i}", rt_account=target))
        corpus = corpus_of(*records)
        counts = retweet_interactions(corpus, member_of(corpus, coordinated))
        of_content = sum(
            1 for r in records if r.retweeted_account_id in coordinated
        )
        assert counts.intra_retweets + counts.retweets_from_outside == of_content


class TestActivityShares:
    def test_all_coordinated(self):
        corpus = corpus_of(rec(1, "a"), rec(2, "a", kind="reply"))
        shares = activity_shares(corpus, member_of(corpus, {"a"}))
        assert shares[0][1]["original"] == 1.0
        assert shares[0][1]["reply"] == 1.0
        assert shares[0][1]["retweet"] is None

    def test_none_coordinated(self):
        corpus = corpus_of(rec(1, "a"))
        assert activity_shares(corpus, member_of(corpus, set()))[0][1]["original"] == 0.0

    def test_small_share_fixture(self):
        # 1 coordinated account of 355; it authors 2 of one day's 20 retweets
        records = []
        tid = 0
        for i in range(354):
            tid += 1
            records.append(rec(tid, f"bg{i}", BASE_TS, "original"))
        for i in range(18):
            tid += 1
            records.append(rec(tid, f"bg{i}", BASE_TS, "retweet", rt_id="x"))
        for _ in range(2):
            tid += 1
            records.append(rec(tid, "coord", BASE_TS, "retweet", rt_id="x"))
        corpus = corpus_of(*records)
        shares = activity_shares(corpus, member_of(corpus, {"coord"}))
        assert shares[0][1]["retweet"] == 0.10
        assert shares[0][1]["original"] == 0.0


class TestDuplicateShares:
    def test_same_text_twice(self):
        corpus = corpus_of(
            rec(1, "a", text="same text"),
            rec(2, "a", text="same text"),
        )
        assert duplicate_shares(corpus)["a"] == (1.0, 2)

    def test_all_distinct(self):
        corpus = corpus_of(rec(1, "a", text="one"), rec(2, "a", text="two"))
        assert duplicate_shares(corpus)["a"] == (0.0, 2)

    def test_no_originals_reports_none(self):
        corpus = corpus_of(rec(1, "a", kind="retweet", rt_id="x", text="t"))
        assert duplicate_shares(corpus)["a"] == (None, 0)

    def test_url_only_difference_counts_with_strip_urls(self):
        corpus = corpus_of(
            rec(1, "a", text="read this http://a.example/1"),
            rec(2, "a", text="read this http://b.example/2"),
        )
        assert duplicate_shares(corpus)["a"][0] == 1.0

    def test_permutation_invariance(self):
        rnd = random.Random(41)
        texts = [f"text {rnd.randint(0, 5)}" for _ in range(12)]
        records = [rec(i, "a", BASE_TS + i, "original", text=t) for i, t in enumerate(texts)]
        base = duplicate_shares(corpus_of(*records))["a"]
        for _ in range(5):
            rnd.shuffle(records)
            assert duplicate_shares(corpus_of(*records))["a"] == base

    def test_corpus_scope_counts_cross_account(self):
        corpus = corpus_of(
            rec(1, "a", text="shared line"),
            rec(2, "b", text="shared line"),
            rec(3, "b", text="unique line"),
        )
        per_account = duplicate_shares(corpus, scope="account")
        assert per_account["a"] == (0.0, 1)
        assert per_account["b"] == (0.0, 2)
        corpus_wide = duplicate_shares(corpus, scope="corpus")
        assert corpus_wide["a"] == (1.0, 1)
        assert corpus_wide["b"] == (0.5, 2)

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            duplicate_shares(corpus_of(), scope="global")

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(KINDS),
                # texts that normalize alike: case, "#", punctuation,
                # spacing, URLs and mentions
                st.sampled_from(["Hi there", "hi  there!", "#hi there", "HI THERE",
                                 "hi there http://x.example/1", "@bob hi", "@al hi", "bye", ""]),
            ),
            max_size=40,
        ),
        scope=st.sampled_from(DUPLICATE_SCOPES),
    )
    def test_matches_oracle(self, rows, scope):
        # accounts may post only replies and retweets, and the corpus may be empty
        records = [
            rec(i, account, BASE_TS + i, kind, text=text, rt_id="x" if kind == "retweet" else None)
            for i, (account, kind, text) in enumerate(rows)
        ]
        corpus = corpus_of(*records)
        assert duplicate_shares(corpus, scope) == oracle_duplicate_shares(corpus, scope)
