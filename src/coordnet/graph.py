"""Coordination graph: clustering and activity analyses.

Connected components of the evidence graph are the coordinated account
clusters; the rest of the module characterizes how those accounts
behave (retweet interactions, activity shares, duplicate tweeting).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from coordnet.config import DUPLICATE_SCOPES
from coordnet.corpus import (
    KINDS,
    ORIGINAL,
    REPLY,
    RETWEET,
    SECONDS_PER_DAY,
    Corpus,
    day_of_timestamp,
    normalize_text,
)
from coordnet.formats import EdgeTable


@dataclass
class CoordinationGraph:
    """Undirected evidence graph over interned account codes.

    names[i] is the account id of node i; every name is an edge
    endpoint. edges holds a (remap, a, b) per edge table: row j joins
    nodes remap[a[j]] and remap[b[j]], in no particular order, and a
    pair may repeat. a and b are the table's own columns, so the graph
    adds only a remap per table.
    """

    names: list[str] = field(default_factory=list)
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=list)

    @classmethod
    def from_edges(cls, *tables: EdgeTable) -> "CoordinationGraph":
        """The graph of every row of the tables.

        Each table's used account codes are mapped into one int32 code
        space; detector, score and evidence do not matter to the
        components, and a pair on several rows is an edge per row.
        """
        codes: dict[str, int] = {}
        edges = []
        for table in tables:
            remap = np.zeros(len(table.accounts), dtype=np.int32)
            for i in table.used().tolist():
                remap[i] = codes.setdefault(table.accounts[i], len(codes))
            edges.append((remap, table.a, table.b))
        return cls(names=list(codes), edges=edges)


@dataclass
class Cluster:
    """A connected component; labeled by its dominant hashtag."""

    id: int
    members: set[str]
    label: str = ""

    @property
    def size(self) -> int:
        return len(self.members)


# Edge rows hooked at a time by connected_components, which bounds its
# temporaries (~24 B a row) whatever the number of rows.
_COMPONENT_ROWS = 1 << 15


def connected_components(graph: CoordinationGraph) -> list[Cluster]:
    """Components sorted by size descending, ties by smallest member id;
    cluster ids are assigned in that order starting at 1.

    Union-find over arrays, _COMPONENT_ROWS edge rows at a time: label
    points every node at a node of its tree, never a larger one, and a
    root at itself. Each round finds the roots of the chunk's rows
    (_roots) and hooks the larger root of every row that joins two
    roots to the smaller one, until no row of the chunk does. Roots only
    merge, so a row inside one tree is done for good and one pass over
    the chunks finds the components; no step costs more than a chunk's
    rows until the last, which points every node at its root. Every
    root is its component's smallest code.
    """
    label = np.arange(len(graph.names), dtype=np.int32)
    for remap, a, b in graph.edges:
        for lo in range(0, len(a), _COMPONENT_ROWS):
            la = remap[a[lo : lo + _COMPONENT_ROWS]]
            lb = remap[b[lo : lo + _COMPONENT_ROWS]]
            while True:
                la, lb = _roots(label, la), _roots(label, lb)
                apart = la != lb
                if not apart.any():
                    break
                la, lb = la[apart], lb[apart]
                np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
    while True:
        jumped = label[label]
        if np.array_equal(jumped, label):
            break
        label = jumped
    groups: dict[int, set[str]] = {}
    for name, root in zip(graph.names, label.tolist()):
        groups.setdefault(root, set()).add(name)
    ordered = sorted(groups.values(), key=lambda g: (-len(g), min(g)))
    return [Cluster(id=i, members=g) for i, g in enumerate(ordered, start=1)]


def _roots(label: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The root of each of nodes. Each step points every node it passes
    at its grandparent (path halving), so later finds take fewer steps."""
    while True:
        parent = label[nodes]
        grandparent = label[parent]
        if np.array_equal(parent, grandparent):
            return parent
        label[nodes] = grandparent
        nodes = grandparent


def cluster_ids(clusters: list[Cluster], corpus: Corpus) -> np.ndarray:
    """Each corpus account code's cluster id as int32, 0 for none; a
    member the corpus lacks is left out."""
    cluster_of = np.zeros(len(corpus.account_ids), dtype=np.int32)
    code_of = corpus.code_of
    for c in clusters:
        cluster_of[[code_of[m] for m in c.members if m in code_of]] = c.id
    return cluster_of


def label_clusters(clusters: list[Cluster], corpus: Corpus) -> list[Cluster]:
    """Label each cluster with the most frequent hashtag of its members'
    original tweets, in one pass over the corpus; lexicographic
    tie-break; empty string when the members have no hashtags."""
    cluster_of = cluster_ids(clusters, corpus).tolist()
    counts: dict[int, Counter[str]] = {c.id: Counter() for c in clusters}
    for code, kind, tags in zip(corpus.account_codes, corpus.kinds, corpus.hashtag_codes):
        if kind == ORIGINAL and cluster_of[code]:
            counts[cluster_of[code]].update(corpus.hashtags[tags])
    for cluster in clusters:
        tally = counts[cluster.id]
        cluster.label = min(tally, key=lambda tag: (-tally[tag], tag)) if tally else ""
    return clusters


def coordination(corpus: Corpus, tables: list[EdgeTable]) -> tuple[list[Cluster], np.ndarray]:
    """The labeled clusters of the edge tables' graph and their
    cluster_ids, from which every report section reads membership.

    ValueError when an edge names an account the corpus lacks: the edges
    and the corpus then come from different data sets.
    """
    graph = CoordinationGraph.from_edges(*tables)
    missing = [name for name in graph.names if name not in corpus.code_of]
    if missing:
        raise ValueError(
            f"{len(missing)} accounts in the edges are not in the cache, the first "
            f"{missing[0]!r}: edges and cache must come from one corpus"
        )
    clusters = label_clusters(connected_components(graph), corpus)
    return clusters, cluster_ids(clusters, corpus)


# ---------------------------------------------------------------------------
# Interaction and activity analyses
# ---------------------------------------------------------------------------


@dataclass
class InteractionCounts:
    intra_retweets: int
    retweets_from_outside: int
    replies_from_outside: int
    intra_share: float | None
    intra_share_of_actions: float | None


def retweet_interactions(corpus: Corpus, member: np.ndarray) -> InteractionCounts:
    """Retweet/reply flows between the coordinated accounts (member, a
    bool per account code) and everyone else.

    intra_share divides intra-coordinated retweets by all retweets of
    coordinated-account content; intra_share_of_actions divides by all
    retweets that coordinated accounts performed. A reply counts as
    "from outside" when a non-coordinated author mentions a coordinated
    account (records carry no explicit reply target).
    """
    # each distinct target and mention list decided once, then gathered
    # by code; is_in at -1 and target_in at -1 (no target) read False
    is_in = member.tolist() + [False]
    code_of = corpus.code_of
    target_in = np.array(
        [is_in[code_of.get(t, -1)] for t in corpus.retweeted_account_ids] + [False], dtype=bool
    )
    mentions_in = np.array(
        [any(is_in[code_of.get(m, -1)] for m in ms) for ms in corpus.mentions], dtype=bool
    )
    kinds = np.asarray(corpus.kinds)
    author_in = member[corpus.account_codes]
    retweets = kinds == RETWEET
    of_in = retweets & target_in[corpus.retweeted_account_codes]
    intra = int((of_in & author_in).sum())
    outside_retweets = int((of_in & ~author_in).sum())
    coordinated_actions = int((retweets & author_in).sum())
    outside_replies = int(((kinds == REPLY) & ~author_in & mentions_in[corpus.mention_codes]).sum())
    of_content = intra + outside_retweets
    return InteractionCounts(
        intra_retweets=intra,
        retweets_from_outside=outside_retweets,
        replies_from_outside=outside_replies,
        intra_share=(intra / of_content) if of_content else None,
        intra_share_of_actions=(intra / coordinated_actions) if coordinated_actions else None,
    )


def activity_shares(
    corpus: Corpus, member: np.ndarray
) -> list[tuple[str, dict[str, float | None]]]:
    """Per day and kind: coordinated-authored count / total count, where
    member is a bool per account code.

    Days with no records of a kind yield None for that kind.
    """
    day_kinds = list(zip(corpus.day_codes(), corpus.kinds))
    totals = Counter(day_kinds)
    coord = Counter(compress(day_kinds, member[corpus.account_codes].tolist()))
    out = []
    # Day codes sort like the YYYY-MM-DD days they render as.
    for day in sorted({day for day, _ in totals}):
        shares = {}
        for code, kind in enumerate(KINDS):
            total = totals[day, code]
            shares[kind] = (coord[day, code] / total) if total else None
        out.append((day_of_timestamp(day * SECONDS_PER_DAY), shares))
    return out


def duplicate_shares(
    corpus: Corpus, scope: str = "account"
) -> dict[str, tuple[float | None, int]]:
    """Fraction of each account's original tweets that are duplicates.

    scope="account": a tweet is a duplicate when the same account posted
    the same normalized text at least twice. scope="corpus": the
    normalized text appears at least twice among all original tweets.
    Accounts with no originals report None.
    """
    if scope not in DUPLICATE_SCOPES:
        raise ValueError(f"unknown duplicate scope: {scope!r}")
    originals = np.asarray(corpus.kinds) == ORIGINAL
    account = np.asarray(corpus.account_codes, dtype=np.int64)[originals]
    used, text = np.unique(np.asarray(corpus.text_codes)[originals], return_inverse=True)
    # each text code an original uses is normalized once, and its class
    # is the index of its normalized text
    class_of: dict[str, int] = {}
    text_class = [
        class_of.setdefault(normalize_text(corpus.texts[code]), len(class_of))
        for code in used.tolist()
    ]
    classes = np.array(text_class, dtype=np.int64)[text]
    keys = classes if scope == "corpus" else account * len(class_of) + classes
    _, key, counts = np.unique(keys, return_inverse=True, return_counts=True)
    n = len(corpus.account_ids)
    totals = np.bincount(account, minlength=n).tolist()
    dups = np.bincount(account[counts[key] >= 2], minlength=n).tolist()
    out: dict[str, tuple[float | None, int]] = {}
    for name, total, dup in sorted(zip(corpus.account_ids, totals, dups)):
        out[name] = (dup / total, total) if total else (None, 0)
    return out
