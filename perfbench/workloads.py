"""Seeded corpus generators for the pipeline benchmark.

Each workload turns a seed into a JSONL corpus (the only thing the
program sees), a ground-truth sidecar (planted groups and expected
counts, read only by the benchmark) and the list of CLI stages to run.
The same seed always gives byte-identical files.

Sizes are fixed per workload and only identities, timestamps and draws
depend on the seed, so the work a corpus costs barely moves from seed to
seed. The shapes rest on the detector defaults: retweet_min = 10,
time_min = 10, time_bin_minutes = 30, time_threshold = 0.99,
retweet_top_frac = 0.005, hashtag_k = 5 and top_clusters = 5.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

BASE_TS = 1_704_067_200  # 2024-01-01T00:00:00Z
DAY = 86_400
BIN = 1_800  # time_bin_minutes = 30
HASHTAG_K = 5
RETWEET_TOP_FRAC = 0.005
STORY_HASHTAGS = "tag0,tag1"

# Phrases of the built-in lexicon, by language ("und" phrases match any).
PHRASES = {
    "en": (
        "vote for", "support", "never vote", "honest", "corrupt", "liar", "scandal",
        "economy", "unemployment", "taxes", "terrorism", "attack", "church", "border",
        "migrants", "nato", "russia", "kremlin", "sovereignty", "climate", "hoax",
        "fake news", "propaganda", "democracy", "hate", "disgusting", "ashamed",
        "love", "bravo", "admire", "hope", "optimistic", "happy", "proud", "afraid",
        "catastrophe", "lol", "hilarious", "thank you", "welcome", "sad", "awful",
    ),
    "fr": (
        "votez pour", "votez", "soutenez", "ne votez pas", "honnête", "corrompu",
        "menteur", "scandal", "économie", "chômage", "taxes", "terrorisme", "attentat",
        "laïcité", "frontière", "migrants", "otan", "russie", "kremlin", "souveraineté",
        "climat", "désinformation", "propaganda", "démocratie", "haine", "honte",
        "honteux", "bravo", "magnifique", "espoir", "heureux", "joie", "fier",
        "fierté", "peur", "catastrophe", "mdr", "merci", "triste",
    ),
}
FILLER = {
    "en": ("the", "people", "today", "we", "must", "our", "city", "news", "now",
           "again", "tomorrow", "why", "this", "all", "see", "read"),
    "fr": ("le", "peuple", "aujourd'hui", "nous", "devons", "notre", "ville",
           "nouvelles", "maintenant", "encore", "demain", "pourquoi", "tout", "voir"),
}


class Corpus:
    """Accumulates records; tweet ids are assigned in generation order."""

    def __init__(self, rng: np.random.Generator, n_accounts: int):
        self.rng = rng
        self.records: list[dict] = []
        width = len(str(n_accounts * 10))
        # seeded ids, so planted status and id order are unrelated
        self.account_ids = [
            f"u{int(x):0{width}d}"
            for x in rng.choice(n_accounts * 10, size=n_accounts, replace=False)
        ]

    def add(self, account: int, ts: int, kind: str, **fields) -> str:
        tid = f"t{len(self.records):08d}"
        rec = {
            "tweet_id": tid,
            "account_id": self.account_ids[account],
            "timestamp": int(ts),
            "kind": kind,
        }
        rec.update(fields)
        self.records.append(rec)
        return tid

    def text(self, language: str) -> str:
        lang = language if language in PHRASES else "en"
        rng = self.rng
        words = [str(w) for w in rng.choice(FILLER[lang], size=int(rng.integers(3, 8)))]
        for phrase in rng.choice(PHRASES[lang], size=int(rng.integers(1, 3))):
            words.insert(int(rng.integers(0, len(words) + 1)), str(phrase))
        return " ".join(words)

    def language(self) -> str:
        return str(self.rng.choice(("en", "fr", "und"), p=(0.6, 0.35, 0.05)))

    def tags(self, pool: int, most: int = HASHTAG_K - 1) -> list[str]:
        """Background hashtags: too few for a k-gram, so no hashtag edges."""
        n = int(self.rng.integers(0, most + 1))
        return [f"tag{int(t)}" for t in self.rng.choice(pool, size=n, replace=False)]

    def write(self, path: Path) -> None:
        order = sorted(range(len(self.records)), key=lambda i: self.records[i]["timestamp"])
        with open(path, "w", encoding="utf-8") as fp:
            for i in order:
                fp.write(json.dumps(self.records[i], ensure_ascii=False, separators=(",", ":")))
                fp.write("\n")

    def ids(self, accounts) -> list[str]:
        return sorted(self.account_ids[a] for a in accounts)


def _group_tags(group: int) -> list[str]:
    return [f"g{group}k{j}" for j in range(HASHTAG_K)]


def _ring_size(n_eligible: int) -> int:
    """Smallest ring whose pairs fill the retweet detector's top fraction.

    The ring's identical retweet vectors tie at the highest cosine, so
    when its pairs outnumber the top retweet_top_frac of all candidate
    pairs the detector flags exactly the ring.
    """
    need = math.ceil(RETWEET_TOP_FRAC * math.comb(n_eligible, 2) * 1.05) + 1
    g = 2
    while math.comb(g, 2) < need:
        g += 1
    return g


# ---------------------------------------------------------------------------
# detect-dense
# ---------------------------------------------------------------------------


def detect_dense(rng: np.random.Generator, accounts: int = 1300) -> tuple[Corpus, dict]:
    """Every account is eligible for both vector detectors.

    Retweets come from a shared Zipf pool and all tweets fall into a few
    busy hours, so almost every account pair shares a retweeted id and a
    time bin: both detectors decode ~C(n, 2) candidate pairs. Planted: a
    lockstep group with identical time-bin counts (cosine ~1 > 0.99) and
    a retweet ring with identical retweet multisets over a private pool.
    """
    c = Corpus(rng, accounts)
    retweets, originals = 14, 4
    busy_bins = BASE_TS + BIN * np.sort(rng.choice(4 * 48, size=24, replace=False))
    pool = 3000
    zipf = 1.0 / np.arange(1, pool + 1) ** 1.1
    zipf /= zipf.sum()
    sources = int(accounts // 20)

    ring_n = _ring_size(accounts)
    order = rng.permutation(accounts)
    ring = order[:ring_n]
    lockstep = order[ring_n : ring_n + 12]
    ring_set = set(ring.tolist())
    ring_pick = rng.choice(200, size=retweets, replace=True)
    lock_bins = rng.choice(busy_bins, size=retweets + originals)

    lockstep_set = set(lockstep.tolist())
    for a in range(accounts):
        if a in lockstep_set:
            bins = lock_bins
        else:
            bins = rng.choice(busy_bins, size=retweets + originals)
        stamps = bins + rng.integers(0, BIN, size=bins.size)
        if a in ring_set:
            picks = [f"ring{int(i)}" for i in ring_pick]
        else:
            picks = [f"pool{int(i)}" for i in rng.choice(pool, size=retweets, p=zipf)]
        for ts, rt_id in zip(stamps[:retweets], picks):
            c.add(a, ts, "retweet", retweeted_tweet_id=rt_id,
                  retweeted_account_id=c.account_ids[int(rng.integers(0, sources))],
                  language="en", text="")
        for ts in stamps[retweets:]:
            lang = c.language()
            c.add(a, ts, "original", text=c.text(lang), language=lang,
                  hashtags=c.tags(50))

    truth = {
        "clusters": [c.ids(ring), c.ids(lockstep)],
        "flagged": {"retweet": c.ids(ring), "time": c.ids(lockstep)},
        "edges": {
            "hashtag": 0,
            "retweet": math.comb(ring_n, 2),
            "time": math.comb(len(lockstep), 2),
        },
    }
    return c, truth


# ---------------------------------------------------------------------------
# report-full and hashtag-burst
# ---------------------------------------------------------------------------


def _background(c: Corpus, accounts, span_days: int, max_tweets: int,
                kinds=(0.55, 0.15, 0.30), duplicate_frac: float = 0.2) -> None:
    """Accounts below the vector thresholds: at most max_tweets tweets."""
    rng = c.rng
    originals: list[tuple[str, str]] = []
    for a in accounts:
        n = int(rng.integers(1, max_tweets + 1))
        lang = c.language()
        repeat = c.text(lang) if rng.random() < duplicate_frac else None
        for _ in range(n):
            ts = BASE_TS + int(rng.integers(0, span_days * DAY))
            kind = str(rng.choice(("original", "reply", "retweet"), p=kinds))
            if kind == "retweet" and originals:
                src_id, src_acct = originals[int(rng.integers(0, len(originals)))]
                c.add(a, ts, "retweet", retweeted_tweet_id=src_id,
                      retweeted_account_id=src_acct, language=lang, text="")
                continue
            if kind == "reply":
                other = c.account_ids[int(rng.integers(0, len(c.account_ids)))]
                c.add(a, ts, "reply", text=f"@{other} " + c.text(lang),
                      language=lang, mentions=[other])
                continue
            text = repeat if repeat is not None and rng.random() < 0.5 else c.text(lang)
            tid = c.add(a, ts, "original", text=text, language=lang,
                        hashtags=c.tags(200))
            originals.append((tid, c.account_ids[a]))


def _eligible_few(c: Corpus, accounts, span_days: int) -> None:
    """A handful of accounts just above retweet_min and time_min, so the
    vector detectors run but find little."""
    rng = c.rng
    for a in accounts:
        for _ in range(12):
            ts = BASE_TS + int(rng.integers(0, span_days * DAY))
            c.add(a, ts, "retweet", retweeted_tweet_id=f"pool{int(rng.integers(0, 40))}",
                  retweeted_account_id=c.account_ids[0], language="en", text="")


def _hashtag_groups(c: Corpus, groups, span_days: int) -> list[list[str]]:
    """Each group's members post its private hashtag k-gram."""
    rng = c.rng
    planted = []
    for g, members in enumerate(groups):
        tags = _group_tags(g)
        for a in members:
            for _ in range(int(rng.integers(1, 3))):
                ts = BASE_TS + int(rng.integers(0, span_days * DAY))
                lang = c.language()
                c.add(a, ts, "original", text=c.text(lang) + " #" + " #".join(tags),
                      language=lang, hashtags=tags)
        planted.append(c.ids(members))
    return planted


def report_full(rng: np.random.Generator, accounts: int = 750) -> tuple[Corpus, dict]:
    """Many small accounts over six weeks; text hits the lexicon.

    Almost no account reaches the vector thresholds, so the kernel idles.
    top_clusters + 1 hashtag groups of distinct sizes fill every
    per-cluster scope of the deltas and daily-confidence artifacts.
    """
    c = Corpus(rng, accounts)
    span = 42
    sizes = (14, 11, 9, 7, 5, 4)  # top_clusters + 1 groups, all larger than chance clusters
    order = rng.permutation(accounts).tolist()
    groups, pos = [], 0
    for s in sizes:
        groups.append(order[pos : pos + s])
        pos += s
    eligible = order[pos : pos + 6]
    _background(c, order, span, max_tweets=6)
    planted = _hashtag_groups(c, groups, span)
    _eligible_few(c, eligible, span)
    truth = {
        "clusters": planted,
        "flagged": {},
        "edges": {"hashtag": sum(math.comb(s, 2) for s in sizes), "time": 0},
    }
    return c, truth


# ---------------------------------------------------------------------------
# hashtag-burst
# ---------------------------------------------------------------------------


def hashtag_burst(rng: np.random.Generator, burst: int = 700) -> tuple[Corpus, dict]:
    """One hashtag k-gram shared by a large group plus many small groups.

    The hashtag detector writes C(m, 2) edges per k-gram; cluster and
    report read them all back. The corpus is heavy in originals and
    only a few accounts are eligible for the vector detectors.
    """
    small = [3 + i % 6 for i in range(120)]
    background = 900
    accounts = burst + sum(small) + background
    c = Corpus(rng, accounts)
    span = 14
    order = rng.permutation(accounts).tolist()
    groups = [order[:burst]]
    pos = burst
    for s in small:
        groups.append(order[pos : pos + s])
        pos += s
    rest = order[pos:]
    _background(c, order, span, max_tweets=4, kinds=(0.8, 0.1, 0.1))
    planted = _hashtag_groups(c, groups, span)
    _eligible_few(c, rest[:20], span)
    truth = {
        "clusters": planted,
        "flagged": {"hashtag": sorted(a for group in planted for a in group)},
        "edges": {
            "hashtag": sum(math.comb(len(g), 2) for g in groups),
            "time": 0,
        },
    }
    return c, truth


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


def _stages(confidences: bool) -> list[tuple[str, list[str]]]:
    """CLI argv per stage, relative to the run's work directory."""
    stages = [
        ("ingest", ["ingest", "../input.jsonl", "-o", "cache.jsonl"]),
        ("detect", ["detect", "cache.jsonl", "-o", "det"]),
        ("cluster", ["cluster", "cache.jsonl", "det/edges_hashtag.csv",
                     "det/edges_retweet.csv", "det/edges_time.csv", "-o", "clusters.csv"]),
    ]
    report = ["report", "cache.jsonl", "-o", "bundle", "--edges", "det",
              "--story-hashtags", STORY_HASHTAGS]
    if confidences:
        stages.append(("score", ["score", "cache.jsonl", "-o", "confidences.csv"]))
        report += ["--confidences", "confidences.csv"]
    stages.append(("report", report))
    return stages


WORKLOADS = {
    "detect-dense": {
        "make": detect_dense,
        "stages": _stages(confidences=False),
        "why": "kernels and the postings build and pair decode in detectors do most "
               "of the work; the time detector keeps almost none of its candidates",
    },
    "report-full": {
        "make": report_full,
        "stages": _stages(confidences=True),
        "why": "sociolinguistics, the stats bootstrap and the per-day report "
               "aggregates do most of the work while kernels stay idle",
    },
    "hashtag-burst": {
        "make": hashtag_burst,
        "stages": _stages(confidences=False),
        "why": "C(m,2) hashtag edges are written once and read back twice, "
               "so formats and graph union-find dominate",
    },
}

# Output files whose bytes must repeat across runs of one commit and seed.
DETERMINISTIC = (
    "det/edges_hashtag.csv",
    "det/edges_retweet.csv",
    "det/edges_time.csv",
    "clusters.csv",
    "bundle",
)
MANIFESTS = (
    "cache.jsonl.manifest.json",
    "det/detect.manifest.json",
    "confidences.csv.manifest.json",
    "bundle/manifest.json",
)


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write input.jsonl and truth.json into workdir; return the truth."""
    spec = WORKLOADS[workload]
    rng = np.random.Generator(np.random.PCG64(seed))
    corpus, truth = spec["make"](rng)
    workdir.mkdir(parents=True, exist_ok=True)
    corpus.write(workdir / "input.jsonl")
    truth.update(
        workload=workload,
        seed=seed,
        records=len(corpus.records),
        accounts=len({r["account_id"] for r in corpus.records}),
    )
    with open(workdir / "truth.json", "w", encoding="utf-8") as fp:
        json.dump(truth, fp, sort_keys=True)
    return truth
