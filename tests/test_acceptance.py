"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria cover oracle
equivalence, planted-cluster recovery, statistics identities, seeded
reproducibility, ratio fixtures, byte-level pipeline determinism, the
bounded-memory scale path, detect memory that grows with the accounts,
not with their pairs, an edge path that holds no Python object per
edge row, account vectors that hold none per record, a cache that holds
each distinct value once, and a confidence table that holds each
distinct row once.
"""

import csv
import itertools
import json
import math
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from coordnet import formats, report
from coordnet import sociolinguistics as sl
from coordnet.cli import main
from coordnet.corpus import load_cache, parse_corpus
from coordnet.detectors import (
    DetectorConfig,
    EdgeTable,
    build_account_vectors,
    detect_all,
    detect_hashtag_coordination,
    edges_from_hashtag_index,
)
from coordnet.formats import read_edges_csv, write_edges_csv
from coordnet.graph import CoordinationGraph, connected_components
from coordnet.stats import (
    bootstrap_se,
    kappa_from_table,
    mann_whitney_u,
    roc_auc,
    spearman,
)

from helpers import (
    BASE_TS,
    corpus_of,
    edges_of,
    perfbench_workloads,
    rec,
    record_to_json,
    subprocess_env,
)
from test_detectors import oracle_hashtag_pairs, oracle_vector_pairs, random_corpus
from test_stats import oracle_exact_p, oracle_spearman, oracle_u


ROOT = Path(__file__).resolve().parents[1]


def ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Detector oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_detector_oracle_equivalence():
    rnd = random.Random(1001)
    cfg = DetectorConfig(retweet_top_frac=0.05)
    start = time.time()
    corpora = 0
    for i in range(25):
        corpus = random_corpus(rnd, n_accounts=80 + (i % 5) * 30)
        corpora += 1
        results = detect_all(corpus, cfg)
        got_hashtag = {(e.a, e.b) for e in edges_of(results["hashtag"][0])}
        assert got_hashtag == oracle_hashtag_pairs(corpus, cfg.hashtag_k)
        got_retweet = {(e.a, e.b) for e in edges_of(results["retweet"][0])}
        assert got_retweet == oracle_vector_pairs(corpus, "retweeted_id", cfg)
        got_time = {(e.a, e.b) for e in edges_of(results["time"][0])}
        assert got_time == oracle_vector_pairs(corpus, "time_bin", cfg)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    ok(1, f"{corpora} corpora, 3 detectors each match brute force, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Planted-cluster recovery
# ---------------------------------------------------------------------------


PLANTED_SIZES = (927, 309, 162, 57, 35)


def planted_cluster_corpus(n_accounts=10_000):
    """Five clusters with distinct shared 5-grams; background accounts
    never share a 5-gram (at most 4 common tags in any window)."""
    rnd = random.Random(2002)
    records = []
    tid = 0
    planted = []
    offset = 0
    for c, size in enumerate(PLANTED_SIZES):
        members = [f"acct{offset + i:05d}" for i in range(size)]
        planted.append(set(members))
        offset += size
        signature = [f"cl{c}t{j}" for j in range(5)]
        for member in members:
            tid += 1
            records.append(rec(tid, member, BASE_TS + tid, "original", hashtags=signature))
    common = [f"common{j}" for j in range(4)]
    for i in range(offset, n_accounts):
        account = f"acct{i:05d}"
        tid += 1
        if i % 3 == 0:
            # 6 tags with an account-unique middle tag: every 5-window
            # includes it, so windows are unique to this account
            tags = common[:2] + [f"uniq{i}"] + common[2:] + [f"tail{i % 7}"]
        else:
            tags = common  # only 4 tags: below the window size
        records.append(rec(tid, account, BASE_TS + tid, "original", hashtags=tags))
    rnd.shuffle(records)
    return corpus_of(*records), planted


def test_criterion_2_planted_cluster_recovery():
    start = time.time()
    corpus, planted = planted_cluster_corpus()
    edges = detect_all(corpus, enabled=["hashtag"])["hashtag"][0]
    clusters = connected_components(CoordinationGraph.from_edges(edges))
    got = [c.members for c in clusters]
    assert [len(m) for m in got] == list(PLANTED_SIZES)
    assert got == sorted(planted, key=len, reverse=True)

    # pairwise precision/recall over co-clustered account pairs
    def pair_set(groups):
        pairs = set()
        for g in groups:
            pairs.update(itertools.combinations(sorted(g), 2))
        return pairs

    predicted = pair_set(got)
    truth = pair_set(planted)
    precision = len(predicted & truth) / len(predicted)
    recall = len(predicted & truth) / len(truth)
    assert precision == 1.0 and recall == 1.0
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    ok(2, f"sizes {[c.size for c in clusters]} recovered, P=R=1.0, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Statistics kernel identities
# ---------------------------------------------------------------------------


def test_criterion_3_statistics_identities():
    rnd = random.Random(3003)

    checked_auc = 0
    while checked_auc < 1000:
        n = rnd.randint(4, 40)
        scores = [rnd.randint(0, 12) / 12.0 for _ in range(n)]
        labels = [rnd.randint(0, 1) for _ in range(n)]
        if not any(labels) or all(labels):
            continue
        pos = [s for s, l in zip(scores, labels) if l]
        neg = [s for s, l in zip(scores, labels) if not l]
        u = mann_whitney_u(pos, neg, method="normal").statistic
        auc = roc_auc(scores, labels).statistic
        assert abs(auc - u / (len(pos) * len(neg))) <= 1e-12
        checked_auc += 1

    checked_rho = 0
    for _ in range(300):
        n = rnd.randint(3, 50)
        x = [rnd.randint(0, 10) / 3.0 for _ in range(n)]
        y = [rnd.randint(0, 10) / 3.0 for _ in range(n)]
        expected = oracle_spearman(x, y)
        got = spearman(x, y).statistic
        if math.isnan(expected):
            assert got is None
            continue
        assert abs(got - expected) <= 1e-12
        checked_rho += 1

    checked_p = 0
    for n1 in range(1, 8):
        for n2 in range(1, 8):
            if n1 + n2 > 8:
                continue
            values = [float(v) for v in range(n1 + n2)]
            for combo in itertools.combinations(range(n1 + n2), n1):
                chosen = set(combo)
                a = [values[i] for i in combo]
                b = [values[i] for i in range(n1 + n2) if i not in chosen]
                res = mann_whitney_u(a, b, method="exact")
                assert res.p_value == oracle_exact_p(a, b)
                assert res.statistic == oracle_u(a, b)
                checked_p += 1

    assert kappa_from_table([[20, 5], [10, 15]]) == 0.4

    ok(
        3,
        f"AUC=U/(n1*n0) x{checked_auc}, spearman=rank-pearson x{checked_rho}, "
        f"exact MWU=enumeration x{checked_p}, kappa=0.4 exact",
    )


# ---------------------------------------------------------------------------
# 4. Bootstrap / reshuffle reproducibility
# ---------------------------------------------------------------------------


def _stats_cli(threads, tmp_path):
    data = tmp_path / "pair.csv"
    if not data.exists():
        data.write_text("v\n0\n1\n")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "coordnet.cli",
            "--seed",
            "99",
            "--threads",
            str(threads),
            "stats",
            "bootstrap",
            "--csv",
            str(data),
            "--col",
            "v",
            "--resamples",
            "10000",
        ],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_criterion_4_bootstrap_reproducibility(tmp_path):
    values = [0.0, 1.0]
    analytic = 0.5 / math.sqrt(2)

    run1 = bootstrap_se(values, b=10_000, seed=99)
    run2 = bootstrap_se(values, b=10_000, seed=99)
    assert run1 == run2  # bit-identical
    assert abs(run1 - analytic) / analytic < 0.10

    out_t1 = _stats_cli(1, tmp_path)
    out_t8 = _stats_cli(8, tmp_path)
    assert out_t1 == out_t8
    assert json.loads(out_t1)["statistic"] == run1

    ok(4, f"SE {run1:.6f} vs analytic {analytic:.6f}, bit-identical across runs and threads")


# ---------------------------------------------------------------------------
# 5. Ratio fixtures reproduced by the report bundle
# ---------------------------------------------------------------------------


N_COORD = 28
N_ACCOUNTS = 10_000
COORD_STORY = 1600
BASE_STORY = 7300
COORD_TWEETS = 2000
BASE_TWEETS = 17_500


def ratio_fixture(tmp_path):
    """Corpus with user share 28/10000, story share 1600/8900, intra
    retweet share 2/6, and a confidence table with binarized vote-for
    rates 700/2000 vs 1435/17500."""
    day = 86_400
    records = []
    coord_accounts = [f"coord{i:03d}" for i in range(N_COORD)]
    bg_accounts = [f"bg{i:05d}" for i in range(N_ACCOUNTS - N_COORD)]
    tid = 0

    def add(account, kind="original", hashtags=(), rt_id=None, rt_account=None, offset=0):
        nonlocal tid
        tid += 1
        records.append(
            rec(
                tid,
                account,
                BASE_TS + offset,
                kind,
                text=f"text {tid}",
                hashtags=hashtags,
                rt_id=rt_id,
                rt_account=rt_account,
            )
        )
        return str(tid)

    signature_ids = {}
    for i, account in enumerate(coord_accounts):
        # clusters of 18 and 10 via two distinct shared 5-grams
        sig = ["s1a", "s1b", "s1c", "s1d", "s1e"] if i < 18 else ["s2a", "s2b", "s2c", "s2d", "s2e"]
        signature_ids[account] = add(account, hashtags=sig, offset=i * 7200)

    coord_left = COORD_STORY
    while coord_left:
        for i, account in enumerate(coord_accounts):
            if not coord_left:
                break
            add(account, hashtags=["storyx"], offset=i * 7200 + coord_left * 60)
            coord_left -= 1

    # 6 retweets of coordinated content: 2 intra, 4 from outside
    add(coord_accounts[0], "retweet", rt_id=signature_ids[coord_accounts[1]], rt_account=coord_accounts[1], offset=100)
    add(coord_accounts[1], "retweet", rt_id=signature_ids[coord_accounts[0]], rt_account=coord_accounts[0], offset=200)
    for i in range(4):
        add(bg_accounts[i], "retweet", rt_id=signature_ids[coord_accounts[2]], rt_account=coord_accounts[2], offset=300 + i)

    coord_filler = COORD_TWEETS - N_COORD - COORD_STORY - 2
    for j in range(coord_filler):
        add(coord_accounts[j % N_COORD], offset=day + j * 60)

    for i, account in enumerate(bg_accounts):
        add(account, hashtags=["c1", "c2", "c3", "c4"], offset=2 * day + i)

    base_left = BASE_STORY
    while base_left:
        add(bg_accounts[base_left % len(bg_accounts)], hashtags=["storyx"], offset=3 * day + base_left)
        base_left -= 1

    base_filler = BASE_TWEETS - len(bg_accounts) - BASE_STORY - 4
    for j in range(base_filler):
        add(bg_accounts[(37 * j) % len(bg_accounts)], offset=4 * day + j)

    corpus_path = tmp_path / "ratio_corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fp:
        for r in records:
            fp.write(record_to_json(r) + "\n")

    coord_set = set(coord_accounts)
    coord_ids = [r.tweet_id for r in records if r.account_id in coord_set]
    base_ids = [r.tweet_id for r in records if r.account_id not in coord_set]
    assert len(coord_ids) == COORD_TWEETS
    assert len(base_ids) == BASE_TWEETS

    vote_col = sl.characteristic_index("vote_for")
    conf_path = tmp_path / "ratio_conf.csv"
    with open(conf_path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(("tweet_id",) + sl.CHARACTERISTICS)
        for rank, tweet_id in enumerate(coord_ids):
            row = [0.1] * sl.N_CHARACTERISTICS
            row[vote_col] = 0.9 if rank < 700 else 0.1
            writer.writerow([tweet_id] + [str(v) for v in row])
        for rank, tweet_id in enumerate(base_ids):
            row = [0.1] * sl.N_CHARACTERISTICS
            row[vote_col] = 0.9 if rank < 1435 else 0.1
            writer.writerow([tweet_id] + [str(v) for v in row])
    return corpus_path, conf_path


def test_criterion_5_ratio_fixtures(tmp_path):
    corpus_path, conf_path = ratio_fixture(tmp_path)
    cache = tmp_path / "cache.jsonl"
    det = tmp_path / "det"
    bundle = tmp_path / "bundle"
    assert main(["ingest", str(corpus_path), "-o", str(cache)]) == 0
    assert main(["detect", str(cache), "-o", str(det), "--detectors", "hashtag"]) == 0
    assert (
        main(
            [
                "report",
                str(cache),
                "-o",
                str(bundle),
                "--edges",
                str(det),
                "--confidences",
                str(conf_path),
                "--story-hashtags",
                "storyx",
            ]
        )
        == 0
    )
    summary = json.loads((bundle / "summary.json").read_text())

    assert summary["coordinated_accounts"] == N_COORD
    assert summary["total_accounts"] == N_ACCOUNTS
    assert summary["user_share"] == N_COORD / N_ACCOUNTS == 0.0028

    story = summary["story_share"]
    assert story["coordinated"] == COORD_STORY
    assert story["total"] == COORD_STORY + BASE_STORY == 8900
    assert story["share"] == COORD_STORY / 8900
    assert round(story["share"], 5) == 0.17978

    inter = summary["interactions"]
    assert inter["intra_retweets"] == 2
    assert inter["retweets_from_outside"] == 4
    assert inter["intra_share"] == 1 / 3

    rates = {
        row[0]: row
        for row in csv.reader((bundle / "binarized_rates.csv").open())
    }
    vote_row = rates["vote_for"]
    coordinated_rate = float(vote_row[1])
    baseline_rate = float(vote_row[2])
    assert coordinated_rate == 0.35
    assert baseline_rate == 0.082
    assert abs(float(vote_row[3]) - 0.268) < 1e-12

    ok(
        5,
        f"user share {summary['user_share']}, story share {story['share']:.5f}, "
        f"intra 1/3, vote-for {coordinated_rate} vs {baseline_rate}",
    )


# ---------------------------------------------------------------------------
# 6. Byte-identical pipeline determinism
# ---------------------------------------------------------------------------


def thousand_tweet_fixture(path):
    rnd = random.Random(6006)
    words = ["vote", "for", "taxes", "espoir", "russia", "merci", "lol", "climat", "peur"]
    tag_runs = [[f"r{c}{j}" for j in range(5)] for c in range(3)]
    records = []
    for i in range(1000):
        account = f"a{i % 120:03d}"
        ts = BASE_TS + rnd.randint(0, 14) * 86_400 + rnd.randint(0, 86_399)
        lang = rnd.choice(["fr", "fr", "en", "und"])
        roll = rnd.random()
        if roll < 0.25:
            records.append(
                rec(i, account, ts, "retweet", rt_id=f"t{rnd.randint(0, 60)}",
                    rt_account=f"a{rnd.randint(0, 119):03d}", language=lang)
            )
        elif roll < 0.35:
            records.append(
                rec(i, account, ts, "reply", text=" ".join(rnd.choices(words, k=4)),
                    mentions=[f"a{rnd.randint(0, 119):03d}"], language=lang)
            )
        else:
            tags = list(rnd.choice(tag_runs)) if roll < 0.45 else [f"t{rnd.randint(0, 30)}"]
            records.append(
                rec(i, account, ts, "original", text=" ".join(rnd.choices(words, k=6)),
                    hashtags=tags, language=lang)
            )
    with open(path, "w", encoding="utf-8") as fp:
        for r in records:
            fp.write(record_to_json(r) + "\n")


def run_pipeline(source, workdir, threads):
    workdir.mkdir()
    cache = workdir / "cache.jsonl"
    det = workdir / "det"
    conf = workdir / "conf.csv"
    bundle = workdir / "bundle"
    base = ["--seed", "11", "--threads", str(threads)]
    assert main(base + ["ingest", str(source), "-o", str(cache)]) == 0
    assert main(base + ["detect", str(cache), "-o", str(det)]) == 0
    assert main(base + ["cluster", str(cache), str(det / "edges_hashtag.csv"), "-o", str(workdir / "clusters.csv")]) == 0
    assert main(base + ["score", str(cache), "-o", str(conf)]) == 0
    assert (
        main(
            base
            + [
                "report",
                str(cache),
                "-o",
                str(bundle),
                "--edges",
                str(det),
                "--confidences",
                str(conf),
                "--story-hashtags",
                "r00,r01",
            ]
        )
        == 0
    )
    return workdir


def snapshot(workdir):
    out = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(workdir))] = path.read_bytes()
    return out


def test_criterion_6_pipeline_byte_determinism(tmp_path):
    source = tmp_path / "fixture.jsonl"
    thousand_tweet_fixture(source)
    runs = {
        "a": run_pipeline(source, tmp_path / "run_a", threads=1),
        "b": run_pipeline(source, tmp_path / "run_b", threads=1),
        "t8": run_pipeline(source, tmp_path / "run_t8", threads=8),
    }
    snaps = {k: snapshot(v) for k, v in runs.items()}
    assert snaps["a"].keys() == snaps["b"].keys() == snaps["t8"].keys()
    diff_ab = [k for k in snaps["a"] if snaps["a"][k] != snaps["b"][k]]
    diff_at8 = [k for k in snaps["a"] if snaps["a"][k] != snaps["t8"][k]]
    assert diff_ab == [], f"run-to-run differences: {diff_ab}"
    assert diff_at8 == [], f"threads 1 vs 8 differences: {diff_at8}"
    ok(6, f"{len(snaps['a'])} files byte-identical across reruns and threads 1 vs 8")


def test_later_copy_of_a_tweet_changes_nothing_after_ingest(tmp_path):
    source = tmp_path / "fixture.jsonl"
    thousand_tweet_fixture(source)
    with_copy = tmp_path / "with_copy.jsonl"
    # tweet 500 again, from a new account, with other text and hashtags
    tags = ["r00", "r01", "r02", "r03", "r04"]
    copy = rec(500, "dup-acct", BASE_TS, text="vote for taxes", hashtags=tags)
    with_copy.write_text(source.read_text() + record_to_json(copy) + "\n")
    plain = snapshot(run_pipeline(source, tmp_path / "plain", threads=1))
    copied = snapshot(run_pipeline(with_copy, tmp_path / "copied", threads=1))
    # the ingest manifest alone records the input and its skipped line
    ingest = "cache.jsonl.manifest.json"
    counts = json.loads(copied.pop(ingest))["counts"]
    assert counts["skipped"] == counts["skipped_duplicate_tweet_id"] == 1
    assert json.loads(plain.pop(ingest))["counts"]["records"] == counts["records"] == 1000
    assert copied.keys() == plain.keys()
    assert [k for k in plain if plain[k] != copied[k]] == []


# ---------------------------------------------------------------------------
# 7. Scale smoke test: the column path in bounded memory
# ---------------------------------------------------------------------------


SCALE_RECORDS = 5_000_000


def synthetic_lines(n):
    """JSONL stream: mostly retweets/replies, some originals with 5-tag
    runs shared by small account groups (bounded posting lists).

    Originals occur at i = 25k; group = i mod 120000 takes the 4800
    multiples of 25, and each group recurs under 5 distinct accounts
    (offsets of 120000 mod 200000 cycle through 5 values)."""
    for i in range(n):
        acct = i % 200_000
        ts = BASE_TS + (i % 2_592_000)
        if i % 25 == 0:
            group = i % 120_000
            yield (
                f'{{"tweet_id":"t{i}","account_id":"a{acct}","timestamp":{ts},'
                f'"kind":"original","text":"msg {i}","hashtags":'
                f'["g{group}a","g{group}b","g{group}c","g{group}d","g{group}e"]}}'
            )
        elif i % 5 == 0:
            yield (
                f'{{"tweet_id":"t{i}","account_id":"a{acct}","timestamp":{ts},'
                f'"kind":"reply","text":"re {i}","mentions":["a{(i * 7) % 200_000}"]}}'
            )
        else:
            yield (
                f'{{"tweet_id":"t{i}","account_id":"a{acct}","timestamp":{ts},'
                f'"kind":"retweet","text":"","retweeted_tweet_id":"t{i % 997}"}}'
            )


def test_criterion_7_scale_streaming_bounded_memory():
    # the path ingest and detect run: lines parsed into columns, then
    # the hashtag detector over the columns
    start = time.time()
    corpus = parse_corpus(synthetic_lines(SCALE_RECORDS))
    edges = detect_hashtag_coordination(corpus)
    elapsed = time.time() - start

    assert len(corpus) == SCALE_RECORDS and corpus.skipped == 0
    assert len(edges.keys) == 4800
    assert len(edges) == 4800 * 10  # C(5,2) pairs per key
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 8 * 1024 * 1024, f"peak RSS {peak_kb / 1024:.0f} MiB exceeds 8 GiB"
    ok(
        7,
        f"{SCALE_RECORDS} records parsed and detected in {elapsed:.0f}s, "
        f"{len(edges)} edges, peak RSS {peak_kb / 1024 / 1024:.2f} GiB",
    )


# ---------------------------------------------------------------------------
# 8. Detect memory grows with the accounts, not with their pairs
# ---------------------------------------------------------------------------


def dense_retweet_corpus(n_accounts, pool=40, retweets=11):
    """Every account retweets from one small shared pool within three
    hours, so almost every account pair is a candidate of both vector
    detectors: C(n, 2) candidates each."""
    rnd = random.Random(n_accounts)
    records = []
    for a in range(n_accounts):
        for _ in range(retweets):
            ts = BASE_TS + rnd.randrange(6) * 1800 + rnd.randrange(1800)
            rt_id = f"pool{rnd.randrange(pool)}"
            records.append(rec(len(records), f"acct{a:05d}", ts, "retweet", rt_id=rt_id))
    return corpus_of(*records)


def detect_peak_bytes(corpus):
    """tracemalloc peak of detect_all above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        detect_all(corpus)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_criterion_8_detect_memory_linear_in_accounts():
    n = 600
    peaks = [detect_peak_bytes(dense_retweet_corpus(size)) for size in (n, 2 * n)]
    growth = peaks[1] / peaks[0]
    # candidate pairs grow 4x; the kept pairs and the accounts' own
    # arrays may not make detect grow by much more than 2x
    assert growth <= 2.5, f"detect peak grew {growth:.2f}x for 2x the accounts"
    ok(
        8,
        f"detect peak {peaks[0] / 2**20:.1f} -> {peaks[1] / 2**20:.1f} MiB "
        f"({growth:.2f}x) for {n} -> {2 * n} eligible accounts",
    )


# ---------------------------------------------------------------------------
# 9. The edge path holds no Python object per edge row
# ---------------------------------------------------------------------------


def write_hashtag_group(m, path):
    """Write the edge file of one hashtag 5-gram shared by m accounts, a
    row per account pair; return its C(m, 2) rows and the tracemalloc
    peak of the write, above what the table holds."""
    a, b = np.triu_indices(m, 1)
    rows = len(a)
    table = EdgeTable(
        [f"acct{i:05d}" for i in range(m)], a, b,
        np.zeros(rows), np.ones(rows), ["#a|#b|#c|#d|#e"], np.zeros(rows),
    )
    with open(path, "w", encoding="utf-8", newline="") as fp:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_edges_csv(table, fp)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return rows, peak


def edge_path_peak_bytes(path, m):
    """tracemalloc peak of what cluster does with an edge file (read it,
    build the graph, find its components), above what was allocated
    before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = read_edges_csv(path)
        clusters = connected_components(CoordinationGraph.from_edges(table))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [c.size for c in clusters] == [m]
    return peak


def test_criterion_9_edge_path_memory_per_edge(tmp_path):
    sizes = (300, 600, 900)
    rows, writes = zip(*(write_hashtag_group(m, tmp_path / f"edges_{m}.csv") for m in sizes))
    peaks = [edge_path_peak_bytes(tmp_path / f"edges_{m}.csv", m) for m in sizes[:2]]
    per_edge = (peaks[1] - peaks[0]) / (rows[1] - rows[0])
    # The columns take 21 B a row, and the graph and its components add
    # temporaries of a chunk of rows only: ~21.2 B measured. Remapped
    # int32 copies of both endpoint columns, as the graph once held,
    # add 8 B (38 B measured with them); a reader of Python lists, with
    # a list slot per column and a float object per score, measured 85 B.
    assert per_edge <= 28, f"edge path peak grew {per_edge:.1f} B per edge row"
    # The writer's temporaries are a block's: its peak does not grow
    # with the table. One uint64 copy of the scores (np.unique over the
    # whole column) would add 8 B per row and more. (From 300 to 600
    # accounts the peak still rises, as more of a block's cell numbers
    # pass the cached small ints.)
    write_per_edge = (writes[2] - writes[1]) / (rows[2] - rows[1])
    assert write_per_edge <= 2, f"write peak grew {write_per_edge:.1f} B per edge row"
    ok(
        9,
        f"edge path peak {peaks[0] / 2**20:.1f} -> {peaks[1] / 2**20:.1f} MiB for "
        f"{rows[0]} -> {rows[1]} edge rows: {per_edge:.1f} B per row; "
        f"write peak {writes[1] / 2**20:.2f} -> {writes[2] / 2**20:.2f} MiB for "
        f"{rows[1]} -> {rows[2]} rows",
    )


def hashtag_build_peak_bytes(m):
    """The rows of the hashtag edges of two overlapping keys, one shared
    by m accounts and one by the last 2m/3 of them, and the tracemalloc
    peak of building them above what was allocated before."""
    names = [f"acct{i:05d}" for i in range(m)]
    index = {"#a|#b|#c|#d|#e": set(names), "#b|#c|#d|#e|#f": set(names[m // 3 :])}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = edges_from_hashtag_index(index)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return len(table), peak


def test_criterion_9_hashtag_build_memory_per_edge():
    (rows_600, peak_600), (rows_900, peak_900) = map(hashtag_build_peak_bytes, (600, 900))
    per_edge = (peak_900 - peak_600) / (rows_900 - rows_600)
    # The table takes 21 B a row; while the rows are ordered, the three
    # int32 columns, the int64 order and one gathered column make ~24.1 B
    # measured. One more int32 column alive at that point adds 4 B;
    # np.triu_indices' int64 pairs and the concatenated per-size parts
    # measured 46.2 B.
    assert per_edge <= 28, f"hashtag build peak grew {per_edge:.1f} B per edge row"
    ok(
        9,
        f"hashtag build peak {peak_600 / 2**20:.1f} -> {peak_900 / 2**20:.1f} MiB for "
        f"{rows_600} -> {rows_900} edge rows: {per_edge:.1f} B per row",
    )


def test_criterion_9_long_key_is_not_padded(tmp_path):
    # one 150,000-char key among 10,000 plain rows: a reader that padded
    # each field to its block's widest would take rows x 150,000 bytes
    lines = [f"acct{i % 97:03d},acct{i % 97 + 1:03d},hashtag,1.0,k|l\n" for i in range(10_000)]
    lines.insert(5_000, "a,b,hashtag,1.0," + "x" * 150_000 + "\n")
    path = tmp_path / "edges.csv"
    path.write_text("account_a,account_b,detector,score,evidence\n" + "".join(lines))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        table = read_edges_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 10_001 and len(table.keys) == 2
    assert peak <= 4 * size, f"read peak {peak} B for a {size} B edge file"
    ok(9, f"one 150,000-char key among 10,000 rows: read peak {peak / size:.1f}x the file's {size} B")


def test_criterion_9_block_temporaries_are_a_few_blocks(tmp_path):
    # hashtag-burst's shape: the writer's C(m, 2) rows of 6-byte ids and
    # one 24-byte key, read by the block reader a block at a time
    m = 500
    a, b = np.triu_indices(m, 1)
    written = EdgeTable(
        [f"u{i:05d}" for i in range(m)], a, b,
        np.zeros(len(a)), np.ones(len(a)), ["g0k0|g0k1|g0k2|g0k3|g0k4"], np.zeros(len(a)),
    )
    path = tmp_path / "edges.csv"
    with open(path, "w", encoding="utf-8", newline="") as fp:
        write_edges_csv(written, fp)
    blocks = path.stat().st_size / formats._READ_BYTES
    assert blocks > 20
    with open(path, "rb") as fp:
        assert formats._read_blocks(fp) is not None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = read_edges_csv(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == len(a)
    temporaries = (peak - current) / formats._READ_BYTES
    # ~2.98 blocks measured: the block, the "," scan's bool array and
    # int64 offsets, the "\n" offsets and the int32 separators. The
    # chunk a block is cut from, kept alive beside it, makes 3.98.
    assert temporaries <= 3.5, f"read temporaries {temporaries:.2f} x _READ_BYTES"
    ok(
        9,
        f"{len(table)} rows in {blocks:.0f} blocks: temporaries {temporaries:.2f} x _READ_BYTES "
        f"above the table's {(current - before) / 2**20:.2f} MiB",
    )


# ---------------------------------------------------------------------------
# 10. Account vectors hold no Python object per record
# ---------------------------------------------------------------------------


def report_full_corpus(accounts, workdir):
    """The benchmark's report-full corpus at PCG64 seed 7 with the given
    number of accounts, parsed as ingest parses it."""
    workloads = perfbench_workloads()
    generated, _ = workloads.report_full(np.random.Generator(np.random.PCG64(7)), accounts)
    generated.write(workdir / "input.jsonl")
    return parse_corpus(workdir / "input.jsonl")


def vectors_peak_bytes(corpus, term):
    """tracemalloc peak of build_account_vectors above what was allocated
    before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build_account_vectors(corpus, term)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_criterion_10_account_vectors_memory_per_record(tmp_path):
    corpora = []
    for accounts in (3000, 6000):
        (tmp_path / str(accounts)).mkdir()
        corpora.append(report_full_corpus(accounts, tmp_path / str(accounts)))
    added = len(corpora[1]) - len(corpora[0])
    details = []
    for term in ("retweeted_id", "time_bin"):
        peaks = [vectors_peak_bytes(corpus, term) for corpus in corpora]
        per_record = (peaks[1] - peaks[0]) / added
        # The columns are read through views; a record adds a mask byte
        # or two, and an account its counts: 5 B (retweet) and 11 B
        # (time) measured. Any Python object per record fails (a list
        # slot and a small int take 36 B); the per-account dicts of
        # (account, term) counts measured 90 B and 246 B.
        assert per_record <= 32, f"{term} vectors peak grew {per_record:.1f} B per record"
        details.append(f"{term} {per_record:.1f} B")
    ok(10, f"account vectors peak per added record over {added} records: " + ", ".join(details))


# ---------------------------------------------------------------------------
# 11. The cache holds each distinct value once
# ---------------------------------------------------------------------------


def detect_dense_cache(accounts, workdir):
    """The benchmark's detect-dense corpus at PCG64 seed 7 with the given
    number of accounts, ingested: (records, cache path)."""
    workloads = perfbench_workloads()
    generated, _ = workloads.detect_dense(np.random.Generator(np.random.PCG64(7)), accounts)
    generated.write(workdir / "input.jsonl")
    corpus = parse_corpus(workdir / "input.jsonl")
    with open(workdir / "cache.jsonl", "wb") as fp:
        corpus.write_cache(fp)
    return len(corpus), workdir / "cache.jsonl"


def load_cache_held_bytes(path):
    """tracemalloc bytes that load_cache's corpus holds once loaded."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = load_cache(path)
        held = tracemalloc.get_traced_memory()[0] - before
        del corpus
        return held
    finally:
        tracemalloc.stop()


def test_criterion_11_cache_bytes_and_load_memory_per_record(tmp_path):
    caches = []
    for accounts in (1300, 2600):
        (tmp_path / str(accounts)).mkdir()
        caches.append(detect_dense_cache(accounts, tmp_path / str(accounts)))
    (n0, cache0), (n1, cache1) = caches
    added = n1 - n0
    per_record = (cache1.stat().st_size - cache0.stat().st_size) / added
    # Each record writes in its block's body its timestamp, kind, tweet
    # id suffix length and seven codes, each as an offset from its
    # column's base in the fewest bytes that hold the block's offsets
    # (none for a column of one value), then its tweet id's bytes after
    # the block's common prefix; its retweet target, text and tags are
    # written once per file. 31.5 B measured; one base, for the
    # timestamps only, and whole tweet ids measured 39.4 B, int64
    # timestamps and tweet ids in the JSON header 47.4 B, codes as JSON
    # ints 59.2 B, and values written per row 73.0 B.
    assert per_record <= 35, f"cache grew {per_record:.1f} B per record"
    held = (load_cache_held_bytes(cache1) - load_cache_held_bytes(cache0)) / added
    # A 4-byte code per row in each coded column: 156.0 B measured (the
    # tweet id string dominates). An 8-byte list slot per row in six of
    # them, each pointing at a shared object, measured 178.2 B; one decoded
    # string per row and column, as a per-row cache gives, 234 B.
    assert held <= 170, f"load_cache held {held:.1f} B more per record"
    ok(11, f"per added record over {added} records: cache {per_record:.1f} B, "
           f"load_cache held {held:.1f} B")


# ---------------------------------------------------------------------------
# 12. The confidence table holds each distinct row once
# ---------------------------------------------------------------------------


def report_table_bytes(workdir):
    """(tweets, held, peak): the tracemalloc bytes held by what report
    builds from a confidence file for the cache's corpus (the loaded
    table, the per-record columns and the binarized labels), and the
    peak of the Spearman matrices above them."""
    corpus = load_cache(workdir / "cache.jsonl")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = sl.load_confidences(workdir / "confidences.csv")
        cols = report.RecordColumns(corpus, table)
        labels = sl.binarize(table, 0.5)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        report.correlation_matrices(table)
        peak = tracemalloc.get_traced_memory()[1] - before - held
        del table, cols, labels
        return len(corpus), held, peak
    finally:
        tracemalloc.stop()


def test_criterion_12_confidence_table_memory_per_tweet(tmp_path):
    measured = []
    for accounts in (3000, 6000):
        work = tmp_path / str(accounts)
        work.mkdir()
        report_full_corpus(accounts, work)
        assert main(["ingest", str(work / "input.jsonl"), "-o", str(work / "cache.jsonl")]) == 0
        assert main(["score", str(work / "cache.jsonl"), "-o", str(work / "confidences.csv")]) == 0
        measured.append(report_table_bytes(work))
    (n0, held0, peak0), (n1, held1, peak1) = measured
    held = (held1 - held0) / (n1 - n0)
    # A tweet holds its id, a 4-byte row code, its day, account and code
    # columns and an entry of the id -> code map; the ~900 distinct rows
    # and their labels do not grow with the tweets: 124.5 B measured. One
    # float64 confidence row per tweet adds 192 B, and a full-size label
    # matrix 192 B more (521.9 B measured with both).
    assert held <= 160, f"report's confidence table held {held:.1f} B more per tweet"
    peak = (peak1 - peak0) / (n1 - n0)
    # The gathered confidences and their ranks, 192 B each, and one
    # column's ranking temporaries: 416.6 B measured. Stacking the ranks
    # from a list of columns and centring and squaring them into new
    # arrays measured 770 B.
    assert peak <= 450, f"the Spearman matrices peaked {peak:.1f} B more per tweet"
    ok(12, f"per added tweet over {n1 - n0} tweets: {held:.1f} B held, "
           f"Spearman matrices peak {peak:.1f} B above it")
