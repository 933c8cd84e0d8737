"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria cover oracle
equivalence, planted-cluster recovery, statistics identities, seeded
reproducibility, ratio fixtures, byte-level pipeline determinism, the
bounded-memory scale path, and detect memory that grows with the
accounts, not with their pairs.
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


from coordnet import sociolinguistics as sl
from coordnet.cli import main
from coordnet.corpus import parse_corpus
from coordnet.detectors import DetectorConfig, detect_all, detect_hashtag_coordination
from coordnet.graph import CoordinationGraph, connected_components
from coordnet.stats import (
    bootstrap_se,
    kappa_from_table,
    mann_whitney_u,
    roc_auc,
    spearman,
)

from helpers import BASE_TS, corpus_of, edges_of, rec, record_to_json, subprocess_env
from test_detectors import oracle_hashtag_pairs, oracle_vector_pairs, random_corpus
from test_stats import oracle_exact_p, oracle_spearman, oracle_u


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
