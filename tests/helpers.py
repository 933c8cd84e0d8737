"""Record builders shared across test modules."""

import json
import os
from pathlib import Path

import coordnet
from coordnet.corpus import Corpus, TweetRecord

BASE_TS = 1493632800  # 2017-05-01T10:00:00Z


def rec(
    tweet_id,
    account,
    ts=BASE_TS,
    kind="original",
    text="",
    hashtags=(),
    language="und",
    rt_id=None,
    rt_account=None,
    mentions=(),
):
    if kind == "retweet" and rt_id is None:
        rt_id = f"src-{tweet_id}"
    return TweetRecord(
        tweet_id=str(tweet_id),
        account_id=str(account),
        timestamp=int(ts),
        kind=kind,
        text=text,
        hashtags=tuple(t.lower() for t in hashtags),
        language=language,
        retweeted_tweet_id=rt_id,
        retweeted_account_id=rt_account,
        mentions=tuple(mentions),
    )


def corpus_of(*records):
    return Corpus(list(records))


def jsonl_line(**kwargs):
    kwargs.setdefault("text", "")
    return json.dumps(kwargs)


def subprocess_env():
    """os.environ with PYTHONPATH leading to the coordnet under test, so a
    child interpreter imports it whether or not PYTHONPATH was set."""
    src = str(Path(coordnet.__file__).resolve().parents[1])
    parts = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(parts))
