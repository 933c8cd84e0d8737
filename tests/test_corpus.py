"""Corpus parsing, normalization, and indexing."""

import io
import itertools
import random

import pytest

from coordnet.corpus import (
    CorpusError,
    NormalizeOptions,
    daily_volume,
    normalize_text,
    parse_corpus,
    parse_line,
    parse_timestamp,
    record_to_json,
)

from helpers import BASE_TS, corpus_of, jsonl_line, rec

VALID = jsonl_line(
    tweet_id="t1",
    account_id="a1",
    timestamp="2017-05-01T10:00:00Z",
    kind="original",
    hashtags=["A", "b"],
)


class TestParsing:
    def test_empty_stream(self):
        corpus = parse_corpus(io.StringIO(""))
        assert len(corpus) == 0
        assert corpus.account_index == {}
        assert corpus.day_index == {}

    def test_lenient_skips_and_counts(self):
        lines = [
            VALID,
            "not json at all",
            jsonl_line(tweet_id="t2", account_id="a1", timestamp=BASE_TS, kind="original"),
            jsonl_line(tweet_id="t3", account_id="a2", timestamp=BASE_TS, kind="original"),
        ]
        corpus = parse_corpus(iter(lines))
        assert len(corpus) == 3
        assert corpus.skipped == 1

    def test_strict_aborts_with_line_number(self):
        lines = [VALID, '{"tweet_id": "t2"}']
        with pytest.raises(CorpusError) as err:
            parse_corpus(iter(lines), strict=True)
        assert err.value.line_no == 2
        assert "line 2" in str(err.value)

    def test_ten_record_fixture_indexes(self, ten_record_corpus):
        assert len(ten_record_corpus.account_index) == 2
        assert len(ten_record_corpus.day_index) == 2
        # each record lands in exactly one account and one day bucket
        assert sum(len(v) for v in ten_record_corpus.account_index.values()) == 10
        assert sum(len(v) for v in ten_record_corpus.day_index.values()) == 10
        assert len(ten_record_corpus.records_for_account("acct-a")) == 5

    def test_hashtags_lowercased_in_order(self):
        r = parse_line(VALID)
        assert r.hashtags == ("a", "b")

    def test_unknown_fields_ignored(self):
        r = parse_line(
            jsonl_line(
                tweet_id="t", account_id="a", timestamp=0, kind="original", extra_field=1
            )
        )
        assert r.tweet_id == "t"

    def test_retweet_requires_target_id(self):
        with pytest.raises(ValueError, match="retweeted_tweet_id"):
            parse_line(jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="retweet"))

    def test_non_retweet_rejects_target_id(self):
        with pytest.raises(ValueError):
            parse_line(
                jsonl_line(
                    tweet_id="t",
                    account_id="a",
                    timestamp=0,
                    kind="original",
                    retweeted_tweet_id="x",
                )
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_line(jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="quote"))

    def test_bad_timestamp_rejected_not_dropped(self):
        line = jsonl_line(tweet_id="t", account_id="a", timestamp="someday", kind="original")
        with pytest.raises(CorpusError):
            parse_corpus(iter([line]), strict=True)
        lenient = parse_corpus(iter([line]))
        assert lenient.skipped == 1


    @pytest.mark.parametrize("raw", ["1e300", "Infinity", '"-99999999999999"'])
    def test_unrenderable_timestamp_skipped_or_located(self, raw):
        bad = f'{{"tweet_id": "t2", "account_id": "a", "timestamp": {raw}, "kind": "original"}}'
        lenient = parse_corpus(iter([VALID, bad]))
        assert len(lenient) == 1
        assert lenient.skipped == 1
        with pytest.raises(CorpusError) as err:
            parse_corpus(iter([VALID, bad]), strict=True)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "[" * 100_000,  # nesting past the JSON decoder's recursion limit
            '{"tweet_id": "t2", "account_id": "a", "timestamp": 0, "kind": "original",'
            ' "text": "\\ud800"}',  # lone surrogate: parses, cannot be written as UTF-8
            '{"tweet_id": "t2", "account_id": "a", "timestamp": 0, "kind": "original",'
            ' "text": "\udcff"}',  # an undecodable byte, as surrogateescape keeps it
        ],
        ids=["deep-nesting", "lone-surrogate-escape", "undecodable-byte"],
    )
    def test_unwritable_line_skipped_or_located(self, bad):
        lenient = parse_corpus(iter([VALID, bad]))
        assert len(lenient) == 1
        assert lenient.skipped == 1
        with pytest.raises(CorpusError) as err:
            parse_corpus(iter([VALID, bad]), strict=True)
        assert err.value.line_no == 2

    def test_surrogate_pair_escape_accepted(self):
        line = jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="original", text="😀")
        assert "\\ud83d\\ude00" in line
        assert parse_line(line).text == "😀"

    def test_undecodable_bytes_in_file_skip_one_line(self, tmp_path):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(
            VALID.encode() + b"\n" + VALID.replace("t1", "t\xff").encode("latin-1") + b"\n"
        )
        assert parse_corpus(path).skipped == 1
        with pytest.raises(CorpusError) as err:
            parse_corpus(path, strict=True)
        assert err.value.line_no == 2


class TestTimestamps:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1493632800, 1493632800),
            ("1493632800", 1493632800),
            ("2017-05-01T10:00:00Z", 1493632800),
            ("2017-05-01T12:00:00+02:00", 1493632800),
            ("2017-05-01T10:00:00", 1493632800),  # naive treated as UTC
            ("0001-01-01T00:00:00Z", -62135596800),  # earliest renderable day
            (253402300799, 253402300799),  # 9999-12-31T23:59:59Z
        ],
    )
    def test_forms(self, value, expected):
        assert parse_timestamp(value) == expected

    def test_day_boundary_is_utc_midnight(self):
        assert rec(1, "a", 1493683199).day() == "2017-05-01"  # 23:59:59Z
        assert rec(2, "a", 1493683200).day() == "2017-05-02"  # 00:00:00Z

    @pytest.mark.parametrize(
        "value",
        [
            "someday",
            "inf",
            "nan",
            [],
            None,
            pytest.param(float("inf"), id="float-inf"),
            pytest.param(float("nan"), id="float-nan"),
            253402300800,  # 10000-01-01T00:00:00Z
            pytest.param(10**400, id="int-beyond-float"),
        ],
    )
    def test_unparseable_values_raise_value_error(self, value):
        with pytest.raises(ValueError):
            parse_timestamp(value)


class TestRoundTrip:
    def test_serialize_reparse_identical(self, ten_record_corpus):
        buf = io.StringIO()
        ten_record_corpus.to_jsonl(buf)
        again = parse_corpus(io.StringIO(buf.getvalue()), strict=True)
        assert again.records == ten_record_corpus.records

    def test_minimal_record_round_trip(self):
        r = parse_line(jsonl_line(tweet_id="t", account_id="a", timestamp=5, kind="original"))
        assert parse_line(record_to_json(r)) == r


ALL_ON = NormalizeOptions()
LOWER_ONLY = NormalizeOptions(
    strip_urls=False,
    replace_mentions=False,
    strip_hashtag_marks=False,
    lowercase=True,
    strip_punct_nonascii=False,
)

# Hand-derived golden cases: options applied in the fixed order
# urls -> mentions -> hashtag marks -> case -> punct/non-ascii.
GOLDEN = [
    ("Vote! http://x.co @alice", ALL_ON, "vote @user"),
    ("", ALL_ON, ""),
    ("BONJOUR", LOWER_ONLY, "bonjour"),
    ("C'est l'élection! #Vote2017 vs @Bob http://t.co/x", ALL_ON, "cest llection vote2017 vs @user"),
    ("RT @a_b: sama   text", ALL_ON, "rt @user sama text"),
    ("#One #Two", NormalizeOptions(strip_hashtag_marks=False), "#one #two"),
    ("über www.site.fr/x geht's", ALL_ON, "ber gehts"),
]


class TestNormalizeText:
    @pytest.mark.parametrize("text,options,expected", GOLDEN)
    def test_golden(self, text, options, expected):
        assert normalize_text(text, options) == expected

    def test_idempotent_for_all_option_sets(self):
        rnd = random.Random(7)
        samples = [text for text, _, _ in GOLDEN] + [
            "mixed ÉÀ @User #TAG http://a.b c d",
            "a  b\t\nc",
            "@user @user!! ##double",
        ]
        for _ in range(50):
            samples.append(
                "".join(rnd.choice("ab @#.!é:/htp2 \n") for _ in range(rnd.randint(0, 30)))
            )
        for flags in itertools.product([False, True], repeat=5):
            options = NormalizeOptions(*flags)
            for text in samples:
                once = normalize_text(text, options)
                assert normalize_text(once, options) == once


class TestDailyVolume:
    def test_empty(self):
        assert daily_volume(corpus_of()) == []

    def test_single_day_counts(self):
        corpus = corpus_of(
            rec(1, "a", BASE_TS, "original"),
            rec(2, "a", BASE_TS, "original"),
            rec(3, "b", BASE_TS, "retweet"),
        )
        assert daily_volume(corpus) == [
            ("2017-05-01", {"original": 2, "reply": 0, "retweet": 1})
        ]

    def test_ten_record_fixture_hand_count(self, ten_record_corpus):
        series = daily_volume(ten_record_corpus)
        assert series == [
            ("2017-05-01", {"original": 3, "reply": 1, "retweet": 1}),
            ("2017-05-02", {"original": 3, "reply": 1, "retweet": 1}),
        ]
        total = sum(sum(counts.values()) for _, counts in series)
        assert total == len(ten_record_corpus)
