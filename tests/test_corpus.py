"""Corpus parsing, normalization, and indexing."""

import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordnet.corpus import (
    CorpusError,
    _normalize_pass,
    daily_volume,
    day_of_timestamp,
    normalize_text,
    parse_corpus,
    parse_timestamp,
)

from helpers import BASE_TS, corpus_of, jsonl_line, parse_one, rec, record_to_json, records_of

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
        assert corpus.account_ids == []
        assert corpus.day_codes() == []

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
        assert len(ten_record_corpus.account_ids) == 2
        assert len(set(ten_record_corpus.day_codes())) == 2
        # each record carries exactly one account code
        codes = ten_record_corpus.account_codes
        assert len(codes) == 10
        assert codes.count(ten_record_corpus.code_of["acct-a"]) == 5

    def test_hashtags_lowercased_in_order(self):
        r = parse_one(VALID)
        assert r.hashtags == ("a", "b")

    def test_unknown_fields_ignored(self):
        r = parse_one(
            jsonl_line(
                tweet_id="t", account_id="a", timestamp=0, kind="original", extra_field=1
            )
        )
        assert r.tweet_id == "t"

    def test_retweet_requires_target_id(self):
        with pytest.raises(CorpusError, match="retweeted_tweet_id"):
            parse_one(jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="retweet"))

    def test_non_retweet_rejects_target_id(self):
        with pytest.raises(CorpusError):
            parse_one(
                jsonl_line(
                    tweet_id="t",
                    account_id="a",
                    timestamp=0,
                    kind="original",
                    retweeted_tweet_id="x",
                )
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(CorpusError, match="kind"):
            parse_one(jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="quote"))

    @pytest.mark.parametrize(
        "language,expected",
        [
            (None, "und"),
            ("", "und"),
            ("fr", "fr"),
            (0, "bad_language"),
            (False, "bad_language"),
            ([], "bad_language"),
            ({}, "bad_language"),
            (0.0, "bad_language"),
            (1, "bad_language"),
            (["en"], "bad_language"),
        ],
        ids=repr,
    )
    def test_only_missing_null_or_empty_language_defaults_to_und(self, language, expected):
        line = jsonl_line(tweet_id="t", account_id="a", timestamp=0, kind="original")
        with_language = jsonl_line(
            tweet_id="t", account_id="a", timestamp=0, kind="original", language=language
        )
        for text in (with_language, line) if language is None else (with_language,):
            corpus = parse_corpus(iter([text]))
            if expected == "bad_language":
                assert len(corpus) == 0 and corpus.skip_reasons == {"bad_language": 1}
            else:
                assert corpus.languages == [expected] and corpus.skipped == 0

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
        assert parse_one(line).text == "😀"

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
            # ISO 8601 forms fromisoformat reads from Python 3.11 on
            ("2017-05-06T14:00:00+0200", 1494072000),
            ("20170506T120000Z", 1494072000),
            ("2017-05-06T12:00:00,5Z", 1494072000),  # fraction rounded down
            ("2017-W18-6T12:00:00Z", 1494072000),
            ("2017-05-06T12:00:00z", 1494072000),
            (253402300799, 253402300799),  # 9999-12-31T23:59:59Z
            # before 1970 a fraction rounds down to 1969-12-31, not up to 1970
            (-0.5, -1),
            ("-0.5", -1),
            ("1969-12-31T23:59:59.5Z", -1),
        ],
    )
    def test_forms(self, value, expected):
        assert parse_timestamp(value) == expected

    def test_day_boundary_is_utc_midnight(self):
        assert day_of_timestamp(1493683199) == "2017-05-01"  # 23:59:59Z
        assert day_of_timestamp(1493683200) == "2017-05-02"  # 00:00:00Z

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

    @pytest.mark.parametrize(
        "stamps",
        [
            # pre-1970 instants on both sides of a midnight, and 1970 itself
            [-1, -86400, -86401, 0, 86399, -3 * 86400 + 5, -1],
            # years 1 and 9999, each at both ends of its bounding day
            [-62135596800, 253402300799, -62135596800 + 86399, 253402300799 - 86399],
            # six weeks of instants in random order, days revisited
            [BASE_TS + random.Random(8).randint(-3 * 7 * 86400, 3 * 7 * 86400) for _ in range(500)],
        ],
        ids=["pre-1970", "year-bounds", "multi-day"],
    )
    def test_day_index_matches_per_record_days(self, stamps):
        # day_codes index each row's UTC day; ingest counts the distinct codes
        corpus = corpus_of(*(rec(i, f"a{i % 3}", ts) for i, ts in enumerate(stamps)))
        days = [day_of_timestamp(code * 86400) for code in corpus.day_codes()]
        assert days == [day_of_timestamp(ts) for ts in stamps]
        assert len(set(corpus.day_codes())) == len(set(days))


class TestRoundTrip:
    def test_serialize_reparse_identical(self, ten_record_corpus):
        buf = io.StringIO()
        ten_record_corpus.to_jsonl(buf)
        again = parse_corpus(io.StringIO(buf.getvalue()), strict=True)
        assert records_of(again) == records_of(ten_record_corpus)

    def test_minimal_record_round_trip(self):
        r = parse_one(jsonl_line(tweet_id="t", account_id="a", timestamp=5, kind="original"))
        assert parse_one(record_to_json(r)) == r


# The two settings, as normalize_text keyword arguments.
DEFAULT = {}
MATCH = {"strip_punct_nonascii": False}

# Hand-derived golden cases: steps applied in the fixed order
# urls -> mentions -> hashtag marks -> case -> punct/non-ascii.
GOLDEN = [
    ("Vote! http://x.co @alice", DEFAULT, "vote @user"),
    ("", DEFAULT, ""),
    ("BONJOUR", MATCH, "bonjour"),
    ("C'est l'élection! #Vote2017 vs @Bob http://t.co/x", DEFAULT, "cest llection vote2017 vs @user"),
    ("RT @a_b: sama   text", DEFAULT, "rt @user sama text"),
    ("C'est l'élection! #Vote2017 vs @Bob http://t.co/x", MATCH, "c'est l'élection! vote2017 vs @user"),
    ("über www.site.fr/x geht's", DEFAULT, "ber gehts"),
]


class TestNormalizeText:
    @pytest.mark.parametrize("text,options,expected", GOLDEN)
    def test_golden(self, text, options, expected):
        assert normalize_text(text, **options) == expected

    def test_idempotent_for_all_option_sets(self):
        rnd = random.Random(7)
        samples = [text for text, _, _ in GOLDEN] + [
            "mixed ÉÀ @User #TAG http://a.b c\u00a0d",
            "a  b\t\nc",
            "@user @user!! ##double",
        ]
        for _ in range(50):
            samples.append(
                "".join(rnd.choice("ab @#.!é:/htp2\u00a0 \n") for _ in range(rnd.randint(0, 30)))
            )
        for options in (DEFAULT, MATCH):
            for text in samples:
                once = normalize_text(text, **options)
                assert normalize_text(once, **options) == once

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.text(), st.text(alphabet="@#:/.!_ aAhHtTpPwWsS1é\u0130\u00a0\n")),
        st.booleans(),
    )
    # lowercasing exposes a URL to the second pass; stripping, a mention
    @example("HTTP://x.co/a b", False)
    @example("WWW.Site.fr b", False)
    @example("@!t b", True)
    def test_skipped_pass_equals_fixed_point(self, text, strip):
        # a first pass without "@", "http" or "www" is returned unconfirmed
        s = _normalize_pass(text, strip)
        while (again := _normalize_pass(s, strip)) != s:
            s = again
        assert normalize_text(text, strip_punct_nonascii=strip) == s


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
