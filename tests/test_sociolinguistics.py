"""Characteristic registry, confidence tables, lexicon scoring."""

import io
import random

import numpy as np
import pytest

from coordnet.sociolinguistics import (
    ATTITUDES,
    CHARACTERISTICS,
    CONCERNS,
    EMOTIONS,
    GROUP_OF,
    N_CHARACTERISTICS,
    CharacteristicTable,
    Lexicon,
    LexiconEntry,
    TableError,
    _score_text,
    binarize,
    builtin_lexicon,
    canonical_name,
    characteristic_index,
    load_confidences,
    load_lexicon,
    score_corpus,
    write_confidences,
)

from helpers import corpus_of, rec, table_row


class TestRegistry:
    def test_counts(self):
        assert len(ATTITUDES) == 4
        assert len(CONCERNS) == 10
        assert len(EMOTIONS) == 10
        assert N_CHARACTERISTICS == 24
        assert len(set(CHARACTERISTICS)) == N_CHARACTERISTICS

    def test_groups(self):
        assert GROUP_OF["vote_for"] == "attitude"
        assert GROUP_OF["economy"] == "concern"
        assert GROUP_OF["amusement"] == "emotion"

    def test_sarcasm_alias(self):
        assert canonical_name("Sarcasm") == "amusement"
        assert characteristic_index("sarcasm") == characteristic_index("amusement")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown characteristic"):
            canonical_name("vibes")


def conf_csv(rows, columns=CHARACTERISTICS):
    lines = ["tweet_id," + ",".join(columns)]
    for tid, values in rows:
        lines.append(tid + "," + ",".join(str(v) for v in values))
    return io.StringIO("\n".join(lines) + "\n")


class TestLoadConfidences:
    def test_well_formed(self):
        table = load_confidences(
            conf_csv([(f"t{i}", [0.5] * N_CHARACTERISTICS) for i in range(3)])
        )
        assert len(table) == 3
        assert table.provenance == "external"
        assert table_row(table, "t0")[0] == 0.5
        # a tweet without a row reads as zeros
        assert np.all(table.rows_at(table.row_indices(["absent"])) == 0.0)

    def test_out_of_range_names_row_and_column(self):
        values = [0.0] * N_CHARACTERISTICS
        values[characteristic_index("economy")] = 1.2
        with pytest.raises(TableError) as err:
            load_confidences(conf_csv([("t0", values)]))
        assert "row 2" in str(err.value)
        assert "economy" in str(err.value)

    def test_missing_column_lists_it(self):
        columns = [c for c in CHARACTERISTICS if c != "democracy"]
        with pytest.raises(TableError, match="missing columns: democracy"):
            load_confidences(conf_csv([("t0", [0.1] * (N_CHARACTERISTICS - 1))], columns))

    def test_unknown_column_rejected(self):
        columns = list(CHARACTERISTICS) + ["sentimentality"]
        with pytest.raises(TableError, match="unknown column"):
            load_confidences(conf_csv([("t0", [0.1] * (N_CHARACTERISTICS + 1))], columns))

    def test_duplicate_tweet_id_rejected(self):
        rows = [("t0", [0.1] * N_CHARACTERISTICS), ("t0", [0.2] * N_CHARACTERISTICS)]
        with pytest.raises(TableError, match="duplicate tweet_id"):
            load_confidences(conf_csv(rows))

    def test_column_order_free_and_alias(self):
        columns = list(reversed(CHARACTERISTICS))
        columns[columns.index("amusement")] = "sarcasm"
        values = list(np.linspace(0, 1, N_CHARACTERISTICS))
        table = load_confidences(conf_csv([("t0", values)], columns))
        assert table_row(table, "t0")[characteristic_index("amusement")] == values[
            columns.index("sarcasm")
        ]

    def test_empty_cells_default_zero_with_counter(self):
        source = io.StringIO(
            "tweet_id," + ",".join(CHARACTERISTICS) + "\n"
            + "t0," + ",".join([""] + ["0.5"] * (N_CHARACTERISTICS - 1)) + "\n"
        )
        table = load_confidences(source)
        assert table_row(table, "t0")[0] == 0.0
        assert table.missing_values == 1

    def test_round_trip_write_load(self):
        rnd = random.Random(4)
        rows = [
            (f"t{i}", [round(rnd.random(), 6) for _ in range(N_CHARACTERISTICS)])
            for i in range(5)
        ]
        table = load_confidences(conf_csv(rows))
        buf = io.StringIO()
        write_confidences(table, buf)
        again = load_confidences(io.StringIO(buf.getvalue()))
        assert np.array_equal(table.matrix, again.matrix)
        assert table.tweet_ids == again.tweet_ids

    def test_round_trip_quoted_ids(self):
        # the strict reader accepts every field the writer quotes
        ids = ['q"uote', '"', "a,b", "line\nbreak", " pad ", "é", ""]
        matrix = np.random.default_rng(5).random((len(ids), N_CHARACTERISTICS))
        buf = io.StringIO(newline="")
        write_confidences(CharacteristicTable(ids, matrix, "test"), buf)
        again = load_confidences(io.StringIO(buf.getvalue(), newline=""))
        assert again.tweet_ids == ids
        assert np.array_equal(again.matrix, matrix)

    def test_round_trip_bare_carriage_return(self):
        # a lone "\r" is quoted like "\n", so it cannot end the row
        ids = ["a\rb", "\r", "c\r\nd", "plain"]
        matrix = np.random.default_rng(6).random((len(ids), N_CHARACTERISTICS))
        buf = io.StringIO(newline="")
        write_confidences(CharacteristicTable(ids, matrix, "test"), buf)
        assert '"a\rb",' in buf.getvalue()
        again = load_confidences(io.StringIO(buf.getvalue(), newline=""))
        assert again.tweet_ids == ids
        assert np.array_equal(again.matrix, matrix)


class TestLexiconScore:
    def test_no_match_all_zero(self):
        lex = Lexicon([LexiconEntry("economy", "taxes", 0.8)])
        scores = _score_text("nothing relevant", "und", lex)
        assert np.all(scores == 0.0)

    def test_single_phrase_weight(self):
        lex = Lexicon([LexiconEntry("economy", "taxes", 0.8)])
        scores = _score_text("lower TAXES now", "und", lex)
        assert scores[characteristic_index("economy")] == pytest.approx(0.8)

    def test_noisy_or_two_phrases(self):
        lex = Lexicon(
            [
                LexiconEntry("economy", "taxes", 0.5),
                LexiconEntry("economy", "jobs", 0.5),
            ]
        )
        scores = _score_text("taxes and jobs", "und", lex)
        assert scores[characteristic_index("economy")] == pytest.approx(0.75)

    def test_repeated_phrase_counts_each_occurrence(self):
        lex = Lexicon([LexiconEntry("economy", "taxes", 0.5)])
        scores = _score_text("taxes taxes", "und", lex)
        assert scores[characteristic_index("economy")] == pytest.approx(0.75)

    def test_word_boundaries(self):
        lex = Lexicon([LexiconEntry("democracy", "vote", 0.9)])
        assert _score_text("devotee voters", "und", lex)[
            characteristic_index("democracy")
        ] == 0.0

    def test_language_tagged_phrase_filters(self):
        lex = Lexicon([LexiconEntry("economy", "taxes", 0.8, language="en")])
        assert _score_text("taxes", "en", lex)[characteristic_index("economy")] > 0
        assert _score_text("taxes", "fr", lex)[characteristic_index("economy")] == 0.0

    def test_matching_ignores_urls_and_case(self):
        lex = Lexicon([LexiconEntry("misinformation", "fake news", 0.7)])
        t = "FAKE News!! http://example.com/fake-news"
        assert _score_text(t, "und", lex)[characteristic_index("misinformation")] == pytest.approx(0.7)

    def test_word_order_insensitive_beyond_phrases(self):
        lex = Lexicon(
            [LexiconEntry("economy", "taxes", 0.6), LexiconEntry("economy", "jobs", 0.3)]
        )
        a = _score_text("taxes before jobs", "und", lex)
        b = _score_text("jobs before taxes", "und", lex)
        assert np.array_equal(a, b)

    def test_builtin_lexicon_covers_every_characteristic(self):
        lex = builtin_lexicon()
        covered = {e.characteristic for e in lex.entries}
        assert covered == set(CHARACTERISTICS)
        for e in lex.entries:
            assert 0.0 < e.weight <= 1.0

    def test_load_lexicon_validation(self):
        with pytest.raises(TableError, match="weight"):
            load_lexicon(io.StringIO("characteristic,phrase,weight\neconomy,taxes,1.5\n"))
        with pytest.raises(ValueError, match="unknown characteristic"):
            load_lexicon(io.StringIO("characteristic,phrase,weight\nmoods,taxes,0.5\n"))

    def test_score_corpus_dedups_tweet_ids(self):
        records = [rec(1, "a", text="taxes"), rec(1, "a", text="taxes")]
        table = score_corpus(corpus_of(*records), builtin_lexicon())
        assert table.tweet_ids == ["1"]


class TestBinarize:
    def test_examples(self):
        table = load_confidences(
            conf_csv([("t0", [0.8] + [0.5] + [0.49] + [0.0] * (N_CHARACTERISTICS - 3))])
        )
        labels = binarize(table, 0.5)
        row = table_row(labels, "t0")
        assert row[0] == 1.0  # 0.8 -> 1
        assert row[1] == 1.0  # boundary: >= rule
        assert row[2] == 0.0  # 0.49 -> 0

    def test_threshold_domain(self):
        table = load_confidences(conf_csv([("t0", [0.5] * N_CHARACTERISTICS)]))
        with pytest.raises(ValueError):
            binarize(table, 0.0)
        with pytest.raises(ValueError):
            binarize(table, 1.0)

    def test_monotone_in_confidence(self):
        rnd = random.Random(9)
        for _ in range(20):
            low = [rnd.random() for _ in range(N_CHARACTERISTICS)]
            high = [min(1.0, v + rnd.random() * (1 - v)) for v in low]
            t_low = load_confidences(conf_csv([("t", low)]))
            t_high = load_confidences(conf_csv([("t", high)]))
            for threshold in (0.1, 0.5, 0.9):
                l_low = table_row(binarize(t_low, threshold), "t")
                l_high = table_row(binarize(t_high, threshold), "t")
                assert np.all(l_high >= l_low)
