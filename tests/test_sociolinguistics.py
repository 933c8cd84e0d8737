"""Characteristic registry, confidence tables, lexicon scoring."""

import csv
import io
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordnet.corpus import normalize_text, parse_corpus
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

from helpers import corpus_of, rec, record_to_json, table_row


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


def oracle_load_confidences(text):
    """(tweet_ids, matrix, missing_values) or the TableError message, by
    one float() per cell in file order, the loop load_confidences
    replaces with a bulk parse."""
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    columns = [canonical_name(c) for c in next(reader)[1:]]
    ids, rows, seen, missing = [], [], set(), 0
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns) + 1:
            return f"row {line_no}: expected {len(columns) + 1} fields, got {len(row)}"
        if row[0] in seen:
            return f"row {line_no}: duplicate tweet_id {row[0]!r}"
        seen.add(row[0])
        values = [0.0] * N_CHARACTERISTICS
        for name, cell in zip(columns, row[1:]):
            if cell.strip() == "":
                missing += 1
                continue
            try:
                v = float(cell)
            except ValueError:
                return f"row {line_no}, column {name}: not a number: {cell!r}"
            if not 0.0 <= v <= 1.0:
                return f"row {line_no}, column {name}: value {v} outside [0, 1]"
            values[characteristic_index(name)] = v
        ids.append(row[0])
        rows.append(values)
    return ids, np.array(rows, dtype=np.float64).reshape(-1, N_CHARACTERISTICS), missing


def load_or_message(text):
    try:
        table = load_confidences(io.StringIO(text, newline=""))
    except TableError as exc:
        return str(exc)
    return table.tweet_ids, table.matrix, table.missing_values


def assert_same_load(text):
    got, want = load_or_message(text), oracle_load_confidences(text)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, tuple), got
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].shape == want[1].shape and got[1].flags["C_CONTIGUOUS"]
        assert got[1].tobytes() == want[1].tobytes()  # -0.0 stays -0.0


# cells float() reads with a twist, cells it refuses, and out-of-range ones
CELLS = ["0.25", "1", "0", "1_0", " 0.5 ", "", "  ", "nan", "inf", "-inf", "-0.0",
         "1e-1", "1.5", "-0.1", "abc", "0x1", "\u2003"]
IN_RANGE = ["0.25", "1", "0", " 0.5 ", "-0.0", "1e-1", "0.75"]


def conf_text(columns, rows):
    lines = ["tweet_id," + ",".join(columns)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


class TestLoadConfidencesBulk:
    def test_named_cells_match_per_cell_oracle(self):
        columns = list(CHARACTERISTICS)
        rnd = random.Random(9)
        clean = [f"t{i}" for i in range(4)]

        def row(tid, cells):
            return [tid] + cells + [rnd.choice(IN_RANGE) for _ in range(N_CHARACTERISTICS - len(cells))]

        for cell in CELLS:
            # the cell alone in a row, then the same cell after clean rows
            # and before a row holding another error
            assert_same_load(conf_text(columns, [row("t0", [cell])]))
            rows = [row(t, []) for t in clean] + [row("x", ["0.5", cell]), row("y", ["abc"])]
            assert_same_load(conf_text(columns, rows))
        # several error kinds on several rows: the first in file order wins
        rows = [row("a", ["1_0"]), row("b", ["", "nan"]), row("c", ["abc"])]
        assert_same_load(conf_text(columns, rows))
        rows = [row("a", ["0.5", "inf"]), row("a", [])]
        assert_same_load(conf_text(columns, rows))
        rows = [row("a", ["0.5", "1.5"]), ["b", "0.5"]]
        assert_same_load(conf_text(columns, rows))

    @settings(max_examples=150, deadline=None)
    @given(
        st.permutations(list(CHARACTERISTICS)),
        st.lists(
            st.tuples(
                st.sampled_from(["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"]),
                st.lists(st.sampled_from(CELLS + IN_RANGE * 4), min_size=N_CHARACTERISTICS,
                         max_size=N_CHARACTERISTICS),
                st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]),
            ),
            max_size=8,
        ),
    )
    def test_random_files_match_per_cell_oracle(self, columns, rows):
        lines = []
        for tid, cells, width in rows:
            cells = cells[: len(cells) + width] if width < 0 else cells + ["0"] * width
            lines.append([tid] + cells)
        assert_same_load(conf_text(columns, lines))


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
        # ingest keeps the first record of a tweet_id; score rows follow the corpus
        records = [rec(1, "a", text="taxes"), rec(2, "a"), rec(1, "b", text="hope")]
        corpus = parse_corpus(map(record_to_json, records))
        table = score_corpus(corpus, builtin_lexicon())
        assert corpus.skip_reasons == {"duplicate_tweet_id": 1}
        assert table.tweet_ids == ["1", "2"]
        kept = score_corpus(corpus_of(*records[:2]), builtin_lexicon())
        assert table.matrix.tobytes() == kept.matrix.tobytes()


def oracle_score_text(text, language, lexicon):
    """_score_text without the substring prefilter: every applicable
    entry runs its pattern."""
    text = normalize_text(text, strip_punct_nonascii=False)
    miss = np.ones(N_CHARACTERISTICS, dtype=np.float64)
    for e in lexicon.entries:
        if e.language is not None and e.language != language:
            continue
        hits = len(re.findall(r"(?<!\w)" + re.escape(e.phrase) + r"(?!\w)", text))
        if hits:
            miss[characteristic_index(e.characteristic)] *= (1.0 - e.weight) ** hits
    return 1.0 - miss


PREFILTER_LEXICON = Lexicon(
    [
        LexiconEntry("economy", "tax", 0.5),
        LexiconEntry("economy", "taxes", 0.3, language="en"),
        LexiconEntry("economy", "impôt", 0.4, language="fr"),
        LexiconEntry("democracy", "vote", 0.6),
        LexiconEntry("democracy", "vote for", 0.2),
        LexiconEntry("democracy", "a.b", 0.7),
        LexiconEntry("democracy", "c++", 0.35),
        LexiconEntry("misinformation", "(fake)", 0.45),
        LexiconEntry("misinformation", "fake", 0.15, language="en"),
        LexiconEntry("religion", "église", 0.25, language="fr"),
        LexiconEntry("religion", "é", 0.05),
        LexiconEntry("optimism_hope", "naïve", 0.65),
        LexiconEntry("optimism_hope", "x|y", 0.55),
        LexiconEntry("optimism_hope", "$5", 0.3),
    ]
)
# every phrase, with neighbours that hold it inside a longer word or
# satisfy its regex metacharacters without being it
TOKENS = [e.phrase for e in PREFILTER_LEXICON.entries] + [
    "taxes", "taxation", "surtax", "voters", "devote", "aXb", "a-b", "c+", "c+++",
    "fake)", "(fake", "FAKE", "églises", "ée", "e\u0301", "naive", "NAÏVE", "x", "y", "xy",
    "$", "55", "#tax", "@vote", "https://t.co/tax", "Impôts", "IMPÔT",
]


class TestScorerPrefilter:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(TOKENS), st.sampled_from([" ", "", "-", ".", "_", "\n", "é"])),
            max_size=12,
        ),
        st.sampled_from(["en", "fr", "und", "de"]),
    )
    def test_same_bits_as_without_prefilter(self, parts, language):
        text = "".join(token + sep for token, sep in parts)
        for lexicon in (PREFILTER_LEXICON, builtin_lexicon()):
            got = _score_text(text, language, lexicon)
            assert got.tobytes() == oracle_score_text(text, language, lexicon).tobytes()

    def test_examples_hit_the_tricky_shapes(self):
        cases = {
            ("a.b and aXb", "und"): ("democracy", 0.7),
            ("c++ c+", "und"): ("democracy", 0.35),
            ("surtax taxation", "und"): ("economy", 0.0),
            ("église églises", "fr"): ("religion", 0.25),
            ("église", "en"): ("religion", 0.0),
        }
        for (text, language), (name, expected) in cases.items():
            got = _score_text(text, language, PREFILTER_LEXICON)
            assert got.tobytes() == oracle_score_text(text, language, PREFILTER_LEXICON).tobytes()
            assert got[characteristic_index(name)] == pytest.approx(expected)


class TestBinarize:
    def test_examples(self):
        table = load_confidences(
            conf_csv([("t0", [0.8] + [0.5] + [0.49] + [0.0] * (N_CHARACTERISTICS - 3))])
        )
        row = binarize(table, 0.5)[0]  # the label matrix, row for row
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
                l_low = binarize(t_low, threshold)[0]
                l_high = binarize(t_high, threshold)[0]
                assert np.all(l_high >= l_low)
