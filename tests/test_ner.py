from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quizeval.evaluator import RunMetadata, RunTranscript, Verdict
from quizeval.ner import (
    EntityLexicon,
    EntityRecord,
    GazetteerExtractor,
    LexiconError,
    LlmExtractor,
    _tokens,
    entity_frequencies,
    extract_from_transcript,
    load_default_lexicon,
    normalize_name,
)

from .bruteforce import bf_entity_frequencies, bf_longest_matches, bf_tokens
from .conftest import fake_entity_reply

LEXICON = EntityLexicon(
    {
        "DISEASE": ["atherosclerosis", "myocardial infarction", "diabetes mellitus"],
        "CONDITION": ["severe occlusive", "aneurysm", "atherosclerotic aneurysm", "dissection"],
        "BODY PART": ["coronary artery", "lower abdominal aortic"],
        "ORGAN": ["heart", "liver"],
    }
)
GAZETTEER = GazetteerExtractor(LEXICON)


class TestTokens:
    @given(st.text() | st.text(st.characters() | st.characters(categories=["Cs"])))  # Cs: lone surrogates
    def test_matches_the_regex_definition(self, text):
        assert _tokens(text) == bf_tokens(text)

    @pytest.mark.parametrize("text,expected", [
        ("Straße", ["strasse"]),  # ß folds to "ss"
        ("İris", ["i", "ris"]),  # İ folds to "i" and a combining dot
        ("\u212a", ["k"]),  # the Kelvin sign folds to "k"
        ("ſ", ["s"]),
        ("ﬁbrosis", ["fibrosis"]),
        ("Sjögren", ["sj", "gren"]),
        ("caf\u00e9", ["caf"]),
        ("a\ud800b", ["a", "b"]),  # a lone surrogate
        ("\ud800", []),
        ("a\x1cb\x1dc\x1ed\x1fe", ["a", "b", "c", "d", "e"]),
        ("heart\xa0liver\x85lung", ["heart", "liver", "lung"]),  # NBSP and NEL
        ("heart\U0001f600liver", ["heart", "liver"]),
        ("HEART2, Liver-3", ["heart2", "liver", "3"]),
    ])
    def test_pinned_cases(self, text, expected):
        assert _tokens(text) == bf_tokens(text) == expected


class TestNormalization:
    @pytest.mark.parametrize("raw,expected", [
        ("atherosclerosis", "Atherosclerosis"),
        ("ATHEROSCLEROTIC   aneurysm", "Atherosclerotic Aneurysm"),
        ("  severe\tocclusive \n", "Severe Occlusive"),
        ("lower abdominal aortic", "Lower Abdominal Aortic"),
    ])
    def test_title_case_and_whitespace(self, raw, expected):
        assert normalize_name(raw) == expected


class TestGazetteer:
    def test_finds_typed_entities(self):
        found = GAZETTEER.extract(
            "resulting from severe occlusive coronary artery atherosclerosis"
        )
        assert ("CONDITION", "Severe Occlusive") in found
        assert ("BODY PART", "Coronary Artery") in found
        assert ("DISEASE", "Atherosclerosis") in found

    def test_longest_match_wins(self):
        found = GAZETTEER.extract("an atherosclerotic aneurysm of the aorta")
        assert found == [("CONDITION", "Atherosclerotic Aneurysm")]

    def test_shorter_pattern_matches_alone(self):
        assert GAZETTEER.extract("a saccular aneurysm was seen") == [("CONDITION", "Aneurysm")]

    def test_case_insensitive(self):
        assert GAZETTEER.extract("ATHEROSCLEROSIS of the HEART") == [
            ("DISEASE", "Atherosclerosis"),
            ("ORGAN", "Heart"),
        ]

    def test_matches_against_brute_force_oracle(self):
        # Random soup of pattern fragments, noise and glued words, in mixed
        # case, joined by punctuation and non-ASCII characters, checked
        # against exhaustive span enumeration over the oracle's words.
        rng = random.Random(1234)
        pattern_words = ["severe", "occlusive", "aneurysm", "atherosclerotic", "coronary",
                         "artery", "heart", "dissection", "atherosclerosis", "liver"]
        noise = ["the", "with", "of", "chronic", "acute", "seen", "shows", "patient",
                 "aneurysms", "heart2", "2heart", "liverish"]
        joins = [" ", "  ", ", ", ".", "-", "/", "\n", "\t", "\xa0", "\x85", "\x1c", "é", "ö", "—",
                 "\U0001f600", "\ud800", "ß", ""]
        cases = [str.lower, str.upper, str.title, str.swapcase]
        index = {}
        for entity_type, patterns in LEXICON.entries.items():
            for pattern in patterns:
                index[tuple(pattern.split())] = (entity_type, normalize_name(pattern))
        for _ in range(500):
            text = ""
            for _ in range(rng.randint(0, 20)):
                text += rng.choice(cases)(rng.choice(pattern_words + noise)) + rng.choice(joins)
            expected = bf_longest_matches(bf_tokens(text), index)
            assert GAZETTEER.extract(text) == expected, repr(text)

    def test_deterministic(self):
        text = "dissection after myocardial infarction in the heart"
        assert GAZETTEER.extract(text) == GAZETTEER.extract(text)


def text_at(text: str, ordinal: int, is_correct: bool) -> RunTranscript:
    """A transcript whose one non-blank analysis text is ``text``, on the
    verdict at ``ordinal``; the verdicts before it have blank texts."""
    meta = RunMetadata("m", 10, "https://example.test/x", None, "r Correct Choice:", "ts", "replay", "0" * 64)
    letter = "A" if is_correct else "B"
    verdicts = [Verdict(f"q{i}", "qz", "CV", "", None, "A", False, "", "ParseFailure") for i in range(ordinal)]
    verdicts.append(Verdict(f"q{ordinal}", "qz", "CV", "Correct Choice:" + letter, letter, "A", is_correct, text))
    return RunTranscript(run=meta, verdicts=tuple(verdicts))


class TestExtractEntities:
    def test_empty_text(self):
        seen = []

        class Recording:
            def extract(self, text):
                seen.append(text)
                return GAZETTEER.extract(text)

        assert extract_from_transcript(text_at("", 0, True), Recording()) == []
        assert extract_from_transcript(text_at("   ", 0, True), Recording()) == []
        assert seen == []

    def test_dedup_within_group(self):
        records = extract_from_transcript(text_at("aneurysm, then another aneurysm", 3, False), GAZETTEER)
        assert records == [EntityRecord("CONDITION", "Aneurysm", 3, False)]

    def test_group_and_flag_attached(self):
        records = extract_from_transcript(text_at("dissection of the heart", 7, True), GAZETTEER)
        assert all(r.group == 7 and r.from_correct for r in records)
        assert {r.entity_name for r in records} == {"Dissection", "Heart"}


class TestTranscriptExtraction:
    def make_transcript(self):
        meta = RunMetadata("m", 10, "https://example.test/x", None, "r Correct Choice:", "ts", "replay", "0" * 64)
        verdicts = (
            Verdict("q0", "qz", "CV", "shows the heart. Correct Choice:A", "A", "A", True,
                    "shows the heart. Correct Choice:A"),
            Verdict("q1", "qz", "CV", "Correct Choice:B", "B", "A", False,
                    "explains severe occlusive atherosclerosis"),
        )
        return RunTranscript(run=meta, verdicts=verdicts)

    def test_provenance_partition(self):
        records = extract_from_transcript(self.make_transcript(), GAZETTEER)
        by_group = {r.group for r in records}
        assert by_group == {0, 1}
        for record in records:
            assert record.from_correct == (record.group == 0)
        correct_names = {r.entity_name for r in records if r.from_correct}
        incorrect_names = {r.entity_name for r in records if not r.from_correct}
        assert correct_names == {"Heart"}  # from the response text
        assert incorrect_names == {"Severe Occlusive", "Atherosclerosis"}  # from the explanation

    def test_order_invariance_over_records(self):
        records = extract_from_transcript(self.make_transcript(), GAZETTEER)
        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        assert sorted(records, key=str) == sorted(shuffled, key=str)


_RECORDS = st.lists(
    st.builds(EntityRecord, st.sampled_from(["CONDITION", "ORGAN", "DISEASE"]), st.sampled_from(["A", "B", "C"]),
              st.integers(0, 5), st.booleans()),
    max_size=30,
)


class TestEntityFrequencies:
    def test_counts_groups_not_tokens(self):
        records = [
            EntityRecord("CONDITION", "Aneurysm", 0, False),
            EntityRecord("CONDITION", "Aneurysm", 1, False),
            EntityRecord("CONDITION", "Aneurysm", 1, False),  # duplicate input row
            EntityRecord("CONDITION", "Dissection", 1, False),
            EntityRecord("CONDITION", "Aneurysm", 2, True),
            EntityRecord("ORGAN", "Heart", 0, False),
        ]
        assert entity_frequencies(records)["incorrect"]["CONDITION"] == {"Aneurysm": 2, "Dissection": 1}

    def test_empty(self):
        assert entity_frequencies([]) == {"correct": {}, "incorrect": {}}

    def test_repeated_record_counts_once(self):
        record = EntityRecord("CONDITION", "Aneurysm", 5, True)
        assert entity_frequencies([record, record])["correct"]["CONDITION"] == {"Aneurysm": 1}

    @given(st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 5)), max_size=30))
    def test_counts_bounded_by_distinct_groups(self, pairs):
        records = [EntityRecord("CONDITION", name, group, True) for name, group in pairs]
        distinct_groups = len({r.group for r in records})
        for count in entity_frequencies(records)["correct"].get("CONDITION", {}).values():
            assert count <= distinct_groups

    @example([EntityRecord("CONDITION", "A", 1, False)] * 2)  # a duplicate record
    @example([EntityRecord("CONDITION", "A", 1, False), EntityRecord("ORGAN", "A", 1, False),
              EntityRecord("ORGAN", "A", 2, True)])  # one name under two types
    @example([EntityRecord("CONDITION", "A", 0, True), EntityRecord("ORGAN", "B", 1, False)])  # one branch each
    @given(_RECORDS)
    def test_one_pass_equals_a_scan_per_table(self, records):
        types = sorted({r.entity_type for r in records})
        expected = {
            branch: {t: bf_entity_frequencies(records, t, branch == "correct") for t in types}
            for branch in ("correct", "incorrect")
        }

        def in_order(tables):  # every key and count, in the order the tables hold them
            return [(branch, t, list(table.items())) for branch, by_type in tables.items() for t, table in by_type.items()]

        assert in_order(entity_frequencies(records)) == in_order(expected)


class TestSampleRunExtraction:
    def test_incorrect_branch_condition_support(self, sample_transcript):
        records = extract_from_transcript(sample_transcript, GazetteerExtractor(load_default_lexicon()))
        support = set(entity_frequencies(records)["incorrect"]["CONDITION"])
        assert support >= {
            "Severe Occlusive", "Atherosclerotic Aneurysm", "Cachexia",
            "Cystic Medial Necrosis", "Dissection", "Hyperbilirubinemia",
            "Malignancy", "Squamous Metaplasia", "Fluid Collection",
            "Friction Blister", "Recurrence",
        }

    def test_provenance_partition_on_sample(self, sample_transcript):
        records = extract_from_transcript(sample_transcript, GazetteerExtractor(load_default_lexicon()))
        for record in records:
            assert record.from_correct == sample_transcript.verdicts[record.group].is_correct


class TestLexicon:
    def test_pattern_in_two_types_rejected(self):
        with pytest.raises(LexiconError):
            EntityLexicon({"DISEASE": ["gout"], "CONDITION": ["gout"]})

    def test_empty_pattern_list_rejected(self):
        with pytest.raises(LexiconError):
            EntityLexicon({"DISEASE": []})

    def test_blank_pattern_rejected(self):
        with pytest.raises(LexiconError):
            EntityLexicon({"DISEASE": ["  "]})

    def test_entity_type_not_writable_as_utf8_rejected(self):
        with pytest.raises(LexiconError, match="is not writable as UTF-8"):
            EntityLexicon({"\ud800": ["heart"]})

    def test_bad_file_shape(self, tmp_path):
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(["not", "a", "mapping"]))
        with pytest.raises(LexiconError):
            EntityLexicon.from_json_file(path)

    def test_default_lexicon_loads(self):
        lexicon = load_default_lexicon()
        assert {"DISEASE", "CONDITION", "BODY PART", "ORGAN", "CHEMICAL"} <= set(lexicon.entity_types)


class TestLlmExtractor:
    def test_parses_constrained_line_format(self):
        reply = "\n".join([
            "DISEASE | atherosclerosis",
            "ORGAN | heart ",
            "BODY PART|coronary artery",
            "NONSENSE | ignored",
            "a free-text line to skip",
            "CONDITION |   severe   occlusive",
        ])
        extractor = LlmExtractor(lambda prompt: reply, ["DISEASE", "ORGAN", "BODY PART", "CONDITION"])
        assert extractor.extract("whatever") == [
            ("DISEASE", "Atherosclerosis"),
            ("ORGAN", "Heart"),
            ("BODY PART", "Coronary Artery"),
            ("CONDITION", "Severe Occlusive"),
        ]

    def test_prompt_carries_text_and_types(self):
        captured = {}

        def fake(prompt: str) -> str:
            captured["prompt"] = prompt
            return "DISEASE | gout"

        extractor = LlmExtractor(fake, ["DISEASE"])
        extractor.extract("the patient text")
        assert "the patient text" in captured["prompt"]
        assert "DISEASE" in captured["prompt"]

    def test_records_are_the_same_at_any_parallelism(self, sample_transcript):
        lexicon = load_default_lexicon()
        extractor = LlmExtractor(fake_entity_reply, lexicon.entity_types)
        serial = extract_from_transcript(sample_transcript, extractor)
        assert serial == extract_from_transcript(sample_transcript, GazetteerExtractor(lexicon))
        for parallelism in (2, 4):
            assert extract_from_transcript(sample_transcript, extractor, parallelism) == serial
