import pytest
from hypothesis import example, given, strategies as st

from sensewalk import corpus
from sensewalk.corpus import (
    AMBIGUOUS_SENSES,
    ParseError,
    PositionMismatch,
    SenseAnnotation,
    load_annotations,
    load_lemma_table,
    load_stopwords,
    lemmatize,
    lemmatize_word,
    preprocess_document,
    preprocess_text,
    remove_stopwords,
    tokenize,
    validate_annotations,
)

# Drummond's "In the middle of the road" (Bishop's translation), the
# reference text for the preprocessing pipeline.
POEM = (
    "In the middle of the road there was a stone / there was a stone "
    "in the middle of the road there was a stone in the middle of the "
    "road there was a stone. Never should I forget this event / in the "
    "lifetime of my fatigued retinas / Never should I forget that in "
    "the middle of the road / there was a stone / there was a stone "
    "in the middle of the road / in the middle of the road there was "
    "a stone."
)

POEM_LEMMAS = (
    "middle road stone stone middle road stone middle road stone never "
    "forget event lifetime fatigue retina never forget middle road stone "
    "stone middle road middle road stone"
).split()


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_poem_first_line_token_count(self):
        toks = tokenize("In the middle of the road there was a stone")
        assert len(toks) == 10
        assert all(t.surface == t.surface.lower() for t in toks)

    def test_trailing_punctuation_stripped(self):
        toks = tokenize("stone.")
        assert [t.surface for t in toks] == ["stone"]

    def test_punctuation_only(self):
        assert tokenize("...! / --") == []

    def test_offsets_strictly_increasing_and_indexable(self):
        text = "Never should I forget this event"
        toks = tokenize(text)
        offsets = [t.offset for t in toks]
        assert offsets == sorted(set(offsets))
        for t in toks:
            assert text[t.offset : t.offset + len(t.surface)].lower() == t.surface

    def test_hyphen_splits(self):
        assert [t.surface for t in tokenize("well-known")] == ["well", "known"]

    def test_contractions_stay_single_tokens(self):
        assert [t.surface for t in tokenize("don't stop")] == ["don't", "stop"]
        # typographic apostrophe folds onto the plain one
        assert [t.surface for t in tokenize("don’t stop")] == ["don't", "stop"]

    def test_curly_contraction_is_stopword(self):
        toks = remove_stopwords(tokenize("Don’t forget"))
        assert [t.surface for t in toks if t.is_content] == ["forget"]

    def test_case_folding(self):
        assert [t.surface for t in tokenize("Stone STONE stone")] == ["stone"] * 3


class TestStopwords:
    def test_first_line_content_words(self):
        toks = remove_stopwords(tokenize("In the middle of the road there was a stone"))
        content = [t.surface for t in toks if t.is_content]
        assert content == ["middle", "road", "stone"]

    def test_all_stopword_sentence(self):
        toks = remove_stopwords(tokenize("of the a"))
        assert [t for t in toks if t.is_content] == []

    def test_no_stopwords_unchanged(self):
        # each word checked against the shipped list
        stop = load_stopwords()
        for word in ("never", "forget", "event"):
            assert word not in stop
        toks = remove_stopwords(tokenize("never forget event"))
        assert [t.surface for t in toks if t.is_content] == ["never", "forget", "event"]

    def test_content_positions_sequential(self):
        toks = remove_stopwords(tokenize("In the middle of the road"))
        positions = [t.position for t in toks if t.is_content]
        assert positions == [0, 1]
        assert all(t.position is None for t in toks if not t.is_content)

    def test_ambiguous_words_never_stopwords(self):
        stop = load_stopwords()
        for word in AMBIGUOUS_SENSES:
            assert word not in stop

    def test_missing_resource(self):
        with pytest.raises(corpus.MissingStopwordList):
            load_stopwords("/nonexistent/stopwords.txt")


class TestLemmatize:
    def test_irregular_forms(self):
        assert lemmatize_word("fatigued") == "fatigue"
        assert lemmatize_word("retinas") == "retina"

    def test_already_canonical(self):
        assert lemmatize_word("stone") == "stone"

    def test_dictionary_entry(self):
        table = load_lemma_table()
        assert table["running"] == "run"
        assert lemmatize_word("running") == "run"

    def test_suffix_rules(self):
        assert lemmatize_word("stones") == "stone"
        assert lemmatize_word("boxes") == "box"
        assert lemmatize_word("ponies") == "pony"
        assert lemmatize_word("walked") == "walk"
        assert lemmatize_word("stopped") == "stop"
        assert lemmatize_word("walking") == "walk"
        assert lemmatize_word("falling") == "fall"

    def test_table_values_are_fixed_points(self):
        table = load_lemma_table()
        for value in set(table.values()):
            assert lemmatize_word(value, table) == value

    @given(st.text(alphabet=st.sampled_from("abcdefghilmnoprstuy'"), min_size=1, max_size=12))
    @example("a" + "'s" * 12)  # 12 suffix rounds, longer than the strategy draws
    def test_idempotence_on_arbitrary_words(self, word):
        table = load_lemma_table()
        once = lemmatize_word(word, table)
        assert lemmatize_word(once, table) == once

    def test_pipeline_idempotence(self):
        toks = preprocess_text(POEM)
        assert lemmatize(toks) == toks

    def test_missing_resource(self):
        with pytest.raises(corpus.MissingLemmaDictionary):
            load_lemma_table("/nonexistent/lemmas.txt")


class TestFullPipeline:
    def test_poem_content_count_is_27(self):
        toks = preprocess_text(POEM)
        assert len([t for t in toks if t.is_content]) == 27

    def test_poem_lemma_sequence(self):
        doc = preprocess_document("poem", POEM)
        assert doc.content_lemmas() == POEM_LEMMAS


class TestAnnotations:
    def _write(self, tmp_path, text):
        path = tmp_path / "annotations.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_direct_parse(self, tmp_path):
        path = self._write(tmp_path, "doc1\t42\tbear\t2\n")
        anns = load_annotations(path)
        assert anns == [SenseAnnotation("doc1", 42, "bear", 2)]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = self._write(tmp_path, "# header\n\ndoc1\t0\tjam\t1\n")
        assert len(load_annotations(path)) == 1

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        assert load_annotations(path) == []

    def test_sense_inventory_bound(self, tmp_path):
        path = self._write(tmp_path, "doc1\t3\tjam\t5\n")
        with pytest.raises(ParseError):
            load_annotations(path)

    def test_unknown_word_exempt_from_inventory(self, tmp_path):
        path = self._write(tmp_path, "doc1\t3\tcrane\t5\n")
        assert load_annotations(path)[0].sense_id == 5

    def test_bad_column_count(self, tmp_path):
        path = self._write(tmp_path, "doc1\t3\tjam\n")
        with pytest.raises(ParseError) as err:
            load_annotations(path)
        assert err.value.line_no == 1

    def test_non_integer_fields(self, tmp_path):
        path = self._write(tmp_path, "doc1\tx\tjam\t1\n")
        with pytest.raises(ParseError):
            load_annotations(path)

    def test_duplicate_position(self, tmp_path):
        path = self._write(tmp_path, "doc1\t3\tjam\t1\ndoc1\t3\tjam\t2\n")
        with pytest.raises(ParseError) as err:
            load_annotations(path)
        assert err.value.line_no == 2

    @staticmethod
    def _validated(path):
        anns = load_annotations(path)
        validate_annotations(anns, {"poem": preprocess_document("poem", POEM).content_lemmas()})
        return anns

    def test_position_validated_against_documents(self, tmp_path):
        good = self._write(tmp_path, "poem\t2\tstone\t1\n")
        anns = self._validated(good)
        assert anns[0].word == "stone"

    def test_position_mismatch_wrong_lemma(self, tmp_path):
        bad = self._write(tmp_path, "poem\t0\tstone\t1\n")  # position 0 is 'middle'
        with pytest.raises(PositionMismatch):
            self._validated(bad)

    def test_position_mismatch_out_of_range(self, tmp_path):
        bad = self._write(tmp_path, "poem\t99\tstone\t1\n")
        with pytest.raises(PositionMismatch):
            self._validated(bad)

    def test_unknown_document(self, tmp_path):
        bad = self._write(tmp_path, "other\t0\tstone\t1\n")
        with pytest.raises(PositionMismatch):
            self._validated(bad)
