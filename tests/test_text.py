import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archtext.graph import NodeVocab
from archtext.text import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    TextVocab,
    TokenSeq,
    UNK_ID,
    build_vocab,
    detokenize,
    normalize,
    tokenize,
)


def test_reserved_ids_fixed():
    v = TextVocab([])
    assert [v.name_of(i) for i in range(5)] == list(RESERVED_TOKENS)
    assert len(v) == 5


@pytest.mark.parametrize("vocab", [TextVocab, NodeVocab], ids=["text", "node"])
def test_duplicate_names_rejected(vocab):
    # the file loader names a repeated line first, so only a direct build
    # reaches the constructor's own check
    with pytest.raises(ValueError, match=f"duplicate names in {vocab.KIND} vocabulary"):
        vocab(["a", "b", "a"])


class TestBuildVocab:
    def test_small_corpus(self):
        v = build_vocab(["a a b"], max_size=7)
        assert "a" in v and "b" in v
        assert len(v) == 7
        assert v.id_of("a") == 5  # most frequent first

    def test_lexicographic_tie_break(self):
        v = build_vocab(["y x"], max_size=6)
        # one slot: x and y tie at count 1; x wins lexicographically
        assert "x" in v and "y" not in v

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], max_size=10)

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], max_size=4)

    @given(st.lists(st.text(alphabet="abcxyz ", min_size=1), min_size=1, max_size=30),
           st.integers(min_value=5, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_size_never_exceeds_max(self, corpus, max_size):
        v = build_vocab(corpus, max_size=max_size)
        assert 5 <= len(v) <= max_size

    def test_document_order_does_not_matter(self):
        a = build_vocab(["red green", "blue", "red"], max_size=10)
        b = build_vocab(["red", "blue", "red green"], max_size=10)
        assert a.names == b.names


class TestTokenize:
    def test_basic_framing(self):
        v = TextVocab(["a", "b"])
        seq = tokenize("a b", v, 6)
        assert seq.ids == (BOS_ID, v.id_of("a"), v.id_of("b"), EOS_ID)
        assert seq.real_length == 4

    def test_oov_maps_to_unk(self):
        v = TextVocab(["a"])
        seq = tokenize("zzz", v, 5)
        assert seq.ids[1] == UNK_ID

    def test_empty_text_is_bos_eos(self):
        v = TextVocab(["a"])
        seq = tokenize("", v, 4)
        assert seq.ids == (BOS_ID, EOS_ID)
        assert seq.real_length == 2

    def test_truncation_keeps_final_eos(self):
        v = TextVocab(["a", "b", "c", "d"])
        seq = tokenize("a b c d", v, 4)
        assert seq.ids == (BOS_ID, v.id_of("a"), v.id_of("b"), EOS_ID)

    def test_output_holds_real_tokens_only(self):
        v = TextVocab(["a"])
        for text, length in (("", 2), ("a", 3), ("a a a a a", 7), ("a a a a a a a a a a", 7)):
            seq = tokenize(text, v, 7)
            assert len(seq.ids) == seq.real_length == length
            assert PAD_ID not in seq.ids

    def test_max_len_too_small(self):
        v = TextVocab(["a"])
        with pytest.raises(ValueError):
            tokenize("a", v, 2)


class TestTokenSeqInvariants:
    def test_needs_one_real_token(self):
        with pytest.raises(ValueError, match="one token"):
            TokenSeq(ids=())


class TestDetokenize:
    def test_drops_reserved(self):
        v = TextVocab(["a", "b"])
        assert detokenize([BOS_ID, v.id_of("a"), v.id_of("b"), EOS_ID], v) == "a b"

    def test_empty_sentence(self):
        v = TextVocab(["a"])
        assert detokenize([BOS_ID, EOS_ID], v) == ""

    def test_unknown_id_raises(self):
        v = TextVocab(["a"])
        with pytest.raises(KeyError):
            detokenize([999], v)

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_for_in_vocab_sentences(self, words):
        v = TextVocab(["alpha", "beta", "gamma", "delta"])
        text = " ".join(words)
        seq = tokenize(text, v, 12)
        assert detokenize(seq.ids, v) == " ".join(normalize(text))


def test_normalize_strips_punctuation_keeps_underscores():
    assert normalize("Dil_conv2d, and MaxPool2D!") == ["dil_conv2d", "and", "maxpool2d"]


def test_vocab_file_round_trip(tmp_path):
    v = build_vocab(["the quick brown fox"], max_size=12)
    path = tmp_path / "vocab.txt"
    v.save(str(path))
    assert TextVocab.load(str(path)).names == v.names
