import re

from archtext.catalog import (
    CATALOG,
    DEFAULT_OPS,
    OP_PHRASES,
    answer_catalog,
    mentioned_ops,
    phrase_of,
)


def test_catalog_sizes():
    assert len(CATALOG) == 85
    assert len(DEFAULT_OPS) == 28
    assert DEFAULT_OPS == CATALOG[:28]


def test_phrases_never_contain_each_other():
    # word-aligned containment would make mentions ambiguous
    for a, pa in OP_PHRASES.items():
        pattern = re.compile(r"\b" + re.escape(pa) + r"\b")
        for b, pb in OP_PHRASES.items():
            if a != b:
                assert not pattern.search(pb), f"phrase of {a!r} occurs inside {b!r}"


def test_phrases_unique_and_lowercase():
    phrases = list(OP_PHRASES.values())
    assert len(set(phrases)) == len(phrases)
    assert all(p == p.lower() for p in phrases)


def test_mentioned_ops_word_aligned():
    text = "this has 2d max pooling and adaptive mean pooling"
    assert mentioned_ops(text) == {"maxpool2d", "adaptive_avgpool2d"}
    # "...max pooling" inside "adaptive max pooling" must not fire maxpool2d
    assert mentioned_ops("uses adaptive max pooling only") == {"adaptive_maxpool2d"}


def test_answer_catalog_is_frozen_51():
    answers = answer_catalog().answers
    assert len(answers) == 51
    assert len(set(answers)) == 51
    # the default op names occupy the first 28 slots
    assert answers[:28] == list(DEFAULT_OPS)


def test_phrase_of_known_op():
    assert phrase_of("maxpool2d") == "2d max pooling"
