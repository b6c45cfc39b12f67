"""Word-level vocabulary and tokenization for descriptions, questions, captions.

Normalization is lowercase plus splitting on anything that is not a letter,
digit, or underscore, so op names like "dil_conv2d" survive as single tokens.
Vocab and token sequences are immutable; tokenize/detokenize are pure.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .fileio import atomic_write

# [PAD] is never emitted; it keeps id 0 so vocabulary files keep their layout
PAD, UNK, BOS, EOS, MASK = "[PAD]", "[UNK]", "[BOS]", "[EOS]", "[MASK]"
RESERVED_TOKENS = (PAD, UNK, BOS, EOS, MASK)
PAD_ID, UNK_ID, BOS_ID, EOS_ID, MASK_ID = range(5)

_WORD_RE = re.compile(r"[a-z0-9_]+")


def normalize(text: str) -> list[str]:
    """Lowercased word tokens, punctuation and whitespace stripped."""
    return _WORD_RE.findall(text.lower())


class TextVocab:
    """Token-to-id map with five fixed reserved entries at ids 0..4."""

    def __init__(self, words: list[str] | tuple[str, ...]):
        tokens = list(RESERVED_TOKENS) + [w for w in words if w not in RESERVED_TOKENS]
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self._tokens = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise KeyError(f"token id {token_id} out of vocabulary (size {len(self._tokens)})")
        return self._tokens[token_id]

    def save(self, path: str) -> None:
        with atomic_write(path) as f:
            for t in self._tokens:
                f.write(t + "\n")

    @classmethod
    def load(cls, path: str) -> "TextVocab":
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f if line.rstrip("\n")]
        if tuple(tokens[:5]) != RESERVED_TOKENS:
            raise ValueError(f"text vocabulary file must start with {RESERVED_TOKENS}")
        return cls(tokens[5:])


@dataclass(frozen=True)
class TokenSeq:
    """The ids of one text's tokens, [BOS] first and [EOS] last; no padding."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if not self.ids:
            raise ValueError("sequence must contain at least one token")

    @property
    def real_length(self) -> int:
        return len(self.ids)


def build_vocab(corpus: list[str], max_size: int) -> TextVocab:
    """Most-frequent normalized tokens, capped at max_size; ties go to the
    lexicographically smaller token."""
    if max_size < 5:
        raise ValueError("max_size must be at least 5 (reserved tokens)")
    if not corpus:
        raise ValueError("corpus is empty")
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(normalize(doc))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [w for w, _ in ranked[: max_size - 5]]
    return TextVocab(keep)


def tokenize(text: str, vocab: TextVocab, max_len: int) -> TokenSeq:
    """[BOS] words [EOS], truncated to max_len ids so [EOS] stays last."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    ids = [BOS_ID] + [vocab.id_of(w) for w in normalize(text)]
    return TokenSeq(ids=tuple(ids[:max_len - 1]) + (EOS_ID,))


def detokenize(ids, vocab: TextVocab) -> str:
    """Words joined by single spaces; reserved tokens are dropped.

    Raises KeyError for ids outside the vocabulary.
    """
    words = []
    for i in ids:
        tok = vocab.token_of(int(i))
        if tok not in RESERVED_TOKENS:
            words.append(tok)
    return " ".join(words)
