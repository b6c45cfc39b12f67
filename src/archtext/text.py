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
    """Fixed-length id sequence with a padding mask (True = real token)."""

    ids: tuple[int, ...]
    pad_mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.pad_mask):
            raise ValueError("ids and pad_mask lengths differ")
        n_real = sum(self.pad_mask)
        if n_real < 1:
            raise ValueError("sequence must contain at least one real token")
        if any(self.pad_mask[i] for i in range(n_real, len(self.pad_mask))):
            raise ValueError("padding must be a suffix")

    @property
    def real_length(self) -> int:
        return sum(self.pad_mask)


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
    """[BOS] words [EOS], truncated so [EOS] stays the final real token,
    padded out to exactly max_len."""
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    words = normalize(text)
    ids = [BOS_ID] + [vocab.id_of(w) for w in words] + [EOS_ID]
    if len(ids) > max_len:
        ids = ids[: max_len - 1] + [EOS_ID]
    n_real = len(ids)
    ids = ids + [PAD_ID] * (max_len - n_real)
    mask = [True] * n_real + [False] * (max_len - n_real)
    return TokenSeq(ids=tuple(ids), pad_mask=tuple(mask))


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
