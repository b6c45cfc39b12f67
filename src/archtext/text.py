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


class Vocab:
    """Name-to-id map, saved one name a line. A subclass fixes the reserved
    names that take the first ids (RESERVED), the id an unknown name maps to
    (UNK_ID) and the kind of names that messages speak of (KIND)."""

    def __init__(self, names: list[str] | tuple[str, ...]):
        self._names = list(self.RESERVED) + [n for n in names if n not in self.RESERVED]
        self._ids = {n: i for i, n in enumerate(self._names)}
        if len(self._ids) != len(self._names):
            raise ValueError(f"duplicate names in {self.KIND} vocabulary")

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def id_of(self, name: str) -> int:
        """Id for a name; unknown names map to UNK_ID."""
        return self._ids.get(name, self.UNK_ID)

    def name_of(self, name_id: int) -> str:
        if not 0 <= name_id < len(self._names):
            raise KeyError(f"id {name_id} out of the {self.KIND} vocabulary (size {len(self._names)})")
        return self._names[name_id]

    def save(self, path: str) -> None:
        with atomic_write(path) as f:
            for name in self._names:
                f.write(name + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        """The vocabulary saved at `path`; a damaged file is a ValueError
        naming the path, and the line of a repeated name."""
        try:
            with open(path, encoding="utf-8") as f:
                lines = [(no, name) for no, line in enumerate(f, 1) if (name := line.rstrip("\n"))]
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text: {e.reason}") from e
        names = [name for _, name in lines]
        if tuple(names[:len(cls.RESERVED)]) != cls.RESERVED:
            raise ValueError(f"{path}: {cls.KIND} vocabulary file must start with {cls.RESERVED}")
        first: dict[str, int] = {}
        for no, name in lines:
            if first.setdefault(name, no) != no:
                raise ValueError(f"{path}:{no}: {name!r} repeats line {first[name]}")
        return cls(names[len(cls.RESERVED):])


class TextVocab(Vocab):
    """Word vocabulary with five fixed reserved entries at ids 0..4."""

    RESERVED, UNK_ID, KIND = RESERVED_TOKENS, UNK_ID, "text"


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
        tok = vocab.name_of(int(i))
        if tok not in RESERVED_TOKENS:
            words.append(tok)
    return " ".join(words)
