"""Flat cosine-retrieval index over pooled architecture embeddings.

Entries are unit-normalized graph embeddings keyed by architecture id, plus
a fingerprint of the checkpoint that produced them; querying with a model
whose checkpoint hash differs is refused outright. Search is exact: it
scores every entry, then sorts only the top-k candidates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .fileio import RecordReader, atomic_write
from .graph import ArchGraph
from .model import Model, embed_graphs, embed_texts
from .text import TextVocab

MAGIC = b"ABIX"
VERSION = 1
# magic, version, d, count, then the 32-byte checkpoint fingerprint
_HEADER_BYTES = 48


class IndexError_(ValueError):
    """Raised on malformed index files or fingerprint mismatches."""


@dataclass
class EmbeddingIndex:
    """Architecture ids and their unit-normalized embeddings, row i for ids[i]."""

    d: int
    ids: list[str]
    vectors: np.ndarray
    fingerprint: bytes

    def __post_init__(self):
        if len(self.fingerprint) != 32:
            raise IndexError_("fingerprint must be 32 bytes")
        if self.vectors.shape != (len(self.ids), self.d):
            raise IndexError_(f"vectors have shape {self.vectors.shape}, want "
                              f"({len(self.ids)}, {self.d})")
        if not np.isfinite(self.vectors).all():
            raise IndexError_("vectors hold non-finite values")
        seen = set()
        for arch_id in self.ids:
            if arch_id in seen:
                raise IndexError_(f"duplicate architecture id {arch_id!r}")
            seen.add(arch_id)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Each row scaled to unit length; rows of near-zero norm become zero.
    The stacked (1, d) @ (d, 1) products are BLAS dot products, the one
    `np.linalg.norm` of a single row takes, so the norms keep its bits."""
    norms = np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
    return np.divide(m, norms, out=np.zeros_like(m), where=norms >= 1e-12)


def build_index(model: Model, graphs: list[tuple[str, ArchGraph]],
                fingerprint: bytes) -> EmbeddingIndex:
    """Encode every graph through the architecture path and store the
    unit-normalized pooled embeddings."""
    vectors = _unit_rows(embed_graphs([g for _, g in graphs], model))
    return EmbeddingIndex(d=model.cfg.d, ids=[arch_id for arch_id, _ in graphs],
                          vectors=vectors, fingerprint=fingerprint)


def search(index: EmbeddingIndex, query: str, model: Model, k: int,
           text_vocab: TextVocab, fingerprint: bytes) -> list[tuple[str, float]]:
    """Embed the query through the text path, score every entry by cosine and
    rank the best k.

    Ties break toward the lexicographically smaller id. k=0 returns nothing;
    k beyond the entry count returns everything.
    """
    if fingerprint != index.fingerprint:
        raise IndexError_(
            "checkpoint fingerprint does not match the index; rebuild the index "
            "against the loaded checkpoint")
    if k <= 0:
        return []
    q = _unit_rows(embed_texts([query], model, text_vocab))[0]
    # not `vectors @ q`: BLAS mat-vec rounds a row differently depending on its
    # position, so an entry's score would depend on the order of the index
    scores = np.einsum("ij,j->i", index.vectors, q)
    rows = np.arange(len(scores))
    if k < len(scores):
        # every entry tied with the k-th best score stays a candidate, so the
        # id tie-break below decides among all of them
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        rows = np.flatnonzero(scores >= kth)
    scored = sorted(zip([index.ids[i] for i in rows.tolist()], scores[rows].tolist()),
                    key=lambda e: (-e[1], e[0]))
    return scored[:k]


def save_index(index: EmbeddingIndex, path: str) -> None:
    with atomic_write(path, binary=True) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", index.d))
        f.write(struct.pack("<I", len(index.ids)))
        f.write(index.fingerprint)
        for arch_id, vec in zip(index.ids, index.vectors):
            encoded = arch_id.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(vec.astype("<f4").tobytes(order="C"))


def load_index(path: str) -> EmbeddingIndex:
    reader = RecordReader(path, MAGIC, VERSION, _HEADER_BYTES, IndexError_)
    d, count = reader.u32("dimension"), reader.u32("entry count")
    fingerprint = reader.raw(32, "fingerprint")
    ids, rows = [], []
    for _ in range(count):
        ids.append(reader.text(reader.u32("id length"), "architecture id"))
        rows.append(reader.block("<f4", d, "vector"))
    reader.end(f"{count} entries")
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), d)
    try:
        return EmbeddingIndex(d=d, ids=ids, vectors=vectors, fingerprint=fingerprint)
    except IndexError_ as e:
        raise reader.fail(str(e)) from None
