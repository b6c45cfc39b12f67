import re

import numpy as np
import pytest

from archtext.datagen import GenConfig, gen_architecture
from archtext.index import (
    EmbeddingIndex,
    IndexError_,
    _unit_rows,
    build_index,
    load_index,
    save_index,
    search,
)
from archtext.model import Model, ModelConfig, embed_texts
from archtext.text import build_vocab

FP = bytes(range(32))
OTHER_FP = bytes(31 for _ in range(32))


@pytest.fixture
def setup(small_ops):
    gcfg = GenConfig(rng_seed=4, ops=small_ops, min_nodes=3, max_nodes=5)
    graphs = [(f"g{i}", gen_architecture(gcfg, np.random.default_rng([60, i])))
              for i in range(4)]
    vocab = build_vocab(["some text about networks"], 64)
    cfg = ModelConfig(node_vocab_size=len(gcfg.node_vocab()), text_vocab_size=len(vocab),
                      d=8, gat_layers=1, gat_heads=2, cross_layers=1, cross_heads=2,
                      dec_heads=2, max_nodes=8, max_tokens=16, n_answers=3,
                      shape_buckets=4)
    model = Model.initialized(cfg, seed=2)
    return graphs, vocab, model


class TestBuild:
    def test_entries_unit_norm(self, setup):
        graphs, _, model = setup
        idx = build_index(model, graphs[:1], FP)
        assert len(idx.ids) == 1
        assert np.linalg.norm(idx.vectors[0]) == pytest.approx(1.0, abs=1e-9)

    def test_same_graph_same_vector(self, setup):
        graphs, _, model = setup
        idx = build_index(model, [("a", graphs[0][1]), ("b", graphs[0][1])], FP)
        np.testing.assert_array_equal(idx.vectors[0], idx.vectors[1])

    def test_duplicate_ids_rejected(self, setup):
        graphs, _, model = setup
        with pytest.raises(IndexError_, match="duplicate"):
            build_index(model, [("a", graphs[0][1]), ("a", graphs[1][1])], FP)

    def test_rebuild_is_byte_identical(self, setup, tmp_path):
        graphs, _, model = setup
        p1, p2 = tmp_path / "a.abix", tmp_path / "b.abix"
        save_index(build_index(model, graphs, FP), str(p1))
        save_index(build_index(model, graphs, FP), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestFileFormat:
    def test_round_trip(self, setup, tmp_path):
        graphs, _, model = setup
        idx = build_index(model, graphs, FP)
        path = tmp_path / "i.abix"
        save_index(idx, str(path))
        loaded = load_index(str(path))
        assert loaded.d == idx.d
        assert loaded.fingerprint == FP
        assert loaded.ids == idx.ids
        for a, b in zip(loaded.vectors, idx.vectors):
            np.testing.assert_array_equal(a, b.astype(np.float32).astype(np.float64))

    def test_magic(self, setup, tmp_path):
        graphs, _, model = setup
        path = tmp_path / "i.abix"
        save_index(build_index(model, graphs, FP), str(path))
        assert path.read_bytes()[:4] == b"ABIX"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.abix"
        path.write_bytes(b"WHAT" + b"\x00" * 60)
        with pytest.raises(IndexError_, match="magic"):
            load_index(str(path))

    def test_trailing_bytes_rejected(self, setup, tmp_path):
        graphs, _, model = setup
        path = tmp_path / "i.abix"
        save_index(build_index(model, graphs, FP), str(path))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(IndexError_, match="trailing"):
            load_index(str(path))

    @pytest.mark.parametrize("size", [4, 16, 21, 47])
    def test_truncated_header_rejected(self, tmp_path, size):
        # an empty index is its 48-byte header alone; any prefix of it is short
        path = tmp_path / "short.abix"
        save_index(EmbeddingIndex(d=8, ids=[], vectors=np.zeros((0, 8)), fingerprint=FP),
                   str(path))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(IndexError_, match=f"short.abix: truncated header of {size} bytes"):
            load_index(str(path))


class TestSearch:
    def test_fingerprint_mismatch_refused(self, setup):
        graphs, vocab, model = setup
        idx = build_index(model, graphs, FP)
        with pytest.raises(IndexError_, match="fingerprint"):
            search(idx, "anything", model, 3, vocab, OTHER_FP)

    def test_k_zero_empty(self, setup):
        graphs, vocab, model = setup
        idx = build_index(model, graphs, FP)
        assert search(idx, "text", model, 0, vocab, FP) == []

    def test_k_beyond_entries_returns_all(self, setup):
        graphs, vocab, model = setup
        idx = build_index(model, graphs, FP)
        hits = search(idx, "text", model, 99, vocab, FP)
        assert len(hits) == len(graphs)

    def test_scores_non_increasing(self, setup):
        graphs, vocab, model = setup
        idx = build_index(model, graphs, FP)
        hits = search(idx, "some text about networks", model, 4, vocab, FP)
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_permutation_stable(self, setup):
        graphs, vocab, model = setup
        idx1 = build_index(model, graphs, FP)
        idx2 = build_index(model, list(reversed(graphs)), FP)
        h1 = search(idx1, "some text", model, 4, vocab, FP)
        h2 = search(idx2, "some text", model, 4, vocab, FP)
        assert h1 == h2

    def test_score_independent_of_position(self, setup):
        graphs, vocab, model = setup
        for _, g in graphs:
            same = [(f"g{i}", g) for i in range(7)]
            hits = search(build_index(model, same, FP), "some text", model, 7, vocab, FP)
            assert len({s for _, s in hits}) == 1
            assert [i for i, _ in hits] == sorted(i for i, _ in same)

    def test_query_matching_entry_vector_ranks_first(self, setup):
        graphs, vocab, model = setup
        idx = build_index(model, graphs, FP)
        # a query embedding equal to an entry's vector has cosine exactly 1 there
        for arch_id, vec in zip(idx.ids, idx.vectors):
            scored = sorted(((float(vec @ v), i) for i, v in zip(idx.ids, idx.vectors)),
                            key=lambda t: (-t[0], t[1]))
            assert scored[0][1] == arch_id


class TestTopK:
    """search against a full sort of every entry, with ties at the cut."""

    # cosines to the query by id: one top entry, a tie of three across the
    # k=3 cut, a tied pair inside the ranking, and a tie of three across
    # the k=N-1 cut; repeated cosines come from one vector under several ids
    COSINES = {"e": 0.9, "h": 0.8, "a": 0.8, "c": 0.8, "j": 0.5, "g": 0.5,
               "b": 0.3, "i": 0.2, "d": 0.2, "f": 0.2}

    @pytest.fixture
    def scored(self, setup):
        _, vocab, model = setup
        query = "some text about networks"
        q = embed_texts([query], model, vocab)[0]
        q /= np.linalg.norm(q)
        u = np.roll(q, 1) - (np.roll(q, 1) @ q) * q
        u /= np.linalg.norm(u)
        vector_of = {c: c * q + np.sqrt(1 - c * c) * u for c in set(self.COSINES.values())}
        ids = list(self.COSINES)
        vectors = np.array([vector_of[self.COSINES[i]] for i in ids])
        return model, vocab, query, q, ids, vectors

    @staticmethod
    def full_sort(ids, vectors, q):
        scores = np.einsum("ij,j->i", vectors, q).tolist()
        return sorted(zip(ids, scores), key=lambda e: (-e[1], e[0]))

    @pytest.mark.parametrize("k", [0, 1, 3, 4, 9, 10, 15])
    def test_matches_full_sort_in_any_entry_order(self, scored, k):
        model, vocab, query, q, ids, vectors = scored
        want = self.full_sort(ids, vectors, q)[:k]
        for order in (range(len(ids)), reversed(range(len(ids))), [3, 7, 0, 9, 2, 5, 8, 1, 6, 4]):
            order = list(order)
            idx = EmbeddingIndex(d=vectors.shape[1], ids=[ids[i] for i in order],
                                 vectors=vectors[order], fingerprint=FP)
            assert search(idx, query, model, k, vocab, FP) == want

    def test_ties_straddle_the_cuts(self, scored):
        model, vocab, query, _, ids, vectors = scored
        idx = EmbeddingIndex(d=vectors.shape[1], ids=ids, vectors=vectors, fingerprint=FP)
        hits = search(idx, query, model, len(ids), vocab, FP)
        assert [i for i, _ in hits] == ["e", "a", "c", "h", "g", "j", "b", "d", "f", "i"]
        assert hits[1][1] == hits[2][1] == hits[3][1]
        assert hits[7][1] == hits[8][1] == hits[9][1]


def test_unit_rows_match_the_per_row_norm_loop():
    def per_row(m):
        out = np.zeros_like(m)
        for i, row in enumerate(m):
            norm = float(np.linalg.norm(row))
            if norm >= 1e-12:
                out[i] = row / norm
        return out

    rng = np.random.default_rng(9)
    for d in (1, 3, 8, 64, 65):
        m = rng.standard_normal((300, d)) * 10.0 ** rng.uniform(-8, 8, (300, 1))
        unit = np.ones(d) / np.sqrt(d)
        under, over = unit * (1e-12 * (1 - 1e-9)), unit * (1e-12 * (1 + 1e-9))
        assert np.linalg.norm(under) < 1e-12 <= np.linalg.norm(over)
        m[7], m[8], m[9] = 0.0, under, over
        got = _unit_rows(m)
        assert got.tobytes() == per_row(m).tobytes()
        assert not got[[7, 8]].any() and got[9].any()
    assert _unit_rows(np.zeros((0, 4))).shape == (0, 4)


def test_index_invariants_checked(tmp_path):
    with pytest.raises(IndexError_):
        EmbeddingIndex(d=4, ids=[], vectors=np.zeros((0, 4)), fingerprint=b"short")
    with pytest.raises(IndexError_):
        EmbeddingIndex(d=4, ids=["a"], vectors=np.zeros((1, 3)), fingerprint=bytes(32))
    for bad in (np.nan, np.inf):
        with pytest.raises(IndexError_, match="non-finite"):
            EmbeddingIndex(d=2, ids=["a", "b"], vectors=np.array([[1.0, 0.0], [bad, 0.0]]),
                           fingerprint=bytes(32))
    # the same checks on a loaded file name the file
    path = tmp_path / "i.abix"
    save_index(EmbeddingIndex(d=2, ids=["a", "b"], vectors=np.eye(2), fingerprint=bytes(32)),
               str(path))
    blob = path.read_bytes()
    second_id = blob.rindex(b"b")
    for damaged, error in ((blob[:second_id] + b"a" + blob[second_id + 1:],
                            "duplicate architecture id 'a'"),
                           (blob[:-4] + np.float32(np.inf).tobytes(),
                            "vectors hold non-finite values")):
        path.write_bytes(damaged)
        with pytest.raises(IndexError_, match=re.escape(f"{path}: {error}")):
            load_index(str(path))
