import json

import numpy as np
import pytest

from archtext import graph
from archtext.catalog import DEFAULT_OPS
from archtext.datagen import GenConfig, gen_architecture
from archtext.graph import (
    ArchGraph,
    GraphParseError,
    GraphValidationError,
    MASK_NODE_ID,
    NodeVocab,
    PAD_NODE_ID,
    UNK_NODE_ID,
    attention_edges,
    attention_mask,
    graph_to_obj,
    parse_graph,
    to_dot,
    validate_graph,
)


@pytest.fixture
def vocab():
    return NodeVocab(list(DEFAULT_OPS))


def test_reserved_node_ids(vocab):
    assert vocab.id_of("[MASK_NODE]") == MASK_NODE_ID == 0
    assert vocab.id_of("[PAD_NODE]") == PAD_NODE_ID == 1
    assert vocab.id_of("[UNK_NODE]") == UNK_NODE_ID == 2
    assert vocab.id_of("conv2d") == 3


def test_unknown_name_maps_to_unk(vocab):
    assert vocab.id_of("no_such_op") == UNK_NODE_ID


def test_vocab_file_round_trip(tmp_path, vocab):
    path = tmp_path / "nodes.txt"
    vocab.save(str(path))
    loaded = NodeVocab.load(str(path))
    assert loaded.names == vocab.names


class TestValidate:
    def test_minimal_valid_graph(self):
        g = ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)])
        assert validate_graph(g).ok

    def test_two_node_cycle(self):
        g = ArchGraph(nodes=[3, 4], edges=[(0, 1), (1, 0)],
                      shapes=[(0, 0, 0, 0)] * 2)
        report = validate_graph(g)
        assert not report.ok
        assert ("cycle", "graph contains a cycle through edge (0, 1)") in report.violations
        # an edge to an earlier index is no cycle by itself: 2->0, 0->1
        back = ArchGraph(nodes=[3, 4, 5], edges=[(2, 0), (0, 1)], shapes=[(0, 0, 0, 0)] * 3)
        assert validate_graph(back).ok

    def test_edge_out_of_range(self):
        g = ArchGraph(nodes=[3, 4, 5], edges=[(0, 5)], shapes=[(0, 0, 0, 0)] * 3)
        report = validate_graph(g)
        assert any(code == "edge-range" for code, _ in report.violations)

    def test_empty_graph(self):
        g = ArchGraph(nodes=[], edges=[], shapes=[])
        assert any(code == "empty" for code, _ in validate_graph(g).violations)

    def test_shape_count_mismatch(self):
        g = ArchGraph(nodes=[3, 4], edges=[(0, 1)], shapes=[(0, 0, 0, 0)])
        assert any(code == "shape-count" for code, _ in validate_graph(g).violations)

    def test_shape_entries_checked(self):
        g = ArchGraph(nodes=[3, 4, 5], edges=[], shapes=[(0, -1, 0, 0), (2 ** 53, 0, 0, 0),
                                                          (0, 0, 0)])
        codes = [code for code, _ in validate_graph(g).violations]
        assert codes == ["shape-negative", "shape-range", "shape-arity"]
        assert validate_graph(ArchGraph(nodes=[3], edges=[],
                                        shapes=[(2 ** 53 - 1, 0, 0, 0)])).ok

    def test_ok_iff_no_violations(self):
        good = ArchGraph(nodes=[3], edges=[], shapes=[(1, 2, 3, 4)])
        bad = ArchGraph(nodes=[3, 3], edges=[(1, 1)], shapes=[(0, 0, 0, 0)] * 2)
        assert validate_graph(good).ok and not validate_graph(good).violations
        assert not validate_graph(bad).ok and validate_graph(bad).violations


class TestSharedParts:
    def test_row_table_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(graph, "_ROWS", {})
        monkeypatch.setattr(graph, "_ROWS_CAP", 8)
        before = ArchGraph(nodes=[3, 4], edges=[(0, 1)], shapes=[(8, 3, 3, 3), (0, 0, 0, 0)])
        sizes = []
        for i in range(20):
            ArchGraph(nodes=[3], edges=[], shapes=[(100 + i, 0, 0, 0)])
            sizes.append(len(graph._ROWS))
        # filled to the cap and cleared, more than once
        assert max(sizes) == 8 and sizes.count(1) == 2
        after = ArchGraph(nodes=[3, 4], edges=[(0, 1)], shapes=[(8, 3, 3, 3), (0, 0, 0, 0)])
        assert after.shapes[0] is not before.shapes[0]
        assert after == before and hash(after) == hash(before)

    def test_edge_set_lives_while_a_graph_holds_it(self):
        g = ArchGraph(nodes=[3] * 300, edges=[(0, 299), (1, 299)], shapes=[(0, 0, 0, 0)] * 300)
        key = hash(g.edges)
        assert graph._EDGE_SETS[key] is g.edges
        del g
        assert key not in graph._EDGE_SETS


class TestAttentionMask:
    def test_single_node_self_loop(self):
        g = ArchGraph(nodes=[3], edges=[], shapes=[(0, 0, 0, 0)])
        assert attention_mask(g).tolist() == [[True]]

    def test_chain_symmetrized(self):
        g = ArchGraph(nodes=[3, 4], edges=[(0, 1)], shapes=[(0, 0, 0, 0)] * 2)
        assert attention_mask(g).tolist() == [[True, True], [True, True]]

    def test_isolated_nodes_identity(self):
        g = ArchGraph(nodes=[3, 4, 5], edges=[], shapes=[(0, 0, 0, 0)] * 3)
        assert np.array_equal(attention_mask(g), np.eye(3, dtype=bool))

    def test_edge_out_of_range_rejected(self):
        # a graph built directly, never validated: node 5 of 3
        g = ArchGraph(nodes=[3, 4, 5], edges=[(0, 5)], shapes=[(0, 0, 0, 0)] * 3)
        with pytest.raises(ValueError, match="edge index out of range for its graph's nodes"):
            attention_edges([g])

    def test_no_edges_flag_all_true(self):
        g = ArchGraph(nodes=[3, 4, 5], edges=[(0, 1)], shapes=[(0, 0, 0, 0)] * 3)
        assert attention_mask(g, use_edges=False).all()

    def test_symmetric_with_true_diagonal(self, gen_cfg):
        for i in range(20):
            rng = np.random.default_rng([23, i])
            g = gen_architecture(gen_cfg, rng)
            m = attention_mask(g)
            assert np.array_equal(m, m.T)
            assert m.diagonal().all()


class TestParseSerialize:
    def test_schema_instance(self, vocab):
        doc = '{"nodes": ["conv2d", "relu"], "edges": [[0, 1]], "shapes": [[8,3,3,3],[0,0,0,0]]}'
        g = parse_graph(doc, vocab)
        assert g.num_nodes == 2
        assert g.nodes[0] == vocab.id_of("conv2d")
        assert (0, 1) in g.edges

    def test_empty_nodes_is_validation_error(self, vocab):
        with pytest.raises(GraphValidationError) as exc:
            parse_graph('{"nodes": [], "edges": [], "shapes": []}', vocab)
        assert any(c == "empty" for c, _ in exc.value.report.violations)

    def test_malformed_json_names_location(self, vocab):
        with pytest.raises(GraphParseError, match="line"):
            parse_graph('{"nodes": [', vocab)

    def test_unknown_field_rejected(self, vocab):
        with pytest.raises(GraphParseError, match="unknown"):
            parse_graph('{"nodes": ["relu"], "edges": [], "shapes": [[0,0,0,0]], "x": 1}', vocab)

    @pytest.mark.parametrize("doc, field", [
        ('{"nodes": ["relu", "relu"], "edges": [[false, true]], '
         '"shapes": [[0,0,0,0],[0,0,0,0]]}', "field 'edges'"),
        ('{"nodes": ["relu"], "edges": [], "shapes": [[true,0,0,0]]}', "field 'shapes'"),
        ('{"nodes": ["relu", "relu"], "edges": [[0, 1, 1]], '
         '"shapes": [[0,0,0,0],[0,0,0,0]]}', "field 'edges'"),
        ('{"nodes": ["relu"], "edges": [], "shapes": [[1.5,0,0,0]]}', "field 'shapes'"),
        ('{"nodes": ["relu", 3], "edges": [], "shapes": [[0,0,0,0],[0,0,0,0]]}',
         "field 'nodes'"),
    ])
    def test_wrong_json_type_names_field(self, vocab, doc, field):
        # a JSON true is a bool, never read as the integer 1
        with pytest.raises(GraphParseError, match=field):
            parse_graph(doc, vocab)

    def test_edge_order_canonicalized(self, vocab):
        a = '{"nodes": ["conv2d","relu","linear"], "edges": [[1,2],[0,1]], "shapes": [[0,0,0,0],[0,0,0,0],[0,0,0,0]]}'
        b = '{"nodes": ["conv2d","relu","linear"], "edges": [[0,1],[1,2]], "shapes": [[0,0,0,0],[0,0,0,0],[0,0,0,0]]}'
        assert (json.dumps(graph_to_obj(parse_graph(a, vocab), vocab))
                == json.dumps(graph_to_obj(parse_graph(b, vocab), vocab)))

    def test_round_trip_identity_on_generated_graphs(self, vocab):
        cfg = GenConfig(rng_seed=0, min_nodes=1, max_nodes=30)
        for i in range(200):
            rng = np.random.default_rng([31, i])
            g = gen_architecture(cfg, rng, name=f"g{i}")
            text = json.dumps(graph_to_obj(g, vocab))
            assert parse_graph(text, vocab) == g
            # the document of parse(x) is canonical and stable
            assert json.dumps(graph_to_obj(parse_graph(text, vocab), vocab)) == text


def test_dot_export_mentions_every_node(vocab, chain_graph):
    dot = to_dot(chain_graph, vocab)
    assert dot.startswith("digraph")
    assert "n0 -> n1;" in dot
    assert "conv2d" in dot
