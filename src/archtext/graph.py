"""Architecture-graph IR: a DAG of operation nodes with parameter shapes.

A graph holds an ordered node list (operation ids into a node vocabulary),
a set of directed edges, and one 4-tuple of non-negative integers below
2**53 per node (out-channels, in-channels, kernel-h, kernel-w). Nodes
without shape attributes carry the sentinel (0, 0, 0, 0). A batch of graphs
reaches the GAT through `attention_edges`, the one constructor of the
`autodiff.GatEdges` layout of their attention neighbourhoods.

All values are immutable after construction and safe to share across
threads. Graphs share their immutable parts through two tables that only
construction touches: `_ROWS` gives each distinct edge pair or shape row
one tuple and holds at most `_ROWS_CAP` of them, and `_EDGE_SETS` gives
each distinct edge set one frozenset and holds at most one per live
distinct set. A dataset's graphs repeat few pairs, rows and edge sets
among many, so sharing them cuts the memory its graphs hold severalfold.
No value, equality or hash depends on the tables: every other operation
in this module is pure. A shared edge set may iterate in another order
than an equal set built anew, so whatever needs an order sorts the edges.
"""

from __future__ import annotations

import copy
import json
import weakref
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .autodiff import GatEdges, Segments
from .text import Vocab

MASK_NODE = "[MASK_NODE]"
PAD_NODE = "[PAD_NODE]"
UNK_NODE = "[UNK_NODE]"
RESERVED_NODE_TOKENS = (MASK_NODE, PAD_NODE, UNK_NODE)

MASK_NODE_ID = 0
PAD_NODE_ID = 1
UNK_NODE_ID = 2

Shape = tuple[int, int, int, int]
SENTINEL_SHAPE: Shape = (0, 0, 0, 0)
# shape entries stay below 2**53, where float64 holds every integer exactly
SHAPE_LIMIT = 2 ** 53

# The one tuple of each distinct edge pair and shape row, keyed by itself.
# Tuples cannot be weakly referenced, so the table has a fixed cap instead
# and is cleared when full; graphs built after a clear share less, and no
# value changes. Graphs of at most 64 nodes, the default `max_nodes`, have
# at most 2,016 forward edge pairs, and one set-up of a perfbench workload
# holds at most 1,820 distinct pairs and 136 distinct rows, so 4096 keeps
# them all with room to spare. Full, the table holds at most 0.97 MB on
# 64-bit CPython: a 148 KB dict and 4096 rows of at most 200 bytes each, a
# 72-byte 4-tuple and four 32-byte ints.
_ROWS_CAP = 4096
_ROWS: dict[tuple[int, ...], tuple[int, ...]] = {}
# The one frozenset of each distinct edge set among live graphs, keyed by
# its hash: a set that no graph holds drops out. Two sets of equal hash but
# unequal value keep the later one, and the earlier one is not shared.
_EDGE_SETS: weakref.WeakValueDictionary[int, frozenset] = weakref.WeakValueDictionary()


class GraphParseError(ValueError):
    """Raised on a malformed graph document (syntax or schema)."""


class GraphValidationError(ValueError):
    """Raised when a syntactically valid document violates graph invariants."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(f"{c}: {m}" for c, m in report.violations))
        self.report = report


class NodeVocab(Vocab):
    """Operation-name vocabulary; ids 0..2 are reserved control tokens."""

    RESERVED, UNK_ID, KIND = RESERVED_NODE_TOKENS, UNK_NODE_ID, "node"


@dataclass(frozen=True)
class ArchGraph:
    """Immutable architecture graph: nodes, directed edges, per-node shapes.

    `edges` and `shapes`, and the tuples inside them, may be objects that
    other graphs hold too: construction stores one object per distinct
    value (see the module docstring), and `with_nodes` copies share them.
    """

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    shapes: tuple[Shape, ...]
    name: str | None = None

    def __init__(self, nodes, edges, shapes, name: str | None = None):
        object.__setattr__(self, "nodes", tuple(int(n) for n in nodes))
        object.__setattr__(self, "edges", _shared_edges(
            frozenset(_shared_row((int(a), int(b))) for a, b in edges)))
        object.__setattr__(self, "shapes", tuple(_shared_row(tuple(map(int, s))) for s in shapes))
        object.__setattr__(self, "name", name)

    def with_nodes(self, nodes: tuple[int, ...]) -> "ArchGraph":
        """This graph with the node ids `nodes`, which must be a tuple of ints
        of the same length; the copy holds this graph's `edges`, `shapes`
        and name as they are."""
        g = copy.copy(self)
        object.__setattr__(g, "nodes", nodes)
        return g

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _shared_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """The one tuple in `_ROWS` equal to `row`."""
    shared = _ROWS.get(row)
    if shared is None:
        if len(_ROWS) >= _ROWS_CAP:
            _ROWS.clear()
        shared = _ROWS[row] = row
    return shared


def _shared_edges(edges: frozenset) -> frozenset:
    """The one frozenset in `_EDGE_SETS` equal to `edges`."""
    key = hash(edges)
    shared = _EDGE_SETS.get(key)
    if shared != edges:
        shared = _EDGE_SETS[key] = edges
    return shared


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def validate_graph(g: ArchGraph) -> ValidationReport:
    """Check every graph invariant; reports all violations, never raises."""
    violations: list[tuple[str, str]] = []
    m = g.num_nodes
    if m < 1:
        violations.append(("empty", "graph must have at least one node"))
    for i, n in enumerate(g.nodes):
        if n < 0:
            violations.append(("node-id", f"node {i} has negative op id {n}"))
    for u, v in g.sorted_edges():
        if not (0 <= u < m and 0 <= v < m):
            violations.append(("edge-range", f"edge ({u},{v}) index out of range for {m} nodes"))
    if len(g.shapes) != m:
        violations.append(("shape-count", f"{len(g.shapes)} shapes for {m} nodes"))
    for i, s in enumerate(g.shapes):
        if len(s) != 4:
            violations.append(("shape-arity", f"shape {i} has {len(s)} entries, expected 4"))
        elif min(s) < 0:
            violations.append(("shape-negative", f"shape {i} = {s} has a negative entry"))
        elif max(s) >= SHAPE_LIMIT:
            violations.append(("shape-range", f"shape {i} = {s} has an entry of 2**53 or more"))
    back = _kahn(g)
    if back is not None:
        violations.append(("cycle", f"graph contains a cycle through edge {back}"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _kahn(g: ArchGraph) -> tuple[int, int] | None:
    """Kahn elimination over the in-range edges.

    Returns None if every node is eliminated, else the smallest edge inside
    the residual cyclic core that blocks it. That core is the same whatever
    order the nodes are eliminated in.
    """
    m = g.num_nodes
    if all(0 <= u < v < m for u, v in g.edges):
        # every edge points to a later node: no cycle
        return None
    edges = [(u, v) for u, v in g.sorted_edges() if 0 <= u < m and 0 <= v < m]
    indeg = [0] * m
    succ: list[list[int]] = [[] for _ in range(m)]
    for u, v in edges:
        indeg[v] += 1
        succ[u].append(v)
    ready = [i for i in range(m) if indeg[i] == 0]
    removed = set()
    while ready:
        u = ready.pop()
        removed.add(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(removed) == m:
        return None
    # every node left has an in-edge from another node left, so this finds one
    return next((u, v) for u, v in edges if u not in removed and v not in removed)


def attention_edges(graphs: list[ArchGraph], use_edges: bool = True) -> GatEdges:
    """The attention neighbourhoods of `graphs` laid end to end, each graph's
    nodes numbered after those of the graphs before it, in the
    `autodiff.GatEdges` layout that the GAT's layers share: each graph's
    symmetrized adjacency plus self-loops, so the edge set is symmetric and
    every node has an edge. The one constructor of that layout.

    With use_edges=False every position may attend everywhere in its graph
    (the structure-blind ablation).

    A node's place in the rank order moves with its batch-mates' degrees,
    but its k-th edge is always in block k, so the sums over the blocks add
    its terms in the order of its edges and give the same bits alone and in
    any batch.
    """
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    n = int(sizes.sum())
    if use_edges:
        counts = [len(g.edges) for g in graphs]
        uv = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                         dtype=np.int64, count=2 * sum(counts)).reshape(-1, 2)
        if ((uv < 0) | (uv >= np.repeat(sizes, counts)[:, None])).any():
            raise ValueError("edge index out of range for its graph's nodes")
        u, v = (uv + np.repeat(offsets, counts)[:, None]).T
        keys = np.concatenate([u * n + v, v * n + u, np.arange(n) * (n + 1)])
    else:
        keys = np.concatenate([(np.arange(m)[:, None] * n + np.arange(m)).ravel() + o * (n + 1)
                               for o, m in zip(offsets, sizes)])
    keys.sort()
    # a sorted unique, without np.unique's hashing, which costs ten times more here
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    target, source = np.divmod(keys, n)
    # every node has its self-loop, so node i's edges are segment i
    seg = Segments(target, np.flatnonzero(np.concatenate(([True], target[1:] != target[:-1]))))
    # edge e's reverse is the edge whose key is that of (source[e], target[e])
    reverse = np.searchsorted(keys, source * n + target)
    degree = np.diff(seg.starts, append=len(keys))
    node_rank = np.empty(n, dtype=np.int64)
    node_rank[np.argsort(-degree, kind="stable")] = np.arange(n)
    # block k has one entry per node of more than k edges
    widths = n - np.cumsum(np.bincount(degree))[:-1]
    ends = np.cumsum(widths)
    k = np.arange(len(keys)) - seg.starts[target]
    ranked = np.empty(len(keys), dtype=np.int64)
    ranked[(ends - widths)[k] + node_rank[target]] = np.arange(len(keys))
    return GatEdges(source, seg, reverse, ranked, source[ranked], target[ranked], ends, node_rank)


def attention_mask(g: ArchGraph, use_edges: bool = True) -> np.ndarray:
    """Boolean m x m attention mask of `attention_edges`: row i marks the
    positions node i attends to."""
    mask = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
    edges = attention_edges([g], use_edges)
    mask[edges.seg.ids, edges.source] = True
    return mask


def graph_to_obj(g: ArchGraph, vocab: NodeVocab) -> dict:
    """The graph document as a dict: op names, edges sorted lexicographically."""
    obj: dict = {}
    if g.name is not None:
        obj["name"] = g.name
    obj["nodes"] = [vocab.name_of(n) for n in g.nodes]
    obj["edges"] = [[u, v] for u, v in g.sorted_edges()]
    obj["shapes"] = [list(s) for s in g.shapes]
    return obj


def _only(items, kind) -> bool:
    """Whether every item's type is exactly `kind`, so a JSON true, a bool,
    is never taken for an integer."""
    return set(map(type, items)) <= {kind}


def _int_lists(rows, n: int) -> bool:
    """Whether every row is a list of exactly n integers."""
    return _only(rows, list) and set(map(len, rows)) <= {n} and _only(chain.from_iterable(rows), int)


def graph_from_obj(obj, vocab: NodeVocab) -> ArchGraph:
    """Graph from a document dict; op names map to ids via `vocab`. The one
    validating path for graph files and dataset records alike.

    Raises GraphParseError when the document does not follow the schema and
    GraphValidationError (embedding the full report) when the graph violates
    an invariant.
    """
    if not isinstance(obj, dict):
        raise GraphParseError("top-level value must be an object")
    unknown = set(obj) - {"name", "nodes", "edges", "shapes"}
    if unknown:
        raise GraphParseError(f"unknown fields: {sorted(unknown)}")
    for key in ("nodes", "edges", "shapes"):
        if key not in obj:
            raise GraphParseError(f"missing field '{key}'")
        if not isinstance(obj[key], list):
            raise GraphParseError(f"field '{key}' must be a list")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise GraphParseError("field 'name' must be a string")
    # one test per field over all its entries: dataset files hold thousands
    # of graphs, and a loop per entry would cost more than building them
    if not _only(obj["nodes"], str):
        raise GraphParseError("field 'nodes' must hold op-name strings")
    if not _int_lists(obj["edges"], 2):
        raise GraphParseError("field 'edges' must hold pairs of integers")
    if not _int_lists(obj["shapes"], 4):
        raise GraphParseError("field 'shapes' must hold lists of 4 integers")
    g = ArchGraph(nodes=[vocab.id_of(n) for n in obj["nodes"]], edges=obj["edges"],
                  shapes=obj["shapes"], name=name)
    report = validate_graph(g)
    if not report.ok:
        raise GraphValidationError(report)
    return g


def parse_graph(text: str, vocab: NodeVocab) -> ArchGraph:
    """Parse the JSON graph document through `graph_from_obj`; malformed JSON
    is a GraphParseError too."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    return graph_from_obj(doc, vocab)


def to_dot(g: ArchGraph, vocab: NodeVocab) -> str:
    """DOT digraph text for external rendering tools."""
    lines = ["digraph arch {"]
    if g.name:
        lines.append(f'  label="{g.name}";')
    for i, n in enumerate(g.nodes):
        lines.append(f'  n{i} [label="{i}: {vocab.name_of(n)}"];')
    for u, v in g.sorted_edges():
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
