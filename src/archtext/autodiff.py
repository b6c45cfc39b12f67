"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

The engine covers exactly the operation set the model needs: elementwise
arithmetic with broadcasting, reductions, log-softmax, sqrt, clamp, segment
sums over packed rows (`segment_sum`), `linear`, and fused ops with analytic
gradients that each stand for a whole model stage: `embed` (a sum of rows
gathered from several tables), `gat_layer` (one multi-head graph attention
layer over an edge list), `attention_block`, `cross_attention_block` and
`ffn_block` (the pre-norm residual sublayers of a transformer layer over
packed rows, self-attention optionally causal), `mlp` (the two-layer output
heads), `segment_mean` (mean pooling over packed rows) and `nll` (a weighted
negative log-likelihood). The fused ops share their numpy kernels, so each
formula is written once; forward-only code, such as a beam-search step over
a `KVCache` whose buffers it writes in place, composes the same kernels
with no tape. `gat_layer` reads its edge list in the `GatEdges` layout,
which one function builds from graphs, `graph.attention_edges`, once per
encode: grouped by target for the narrow per-edge softmax sums, and by
degree rank for the wide per-node sums, each a slice add per rank (a
jagged-diagonal order, Saad 1989). Either way a node's sums read its own
edges only, in an order fixed by its own degree, so its values do not
depend on its batch-mates. Every op validates that its output is finite,
and a fused op names the stage of its computation where NaN or Inf first
appeared; NaN or Inf anywhere is a hard error rather than a silent
corruption.

Gradients flow through a tape built implicitly by op closures; calling
`backward` on a scalar seeds the reverse pass. `finite_diff` provides the
independent central-difference oracle used by the gradient checks, and
`adam_step` implements the bias-corrected Adam update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class NonFiniteError(ArithmeticError):
    """A computation produced NaN or Inf."""


def _finite(arr: np.ndarray) -> bool:
    # the ufunc reduce, not np.all: on the small arrays of a batch of one,
    # np.all's Python-level wrapper costs more than the check itself
    return np.logical_and.reduce(np.isfinite(arr), axis=None)


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not _finite(arr):
        raise NonFiniteError(f"non-finite values produced by {op}")
    return arr


def _stage_error(op: str, stages) -> NonFiniteError:
    """The error of a fused op whose values went non-finite: it names the
    first of the (name, array) stages that is not finite, or no stage when
    only the result is."""
    bad = next((name for name, arr in stages if not _finite(arr)), None)
    return NonFiniteError(f"non-finite values produced by {op}"
                          + (f" ({bad})" if bad else ""))


class Tensor:
    """A float64 array plus the tape hooks for reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor construction")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self.name = name

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_op(cls, data, parents, backward, op: str) -> "Tensor":
        t = cls.__new__(cls)
        t.data = _check_finite(np.asarray(data, dtype=np.float64), op)
        t.grad = None
        t.requires_grad = any(p.requires_grad for p in parents)
        t._parents = tuple(parents) if t.requires_grad else ()
        t._backward = backward if t.requires_grad else None
        t.name = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.item())

    # -- autodiff -----------------------------------------------------------

    def backward(self) -> None:
        """Reverse pass from this scalar; accumulates into the `.grad` of the
        leaves. The tape is used up: afterwards the intermediate results are
        constants, so build the computation again for another pass."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar objective")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)
            step = node._backward
            if node._parents:
                # the pass consumes the tape: once its gradient has gone
                # through, a result keeps its value as a constant and lets go
                # of its inputs, so the forward pass's memory is released as
                # the pass goes rather than after it
                node._parents, node._backward, node.requires_grad = (), None, False
            elif g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if g is None or step is None:
                continue
            for parent, pg in step(g):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return Tensor._from_op(out, (a, b), lambda g: (
        (a, _unbroadcast(g, a.data.shape)),
        (b, _unbroadcast(g, b.data.shape)),
    ), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return Tensor._from_op(out, (a, b), lambda g: (
        (a, _unbroadcast(g, a.data.shape)),
        (b, _unbroadcast(-g, b.data.shape)),
    ), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return Tensor._from_op(out, (a, b), lambda g: (
        (a, _unbroadcast(g * b.data, a.data.shape)),
        (b, _unbroadcast(g * a.data, b.data.shape)),
    ), "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return Tensor._from_op(out, (a, b), lambda g: (
        (a, _unbroadcast(g / b.data, a.data.shape)),
        (b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)),
    ), "div")


# ---------------------------------------------------------------------------
# linear algebra


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, where a lone row of a 2-D x runs as two rows: BLAS takes one
    row through its matrix-vector product, which rounds it differently from
    the matrix-matrix product of two or more, so a row's bits would depend
    on how many rows share the call."""
    if x.ndim == 2 and w.ndim == 2 and x.shape[0] == 1:
        return (np.concatenate((x, x)) @ w)[:1]
    return x @ w


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _rows_matmul(x, w)
    out += b
    return out


def _linear_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The gradients of x @ w + b for x, w and b, given the output's."""
    return g @ w.T, x.T @ g, _unbroadcast(g, b.shape)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for rows x (R, n), weights w (n, m) and a bias b that
    broadcasts to (R, m)."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(f"linear expects 2-D rows and weights, got "
                         f"{x.data.shape} @ {w.data.shape}")
    return Tensor._from_op(_linear(x.data, w.data, b.data), (x, w, b), lambda g: zip(
        (x, w, b), _linear_grads(g, x.data, w.data, b.data)), "linear")


# ---------------------------------------------------------------------------
# reductions


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return ((a, np.broadcast_to(gg, a.data.shape).copy()),)

    return Tensor._from_op(out, (a,), backward, "sum")


def mean(a: Tensor) -> Tensor:
    """The mean of every entry."""
    return mul(sum_(a), _wrap(1.0 / a.data.size))


# ---------------------------------------------------------------------------
# nonlinearities


def _leaky_relu(a: np.ndarray, slope: float) -> np.ndarray:
    # for 0 <= slope <= 1 the larger of a and slope * a is the rectifier's
    # value, signed zeros and NaN included: two passes where np.where takes three
    return np.maximum(a, slope * a)


def _leaky_relu_grad(g: np.ndarray, a: np.ndarray, slope: float) -> np.ndarray:
    return g * np.where(a > 0, 1.0, slope)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return Tensor._from_op(out, (a,), lambda g: (
        (a, g * 0.5 / np.maximum(out, 1e-30)),
    ), "sqrt")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    out = np.maximum(a.data, floor)
    return Tensor._from_op(out, (a,), lambda g: (
        (a, g * (a.data > floor).astype(np.float64)),
    ), "clamp_min")


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Element-wise binary cross-entropy between logistic(logits) and targets,
    computed in the numerically stable log-sum-exp form."""
    t = np.asarray(targets, dtype=np.float64)
    x = logits.data
    out = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        return ((logits, g * (sig - t)),)

    return Tensor._from_op(out, (logits,), backward, "bce_with_logits")


def _log_softmax(a: np.ndarray) -> np.ndarray:
    shifted = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax(logits: Tensor) -> Tensor:
    """Log-probabilities along the last axis."""
    out = _log_softmax(logits.data)

    def backward(g):
        return ((logits, g - np.exp(out) * g.sum(axis=-1, keepdims=True)),)

    return Tensor._from_op(out, (logits,), backward, "log_softmax")


# ---------------------------------------------------------------------------
# structure ops


def _gather_ids(table: Tensor, ids, op: str) -> np.ndarray:
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{op} expects a flat id list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(f"gather id out of range [0, {table.data.shape[0]})")
    return idx


def _gather_grad(g: np.ndarray, idx: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The gradient of table[idx]: the rows of each id summed by one reduceat
    over the ids sorted stably, in place of unbuffered scattered adds."""
    order = np.argsort(idx, kind="stable")
    ids = idx[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    gt = np.zeros_like(table)
    gt[ids[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return gt


def embed(tables: list[Tensor], id_columns) -> Tensor:
    """Sums of rows gathered from several tables: row r is tables[0][ids_0[r]]
    + tables[1][ids_1[r]] + ..., added left to right, for one id column per
    table. One op, where a gather per table and an add per extra table
    would be 2n - 1."""
    idx = [_gather_ids(t, ids, "embed") for t, ids in zip(tables, id_columns, strict=True)]
    if not idx or any(len(i) != len(idx[0]) for i in idx):
        raise ValueError(f"embed needs one or more id columns of one length, got "
                         f"{[len(i) for i in idx]}")
    out = tables[0].data[idx[0]]
    for t, i in zip(tables[1:], idx[1:]):
        out += t.data[i]
    return Tensor._from_op(out, tuple(tables), lambda g: tuple(
        (t, _gather_grad(g, i, t.data)) for t, i in zip(tables, idx)), "embed")


class Segments(NamedTuple):
    """Rows grouped into consecutive, non-empty segments, as `segments`
    builds them: ids[r] is the segment of row r, starts[i] the first row of
    segment i."""

    ids: np.ndarray
    starts: np.ndarray


def segments(ids) -> Segments:
    """The segments of rows labelled 0, 1, 2, ... in order, each label on at
    least one row."""
    ids = np.asarray(ids, dtype=np.int64)
    step = np.diff(ids)
    if ids.ndim != 1 or len(ids) == 0 or ids[0] != 0 or ((step != 0) & (step != 1)).any():
        raise ValueError("segment ids must run 0, 1, 2, ... in order, each on a row")
    return Segments(ids, np.flatnonzero(np.concatenate(([1], step))))


def segment_sum(a: Tensor, seg: Segments) -> Tensor:
    """Sums along axis 0 within each segment of rows: (R, ...) gives one row
    per segment.

    Each segment is reduced on its own (`reduceat`), so its sum does not
    depend on the segments around it.
    """
    if len(seg.ids) != a.data.shape[0]:
        raise ValueError(f"{len(seg.ids)} segment ids for {a.data.shape[0]} rows")
    return Tensor._from_op(np.add.reduceat(a.data, seg.starts, axis=0), (a,),
                           lambda g: ((a, g[seg.ids]),), "segment_sum")


def check_lengths(lengths, n: int, unit: str) -> np.ndarray:
    """`lengths` as an int64 array, checked to split n items of a packed
    batch, such as rows or token ids, end to end into sequences of at
    least one each; a fault is a ValueError naming n and the `unit`."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or not len(lengths) or lengths.min() < 1 or lengths.sum() != n:
        raise ValueError(f"sequence lengths {lengths.tolist()} do not split {n} {unit}")
    return lengths


def segment_mean(a: Tensor, lengths) -> Tensor:
    """Means over consecutive runs of rows, lengths[i] rows for run i: (R, d)
    rows give (len(lengths), d). Each run is summed on its own (`reduceat`)
    and then scaled by 1 / its length."""
    lengths = check_lengths(lengths, a.data.shape[0], "rows")
    inv = 1.0 / lengths[:, None]
    out = np.add.reduceat(a.data, np.cumsum(lengths) - lengths, axis=0)
    out *= inv
    return Tensor._from_op(out, (a,), lambda g: (
        (a, np.repeat(g * inv, lengths, axis=0)),
    ), "segment_mean")


def _layer_norm(x: np.ndarray, scale: np.ndarray, bias: np.ndarray, eps: float):
    """The normalized, scaled and shifted rows, and the normalized rows and
    inverse deviations the gradient reads."""
    # the ufunc reductions, not the methods: the same sums without the
    # methods' Python-level wrapper, which costs more than a row of a small batch
    inv_n = 1.0 / x.shape[-1]
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) * inv_n
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) * inv_n + eps)
    xhat = centered * inv
    return xhat * scale + bias, xhat, inv


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, scale: np.ndarray,
                      bias: np.ndarray):
    """The gradients of `_layer_norm` for x, scale and bias, given the
    output's."""
    gh = g * scale
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    return gx, _unbroadcast(g * xhat, scale.shape), _unbroadcast(g, bias.shape)


_LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# attention over packed rows


def _by_head(rows: np.ndarray, n: int, heads: int) -> np.ndarray:
    """(n*l, heads*dh) rows of n sequences as per-head blocks (n, heads, l, dh)."""
    return rows.reshape(n, -1, heads, rows.shape[-1] // heads).transpose(0, 2, 1, 3)


def _by_row(blocks: np.ndarray) -> np.ndarray:
    """(n, heads, l, dh) per-head blocks back to (n*l, heads*dh) rows."""
    n, heads, l, dh = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * l, heads * dh)


class _Group(NamedTuple):
    """The n sequences of a packed batch that share a query length lq and a
    key length lk, which attention runs as one dense block: their query rows
    and their key rows, each a slice when the sequences lie end to end, else
    the row indices in order, and the (lq, lk) keys hidden from each query,
    or None when every query sees every key."""

    q: slice | np.ndarray
    k: slice | np.ndarray
    n: int
    hidden: np.ndarray | None


def _rows_of(starts: np.ndarray, length: int) -> slice | np.ndarray:
    """The rows of the sequences of one length that start at `starts`."""
    if starts[-1] - starts[0] == (len(starts) - 1) * length:
        return slice(int(starts[0]), int(starts[0] + len(starts) * length))
    return (starts[:, None] + np.arange(length)).ravel()


def _hidden(lq: int, lk: int, causal: bool) -> np.ndarray | None:
    """The keys hidden from each of lq queries over lk keys, the last lq of
    them the queries' own: with `causal`, those after the query's own."""
    return ~np.tri(lq, lk, lk - lq, dtype=bool) if causal and lq > 1 else None


def _length_groups(lengths, rows: int, k_lengths=None, k_rows: int = 0,
                   causal: bool = False) -> list[_Group]:
    """The attention groups of packed rows: sequence b has lengths[b] of the
    `rows` query rows and k_lengths[b] of the `k_rows` key rows, or, without
    k_lengths, the same rows as keys. With `causal`, a query sees the keys
    up to its own position, taking a sequence's last lq keys to be its
    queries' own: query i sees key j for j <= i + lk - lq."""
    lq = check_lengths(lengths, rows, "rows")
    own = k_lengths is None
    lk = lq if own else check_lengths(k_lengths, k_rows, "rows")
    if len(lk) != len(lq):
        raise ValueError(f"{len(lq)} query sequences for {len(lk)} key sequences")
    if len(lq) == 1 or ((lq == lq[0]).all() and (own or (lk == lk[0]).all())):
        # one block holds every row
        return [_Group(slice(0, rows), slice(0, rows if own else k_rows), len(lq),
                       _hidden(int(lq[0]), int(lk[0]), causal))]
    q_starts = np.cumsum(lq) - lq
    k_starts = q_starts if own else np.cumsum(lk) - lk
    width = 1 if own else int(lk.max()) + 1
    pair = lq if own else lq * width + lk
    groups = []
    for p in np.unique(pair).tolist():
        which = pair == p
        a, b = (p, p) if own else divmod(p, width)
        starts = q_starts[which]
        q_of = _rows_of(starts, a)
        groups.append(_Group(q_of, q_of if own else _rows_of(k_starts[which], b), len(starts),
                             _hidden(a, b, causal)))
    return groups


def _head_blocks(q, k, v, group: _Group, heads: int):
    return (_by_head(q[group.q], group.n, heads), _by_head(k[group.k], group.n, heads),
            _by_head(v[group.k], group.n, heads))


def _query_scale(width: int, heads: int) -> float:
    """The factor that scales the queries of `heads` heads over `width`
    columns: 1 / sqrt of a head's width."""
    return 1.0 / math.sqrt(width // heads)


def _attend(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, hidden: np.ndarray | None):
    """The attention of per-head query blocks (n, heads, lq, dh), already
    scaled (`_query_scale`), over key and value blocks (n, heads, lk, dh):
    the weighted sums of the values, (n, heads, lq, dh), and the weights,
    which the gradient reads. A key `hidden` (lq, lk) marks gets exactly
    zero weight."""
    s = qh @ kh.swapaxes(-1, -2)
    if hidden is not None:
        np.copyto(s, -np.inf, where=hidden)
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    p = np.exp(s, out=s)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p @ vh, p


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, groups):
    """The attention output over `groups` (as `_length_groups` gives them),
    and the attention weights of each group, which the gradient reads."""
    # the queries are scaled once, not once per group
    q = q * _query_scale(q.shape[1], heads)
    out = np.empty_like(q)
    weights = []
    for group in groups:
        o, p = _attend(*_head_blocks(q, k, v, group, heads), group.hidden)
        out[group.q] = _by_row(o)
        weights.append(p)
    return out, weights


def _attention_grads(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     heads: int, groups, weights):
    """The gradients of `_attention` for q, k and v, given the output's:
    dS = P * (dP - rowsum(dP * P)) (FlashAttention, arXiv 2205.14135)."""
    scale = _query_scale(q.shape[1], heads)
    q = q * scale
    gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for group, p in zip(groups, weights):
        qh, kh, vh = _head_blocks(q, k, v, group, heads)
        go = _by_head(g[group.q], group.n, heads)
        dp = go @ vh.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        gq[group.q] = _by_row(ds @ kh) * scale
        gk[group.k] = _by_row(ds.swapaxes(-1, -2) @ qh)
        gv[group.k] = _by_row(p.swapaxes(-1, -2) @ go)
    return gq, gk, gv


def _check_heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> None:
    (lq, d), (lk, dk) = q.shape, k.shape
    if dk != d or v.shape != (lk, d) or d % heads:
        raise ValueError(f"attention over {heads} heads cannot take q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")


class KVCache:
    """The self-attention keys and values of the positions decoded so far,
    for n sequences that grow in step (Vaswani et al., arXiv 1706.03762).
    Keys and values each sit in one (rows, capacity, d) buffer,
    sequence-major, which the first `extend` allocates: each `extend`
    writes its rows in place behind the earlier ones (Pope et al., arXiv
    2211.05102), so no step copies what is cached, and `reorder` hands each
    sequence's rows to the sequences that continue it, gathering only the
    positions filled so far. A reorder to more sequences than the buffers
    have rows moves them to larger ones. The rows are plain arrays: the
    code that reads them builds no tape."""

    __slots__ = ("k", "v", "n", "positions", "capacity")

    def __init__(self, capacity: int = 64):
        self.capacity = capacity   # positions a sequence can hold
        self.k = self.v = None
        self.n = self.positions = 0

    def extend(self, k: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Write the rows k and v (R, d) of n sequences, R / n each, end to
        end, behind each sequence's cached rows; returns every sequence's
        rows so far, (n, positions, d) views of the buffers."""
        rows, d = k.shape
        if n < 1 or rows % n:
            raise ValueError(f"a cache takes n sequences of one length, got {rows} rows "
                             f"for n={n}")
        if self.k is None:
            self.k, self.v = np.empty((n, self.capacity, d)), np.empty((n, self.capacity, d))
            self.n = n
        elif n != self.n:
            raise ValueError(f"{n} sequences for a cache of {self.n}")
        start, end = self.positions, self.positions + rows // n
        if end > self.capacity:
            raise ValueError(f"{end} positions overflow a cache of {self.capacity}")
        self.k[:n, start:end] = k.reshape(n, -1, d)
        self.v[:n, start:end] = v.reshape(n, -1, d)
        self.positions = end
        return self.k[:n, :end], self.v[:n, :end]

    def reorder(self, parents) -> None:
        """Sequence i continues the cached rows of sequence parents[i]."""
        filled = self.positions
        k, v = self.k[parents, :filled], self.v[parents, :filled]
        self.n = len(k)
        if self.n > len(self.k):
            self.k, self.v = (np.empty((self.n,) + self.k.shape[1:]) for _ in "kv")
        self.k[:self.n, :filled], self.v[:self.n, :filled] = k, v


# ---------------------------------------------------------------------------
# transformer sublayers: each pre-norm residual sublayer is one op


def attention_block(x: Tensor, norm: tuple[Tensor, Tensor],
                    proj: tuple[tuple[Tensor, Tensor], ...], heads: int, lengths,
                    causal: bool = False) -> Tensor:
    """The pre-norm self-attention sublayer over packed rows, as one op:
    x + linear_o(attention(linear_q(y), linear_k(y), linear_v(y))) for
    y = layer_norm(x), with `norm` the layer norm's (scale, bias) and `proj`
    the (w, b) pairs of the q, k, v and output projections. x (R, d) holds
    sequences end to end, lengths[b] rows each, and a row attends over its
    own sequence only, or, with `causal`, over its own sequence's rows up to
    its own. The sequences of one length run as one dense (n, heads, l, l)
    block, so no row is padding and a sequence gets the same bits alone and
    in any batch (Krell et al., arXiv 2107.02027).

    The forward pass has the bits of those five ops in turn, and the
    gradients are theirs, summed in the order the tape sums them. A
    non-finite value at any stage raises `NonFiniteError` naming the first
    stage that had one. Most stages are not checked one by one: a NaN or
    Inf in the normalized rows, q, v, the attention output or the output
    projection reaches every later stage and the result, which is checked,
    and only then are the stages searched for the first bad one. k is
    checked at once, because a key that overflowed to -inf takes zero
    attention weight and would leave no trace in the result.
    """
    (scale, bias), ((wq, bq), (wk, bk), (wv, bv), (wo, bo)) = norm, proj
    inputs = (x, scale, bias, wq, bq, wk, bk, wv, bv, wo, bo)
    groups = _length_groups(lengths, x.data.shape[0], causal=causal)
    y, xhat, inv = _layer_norm(x.data, scale.data, bias.data, _LN_EPS)
    q, k, v = (_linear(y, w.data, b.data) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    stages = [("layer norm", y), ("q projection", q), ("k projection", k), ("v projection", v)]
    if not _finite(k):
        raise _stage_error("attention_block", stages)
    _check_heads(q, k, v, heads)
    att, weights = _attention(q, k, v, heads, groups)
    o = _linear(att, wo.data, bo.data)
    stages += [("attention", att), ("output projection", o)]

    def backward(g):
        gatt, gwo, gbo = _linear_grads(g, att, wo.data, bo.data)
        gq, gk, gv = _attention_grads(gatt, q, k, v, heads, groups, weights)
        # y's three gradients in the order the tape met them: q, k, v
        gy, gwq, gbq = _linear_grads(gq, y, wq.data, bq.data)
        gyk, gwk, gbk = _linear_grads(gk, y, wk.data, bk.data)
        gy += gyk
        gyv, gwv, gbv = _linear_grads(gv, y, wv.data, bv.data)
        gy += gyv
        gx, gscale, gbias = _layer_norm_grads(gy, xhat, inv, scale.data, bias.data)
        gx += g
        return zip(inputs, (gx, gscale, gbias, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo))

    try:
        return Tensor._from_op(o + x.data, inputs, backward, "attention_block")
    except NonFiniteError:
        raise _stage_error("attention_block", stages) from None


def cross_attention_block(x: Tensor, kv: tuple[Tensor, Tensor], norm: tuple[Tensor, Tensor],
                          proj: tuple[tuple[Tensor, Tensor], tuple[Tensor, Tensor]],
                          heads: int, lengths, kv_lengths) -> Tensor:
    """The pre-norm cross-attention sublayer over packed rows, as one op:
    x + linear_o(attention(linear_q(layer_norm(x)), k, v)) for kv = (k, v),
    key and value rows projected beforehand, `norm` the layer norm's
    (scale, bias) and `proj` the (w, b) pairs of the q and output
    projections. Sequence b has lengths[b] rows of x, which attend over its
    kv_lengths[b] rows of k and v only; the sequences of one pair of lengths
    run as one dense block. Bits, gradients and errors as for
    `attention_block`: the keys are checked where they are made."""
    (scale, bias), ((wq, bq), (wo, bo)) = norm, proj
    k, v = kv
    inputs = (x, k, v, scale, bias, wq, bq, wo, bo)
    groups = _length_groups(lengths, x.data.shape[0], kv_lengths, k.data.shape[0])
    y, xhat, inv = _layer_norm(x.data, scale.data, bias.data, _LN_EPS)
    q = _linear(y, wq.data, bq.data)
    _check_heads(q, k.data, v.data, heads)
    att, weights = _attention(q, k.data, v.data, heads, groups)
    o = _linear(att, wo.data, bo.data)

    def backward(g):
        gatt, gwo, gbo = _linear_grads(g, att, wo.data, bo.data)
        gq, gk, gv = _attention_grads(gatt, q, k.data, v.data, heads, groups, weights)
        gy, gwq, gbq = _linear_grads(gq, y, wq.data, bq.data)
        gx, gscale, gbias = _layer_norm_grads(gy, xhat, inv, scale.data, bias.data)
        gx += g
        return zip(inputs, (gx, gk, gv, gscale, gbias, gwq, gbq, gwo, gbo))

    try:
        return Tensor._from_op(o + x.data, inputs, backward, "cross_attention_block")
    except NonFiniteError:
        raise _stage_error("cross_attention_block", [
            ("layer norm", y), ("q projection", q), ("attention", att),
            ("output projection", o)]) from None


def _mlp(x: np.ndarray, proj):
    """linear_2(leaky_relu(linear_1(x), 0.2)) for the (w, b) array pairs
    `proj`, and the hidden layer before and after the rectifier."""
    (w1, b1), (w2, b2) = proj
    pre = _linear(x, w1, b1)
    h = _leaky_relu(pre, 0.2)
    return _linear(h, w2, b2), pre, h


def _arrays(proj) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The arrays of (w, b) tensor pairs."""
    return tuple((w.data, b.data) for w, b in proj)


def _mlp_grads(g: np.ndarray, x: np.ndarray, h: np.ndarray, proj):
    """The gradients of `_mlp` for x, w1, b1, w2 and b2, given the output's.
    The rectifier's slope is read from its output h, which is positive
    exactly where its input is, so a backward pass keeps h alone."""
    (w1, b1), (w2, b2) = proj
    gh, gw2, gb2 = _linear_grads(g, h, w2, b2)
    gx, gw1, gb1 = _linear_grads(_leaky_relu_grad(gh, h, 0.2), x, w1, b1)
    return gx, gw1, gb1, gw2, gb2


def ffn_block(x: Tensor, norm: tuple[Tensor, Tensor],
              proj: tuple[tuple[Tensor, Tensor], tuple[Tensor, Tensor]]) -> Tensor:
    """The pre-norm feed-forward sublayer, as one op:
    x + linear_2(leaky_relu(linear_1(layer_norm(x)), 0.2)), with `norm` the layer
    norm's (scale, bias) and `proj` the (w, b) pairs of the two linear
    layers. Bits and gradients as for `attention_block`. A NaN or Inf in
    the normalized rows, the hidden layer (the rectifier keeps it) or the
    output projection reaches the result, so the result's check covers
    them, and the error names the first stage that had one."""
    (scale, bias), ((w1, b1), (w2, b2)) = norm, proj
    inputs = (x, scale, bias, w1, b1, w2, b2)
    y, xhat, inv = _layer_norm(x.data, scale.data, bias.data, _LN_EPS)
    arrays = _arrays(proj)
    f, pre, h = _mlp(y, arrays)

    def backward(g):
        gy, *gw = _mlp_grads(g, y, h, arrays)
        gx, gscale, gbias = _layer_norm_grads(gy, xhat, inv, scale.data, bias.data)
        gx += g
        return zip(inputs, (gx, gscale, gbias, *gw))

    try:
        return Tensor._from_op(f + x.data, inputs, backward, "ffn_block")
    except NonFiniteError:
        raise _stage_error("ffn_block", [("layer norm", y), ("hidden layer", pre),
                                         ("output projection", f)]) from None


def mlp(x: Tensor, proj: tuple[tuple[Tensor, Tensor], tuple[Tensor, Tensor]]) -> Tensor:
    """The two-layer perceptron of the output heads, as one op:
    linear_2(leaky_relu(linear_1(x), 0.2)), with `proj` the (w, b) pairs of
    the two layers. Bits, gradients and errors as for `ffn_block`."""
    (w1, b1), (w2, b2) = proj
    arrays = _arrays(proj)
    f, pre, h = _mlp(x.data, arrays)
    try:
        return Tensor._from_op(f, (x, w1, b1, w2, b2), lambda g: zip(
            (x, w1, b1, w2, b2), _mlp_grads(g, x.data, h, arrays)), "mlp")
    except NonFiniteError:
        raise _stage_error("mlp", [("hidden layer", pre), ("output projection", f)]) from None


def nll(logits: Tensor, targets, weights) -> Tensor:
    """The weighted negative log-likelihood of one target per row, as one op:
    -sum_r weights[r] * log_softmax(logits)[r, targets[r]], a scalar."""
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    rows, vocab = logits.data.shape
    if (targets.shape != (rows,) or weights.shape != (rows,)
            or (rows and (targets.min() < 0 or targets.max() >= vocab))):
        raise ValueError(f"nll takes one target in [0, {vocab}) and one weight for each "
                         f"of {rows} rows, got {targets.shape} and {weights.shape}")
    at = np.arange(rows), targets
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)

    def backward(g):
        grad = e / total
        grad[at] -= 1.0
        grad *= (g * weights)[:, None]
        return ((logits, grad),)

    return Tensor._from_op(-(weights * (shifted[at] - np.log(total[:, 0]))).sum(), (logits,),
                           backward, "nll")


# ---------------------------------------------------------------------------
# graph attention: each layer is one op


class GatEdges(NamedTuple):
    """A GAT edge list in the two orders `gat_layer` reads, as
    `graph.attention_edges` builds it from graphs.

    In target order, edge e is the pair (seg.ids[e], source[e]), node i's
    edges forming segment i, and reverse[e] is the edge with e's ends
    swapped. In rank order, the nodes are sorted by edge count, most first
    (stably), and block k holds the k-th edge of each node that has more
    than k: ranked[q] is the target-order index of the edge at rank
    position q, rank_source and rank_target are its ends, and block k runs
    over positions ends[k - 1]:ends[k] (0:ends[0] for block 0, which has
    every node). Block k's targets are a prefix of the node order, so block
    k adds into the first ends[k] - ends[k - 1] sums, and the sum of node i
    ends at row node_rank[i]."""

    source: np.ndarray
    seg: Segments
    reverse: np.ndarray
    ranked: np.ndarray
    rank_source: np.ndarray
    rank_target: np.ndarray
    ends: np.ndarray
    node_rank: np.ndarray


def _rank_sum(terms: np.ndarray, edges: GatEdges) -> np.ndarray:
    """Per-node sums of the per-edge `terms` (E, ...) laid out in rank
    order, in node order: block 0 plus each later block added in place into
    its prefix, so node i's terms are added in the order of its edges,
    whatever nodes share the call. Writes over `terms`."""
    ends = edges.ends
    sums = terms[:ends[0]]
    for lo, hi in zip(ends[:-1].tolist(), ends[1:].tolist()):
        sums[:hi - lo] += terms[lo:hi]
    return sums[edges.node_rank]


def gat_layer(x: Tensor, ws: list[Tensor], as_: list[Tensor], proj: Tensor,
              edges: GatEdges) -> Tensor:
    """One multi-head graph attention layer with its residual, as one op
    (Veličković et al., arXiv 1710.10903), over node rows x (R, d).

    Head h projects the rows by ws[h] (d, dh) to wh. Edge (i, j) scores
    leaky_relu(a_own . wh[i] + a_other . wh[j], 0.2), where as_[h] (1, 2*dh)
    is (a_own, a_other). A softmax over each node's edges weights the sum of
    its neighbours' wh rows. The heads' sums, side by side, are projected by
    `proj` (H*dh, d) with no bias and added to x.

    `edges` is the `GatEdges` layout of a symmetric edge list, so every
    gradient that flows from edges back to nodes is a sum over the reversed
    edges, with no scattered adds. The softmax and the score gradients sum
    each node's narrow (E, H) rows with `reduceat` in target order. The
    wide (E, H, dh) sums, the neighbour mix and wh's gradient, run over the
    rank order: one slice add per block, where `reduceat` would run one
    short inner loop per node and column, and node i's terms are added one
    by one in the order of its edges. Either way a node's sums read its own
    edges only, in an order fixed by its own degree, so its values have the
    same bits alone and in any batch.

    The gradients are those of the layer's single ops; wh's three are
    summed in the order the tape would sum them. The scores are checked at
    once: a score that overflowed to -inf takes zero weight and would leave
    no trace in the result. A NaN or Inf anywhere else reaches the result.
    """
    source, seg, reverse = edges.source, edges.seg, edges.reverse
    heads, r = len(ws), x.data.shape[0]
    if len(as_) != heads or len(seg.starts) != r:
        raise ValueError(f"edges of {len(seg.starts)} nodes for {r} nodes, {heads} W and "
                         f"{len(as_)} a for the heads")
    w = np.concatenate([t.data for t in ws], axis=1)
    a = np.concatenate([t.data for t in as_])
    dh = w.shape[1] // heads
    a_own, a_other = a[:, :dh], a[:, dh:]
    wh = _rows_matmul(x.data, w).reshape(r, heads, dh)
    # sums of products, not matrix-vector products: BLAS mat-vec rounds a
    # row differently depending on its position in the batch
    scores = (wh * a_own).sum(axis=-1)[seg.ids] + (wh * a_other).sum(axis=-1)[source]
    stages = [("projection", wh), ("scores", scores)]
    if not _finite(scores):
        raise _stage_error("gat_layer", stages)
    z = _leaky_relu(scores, 0.2)
    z -= np.maximum.reduceat(z, seg.starts, axis=0)[seg.ids]
    e = np.exp(z, out=z)
    p = e / np.add.reduceat(e, seg.starts, axis=0)[seg.ids]
    terms = wh[edges.rank_source]
    terms *= p[edges.ranked][:, :, None]
    mixed = _rank_sum(terms, edges).reshape(r, -1)
    o = _rows_matmul(mixed, proj.data)
    stages.append(("output projection", o))

    def backward(g):
        gmixed = (g @ proj.data.T).reshape(r, heads, dh)
        # the edge at rank position q is (i, j) for i = rank_target[q] and
        # j = rank_source[q]; gmixed[j] serves both the score gradient of its
        # reverse (j, i) and that edge's term of wh[i]'s gradient, which the
        # rank sum adds into node i's row
        g_src = gmixed[edges.rank_source]
        rank_reverse = reverse[edges.ranked]
        gp = np.empty_like(p)
        gp[rank_reverse] = np.einsum("ehk,ehk->eh", g_src, wh[edges.rank_target])
        gz = p * (gp - np.add.reduceat(gp * p, seg.starts, axis=0)[seg.ids])
        gs = _leaky_relu_grad(gz, scores, 0.2)
        gown = np.add.reduceat(gs, seg.starts, axis=0)[:, :, None]
        gother = np.add.reduceat(gs[reverse], seg.starts, axis=0)[:, :, None]
        # wh's three gradients in the order the tape met them: mix, own, other
        g_src *= p[rank_reverse][:, :, None]
        gwh = _rank_sum(g_src, edges)
        gwh += gown * a_own
        gwh += gother * a_other
        gwh = gwh.reshape(r, -1)
        ga = np.concatenate([(gown * wh).sum(axis=0), (gother * wh).sum(axis=0)], axis=1)
        gw = x.data.T @ gwh
        gx = gwh @ w.T
        gx += g
        return ((x, gx), *((t, gw[:, h * dh:(h + 1) * dh]) for h, t in enumerate(ws)),
                *((t, ga[h:h + 1]) for h, t in enumerate(as_)), (proj, mixed.T @ g))

    try:
        return Tensor._from_op(x.data + o, (x, *ws, *as_, proj), backward, "gat_layer")
    except NonFiniteError:
        raise _stage_error("gat_layer", stages) from None


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_diff(f, params: list[Tensor], h: float = 1e-5) -> list[np.ndarray]:
    """Central differences of the scalar `f()` w.r.t. each parameter entry.

    Mutates parameter data in place during probing and restores it exactly.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f())
            flat[i] = orig - h
            f_minus = float(f())
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Bias-corrected Adam moments, keyed like the parameter dict."""

    lr: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, Tensor], AdamState]:
    """One in-place Adam update over every named parameter with a gradient."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for parameter {name}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = state.m[name] / (1 - b1 ** state.t)
        vhat = state.v[name] / (1 - b2 ** state.t)
        p.data = p.data - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return params, state


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
