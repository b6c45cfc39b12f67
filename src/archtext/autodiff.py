"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

The engine covers exactly the operation set the model needs: elementwise
arithmetic with broadcasting, reductions, log-softmax, leaky rectifier,
sqrt, clamp, row gather, row selection (`take_rows`), concatenation along
rows, segment sums over packed rows (`segment_sum`), and fused layers with
analytic gradients: `linear`, `layer_norm` and multi-head `attention` over
packed rows, plus five ops that each stand for a whole model stage:
`embed` (a sum of rows gathered from several tables), `gat_layer` (one
multi-head graph attention layer over an edge list), `attention_block`
and `ffn_block` (the two pre-norm residual sublayers of a transformer
layer) and `segment_mean` (mean pooling over packed rows). The layers and
the fused ops share their numpy kernels, so each formula is written once.
Every op validates that its output is finite, and a fused op names the
stage of its computation where NaN or Inf first appeared; NaN or Inf
anywhere is a hard error rather than a silent corruption.

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

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

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
    return np.where(a > 0, a, slope * a)


def _leaky_relu_grad(g: np.ndarray, a: np.ndarray, slope: float) -> np.ndarray:
    return g * np.where(a > 0, 1.0, slope)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    return Tensor._from_op(_leaky_relu(a.data, slope), (a,), lambda g: (
        (a, _leaky_relu_grad(g, a.data, slope)),
    ), "leaky_relu")


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


def log_softmax(logits: Tensor) -> Tensor:
    """Log-probabilities along the last axis."""
    rowmax = logits.data.max(axis=-1, keepdims=True)
    shifted = logits.data - rowmax
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

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


def gather_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: rows of `table` selected by integer ids."""
    idx = _gather_ids(table, ids, "gather_rows")
    return Tensor._from_op(table.data[idx], (table,), lambda g: (
        (table, _gather_grad(g, idx, table.data)),
    ), "gather_rows")


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


def _check_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Row indices into n rows, each once and in order."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (rows.size and (rows[0] < 0 or rows[-1] >= n
                                         or (np.diff(rows) <= 0).any())):
        raise ValueError(f"rows must be strictly increasing indices in [0, {n})")
    return rows


def take_rows(a: Tensor, rows) -> Tensor:
    """The listed rows of `a`, strictly increasing so that each is taken once
    and the gradient goes back by assignment."""
    rows = _check_rows(rows, a.data.shape[0])

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[rows] = g
        return ((a, ga),)

    return Tensor._from_op(a.data[rows], (a,), backward, "take_rows")


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


def segment_mean(a: Tensor, lengths) -> Tensor:
    """Means over consecutive runs of rows, lengths[i] rows for run i: (R, d)
    rows give (len(lengths), d). Each run is summed on its own (`reduceat`)
    and then scaled by 1 / its length."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths.ndim != 1 or not len(lengths) or lengths.min() < 1
            or lengths.sum() != a.data.shape[0]):
        raise ValueError(f"segment lengths {lengths.tolist()} do not split "
                         f"{a.data.shape[0]} rows")
    inv = 1.0 / lengths[:, None]
    out = np.add.reduceat(a.data, np.cumsum(lengths) - lengths, axis=0)
    out *= inv
    return Tensor._from_op(out, (a,), lambda g: (
        (a, np.repeat(g * inv, lengths, axis=0)),
    ), "segment_mean")


def concat(parts: list[Tensor]) -> Tensor:
    """The parts' rows, stacked in order."""
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])
    return Tensor._from_op(np.concatenate([p.data for p in parts]), tuple(parts), lambda g: tuple(
        (p, g[s:e]) for p, s, e in zip(parts, offsets[:-1], offsets[1:])), "concat")


def _layer_norm(x: np.ndarray, scale: np.ndarray, bias: np.ndarray, eps: float):
    """The normalized, scaled and shifted rows, and the normalized rows and
    inverse deviations the gradient reads."""
    inv_n = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
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


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize over the last axis, then apply the affine pair; one op with
    the analytic gradient (Ba et al., arXiv 1607.06450)."""
    out, xhat, inv = _layer_norm(x.data, scale.data, bias.data, eps)
    return Tensor._from_op(out, (x, scale, bias), lambda g: zip(
        (x, scale, bias), _layer_norm_grads(g, xhat, inv, scale.data, bias.data)),
        "layer_norm")


# ---------------------------------------------------------------------------
# attention over packed rows


def _by_head(rows: np.ndarray, n: int, heads: int) -> np.ndarray:
    """(n*l, heads*dh) rows of n sequences as per-head blocks (n, heads, l, dh)."""
    return rows.reshape(n, -1, heads, rows.shape[-1] // heads).transpose(0, 2, 1, 3)


def _by_row(blocks: np.ndarray) -> np.ndarray:
    """(n, heads, l, dh) per-head blocks back to (n*l, heads*dh) rows."""
    n, heads, l, dh = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * l, heads * dh)


def _length_groups(lengths, rows: int) -> list[tuple[slice | np.ndarray, int]]:
    """The sequences of each length among `rows` packed rows, as (row
    selector, sequence count) pairs: a slice when the group's rows are
    contiguous, else the row indices in order."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths.ndim == 1 and len(lengths) and lengths[0] >= 1
            and lengths[0] * len(lengths) == rows and (lengths == lengths[0]).all()):
        return [(slice(0, rows), len(lengths))]   # one length: every row in one block
    if lengths.ndim != 1 or not len(lengths) or lengths.min() < 1 or lengths.sum() != rows:
        raise ValueError(f"sequence lengths {lengths.tolist()} do not split {rows} rows")
    starts = np.cumsum(lengths) - lengths
    groups = []
    for length in np.unique(lengths):
        first = starts[lengths == length]
        if first[-1] - first[0] == (len(first) - 1) * length:
            rows_of = slice(int(first[0]), int(first[0] + len(first) * length))
        else:
            rows_of = (first[:, None] + np.arange(length)).ravel()
        groups.append((rows_of, len(first)))
    return groups


def _head_blocks(q, k, v, rows_of, n: int, heads: int, scale: float):
    return (_by_head(q[rows_of], n, heads) * scale, _by_head(k[rows_of], n, heads),
            _by_head(v[rows_of], n, heads))


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, groups, mask):
    """The attention output over `groups` (as `_length_groups` gives them),
    and the attention weights of each group, which the gradient reads."""
    scale = 1.0 / math.sqrt(q.shape[1] // heads)
    out = np.empty_like(q)
    weights = []
    for rows_of, n in groups:
        qh, kh, vh = _head_blocks(q, k, v, rows_of, n, heads, scale)
        s = qh @ kh.swapaxes(-1, -2)
        if mask is not None:
            np.copyto(s, -np.inf, where=~mask)
        s -= s.max(axis=-1, keepdims=True)
        p = np.exp(s, out=s)
        p /= p.sum(axis=-1, keepdims=True)
        out[rows_of] = _by_row(p @ vh)
        weights.append(p)
    return out, weights


def _attention_grads(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     heads: int, groups, weights):
    """The gradients of `_attention` for q, k and v, given the output's:
    dS = P * (dP - rowsum(dP * P)) (FlashAttention, arXiv 2205.14135)."""
    scale = 1.0 / math.sqrt(q.shape[1] // heads)
    gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for (rows_of, n), p in zip(groups, weights):
        qh, kh, vh = _head_blocks(q, k, v, rows_of, n, heads, scale)
        go = _by_head(g[rows_of], n, heads)
        dp = go @ vh.swapaxes(-1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        gq[rows_of] = _by_row(ds @ kh) * scale
        gk[rows_of] = _by_row(ds.swapaxes(-1, -2) @ qh)
        gv[rows_of] = _by_row(p.swapaxes(-1, -2) @ go)
    return gq, gk, gv


def _check_heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> None:
    (lq, d), (lk, dk) = q.shape, k.shape
    if dk != d or v.shape != (lk, d) or d % heads:
        raise ValueError(f"attention over {heads} heads cannot take q {q.shape}, "
                         f"k {k.shape}, v {v.shape}")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, lengths=None,
              mask=None) -> Tensor:
    """Scaled dot-product attention over packed rows, every head in one op.

    q (Lq, d), k and v (Lk, d) split their d columns into `heads` heads; the
    result has q's shape, heads merged, before any output projection.
    - With `lengths`, q, k and v hold the same sequences end to end,
      lengths[b] rows each, and a row attends over its own sequence only.
      The sequences of one length run as one dense (n, heads, l, l) block,
      so no row is padding and a sequence gets the same bits alone and in
      any batch (Krell et al., arXiv 2107.02027).
    - Without, every query attends over every key, or over the keys that
      `mask` (broadcasting to (Lq, Lk)) marks true; a masked key gets
      exactly zero weight, and each query must keep at least one key.

    Only the attention weights P are kept for the backward pass.
    """
    _check_heads(q.data, k.data, v.data, heads)
    lq, lk = q.data.shape[0], k.data.shape[0]
    if lengths is not None:
        if mask is not None or lk != lq:
            raise ValueError("attention over sequence lengths takes no mask, and one "
                             "row of q, k and v per position")
        groups = _length_groups(lengths, lq)
    else:
        groups = [(slice(None), 1)]
        if mask is not None:
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), (lq, lk))
            if not mask.any(axis=-1).all():
                raise ValueError("attention query with every key masked")
    out, weights = _attention(q.data, k.data, v.data, heads, groups, mask)
    return Tensor._from_op(out, (q, k, v), lambda g: zip(
        (q, k, v), _attention_grads(g, q.data, k.data, v.data, heads, groups, weights)),
        "attention")


# ---------------------------------------------------------------------------
# transformer sublayers: each pre-norm residual sublayer is one op


def attention_block(x: Tensor, norm: tuple[Tensor, Tensor],
                    proj: tuple[tuple[Tensor, Tensor], ...], heads: int, lengths) -> Tensor:
    """The pre-norm self-attention sublayer over packed rows, as one op:
    x + linear_o(attention(linear_q(y), linear_k(y), linear_v(y))) for
    y = layer_norm(x), with `norm` the layer norm's (scale, bias) and `proj`
    the (w, b) pairs of the q, k, v and output projections. x (R, d) holds
    sequences end to end, lengths[b] rows each, as for `attention`.

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
    groups = _length_groups(lengths, x.data.shape[0])
    y, xhat, inv = _layer_norm(x.data, scale.data, bias.data, _LN_EPS)
    q, k, v = (_linear(y, w.data, b.data) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    stages = [("layer norm", y), ("q projection", q), ("k projection", k), ("v projection", v)]
    if not _finite(k):
        raise _stage_error("attention_block", stages)
    _check_heads(q, k, v, heads)
    att, weights = _attention(q, k, v, heads, groups, None)
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
        return ((x, gx), (scale, gscale), (bias, gbias), (wq, gwq), (bq, gbq),
                (wk, gwk), (bk, gbk), (wv, gwv), (bv, gbv), (wo, gwo), (bo, gbo))

    try:
        return Tensor._from_op(o + x.data, (x, scale, bias, wq, bq, wk, bk, wv, bv, wo, bo),
                               backward, "attention_block")
    except NonFiniteError:
        raise _stage_error("attention_block", stages) from None


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
    y, xhat, inv = _layer_norm(x.data, scale.data, bias.data, _LN_EPS)
    pre = _linear(y, w1.data, b1.data)
    h = _leaky_relu(pre, 0.2)
    f = _linear(h, w2.data, b2.data)

    def backward(g):
        gh, gw2, gb2 = _linear_grads(g, h, w2.data, b2.data)
        gy, gw1, gb1 = _linear_grads(_leaky_relu_grad(gh, pre, 0.2), y, w1.data, b1.data)
        gx, gscale, gbias = _layer_norm_grads(gy, xhat, inv, scale.data, bias.data)
        gx += g
        return ((x, gx), (scale, gscale), (bias, gbias), (w1, gw1), (b1, gb1),
                (w2, gw2), (b2, gb2))

    try:
        return Tensor._from_op(f + x.data, (x, scale, bias, w1, b1, w2, b2), backward,
                               "ffn_block")
    except NonFiniteError:
        raise _stage_error("ffn_block", [("layer norm", y), ("hidden layer", pre),
                                         ("output projection", f)]) from None


# ---------------------------------------------------------------------------
# graph attention: each layer is one op


def gat_layer(x: Tensor, ws: list[Tensor], as_: list[Tensor], proj: Tensor,
              edges: tuple[np.ndarray, Segments, np.ndarray]) -> Tensor:
    """One multi-head graph attention layer with its residual, as one op
    (Veličković et al., arXiv 1710.10903), over node rows x (R, d).

    Head h projects the rows by ws[h] (d, dh) to wh. Edge (i, j) scores
    leaky_relu(a_own . wh[i] + a_other . wh[j], 0.2), where as_[h] (1, 2*dh)
    is (a_own, a_other). A softmax over each node's edges weights the sum of
    its neighbours' wh rows. The heads' sums, side by side, are projected by
    `proj` (H*dh, d) with no bias and added to x.

    `edges` is (source, seg, reverse) for an edge list of (target, source)
    pairs grouped by target, node i's edges forming segment i, as
    `model._gat_edges` gives it. The edge set must be symmetric: reverse[e]
    is the index of edge e with its ends swapped. So every gradient that
    flows from edges back to nodes is a segment sum over the reversed
    edges, with no scattered adds, and each segment is reduced on its own
    (`reduceat`), so a node's values do not depend on the graphs around it.

    Bits and gradients are those of the single ops the layer was built from,
    as for `attention_block`. The scores are checked at once: a score that
    overflowed to -inf takes zero weight and would leave no trace in the
    result. A NaN or Inf anywhere else reaches the result.
    """
    source, seg, reverse = edges
    heads, r = len(ws), x.data.shape[0]
    if len(as_) != heads or len(seg.starts) != r or len(seg.ids) != len(source):
        raise ValueError(f"{len(seg.starts)} segments of {len(seg.ids)} edges for {r} nodes "
                         f"and {len(source)} edges, {heads} W and {len(as_)} a for the heads")
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
    mixed = np.add.reduceat(p[:, :, None] * wh[source], seg.starts, axis=0).reshape(r, -1)
    o = _rows_matmul(mixed, proj.data)
    stages.append(("output projection", o))

    def backward(g):
        gmixed = (g @ proj.data.T).reshape(r, heads, dh)
        gp = np.einsum("ehk,ehk->eh", gmixed[seg.ids], wh[source])
        gz = p * (gp - np.add.reduceat(gp * p, seg.starts, axis=0)[seg.ids])
        gs = _leaky_relu_grad(gz, scores, 0.2)
        gown = np.add.reduceat(gs, seg.starts, axis=0)[:, :, None]
        gother = np.add.reduceat(gs[reverse], seg.starts, axis=0)[:, :, None]
        # wh's three gradients in the order the tape met them: mix, own, other
        gwh = np.add.reduceat(p[reverse][:, :, None] * gmixed[source], seg.starts, axis=0)
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
