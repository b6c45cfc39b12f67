"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

The engine covers exactly the operation set the model needs: elementwise
arithmetic with broadcasting, batched matmul with broadcasting, reductions,
log-softmax, leaky rectifier, logistic, sqrt, clamp, row gather, row
selection (`take_rows`), column slicing, concatenation, reshape, axis
permutation, segment sums over packed rows (`segment_sum`), the edge-list
graph attention ops (`edge_scores`, `segment_softmax`, `neighbour_mix`),
and three fused layers with analytic gradients: `linear`, `layer_norm` and
multi-head `attention` over packed rows. Every op validates that its output
is finite; NaN or Inf anywhere is a hard error rather than a silent
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


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    # the ufunc reduce, not np.all: on the small arrays of a batch of one,
    # np.all's Python-level wrapper costs more than the check itself
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteError(f"non-finite values produced by {op}")
    return arr


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

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul expects operands of 2 or more axes, got "
                         f"{a.data.shape} @ {b.data.shape}")
    out = _rows_matmul(a.data, b.data)
    return Tensor._from_op(out, (a, b), lambda g: (
        (a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)),
        (b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)),
    ), "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for rows x (R, n), weights w (n, m) and a bias b that
    broadcasts to (R, m)."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(f"linear expects 2-D rows and weights, got "
                         f"{x.data.shape} @ {w.data.shape}")
    out = _rows_matmul(x.data, w.data)
    out += b.data
    return Tensor._from_op(out, (x, w, b), lambda g: (
        (x, g @ w.data.T),
        (w, x.data.T @ g),
        (b, _unbroadcast(g, b.data.shape)),
    ), "linear")


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


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), _wrap(1.0 / count))


# ---------------------------------------------------------------------------
# nonlinearities


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    out = np.where(a.data > 0, a.data, slope * a.data)
    return Tensor._from_op(out, (a,), lambda g: (
        (a, g * np.where(a.data > 0, 1.0, slope)),
    ), "leaky_relu")


def sigmoid(a: Tensor) -> Tensor:
    out = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                   np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    return Tensor._from_op(out, (a,), lambda g: (
        (a, g * out * (1.0 - out)),
    ), "sigmoid")


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


def gather_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: rows of `table` selected by integer ids."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather_rows expects a flat id list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(f"gather id out of range [0, {table.data.shape[0]})")
    out = table.data[idx]

    def backward(g):
        # the rows of each id summed by one reduceat over the ids sorted
        # stably, in place of unbuffered scattered adds
        order = np.argsort(idx, kind="stable")
        ids = idx[order]
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        gt = np.zeros_like(table.data)
        gt[ids[starts]] = np.add.reduceat(g[order], starts, axis=0)
        return ((table, gt),)

    return Tensor._from_op(out, (table,), backward, "gather_rows")


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


def edge_scores(own: Tensor, other: Tensor, src: np.ndarray, seg: Segments,
                reverse: np.ndarray) -> Tensor:
    """Per-edge sums own[target] + other[source] over an edge list: own and
    other (R, ...) hold one row per node, and the edges are grouped by target
    as for `neighbour_mix`, with `reverse` pairing each edge with its mirror.
    Both gradients are segment sums, `other`'s over the reversed edges."""
    if len(seg.starts) != own.data.shape[0] or len(seg.ids) != len(src):
        raise ValueError(f"{len(seg.starts)} segments of {len(seg.ids)} edges for "
                         f"{own.data.shape[0]} nodes and {len(src)} edges")
    out = own.data[seg.ids] + other.data[src]
    return Tensor._from_op(out, (own, other), lambda g: (
        (own, np.add.reduceat(g, seg.starts, axis=0)),
        (other, np.add.reduceat(g[reverse], seg.starts, axis=0)),
    ), "edge_scores")


def segment_softmax(logits: Tensor, seg: Segments) -> Tensor:
    """Softmax along axis 0 within each segment of rows.

    Each segment is reduced on its own (`reduceat`), so its values do not
    depend on the segments around it.
    """
    if len(seg.ids) != logits.data.shape[0]:
        raise ValueError(f"{len(seg.ids)} segment ids for {logits.data.shape[0]} rows")
    z = logits.data - np.maximum.reduceat(logits.data, seg.starts, axis=0)[seg.ids]
    e = np.exp(z, out=z)
    p = e / np.add.reduceat(e, seg.starts, axis=0)[seg.ids]

    def backward(g):
        inner = np.add.reduceat(g * p, seg.starts, axis=0)[seg.ids]
        return ((logits, p * (g - inner)),)

    return Tensor._from_op(p, (logits,), backward, "segment_softmax")


def neighbour_mix(alpha: Tensor, values: Tensor, src: np.ndarray, seg: Segments,
                  reverse: np.ndarray) -> Tensor:
    """Attention-weighted sums over an edge list: out[i] = sum of
    alpha[e, :, None] * values[src[e]] over the edges e of segment i.

    alpha (E, H) holds one weight per edge and head, values (R, H, dh) one
    row per node; the edges are grouped by target, node i's edges forming
    segment i. The edge set must be symmetric: `reverse[e]` is the index of
    edge e with its ends swapped. The gradient for `values` then is the same
    segment sum over the reversed edges, with no scattered adds.
    """
    if len(seg.starts) != values.data.shape[0] or len(seg.ids) != len(src):
        raise ValueError(f"{len(seg.starts)} segments of {len(seg.ids)} edges for "
                         f"{values.data.shape[0]} nodes and {len(src)} edges")
    out = np.add.reduceat(alpha.data[:, :, None] * values.data[src], seg.starts, axis=0)

    def backward(g):
        return ((alpha, np.einsum("ehk,ehk->eh", g[seg.ids], values.data[src])),
                (values, np.add.reduceat(alpha.data[reverse][:, :, None] * g[src],
                                         seg.starts, axis=0)))

    return Tensor._from_op(out, (alpha, values), backward, "neighbour_mix")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    out = a.data[:, start:stop]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        return ((a, ga),)

    return Tensor._from_op(out, (a,), backward, "slice_cols")


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for p, s, e in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(s, e)
            grads.append((p, g[tuple(sl)]))
        return tuple(grads)

    return Tensor._from_op(out, tuple(parts), backward, "concat")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return Tensor._from_op(a.data.reshape(shape), (a,),
                           lambda g: ((a, g.reshape(a.data.shape)),), "reshape")


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder the axes: output axis i is input axis axes[i]."""
    return Tensor._from_op(a.data.transpose(axes), (a,),
                           lambda g: ((a, g.transpose(np.argsort(axes))),), "permute")


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply the affine pair; one op with
    the analytic gradient (Ba et al., arXiv 1607.06450)."""
    inv_n = 1.0 / x.data.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
    xhat = centered * inv

    def backward(g):
        gh = g * scale.data
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return ((x, gx), (scale, _unbroadcast(g * xhat, scale.data.shape)),
                (bias, _unbroadcast(g, bias.data.shape)))

    return Tensor._from_op(xhat * scale.data + bias.data, (x, scale, bias), backward,
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

    Only the attention weights P are kept for the backward pass, which uses
    dS = P * (dP - rowsum(dP * P)) (FlashAttention, arXiv 2205.14135).
    """
    (lq, d), (lk, dk) = q.data.shape, k.data.shape
    if dk != d or v.data.shape != (lk, d) or d % heads:
        raise ValueError(f"attention over {heads} heads cannot take q {q.data.shape}, "
                         f"k {k.data.shape}, v {v.data.shape}")
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
    scale = 1.0 / math.sqrt(d // heads)

    def blocks(rows_of, n):
        return (_by_head(q.data[rows_of], n, heads) * scale,
                _by_head(k.data[rows_of], n, heads), _by_head(v.data[rows_of], n, heads))

    out = np.empty_like(q.data)
    weights = []
    for rows_of, n in groups:
        qh, kh, vh = blocks(rows_of, n)
        s = qh @ kh.swapaxes(-1, -2)
        if mask is not None:
            np.copyto(s, -np.inf, where=~mask)
        s -= s.max(axis=-1, keepdims=True)
        p = np.exp(s, out=s)
        p /= p.sum(axis=-1, keepdims=True)
        out[rows_of] = _by_row(p @ vh)
        weights.append(p)

    def backward(g):
        gq, gk, gv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for (rows_of, n), p in zip(groups, weights):
            qh, kh, vh = blocks(rows_of, n)
            go = _by_head(g[rows_of], n, heads)
            dp = go @ vh.swapaxes(-1, -2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            gq[rows_of] = _by_row(ds @ kh) * scale
            gk[rows_of] = _by_row(ds.swapaxes(-1, -2) @ qh)
            gv[rows_of] = _by_row(p.swapaxes(-1, -2) @ go)
        return ((q, gq), (k, gk), (v, gv))

    return Tensor._from_op(out, (q, k, v), backward, "attention")


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
