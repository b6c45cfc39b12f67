"""Single autodiff ops that composite references are built from: the fused
ops and the fused decoder are checked against compositions of these. They
run on the engine's own kernels, so a composite has the bits of the single
ops it is made of."""

from __future__ import annotations

import numpy as np

import archtext.autodiff as ad
from archtext.autodiff import Tensor


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    return Tensor._from_op(ad._leaky_relu(a.data, slope), (a,), lambda g: (
        (a, ad._leaky_relu_grad(g, a.data, slope)),
    ), "leaky_relu")


def gather_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: rows of `table` selected by integer ids."""
    idx = ad._gather_ids(table, ids, "gather_rows")
    return Tensor._from_op(table.data[idx], (table,), lambda g: (
        (table, ad._gather_grad(g, idx, table.data)),
    ), "gather_rows")


def take_rows(a: Tensor, rows) -> Tensor:
    """The listed rows of `a`, strictly increasing so that each is taken once
    and the gradient goes back by assignment."""
    rows = np.asarray(rows, dtype=np.int64)
    n = a.data.shape[0]
    if rows.ndim != 1 or (rows.size and (rows[0] < 0 or rows[-1] >= n
                                         or (np.diff(rows) <= 0).any())):
        raise ValueError(f"rows must be strictly increasing indices in [0, {n})")

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[rows] = g
        return ((a, ga),)

    return Tensor._from_op(a.data[rows], (a,), backward, "take_rows")


def concat(parts: list[Tensor]) -> Tensor:
    """The parts' rows, stacked in order."""
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])
    return Tensor._from_op(np.concatenate([p.data for p in parts]), tuple(parts), lambda g: tuple(
        (p, g[s:e]) for p, s, e in zip(parts, offsets[:-1], offsets[1:])), "concat")


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float = ad._LN_EPS) -> Tensor:
    """Normalize over the last axis, then apply the affine pair."""
    out, xhat, inv = ad._layer_norm(x.data, scale.data, bias.data, eps)
    return Tensor._from_op(out, (x, scale, bias), lambda g: zip(
        (x, scale, bias), ad._layer_norm_grads(g, xhat, inv, scale.data, bias.data)),
        "layer_norm")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, lengths=None,
              mask=None) -> Tensor:
    """Scaled dot-product attention over packed rows, every head in one op.

    - With `lengths`, q, k and v hold the same sequences end to end,
      lengths[b] rows each, and a row attends over its own sequence only.
    - Without, every query attends over every key, or over the keys that
      `mask` (broadcasting to (Lq, Lk)) marks true; a masked key gets
      exactly zero weight, and each query must keep at least one key.
    """
    ad._check_heads(q.data, k.data, v.data, heads)
    lq, lk = q.data.shape[0], k.data.shape[0]
    if lengths is not None:
        if mask is not None or lk != lq:
            raise ValueError("attention over sequence lengths takes no mask, and one "
                             "row of q, k and v per position")
        groups = ad._length_groups(lengths, lq)
    else:
        hidden = None
        if mask is not None:
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), (lq, lk))
            if not mask.any(axis=-1).all():
                raise ValueError("attention query with every key masked")
            hidden = ~mask
        groups = [ad._Group(slice(None), slice(None), 1, hidden)]
    out, weights = ad._attention(q.data, k.data, v.data, heads, groups)
    return Tensor._from_op(out, (q, k, v), lambda g: zip(
        (q, k, v), ad._attention_grads(g, q.data, k.data, v.data, heads, groups, weights)),
        "attention")
