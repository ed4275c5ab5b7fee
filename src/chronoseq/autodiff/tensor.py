"""Reverse-mode automatic differentiation over dense numpy arrays.

Every array is float64, so finite-difference gradient checks are decisive;
the graph-free decoder in model/inference.py runs in float64 too.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "backward",
    "add",
    "scale",
    "matmul",
    "linear",
    "reshape",
    "transpose",
    "concat",
    "index_axis0",
    "gather_rows",
    "layer_norm",
    "LAYER_NORM_EPS",
    "attention",
    "cross_entropy",
    "tied_cross_entropy",
    "gelu",
    "GELU_C",
    "GELU_A",
    "dropout",
    "total_sum",
    "mean_all",
    "first_nonfinite",
]


class Tensor:
    """A node in the compute graph: float64 data plus an optional gradient slot."""

    __slots__ = ("data", "grad", "owns_grad", "requires_grad", "parents", "backward_fn", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.owns_grad = False  # may .grad be written in place, or does it alias another array?
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.parents = parents if self.requires_grad else ()
        self.backward_fn = backward_fn if self.requires_grad else None  # the one gate; every op passes its closure
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(name={self.name!r}, shape={self.data.shape}, grad={self.grad is not None})"


def parameter(data, name=""):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def constant(data, name=""):
    return Tensor(data, requires_grad=False, name=name)


def _accum(t: Tensor, g: np.ndarray, owned=False):
    """Add g into t.grad.

    owned=True hands over an array the op has just created, which t keeps as
    it is. Otherwise g may alias another node's gradient (add, reshape,
    transpose and slices pass views on), so t keeps the view and
    copies it only when a second contribution has to be written into it.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
        t.owns_grad = owned
    elif t.owns_grad:
        t.grad += g
    else:
        t.grad = t.grad + g
        t.owns_grad = True


def _accum_unbroadcast(t: Tensor, g: np.ndarray):
    """_accum of g reduced to t's shape; a reduced gradient is a new array."""
    r = _unbroadcast(g, t.data.shape)
    _accum(t, r, owned=r is not g)


def _accum_at(t: Tensor, index, g: np.ndarray):
    """Add g into t.grad[index], starting from zeros; index must not repeat a position."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif not t.owns_grad:
        t.grad = t.grad.copy()
    t.owns_grad = True
    t.grad[index] += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand (g itself if no reduction is needed)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _consumed(g):
    raise RuntimeError("backward() already ran through this graph; build it again")


def backward(root: Tensor):
    """Backpropagate d(root)/d(leaf) into .grad of every reachable parameter.

    Gradients accumulate (+=) so shared subexpressions are handled correctly;
    call zero_grad on parameters between steps. backward consumes the graph:
    once an interior node has passed its gradient on, its grad, parents and
    backward closure are dropped, so the graph's buffers are freed as the
    pass runs and only leaf gradients remain. Call it once per graph; a
    second call through the same nodes raises RuntimeError.
    """
    if root.data.size != 1:
        raise ValueError("backward() expects a scalar root tensor")
    order = _toposort(root)
    root.grad = np.ones_like(root.data)
    root.owns_grad = True
    for node in reversed(order):
        if node.backward_fn is None:
            continue
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.grad = None
        node.parents = ()
        node.backward_fn = _consumed


def _toposort(root: Tensor):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def first_nonfinite(root: Tensor):
    """Name of the first op (in forward topological order) with non-finite output."""
    for node in _toposort(root):
        if not np.all(np.isfinite(node.data)):
            return node.name or "<unnamed op>"
    return None


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    def bw(g):
        _accum_unbroadcast(a, g)
        _accum_unbroadcast(b, g)

    return Tensor(a.data + b.data, parents=(a, b), backward_fn=bw, name="add")


def scale(a, s: float):
    def bw(g):
        _accum(a, g * s, owned=True)

    return Tensor(a.data * s, parents=(a,), backward_fn=bw, name="scale")


def matmul(a, b):
    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape), owned=True)

    return Tensor(np.matmul(a.data, b.data), parents=(a, b), backward_fn=bw, name="matmul")


def linear(x, w, b):
    """x @ w + b as one node, which keeps no copy of x @ w."""
    y = np.matmul(x.data, w.data)
    y += b.data

    def bw(g):
        if x.requires_grad:
            _accum(x, _unbroadcast(np.matmul(g, np.swapaxes(w.data, -1, -2)), x.data.shape), owned=True)
        if w.requires_grad:
            _accum(w, _unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), g), w.data.shape), owned=True)
        _accum_unbroadcast(b, g)

    return Tensor(y, parents=(x, w, b), backward_fn=bw, name="linear")


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward_fn=bw, name="reshape")


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        _accum(a, np.transpose(g, inv))

    return Tensor(np.transpose(a.data, axes), parents=(a,), backward_fn=bw, name="transpose")


def concat(tensors, axis):
    tensors = tuple(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tensors, backward_fn=bw,
                  name="concat")


def index_axis0(a, i: int):
    """Select one slice along the first axis (e.g. q/k/v from a stacked tensor)."""
    def bw(g):
        _accum_at(a, i, g)

    return Tensor(a.data[i], parents=(a,), backward_fn=bw, name="index_axis0")


def gather_rows(table, idx):
    """Row lookup table[idx] along the first axis; idx may be any integer shape
    (token embeddings, hidden states at the ATT slots)."""
    idx = np.asarray(idx, dtype=np.int64)
    flat = idx.ravel()
    increasing = flat.size < 2 or (flat[0] >= 0 and bool((np.diff(flat) > 0).all()))

    def bw(g):
        if increasing:  # no position repeats, so rows can be added in place
            _accum_at(table, idx, g)
            return
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full, owned=True)

    return Tensor(table.data[idx], parents=(table,), backward_fn=bw, name="gather_rows")


# ---------------------------------------------------------------------------
# neural-net ops


LAYER_NORM_EPS = 1e-5  # shared with the graph-free decoder in model/inference.py

# float64 elements per operand in one row tile (256 KiB): layer_norm, gelu,
# attention and cross_entropy run their elementwise work tile by tile,
# so a tile's temporaries stay in cache and no whole-array temporary is made.
# Every row's arithmetic is the same at any tile size.
_TILE = 32768


# rows of hidden per tile of the tied head, whose (rows, V) logits are the only
# ones that exist at once. Unlike _TILE, this size moves bits at the ulp level:
# a BLAS product can round a row differently with the number of rows, and the
# embedding gradient sums the tiles' products. A multiple of 32, so that a
# whole tile's sum does not depend on the BLAS thread count; 128 was the
# fastest of 32 to 512 rows for a 1900 x 1241 head (2-vCPU Xeon, 1 and 2
# BLAS threads).
_HEAD_ROWS = 128


def _tiles(n_rows, row_size, rows=None):
    """Slices of consecutive rows: `rows` rows each, or by default at most _TILE elements (and at least one row)."""
    step = rows or max(1, _TILE // max(1, row_size))
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def _rows(a):
    """a as (rows, last axis), a view where a's layout allows."""
    return a.reshape(-1, a.shape[-1])


def layer_norm(x, gain, bias):
    xs = _rows(x.data)
    n = xs.shape[1]
    xhat = np.empty(xs.shape)
    inv = np.empty((len(xs), 1))
    y = np.empty(xs.shape)
    tiles = _tiles(*xs.shape)
    for r in tiles:
        xc = xs[r] - xs[r].mean(axis=-1, keepdims=True)  # centred once; (xc * xc).sum / n is what var computes
        inv[r] = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
        np.multiply(xc, inv[r], out=xhat[r])
        y[r] = gain.data * xhat[r] + bias.data

    def bw(g):
        # the gain and bias gradients sum over rows, so they stay whole-array: tiles would reorder those sums
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * xhat.reshape(g.shape), gain.data.shape), owned=True)
        if bias.requires_grad:
            _accum_unbroadcast(bias, g)
        if x.requires_grad:
            gs = _rows(g)
            gxs = np.empty(xhat.shape)
            for r in tiles:
                gx = np.multiply(gs[r], gain.data, out=gxs[r])
                m1 = gx.mean(axis=-1, keepdims=True)
                m2 = (gx * xhat[r]).mean(axis=-1, keepdims=True)
                gx -= m1
                gx -= xhat[r] * m2
                gx *= inv[r]
            _accum(x, gxs.reshape(x.data.shape), owned=True)

    return Tensor(y.reshape(x.data.shape), parents=(x, gain, bias), backward_fn=bw, name="layer_norm")


def attention(qkv, mask, scale, rate=0.0, rng=None):
    """softmax(q k^T * scale + mask) v over stacked projections qkv (3, ..., H, T, dh) -> (..., H, T, dh).

    mask is an additive (T, T) array or None. The attention weights pass
    through inverted dropout at `rate`, drawn from rng as the dropout op
    draws, with one keep-mask over all of them. One node that keeps its
    output, each score row's max and sum, and the keep-mask: backward
    recomputes each tile's probabilities with the forward's own operations,
    so they have the forward's bits, and writes dq, dk and dv into one
    gradient array for qkv. Both passes run in
    row tiles along qkv's second axis (the sequences of a block, or the heads
    of one sequence), with one probability buffer reused across the tiles;
    each product is per (sequence, head) either way.
    """
    q, k, v = qkv.data[0], qkv.data[1], qkv.data[2]
    p_shape = (*q.shape[:-1], k.shape[-2])
    keep = _keep_mask(p_shape, rate, rng)
    y = np.empty((*p_shape[:-1], v.shape[-1]))
    tiles = _tiles(p_shape[0], math.prod(p_shape[1:]))
    step = tiles[0].stop if tiles else 0  # rows of the largest tile
    rmax, rsum = np.empty((*p_shape[:-1], 1)), np.empty((*p_shape[:-1], 1))

    def probs(r, buf, forward=False):
        """softmax(q k^T * scale + mask) of tile r, written into buf; forward also sets the row max and sum."""
        pt = np.matmul(q[r], np.swapaxes(k[r], -1, -2), out=buf[:r.stop - r.start])
        pt *= scale
        if mask is not None:
            pt += mask
        if forward:
            np.max(pt, axis=-1, keepdims=True, out=rmax[r])
        pt -= rmax[r]
        np.exp(pt, out=pt)
        if forward:
            np.sum(pt, axis=-1, keepdims=True, out=rsum[r])
        pt /= rsum[r]
        return pt

    buf = np.empty((step, *p_shape[1:]))
    for r in tiles:
        np.matmul(_dropped(probs(r, buf, forward=True), _at(keep, r), rate), v[r], out=y[r])

    def bw(g):
        gqkv = np.zeros_like(qkv.data)  # qkv's memory layout, so the reductions after it sum in the same order
        buf = np.empty((step, *p_shape[1:]))
        for r in tiles:
            pt, kt = probs(r, buf), _at(keep, r)
            gqkv[2][r] += np.matmul(np.swapaxes(_dropped(pt, kt, rate), -1, -2), g[r])
            ds = _dropped(np.matmul(g[r], np.swapaxes(v[r], -1, -2)), kt, rate)
            ds -= (ds * pt).sum(axis=-1, keepdims=True)
            ds *= pt
            ds *= scale
            gqkv[0][r] += np.matmul(ds, k[r])
            gqkv[1][r] += np.swapaxes(np.matmul(np.swapaxes(q[r], -1, -2), ds), -1, -2)
        _accum(qkv, gqkv, owned=True)

    return Tensor(y, parents=(qkv,), backward_fn=bw, name="attention")


def _at(keep, r):
    """Rows r of a keep-mask (None stays None)."""
    return None if keep is None else keep[r]


def _nll(z, t):
    """Shift logit rows z (N, C) by their max in place -> (log-sum-exp of the shifted rows, NLL of targets t)."""
    lse = np.empty(len(z))
    for r in _tiles(*z.shape):
        zt = z[r]
        zt -= zt.max(axis=-1, keepdims=True)
        lse[r] = np.log(np.exp(zt).sum(axis=-1))
    return lse, lse - z[np.arange(len(t)), t]


def _nll_grad(z, lse, t, g):
    """Overwrite shifted logits z with the gradient of sum(g * NLL) with respect to them."""
    for r in _tiles(*z.shape):
        zt = z[r]
        zt -= lse[r, None]  # the softmax is built only when a gradient is asked for
        np.exp(zt, out=zt)
        zt *= g[r, None]
    z[np.arange(len(t)), t] -= g
    return z


def cross_entropy(logits, targets):
    """Per-example negative log-likelihood; logits (N, C), targets (N,) ints."""
    t = np.asarray(targets, dtype=np.int64)
    z = logits.data.copy()
    lse, nll = _nll(z, t)

    def bw(g):
        _accum(logits, _nll_grad(z, lse, t, g), owned=True)

    return Tensor(nll, parents=(logits,), backward_fn=bw, name="cross_entropy")


def tied_cross_entropy(hidden, emb, targets):
    """cross_entropy(hidden @ emb^T, targets) as one node: the tied output head.

    hidden (N, d), emb (V, d), targets (N,) ints. The product runs in tiles of
    _HEAD_ROWS rows through one reused (rows, V) logit buffer, so no (N, V)
    array exists. Forward keeps each row's max and log-sum-exp; backward
    recomputes each tile's logits, turns them into that tile's gradient in
    place and adds the tile's products into the hidden and embedding
    gradients, the embedding's in tile order. One tile gives the bits of the
    untiled head.
    """
    t = np.asarray(targets, dtype=np.int64)
    hd, ed = hidden.data, emb.data
    tiles = _tiles(len(hd), len(ed), _HEAD_ROWS)
    zmax, lse, z_target = np.empty(len(hd)), np.empty(len(hd)), np.empty(len(hd))
    step = tiles[0].stop if tiles else 0  # rows of the largest tile

    buf = np.empty((step, len(ed)))
    for r in tiles:
        z = np.matmul(hd[r], ed.T, out=buf[:r.stop - r.start])
        np.max(z, axis=-1, out=zmax[r])
        z -= zmax[r, None]
        z_target[r] = z[np.arange(len(z)), t[r]]
        np.exp(z, out=z)
        np.log(z.sum(axis=-1), out=lse[r])

    def bw(g):
        gh = np.empty(hd.shape) if hidden.requires_grad else None
        gemb = prod = None
        buf = np.empty((step, len(ed)))
        for r in tiles:
            z = np.matmul(hd[r], ed.T, out=buf[:r.stop - r.start])  # the forward's logits, recomputed
            z -= zmax[r, None]
            z -= lse[r, None]  # the softmax is built only when a gradient is asked for
            np.exp(z, out=z)
            z *= g[r, None]
            z[np.arange(len(z)), t[r]] -= g[r]
            if gh is not None:
                np.matmul(z, ed, out=gh[r])
            if not emb.requires_grad:
                continue
            if gemb is None:
                gemb, prod = np.matmul(hd[r].T, z), np.empty((ed.shape[1], len(ed)))
            else:
                gemb += np.matmul(hd[r].T, z, out=prod)
        if gh is not None:
            _accum(hidden, gh, owned=True)
        if gemb is not None:
            _accum(emb, gemb.T)  # a transposed view, as matmul through transpose gave

    return Tensor(lse - z_target, parents=(hidden, emb), backward_fn=bw, name="tied_cross_entropy")


# tanh-GELU constants, shared with the graph-free decoder in model/inference.py
GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715


def _gelu_parts(x):
    """(x^2, tanh of the GELU argument) of an array x."""
    x2 = x * x
    return x2, np.tanh(GELU_C * (x + GELU_A * x2 * x))


def gelu(x):
    """tanh-approximation GELU (GPT-2 convention).

    Only the output is kept: backward recomputes x^2 and the tanh tile by
    tile from the input, which the graph holds anyway.
    """
    xs = _rows(x.data)
    y = np.empty(xs.shape)
    tiles = _tiles(*xs.shape)
    for r in tiles:
        xt = xs[r]
        th = _gelu_parts(xt)[1]
        y[r] = 0.5 * xt * (1.0 + th)

    def bw(g):
        xs, gs = _rows(x.data), _rows(g)
        gx = np.empty(xs.shape)
        for r in tiles:
            xt = xs[r]
            x2, th = _gelu_parts(xt)
            du = GELU_C * (1.0 + 3.0 * GELU_A * x2)
            local = 0.5 * (1.0 + th) + 0.5 * xt * (1.0 - th * th) * du
            np.multiply(gs[r], local, out=gx[r])
        _accum(x, gx.reshape(x.data.shape), owned=True)

    return Tensor(y.reshape(x.data.shape), parents=(x,), backward_fn=bw, name="gelu")


def dropout(x, rate: float, rng: np.random.Generator):
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    keep = _keep_mask(x.data.shape, rate, rng)

    def bw(g):
        _accum(x, _dropped(g, keep, rate), owned=True)

    return Tensor(_dropped(x.data, keep, rate), parents=(x,), backward_fn=bw, name="dropout")


def _keep_mask(shape, rate, rng):
    """Which entries inverted dropout keeps (None: all of them, and rng is not drawn)."""
    return rng.random(shape) >= rate if rate > 0.0 else None


def _dropped(a, keep, rate):
    """a scaled by 1 / (1 - rate) where kept and zeroed elsewhere; a itself when keep is None."""
    return a if keep is None else np.where(keep, a * (1.0 / (1.0 - rate)), 0.0)


def total_sum(x):
    def bw(g):
        _accum(x, np.full_like(x.data, float(g)), owned=True)

    return Tensor(x.data.sum(), parents=(x,), backward_fn=bw, name="sum")


def mean_all(x):
    n = x.data.size

    def bw(g):
        _accum(x, np.full_like(x.data, float(g) / n), owned=True)

    return Tensor(x.data.mean(), parents=(x,), backward_fn=bw, name="mean")
