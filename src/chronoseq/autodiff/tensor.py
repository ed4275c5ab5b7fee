"""Reverse-mode automatic differentiation over dense numpy arrays.

Training math runs in float64 so finite-difference gradient checks are
decisive; inference code paths may downcast outside this module.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "backward",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "add_const",
    "matmul",
    "reshape",
    "transpose",
    "concat",
    "index_axis0",
    "gather_rows",
    "take_rows",
    "embedding",
    "layer_norm",
    "softmax",
    "cross_entropy",
    "gelu",
    "softplus",
    "log",
    "exp",
    "square",
    "lgamma",
    "dropout",
    "total_sum",
    "mean_all",
    "first_nonfinite",
]

_MASK_NEG = -1e30  # additive attention mask value; exp() underflows to exactly 0


class Tensor:
    """A node in the compute graph: float64 data plus an optional gradient slot."""

    __slots__ = ("data", "grad", "owns_grad", "requires_grad", "parents", "backward_fn", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.owns_grad = False  # may .grad be written in place, or does it alias another array?
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.parents = parents if self.requires_grad else ()
        self.backward_fn = backward_fn if self.requires_grad else None
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


def _as_tensor(x):
    return x if isinstance(x, Tensor) else constant(x)


def _accum(t: Tensor, g: np.ndarray, owned=False):
    """Add g into t.grad.

    owned=True hands over an array the op has just created, which t keeps as
    it is. Otherwise g may alias another node's gradient (add, add_const,
    reshape, transpose and slices pass views on), so t keeps the view and
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
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, parents=(a, b), name="add")

    def bw(g):
        _accum_unbroadcast(a, g)
        _accum_unbroadcast(b, g)

    out.backward_fn = bw if out.requires_grad else None
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data, parents=(a, b), name="sub")

    def bw(g):
        _accum_unbroadcast(a, g)
        _accum(b, _unbroadcast(-g, b.data.shape), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, parents=(a, b), name="mul")

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        _accum(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def neg(a):
    out = Tensor(-a.data, parents=(a,), name="neg")

    def bw(g):
        _accum(a, -g, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def scale(a, s: float):
    out = Tensor(a.data * s, parents=(a,), name="scale")

    def bw(g):
        _accum(a, g * s, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def add_const(a, c):
    out = Tensor(a.data + c, parents=(a,), name="add_const")

    def bw(g):
        _accum(a, g)

    out.backward_fn = bw if out.requires_grad else None
    return out


def matmul(a, b):
    out = Tensor(np.matmul(a.data, b.data), parents=(a, b), name="matmul")

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape), parents=(a,), name="reshape")

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    out.backward_fn = bw if out.requires_grad else None
    return out


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes), parents=(a,), name="transpose")

    def bw(g):
        _accum(a, np.transpose(g, inv))

    out.backward_fn = bw if out.requires_grad else None
    return out


def concat(tensors, axis):
    tensors = tuple(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tensors, name="concat")
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    out.backward_fn = bw if out.requires_grad else None
    return out


def index_axis0(a, i: int):
    """Select one slice along the first axis (e.g. q/k/v from a stacked tensor)."""
    out = Tensor(a.data[i], parents=(a,), name="index_axis0")

    def bw(g):
        _accum_at(a, i, g)

    out.backward_fn = bw if out.requires_grad else None
    return out


def gather_rows(table, idx):
    """Row lookup table[idx]; idx may be any integer shape. Used for embeddings."""
    idx = np.asarray(idx)
    out = Tensor(table.data[idx], parents=(table,), name="gather_rows")

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


embedding = gather_rows


def take_rows(a, idx):
    """Select rows of a 2-D tensor by position (e.g. hidden states at ATT slots)."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[idx], parents=(a,), name="take_rows")
    increasing = idx.size < 2 or (idx[0] >= 0 and bool((np.diff(idx) > 0).all()))

    def bw(g):
        if increasing:  # no position repeats, so rows can be added in place
            _accum_at(a, idx, g)
            return
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accum(a, full, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


# ---------------------------------------------------------------------------
# neural-net ops


def layer_norm(x, gain, bias, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(gain.data * xhat + bias.data, parents=(x, gain, bias), name="layer_norm")

    def bw(g):
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * xhat, gain.data.shape), owned=True)
        if bias.requires_grad:
            _accum_unbroadcast(bias, g)
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accum(x, (gx - m1 - xhat * m2) * inv, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def softmax(x, axis=-1):
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, parents=(x,), name="softmax")

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(x, y * (g - dot), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def cross_entropy(logits, targets):
    """Per-example negative log-likelihood; logits (N, C), targets (N,) ints."""
    t = np.asarray(targets, dtype=np.int64)
    m = logits.data.max(axis=-1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = z[np.arange(len(t)), t]
    out = Tensor(lse - picked, parents=(logits,), name="cross_entropy")

    def bw(g):
        gx = z - lse[:, None]  # the softmax is built only when a gradient is asked for
        np.exp(gx, out=gx)
        gx *= g[:, None]
        gx[np.arange(len(t)), t] -= g
        _accum(logits, gx, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(x):
    """tanh-approximation GELU (GPT-2 convention)."""
    xd = x.data
    x2 = xd * xd
    th = np.tanh(_GELU_C * (xd + _GELU_A * x2 * xd))
    out = Tensor(0.5 * xd * (1.0 + th), parents=(x,), name="gelu")

    def bw(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        local = 0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * du
        _accum(x, g * local, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def softplus(x):
    y = np.logaddexp(0.0, x.data)
    out = Tensor(y, parents=(x,), name="softplus")
    sig = 1.0 / (1.0 + np.exp(-x.data))

    def bw(g):
        _accum(x, g * sig, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def log(x):
    out = Tensor(np.log(x.data), parents=(x,), name="log")

    def bw(g):
        _accum(x, g / x.data, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def exp(x):
    y = np.exp(x.data)
    out = Tensor(y, parents=(x,), name="exp")

    def bw(g):
        _accum(x, g * y, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def square(x):
    out = Tensor(x.data**2, parents=(x,), name="square")

    def bw(g):
        _accum(x, 2.0 * g * x.data, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def lgamma(x):
    from .special import lgamma_value, digamma_value

    out = Tensor(lgamma_value(x.data), parents=(x,), name="lgamma")

    def bw(g):
        _accum(x, g * digamma_value(x.data), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def dropout(x, rate: float, rng: np.random.Generator):
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    scale_ = 1.0 / (1.0 - rate)
    out = Tensor(np.where(keep, x.data * scale_, 0.0), parents=(x,), name="dropout")

    def bw(g):
        _accum(x, np.where(keep, g * scale_, 0.0), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def total_sum(x):
    out = Tensor(x.data.sum(), parents=(x,), name="sum")

    def bw(g):
        _accum(x, np.full_like(x.data, float(g)), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def mean_all(x):
    n = x.data.size
    out = Tensor(x.data.mean(), parents=(x,), name="mean")

    def bw(g):
        _accum(x, np.full_like(x.data, float(g) / n), owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out
