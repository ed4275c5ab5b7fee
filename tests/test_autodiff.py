import inspect
import math
import re
import zlib

import numpy as np
import numpy.testing as npt
import pytest

import chronoseq.autodiff as ad
import chronoseq.autodiff.tensor as tensor
from chronoseq.autodiff import (
    GradCheckError,
    Tensor,
    add,
    attention,
    backward,
    concat,
    constant,
    cross_entropy,
    dropout,
    gamma_nll,
    gather_rows,
    gelu,
    grad_check,
    index_axis0,
    layer_norm,
    linear,
    matmul,
    mean_all,
    parameter,
    reshape,
    scale,
    tied_cross_entropy,
    total_sum,
    transpose,
)
from chronoseq.autodiff.special import digamma_value, lgamma_value
from chronoseq.autodiff.tensor import _accum, _nll, _nll_grad
from chronoseq.model.transformer import MASK_NEG
from helpers import attention_whole, gelu_whole, layer_norm_whole, nll_grad_whole, nll_whole, tied_head_tiles


def _causal(T):
    return np.triu(np.full((T, T), MASK_NEG), 1)


def test_lgamma_against_stdlib():
    xs = np.concatenate([np.linspace(1e-3, 0.5, 200, endpoint=False)[1:], np.linspace(0.5, 100, 1000)])
    ref = np.array([math.lgamma(float(x)) for x in xs])
    npt.assert_allclose(lgamma_value(xs), ref, atol=1e-10, rtol=0)


def test_digamma_against_lgamma_derivative():
    # central-difference truncation error is ~h^2 |psi''|/6, large near 0
    xs = np.linspace(0.1, 60, 500)
    h = 1e-5
    ref = np.array([(math.lgamma(x + h) - math.lgamma(x - h)) / (2 * h) for x in xs])
    npt.assert_allclose(digamma_value(xs), ref, atol=1e-6, rtol=0)


def _pre(alpha, beta):
    """Head pre-activations whose softplus + 1e-6 is (alpha, beta), up to rounding."""
    return [[math.log(math.expm1(alpha - 1e-6)), math.log(math.expm1(beta - 1e-6))]]


def test_gamma_nll_hand_values():
    # Gamma(1, 1) is the unit exponential: NLL = t
    assert gamma_nll(parameter(_pre(1.0, 1.0)), 0.5).data[0] == pytest.approx(0.5, abs=1e-12)
    # Gamma(2, 1) at t = 1: -log(1 * e^-1) = 1
    assert gamma_nll(parameter(_pre(2.0, 1.0)), 1.0).data[0] == pytest.approx(1.0, abs=1e-12)


def test_gamma_nll_beta_gradient_zero_at_stationary_point():
    pre = parameter(_pre(1.0, 1.0))
    backward(total_sum(gamma_nll(pre, 1.0)))
    assert pre.grad[0, 1] == pytest.approx(0.0, abs=1e-12)  # (t - alpha/beta) sigmoid(pre) at (1,1,1)
    assert pre.grad[0, 0] != pytest.approx(0.0, abs=1e-3)


def test_gamma_nll_rejects_nonpositive_t():
    pre = parameter(_pre(1.0, 1.0) * 2)
    for t in (0.0, [0.5, -1.0]):
        with pytest.raises(ValueError):
            gamma_nll(pre, t)


def test_gamma_nll_matches_the_stdlib_density():
    rng = np.random.default_rng(9)
    pre = rng.normal(scale=2.0, size=(50, 2))
    t = rng.uniform(0.5, 400.0, size=50)
    want = []
    for (pa, pb), ti in zip(pre, t):
        alpha, beta = math.log1p(math.exp(pa)) + 1e-6, math.log1p(math.exp(pb)) + 1e-6
        want.append(-(alpha * math.log(beta) - math.lgamma(alpha) + (alpha - 1) * math.log(ti) - beta * ti))
    npt.assert_allclose(gamma_nll(constant(pre), t).data, want, rtol=1e-12, atol=1e-12)


def _dot(a, b):
    """Sum over the elementwise product of a and b, as one (1, n) @ (n, 1) product."""
    return total_sum(matmul(reshape(a, (1, -1)), reshape(b, (-1, 1))))


def test_quadratic_grad_check():
    x = parameter([3.0], name="x")
    err = grad_check(lambda: _dot(x, x), [x])
    assert err < 1e-8


def test_attention_weights_are_a_causal_distribution():
    # with v the identity (dh == T), the attention output is the weight matrix itself
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = int(rng.integers(1, 6))
        lead = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(0, 3))))
        qk = rng.normal(scale=5.0, size=(2, *lead, T, T))
        v = np.broadcast_to(np.eye(T), (1, *lead, T, T))
        y = attention(constant(np.concatenate([qk, v])), _causal(T), 1.0).data
        assert (y >= 0).all() and (y[..., np.triu(np.ones((T, T), dtype=bool), 1)] == 0).all()
        npt.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9, rtol=0)


def test_shared_subexpression_accumulates():
    x = parameter([2.0])
    y = add(_dot(x, x), _dot(x, constant([3.0])))  # x^2 + 3x
    backward(total_sum(y))
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_backward_requires_scalar_root():
    x = parameter([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(add(x, x))


def _sum_sq(y):
    return _dot(y, y)


OP_CASES = [
    "add", "scale", "matmul2d", "matmul_batched", "linear", "layer_norm", "attention",
    "attention_causal_dropout", "gelu", "gamma_nll", "softplus", "log", "lgamma", "cross_entropy", "tied_cross_entropy", "gather",
    "gather_increasing", "gather_2d", "gather_2d_increasing", "concat", "transpose_reshape", "index_axis0",
    "dropout", "mean",
]


def _op_case(op_case):
    """(loss builder, parameters) of one grad-check case."""
    rng = np.random.default_rng(zlib.crc32(op_case.encode()))  # str hash() is salted per process

    if op_case == "add":
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=4))  # broadcast bias: _unbroadcast
        return lambda: _sum_sq(add(a, b)), [a, b]
    if op_case == "scale":
        x = parameter(rng.normal(size=(2, 3)))
        return lambda: _sum_sq(scale(x, -0.7)), [x]
    if op_case == "matmul2d":
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(4, 2)))
        return lambda: _sum_sq(matmul(a, b)), [a, b]
    if op_case == "matmul_batched":
        a, b = parameter(rng.normal(size=(2, 3, 3, 4))), parameter(rng.normal(size=(4, 2)))
        return lambda: _sum_sq(matmul(a, b)), [a, b]
    if op_case == "layer_norm":
        x, g, b_ = (parameter(rng.normal(size=(4, 6))), parameter(rng.normal(size=6) + 1),
                    parameter(rng.normal(size=6)))
        return lambda: _sum_sq(layer_norm(x, g, b_)), [x, g, b_]
    if op_case == "linear":
        x, w, b = (parameter(rng.normal(size=(2, 3, 4))), parameter(rng.normal(size=(4, 2))),
                   parameter(rng.normal(size=2)))
        return lambda: _sum_sq(linear(x, w, b)), [x, w, b]
    if op_case == "attention":
        qkv = parameter(rng.normal(size=(3, 2, 4, 3)))
        w = constant(rng.normal(size=(2, 4, 3)))
        return lambda: _dot(attention(qkv, None, 0.6), w), [qkv]
    if op_case == "attention_causal_dropout":
        qkv = parameter(rng.normal(size=(3, 2, 2, 4, 3)))
        w = constant(rng.normal(size=(2, 2, 4, 3)))
        return lambda: _dot(attention(qkv, _causal(4), 0.6, 0.3, np.random.default_rng(1)), w), [qkv]
    if op_case == "gelu":
        x = parameter(rng.normal(size=(4, 3)))
        return lambda: _sum_sq(gelu(x)), [x]
    if op_case == "gamma_nll":
        pre = parameter(rng.normal(size=(5, 2)))
        t = np.abs(rng.normal(size=5)) + 0.5
        return lambda: total_sum(gamma_nll(pre, t)), [pre]
    # softplus, log and lgamma are fused into gamma_nll; each case drives one of them across its range
    if op_case == "softplus":
        pre = parameter(np.stack([rng.uniform(-3.0, 4.0, size=6), rng.uniform(-4.0, 3.0, size=6)], axis=1))
        return lambda: total_sum(gamma_nll(pre, np.full(6, 1.5))), [pre]
    if op_case == "log":
        pre = parameter(np.stack([rng.normal(size=6), np.linspace(-3.0, 3.0, 6)], axis=1))  # log(beta)
        t = np.logspace(-2.0, 3.0, 6)  # log(t) over five decades
        return lambda: total_sum(gamma_nll(pre, t)), [pre]
    if op_case == "lgamma":
        pre = parameter(np.stack([np.linspace(-1.0, 12.0, 6), rng.normal(size=6)], axis=1))  # alpha 0.3 .. 12
        return lambda: total_sum(gamma_nll(pre, np.full(6, 2.0))), [pre]
    if op_case == "cross_entropy":
        x = parameter(rng.normal(size=(5, 4)))
        t = rng.integers(0, 4, size=5)
        return lambda: total_sum(cross_entropy(x, t)), [x]
    if op_case == "tied_cross_entropy":
        h, emb = parameter(rng.normal(size=(5, 3))), parameter(rng.normal(size=(7, 3)))
        t = rng.integers(0, 7, size=5)
        return lambda: total_sum(tied_cross_entropy(h, emb, t)), [h, emb]
    if op_case == "gather":
        table = parameter(rng.normal(size=(6, 3)))
        idx = np.array([0, 2, 2, 5])  # repeated row exercises scatter-add
        return lambda: _sum_sq(gather_rows(table, idx)), [table]
    if op_case == "gather_increasing":
        x = parameter(rng.normal(size=(6, 3)))
        idx = np.array([1, 3, 4])  # strictly increasing: rows are added in place
        return lambda: _sum_sq(gather_rows(x, idx)), [x]
    if op_case in ("gather_2d", "gather_2d_increasing"):
        table = parameter(rng.normal(size=(5, 3)))
        idx = np.array([[4, 1], [1, 0]] if op_case == "gather_2d" else [[0, 2], [3, 4]])
        return lambda: _sum_sq(gather_rows(table, idx)), [table]
    if op_case == "concat":
        a, b = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(4, 3)))
        return lambda: _sum_sq(concat([a, b], axis=0)), [a, b]
    if op_case == "transpose_reshape":
        x = parameter(rng.normal(size=(2, 3, 4)))
        return lambda: _sum_sq(reshape(transpose(x, (1, 0, 2)), (3, 8))), [x]
    if op_case == "index_axis0":
        x = parameter(rng.normal(size=(3, 2, 4)))
        return lambda: _sum_sq(index_axis0(x, 1)), [x]
    if op_case == "dropout":
        x = parameter(rng.normal(size=(4, 5)))
        return lambda: _sum_sq(dropout(x, 0.4, np.random.default_rng(2))), [x]  # the same keep-mask every call
    assert op_case == "mean"
    x = parameter(rng.normal(size=(3, 4)))
    return lambda: _sum_sq(mean_all(x)), [x]


# the row-tiled ops, checked again at one row per tile: the cases' shapes fit one tile at the module's sizes
TILED_OP_CASES = ["layer_norm", "attention", "attention_causal_dropout", "gelu", "cross_entropy", "tied_cross_entropy"]


@pytest.mark.parametrize("op_case", OP_CASES + [f"{case}-tiled" for case in TILED_OP_CASES])
def test_each_op_passes_grad_check(op_case, monkeypatch):
    op_case, tiled = op_case.removesuffix("-tiled"), op_case.endswith("-tiled")
    real_tiles, counts = tensor._tiles, []

    def counted(*args):
        tiles = real_tiles(*args)
        counts.append(len(tiles))
        return tiles

    if tiled:
        monkeypatch.setattr(tensor, "_TILE", 1)
        monkeypatch.setattr(tensor, "_HEAD_ROWS", 1)
        monkeypatch.setattr(tensor, "_tiles", counted)
    fn, params = _op_case(op_case)
    assert grad_check(fn, params) < 1e-6
    assert not tiled or min(counts) >= 2


def test_every_exported_op_has_a_grad_check_case():
    # a node-building op is an exported function that names the interior nodes it creates
    ops = {}
    for name, obj in vars(ad).items():
        if inspect.isfunction(obj) and not name.startswith("_"):
            m = re.search(r'name="(\w+)"', inspect.getsource(obj))
            if m:
                ops[name] = m.group(1)
    assert {"add", "attention", "gamma_nll", "total_sum", "dropout"} <= set(ops)
    checked = set()
    for case in OP_CASES:
        stack = [_op_case(case)[0]()]
        while stack:
            node = stack.pop()
            checked.add(node.name)
            stack.extend(node.parents)
    assert sorted(name for name, node_name in ops.items() if node_name not in checked) == []


def _softmax(x):
    """The softmax op that attention replaced, kept here as the reference it must match."""
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - dot), owned=True)

    return Tensor(y, parents=(x,), backward_fn=bw, name="softmax")


def _composed_attention(qkv, mask, s, rate, rng):
    n = qkv.data.ndim - 1
    q, k, v = (index_axis0(qkv, i) for i in range(3))
    scores = scale(matmul(q, transpose(k, (*range(n - 2), n - 1, n - 2))), s)
    if mask is not None:
        scores = add(scores, constant(mask))
    return matmul(dropout(_softmax(scores), rate, rng), v)


def _outputs_and_grads(op, inputs, out_grad_seed=0):
    """op(*parameters) -> [forward value, gradient of every input] under a random output weighting."""
    params = [parameter(a) for a in inputs]
    out = op(*params)
    w = constant(np.random.default_rng(out_grad_seed).normal(size=out.data.shape))
    backward(_dot(out, w))
    return [out.data] + [p.grad for p in params]


def _assert_all_equal(reference, fused):
    assert len(reference) == len(fused)
    for i, (a, b) in enumerate(zip(reference, fused)):
        assert a.shape == b.shape and np.array_equal(a, b), i


@pytest.mark.parametrize("lead,causal,rate", [
    ((), False, 0.0), ((), True, 0.0), ((3,), True, 0.0), ((2,), False, 0.25), ((3,), True, 0.25),
], ids=["no_mask", "causal", "stacked_causal", "dropout", "stacked_causal_dropout"])
def test_attention_matches_the_ops_it_replaces(lead, causal, rate):
    H, T, dh = 2, 5, 3
    qkv = np.random.default_rng(11).normal(size=(3, *lead, H, T, dh))
    mask = _causal(T) if causal else None
    rngs = [np.random.default_rng(5), np.random.default_rng(5)]
    reference = _outputs_and_grads(lambda x: _composed_attention(x, mask, 0.7, rate, rngs[0]), [qkv])
    fused = _outputs_and_grads(lambda x: attention(x, mask, 0.7, rate, rngs[1]), [qkv])
    _assert_all_equal(reference, fused)
    assert rngs[0].random() == rngs[1].random()  # the same draws, so later dropout layers see the same stream


# rows per tile: one row, a size that leaves a partial last tile, all rows in one tile
TILE_ROWS = pytest.mark.parametrize("tile_rows", [1, 2, 5], ids=["one_row", "partial_tile", "one_tile"])


def _patch_tile(monkeypatch, tile_rows, row_size):
    monkeypatch.setattr(tensor, "_TILE", tile_rows * row_size)


@TILE_ROWS
@pytest.mark.parametrize("x_shape", [(5, 6), (5, 1, 6)], ids=["2d", "3d"])
def test_layer_norm_is_the_same_at_every_tile_size(tile_rows, x_shape, monkeypatch):
    rng = np.random.default_rng(21)
    inputs = [rng.normal(size=x_shape), rng.normal(size=6) + 1.0, rng.normal(size=6)]
    reference = _outputs_and_grads(layer_norm_whole, inputs)
    _patch_tile(monkeypatch, tile_rows, 6)
    _assert_all_equal(reference, _outputs_and_grads(layer_norm, inputs))


@TILE_ROWS
def test_gelu_is_the_same_at_every_tile_size(tile_rows, monkeypatch):
    inputs = [3.0 * np.random.default_rng(22).normal(size=(5, 8))]
    reference = _outputs_and_grads(gelu_whole, inputs)
    _patch_tile(monkeypatch, tile_rows, 8)
    _assert_all_equal(reference, _outputs_and_grads(gelu, inputs))


@TILE_ROWS
@pytest.mark.parametrize("lead,rate", [((), 0.0), ((), 0.1), ((5,), 0.0), ((5,), 0.1)],
                         ids=["heads", "heads_dropout", "block", "block_dropout"])
def test_attention_is_the_same_at_every_tile_size(tile_rows, lead, rate, monkeypatch):
    # unbatched (H, T, dh) tiles over heads, a block (B, H, T, dh) over its sequences
    H, T, dh = (5, 4, 3) if not lead else (2, 4, 3)
    qkv = np.random.default_rng(23).normal(size=(3, *lead, H, T, dh))
    mask = _causal(T)
    rngs = [np.random.default_rng(6), np.random.default_rng(6)]
    reference = _outputs_and_grads(lambda x: attention_whole(x, mask, 0.7, rate, rngs[0]), [qkv])
    _patch_tile(monkeypatch, tile_rows, (H if lead else 1) * T * T)
    tiled = _outputs_and_grads(lambda x: attention(x, mask, 0.7, rate, rngs[1]), [qkv])
    _assert_all_equal(reference, tiled)
    assert rngs[0].random() == rngs[1].random()  # one keep-mask draw over the whole shape


@TILE_ROWS
def test_nll_and_its_gradient_are_the_same_at_every_tile_size(tile_rows, monkeypatch):
    rng = np.random.default_rng(24)
    z, t, g = 4.0 * rng.normal(size=(5, 9)), rng.integers(0, 9, size=5), rng.normal(size=5)
    z_whole, z_tiled = z.copy(), z.copy()
    reference = nll_whole(z_whole, t)
    _patch_tile(monkeypatch, tile_rows, 9)
    tiled = _nll(z_tiled, t)
    _assert_all_equal([*reference, z_whole], [*tiled, z_tiled])
    _assert_all_equal([nll_grad_whole(z_whole, reference[0], t, g)], [_nll_grad(z_tiled, tiled[0], t, g)])


@pytest.mark.parametrize("x_shape", [(4, 3), (2, 4, 3)], ids=["2d", "3d"])
def test_linear_matches_add_of_matmul(x_shape):
    rng = np.random.default_rng(12)
    inputs = [rng.normal(size=x_shape), rng.normal(size=(3, 5)), rng.normal(size=5)]
    _assert_all_equal(_outputs_and_grads(lambda x, w, b: add(matmul(x, w), b), inputs),
                      _outputs_and_grads(linear, inputs))


def test_tied_cross_entropy_matches_the_transposed_head_and_cross_entropy():
    rng = np.random.default_rng(13)
    inputs = [rng.normal(size=(6, 4)), rng.normal(size=(9, 4))]
    t = rng.integers(0, 9, size=6)
    reference = _outputs_and_grads(lambda h, e: cross_entropy(matmul(h, transpose(e, (1, 0))), t), inputs)
    _assert_all_equal(reference, _outputs_and_grads(lambda h, e: tied_cross_entropy(h, e, t), inputs))


@TILE_ROWS
def test_tied_cross_entropy_is_the_same_as_whole_tiles_at_every_tile_size(tile_rows, monkeypatch):
    rng = np.random.default_rng(25)
    h, e, t, w = rng.normal(size=(5, 4)), rng.normal(size=(9, 4)), rng.integers(0, 9, size=5), rng.normal(size=5)

    def run():
        params = [parameter(h), parameter(e)]
        out = tied_cross_entropy(*params, t)
        backward(_dot(out, constant(w)))  # the head's output gradient is w, bit for bit
        return [out.data] + [p.grad for p in params]

    untiled = run()
    monkeypatch.setattr(tensor, "_HEAD_ROWS", tile_rows)
    tiled = run()
    nll, gh, gemb_parts = tied_head_tiles(h, e, t, w, tile_rows)
    gemb = gemb_parts[0].copy()
    for part in gemb_parts[1:]:  # in tile order
        gemb += part
    _assert_all_equal([nll, gh, gemb], tiled)
    for a, b in zip(untiled, tiled):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def _closure_arrays(fn):
    """Every array a function's closure holds, through nested functions, lists and tuples."""
    found, stack, seen = [], [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return found


@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no_dropout", "dropout"])
def test_attention_keeps_no_probabilities_for_backward(rate):
    T = 6
    mask = _causal(T)
    qkv = parameter(np.random.default_rng(26).normal(size=(3, 2, 2, T, 3)))
    out = attention(qkv, mask, 0.7, rate, np.random.default_rng(7))
    square = [a for a in _closure_arrays(out.backward_fn) if a.shape[-2:] == (T, T) and a is not mask]
    assert [a.dtype for a in square] == ([np.dtype(bool)] if rate else [])  # only the keep-mask


def test_tied_cross_entropy_keeps_no_logits_for_backward():
    rng = np.random.default_rng(27)
    N, V = 5, 9
    out = tied_cross_entropy(parameter(rng.normal(size=(N, 4))), parameter(rng.normal(size=(V, 4))),
                             rng.integers(0, V, size=N))
    assert [a.shape for a in _closure_arrays(out.backward_fn) if a.size >= N * V] == []


def test_dropout_zero_rate_is_identity():
    x = parameter(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    assert dropout(x, 0.0, rng) is x


def test_dropout_scales_kept_values():
    rng = np.random.default_rng(0)
    x = constant(np.ones((1000,)))
    y = dropout(x, 0.25, rng).data
    kept = y[y != 0]
    npt.assert_allclose(kept, 1.0 / 0.75)
    assert abs((y != 0).mean() - 0.75) < 0.05


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_reports_nonfinite():
    x = parameter([1e200])  # x * x overflows to inf
    with pytest.raises(GradCheckError, match="'matmul'"):
        grad_check(lambda: _dot(x, x), [x])


@pytest.mark.parametrize("square_first", [False, True])
def test_fan_out_gradient_is_copied_before_a_second_contribution(square_first):
    # add hands its own gradient array to both a and b; a later (or earlier) gets a
    # second contribution from a . a, which must not leak into b's gradient
    rng = np.random.default_rng(7)
    a, b = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(2, 3)))
    w = constant(rng.normal(size=(2, 3)))

    def loss():
        fan = _dot(add(a, b), w)
        own = _dot(a, a)
        return add(own, fan) if square_first else add(fan, own)

    assert grad_check(loss, [a, b]) < 1e-8
    a.zero_grad(), b.zero_grad()
    backward(loss())
    npt.assert_array_equal(b.grad, w.data)
    npt.assert_allclose(a.grad, w.data + 2 * a.data, rtol=1e-15)


def test_backward_consumes_the_graph():
    import weakref

    rng = np.random.default_rng(3)
    x, wt = parameter(rng.normal(size=(4, 3))), parameter(rng.normal(size=(3, 2)))
    h = gelu(matmul(x, wt))
    root = total_sum(matmul(reshape(transpose(h, (1, 0)), (1, 8)), constant(rng.normal(size=(8, 1)))))
    interior, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.parents:
            interior.append(node)
            stack.extend(node.parents)
    closures = [weakref.ref(n.backward_fn) for n in interior]
    backward(root)
    assert len(interior) == 6
    assert all(n.grad is None and n.parents == () for n in interior)
    assert all(c() is None for c in closures)  # closures and the arrays they held are freed
    assert x.grad.shape == (4, 3) and wt.grad.shape == (3, 2)  # leaf gradients stay
    with pytest.raises(RuntimeError):
        backward(root)
    with pytest.raises(RuntimeError):  # a new graph over a consumed node cannot backpropagate either
        backward(total_sum(h))


def test_consecutive_training_steps_hold_one_graph():
    import tracemalloc

    from chronoseq.model import ModelConfig, TimelineModel, total_loss
    from chronoseq.synthworld import sample_hospital_records
    from chronoseq.training import pack, prepare_corpus

    corpus = prepare_corpus(sample_hospital_records(40, seed=2), context_window=128, seed=0)
    cfg = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=128)
    model = TimelineModel.initialize(cfg, corpus.vocab, seed=0)
    batch = pack(corpus.train, 512, row_capacity=128)[0]

    def step():
        model.params.zero_grads()
        loss, _ = total_loss(model.params, model.config, batch)
        backward(loss)
        return loss

    step()  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        step()
        one_step = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracemalloc.start()
        loss = step()
        loss = step()  # as in the training loop: the previous loss is still bound during this step
        two_steps = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert two_steps < 1.5 * one_step, (two_steps, one_step)
    assert loss.parents == ()
