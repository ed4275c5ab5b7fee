import math

import numpy as np
import numpy.testing as npt
import pytest

from chronoseq.autodiff import (
    GradCheckError,
    add,
    backward,
    concat,
    constant,
    cross_entropy,
    dropout,
    gather_rows,
    gelu,
    grad_check,
    index_axis0,
    layer_norm,
    lgamma,
    log,
    matmul,
    mean_all,
    mul,
    neg,
    parameter,
    reshape,
    softmax,
    softplus,
    square,
    sub,
    take_rows,
    total_sum,
    transpose,
)
from chronoseq.autodiff.special import digamma_value, gamma_log_pdf, lgamma_value


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


def test_gamma_log_pdf_hand_values():
    a, b = parameter([1.0]), parameter([1.0])
    assert gamma_log_pdf(a, b, 1.0).data[0] == pytest.approx(-1.0, abs=1e-12)
    a2 = parameter([2.0])
    assert gamma_log_pdf(a2, b, 1.0).data[0] == pytest.approx(-1.0, abs=1e-12)


def test_gamma_nll_beta_gradient_zero_at_stationary_point():
    a, b = parameter([1.0]), parameter([1.0])
    backward(neg(total_sum(gamma_log_pdf(a, b, 1.0))))
    assert b.grad[0] == pytest.approx(0.0, abs=1e-12)  # t - alpha/beta at (1,1,1)


def test_gamma_log_pdf_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        gamma_log_pdf(parameter([1.0]), parameter([1.0]), 0.0)


def test_quadratic_grad_check():
    x = parameter([3.0], name="x")
    err = grad_check(lambda: total_sum(square(x)), [x])
    assert err < 1e-8


def test_softmax_normalization_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        shape = tuple(rng.integers(1, 6, size=int(rng.integers(1, 4))))
        x = constant(rng.normal(scale=5.0, size=shape))
        y = softmax(x).data
        assert (y >= 0).all()
        npt.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9, rtol=0)


def test_shared_subexpression_accumulates():
    x = parameter([2.0])
    y = add(mul(x, x), mul(x, constant([3.0])))  # x^2 + 3x
    backward(total_sum(y))
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_backward_requires_scalar_root():
    x = parameter([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(mul(x, x))


@pytest.mark.parametrize("op_case", [
    "matmul2d", "matmul_batched", "layer_norm", "softmax", "gelu", "softplus",
    "log", "cross_entropy", "gather", "take_rows", "concat", "transpose_reshape",
    "index_axis0", "lgamma", "mean",
])
def test_each_op_passes_grad_check(op_case):
    rng = np.random.default_rng(hash(op_case) % 2**32)

    if op_case == "matmul2d":
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(4, 2)))
        fn = lambda: total_sum(square(matmul(a, b)))
        params = [a, b]
    elif op_case == "matmul_batched":
        a, b = parameter(rng.normal(size=(2, 3, 3, 4))), parameter(rng.normal(size=(4, 2)))
        fn = lambda: total_sum(square(matmul(a, b)))
        params = [a, b]
    elif op_case == "layer_norm":
        x, g, b_ = (parameter(rng.normal(size=(4, 6))), parameter(rng.normal(size=6) + 1),
                    parameter(rng.normal(size=6)))
        fn = lambda: total_sum(square(layer_norm(x, g, b_)))
        params = [x, g, b_]
    elif op_case == "softmax":
        x = parameter(rng.normal(size=(3, 5)))
        w = constant(rng.normal(size=(3, 5)))
        fn = lambda: total_sum(mul(softmax(x), w))
        params = [x]
    elif op_case == "gelu":
        x = parameter(rng.normal(size=(4, 3)))
        fn = lambda: total_sum(square(gelu(x)))
        params = [x]
    elif op_case == "softplus":
        x = parameter(rng.normal(size=(4,)))
        fn = lambda: total_sum(square(softplus(x)))
        params = [x]
    elif op_case == "log":
        x = parameter(np.abs(rng.normal(size=(4,))) + 0.5)
        fn = lambda: total_sum(log(x))
        params = [x]
    elif op_case == "cross_entropy":
        x = parameter(rng.normal(size=(5, 4)))
        t = rng.integers(0, 4, size=5)
        fn = lambda: total_sum(cross_entropy(x, t))
        params = [x]
    elif op_case == "gather":
        table = parameter(rng.normal(size=(6, 3)))
        idx = np.array([0, 2, 2, 5])  # repeated row exercises scatter-add
        fn = lambda: total_sum(square(gather_rows(table, idx)))
        params = [table]
    elif op_case == "take_rows":
        x = parameter(rng.normal(size=(6, 3)))
        fn = lambda: total_sum(square(take_rows(x, np.array([1, 1, 4]))))
        params = [x]
    elif op_case == "concat":
        a, b = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(4, 3)))
        fn = lambda: total_sum(square(concat([a, b], axis=0)))
        params = [a, b]
    elif op_case == "transpose_reshape":
        x = parameter(rng.normal(size=(2, 3, 4)))
        fn = lambda: total_sum(square(reshape(transpose(x, (1, 0, 2)), (3, 8))))
        params = [x]
    elif op_case == "index_axis0":
        x = parameter(rng.normal(size=(3, 2, 4)))
        fn = lambda: total_sum(square(index_axis0(x, 1)))
        params = [x]
    elif op_case == "lgamma":
        x = parameter(np.abs(rng.normal(size=(4,))) + 0.7)
        fn = lambda: total_sum(lgamma(x))
        params = [x]
    else:  # mean
        x = parameter(rng.normal(size=(3, 4)))
        fn = lambda: square(mean_all(x))
        params = [x]

    assert grad_check(fn, params) < 1e-6


def test_broadcast_add_sub_unbroadcast():
    a = parameter(np.random.default_rng(1).normal(size=(3, 4)))
    b = parameter(np.random.default_rng(2).normal(size=(4,)))
    assert grad_check(lambda: total_sum(square(add(a, b))), [a, b]) < 1e-7
    assert grad_check(lambda: total_sum(square(sub(a, b))), [a, b]) < 1e-7


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
    x = parameter([-1.0])
    with pytest.raises(GradCheckError):
        grad_check(lambda: total_sum(log(x)), [x])


@pytest.mark.parametrize("square_first", [False, True])
def test_fan_out_gradient_is_copied_before_a_second_contribution(square_first):
    # add hands its own gradient array to both a and b; a later (or earlier) gets a
    # second contribution from square(a), which must not leak into b's gradient
    rng = np.random.default_rng(7)
    a, b = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(2, 3)))
    w = constant(rng.normal(size=(2, 3)))

    def loss():
        fan = total_sum(mul(add(a, b), w))
        own = total_sum(square(a))
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
    root = total_sum(square(reshape(transpose(h, (1, 0)), (8,))))
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

    from chronoseq.codec import CodecConfig
    from chronoseq.model import ModelConfig, TimelineModel, total_loss
    from chronoseq.synthworld import sample_hospital_records
    from chronoseq.training import pack, prepare_corpus

    corpus = prepare_corpus(sample_hospital_records(40, seed=2), CodecConfig(), context_window=128, seed=0)
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
