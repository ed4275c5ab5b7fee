import dataclasses
import math

import numpy as np
import pytest

from chronoseq.autodiff import backward, constant, gamma_nll
from chronoseq.model import ModelConfig, TimelineModel, td_loss, total_loss, tte_loss
from chronoseq.model.config import TD_DAY_CLASSES, TD_MONTH_CLASSES
from chronoseq.model.diagnostics import toy_batch, toy_grad_check
from chronoseq.model.supervision import AttSupervision, build_att_supervision
from chronoseq.model.transformer import hidden_states, segment_causal_mask
from chronoseq.codec import TokenSequence
from chronoseq.training.packing import EncodedExample, PackedBatch, pack


@pytest.fixture(scope="module")
def setup():
    vocab, batch = toy_batch()
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=64)
    model = TimelineModel.initialize(cfg, vocab, seed=0)
    return model, cfg, batch


def test_td_uniform_logits_give_ln_k(setup):
    model, cfg, _ = setup
    for name in ("td.year.w", "td.month.w", "td.day.w"):
        model.params[name].data[...] = 0.0  # zero maps -> uniform class distributions
    h = constant(np.random.default_rng(0).normal(size=(1, cfg.embed_dim)))
    loss = td_loss(model.params, cfg, h, np.array([0]), np.array([0]), np.array([0]))
    want = math.log(cfg.td_year_classes) + math.log(TD_MONTH_CLASSES) + math.log(TD_DAY_CLASSES)
    assert float(loss.data) == pytest.approx(want, abs=1e-12)
    model2 = TimelineModel.initialize(cfg, model.vocab, seed=0)  # restore fresh weights for other tests
    for name in model.params.names():
        model.params[name].data[...] = model2.params[name].data


def test_td_perfect_logits_drive_loss_to_zero(setup):
    model, cfg, _ = setup
    d3 = cfg.sub_embed_dim
    h = np.zeros((1, cfg.embed_dim))
    h[0, 0] = 1.0
    h[0, d3] = 1.0
    h[0, 2 * d3] = 1.0
    saved = {n: model.params[n].data.copy() for n in ("td.year.w", "td.month.w", "td.day.w")}
    for name, target in (("td.year.w", 2), ("td.month.w", 4), ("td.day.w", 7)):
        model.params[name].data[...] = 0.0
        model.params[name].data[0, target] = 50.0  # huge margin for the right class
    loss = td_loss(model.params, cfg, constant(h), np.array([2]), np.array([4]), np.array([7]))
    assert float(loss.data) < 1e-12
    for n, v in saved.items():
        model.params[n].data[...] = v


def test_tte_forced_unit_gamma(setup):
    model, cfg, _ = setup
    saved = {n: model.params[n].data.copy() for n in ("tte.fc1.w", "tte.fc1.b", "tte.fc2.w", "tte.fc2.b")}
    model.params["tte.fc1.w"].data[...] = 0.0
    model.params["tte.fc1.b"].data[...] = 0.0
    model.params["tte.fc2.w"].data[...] = 0.0
    # softplus(x) + 1e-6 = 1  =>  x = log(e^(1 - 1e-6) - 1)
    x = math.log(math.expm1(1.0 - 1e-6))
    model.params["tte.fc2.b"].data[...] = x
    h = constant(np.random.default_rng(1).normal(size=(1, cfg.embed_dim)))
    # delta-t = 0 -> t = 0.5 -> NLL = 0.5 under Gamma(1,1); NLL = t at every t only when alpha = beta = 1
    for t in (0.5, 2.0, 30.5):
        loss = tte_loss(model.params, h, np.array([t]))
        assert float(loss.data) == pytest.approx(t, abs=1e-12)
    for n, v in saved.items():
        model.params[n].data[...] = v


def test_tte_minimizer_is_rate_one_over_t():
    # with alpha fixed at 1, NLL is minimized at beta = 1/t (first-order condition)
    t = 3.5
    betas = np.linspace(0.05, 2.0, 400)
    pre = np.log(np.expm1(np.stack([np.full_like(betas, 1.0), betas], axis=1) - 1e-6))  # softplus^-1(x - 1e-6)
    nll = gamma_nll(constant(pre), t).data
    assert betas[int(np.argmin(nll))] == pytest.approx(1.0 / t, abs=0.01)


def test_tte_finite_over_day_range(setup):
    model, cfg, _ = setup
    h = constant(np.random.default_rng(2).normal(size=(6, cfg.embed_dim)))
    deltas = np.array([0, 1, 7, 365, 1081, 5000], dtype=float) + 0.5
    loss = tte_loss(model.params, h, deltas)
    assert np.isfinite(loss.data).all()


def test_total_loss_without_att_equals_ntp(setup):
    model, cfg, _ = setup
    seq = TokenSequence(("year:2000", "age:50", "gender:8532", "race:8527", "[VS]", "v:9202", "c:320128",
                         "[VE]", "[END]"))
    from chronoseq.training import encode_examples, pack

    batch = pack(encode_examples([seq], model.vocab, cfg.max_td_year_class), 64)[0]
    _, parts = total_loss(model.params, cfg, batch)
    assert parts["td"] == 0.0 and parts["tte"] == 0.0
    assert parts["total"] == pytest.approx(parts["ntp"], abs=1e-15)


def test_att_head_gradients_zero_without_att_positions(setup):
    model, cfg, _ = setup
    seq = TokenSequence(("year:2000", "age:50", "gender:8532", "race:8527", "[VS]", "v:9202", "c:320128",
                         "[VE]", "[END]"))
    from chronoseq.training import encode_examples, pack

    batch = pack(encode_examples([seq], model.vocab, cfg.max_td_year_class), 64)[0]
    model.params.zero_grads()
    loss, _ = total_loss(model.params, cfg, batch)
    backward(loss)
    for name in ("td.year.w", "td.month.w", "td.day.w", "tte.fc1.w", "tte.fc2.w", "tte.fc1.b", "tte.fc2.b"):
        g = model.params[name].grad
        assert g is None or not np.any(g)


def test_zeroing_heads_changes_only_their_components(setup):
    model, cfg, batch = setup
    _, before = total_loss(model.params, cfg, batch)
    saved = {n: model.params[n].data.copy() for n in model.params.names() if n.startswith("td.")}
    for n in saved:
        model.params[n].data[...] = 0.0
    _, after = total_loss(model.params, cfg, batch)
    assert after["ntp"] == pytest.approx(before["ntp"], abs=1e-15)
    assert after["tte"] == pytest.approx(before["tte"], abs=1e-15)
    assert after["td"] != pytest.approx(before["td"], abs=1e-9)
    for n, v in saved.items():
        model.params[n].data[...] = v


def test_components_sum_to_total(setup):
    model, cfg, batch = setup
    _, parts = total_loss(model.params, cfg, batch)
    assert parts["total"] == pytest.approx(parts["ntp"] + parts["td"] + parts["tte"], abs=1e-12)


def test_supervision_clamping_counts_only_long_gaps():
    seq = TokenSequence(("year:2000", "age:50", "gender:8532", "race:8527", "[VS]", "v:9202", "[VE]",
                         "[LT]", "[VS]", "v:9202", "[VE]", "[END]"), att_days=((7, 5000),))
    sup = build_att_supervision(seq, max_year_class=10)
    assert sup.n_year_clamped == 1
    assert sup.year_target[0] == 10
    assert sup.tte_t[0] == 5000.5
    # D-token supervision from surface form
    seq2 = TokenSequence(("year:2000", "age:50", "gender:8532", "race:8527", "[VS]", "v:9202", "[VE]",
                          "D396", "[VS]", "v:9202", "[VE]", "[END]"))
    sup2 = build_att_supervision(seq2, max_year_class=10)
    assert (sup2.year_target[0], sup2.month_target[0], sup2.day_target[0]) == (1, 1, 1)
    assert sup2.n_year_clamped == 0


def test_total_loss_gradients_via_finite_differences():
    assert toy_grad_check(embed_dim=6, n_layers=1, n_heads=1, seed=0) < 1e-4


def test_batch_with_no_tokens_rejected(setup):
    model, cfg, _ = setup
    with pytest.raises(ValueError):
        total_loss(model.params, cfg, PackedBatch(rows=(), n_tokens=0, blocks=()))


def test_batch_without_next_token_targets_rejected(setup):
    model, cfg, _ = setup
    batch = pack([EncodedExample(None, np.array([5]), build_att_supervision(TokenSequence(("[END]",))))], 8)[0]
    with pytest.raises(ValueError, match="no next-token targets"):
        total_loss(model.params, cfg, batch)


def _random_example(rng, n, n_att, cfg):
    """n random non-pad tokens with n_att ATT positions and random targets."""
    pos = np.sort(rng.choice(np.arange(1, n), size=n_att, replace=False)).astype(np.int64)
    sup = AttSupervision(att_positions=pos,
                         year_target=rng.integers(0, cfg.td_year_classes, n_att),
                         month_target=rng.integers(0, TD_MONTH_CLASSES, n_att),
                         day_target=rng.integers(0, TD_DAY_CLASSES, n_att),
                         tte_t=rng.uniform(0.5, 400.0, n_att))
    return EncodedExample(None, rng.integers(1, cfg.vocab_size, n), sup)


@pytest.fixture(scope="module")
def blocked():
    """A two-layer model and one batch whose six sequences fall into three padded length blocks."""
    vocab, _ = toy_batch()
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=2, n_heads=2, context_window=64)
    model = TimelineModel.initialize(cfg, vocab, seed=3)
    rng = np.random.default_rng(7)
    examples = [_random_example(rng, n, k, cfg) for n, k in ((20, 3), (18, 2), (14, 1), (12, 0), (9, 2), (8, 1))]
    (batch,) = pack(examples, tokens_per_batch=128, row_capacity=32)
    assert [b.lengths.tolist() for b in batch.blocks] == [[20, 18], [14, 12], [9, 8]]
    return model, examples, batch


def _loss_and_grads(model, batch):
    model.params.zero_grads()
    loss, parts = total_loss(model.params, model.config, batch)
    backward(loss)
    grads = {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for n, t in model.params.items()}
    model.params.zero_grads()
    return parts, grads


def test_length_blocks_equal_sequences_run_alone(blocked):
    model, examples, batch = blocked
    parts, grads = _loss_and_grads(model, batch)
    want = {k: 0.0 for k in parts}
    want_grads = {n: np.zeros_like(g) for n, g in grads.items()}
    for e in examples:  # each alone, un-normalised by its own token count, then summed
        alone_parts, alone_grads = _loss_and_grads(model, pack([e], tokens_per_batch=128)[0])
        for k in want:
            want[k] += alone_parts[k] * len(e)
        for n in want_grads:
            want_grads[n] += alone_grads[n] * len(e)
    for k in ("total", "ntp", "td", "tte"):
        assert parts[k] == pytest.approx(want[k] / batch.n_tokens, rel=1e-12)
    for n, g in grads.items():
        w = want_grads[n] / batch.n_tokens
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), n


def test_padded_block_rows_match_sequences_run_alone(blocked):
    model, _, batch = blocked
    for block in batch.blocks:
        B, L = block.token_ids.shape
        stacked = hidden_states(model.params, model.config, block.token_ids, segment_causal_mask(L, [(0, L)]))
        assert stacked.data.shape == (B, L, model.config.embed_dim)
        for r, n in enumerate(block.lengths):
            alone = hidden_states(model.params, model.config, block.token_ids[r, :n], segment_causal_mask(n, [(0, n)]))
            np.testing.assert_allclose(stacked.data[r, :n], alone.data, rtol=0, atol=1e-12)


def test_pad_token_id_changes_no_loss_or_gradient_bit(blocked):
    model, _, batch = blocked
    other_pad = model.config.vocab_size - 1
    repadded = []
    for block in batch.blocks:
        ids = block.token_ids.copy()
        ids[np.arange(ids.shape[1]) >= block.lengths[:, None]] = other_pad
        assert not np.array_equal(ids, block.token_ids)  # every block carries padding
        repadded.append(dataclasses.replace(block, token_ids=ids))
    parts, grads = _loss_and_grads(model, batch)
    parts2, grads2 = _loss_and_grads(model, dataclasses.replace(batch, blocks=tuple(repadded)))
    assert parts == parts2
    for n in grads:
        assert np.array_equal(grads[n], grads2[n]), n


def _training_step_peak(tokens_per_batch):
    """Traced peak bytes of one training step on the largest batch of the README demo recipe."""
    import tracemalloc

    from chronoseq.synthworld import sample_hospital_records
    from chronoseq.training import prepare_corpus

    # the README demo recipe: 500 synthworld patients, context 256, d=48, 2 layers, 4 heads
    corpus = prepare_corpus(sample_hospital_records(500, seed=1), context_window=256,
                            min_seq_tokens=20, eval_fraction=0.1, seed=0)
    cfg = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=48, n_layers=2, n_heads=4, context_window=256)
    model = TimelineModel.initialize(cfg, corpus.vocab, seed=0)
    batch = max(pack(corpus.train, tokens_per_batch, row_capacity=256),
                key=lambda b: sum(k.token_ids.size for k in b.blocks))

    def step():
        model.params.zero_grads()
        loss, _ = total_loss(model.params, cfg, batch)
        backward(loss)

    step()  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_memory_is_bounded():
    # the fused ops make no whole-array temporary; gelu keeps only its output, attention keeps no probabilities
    # and the tied head no logits, so backward recomputes them (48.2 MiB measured, 70.4 with them kept)
    peak = _training_step_peak(2048)
    assert peak < 56 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_training_step_memory_is_bounded_at_the_cli_batch_size():
    # the CLI's default tokens_per_batch: 332.5 MiB measured, 519.7 MiB with the probabilities and logits kept
    peak = _training_step_peak(16384)
    assert peak < 380 * 2**20, f"peak {peak / 2**20:.1f} MiB"
