import numpy as np
import numpy.testing as npt
import pytest

from chronoseq.codec import CodecConfig, encode_patient
from chronoseq.model import (
    CheckpointError,
    InferenceSession,
    ModelConfig,
    TimelineModel,
    evaluate_loss,
    extract_representation,
    forward,
    load_checkpoint,
    params_sha256,
    save_checkpoint,
    segment_causal_mask,
    total_loss,
)
from chronoseq.model.diagnostics import toy_batch
from chronoseq.synthworld import sample_hospital_records
from chronoseq.training import pack, prepare_corpus
from conftest import random_record


@pytest.fixture(scope="module")
def toy():
    vocab, batch = toy_batch()
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=2, n_heads=2, context_window=64)
    model = TimelineModel.initialize(cfg, vocab, seed=1)
    return model, batch


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, embed_dim=10, n_layers=1, n_heads=2, context_window=8)  # not /3
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, embed_dim=12, n_layers=1, n_heads=5, context_window=8)  # not /heads


def test_no_positional_embedding_table(toy):
    model, _ = toy
    assert not any("pos" in name for name in model.params.names())
    assert model.params.n_parameters() > 0


def test_forward_rejects_oversize(toy):
    model, _ = toy
    ids = np.zeros(65, dtype=np.int64)
    with pytest.raises(ValueError):
        forward(model.params, model.config, ids, np.zeros((65, 65)))


def test_single_token_logits_depend_only_on_that_token(toy):
    model, _ = toy
    mask = segment_causal_mask(1, [(0, 1)])
    lg1, _ = forward(model.params, model.config, np.array([7]), mask)
    lg2, _ = forward(model.params, model.config, np.array([7]), mask)
    npt.assert_array_equal(lg1.data, lg2.data)


def test_causality_suffix_permutation(toy):
    model, batch = toy
    row = batch.rows[0]
    ids = row.token_ids.copy()
    T = len(ids)
    mask = segment_causal_mask(T, [(0, T)])
    base, _ = forward(model.params, model.config, ids, mask)
    p = T // 2
    permuted = ids.copy()
    permuted[p + 1 :] = np.roll(permuted[p + 1 :], 1)
    out, _ = forward(model.params, model.config, permuted, mask)
    npt.assert_allclose(out.data[: p + 1], base.data[: p + 1], atol=1e-12)


def test_order_information_flows_without_position_table(toy):
    # permuting EARLIER tokens must change later logits: order is encoded
    # by causal masking even with no positional embeddings
    model, batch = toy
    row = batch.rows[0]
    ids = row.token_ids.copy()
    T = len(ids)
    mask = segment_causal_mask(T, [(0, T)])
    base, _ = forward(model.params, model.config, ids, mask)
    swapped = ids.copy()
    swapped[[1, 3]] = swapped[[3, 1]]
    out, _ = forward(model.params, model.config, swapped, mask)
    assert np.abs(out.data[-1] - base.data[-1]).max() > 1e-8


def test_packing_equivalence(toy):
    model, batch = toy
    for row in batch.rows:
        packed, _ = forward(model.params, model.config, row.token_ids, row.attention_mask())
        for lo, hi in row.segment_bounds:
            ids = row.token_ids[lo:hi]
            alone, _ = forward(model.params, model.config, ids, segment_causal_mask(hi - lo, [(0, hi - lo)]))
            npt.assert_allclose(alone.data, packed.data[lo:hi], atol=1e-10, rtol=0)


def test_inference_session_matches_forward(toy):
    model, batch = toy
    row = batch.rows[0]
    lo, hi = row.segment_bounds[0]
    ids = row.token_ids[lo:hi]
    ref_logits, ref_hidden = forward(model.params, model.config, ids,
                                     segment_causal_mask(hi - lo, [(0, hi - lo)]))
    s = InferenceSession(model)
    s.prefill(ids)
    npt.assert_allclose(s.next_logits(), ref_logits.data[-1], atol=1e-12)
    npt.assert_allclose(s.last_hidden(), ref_hidden.data[-1], atol=1e-12)

    s2 = InferenceSession(model)
    s2.prefill(ids[:3])
    for t in ids[3:]:
        s2.append(int(t))
    npt.assert_allclose(s2.next_logits(), ref_logits.data[-1], atol=1e-12)

    s3 = InferenceSession(model)
    s3.prefill(ids[:3])
    lanes = s3.fork(2)
    for t in ids[3:]:
        lanes.append([t, t])
    for row in lanes.next_logits():
        npt.assert_allclose(row, ref_logits.data[-1], atol=1e-12)
    assert s3.length == 3  # the lanes keep their suffix to themselves

    s4 = InferenceSession(model)  # a prompt fed in chunks, then token by token
    s4.prefill(ids[:3])
    s4.prefill(ids[3:6])
    npt.assert_allclose(s4.next_logits(), ref_logits.data[5], atol=1e-12)
    npt.assert_allclose(s4.last_hidden(), ref_hidden.data[5], atol=1e-12)
    for t in ids[6:]:
        s4.append(int(t))
    npt.assert_allclose(s4.next_logits(), ref_logits.data[-1], atol=1e-12)
    npt.assert_allclose(s4.last_hidden(), ref_hidden.data[-1], atol=1e-12)
    assert s4.context_ids == [int(t) for t in ids]


def test_inference_session_rejects_overflow_at_window_edge(toy):
    model, _ = toy
    cw = model.config.context_window
    s = InferenceSession(model)
    with pytest.raises(ValueError, match="context window"):
        s.prefill(np.zeros(cw + 1, dtype=np.int64))
    s.prefill(np.zeros(cw - 1, dtype=np.int64))
    with pytest.raises(ValueError, match="context window"):
        s.prefill(np.zeros(2, dtype=np.int64))
    s.append(0)  # the last free slot
    assert s.length == cw
    with pytest.raises(ValueError, match="context window"):
        s.append(0)
    with pytest.raises(ValueError, match="context window"):
        s.prefill(np.zeros(1, dtype=np.int64))
    assert s.length == cw


def test_lane_batch_matches_sessions_across_keep_and_growth(toy):
    model, _ = toy
    V = model.config.vocab_size
    rng = np.random.default_rng(11)
    prefix = rng.integers(0, V, size=7)
    streams = rng.integers(0, V, size=(5, 30))  # 30 tokens: the suffix caches double twice
    parent = InferenceSession(model)
    parent.prefill(prefix)
    lanes = parent.fork(5)
    refs = []
    for _ in range(5):
        r = InferenceSession(model)
        r.prefill(prefix)
        refs.append(r)
    alive = list(range(5))
    for step in range(30):
        if step == 6:
            alive = [alive[j] for j in (4, 1, 3)]  # drop two lanes and reorder the rest
            lanes.keep([4, 1, 3])
        logits = lanes.next_logits()
        assert logits.shape == (len(alive), V)
        for row, lane in zip(logits, alive):
            npt.assert_allclose(row, refs[lane].next_logits(), atol=1e-12, rtol=0)
        npt.assert_array_equal(lanes.context_ids, [refs[lane].context_ids for lane in alive])
        ids = streams[alive, step]
        lanes.append(ids)
        for lane, t in zip(alive, ids):
            refs[lane].append(int(t))
    assert lanes.length == parent.length + 30
    assert parent.length == len(prefix)


def test_lane_batch_rejects_overflow_at_window_edge(toy):
    model, _ = toy
    cw = model.config.context_window
    s = InferenceSession(model)
    s.prefill(np.zeros(cw - 3, dtype=np.int64))
    lanes = s.fork(4)
    for _ in range(3):
        lanes.append(np.zeros(4, dtype=np.int64))
    assert lanes.length == cw
    with pytest.raises(ValueError, match="context window"):
        lanes.append(np.zeros(4, dtype=np.int64))
    assert lanes.length == cw
    with pytest.raises(ValueError):
        lanes.append(np.zeros(3, dtype=np.int64))  # one id per lane
    with pytest.raises(RuntimeError):
        InferenceSession(model).fork(2)  # nothing to fork from


def test_evaluate_loss_is_graph_free_total_loss():
    corpus = prepare_corpus(sample_hospital_records(16, seed=4), CodecConfig(), context_window=96,
                            eval_fraction=0.5, seed=0)
    cfg = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=12, n_layers=2, n_heads=2, context_window=96)
    model = TimelineModel.initialize(cfg, corpus.vocab, seed=2)
    batches = pack(corpus.eval, tokens_per_batch=192, row_capacity=96)
    assert len(batches) >= 2
    n = sum(b.n_tokens for b in batches)
    want = dict.fromkeys(("total", "ntp", "td", "tte"), 0.0)
    for b in batches:
        _, parts = total_loss(model.params, cfg, b)
        for k in want:
            want[k] += parts[k] * b.n_tokens / n
    before = params_sha256(model.params)
    got = evaluate_loss(model, batches)
    for k in want:
        assert got[k] == pytest.approx(want[k], abs=1e-12)
    assert all(t.grad is None for t in model.params.values())
    assert params_sha256(model.params) == before


def test_extract_representation_properties():
    rng = np.random.default_rng(3)
    records = [random_record(rng) for _ in range(4)]
    seqs = [encode_patient(r, CodecConfig()) for r in records]
    from chronoseq.codec import build_vocabulary

    vocab = build_vocabulary(seqs)
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=128)
    model = TimelineModel.initialize(cfg, vocab, seed=0)
    v1 = extract_representation(model, seqs[0].tokens)
    v2 = extract_representation(model, seqs[0].tokens)
    npt.assert_array_equal(v1, v2)  # deterministic inference
    assert v1.shape == (cfg.embed_dim,)
    # trailing pad tokens do not change the vector
    v3 = extract_representation(model, list(seqs[0].tokens) + ["[PAD]", "[PAD]"])
    npt.assert_array_equal(v1, v3)
    with pytest.raises(ValueError):
        extract_representation(model, [])


def test_checkpoint_bit_exact_roundtrip(tmp_path, toy):
    model, batch = toy
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, extra={"note": 1})
    model2, opt_state, extra = load_checkpoint(path)
    assert opt_state is None
    assert extra == {"note": 1}
    assert model2.config == model.config
    assert model2.vocab.tokens == model.vocab.tokens
    for name in model.params.names():
        npt.assert_array_equal(model2.params[name].data, model.params[name].data)
    row = batch.rows[0]
    a, _ = forward(model.params, model.config, row.token_ids, row.attention_mask())
    b, _ = forward(model2.params, model2.config, row.token_ids, row.attention_mask())
    npt.assert_array_equal(a.data, b.data)  # logits reproduce exactly


def _drop(arrays, key):
    del arrays[key]


def _reshape(arrays, key):
    arrays[key] = np.zeros(arrays[key].shape + (1,))


@pytest.mark.parametrize("edit", [
    lambda a: _drop(a, "p:tok_emb"),
    lambda a: a.__setitem__("p:block0.extra.w", np.zeros(3)),
    lambda a: _reshape(a, "p:block1.ff1.w"),
    lambda a: _drop(a, "om:tok_emb"),
    lambda a: a.__setitem__("ov:block9.qkv.w", np.zeros(3)),
    lambda a: _reshape(a, "ov:final_ln.g"),
], ids=["missing-param", "extra-param", "misshaped-param", "missing-moment", "extra-moment", "misshaped-moment"])
def test_checkpoint_shape_faults_raise_checkpoint_error(tmp_path, toy, edit):
    model, _ = toy
    path = tmp_path / "model.ckpt"
    moments = {name: np.zeros_like(t.data) for name, t in model.params.items()}
    save_checkpoint(path, model, optimizer_state={"step": 3, "m": moments, "v": moments})
    load_checkpoint(path)  # intact
    with np.load(path, allow_pickle=False) as z:
        arrays = {key: z[key] for key in z.files}
    edit(arrays)
    bad = tmp_path / "bad.ckpt"
    with open(bad, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_checkpoint_atomic_no_partial_files(tmp_path, toy):
    model, _ = toy
    save_checkpoint(tmp_path / "m.ckpt", model)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp" or ".tmp" in p.name]
    assert leftovers == []
