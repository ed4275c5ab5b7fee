import numpy as np
import pytest

from chronoseq.simstudy import (
    handcrafted_activations,
    handcrafted_forward,
    logic_label,
    run_comparison,
    sample_dataset,
)
from chronoseq.simstudy.encoder import (
    batch_accuracy,
    batch_loss,
    encode_summation_batch,
    encode_timetoken_batch,
    init_encoder_params,
)


def test_handcrafted_paper_walkthrough():
    a1, a2, y = handcrafted_activations(0, 6, 1)
    assert a1.tolist() == [0, 1, 1, 0, 0, 1]
    assert a2.tolist() == [0, 1, 0, 0]
    assert y == 1


def test_handcrafted_exhaustive_gating():
    for x1 in (0, 1):
        for x2 in (0, 1):
            for dt in range(29):
                want = (x1 ^ x2) if dt <= 7 else (x1 & x2)
                assert handcrafted_forward(x1, dt, x2) == want


def test_handcrafted_rejects_bad_inputs():
    with pytest.raises(ValueError):
        handcrafted_forward(2, 3, 0)
    with pytest.raises(ValueError):
        handcrafted_forward(0, -1, 0)


def test_logic_label_rule_table():
    assert logic_label(1, 1, 0, 4) == 0  # rule 1: dt%4==0, x1=1 -> not x2
    assert logic_label(0, 1, 0, 3) == 1  # rule 2: dt%3==0, x1=0 -> x2
    assert logic_label(1, 0, 0, 20) == 1  # rule 5: OR
    assert logic_label(1, 0, 0, 5) == 1  # rule 3: XOR
    assert logic_label(1, 0, 0, 10) == 0  # rule 4: AND


def test_logic_label_rule_order_precedence():
    # dt=4 satisfies both rule 1 (4%4==0, x1=1) and rule 3 (dt<=7); rule 1 wins
    assert logic_label(1, 1, 0, 4) == 0  # rule 1 says not x2 = 0; rule 3 would say XOR = 0... pick a case that differs
    # x1=1, x2=0, dt=4: rule 1 -> not x2 = 1; rule 3 XOR -> 1; still equal. dt=8, x1=1, x2=1:
    # rule 1 (8%4==0) -> not x2 = 0; rule 4 AND -> 1. They differ: rule 1 must win.
    assert logic_label(1, 1, 0, 8) == 0
    # dt=12, x1=0, x2=1: rule 2 (12%3==0) -> x2 = 1; rule 4 AND -> 0. Rule 2 wins.
    assert logic_label(0, 1, 0, 12) == 1


def test_logic_label_totality_and_domain():
    for x1 in (0, 1):
        for x2 in (0, 1):
            for t1 in range(0, 29, 7):
                for t2 in range(t1, 29):
                    assert logic_label(x1, x2, t1, t2) in (0, 1)
    with pytest.raises(ValueError):
        logic_label(0, 0, 5, 3)


def test_dataset_sampling_deterministic_and_labeled():
    d1 = sample_dataset(200, seed=4)
    d2 = sample_dataset(200, seed=4)
    assert (d1.y == d2.y).all() and (d1.t1 == d2.t1).all()
    assert (d1.t1 <= d1.t2).all()
    for i in range(len(d1)):
        assert d1.y[i] == logic_label(int(d1.x1[i]), int(d1.x2[i]), int(d1.t1[i]), int(d1.t2[i]))


def test_encoders_forward_shapes_and_grads():
    params = init_encoder_params(seed=0)
    data = sample_dataset(32, seed=0)
    batch = data.full()
    for enc in (encode_timetoken_batch, encode_summation_batch):
        loss = batch_loss(params, enc, batch)
        assert np.isfinite(loss.data)
        acc = batch_accuracy(params, enc, batch)
        assert 0.0 <= acc <= 1.0


def test_untrained_accuracy_in_majority_band():
    data = sample_dataset(1000, seed=1)
    base = max(data.y.mean(), 1 - data.y.mean())
    params = init_encoder_params(seed=3)
    acc = batch_accuracy(params, encode_timetoken_batch, data.full())
    assert 0.2 <= acc <= base + 0.05  # untrained: at or below the majority rate


def test_run_comparison_deterministic_per_seed():
    r1 = run_comparison(200, n_samples=200, seed=9)
    r2 = run_comparison(200, n_samples=200, seed=9)
    assert r1.timetoken.points == r2.timetoken.points
    assert r1.summation.points == r2.summation.points
    # curves include step 0 and the cadence
    assert r1.timetoken.points[0][0] == 0
    assert [s for s, _ in r1.timetoken.points] == [0, 100, 200]


def test_curves_csv(tmp_path):
    res = run_comparison(100, n_samples=100, seed=2)
    from chronoseq.simstudy import write_curves_csv

    out = tmp_path / "curves.csv"
    write_curves_csv(out, res)
    lines = out.read_text().splitlines()
    assert lines[0] == "step,acc_timetoken,acc_sum"
    assert len(lines) >= 3
