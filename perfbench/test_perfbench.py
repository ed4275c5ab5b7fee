"""Tests of the benchmark itself: each correctness check rejects a wrong
output, the tracer reports missing functions, and every workload runs at a
tiny size.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

from chronoseq.privacy import (  # noqa: E402
    AttributeResult,
    IdentityResult,
    MembershipResult,
    NnaaResult,
    PrivacySuiteResult,
)
from chronoseq.zeroshot import SimulationEstimate  # noqa: E402


def _quadratic():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    x = np.array([0.5, -1.5])
    return a, x, lambda: float(0.5 * x @ a @ x), a @ x


def test_gradient_check_accepts_the_true_gradient():
    a, x, loss, grad = _quadratic()
    fd, analytic = checks.directional_derivative(loss, [x], [grad], np.random.default_rng(0))
    checks.check_directional_derivative(fd, analytic)
    assert np.array_equal(x, [0.5, -1.5])  # restored exactly


def test_gradient_check_rejects_a_wrong_gradient():
    a, x, loss, grad = _quadratic()
    fd, analytic = checks.directional_derivative(loss, [x], [grad * 1.01], np.random.default_rng(0))
    with pytest.raises(CheckFailed):
        checks.check_directional_derivative(fd, analytic)


def _history(losses_by_epoch, tokens_per_step):
    rows, tokens, step = [], [], 0
    for epoch, losses in enumerate(losses_by_epoch):
        for loss in losses:
            step += 1
            rows.append({"step": step, "epoch": epoch, "train_loss": loss, "eval_loss": ""})
            tokens.append(tokens_per_step)
        rows.append({"step": step, "epoch": epoch, "train_loss": "", "eval_loss": 1.0})
    return rows, tokens


def test_training_history_checks():
    rows, tokens = _history([[5.0, 4.0], [3.0, 2.0], [1.0]], 10)
    checks.check_training_history(rows, tokens, 20, 5)
    rising, _ = _history([[1.0, 2.0], [3.0, 4.0], [5.0]], 10)
    with pytest.raises(CheckFailed, match="did not fall"):
        checks.check_training_history(rising, tokens, 20, 5)
    with pytest.raises(CheckFailed, match="tokens"):
        checks.check_training_history(rows, tokens, 21, 5)
    nan, _ = _history([[5.0, float("nan")], [3.0, 2.0], [1.0]], 10)
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_training_history(nan, tokens, 20, 5)


def test_support_rejects_a_token_outside_top_k():
    logits = np.array([5.0, 4.0, 3.0, 2.0])
    rows = [logits] * 3
    checks.check_in_support([0, 1, 0], rows, 1, 1.0, 2, 1.0)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_in_support([0, 1, 2], rows, 1, 1.0, 2, 1.0)


def test_support_rejects_a_token_outside_the_nucleus():
    logits = np.log(np.array([0.6, 0.3, 0.08, 0.02]))
    assert checks.allowed_next_tokens(logits, top_p=0.85).tolist() == [True, True, False, False]
    assert checks.allowed_next_tokens(logits, top_p=0.9).tolist() == [True, True, True, False]
    with pytest.raises(CheckFailed):
        checks.check_in_support([0, 2], [logits], 1, 1.0, 0, 0.85)


def test_reencoding_allows_same_day_reorder_and_rejects_a_changed_gap():
    gen = ["year:2000", "age:40", "gender:8532", "race:8527", "[VS]", "v:9202", "c:1", "d:2", "[VE]", "D7",
           "[VS]", "v:9201", "c:3", "i-D2", "p:4", "dis:8536", "[VE]", "[END]"]
    same_day = gen[:6] + ["d:2", "c:1"] + gen[8:]
    checks.check_reencoding([gen], [same_day])
    with pytest.raises(CheckFailed):
        checks.check_reencoding([gen], [gen[:9] + ["D8"] + gen[10:]])
    with pytest.raises(CheckFailed):
        checks.check_reencoding([gen], [gen, gen])  # one generated sequence, two records
    capped = gen[:-3]  # cut inside the second visit
    checks.check_reencoding([capped], [gen[:9] + ["[END]"]])


def test_sequence_frame():
    prompts = {("year:2000", "age:40", "gender:8532", "race:8527")}
    seq = ["year:2000", "age:40", "gender:8532", "race:8527", "[VS]", "v:9202", "[VE]", "[END]"]
    checks.check_sequence_frame(seq, False, prompts, 200)
    with pytest.raises(CheckFailed):
        checks.check_sequence_frame(seq[:-1], False, prompts, 200)
    with pytest.raises(CheckFailed):
        checks.check_sequence_frame(["year:1999"] + seq[1:], False, prompts, 200)


def test_estimate_checks():
    good = SimulationEstimate(probability=0.2, n_positive=10, n_completed=50, n_censored=5, n_attempts=55, capped=False)
    checks.check_estimates([good], 50)
    wrong_p = SimulationEstimate(0.25, 10, 50, 5, 55, False)
    with pytest.raises(CheckFailed):
        checks.check_estimates([wrong_p], 50)
    lost = SimulationEstimate(0.2, 10, 50, 4, 55, False)
    with pytest.raises(CheckFailed):
        checks.check_estimates([lost], 50)


def test_metric_oracles_and_a_swapped_auroc():
    from chronoseq.evalharness import auprc, auroc

    rng = np.random.default_rng(3)
    scores = np.round(rng.random(30), 1)  # ties on purpose
    labels = (rng.random(30) < 0.4).astype(int)
    checks.check_metric("AUROC", auroc(scores, labels), checks.auroc_oracle(scores.tolist(), labels.tolist()))
    checks.check_metric("AUPRC", auprc(scores, labels), checks.auprc_oracle(scores.tolist(), labels.tolist()))
    with pytest.raises(CheckFailed):
        swapped = auroc(scores, 1 - labels)
        checks.check_metric("AUROC", swapped, checks.auroc_oracle(scores.tolist(), labels.tolist()))


def test_window_rule_and_binomial_agreement():
    assert checks.classify_future(["D7", "[VS]", "v:9201"], {9201}, 0, 30) == "positive"
    assert checks.classify_future(["D40"], {9201}, 0, 30) == "negative"
    assert checks.classify_future(["D7", "[END]"], {9201}, 0, 30) == "censored"
    assert checks.classify_future(["D7", "[VS]"], {9201}, 0, 30) == "open"
    checks.check_binomial_agreement(10, 50, 13, 50)
    with pytest.raises(CheckFailed):
        checks.check_binomial_agreement(5, 50, 40, 50)


def _suite(nnaa, membership, attribute=0.01, identity=0.0):
    return PrivacySuiteResult(NnaaResult(nnaa, 0.5, 0.5, 100), MembershipResult(membership, 3, 0.7, 0.6),
                              AttributeResult(attribute, ()), IdentityResult(identity, 0))


def test_privacy_check_rejects_a_memorised_set_reported_as_independent():
    copy = _suite(0.34, 0.33)
    checks.check_privacy({"a": _suite(0.01, 0.0), "b": _suite(0.02, 0.01)}, copy)
    with pytest.raises(CheckFailed):
        checks.check_privacy({"a": _suite(0.01, 0.0), "b": copy}, copy)
    with pytest.raises(CheckFailed):
        checks.check_privacy({"a": _suite(0.01, 0.0)}, _suite(0.02, 0.01))  # copy not clearly higher


def test_prevalence_and_summary_checks():
    from chronoseq.codec import records_to_tables
    from chronoseq.evalharness import prevalence_report
    from chronoseq.generation import summary_stats
    from chronoseq.synthworld import sample_hospital_records

    real = records_to_tables(sample_hospital_records(40, seed=1))
    syn = records_to_tables(sample_hospital_records(30, seed=2))
    rows = prevalence_report(real, syn)
    checks.check_prevalence(rows, checks.prevalence_oracle(real), checks.prevalence_oracle(syn))
    with pytest.raises(CheckFailed):
        checks.check_prevalence(rows, checks.prevalence_oracle(syn), checks.prevalence_oracle(syn))
    stats = summary_stats(syn)
    checks.check_summary(stats, syn)
    with pytest.raises(CheckFailed):
        checks.check_summary(stats, real)


def test_tracer_reports_a_missing_function_as_absent():
    tracer, patches = Tracer(), Patches()
    assert not patches.wrap("chronoseq.model.inference", "InferenceSession.no_such_method", tracer.wrapper("x"))
    assert patches.absent == ["chronoseq.model.inference.InferenceSession.no_such_method"]


def test_tracer_self_time_and_restore():
    import chronoseq.evalharness.metrics as metrics

    original = metrics.auroc
    tracer, patches = Tracer(), Patches()
    assert patches.wrap("chronoseq.evalharness.metrics", "auroc", tracer.wrapper("auroc"))
    tracer.active = True
    with tracer.span("op"):
        metrics.auroc([0.1, 0.9], [0, 1])
    tracer.active = False
    patches.restore()
    assert metrics.auroc is original
    summary = tracer.summary()
    assert summary["auroc"]["calls"] == 1
    op = summary["op"]
    assert op["self_s"] == pytest.approx(op["total_s"] - summary["auroc"]["total_s"])


@pytest.mark.parametrize("workload", ["train", "generate", "zeroshot", "audit"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    root = HERE.parent
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)
    for m in bench["per_layer" if trace else "end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
