import numpy as np
import pytest

from chronoseq.codec.vocab import Vocabulary
from chronoseq.configfile import read_config
from chronoseq.model import ModelConfig, TimelineModel
from chronoseq.zeroshot import (
    ConceptAncestry,
    TaskConfig,
    WindowRule,
    classify_continuation,
    evaluate_task,
    expand_outcomes,
    simulate_cohort,
    simulate_probability,
)
from chronoseq.zeroshot import simulate
from chronoseq.zeroshot.simulate import BATCH_LANES, MAX_LANES
from helpers import MarkovLanes, MarkovModel, enumerate_outcome_probability


def task(**kw):
    base = dict(task_name="t", outcome_events=(100,), prediction_window_start=0,
                prediction_window_end=90, max_new_tokens=8, n_simulations=50)
    base.update(kw)
    return TaskConfig(**base)


# ---------------------------------------------------------------------------
# task files and outcome expansion


def test_load_task_config_readmission_listing(tmp_path):
    p = tmp_path / "task.yml"
    p.write_text(
        'task_name: "30_day_readmission_prediction"\n'
        'outcome_events: ["9201", "262", "8971", "8920"]\n'
        "include_descendants: false\n"
        "prediction_window_start: 0\n"
        "prediction_window_end: 30\n"
        "max_new_tokens: 128\n"
    )
    t = read_config(p, TaskConfig)
    assert t.task_name == "30_day_readmission_prediction"
    assert t.outcome_events == (9201, 262, 8971, 8920)
    assert not t.include_descendants
    assert (t.prediction_window_start, t.prediction_window_end) == (0, 30)
    assert t.max_new_tokens == 128
    assert t.n_simulations == 50


def test_load_task_config_multiline_list(tmp_path):
    p = tmp_path / "task.yml"
    p.write_text(
        'task_name: "cabg_prediction"\n'
        "outcome_events: [\n"
        '    "43528001",\n'
        '    "43528003",\n'
        '    "4305852",\n'
        "]\n"
        "prediction_window_start: 0\n"
        "prediction_window_end: 365\n"
        "max_new_tokens: 1024\n"
        "include_descendants: true\n"
    )
    t = read_config(p, TaskConfig)
    assert t.outcome_events == (43528001, 43528003, 4305852)
    assert t.include_descendants


def test_load_task_config_rejects_unknown_fields(tmp_path):
    p = tmp_path / "task.yml"
    p.write_text('task_name: "x"\noutcome_events: ["1"]\nwindow: 3\n')
    with pytest.raises(ValueError):
        read_config(p, TaskConfig)


def test_task_validation():
    with pytest.raises(ValueError):
        task(prediction_window_start=30, prediction_window_end=30)
    with pytest.raises(ValueError):
        task(outcome_events=())


def test_expand_outcomes_cases():
    anc = ConceptAncestry([(1, 2), (1, 3), (3, 4)])
    t_off = task(outcome_events=(9201, 262), include_descendants=False)
    assert expand_outcomes(t_off) == {9201, 262}
    t_no_desc = task(outcome_events=(99,), include_descendants=True)
    assert expand_outcomes(t_no_desc, anc) == {99}  # reflexive closure only
    t_tree = task(outcome_events=(1,), include_descendants=True)
    assert expand_outcomes(t_tree, anc) == {1, 2, 3}  # stored pairs, not re-walked
    # idempotent: expanding the expansion adds nothing
    t_again = task(outcome_events=tuple(sorted(expand_outcomes(t_tree, anc))), include_descendants=True)
    assert expand_outcomes(t_again, anc) == expand_outcomes(t_tree, anc) | {4}


def test_expand_outcomes_transitive_closure_table():
    # ancestor tables ship closed: include the grandchild row and it arrives
    anc = ConceptAncestry([(1, 2), (1, 3), (1, 4), (3, 4)])
    assert expand_outcomes(task(outcome_events=(1,), include_descendants=True), anc) == {1, 2, 3, 4}


def test_ancestry_file_with_header(tmp_path):
    p = tmp_path / "anc.csv"
    p.write_text("ancestor_id,descendant_id\n1,2\n1,3\n")
    anc = ConceptAncestry.load(p)
    assert anc.descendants_of(1) == {1, 2, 3}
    assert anc.descendants_of(7) == {7}


# ---------------------------------------------------------------------------
# trajectory classification


def test_classify_continuation_cases():
    out = {100}
    # outcome inside window
    assert classify_continuation(("D30", "c:100"), out, 0, 90) == "positive"
    # window exceeded before outcome
    assert classify_continuation(("D30", "D30", "D31", "c:100"), out, 0, 90) == "negative"
    # END inside window
    assert classify_continuation(("D30", "[END]"), out, 0, 90) == "censored"
    # budget exhausted with window open
    assert classify_continuation(("D30", "c:200"), out, 0, 90) == "censored"
    # occurrence before window start does not count
    assert classify_continuation(("c:100", "D30", "D31", "D30"), out, 10, 90) == "negative"
    # visit-type token matches too
    assert classify_continuation(("D5", "v:100"), out, 0, 90) == "positive"
    # boundary: accrued exactly at window end still counts
    assert classify_continuation(("D90", "c:100"), out, 0, 90) == "positive"


def test_window_rule_steps_agree_with_classify_continuation():
    # many random futures stepped together over a vocabulary table, as the
    # lanes do, against classify_continuation on each future alone
    pool = ["D30", "D0", "D89", "i-D1", "i-D45", "[LT]", "c:100", "v:100", "c:200", "v:9202",
            "[VS]", "[VE]", "[END]"]
    rng = np.random.default_rng(4)
    streams = rng.integers(0, len(pool), size=(400, 12))
    for window in ((0, 90), (10, 60), (30, 1200)):
        rule = WindowRule(pool, {100}, *window)
        verdicts = np.zeros(len(streams), dtype=np.int64)
        accrued = np.zeros(len(streams), dtype=np.int64)
        for j in range(streams.shape[1]):
            accrued, v = rule.step(accrued, streams[:, j])
            verdicts = np.where(verdicts == 0, v, verdicts)
        names = {0: "censored", 1: "positive", 2: "negative", 3: "censored"}
        for stream, got in zip(streams, verdicts):
            assert classify_continuation([pool[i] for i in stream], {100}, *window) == names[int(got)]


def test_monotone_window_on_fixed_trajectories():
    rng = np.random.default_rng(0)
    tokens_pool = ["D30", "c:100", "c:200", "[END]"]
    trajectories = [
        tuple(rng.choice(tokens_pool) for _ in range(int(rng.integers(1, 8)))) for _ in range(300)
    ]
    out = {100}

    def prob(window_end):
        votes = [classify_continuation(t, out, 0, window_end) for t in trajectories]
        pos = votes.count("positive")
        neg = votes.count("negative")
        return pos / (pos + neg) if pos + neg else 0.0

    last = 0.0
    for w in (30, 60, 90, 120, 200):
        p = prob(w)
        assert p >= last - 1e-12
        last = p


# ---------------------------------------------------------------------------
# simulation against the rigged chain


def rigged_model():
    row = {"D30": 0.45, "c:100": 0.2, "c:200": 0.25, "[END]": 0.1}
    return MarkovModel(
        {"default": row},
        extra_tokens=("year:2000", "age:50", "gender:8532", "race:8527", "v:9202"),
    )


PREFIX = ("year:2000", "age:50", "gender:8532", "race:8527", "v:9202")


def test_simulate_probability_definition_and_grid():
    model = rigged_model()
    t = task(n_simulations=50)
    est = simulate_probability(model, PREFIX, t, np.random.default_rng(0))
    assert est.n_completed == 50
    assert est.probability == est.n_positive / 50
    assert abs(est.probability * 50 - round(est.probability * 50)) < 1e-9  # on the 1/n grid
    assert not est.capped


def test_simulate_probability_deterministic_under_seed():
    model = rigged_model()
    t = task()
    a = simulate_probability(model, PREFIX, t, np.random.default_rng(123))
    b = simulate_probability(model, PREFIX, t, np.random.default_rng(123))
    assert a == b


def test_simulate_probability_matches_enumeration():
    model = rigged_model()
    t = task(prediction_window_end=90, max_new_tokens=8, n_simulations=400)
    p_pos, p_neg, p_cen = enumerate_outcome_probability(model, PREFIX[-1], {100}, 0, 90, 8)
    assert p_pos + p_neg + p_cen == pytest.approx(1.0, abs=1e-12)
    exact = p_pos / (p_pos + p_neg)
    est = simulate_probability(model, PREFIX, t, np.random.default_rng(7))
    sigma = np.sqrt(exact * (1 - exact) / 400)
    assert abs(est.probability - exact) <= 4 * sigma


def test_simulate_probability_cap_on_always_censored_prefix():
    model = MarkovModel({"default": {"[END]": 1.0}},
                        extra_tokens=PREFIX)
    t = task(n_simulations=10)
    est = simulate_probability(model, PREFIX, t, np.random.default_rng(0))
    assert est.capped
    assert est.n_attempts == 40  # 4x cap
    assert est.n_completed == 0 and est.probability == 0.0


def test_simulate_probability_cap_spans_several_waves():
    # 4 x 30 = 120 attempts need more than MAX_LANES lanes: waves of 30, 64 and 26
    model = MarkovModel({"default": {"[END]": 1.0}}, extra_tokens=PREFIX)
    est = simulate_probability(model, PREFIX, task(n_simulations=30), np.random.default_rng(0))
    assert est.capped
    assert est.n_attempts == est.n_censored == est.n_lanes == 120  # no wave overshoots the cap
    assert est.n_completed == 0 and est.probability == 0.0


@pytest.mark.parametrize("row, discards", [
    ({"D30": 0.2, "c:100": 0.3, "[END]": 0.5}, True),
    ({"D30": 0.1, "c:100": 0.1, "[END]": 0.8}, False),  # completion rate under the 1/4 floor: 4x waves
])
def test_simulate_probability_overprovisioned_waves_stop_at_n(row, discards):
    # censored futures make later waves larger than the missing futures;
    # lanes past the n-th completion are discarded uncounted
    model = MarkovModel({"default": row}, extra_tokens=PREFIX)
    discarded = 0
    for seed in range(20):
        t = task(n_simulations=int(5 + 3 * seed))
        est = simulate_probability(model, PREFIX, t, np.random.default_rng(seed))
        assert est.n_completed + est.n_censored == est.n_attempts
        assert est.n_completed == t.n_simulations or (est.capped and est.n_attempts == 4 * t.n_simulations)
        assert est.probability == est.n_positive / est.n_completed
        assert est.n_attempts <= est.n_lanes
        discarded += est.n_lanes - est.n_attempts
    if discards:
        assert discarded > 0


def test_simulate_probability_counts_only_real_censoring():
    # no [END] and a budget no future exhausts: every future completes, so a
    # lane stopped early and then counted as censored would show here
    model = MarkovModel({"default": {"D30": 0.4, "c:100": 0.1, "c:200": 0.5}}, extra_tokens=PREFIX)
    for n in (2, 3, 5, 50):
        for seed in range(10):
            t = task(n_simulations=n, max_new_tokens=200)
            est = simulate_probability(model, PREFIX, t, np.random.default_rng(seed))
            assert est.n_censored == 0
            assert est.n_attempts == est.n_lanes == est.n_completed == n


def test_simulate_probability_accounting_on_model_lanes():
    # the same wave loop over InferenceSession lanes of a small trained-shape model
    vocab = Vocabulary(["[PAD]", "[VS]", "[VE]", "[LT]", "[END]", *PREFIX, "D30", "D5", "c:100", "c:200"])
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=16)
    model = TimelineModel.initialize(cfg, vocab, seed=0)
    t = task(n_simulations=20, max_new_tokens=64)  # the window leaves 11 new tokens
    est = simulate_probability(model, PREFIX, t, np.random.default_rng(1))
    assert est.n_completed + est.n_censored == est.n_attempts
    assert est.n_completed == 20 or est.n_attempts == 80
    assert est == simulate_probability(model, PREFIX, t, np.random.default_rng(1))


def test_evaluate_task_end_to_end_and_hand_auroc():
    model = rigged_model()
    t = task(n_simulations=20, prediction_window_end=60)
    # labels correlated with seed-dependent scores only by chance; here we
    # check the plumbing: both classes required, metrics in range
    cohort = [(PREFIX, 1), (PREFIX, 0), (PREFIX, 1), (PREFIX, 0)]
    m = evaluate_task(model, cohort, t, seed=3, n_bootstrap=50)
    assert 0.0 <= m.auroc.point <= 1.0
    assert m.auroc.ci_low <= m.auroc.point <= m.auroc.ci_high
    with pytest.raises(ValueError):
        evaluate_task(model, [(PREFIX, 1)], t, seed=0)


def test_evaluate_task_rejects_more_than_one_thread():
    with pytest.raises(ValueError, match="n_threads"):
        evaluate_task(rigged_model(), [(PREFIX, 1), (PREFIX, 0)], task(), n_threads=2)


def _composition_cases(model, prefixes, t, seed=5):
    """A patient's estimate alone, inside the cohort, in the reversed cohort and through evaluate_task."""
    def rngs():
        return [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(len(prefixes))]

    outcome_ids = expand_outcomes(t)
    alone = [simulate_probability(model, p, t, rng) for p, rng in zip(prefixes, rngs())]
    together = simulate_cohort(model, prefixes, rngs(), t, outcome_ids)
    reversed_ = simulate_cohort(model, prefixes[::-1], rngs()[::-1], t, outcome_ids)
    assert together.estimates == alone
    assert reversed_.estimates[::-1] == alone
    m = evaluate_task(model, [(p, i % 2) for i, p in enumerate(prefixes)], t, seed=seed, n_bootstrap=10)
    assert m.estimates == alone
    one_by_one = [simulate_cohort(model, [p], [rng], t, outcome_ids) for p, rng in zip(prefixes, rngs())]
    assert together.lane_tokens == sum(r.lane_tokens for r in one_by_one)  # the same futures, token for token
    assert together.decode_steps < sum(r.decode_steps for r in one_by_one)  # in fewer, wider steps
    return together


def test_estimates_do_not_depend_on_batch_composition():
    vocab = Vocabulary(["[PAD]", "[VS]", "[VE]", "[LT]", "[END]", *PREFIX, "D30", "D5", "c:100", "c:200"])
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=2, n_heads=2, context_window=32)
    model = TimelineModel.initialize(cfg, vocab, seed=3)
    t = task(n_simulations=12, prediction_window_end=60, max_new_tokens=12)
    # 9 patients x 12 lanes exceed BATCH_LANES, so admission waits for room;
    # the last prefix fills the window and leaves no room to decode
    prefixes = [PREFIX[: 4 + i % 2] + ("D5", "c:200") * (i // 2) for i in range(9)] + [PREFIX[:4] + ("D5",) * 28]
    last = _composition_cases(model, prefixes, t).estimates[-1]
    assert last.capped and last.n_attempts == last.n_censored == 48


def test_markov_estimates_do_not_depend_on_batch_composition(monkeypatch):
    model = MarkovModel({"default": {"D30": 0.3, "c:100": 0.2, "c:200": 0.35, "[END]": 0.15},
                         "c:100": {"[END]": 0.6, "D30": 0.4}}, extra_tokens=PREFIX)
    prefixes = [PREFIX, PREFIX[:4] + ("c:100",), PREFIX[:4] + ("c:200", "D30")] * 3
    widths, waves = [], []
    next_logits = MarkovLanes.next_logits
    monkeypatch.setattr(MarkovLanes, "next_logits", lambda self: widths.append(self.n_lanes) or next_logits(self))
    launch = simulate._Patient._launch
    monkeypatch.setattr(simulate._Patient, "_launch", lambda self: waves.append(launch(self)) or waves[-1])
    t = task(n_simulations=20, prediction_window_end=60)
    _composition_cases(model, prefixes, t)
    assert max(widths) <= BATCH_LANES  # a wave joins only when the batch has room for it
    assert max(waves) <= MAX_LANES
    assert max(widths) > 20  # and steps carry lanes of several patients

    # two first waves of 40 lanes: together more than a wave may have, but they fit in the batch
    t = task(n_simulations=40, prediction_window_end=60)
    widths.clear()
    wide = _composition_cases(model, prefixes[:2], t)
    assert MAX_LANES < max(widths) <= BATCH_LANES
    monkeypatch.setattr(simulate, "BATCH_LANES", MAX_LANES)
    widths.clear()
    narrow = _composition_cases(model, prefixes[:2], t)
    assert max(widths) <= MAX_LANES
    assert (narrow.estimates, narrow.lane_tokens) == (wide.estimates, wide.lane_tokens)
    assert wide.decode_steps < narrow.decode_steps


def test_demo_checkpoint_readmission_estimates_are_pinned():
    """Golden values recorded on the shipped demo checkpoint: a model whose futures run for
    many tokens and whose scores differ between patients, so a change in the simulator shows."""
    from pathlib import Path

    from chronoseq.evalharness import cohort_prefixes
    from chronoseq.model import load_checkpoint
    from chronoseq.synthworld import INPATIENT, sample_hospital_records

    model, _, _ = load_checkpoint(Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "demo_best.ckpt")
    t = TaskConfig("readmission", (9201, 262), prediction_window_start=0, prediction_window_end=30,
                   max_new_tokens=64, n_simulations=20)
    records = sample_hospital_records(300, seed=21)
    found = {0: [], 1: []}  # cut after each patient's first inpatient stay that has a later visit
    for rec in records:
        k = next((k for k, v in enumerate(rec.visits[:-1]) if v.visit_concept_id == INPATIENT), None)
        if k is None:
            continue
        cut = rec.visits[k].end_date
        label = int(any(v.visit_concept_id in t.outcome_events and 0 <= (v.start_date - cut).days <= 30
                        for v in rec.visits[k + 1:]))
        if len(found[label]) < 5:
            found[label].append((rec.person_id, cut, label))
    rows = [row for pair in zip(found[1], found[0]) for row in pair]
    cohort, skipped = cohort_prefixes(records, rows, context_window=model.config.context_window)
    assert skipped == 0 and len(cohort) == 10

    m = evaluate_task(model, cohort, t, seed=7, n_bootstrap=200)
    assert [(e.n_positive, e.n_completed, e.n_attempts) for e in m.estimates] == [
        (2, 20, 25), (5, 20, 23), (3, 20, 33), (3, 20, 34), (7, 20, 24),
        (3, 20, 21), (7, 20, 31), (5, 20, 24), (4, 20, 34), (6, 20, 28)]
    assert (m.decode_steps, m.lane_tokens) == (52, 1651)
    assert len(set(m.scores)) > 1


def test_zero_shot_memory_is_bounded():
    """evaluate_task on the demo checkpoint with two 48-lane first waves at a time, a full batch."""
    import tracemalloc
    from pathlib import Path

    from chronoseq.evalharness import cohort_prefixes
    from chronoseq.model import load_checkpoint
    from chronoseq.synthworld import INPATIENT, sample_hospital_records

    model, _, _ = load_checkpoint(Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "demo_best.ckpt")
    t = TaskConfig("readmission", (9201, 262), prediction_window_start=0, prediction_window_end=30,
                   max_new_tokens=64, n_simulations=48)
    records = sample_hospital_records(300, seed=21)
    rows = []  # cut after each patient's first inpatient stay that has a later visit; labels only alternate
    for rec in records:
        k = next((k for k, v in enumerate(rec.visits[:-1]) if v.visit_concept_id == INPATIENT), None)
        if k is not None and len(rows) < 10:
            rows.append((rec.person_id, rec.visits[k].end_date, len(rows) % 2))
    cohort, _ = cohort_prefixes(records, rows, context_window=model.config.context_window)
    tracemalloc.start()
    try:
        evaluate_task(model, cohort, t, seed=7, n_bootstrap=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.43 MB measured with numpy 2.4.6, so the bound leaves about 17% headroom;
    # a 128-lane batch reads 4.28 MB and a 256-lane one 6.78 MB
    assert peak < 4.0e6, f"peak {peak / 1e6:.2f} MB"
