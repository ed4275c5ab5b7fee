"""Acceptance suite: every exit criterion as one test with a printed verdict.

Each test computes its result, prints one `[ACCEPTANCE] Cnn PASS|FAIL ...`
line (visible with `pytest -s` or in captured output on failure), then
asserts. Tolerances are pinned here, not configurable.
"""
import time

import numpy as np

from chronoseq.codec import (
    decode_sequence,
    encode_patient,
    records_to_tables,
    validate_sequence,
)
from chronoseq.codec.tokens import TimeTriple, decompose_interval, recompose_interval
from chronoseq.evalharness import CohortSpec, auprc, auroc, pathway_cohort, prevalence_report
from chronoseq.generation import (
    SamplingConfig,
    apply_decoding_controls,
    convert_to_tables,
    generate_pool,
    sample_token_id,
    summary_stats,
)
from chronoseq.model import ModelConfig, TimelineModel
from chronoseq.model.diagnostics import toy_grad_check
from chronoseq.privacy import RISK_THRESHOLD, attribute_inference, membership_inference, nnaa_risk
from chronoseq.simstudy import handcrafted_activations, handcrafted_forward, run_comparison
from chronoseq.synthworld import WorldConfig, demographics_of, sample_hospital_records
from chronoseq.training import TrainConfig, prepare_corpus, train
from chronoseq.zeroshot import TaskConfig, simulate_probability
from conftest import random_record
from helpers import (
    MarkovModel,
    auprc_bruteforce,
    auroc_bruteforce,
    chi2_sf_even,
    enumerate_outcome_probability,
    pathway_cohort_reference,
)


def verdict(criterion: str, ok: bool, detail: str):
    print(f"[ACCEPTANCE] {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_c01_handcrafted_router_exact():
    t0 = time.time()
    a1, a2, y = handcrafted_activations(0, 6, 1)
    exact = (a1.tolist() == [0, 1, 1, 0, 0, 1]) and (a2.tolist() == [0, 1, 0, 0]) and (y == 1)
    exhaustive = all(
        handcrafted_forward(x1, dt, x2) == ((x1 ^ x2) if dt <= 7 else (x1 & x2))
        for x1 in (0, 1)
        for x2 in (0, 1)
        for dt in range(29)
    )
    elapsed = time.time() - t0
    verdict(
        "C01",
        exact and exhaustive and elapsed < 1.0,
        f"a1={a1.tolist()} a2={a2.tolist()} y={y}, 116/116 gated cases, {elapsed:.3f}s",
    )


def test_c02_simulation_study_five_seeds():
    # the study's fixed recipe: embed 16, 2 layers, intermediate 32, batch 128, 20000 steps at most
    converged = 0
    gapped = 0
    tt_final, sum_final = [], []
    details = []
    for seed in range(5):
        res = run_comparison(n_samples=1000, seed=seed, stop_at_convergence=True)
        tt_final.append(res.timetoken.points[-1][1])
        sum_final.append(res.summation.points[-1][1])
        if res.convergence_step is not None:
            converged += 1
            gap = res.timetoken.accuracy_at(res.convergence_step) - res.summation.accuracy_at(
                res.convergence_step
            )
            if gap >= 0.05:
                gapped += 1
            details.append(f"seed{seed}: step {res.convergence_step}, gap {gap:.3f}")
        else:
            details.append(f"seed{seed}: no convergence")
    med_tt = float(np.median(tt_final))
    med_sum = float(np.median(sum_final))
    verdict(
        "C02",
        converged >= 4 and gapped >= 4 and med_tt >= 0.99 and med_sum <= med_tt - 0.05,
        f"{converged}/5 reached 0.99 before step 20000, {gapped}/5 with gap >= 0.05; "
        f"median final acc tt={med_tt:.3f} sum={med_sum:.3f} ({'; '.join(details)})",
    )


def test_c03_gradient_correctness_three_configs():
    t0 = time.time()
    errs = [
        toy_grad_check(embed_dim=6, n_layers=1, n_heads=1, seed=0),
        toy_grad_check(embed_dim=6, n_layers=2, n_heads=2, seed=1),
        toy_grad_check(embed_dim=12, n_layers=2, n_heads=3, seed=2),
    ]
    elapsed = time.time() - t0
    verdict("C03", max(errs) < 1e-4 and elapsed < 60,
            f"max relative errors {['%.2e' % e for e in errs]}, {elapsed:.1f}s")


def test_c04_time_decomposition_convention():
    ok = (
        decompose_interval(396) == TimeTriple(1, 1, 1)
        and decompose_interval(1) == TimeTriple(0, 0, 1)
        and all(recompose_interval(decompose_interval(d)) == d for d in range(0, 1080))
    )
    verdict("C04", ok, "396 -> (1,1,1), 1 -> (0,0,1), recomposition identity over [0, 1080)")


def test_c05_codec_roundtrip_thousand_records():
    t0 = time.time()
    rng = np.random.default_rng(20240501)
    n_ok = 0
    for _ in range(1000):
        rec = random_record(rng)
        seq = encode_patient(rec)
        validate_sequence(seq.tokens)  # grammar acceptance of encoder output
        if decode_sequence(seq, anchor=rec.visits[0].start_date) == rec:
            n_ok += 1
    elapsed = time.time() - t0
    verdict("C05", n_ok == 1000 and elapsed < 10,
            f"{n_ok}/1000 exact round trips, 1000/1000 validator-accepted, {elapsed:.1f}s")


def test_c06_overfit_oracle():
    t0 = time.time()
    world = WorldConfig(start_year_range=(1990, 2021), age_range=(40, 60), visits_range=(3, 5),
                        events_per_visit_range=(1, 3))
    records = sample_hospital_records(32, seed=11, cfg=world)
    corpus = prepare_corpus(records, context_window=128, eval_fraction=0.1, seed=0)
    examples = corpus.train + corpus.eval  # memorization target: the whole corpus
    mcfg = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=48, n_layers=2, n_heads=4,
                       context_window=128)
    model = TimelineModel.initialize(mcfg, corpus.vocab, seed=0)
    tcfg = TrainConfig(learning_rate=1e-3, warmup_steps=100, max_epochs=10**6, tokens_per_batch=512,
                       checkpoint_every_steps=0, early_stop_patience=10**9, seed=0, max_steps=2000)
    res = train(model, examples, examples, tcfg, stop_when=lambda ev: ev["ntp"] < 0.1)
    final_ntp = [r for r in res.history if r["eval_loss"] != ""][-1]["ntp"]
    elapsed = time.time() - t0
    verdict("C06", final_ntp < 0.1 and res.steps <= 2000 and elapsed < 300,
            f"eval NTP {final_ntp:.4f} after {res.steps} steps, {elapsed:.0f}s")


def test_c07_zeroshot_estimator_vs_enumeration():
    t0 = time.time()
    row = {"D30": 0.45, "c:100": 0.2, "c:200": 0.25, "[END]": 0.1}
    model = MarkovModel({"default": row},
                        extra_tokens=("year:2000", "age:50", "gender:8532", "race:8527",
                                      "v:9202", "c:300"))
    last_tokens = ["v:9202", "c:200", "D30", "c:300"]
    windows = [(0, 30), (0, 60), (0, 90), (0, 120), (30, 90)]
    n_pass = n_total = 0
    for i in range(100):
        last = last_tokens[i % len(last_tokens)]
        ws, we = windows[(i // len(last_tokens)) % len(windows)]
        prefix = ("year:2000", "age:50", "gender:8532", "race:8527", last)
        task = TaskConfig(task_name="c7", outcome_events=(100,), prediction_window_start=ws,
                          prediction_window_end=we, max_new_tokens=8, n_simulations=50)
        p_pos, p_neg, _ = enumerate_outcome_probability(model, last, {100}, ws, we, 8)
        exact = p_pos / (p_pos + p_neg)
        est = simulate_probability(model, prefix, task, np.random.default_rng(i))
        sigma = np.sqrt(exact * (1 - exact) / 50)
        n_total += 1
        if abs(est.probability - exact) <= 3 * sigma + 1e-12:
            n_pass += 1
    elapsed = time.time() - t0
    verdict("C07", n_pass >= 95 and elapsed < 300,
            f"{n_pass}/100 prompts within 3 binomial sigmas of the enumerated probability, {elapsed:.0f}s")


def test_c08_sampler_limits():
    rng = np.random.default_rng(0)
    greedy_ok = 0
    for _ in range(100):
        logits = rng.normal(scale=3.0, size=40)
        probs = apply_decoding_controls(logits, [], SamplingConfig(temperature=1e-9))
        if sample_token_id(probs, np.random.default_rng(1)) == int(logits.argmax()):
            greedy_ok += 1

    model = MarkovModel({"default": {"c:1": 0.5, "c:2": 0.3, "[END]": 0.2}})
    logits = model.logits_after(model.vocab.id_of("c:1"))
    probs = apply_decoding_controls(logits, [], SamplingConfig())
    draw_rng = np.random.default_rng(777)
    counts = np.zeros(len(probs))
    for _ in range(10_000):
        counts[sample_token_id(probs, draw_rng)] += 1
    keep = probs > 0
    chi2 = float((((counts - probs * 10_000) ** 2)[keep] / (probs * 10_000)[keep]).sum())
    p_value = chi2_sf_even(chi2, dof=2)

    pen_rng = np.random.default_rng(5)
    penalty_ok = True
    for _ in range(100):
        logits = pen_rng.normal(scale=2.0, size=12)
        t = int(pen_rng.integers(0, 12))
        p1 = apply_decoding_controls(logits, [t], SamplingConfig(repetition_penalty=1.0))
        p2 = apply_decoding_controls(logits, [t], SamplingConfig(repetition_penalty=2.0))
        if not p2[t] < p1[t]:
            penalty_ok = False
    verdict("C08", greedy_ok == 100 and p_value > 0.01 and penalty_ok,
            f"greedy limit {greedy_ok}/100, chi-square p={p_value:.3f} at 10k draws, penalty strictly reduces")


def test_c09_metric_oracles():
    hand = auroc([0.9, 0.8, 0.7, 0.6, 0.5, 0.4], [1, 1, 0, 1, 0, 0])
    ok = abs(hand - 8 / 9) < 1e-12
    rng = np.random.default_rng(99)
    checked = 0
    for n in (3, 7, 20, 61, 128, 200):
        for _ in range(5):
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if abs(auroc(scores, labels) - auroc_bruteforce(scores, labels)) > 1e-12:
                ok = False
            if abs(auprc(scores, labels) - auprc_bruteforce(scores, labels)) > 1e-12:
                ok = False
            checked += 1
    verdict("C09", ok, f"hand case 8/9 exact; {checked} random instances match both O(n^2) oracles")


def test_c10_privacy_properties():
    t0 = time.time()
    p = np.clip(np.random.default_rng(99).random(48) * 0.6 + 0.2, 0.2, 0.8)

    def draw(seed, n=1000):
        return (np.random.default_rng(seed).random((n, 48)) < p).astype(np.uint8)

    train_p, eval_p, synth_p = draw(1), draw(2), draw(3)
    keys, sens = np.arange(24), np.arange(24, 48)
    targets = np.concatenate([train_p[:500], eval_p[:500]])
    truth = np.concatenate([np.ones(500, bool), np.zeros(500, bool)])

    independent = {
        "nnaa": nnaa_risk(train_p, eval_p, synth_p, seed=0).score,
        "membership": membership_inference(targets, truth, synth_p).score,
        "attribute": attribute_inference(targets, synth_p, keys, sens).score,
    }
    copied = {
        "nnaa": nnaa_risk(train_p, eval_p, train_p.copy(), seed=0).score,
        "membership": membership_inference(targets, truth, train_p.copy()).score,
        "attribute": attribute_inference(train_p, train_p.copy(), keys, sens).score,
    }
    elapsed = time.time() - t0
    ok_indep = abs(independent["nnaa"]) < 0.05 and independent["membership"] < 0.05 and independent["attribute"] < 0.05
    ok_copy = all(v > RISK_THRESHOLD for v in copied.values())
    verdict(
        "C10",
        ok_indep and ok_copy and elapsed < 60,
        f"independent {dict((k, round(v, 4)) for k, v in independent.items())} all <0.05; "
        f"copy-of-train {dict((k, round(v, 4)) for k, v in copied.items())} all >{RISK_THRESHOLD}; {elapsed:.0f}s",
    )


def test_c11_pipeline_integration(tmp_path):
    t0 = time.time()
    records = sample_hospital_records(500, seed=42)
    corpus = prepare_corpus(records, context_window=256, eval_fraction=0.1, seed=0)
    mcfg = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=48, n_layers=2, n_heads=4,
                       context_window=256)
    model = TimelineModel.initialize(mcfg, corpus.vocab, seed=0)
    tcfg = TrainConfig(learning_rate=2e-3, warmup_steps=150, max_epochs=80, tokens_per_batch=2048,
                       checkpoint_every_steps=0, early_stop_patience=5, seed=0)
    train(model, corpus.train, corpus.eval, tcfg, out_dir=tmp_path)
    from chronoseq.model import load_checkpoint

    best, _, _ = load_checkpoint(tmp_path / "best.ckpt")  # generation uses the best-eval checkpoint

    prompts = [(f"year:{y}", f"age:{a}", f"gender:{g}", f"race:{r}")
               for y, a, g, r in demographics_of(records)]
    experts = [
        SamplingConfig(temperature=0.6, top_p=0.95, max_tokens=200, min_tokens=20, seed=1),
        SamplingConfig(temperature=0.75, top_k=60, max_tokens=200, min_tokens=20, seed=2),
    ]
    pool = generate_pool(best, experts, [80, 80], prompts)
    tables, report = convert_to_tables(pool)
    frac = report.succeeded / max(report.attempted, 1)
    fractions_sum = sum(report.fractions().values())

    stats_syn = summary_stats(tables)
    real_tables = records_to_tables(records)
    stats_real = summary_stats(real_tables)
    rows = prevalence_report(real_tables, tables)
    elapsed = time.time() - t0
    verdict(
        "C11",
        frac >= 0.9 and abs(fractions_sum - 1.0) < 1e-9 and len(rows) > 0 and stats_syn.n_persons > 0
        and elapsed < 1800,
        f"conversion {report.succeeded}/{report.attempted} = {frac:.3f} (>=0.90), report fractions sum "
        f"{fractions_sum:.6f}, prevalence rows {len(rows)}, median ages real/syn "
        f"{stats_real.age_median:.0f}/{stats_syn.age_median:.0f}, {elapsed:.0f}s",
    )


def test_c12_pathway_fixture():
    import datetime as dt

    from chronoseq.codec import ClinicalEvent, PatientRecord, Visit

    def outpatient(day, events):
        return Visit(9202, day, day, None, tuple(events))

    def person(pid, first_event_offset, offsets, anchor=dt.date(2000, 1, 1)):
        visits = [outpatient(anchor, [ClinicalEvent(anchor, "condition", 9)])]
        start = anchor + dt.timedelta(days=first_event_offset)
        for off in offsets:
            day = start + dt.timedelta(days=off)
            visits.append(outpatient(day, [ClinicalEvent(day, "drug", 555)]))
        visits.sort(key=lambda v: v.start_date)
        return PatientRecord(pid, 1950, 8532, 8527, tuple(visits))

    persons = [
        person("in1", 400, [0, 100, 220, 340, 460, 580, 700, 820, 940, 1060]),
        person("in2", 365, [0, 120, 240, 360, 480, 600, 720, 840, 960]),
        person("ex_gap", 400, [0, 100, 220, 340, 460, 720, 840, 960, 1060]),
        person("ex_lookback", 100, [0, 100, 220, 340, 460, 580, 700, 820, 940, 1060]),
        person("ex_tail", 400, [0, 120, 240, 360, 480, 600, 720, 840, 1080]),
        person("ex_skip1", 400, [0, 119, 240, 360, 480, 600, 720, 840, 960, 1070]),
    ]
    spec = CohortSpec(name="pathway", index_concepts=frozenset({555}))
    tables = records_to_tables(persons)
    result = pathway_cohort(tables, spec)
    ok = sorted(result.cohort) == ["in1", "in2"] and result.cohort == pathway_cohort_reference(tables, spec)
    verdict("C12", ok, f"cohort={sorted(result.cohort)} (expected ['in1', 'in2'], as the per-record reference)")
