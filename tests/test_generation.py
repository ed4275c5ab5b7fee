import numpy as np
import pytest

from chronoseq.codec import TokenSequence, encode_patient, records_to_tables
from chronoseq.generation import (
    SamplingConfig,
    convert_to_tables,
    generate_pool,
    sample_sequence,
    summary_stats,
)
from chronoseq.generation import sampling
from chronoseq.model import ModelConfig, TimelineModel
from chronoseq.synthworld import WorldConfig, demographics_of, sample_hospital_records
from chronoseq.training import TrainConfig, prepare_corpus, train


@pytest.fixture(scope="module")
def tiny_trained_model():
    """A briefly trained model: enough structure to emit [END] occasionally."""
    records = sample_hospital_records(24, seed=3, cfg=WorldConfig(visits_range=(2, 3)))
    corpus = prepare_corpus(records, context_window=128, eval_fraction=0.2, seed=0)
    cfg = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=128)
    model = TimelineModel.initialize(cfg, corpus.vocab, seed=0)
    tcfg = TrainConfig(max_epochs=3, tokens_per_batch=512, warmup_steps=10,
                       checkpoint_every_steps=0, early_stop_patience=10**9, seed=0)
    train(model, corpus.train, corpus.eval, tcfg)
    return model, records


def test_sample_sequence_stops_and_flags(tiny_trained_model, monkeypatch):
    model, records = tiny_trained_model
    prompt = next(
        encode_patient(r).tokens[:4]
        for r in records
        if all(t in model.vocab for t in encode_patient(r).tokens[:4])
    )
    cfg = SamplingConfig(max_tokens=30, min_tokens=0, seed=0)
    contexts = []
    controls = sampling.apply_decoding_controls
    monkeypatch.setattr(sampling, "apply_decoding_controls",
                        lambda logits, ids, c: contexts.append(list(ids)) or controls(logits, ids, c))
    seq = sample_sequence(model, prompt, cfg, np.random.default_rng(0))
    assert seq.tokens[:4] == prompt
    assert (seq.tokens[-1] == "[END]") != seq.hit_max_tokens
    assert len(seq.tokens) <= 30
    ids = [model.vocab.id_of(t) for t in seq.tokens]
    assert contexts == [ids[:n] for n in range(4, len(ids))]  # each step's controls read every id before it


def test_sample_sequence_validates_prompt(tiny_trained_model):
    model, _ = tiny_trained_model
    with pytest.raises(ValueError):
        sample_sequence(model, ("c:1", "c:2", "c:3", "c:4"), SamplingConfig(), np.random.default_rng(0))


def test_generate_pool_provenance_counts_and_filter(tiny_trained_model):
    model, records = tiny_trained_model
    prompts = [(f"year:{y}", f"age:{a}", f"gender:{g}", f"race:{r}") for y, a, g, r in demographics_of(records)]
    experts = [
        SamplingConfig(temperature=0.9, max_tokens=60, min_tokens=20, seed=11),
        SamplingConfig(temperature=1.2, max_tokens=60, min_tokens=20, seed=22),
    ]
    pool = generate_pool(model, experts, [5, 3], prompts)
    assert [r.requested for r in pool.per_expert] == [5, 3]
    assert [r.generated for r in pool.per_expert] == [5, 3]
    assert len(pool) == sum(r.kept for r in pool.per_expert) <= 8
    assert all(len(s.tokens) >= 20 for s in pool.sequences)
    assert all(r.kept + r.dropped_short == r.generated for r in pool.per_expert)
    # provenance aligns with sequences, in (expert, index) order
    assert [(p.expert, p.index) for p in pool.provenance] == sorted((p.expert, p.index) for p in pool.provenance)
    assert len(pool.provenance) == len(pool.sequences)


def test_generate_pool_reproducible_and_independent_of_pool_size(tiny_trained_model):
    model, records = tiny_trained_model
    prompts = [(f"year:{y}", f"age:{a}", f"gender:{g}", f"race:{r}") for y, a, g, r in demographics_of(records)]
    experts = [SamplingConfig(temperature=1.0, max_tokens=40, min_tokens=0, seed=7)]
    p1 = generate_pool(model, experts, [6], prompts)
    p2 = generate_pool(model, experts, [6], prompts)
    p3 = generate_pool(model, experts, [3], prompts)
    six = [s.tokens for s in p1.sequences]
    assert len(six) == 6 and len(set(six)) > 1
    assert [s.tokens for s in p2.sequences] == six
    assert [s.tokens for s in p3.sequences] == six[:3]


def test_generate_pool_rejects_more_than_one_thread(tiny_trained_model):
    model, records = tiny_trained_model
    prompts = [(f"year:{y}", f"age:{a}", f"gender:{g}", f"race:{r}") for y, a, g, r in demographics_of(records)]
    with pytest.raises(ValueError, match="n_threads"):
        generate_pool(model, [SamplingConfig(seed=7)], [1], prompts, n_threads=2)


def test_convert_roundtrip_on_real_encodings():
    records = sample_hospital_records(30, seed=9)
    seqs = [encode_patient(r) for r in records]
    tables, report = convert_to_tables(seqs)
    assert report.attempted == 30 and report.succeeded == 30
    assert sum(report.fractions().values()) == pytest.approx(1.0)
    assert len(tables.persons) == 30


def test_convert_counts_failures_without_raising():
    good = encode_patient(sample_hospital_records(1, seed=1)[0])
    bad = TokenSequence(("year:2000", "age:10", "gender:1", "race:2", "[VS]", "[VE]", "[END]"))
    tables, report = convert_to_tables([good, bad])
    assert report.attempted == 2 and report.succeeded == 1
    assert report.failures == {"expected_visit_type": 1}
    assert sum(report.fractions().values()) == pytest.approx(1.0)


def test_convert_lenient_for_flagged_sequences():
    rec = sample_hospital_records(1, seed=2)[0]
    tokens = encode_patient(rec).tokens
    cut = tokens[: len(tokens) - 2]  # drop [END] and the tail
    flagged = TokenSequence(cut, hit_max_tokens=True)
    strict = TokenSequence(cut, hit_max_tokens=False)
    _, rep_flagged = convert_to_tables([flagged])
    _, rep_strict = convert_to_tables([strict])
    assert rep_flagged.succeeded == 1
    assert rep_strict.succeeded == 0


def test_summary_stats_fields_and_invariance():
    records = sample_hospital_records(60, seed=13)
    tables = records_to_tables(records)
    stats = summary_stats(tables)
    assert stats.n_persons == 60
    assert 0.0 <= stats.female_fraction <= 1.0
    assert stats.visit_q1 <= stats.visit_q2 <= stats.visit_q3
    assert stats.token_q1 <= stats.token_q2 <= stats.token_q3

    relabeled = records_to_tables(
        [type(r)(f"z{i}", r.birth_year, r.gender_concept, r.race_concept, r.visits) for i, r in enumerate(records)]
    )
    stats2 = summary_stats(relabeled)
    assert stats2 == type(stats2)(**{**stats.__dict__})


def test_summary_stats_single_person_quartiles():
    records = sample_hospital_records(1, seed=4, cfg=WorldConfig(visits_range=(3, 3)))
    stats = summary_stats(records_to_tables(records))
    assert stats.visit_q1 == stats.visit_q2 == stats.visit_q3 == 3.0


def test_summary_stats_names_a_person_without_visits():
    from chronoseq.codec import PersonRow, RecordValidationError

    tables = records_to_tables(sample_hospital_records(3, seed=4))
    tables.persons.append(PersonRow("lonely", 1950, 8532, 8527))
    with pytest.raises(RecordValidationError, match="person lonely: no visits"):
        summary_stats(tables)


def test_summary_stats_gender_fraction():
    from chronoseq.codec import PatientRecord, Visit
    import datetime as dt

    d = dt.date(2000, 1, 1)
    recs = [
        PatientRecord(f"p{i}", 1950, 8532 if i % 2 == 0 else 8507, 8527,
                      (Visit(9202, d, d, None, ()),))
        for i in range(10)
    ]
    stats = summary_stats(records_to_tables(recs))
    assert stats.female_fraction == pytest.approx(0.5)
