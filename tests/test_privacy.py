import numpy as np
import pytest

from chronoseq.codec import records_to_tables
from chronoseq.privacy import (
    RISK_THRESHOLD,
    NnaaResult,
    ProfileSpec,
    attribute_inference,
    audit_tables,
    build_profiles,
    default_attribute_split,
    identity_disclosure,
    membership_inference,
    nnaa_risk,
    run_privacy_suite,
)
from chronoseq.synthworld import sample_hospital_records
from helpers import build_profiles_reference, concept_person_counts, profile_spec_reference


def sample_profiles(rng, n, dim=48, p=None):
    """Independent draws from a fixed product-Bernoulli population."""
    if p is None:
        p = np.clip(np.random.default_rng(99).random(dim) * 0.6 + 0.2, 0.2, 0.8)
    return (rng.random((n, dim)) < p).astype(np.uint8), p


@pytest.fixture(scope="module")
def independent_sets():
    base = np.random.default_rng(0)
    p = np.clip(np.random.default_rng(99).random(48) * 0.6 + 0.2, 0.2, 0.8)
    train, _ = sample_profiles(np.random.default_rng(1), 600, p=p)
    eval_, _ = sample_profiles(np.random.default_rng(2), 600, p=p)
    synth, _ = sample_profiles(np.random.default_rng(3), 600, p=p)
    return train, eval_, synth


def test_profiles_from_tables_fixed_dimension_and_determinism():
    records = sample_hospital_records(50, seed=5)
    tables = records_to_tables(records)
    spec = ProfileSpec.from_tables(tables, top_k_concepts=20)
    m1 = build_profiles(tables, spec)
    m2 = build_profiles(tables, spec)
    assert m1.shape == (50, spec.dimension)
    np.testing.assert_array_equal(m1, m2)
    assert set(np.unique(m1)) <= {0, 1}


def test_nnaa_independent_near_zero(independent_sets):
    train, eval_, synth = independent_sets
    res = nnaa_risk(train, eval_, synth, seed=0)
    assert abs(res.score) < 0.05


def test_nnaa_copy_of_train_strongly_positive(independent_sets):
    train, eval_, _ = independent_sets
    res = nnaa_risk(train, eval_, train.copy(), seed=0)
    assert res.score > RISK_THRESHOLD
    assert res.aa_train_synth < 0.05  # train-side adversarial accuracy collapses


def test_nnaa_symmetry_check(independent_sets):
    train, eval_, _ = independent_sets
    # synthetic drawn evenly from both sides -> the two AAs nearly cancel
    synth = np.concatenate([train[:300], eval_[:300]])
    res = nnaa_risk(train, eval_, synth, seed=1)
    assert abs(res.score) < 0.05


def test_nnaa_order_invariance_and_small_n(independent_sets):
    train, eval_, synth = independent_sets
    r1 = nnaa_risk(train, eval_, synth, seed=7)
    rng = np.random.default_rng(0)
    r2 = nnaa_risk(train[rng.permutation(len(train))], eval_[rng.permutation(len(eval_))],
                   synth[rng.permutation(len(synth))], seed=7)
    assert r1 == r2
    with pytest.raises(ValueError):
        nnaa_risk(train[:5], eval_, synth)


def test_membership_independent_near_zero(independent_sets):
    train, eval_, synth = independent_sets
    targets = np.concatenate([train[:300], eval_[:300]])
    truth = np.concatenate([np.ones(300, bool), np.zeros(300, bool)])
    res = membership_inference(targets, truth, synth)
    assert res.score < 0.05


def test_membership_copy_of_train_near_max(independent_sets):
    train, eval_, _ = independent_sets
    targets = np.concatenate([train[:300], eval_[:300]])
    truth = np.concatenate([np.ones(300, bool), np.zeros(300, bool)])
    res = membership_inference(targets, truth, train.copy())
    assert res.score > RISK_THRESHOLD
    assert res.best_f1 > 0.99
    assert res.baseline_f1 == pytest.approx(2 / 3)


def test_attribute_independent_near_zero(independent_sets):
    train, eval_, synth = independent_sets
    keys = np.arange(24)
    sens = np.arange(24, 48)
    res = attribute_inference(np.concatenate([train, eval_]), synth, keys, sens)
    assert res.score < 0.05


def test_attribute_copy_recovers_sensitive_bits():
    rng = np.random.default_rng(10)
    # keys are unique per record; sensitive bits near-balanced
    n = 400
    keys_bits = rng.random((n, 16)) < 0.5
    while len(np.unique(keys_bits, axis=0)) < n:  # ensure unique keys
        keys_bits = rng.random((n, 16)) < 0.5
    sens_bits = rng.random((n, 16)) < 0.5
    data = np.concatenate([keys_bits, sens_bits], axis=1).astype(np.uint8)
    res = attribute_inference(data, data.copy(), np.arange(16), np.arange(16, 32))
    assert res.score > RISK_THRESHOLD


def test_attribute_rejects_overlap(independent_sets):
    train, eval_, synth = independent_sets
    with pytest.raises(ValueError):
        attribute_inference(train, synth, np.arange(10), np.arange(5, 15))


def test_identity_disclosure_rules():
    rng = np.random.default_rng(2)
    pop = (rng.random((300, 32)) < 0.5).astype(np.uint8)
    qi = np.arange(10)
    # every QI group duplicated -> no unique groups -> score 0
    doubled = np.concatenate([pop, pop])
    res = identity_disclosure(doubled, pop, qi, match_tolerance=0.5)
    assert res.score == 0.0
    # synthetic = population with unique QIs -> score -> 1
    unique_pop = np.unique(pop, axis=0)
    qi_full = np.arange(32)
    res2 = identity_disclosure(unique_pop, unique_pop.copy(), qi_full, match_tolerance=0.9)
    assert res2.score == pytest.approx(1.0)


def test_monotone_under_more_copying(independent_sets):
    train, eval_, synth = independent_sets
    scores = []
    for k in (0, 200, 400, 600):
        mixed = np.concatenate([train[:k], synth[k:]])
        res = nnaa_risk(train, eval_, mixed, seed=3)
        scores.append(res.score)
    assert all(b >= a - 0.02 for a, b in zip(scores, scores[1:]))  # rises with memorization
    assert scores[-1] > scores[0] + 0.2


def test_suite_threshold_rule(independent_sets):
    train, eval_, synth = independent_sets
    keys = np.arange(24)
    sens = np.arange(24, 48)
    qi = np.arange(12)
    good = run_privacy_suite(train, eval_, synth, keys, sens, qi, seed=0)
    assert good.passed
    bad = run_privacy_suite(train, eval_, train.copy(), keys, sens, qi, seed=0)
    assert not bad.passed
    assert all(s < RISK_THRESHOLD for _, s in good.rows())


def test_audit_tables_end_to_end():
    train_t = records_to_tables(sample_hospital_records(120, seed=1))
    eval_t = records_to_tables(sample_hospital_records(120, seed=2))
    synth_t = records_to_tables(sample_hospital_records(120, seed=3))
    res = audit_tables(train_t, eval_t, synth_t, top_k_concepts=24, seed=0)
    assert res.passed  # three independent draws from one generator
    res_copy = audit_tables(train_t, eval_t, train_t, top_k_concepts=24, seed=0)
    assert res_copy.nnaa.score > RISK_THRESHOLD


def _top_k_with_a_tie(tables):
    """A k whose cut falls inside a tie: concepts k-1 and k (ranked) have equal person counts."""
    counts = sorted(concept_person_counts(tables).values(), reverse=True)
    return next(k for k in range(1, len(counts)) if counts[k - 1] == counts[k])


@pytest.mark.parametrize("n,seed", [(40, 1), (120, 2), (300, 3)])
def test_profiles_match_the_per_row_reference(n, seed):
    from dataclasses import replace

    records = sample_hospital_records(n, seed=seed)
    records[1] = replace(records[1], visits=tuple(replace(v, events=()) for v in records[1].visits))
    train = records_to_tables(records)
    others = [train, records_to_tables(sample_hospital_records(n // 2 + 3, seed=seed + 50))]
    for k in (_top_k_with_a_tie(train), 5, 64):
        spec = ProfileSpec.from_tables(train, top_k_concepts=k)
        assert spec == profile_spec_reference(train, k), k
        for tables in others:
            assert np.array_equal(build_profiles(tables, spec), build_profiles_reference(tables, spec)), k
    assert not build_profiles(train, spec)[1, -len(spec.concepts):].any()  # visits but no events


def test_spec_and_profiles_skip_the_events_tables_to_records_drops():
    from dataclasses import replace

    from chronoseq.codec import EventRow, VisitRow

    tables = records_to_tables(sample_hospital_records(60, seed=7))
    clean_spec = ProfileSpec.from_tables(tables, top_k_concepts=8)
    clean_profiles = build_profiles(tables, clean_spec)
    last = clean_spec.concepts[-1]
    d = tables.visits[0].start_date
    p0, v1 = tables.persons[0].person_id, tables.visits[-1]
    ghosts = range(40)  # persons missing from the persons table, each with the spec's last concept
    tables = replace(
        tables,
        visits=tables.visits + tuple(VisitRow(f"vg{k}", f"ghost{k}", 9202, d, d, None) for k in ghosts),
        events=tables.events + tuple(EventRow(f"ghost{k}", f"vg{k}", last[0], last[1], d) for k in ghosts) + (
            EventRow(p0, v1.visit_id, last[0], last[1], d),  # filed under another person's visit
            EventRow(p0, "v-missing", last[0], last[1], d),  # a visit that does not exist
            EventRow(p0, tables.visits[0].visit_id, last[0], 0, d),  # an unknown concept
        ),
    )
    assert v1.person_id != p0
    spec = ProfileSpec.from_tables(tables, top_k_concepts=8)
    assert spec == clean_spec  # the ghosts would rank `last` first
    assert spec == profile_spec_reference(tables, 8)
    assert np.array_equal(build_profiles(tables, spec), clean_profiles)
    assert np.array_equal(build_profiles(tables, spec), build_profiles_reference(tables, spec))


def test_default_attribute_split_disjoint():
    records = sample_hospital_records(30, seed=9)
    spec = ProfileSpec.from_tables(records_to_tables(records), top_k_concepts=16)
    keys, sens, qi = default_attribute_split(spec)
    assert set(keys) & set(sens) == set()
    assert set(qi) <= set(keys)
    assert len(sens) > 0


# -- streamed exact distances ------------------------------------------------


def _dense_hamming_cross(a, b):
    """The dense float64 (len(a), len(b)) distances the attacks computed before streaming."""
    return a @ (1.0 - b).T + (1.0 - a) @ b.T


def _dense_min_offdiag(d):
    d = d.copy()
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def _dense_nearest(a, b, self_pairs=False):
    """The dense path behind the streamed helper's interface; the attacks read
    only the row minima of a self_pairs call."""
    d = _dense_hamming_cross(a, b)
    row_min = _dense_min_offdiag(d) if self_pairs else d.min(axis=1)
    return row_min, d.min(axis=0), d.argmin(axis=1)


def _dense_adversarial_accuracy(a, b):
    d = _dense_hamming_cross(a, b)
    term_a = (d.min(axis=1) > _dense_min_offdiag(_dense_hamming_cross(a, a))).mean()
    term_b = (d.min(axis=0) > _dense_min_offdiag(_dense_hamming_cross(b, b))).mean()
    return 0.5 * float(term_a + term_b)


def _distance_attacks(train, eval_, synth):
    targets = np.concatenate([train, eval_])
    truth = np.concatenate([np.ones(len(train), bool), np.zeros(len(eval_), bool)])
    results = [
        membership_inference(targets, truth, synth),
        attribute_inference(targets, synth, np.arange(30), np.arange(30, 53)),
    ]
    if min(len(train), len(eval_), len(synth)) >= 10:
        results.append(nnaa_risk(train, eval_, synth, seed=4))
    return results


def test_streamed_distances_match_dense_bit_for_bit(monkeypatch):
    from chronoseq.privacy import attacks

    rng = np.random.default_rng(21)
    sizes = (1, 255, 257, 600)  # below, off and across the row-block size
    assert attacks._CHUNK == 256
    for i, (n, dim) in enumerate([(n, 53) for n in sizes] + [(257, 300)]):
        p = rng.random(dim) * 0.6 + 0.2
        train, eval_ = (sample_profiles(rng, n, dim=dim, p=p)[0] for _ in range(2))
        train[0], eval_[-1] = 0, 1  # an all-zero and an all-one row
        synthetic = {
            "independent": sample_profiles(rng, sizes[(i + 1) % 4], dim=dim, p=p)[0],
            "copy": train.copy(),
            "duplicated rows": np.repeat(train[: (n + 1) // 2], 2, axis=0)[:n],  # forces argmin ties
            "all zero": np.zeros((n, dim), dtype=np.uint8),
            "all one": np.ones((n, dim), dtype=np.uint8),
        }
        for flip in (0.01, 0.05, 0.2):
            synthetic[f"flipped {flip}"] = train ^ (rng.random(train.shape) < flip).astype(np.uint8)
        for name, synth in synthetic.items():
            a, b = np.concatenate([train, eval_]).astype(np.float64), synth.astype(np.float64)
            row_min, col_min, row_arg = attacks._nearest(a, b)
            d = _dense_hamming_cross(a, b)
            assert np.array_equal(row_min, d.min(axis=1)), (n, name)
            assert np.array_equal(col_min, d.min(axis=0)), (n, name)
            assert np.array_equal(row_arg, d.argmin(axis=1)), (n, name)
            for m in (a, b):
                assert np.array_equal(attacks._nearest(m, m, self_pairs=True)[0],
                                      _dense_min_offdiag(_dense_hamming_cross(m, m))), (n, name)
            streamed = _distance_attacks(train, eval_, synth)
            with monkeypatch.context() as mp:
                mp.setattr(attacks, "_nearest", _dense_nearest)
                dense = _distance_attacks(train, eval_, synth)
            assert streamed == dense, (n, name)  # every field, exactly
            if n >= 10 and len(synth) == n:  # NNAA then keeps whole sets, in an order AA ignores
                t, e, s = (m.astype(np.float64) for m in (train, eval_, synth))
                aa_es, aa_ts = _dense_adversarial_accuracy(e, s), _dense_adversarial_accuracy(t, s)
                assert streamed[2] == NnaaResult(aa_es - aa_ts, aa_es, aa_ts, n), (n, name)


def test_privacy_suite_memory_is_bounded():
    import tracemalloc

    rng = np.random.default_rng(5)
    p = rng.random(53) * 0.6 + 0.2
    train, eval_, synth = (sample_profiles(rng, 2000, dim=53, p=p)[0] for _ in range(3))
    tracemalloc.start()
    try:
        run_privacy_suite(train, eval_, synth, np.arange(30), np.arange(30, 53), np.arange(4), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"  # half of one dense 2000 x 2000 float64 matrix


def _with_entry(m, value):
    m = m.astype(np.float64)
    m[3, 7] = value
    return m


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
def test_nnaa_rejects_non_binary_profiles(independent_sets, value):
    train, eval_, synth = independent_sets
    with pytest.raises(ValueError, match="eval_: profiles must hold only 0 and 1"):
        nnaa_risk(train, _with_entry(eval_, value), synth)


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
def test_membership_rejects_non_binary_profiles(independent_sets, value):
    train, _, synth = independent_sets
    truth = np.ones(len(train), bool)
    with pytest.raises(ValueError, match="synthetic: profiles must hold only 0 and 1"):
        membership_inference(train, truth, _with_entry(synth, value))
    with pytest.raises(ValueError, match="targets: profiles must hold only 0 and 1"):
        membership_inference(_with_entry(train, value), truth, synth)


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
def test_attribute_rejects_non_binary_profiles(independent_sets, value):
    train, _, synth = independent_sets
    with pytest.raises(ValueError, match="targets: profiles must hold only 0 and 1"):
        attribute_inference(_with_entry(train, value), synth, np.arange(24), np.arange(24, 48))


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
def test_identity_rejects_non_binary_profiles(independent_sets, value):
    train, _, synth = independent_sets
    with pytest.raises(ValueError, match="population: profiles must hold only 0 and 1"):
        identity_disclosure(_with_entry(train, value), synth, np.arange(12))



def test_each_derived_product_is_computed_once_per_table_set(monkeypatch):
    """One ingestion per table set; the spec once per (set, k); profiles once per (set, spec)."""
    from chronoseq.codec import records as records_module
    from chronoseq.evalharness import CohortSpec, pathway_cohort, prevalence_report
    from chronoseq.generation import summary_stats
    from chronoseq.privacy import profiles as profiles_module

    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def counted(tables, *args):
            calls.append((name, id(tables), *args))
            return fn(tables, *args)

        monkeypatch.setattr(module, name, counted)

    counting(records_module, "_ingest")
    counting(profiles_module, "_ranked_spec")
    counting(profiles_module, "_profiles")
    train, eval_, syn, syn2 = (records_to_tables(sample_hospital_records(n, seed=s))
                               for n, s in ((60, 1), (50, 2), (40, 3), (45, 4)))
    first = [audit_tables(train, eval_, syn, seed=0), prevalence_report(train, syn), summary_stats(syn),
             pathway_cohort(syn, CohortSpec("p", frozenset({1125315})))]
    spec = ProfileSpec.from_tables(train)
    expected = {("_ingest", id(t)) for t in (train, eval_, syn)} | {("_ranked_spec", id(train), 64)} | {
        ("_profiles", id(t), spec) for t in (train, eval_, syn)}
    assert sorted(calls, key=repr) == sorted(expected, key=repr)
    again = [audit_tables(train, eval_, syn, seed=0), prevalence_report(train, syn), summary_stats(syn),
             pathway_cohort(syn, CohortSpec("p", frozenset({1125315})))]
    assert again == first
    assert len(calls) == len(expected)  # nothing recomputed
    audit_tables(train, eval_, syn2, seed=0)
    assert sorted(calls[len(expected):], key=repr) == sorted([("_ingest", id(syn2)), ("_profiles", id(syn2), spec)],
                                                            key=repr)
    assert not build_profiles(train, spec).flags.writeable
    with pytest.raises(ValueError):
        build_profiles(train, spec)[0, 0] = 1
