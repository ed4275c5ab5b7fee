import numpy as np
import pytest

from chronoseq.codec import records_to_tables
from chronoseq.privacy import (
    RISK_THRESHOLD,
    PrivacyReference,
    ProfileSpec,
    attribute_inference,
    audit_tables,
    build_profiles,
    default_attribute_split,
    membership_inference,
    nnaa_risk,
)
from chronoseq.synthworld import sample_hospital_records
from helpers import (
    attribute_dense,
    build_profiles_reference,
    concept_person_counts,
    hamming_dense,
    identity_dense,
    membership_dense,
    nnaa_dense,
    privacy_suite_dense,
    profile_spec_reference,
    self_minima_dense,
)


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


@pytest.mark.parametrize("split,field", [
    ((np.array([0, 999]), np.arange(30, 53), np.arange(4)), "key_attrs: column 999 is outside the 53-bit profile"),
    ((np.arange(30), np.arange(30, 53), np.array([500])), "quasi_identifiers: column 500 is outside the 53-bit"),
    ((np.array([0, 1, 2, 3, -1]), np.array([52]), np.arange(4)), "key_attrs: column -1 is outside the 53-bit"),
    ((np.arange(30), np.array([], dtype=np.int64), np.arange(4)), "sensitive_attrs: must name at least one"),
    ((np.arange(30), np.arange(29, 53), np.arange(4)), "key_attrs and sensitive_attrs must be disjoint"),
])
def test_reference_rejects_bad_attribute_indices(split, field):
    rng = np.random.default_rng(24)
    train, eval_ = (sample_profiles(rng, 40, dim=53)[0] for _ in range(2))
    with pytest.raises(ValueError, match=field):
        PrivacyReference(train, eval_, *split)
    if not field.startswith("quasi"):
        with pytest.raises(ValueError, match=field):
            attribute_inference(train, eval_, *split[:2])
    tables = [records_to_tables(sample_hospital_records(40, seed=s)) for s in (1, 2)]
    assert ProfileSpec.from_tables(tables[0]).dimension == 53
    with pytest.raises(ValueError, match=field):
        audit_tables(*tables, tables[0], key_attrs=split[0], sensitive_attrs=split[1], quasi_identifiers=split[2])


@pytest.mark.parametrize("tolerance", [7.5, -0.1, np.nan])
def test_audit_rejects_a_match_tolerance_outside_0_1(independent_sets, tolerance):
    train, eval_, synth = independent_sets
    reference = PrivacyReference(train, eval_, np.arange(24), np.arange(24, 48), np.arange(12))
    with pytest.raises(ValueError, match="match_tolerance: must lie in \\[0, 1\\]"):
        reference.audit(synth, 0, tolerance, None)
    assert reference.audit(synth, 0, 1.0, None).identity == identity_dense(train, synth, np.arange(12), 1.0)


@pytest.mark.parametrize("k", [0, -30])
def test_profile_spec_rejects_top_k_below_1(k):
    tables = records_to_tables(sample_hospital_records(40, seed=1))
    with pytest.raises(ValueError, match=f"top_k_concepts: must be at least 1, got {k}"):
        ProfileSpec.from_tables(tables, top_k_concepts=k)
    assert len(ProfileSpec.from_tables(tables, top_k_concepts=1).concepts) == 1


def _identity(population, synthetic, quasi_identifiers, match_tolerance):
    """The suite's identity result with `population` as train (and as eval)."""
    half = population.shape[1] // 2
    reference = PrivacyReference(population, population, np.arange(half), np.arange(half, 2 * half), quasi_identifiers)
    return reference.audit(synthetic, 0, match_tolerance, None).identity


def test_identity_disclosure_rules():
    rng = np.random.default_rng(2)
    pop = (rng.random((300, 32)) < 0.5).astype(np.uint8)
    qi = np.arange(10)
    # every QI group duplicated -> no unique groups -> score 0
    doubled = np.concatenate([pop, pop])
    res = _identity(doubled, pop, qi, match_tolerance=0.5)
    assert res.score == 0.0
    assert res == identity_dense(doubled, pop, qi, 0.5)
    # synthetic = population with unique QIs -> score -> 1
    unique_pop = np.unique(pop, axis=0)
    qi_full = np.arange(32)
    res2 = _identity(unique_pop, unique_pop.copy(), qi_full, match_tolerance=0.9)
    assert res2.score == pytest.approx(1.0)
    assert res2 == identity_dense(unique_pop, unique_pop, qi_full, 0.9)


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
    reference = PrivacyReference(train, eval_, keys, sens, qi)
    good = reference.audit(synth, 0, 0.8, None)
    assert good.passed
    bad = reference.audit(train.copy(), 0, 0.8, None)
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


def test_streamed_distances_match_dense_bit_for_bit():
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
        targets = np.concatenate([train, eval_])
        truth = np.repeat([True, False], n)
        left = attacks._augment(targets)
        for name, synth in synthetic.items():
            d = hamming_dense(targets, synth)
            right = attacks._mirror(attacks._augment(synth))
            assert np.array_equal(attacks._minima(left, right), d.min(axis=1)), (n, name)
            assert np.array_equal(attacks._argmins(left, right), d.argmin(axis=1)), (n, name)
            for m in (targets, synth):
                if len(m) > 1:
                    assert np.array_equal(attacks._self_minima(attacks._augment(m)), self_minima_dense(m)), (n, name)
            # every result field, exactly, against the dense per-attack references
            assert membership_inference(targets, truth, synth) == membership_dense(targets, truth, synth), (n, name)
            assert attribute_inference(targets, synth, SPLIT["key_attrs"], SPLIT["sensitive_attrs"]) == \
                attribute_dense(targets, synth, SPLIT["key_attrs"], SPLIT["sensitive_attrs"]), (n, name)
            qi = SPLIT["quasi_identifiers"]  # the suite's identity code, below the NNAA size floor too
            assert attacks._identity_result(train, attacks._identity_groups(train, qi), qi, synth, 0.8) == \
                identity_dense(train, synth, qi, 0.8), (n, name)
            if min(n, len(synth)) >= 10:  # NNAA needs 10 rows per set
                assert nnaa_risk(train, eval_, synth, seed=4) == nnaa_dense(train, eval_, synth, 4, None), (n, name)
                got = PrivacyReference(train, eval_, **SPLIT).audit(synth, 4, 0.8, None)
                assert (got.nnaa, got.membership, got.attribute, got.identity) == privacy_suite_dense(
                    train, eval_, synth, **SPLIT, seed=4, match_tolerance=0.8, sample_size=None), (n, name)


def _oracle_cases():
    """(label, train, eval, synthetic, sample_size, match_tolerance) over the suite's edge cases."""
    rng = np.random.default_rng(22)
    # train rows 255, 257 and 600 put the [train; eval] boundary inside the first, second and third row block
    for n_train, n_eval in ((255, 255), (257, 300), (600, 255)):
        p = rng.random(53) * 0.6 + 0.2
        train, eval_ = (sample_profiles(rng, m, dim=53, p=p)[0] for m in (n_train, n_eval))
        train[0], eval_[-1] = 0, 1  # an all-zero and an all-one row
        synthetic = {
            "independent": sample_profiles(rng, n_train, dim=53, p=p)[0],
            "smaller than train": sample_profiles(rng, 90, dim=53, p=p)[0],
            "copy": train.copy(),
            "duplicated rows": np.repeat(train[: (n_train + 1) // 2], 2, axis=0)[:n_train],  # forces argmin ties
            "all zero": np.zeros((n_train, 53), dtype=np.uint8),
            "all one": np.ones((n_train, 53), dtype=np.uint8),
        }
        for flip in (0.01, 0.2):
            synthetic[f"flipped {flip}"] = train ^ (rng.random(train.shape) < flip).astype(np.uint8)
        for name, synth in synthetic.items():
            yield f"{n_train}/{n_eval} {name}", train, eval_, synth, None, 0.8
        for name in ("independent", "copy", "flipped 0.01"):  # a sample below every size; a lower tolerance
            yield f"{n_train}/{n_eval} {name} sampled", train, eval_, synthetic[name], 40, 0.5


SPLIT = dict(key_attrs=np.arange(30), sensitive_attrs=np.arange(30, 53), quasi_identifiers=np.arange(4))


def test_privacy_suite_and_each_attack_equal_the_dense_oracle():
    for label, train, eval_, synth, sample_size, tolerance in _oracle_cases():
        want = privacy_suite_dense(train, eval_, synth, **SPLIT, seed=4, match_tolerance=tolerance,
                                   sample_size=sample_size)
        got = PrivacyReference(train, eval_, **SPLIT).audit(synth, 4, tolerance, sample_size)
        assert (got.nnaa, got.membership, got.attribute, got.identity) == want, label  # every field, exactly
        k = min(len(train), len(eval_))
        alone = (
            nnaa_risk(train, eval_, synth, seed=4, sample_size=sample_size),
            membership_inference(np.concatenate([train[:k], eval_[:k]]),
                                 np.concatenate([np.ones(k, bool), np.zeros(k, bool)]), synth),
            attribute_inference(np.concatenate([train, eval_]), synth, SPLIT["key_attrs"], SPLIT["sensitive_attrs"]),
        )
        assert alone == want[:3], label


def test_audit_tables_equals_the_dense_oracle():
    train, eval_, synth = (records_to_tables(sample_hospital_records(n, seed=s))
                           for n, s in ((120, 1), (100, 2), (90, 3)))
    spec = ProfileSpec.from_tables(train, top_k_concepts=24)
    keys, sens, qi = default_attribute_split(spec)
    for synthetic in (synth, train):
        for sample_size in (None, 30):
            got = audit_tables(train, eval_, synthetic, top_k_concepts=24, seed=2, sample_size=sample_size)
            want = privacy_suite_dense(*(build_profiles(t, spec) for t in (train, eval_, synthetic)), keys, sens, qi,
                                       seed=2, match_tolerance=0.8, sample_size=sample_size)
            assert (got.nnaa, got.membership, got.attribute, got.identity) == want, (synthetic is train, sample_size)


def test_distance_pairs_count_the_distances_each_call_computes():
    rng = np.random.default_rng(23)
    train, eval_, synth = (sample_profiles(rng, n, dim=20)[0] for n in (30, 25, 40))
    fresh = PrivacyReference(train, eval_, np.arange(10), np.arange(10, 20), np.arange(3)).audit(synth, 1, 0.8, 12)
    # [train; eval] x synthetic on all columns and on the keys, the synthetic sample's and the reference's own pairs
    assert fresh.counters["distance_pairs"] == 2 * 55 * 40 + 12 * 12 + 2 * 12 * 12 == 4832
    reference = PrivacyReference(train, eval_, np.arange(10), np.arange(10, 20), np.arange(3))
    assert reference.audit(synth, 1, 0.8, 12).counters == fresh.counters
    reused = reference.audit(synth[:30], 1, 0.8, 12)  # the same (seed, n): the reference's samples are kept
    assert reused.counters["distance_pairs"] == 2 * 55 * 30 + 12 * 12 == 3444
    assert reference.audit(synth, 1, 0.8, 11).counters["distance_pairs"] == 2 * 55 * 40 + 3 * 11 * 11


def test_privacy_suite_memory_is_bounded():
    import tracemalloc

    rng = np.random.default_rng(5)
    p = rng.random(53) * 0.6 + 0.2
    train, eval_, synth = (sample_profiles(rng, 2000, dim=53, p=p)[0] for _ in range(3))
    tracemalloc.start()
    try:
        PrivacyReference(train, eval_, np.arange(30), np.arange(30, 53), np.arange(4)).audit(synth, 0, 0.8, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"  # under a third of one dense 2000 x 2000 float64 matrix


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
    train, eval_, synth = independent_sets
    split = (np.arange(24), np.arange(24, 48), np.arange(12))
    with pytest.raises(ValueError, match="train: profiles must hold only 0 and 1"):
        PrivacyReference(_with_entry(train, value), eval_, *split)
    with pytest.raises(ValueError, match="synthetic: profiles must hold only 0 and 1"):
        PrivacyReference(train, eval_, *split).audit(_with_entry(synth, value), 0, 0.8, None)



def test_each_derived_product_is_computed_once_per_table_set(monkeypatch):
    """One ingestion per table set; the spec once per (set, k); profiles once per (set, spec); the audit's
    reference side once per (train set, eval set, spec, attribute split)."""
    from chronoseq.codec import records as records_module
    from chronoseq.evalharness import CohortSpec, pathway_cohort, prevalence_report
    from chronoseq.generation import summary_stats
    from chronoseq.privacy import profiles as profiles_module
    from chronoseq.privacy import runner as runner_module

    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def counted(tables, *args):
            calls.append((name, id(tables), *(id(a) if a is eval_ or a is eval2 else a for a in args)))
            return fn(tables, *args)

        monkeypatch.setattr(module, name, counted)

    counting(records_module, "_ingest")
    counting(profiles_module, "_ranked_spec")
    counting(profiles_module, "_profiles")
    counting(runner_module, "_reference")
    train, eval_, syn, syn2, eval2 = (records_to_tables(sample_hospital_records(n, seed=s))
                                      for n, s in ((60, 1), (50, 2), (40, 3), (45, 4), (50, 5)))
    first = [audit_tables(train, eval_, syn, seed=0), prevalence_report(train, syn), summary_stats(syn),
             pathway_cohort(syn, CohortSpec("p", frozenset({1125315})))]
    spec = ProfileSpec.from_tables(train)
    split = tuple(tuple(a.tolist()) for a in default_attribute_split(spec))
    expected = {("_ingest", id(t)) for t in (train, eval_, syn)} | {("_ranked_spec", id(train), 64)} | {
        ("_profiles", id(t), spec) for t in (train, eval_, syn)} | {("_reference", id(train), id(eval_), spec, *split)}
    assert sorted(calls, key=repr) == sorted(expected, key=repr)
    again = [audit_tables(train, eval_, syn, seed=0), prevalence_report(train, syn), summary_stats(syn),
             pathway_cohort(syn, CohortSpec("p", frozenset({1125315})))]
    assert len(calls) == len(expected)  # nothing recomputed
    assert again[1:] == first[1:]
    assert (again[0].nnaa, again[0].membership, again[0].attribute, again[0].identity) == (
        first[0].nnaa, first[0].membership, first[0].attribute, first[0].identity)
    n = first[0].counters["nnaa_sample"]  # the first call also drew the reference's NNAA samples
    assert first[0].counters == {**again[0].counters, "distance_pairs": again[0].counters["distance_pairs"] + 2 * n * n}
    audit_tables(train, eval_, syn2, seed=0)
    assert sorted(calls[len(expected):], key=repr) == sorted([("_ingest", id(syn2)), ("_profiles", id(syn2), spec)],
                                                            key=repr)
    audit_tables(train, eval2, syn, seed=0)  # another eval set: another reference
    assert sorted(calls[len(expected) + 2:], key=repr) == sorted(
        [("_ingest", id(eval2)), ("_profiles", id(eval2), spec), ("_reference", id(train), id(eval2), spec, *split)],
        key=repr)
    assert not build_profiles(train, spec).flags.writeable
    with pytest.raises(ValueError):
        build_profiles(train, spec)[0, 0] = 1
