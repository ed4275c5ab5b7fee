import numpy as np
import numpy.testing as npt
import pytest

from chronoseq.generation import SamplingConfig, apply_decoding_controls, sample_token_id
from chronoseq.model.inference import _softmax
from helpers import MarkovModel, chi2_sf_even


def test_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(top_p=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(repetition_penalty=0.5)
    with pytest.raises(ValueError):
        SamplingConfig(top_k=-1)


def test_neutral_controls_reproduce_softmax():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=9)
    probs = apply_decoding_controls(logits, [0, 3], SamplingConfig())
    want = np.exp(logits - logits.max())
    want /= want.sum()
    npt.assert_allclose(probs, want, atol=1e-12)


def test_temperature_zero_limit_is_greedy():
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = rng.normal(size=12)
        probs = apply_decoding_controls(logits, [], SamplingConfig(temperature=1e-9))
        assert probs.argmax() == logits.argmax()
        assert probs[logits.argmax()] == pytest.approx(1.0)
        assert sample_token_id(probs, np.random.default_rng(0)) == logits.argmax()


def test_top_k_keeps_k_tokens():
    logits = np.array([3.0, 2.0, 1.0, 0.0, -1.0])
    probs = apply_decoding_controls(logits, [], SamplingConfig(top_k=2))
    assert (probs > 0).sum() == 2
    assert set(np.nonzero(probs)[0]) == {0, 1}
    assert probs.sum() == pytest.approx(1.0)


def test_top_k_one_is_deterministic():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=8)
    probs = apply_decoding_controls(logits, [], SamplingConfig(top_k=1))
    for seed in range(10):
        assert sample_token_id(probs, np.random.default_rng(seed)) == logits.argmax()


def test_top_p_keeps_smallest_cover():
    logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
    probs = apply_decoding_controls(logits, [], SamplingConfig(top_p=0.7))
    assert set(np.nonzero(probs)[0]) == {0, 1}
    npt.assert_allclose(probs[:2], [0.625, 0.375], atol=1e-12)
    # top_p always keeps at least one token
    probs = apply_decoding_controls(logits, [], SamplingConfig(top_p=1e-9))
    assert (probs > 0).sum() == 1


def test_repetition_penalty_strictly_lowers_repeated_probability():
    rng = np.random.default_rng(3)
    for _ in range(50):
        logits = rng.normal(scale=2.0, size=10)
        t = int(rng.integers(0, 10))
        p1 = apply_decoding_controls(logits, [t], SamplingConfig(repetition_penalty=1.0))
        p2 = apply_decoding_controls(logits, [t], SamplingConfig(repetition_penalty=2.0))
        assert p2[t] < p1[t]


def test_repetition_penalty_lowers_every_repeated_logit():
    # with several repeated tokens, each penalized LOGIT strictly drops even
    # though renormalization may not lower every probability
    logits = np.array([4.0, -3.0, 1.0, 0.5, -0.5])
    context = [0, 1, 4]
    pen = SamplingConfig(repetition_penalty=2.0)
    z = logits.copy()
    z[[0, 1, 4]] = [2.0, -6.0, -1.0]
    want = np.exp(z - z.max())
    want /= want.sum()
    npt.assert_allclose(apply_decoding_controls(logits, context, pen), want, atol=1e-12)


def test_control_order_penalty_before_temperature_before_filters():
    # with a repeated top token and penalty, the kept top-k set must change:
    # penalty applies first, demoting the repeated token before the filter
    logits = np.array([5.0, 4.9, 1.0, 0.5])
    cfg = SamplingConfig(top_k=1, repetition_penalty=3.0)
    probs = apply_decoding_controls(logits, [0], cfg)
    assert probs.argmax() == 1  # token 0 was demoted below token 1 before top-k


def test_neutral_sampling_follows_model_distribution_chi2():
    model = MarkovModel({"default": {"c:1": 0.5, "c:2": 0.3, "[END]": 0.2}})
    logits = model.logits_after(model.vocab.id_of("c:1"))
    probs = apply_decoding_controls(logits, [], SamplingConfig())
    rng = np.random.default_rng(1234)
    n = 10_000
    counts = np.zeros(len(probs))
    for _ in range(n):
        counts[sample_token_id(probs, rng)] += 1
    keep = probs > 0
    expected = probs[keep] * n
    chi2 = float(((counts[keep] - expected) ** 2 / expected).sum())
    p_value = chi2_sf_even(chi2, dof=2)
    assert p_value > 0.01


def test_chi2_helper_matches_closed_form():
    for x in (0.1, 1.0, 5.0, 10.0):
        assert chi2_sf_even(x, 2) == pytest.approx(np.exp(-x / 2))
    # dof 4: exp(-x/2) * (1 + x/2)
    for x in (0.5, 2.0, 7.0):
        assert chi2_sf_even(x, 4) == pytest.approx(np.exp(-x / 2) * (1 + x / 2))


def full_sort_controls(logits, context_ids, cfg):
    """The decoding controls as they were with a full-vocabulary nucleus sort: the reference."""
    z = np.array(logits, dtype=np.float64)
    if cfg.repetition_penalty != 1.0 and len(context_ids) > 0:
        seen = np.unique(np.asarray(context_ids, dtype=np.int64))
        vals = z[seen]
        z[seen] = np.where(vals > 0, vals / cfg.repetition_penalty, vals * cfg.repetition_penalty)
    z /= cfg.temperature
    if cfg.top_k and cfg.top_k < z.shape[0]:
        cutoff = np.partition(z, -cfg.top_k)[-cfg.top_k]
        z[z < cutoff] = -np.inf
    z -= z[np.isfinite(z)].max()
    probs = np.exp(z)
    probs /= probs.sum()
    if cfg.top_p < 1.0:
        order = np.argsort(-probs, kind="stable")
        csum = np.cumsum(probs[order])
        keep_n = int(np.searchsorted(csum, cfg.top_p, side="left")) + 1
        mask = np.zeros_like(probs, dtype=bool)
        mask[order[:keep_n]] = True
        probs = np.where(mask, probs, 0.0)
        probs /= probs.sum()
    return probs


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("top_k", [0, 40])
def test_nucleus_matches_full_sort_bit_for_bit(tied, top_k):
    rng = np.random.default_rng(17 + 2 * top_k + tied)
    for _ in range(60):
        V = int(rng.choice([5, 64, 65, 300, 1241]))
        scale = float(rng.choice([0.3, 2.0, 8.0]))
        logits = rng.normal(scale=scale, size=V)
        if tied:
            logits = np.round(logits)  # many exact ties across the nucleus edge
        cfg = SamplingConfig(top_k=top_k, top_p=float(rng.choice([0.1, 0.5, 0.9, 0.99, 0.999999])),
                             temperature=float(rng.choice([0.6, 1.0])))
        npt.assert_array_equal(apply_decoding_controls(logits, [], cfg), full_sort_controls(logits, [], cfg))


def test_batched_rows_match_single_row_calls_bit_for_bit():
    """Row i of a batch draw with uniforms u is the one-row draw whose Generator yields u[i]."""
    rng = np.random.default_rng(23)
    for cfg in (SamplingConfig(), SamplingConfig(temperature=0.7, top_k=30, top_p=0.9, repetition_penalty=1.3),
                SamplingConfig(top_p=0.95)):
        for B in (7, 37, 96):  # within one row block, several ending on a partial one, whole blocks
            logits = rng.normal(scale=3.0, size=(B, 200))
            probs = np.stack([apply_decoding_controls(lg, rng.integers(0, 200, size=5), cfg) for lg in logits])
            draws = sample_token_id(probs, np.random.default_rng(5).random(B))
            one_by_one = np.random.default_rng(5)
            assert draws.tolist() == [sample_token_id(row, one_by_one) for row in probs]


def test_zero_shot_draws_what_neutral_generation_draws():
    """Zero-shot lanes sample the softmax of their logits; one neutral generation step
    samples apply_decoding_controls with default controls: the same distribution, bit for bit."""
    rng = np.random.default_rng(29)
    for scale in (0.3, 3.0, 30.0):
        logits = rng.normal(scale=scale, size=(9, 300))
        logits[:, :4] = -1e30  # impossible tokens, as the Markov test models write them
        u = np.random.default_rng(7).random(9)
        probs = _softmax(logits.copy())  # _softmax overwrites its argument
        draws = sample_token_id(probs, u)
        g = np.random.default_rng(7)
        for i, row in enumerate(logits):
            neutral = apply_decoding_controls(row, [], SamplingConfig())
            npt.assert_array_equal(probs[i], neutral)
            assert draws[i] == sample_token_id(neutral, g)


class _FixedUniform:
    """A stand-in Generator whose random() returns one fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


_EDGE_U = (0.0, 0.5, np.nextafter(1.0, 0.0))


def _assert_valid_draws(probs, us=_EDGE_U):
    """Every draw, one-row and batched, is an in-range id of nonzero weight, and both agree."""
    for u in us:
        tid = sample_token_id(probs, _FixedUniform(u))
        assert 0 <= tid < probs.size and probs[tid] > 0, (u, tid)
    batched = sample_token_id(np.stack([probs] * len(us)), np.array(us))
    assert batched.tolist() == [sample_token_id(probs, _FixedUniform(u)) for u in us]


@pytest.mark.parametrize("V", [1, 5, 31, 32, 33, 64, 96, 97, 1241])
def test_draw_edge_cases_give_nonzero_weight_ids(V):
    rng = np.random.default_rng(V)
    _assert_valid_draws(_softmax(rng.normal(size=V)))
    one = np.zeros(V)
    one[V // 2] = 1.0  # a single nonzero token
    _assert_valid_draws(one)
    assert {sample_token_id(one, _FixedUniform(u)) for u in _EDGE_U} == {V // 2}
    for k in (1, 2, 7):  # top-k zeroes most tokens, whole spans and the tail included
        if k < V:
            probs = apply_decoding_controls(rng.normal(size=V), [], SamplingConfig(top_k=k))
            _assert_valid_draws(probs)
    if V > 40:
        zeroed = _softmax(rng.normal(size=V))
        zeroed[32:64] = 0.0  # a whole zero span
        zeroed[-3:] = 0.0  # a zero-weight tail
        zeroed[:3] = 0.0
        zeroed /= zeroed.sum()
        _assert_valid_draws(zeroed)


def test_target_past_the_span_running_total_takes_its_last_nonzero_token():
    """A span's pairwise sum can exceed its running sum: with u just below 1 the
    target then passes every running sum inside the span."""
    probs = np.array([1.0] + [1e-16] * 30 + [0.0])
    probs /= probs.sum()
    u = np.nextafter(1.0, 0.0)
    assert u * probs.sum() >= np.cumsum(probs)[-1]  # the case this test is about
    assert sample_token_id(probs, _FixedUniform(u)) == 30
    assert sample_token_id(np.stack([probs, probs]), np.array([u, 0.0])).tolist() == [30, 0]


def test_batched_draws_follow_the_exact_probabilities_chi2():
    V = 109  # three whole spans and a 13-token tail
    weights = np.random.default_rng(41).uniform(0.5, 1.5, size=V)
    weights[32:64] = 0.0  # a whole zero span
    weights[92:96] = 0.0  # a zero-weight end of a span, as top-k leaves one
    probs = weights / weights.sum()
    rng = np.random.default_rng(43)
    n, chunk = 100_000, 10_000
    counts = np.zeros(V)
    for _ in range(n // chunk):
        ids = sample_token_id(np.broadcast_to(probs, (chunk, V)), rng.random(chunk))
        counts += np.bincount(ids, minlength=V)
    keep = probs > 0
    assert counts[~keep].sum() == 0
    expected = probs[keep] * n
    chi2 = float(((counts[keep] - expected) ** 2 / expected).sum())
    assert keep.sum() % 2 == 1  # an even number of degrees of freedom, for chi2_sf_even
    assert chi2_sf_even(chi2, dof=int(keep.sum()) - 1) > 0.01


def test_draws_equal_the_full_running_sum_search_away_from_boundaries():
    """The span search draws what one running sum over the whole row draws, except
    where the target lies within rounding (1e-12 of the total) of a boundary."""
    rng = np.random.default_rng(47)
    rows = near = 0
    for V in (5, 31, 32, 33, 64, 65, 300, 1241):
        for _ in range(25):
            logits = rng.normal(scale=float(rng.choice([0.3, 3.0, 30.0])), size=(500, V))
            if V > 32:
                logits[:, rng.random(V) < 0.2] = -np.inf  # zero-weight tokens
            probs = _softmax(logits)
            u = rng.random(500)
            csum = np.cumsum(probs, axis=1)
            target = u * csum[:, -1]
            want = (csum <= target[:, None]).sum(axis=1)  # np.searchsorted(csum, target, side="right") per row
            boundary = (np.abs(csum - target[:, None]) <= 1e-12 * csum[:, -1:]).any(axis=1)
            got = sample_token_id(probs, u)
            assert (got[~boundary] == want[~boundary]).all()
            rows += 500
            near += int(boundary.sum())
    assert rows == 100_000
    assert near <= 5, f"{near} of {rows} targets lie within 1e-12 of a boundary"
