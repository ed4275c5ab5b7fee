import numpy.testing as npt
import pytest

from chronoseq.model import ModelConfig, TimelineModel, load_checkpoint
from chronoseq.synthworld import WorldConfig, sample_hospital_records
from chronoseq.training import TrainConfig, TrainingDiverged, prepare_corpus, train
from chronoseq.training.optimizer import AdamW


WORLD = WorldConfig(start_year_range=(1995, 2010), visits_range=(2, 4), events_per_visit_range=(1, 3))


@pytest.fixture(scope="module")
def small_corpus():
    records = sample_hospital_records(24, seed=5, cfg=WORLD)
    return prepare_corpus(records, context_window=128, eval_fraction=0.2, seed=3)


def make_model(corpus, seed=0):
    cfg = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=128)
    return TimelineModel.initialize(cfg, corpus.vocab, seed=seed)


def test_prepare_corpus_min_length_boundary():
    records = sample_hospital_records(50, seed=1, cfg=WORLD)
    corpus = prepare_corpus(records, context_window=128, min_seq_tokens=20, seed=0)
    lengths = [len(e) for e in corpus.train + corpus.eval]
    assert all(n >= 20 for n in lengths)
    dropped = corpus.report.n_dropped_short
    assert dropped == sum(
        1 for r in records if len(__import__("chronoseq.codec", fromlist=["encode_patient"]).encode_patient(r).tokens) < 20
    )


def test_prepare_corpus_truncates_to_context_window():
    records = sample_hospital_records(30, seed=2, cfg=WorldConfig(visits_range=(8, 12)))
    corpus = prepare_corpus(records, context_window=48, min_seq_tokens=20, seed=0)
    assert all(len(e) <= 48 for e in corpus.train + corpus.eval)
    assert corpus.report.n_truncated > 0
    for e in corpus.train:  # supervision positions survive truncation consistently
        assert all(p < len(e) for p in e.sup.att_positions)


def test_prepare_corpus_split_deterministic():
    records = sample_hospital_records(40, seed=7, cfg=WORLD)
    c1 = prepare_corpus(records, context_window=128, seed=11)
    c2 = prepare_corpus(records, context_window=128, seed=11)
    c3 = prepare_corpus(records, context_window=128, seed=12)
    ids1 = [e.person_id for e in c1.eval]
    assert ids1 == [e.person_id for e in c2.eval]
    assert ids1 != [e.person_id for e in c3.eval]


def test_warmup_schedule_definition():
    corpus_cfg = ModelConfig(vocab_size=10, embed_dim=6, n_layers=1, n_heads=1, context_window=8)
    model = TimelineModel.initialize(
        corpus_cfg,
        __import__("chronoseq.codec.vocab", fromlist=["Vocabulary"]).Vocabulary(
            ["[PAD]", "[VS]", "[VE]", "[LT]", "[END]", "a:1", "a:2", "a:3", "a:4", "a:5"]
        ),
        seed=0,
    )
    opt = AdamW(model.params, lr=0.5, warmup_steps=10)
    for s in (1, 4, 10, 11, 100):
        want = 0.5 * min(1.0, s / 10)
        assert opt.effective_lr(s) == pytest.approx(want)


def test_optimizer_zero_grad_step_is_pure_weight_decay(small_corpus):
    model = make_model(small_corpus)
    opt = AdamW(model.params, lr=1e-2, weight_decay=0.1, warmup_steps=4)
    before = {n: t.data.copy() for n, t in model.params.items()}
    model.params.zero_grads()
    opt.step()  # step 1, lr_eff = 1e-2 * 1/4
    lr_eff = 1e-2 * 0.25
    for n, t in model.params.items():
        npt.assert_allclose(t.data, before[n] * (1.0 - lr_eff * 0.1), rtol=0, atol=1e-15)


def test_training_is_deterministic(small_corpus):
    cfg = TrainConfig(max_epochs=2, tokens_per_batch=256, warmup_steps=5,
                      checkpoint_every_steps=0, early_stop_patience=10**9, seed=4)
    r1 = train(make_model(small_corpus, seed=1), small_corpus.train, small_corpus.eval, cfg)
    r2 = train(make_model(small_corpus, seed=1), small_corpus.train, small_corpus.eval, cfg)
    assert [row["train_loss"] for row in r1.history] == [row["train_loss"] for row in r2.history]


def test_early_stopping_behavior(small_corpus):
    # lr 0 -> loss never improves -> patience 1 stops after the first eval
    cfg = TrainConfig(learning_rate=0.0, weight_decay=0.0, max_epochs=50, tokens_per_batch=256,
                      warmup_steps=1, checkpoint_every_steps=0, early_stop_patience=1, seed=0)
    res = train(make_model(small_corpus), small_corpus.train, small_corpus.eval, cfg)
    assert res.stopped_early
    assert res.epochs == 2  # first eval sets the best; second shows no improvement

    # improving run must not stop while relative improvement stays >= 0.1%
    cfg2 = TrainConfig(learning_rate=1e-3, max_epochs=4, tokens_per_batch=256, warmup_steps=5,
                       checkpoint_every_steps=0, early_stop_patience=1, seed=0)
    res2 = train(make_model(small_corpus), small_corpus.train, small_corpus.eval, cfg2)
    assert res2.epochs == 4 and not res2.stopped_early


def test_resume_reproduces_trajectory(tmp_path, small_corpus):
    cfg = TrainConfig(max_epochs=4, tokens_per_batch=256, warmup_steps=5,
                      checkpoint_every_steps=0, early_stop_patience=10**9, seed=9)
    straight = train(make_model(small_corpus, seed=2), small_corpus.train, small_corpus.eval, cfg)

    cfg_half = TrainConfig(**{**cfg.__dict__, "max_epochs": 2})
    model = make_model(small_corpus, seed=2)
    out = tmp_path / "run"
    train(model, small_corpus.train, small_corpus.eval, cfg_half, out_dir=out)
    resumed_model, opt_state, extra = load_checkpoint(out / "final.ckpt")
    resume_state = {
        "optimizer": opt_state,
        "epoch": extra["epoch"],
        "batch_index": extra["batch_index"],
        "best_eval_loss": extra["best_eval_loss"],
        "bad_evals": extra["bad_evals"],
    }
    resumed = train(resumed_model, small_corpus.train, small_corpus.eval, cfg, resume_state=resume_state)
    tail = [row for row in straight.history if row["epoch"] >= 2]
    assert [row["train_loss"] for row in resumed.history] == [row["train_loss"] for row in tail]
    assert resumed.best_eval_loss == pytest.approx(straight.best_eval_loss, abs=1e-12)


def test_checkpoint_cadence_and_best(tmp_path, small_corpus):
    cfg = TrainConfig(max_epochs=2, tokens_per_batch=256, warmup_steps=2, checkpoint_every_steps=3,
                      early_stop_patience=10**9, seed=0)
    out = tmp_path / "ckpts"
    res = train(make_model(small_corpus), small_corpus.train, small_corpus.eval, cfg, out_dir=out)
    assert (out / "step3.ckpt").exists()
    assert (out / "best.ckpt").exists()
    assert (out / "final.ckpt").exists()
    assert (out / "loss_curves.csv").exists()
    header = (out / "loss_curves.csv").read_text().splitlines()[0]
    assert header == "step,epoch,train_loss,eval_loss,ntp,td,tte"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostics(small_corpus):
    model = make_model(small_corpus)
    # a huge rate pre-activation overflows beta * t inside the Gamma NLL
    model.params["tte.fc2.b"].data[...] = 1e308
    cfg = TrainConfig(max_epochs=1, tokens_per_batch=256, warmup_steps=1,
                      checkpoint_every_steps=0, early_stop_patience=10**9, seed=0)
    with pytest.raises(TrainingDiverged) as exc:
        train(model, small_corpus.train, small_corpus.eval, cfg)
    assert exc.value.step == 1
    assert exc.value.op_name
