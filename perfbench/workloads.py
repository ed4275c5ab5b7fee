"""One workload run, in a fresh process: set-up, timed closed-loop operations, checks.

Started by run.py, which fixes the environment (hash seed, one BLAS thread,
PYTHONPATH=src). Prints one JSON object as its last line of output. The
workloads call only chronoseq's public functions, as the CLI does, and look
them up on the module at call time so the traced run sees every call.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import chronoseq.codec as codec  # noqa: E402
import chronoseq.evalharness as evalharness  # noqa: E402
import chronoseq.generation as generation  # noqa: E402
import chronoseq.model as cmodel  # noqa: E402
import chronoseq.privacy as privacy  # noqa: E402
import chronoseq.synthworld as synthworld  # noqa: E402
import chronoseq.training as training  # noqa: E402
import chronoseq.zeroshot as zeroshot  # noqa: E402
from chronoseq.autodiff import backward, constant  # noqa: E402

import checks  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - PROCESS_START

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "fixtures" / "demo_best.ckpt"
CHECKPOINT_SHA256 = "ce5ed1e0588495ebcc4ed5f579bc49b2c00b5d6980ecc63d2484b6e12f276569"
DEMO_MODEL = dict(embed_dim=48, n_layers=2, n_heads=4, context_window=256)


def _seeds(seed, tag, n):
    """n independent non-negative ints derived from the run seed and a tag."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def _frozen(model):
    return cmodel.ModelParams({name: constant(t.data, name=name) for name, t in model.params.items()})


def _causal_logits(frozen, cfg, ids):
    """Next-token logits at every position from the differentiable forward."""
    T = len(ids)
    mask = np.triu(np.full((T, T), -1e30), k=1)
    logits, _ = cmodel.forward(frozen, cfg, ids, mask)
    return logits.data


class Workload:
    """set-up, then whole rounds of operations until the run time is spent."""

    def __init__(self, seed, tiny, work):
        self.seed, self.tiny, self.work = seed, tiny, work
        self.problems = []
        self.patches = Patches()

    def check(self, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as e:
            self.problems.append(str(e))

    def make_inputs(self):
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def before(self):
        """Checks and instruments installed before the first operation."""

    def run_round(self, tracer):
        """-> list of (latency_s, units, failed) per operation, and busy seconds."""
        raise NotImplementedError

    def after(self):
        """Checks after the last operation."""

    def counters(self):
        return {}

    def timed(self, tracer, fn):
        with tracer.span("op"):
            t = time.perf_counter()
            try:
                result = fn()
            except Exception:
                traceback.print_exc()
                result = None
            dt = time.perf_counter() - t
        return result, dt


# ---------------------------------------------------------------------------


class Train(Workload):
    """training.train on the README demo recipe from a fresh init, to a step cap."""

    def make_inputs(self):
        self.records = synthworld.sample_hospital_records(60 if self.tiny else 500, seed=self.seed)
        self.cfg = training.TrainConfig(learning_rate=2e-3, warmup_steps=150, max_epochs=80, tokens_per_batch=2048,
                                        early_stop_patience=5, eval_fraction=0.1, seed=0,
                                        max_steps=4 if self.tiny else 45)

    def setup(self):
        self.corpus = training.prepare_corpus(self.records, codec.CodecConfig(), context_window=256,
                                              min_seq_tokens=self.cfg.min_seq_tokens,
                                              eval_fraction=self.cfg.eval_fraction, seed=self.cfg.seed)
        self.model = self._fresh_model()

    def _fresh_model(self):
        vocab = self.corpus.vocab
        return cmodel.TimelineModel.initialize(cmodel.ModelConfig(vocab_size=len(vocab), **DEMO_MODEL), vocab,
                                               seed=self.cfg.seed)

    def before(self):
        self.corpus_tokens = sum(len(ex.token_ids) for ex in self.corpus.train)
        self.rng = np.random.default_rng(_seeds(self.seed, 0x7AD, 1))
        self.gradient_check(self.model)
        self.last_batch_tokens = 0

        def count_tokens(fn):
            def total_loss(params, cfg, batch, *a, **k):
                self.last_batch_tokens = batch.n_tokens
                return fn(params, cfg, batch, *a, **k)
            return total_loss

        self.patches.wrap("chronoseq.training.loop", "total_loss", count_tokens)

    def gradient_check(self, model):
        batch = training.pack(self.corpus.train, self.cfg.tokens_per_batch, row_capacity=256)[0]
        model.params.zero_grads()
        loss, _ = cmodel.total_loss(model.params, model.config, batch)
        backward(loss)
        names = model.params.names()
        arrays = [model.params[n].data for n in names]
        grads = [model.params[n].grad if model.params[n].grad is not None else np.zeros_like(a)
                 for n, a in zip(names, arrays)]
        fd, analytic = checks.directional_derivative(
            lambda: cmodel.total_loss(model.params, model.config, batch)[1]["total"], arrays, grads, self.rng)
        model.params.zero_grads()
        self.check(checks.check_directional_derivative, fd, analytic)

    def run_round(self, tracer):
        self.model = self._fresh_model()
        history, stamps, step_tokens = [], [], []

        def log(row):
            stamps.append(time.perf_counter())
            history.append(dict(row))
            if row["train_loss"] != "":
                step_tokens.append(self.last_batch_tokens)

        out_dir = self.work / "train"
        with tracer.span("op"):
            t0 = time.perf_counter()
            try:
                training.train(self.model, self.corpus.train, self.corpus.eval, self.cfg, out_dir=out_dir, log=log)
            except Exception:
                traceback.print_exc()
            busy = time.perf_counter() - t0
        ops, prev = [], t0
        for row, stamp in zip(history, stamps):
            if row["train_loss"] != "":
                ops.append((stamp - prev, step_tokens[len(ops)], False))
            prev = stamp
        ops += [(0.0, 0, True)] * (self.cfg.max_steps - len(ops))
        self.check(checks.check_training_history, history, step_tokens, self.corpus_tokens, self.cfg.max_steps)
        self.check(self.reload_check, out_dir / "final.ckpt")
        return ops, busy

    def reload_check(self, path):
        reloaded, _, _ = cmodel.load_checkpoint(path)
        row = training.pack(self.corpus.eval, self.cfg.tokens_per_batch, row_capacity=256)[0].rows[0]
        a, _ = cmodel.forward(self.model.params, self.model.config, row.token_ids, row.attention_mask())
        b, _ = cmodel.forward(reloaded.params, reloaded.config, row.token_ids, row.attention_mask())
        checks.require(np.array_equal(a.data, b.data), "reloaded checkpoint gives different logits")

    def after(self):
        self.gradient_check(self.model)


# ---------------------------------------------------------------------------


class Generate(Workload):
    """generation.generate_pool with the README's two experts, then convert_to_tables."""

    def make_inputs(self):
        self.records = synthworld.sample_hospital_records(500, seed=self.seed)
        self.per_expert = 2 if self.tiny else 8

    def setup(self):
        self.model, _, _ = cmodel.load_checkpoint(CHECKPOINT)
        self.pool = [(f"year:{y}", f"age:{a}", f"gender:{g}", f"race:{r}")
                     for y, a, g, r in synthworld.demographics_of(self.records)]

    def before(self):
        digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
        if digest != CHECKPOINT_SHA256:
            raise SystemExit(f"{CHECKPOINT}: sha256 {digest} differs from the recorded fixture")
        self.prompts = set(self.pool)
        self.frozen = _frozen(self.model)
        self.n_ops = 0
        self.sequences = self.kept = self.hit_max = 0
        self.converted = self.attempted = 0
        self.support_checks = 0
        self.new_tokens = 0

        def count_tokens(fn):
            def sample_sequence(model, prompt_tokens, *a, **k):
                seq = fn(model, prompt_tokens, *a, **k)
                self.new_tokens += len(seq.tokens) - len(prompt_tokens)
                return seq
            return sample_sequence

        self.patches.wrap("chronoseq.generation.pool", "sample_sequence", count_tokens)

    def experts(self, k):
        base = self.seed * 1_000_003 + 2 * k
        return [
            generation.SamplingConfig(temperature=0.6, top_p=0.95, max_tokens=200, min_tokens=20, seed=base + 1),
            generation.SamplingConfig(temperature=0.75, top_k=60, max_tokens=200, min_tokens=20, seed=base + 2),
        ]

    def run_round(self, tracer):
        experts = self.experts(self.n_ops)
        self.n_ops += 1
        before = self.new_tokens

        def op():
            corpus = generation.generate_pool(self.model, experts, [self.per_expert] * 2, self.pool, n_threads=1)
            return corpus, generation.convert_to_tables(corpus)

        result, dt = self.timed(tracer, op)
        if result is None:
            return [(dt, 0, True)], dt
        corpus, (tables, report) = result
        self.check_op(corpus, tables, report, experts)
        return [(dt, self.new_tokens - before, False)], dt

    def check_op(self, corpus, tables, report, experts):
        self.check(checks.check_expert_reports, corpus.per_expert)
        for r in corpus.per_expert:
            self.sequences += r.generated
            self.kept += r.kept
            self.hit_max += r.hit_max_tokens
        for seq in corpus.sequences:
            self.check(checks.check_sequence_frame, seq.tokens, seq.hit_max_tokens, self.prompts, 200)
        if self.support_checks < (2 if self.tiny else 16):
            for e_idx, cfg in enumerate(experts):
                picked = [s for s, p in zip(corpus.sequences, corpus.provenance) if p.expert == e_idx][:1]
                for seq in picked:
                    ids = [self.model.vocab.id_of(t) for t in seq.tokens]
                    logits = _causal_logits(self.frozen, self.model.config, ids)
                    self.check(checks.check_in_support, ids, logits, 4, cfg.temperature, cfg.top_k, cfg.top_p)
                    self.support_checks += 1
        self.converted += report.succeeded
        self.attempted += report.attempted
        records, _ = codec.tables_to_records(tables)
        self.check(checks.require, len(records) == report.succeeded, "converted records != succeeded count")
        reencoded = [codec.encode_patient(r).tokens for r in records]
        self.check(checks.check_reencoding, [s.tokens for s in corpus.sequences], reencoded)

    def after(self):
        self.check(checks.check_conversion_rate, self.converted, self.attempted)

    def counters(self):
        return {"generation.sequences": self.sequences, "generation.kept": self.kept,
                "generation.hit_max": self.hit_max, "generation.tokens": self.new_tokens}


# ---------------------------------------------------------------------------

READMISSION = zeroshot.TaskConfig("30_day_readmission_prediction", (9201, 262), prediction_window_start=0,
                                  prediction_window_end=30, max_new_tokens=128, n_simulations=50)
YEAR_CONDITION = zeroshot.TaskConfig("one_year_condition_320128", (320128,), prediction_window_start=0,
                                     prediction_window_end=365, max_new_tokens=128, n_simulations=50)


def _label(record, k, task):
    """Did an outcome visit or event fall inside the task window after visit k ended?"""
    cut = record.visits[k].end_date
    lo, hi = task.prediction_window_start, task.prediction_window_end
    for v in record.visits[k + 1:]:
        if v.visit_concept_id in task.outcome_events and lo <= (v.start_date - cut).days <= hi:
            return 1
        if any(e.concept_id in task.outcome_events and lo <= (e.date - cut).days <= hi for e in v.events):
            return 1
    return 0


def select_cohort(records, task, per_class, cutoff_visit):
    """(person_id, cutoff_date, label) rows, positives and negatives alternating,
    so the probe's seeded split always holds both classes on both sides."""
    found = {0: [], 1: []}
    for rec in records:
        k = cutoff_visit(rec)
        if k is None:
            continue
        lbl = _label(rec, k, task)
        if len(found[lbl]) < per_class:
            found[lbl].append((rec.person_id, rec.visits[k].end_date, lbl))
    if min(len(v) for v in found.values()) < per_class:
        raise ValueError(f"{task.task_name}: too few candidates for {per_class} per class")
    return [row for pair in zip(found[1], found[0]) for row in pair]


def _first_inpatient(rec):
    return next((k for k, v in enumerate(rec.visits[:-1]) if v.visit_concept_id == synthworld.INPATIENT), None)


def _middle_visit(rec):
    return len(rec.visits) // 2 - 1 if len(rec.visits) >= 3 else None


class ZeroShot(Workload):
    """zeroshot.evaluate_task and evalharness.linear_probe on a held-out cohort, per task."""

    def make_inputs(self):
        per_class = 3 if self.tiny else 10
        n_sim = 5 if self.tiny else 50
        self.tasks = [READMISSION, YEAR_CONDITION]
        if self.tiny:
            self.tasks = [dataclasses.replace(t, n_simulations=n_sim) for t in self.tasks]
        pool = synthworld.sample_hospital_records(800, seed=_seeds(self.seed, 0x2E0, 1)[0])
        self.rows = [select_cohort(pool, self.tasks[0], per_class, _first_inpatient),
                     select_cohort(pool, self.tasks[1], per_class, _middle_visit)]
        chosen = {pid for rows in self.rows for pid, _, _ in rows}
        self.records = [r for r in pool if r.person_id in chosen]

    def setup(self):
        self.model, _, _ = cmodel.load_checkpoint(CHECKPOINT)
        self.cohorts = [evalharness.cohort_prefixes(self.records, rows, codec.CodecConfig())[0] for rows in self.rows]

    def before(self):
        self.first_estimates = None
        self.attempted_futures = self.completed_futures = 0

    def run_round(self, tracer):
        ops, busy = [], 0.0
        for task, cohort in zip(self.tasks, self.cohorts):
            def op():
                metrics = zeroshot.evaluate_task(self.model, cohort, task, seed=self.seed, n_bootstrap=1000,
                                                 n_threads=1)
                return metrics, evalharness.linear_probe(self.model, cohort, seed=0, n_bootstrap=1000)

            result, dt = self.timed(tracer, op)
            busy += dt
            if result is None:
                ops.append((dt, 0, True))
                continue
            metrics, probe = result
            self.check_op(task, cohort, metrics, probe)
            ops.append((dt, len(metrics.estimates), False))
        return ops, busy

    def check_op(self, task, cohort, metrics, probe):
        self.check(checks.require, len(metrics.estimates) == len(cohort), "one estimate per cohort patient")
        self.check(checks.check_estimates, metrics.estimates, task.n_simulations)
        self.check(checks.check_metric, "AUROC", metrics.auroc.point, checks.auroc_oracle(metrics.scores, metrics.labels))
        self.check(checks.check_metric, "AUPRC", metrics.auprc.point, checks.auprc_oracle(metrics.scores, metrics.labels))
        self.check(checks.require, probe.params_hash_before == probe.params_hash_after, "probing changed the weights")
        self.attempted_futures += sum(e.n_attempts for e in metrics.estimates)
        self.completed_futures += sum(e.n_completed for e in metrics.estimates)
        if task is self.tasks[0] and self.first_estimates is None:
            self.first_estimates = metrics.estimates

    def after(self):
        """The benchmark's own sampler over model.forward logits, for two patients."""
        task = self.tasks[0]
        frozen, cfg, vocab = _frozen(self.model), self.model.config, self.model.vocab
        outcome = frozenset(task.outcome_events)
        for i in range(2):
            prefix = [vocab.id_of(t) for t in self.cohorts[0][i][0]]
            rng = np.random.default_rng(_seeds(self.seed, 0x5A3, 1) + [i])
            memo = {}
            positives = completed = attempts = 0
            while completed < task.n_simulations and attempts < 4 * task.n_simulations:
                attempts += 1
                ids, tokens, verdict = list(prefix), [], "censored"
                for _ in range(min(task.max_new_tokens, cfg.context_window - len(prefix))):
                    key = tuple(ids)
                    logits = memo.get(key)
                    if logits is None:
                        logits = _causal_logits(frozen, cfg, ids)[-1]
                        if len(ids) <= len(prefix) + 1:  # shared by many futures; longer ones rarely repeat
                            memo[key] = logits
                    z = logits - logits.max()
                    p = np.exp(z) / np.exp(z).sum()
                    tid = int(rng.choice(len(p), p=p))
                    tokens.append(vocab.token_of(tid))
                    ids.append(tid)
                    verdict = checks.classify_future(tokens, outcome, task.prediction_window_start,
                                                     task.prediction_window_end)
                    if verdict != "open":
                        break
                if verdict in ("positive", "negative"):
                    completed += 1
                    positives += verdict == "positive"
            est = self.first_estimates[i]
            self.check(checks.check_binomial_agreement, est.n_positive, est.n_completed, positives, completed)

    def counters(self):
        return {"zeroshot.futures_attempted": self.attempted_futures,
                "zeroshot.futures_completed": self.completed_futures}


# ---------------------------------------------------------------------------


class Audit(Workload):
    """privacy.audit_tables, prevalence_report and summary_stats per synthetic table set."""

    SETS = ("independent0", "independent1", "copy")

    def make_inputs(self):
        if (self.work / "copy" / "events.csv").exists():
            return  # written by the workload process; set-up-only runs reuse them
        n = 400 if self.tiny else 2000
        seeds = _seeds(self.seed, 0xA0D, 4)
        names = ("train", "eval", "independent0", "independent1")
        for name, s in zip(names, seeds):
            codec.write_tables(codec.records_to_tables(synthworld.sample_hospital_records(n, seed=s)), self.work / name)
        codec.write_tables(codec.read_tables(*self.paths("train")), self.work / "copy")

    def paths(self, name):
        d = self.work / name
        return d / "persons.csv", d / "visits.csv", d / "events.csv"

    def setup(self):
        self.train = codec.read_tables(*self.paths("train"))
        self.eval = codec.read_tables(*self.paths("eval"))

    def before(self):
        self.real_prevalence = checks.prevalence_oracle(self.train)
        self.results = {}

    def run_round(self, tracer):
        ops, busy = [], 0.0
        for name in self.SETS:
            def op():
                tables = codec.read_tables(*self.paths(name))
                return (tables, privacy.audit_tables(self.train, self.eval, tables, seed=0),
                        evalharness.prevalence_report(self.train, tables), generation.summary_stats(tables))

            result, dt = self.timed(tracer, op)
            busy += dt
            if result is None:
                ops.append((dt, 0, True))
                continue
            tables, audit, prevalence, stats = result
            self.results[name] = audit
            self.check(checks.check_prevalence, prevalence, self.real_prevalence, checks.prevalence_oracle(tables))
            self.check(checks.check_summary, stats, tables)
            ops.append((dt, len(tables.persons), False))
        if len(self.results) == len(self.SETS):
            self.check(checks.check_privacy, {n: self.results[n] for n in self.SETS[:2]}, self.results["copy"])
        return ops, busy


WORKLOADS = {"train": Train, "generate": Generate, "zeroshot": ZeroShot, "audit": Audit}

# ---------------------------------------------------------------------------
# traced run: the public functions each per-layer metric times

TRACED = [
    ("chronoseq.training.loop", "pack", "training.pack"),
    ("chronoseq.training.loop", "total_loss", "model.loss"),
    ("chronoseq.training.loop", "backward", "autodiff.backward"),
    ("chronoseq.training.optimizer", "AdamW.step", "training.optimizer"),
    ("chronoseq.training.loop", "evaluate_loss", "model.eval"),
    ("chronoseq.training.loop", "save_checkpoint", "model.checkpoint"),
    ("chronoseq.model.inference", "InferenceSession.prefill", "model.prefill"),
    ("chronoseq.model.inference", "InferenceSession.append", "model.append"),
    ("chronoseq.model.inference", "InferenceSession.clone", "model.clone"),
    ("chronoseq.generation.sampling", "apply_decoding_controls", "generation.controls"),
    ("chronoseq.generation.sampling", "sample_token_id", "generation.draw"),
    ("chronoseq.zeroshot.simulate", "apply_decoding_controls", "generation.controls"),
    ("chronoseq.zeroshot.simulate", "sample_token_id", "generation.draw"),
    ("chronoseq.generation.convert", "decode_sequence", "codec.decode"),
    ("chronoseq.generation", "convert_to_tables", "generation.convert"),
    ("chronoseq.zeroshot.evaluate", "simulate_probability", "zeroshot.simulate"),
    ("chronoseq.zeroshot.evaluate", "bootstrap_metric", "evalharness.bootstrap"),
    ("chronoseq.evalharness.probe", "bootstrap_metric", "evalharness.bootstrap"),
    ("chronoseq.evalharness", "linear_probe", "evalharness.probe"),
    ("chronoseq.codec", "read_tables", "codec.read_tables"),
    ("chronoseq.generation.stats", "encode_patient", "codec.encode"),
    ("chronoseq.privacy.runner", "build_profiles", "privacy.profiles"),
    ("chronoseq.privacy.attacks", "nnaa_risk", "privacy.nnaa"),
    ("chronoseq.privacy.attacks", "membership_inference", "privacy.membership"),
    ("chronoseq.privacy.attacks", "attribute_inference", "privacy.attribute"),
    ("chronoseq.privacy.attacks", "identity_disclosure", "privacy.identity"),
    ("chronoseq.evalharness", "prevalence_report", "evalharness.prevalence"),
    ("chronoseq.generation", "summary_stats", "generation.summary_stats"),
]

# (metric, span, unit scale): mean duration per call
PER_CALL = [
    ("training.pack_ms", "training.pack", 1e3),
    ("autodiff.backward_ms", "autodiff.backward", 1e3),
    ("training.optimizer_ms", "training.optimizer", 1e3),
    ("model.eval_ms", "model.eval", 1e3),
    ("model.checkpoint_ms", "model.checkpoint", 1e3),
    ("model.prefill_ms", "model.prefill", 1e3),
    ("model.append_us", "model.append", 1e6),
    ("model.clone_us", "model.clone", 1e6),
    ("generation.controls_us", "generation.controls", 1e6),
    ("generation.draw_us", "generation.draw", 1e6),
    ("codec.decode_us", "codec.decode", 1e6),
    ("generation.convert_ms", "generation.convert", 1e3),
    ("zeroshot.simulate_ms", "zeroshot.simulate", 1e3),
    ("evalharness.bootstrap_ms", "evalharness.bootstrap", 1e3),
    ("evalharness.probe_ms", "evalharness.probe", 1e3),
    ("codec.read_tables_ms", "codec.read_tables", 1e3),
    ("codec.encode_us", "codec.encode", 1e6),
    ("privacy.profiles_ms", "privacy.profiles", 1e3),
    ("privacy.nnaa_ms", "privacy.nnaa", 1e3),
    ("privacy.membership_ms", "privacy.membership", 1e3),
    ("privacy.attribute_ms", "privacy.attribute", 1e3),
    ("privacy.identity_ms", "privacy.identity", 1e3),
    ("evalharness.prevalence_ms", "evalharness.prevalence", 1e3),
    ("generation.summary_stats_ms", "generation.summary_stats", 1e3),
]


def _graph_size(root):
    """(nodes, bytes) reachable from a loss tensor through Tensor.parents."""
    seen, stack, nbytes = set(), [root], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nbytes += t.data.nbytes
        stack.extend(t.parents)
    return len(seen), nbytes


def _dense_rows(name, args):
    """Rows x columns of the largest distance matrix an attack builds from its inputs."""
    if name == "privacy.nnaa":
        n = min(len(a) for a in args[:3])
        return n * n
    if name == "privacy.membership":
        return len(args[0]) * len(args[2])
    if name == "privacy.attribute":
        return len(args[0]) * len(args[1])
    return 0


def install_tracing(tracer, patches):
    steps = {"nodes": [], "bytes": [], "tokens": []}

    def after_loss(args, kwargs, result):
        if "model.eval" in tracer.open_names:
            return
        nodes, nbytes = _graph_size(result[0])
        steps["nodes"].append(nodes)
        steps["bytes"].append(nbytes)
        steps["tokens"].append(args[2].n_tokens)

    def after_attack(name):
        def after(args, kwargs, result):
            tracer.counters["privacy.distance_mb"] = max(tracer.counters["privacy.distance_mb"],
                                                         _dense_rows(name, args) * 8 / 1e6)
        return after

    for module, attr, name in TRACED:
        after = after_loss if name == "model.loss" else after_attack(name) if name.startswith("privacy.") else None
        patches.wrap(module, attr, tracer.wrapper(name, after))
    return steps


def per_layer_metrics(tracer, steps, workload, throughput):
    out = {}
    for metric, span, scale in PER_CALL:
        d = tracer.durations(span)
        out[metric] = scale * float(np.mean(d)) if d else 0.0
    loss = tracer.durations("model.loss", exclude_under="model.eval")
    out["model.loss_ms"] = 1e3 * float(np.mean(loss)) if loss else 0.0
    out["autodiff.graph_nodes"] = float(np.mean(steps["nodes"])) if steps["nodes"] else 0.0
    out["autodiff.graph_mb"] = float(np.mean(steps["bytes"])) / 1e6 if steps["bytes"] else 0.0
    out["training.tokens_per_step"] = float(np.mean(steps["tokens"])) if steps["tokens"] else 0.0
    counts = workload.counters()
    for name in ("generation.sequences", "generation.kept", "generation.hit_max", "generation.tokens",
                 "zeroshot.futures_attempted", "zeroshot.futures_completed"):
        out[name] = float(counts.get(name, 0))
    attempted = counts.get("zeroshot.futures_attempted", 0)
    draws = tracer.count_under("generation.draw", "zeroshot.simulate")
    out["zeroshot.tokens_per_future"] = draws / attempted if attempted else 0.0
    out["privacy.distance_mb"] = tracer.counters["privacy.distance_mb"]
    out["trace.throughput"] = throughput
    return out


UNITS = {"ms": "ms", "us": "us", "mb": "MB"}


def _unit(metric):
    suffix = metric.rsplit("_", 1)[-1]
    if metric == "trace.throughput":
        return "1/s"
    return UNITS.get(suffix, "count")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = ap.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, args.tiny, work)
    w.make_inputs()
    t = time.perf_counter()
    w.setup()
    setup_s = IMPORT_S + time.perf_counter() - t
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = Tracer()
    w.before()
    steps = install_tracing(tracer, w.patches) if args.trace else None
    latencies, units, busy, attempted, failed = [], 0, 0.0, 0, 0
    tracer.active = bool(args.trace)
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        ops, round_busy = w.run_round(tracer)
        busy += round_busy
        for latency, n, bad in ops:
            attempted += 1
            failed += bad
            if not bad:
                latencies.append(latency)
                units += n
    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the closing checks
    w.after()
    w.patches.restore()

    throughput = units / busy
    if args.trace:
        values = per_layer_metrics(tracer, steps, w, throughput)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed, "absent": w.patches.absent})
        if w.patches.absent:
            print("absent: " + ", ".join(w.patches.absent), file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput": {"value": throughput, "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for p in w.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not w.problems, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
