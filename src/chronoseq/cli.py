"""Single executable over the whole pipeline.

Subcommands: encode, decode, vocab, train, generate, convert, zeroshot,
probe, prevalence, pathway, privacy, simstudy, gradcheck. Exit codes: 0 on
success, 1 on validation errors (bad arguments, files, or config fields),
2 on runtime failures. Every run writes a JSON manifest describing the
resolved configuration, the seed, and the hashes of all inputs and outputs.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .codec import (
    CodecConfig,
    DecodeError,
    RecordValidationError,
    build_vocabulary,
    decode_sequence,
    encode_patient,
    read_sequences,
    read_tables,
    records_to_tables,
    tables_to_records,
    write_sequences,
    write_tables,
)
from .codec.vocab import Vocabulary, expand_vocabulary
from .configfile import ConfigParseError, parse_kv_blocks, parse_kv_text
from .evalharness import (
    CohortSpec,
    cohort_prefixes,
    linear_probe,
    load_cohort_csv,
    pathway_cohort,
    prevalence_report,
    write_prevalence_csv,
)
from .generation import (
    SamplingConfig,
    convert_to_tables,
    generate_pool,
    summary_stats,
    write_stats_csv,
)
from .manifest import ManifestWriter
from .model import ModelConfig, TimelineModel, load_checkpoint
from .model.diagnostics import toy_grad_check
from .privacy import audit_tables, write_privacy_csv
from .simstudy import EncoderConfig, run_comparison, write_curves_csv
from .synthworld import demographics_of
from .training import TrainConfig, TrainingDiverged, prepare_corpus, train
from .zeroshot import ConceptAncestry, evaluate_task, load_task_config, write_task_metrics


class ValidationFailure(ValueError):
    """User-facing input problem; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config-file loaders


def _load_codec_config(path) -> CodecConfig:
    if path is None:
        return CodecConfig()
    kv = parse_kv_text(Path(path).read_text(encoding="utf-8"))
    known = {"inpatient_concepts", "intra_visit_time", "long_gap_days"}
    unknown = set(kv) - known
    if unknown:
        raise ValidationFailure(f"{path}: unknown codec field(s): {', '.join(sorted(unknown))}")
    out = CodecConfig()
    if "inpatient_concepts" in kv:
        vals = kv["inpatient_concepts"]
        out = CodecConfig(
            inpatient_concepts=frozenset(int(v) for v in (vals if isinstance(vals, list) else [vals])),
            intra_visit_time=bool(kv.get("intra_visit_time", out.intra_visit_time)),
            long_gap_days=int(kv.get("long_gap_days", out.long_gap_days)),
        )
    else:
        out = CodecConfig(
            intra_visit_time=bool(kv.get("intra_visit_time", out.intra_visit_time)),
            long_gap_days=int(kv.get("long_gap_days", out.long_gap_days)),
        )
    return out


def _load_dataclass_kv(path, cls, required=(), name="config"):
    kv = parse_kv_text(Path(path).read_text(encoding="utf-8"))
    fields = {f.name for f in cls.__dataclass_fields__.values()} if hasattr(cls, "__dataclass_fields__") else set()
    unknown = set(kv) - fields
    if unknown:
        raise ValidationFailure(f"{path}: unknown {name} field(s): {', '.join(sorted(unknown))}")
    missing = [f for f in required if f not in kv]
    if missing:
        raise ValidationFailure(f"{path}: missing required {name} field(s): {', '.join(missing)}")
    try:
        return cls(**kv)
    except (TypeError, ValueError) as e:
        raise ValidationFailure(f"{path}: {e}") from None


def _read_tables_args(args):
    for name in ("persons", "visits", "events"):
        p = getattr(args, name)
        if not Path(p).exists():
            raise ValidationFailure(f"--{name}: no such file: {p}")
    return read_tables(args.persons, args.visits, args.events)


def _read_tables_dir(path, flag):
    d = Path(path)
    for f in ("persons.csv", "visits.csv", "events.csv"):
        if not (d / f).exists():
            raise ValidationFailure(f"{flag}: missing {f} under {d}")
    return read_tables(d / "persons.csv", d / "visits.csv", d / "events.csv")


def _require_file(path, flag):
    if not Path(path).exists():
        raise ValidationFailure(f"{flag}: no such file: {path}")
    return path


def _manifest_path(args, default_anchor) -> Path:
    if getattr(args, "manifest", None):
        return Path(args.manifest)
    return Path(str(default_anchor) + ".manifest.json")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_encode(args):
    mani = ManifestWriter("encode", args.seed, {"codec_config": args.codec_config})
    for name in ("persons", "visits", "events"):
        mani.add_input(name, _require_file(getattr(args, name), f"--{name}"))
    cfg = _load_codec_config(args.codec_config)
    tables = _read_tables_args(args)
    records, report = tables_to_records(tables)
    sequences = [encode_patient(r, cfg) for r in records]
    write_sequences(sequences, args.out)
    mani.add_output("sequences", args.out)
    if args.vocab_out:
        build_vocabulary(sequences).save(args.vocab_out)
        mani.add_output("vocabulary", args.vocab_out)
    mani.write(_manifest_path(args, args.out))
    print(
        f"encoded {len(sequences)} sequences "
        f"(dropped {report.n_unknown_concept_events_dropped} unknown-concept events)"
    )
    return 0


def _cmd_decode(args):
    mani = ManifestWriter("decode", args.seed, {"codec_config": args.codec_config})
    mani.add_input("sequences", _require_file(args.sequences, "--sequences"))
    cfg = _load_codec_config(args.codec_config)
    sequences = read_sequences(args.sequences)
    records = []
    failures: dict[str, int] = {}
    for i, seq in enumerate(sequences):
        try:
            records.append(decode_sequence(seq, cfg, person_id=seq.person_id or f"s{i + 1}",
                                           lenient_tail=seq.hit_max_tokens))
        except DecodeError as e:
            failures[e.reason] = failures.get(e.reason, 0) + 1
    out_dir = Path(args.out_dir)
    paths = write_tables(records_to_tables(records), out_dir)
    report_path = out_dir / "decode_report.csv"
    with open(report_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["outcome", "count"])
        w.writerow(["attempted", len(sequences)])
        w.writerow(["succeeded", len(records)])
        for reason, n in sorted(failures.items()):
            w.writerow([f"failed:{reason}", n])
    for name, p in paths.items():
        mani.add_output(name, p)
    mani.add_output("decode_report", report_path)
    mani.write(_manifest_path(args, out_dir / "run"))
    print(f"decoded {len(records)}/{len(sequences)} sequences into {out_dir}")
    return 0


def _cmd_vocab(args):
    mani = ManifestWriter("vocab", args.seed, {"expand": args.expand})
    mani.add_input("sequences", _require_file(args.sequences, "--sequences"))
    sequences = read_sequences(args.sequences)
    if args.expand:
        mani.add_input("base_vocabulary", _require_file(args.expand, "--expand"))
        base = Vocabulary.load(args.expand)
        new_tokens = sorted({t for s in sequences for t in s.tokens if t not in base})
        vocab, report = expand_vocabulary(base, new_tokens)
        print(f"expanded vocabulary: +{report.added} tokens ({report.duplicates} duplicates skipped)")
    else:
        vocab = build_vocabulary(sequences)
        print(f"built vocabulary of {len(vocab)} tokens")
    vocab.save(args.out)
    mani.add_output("vocabulary", args.out)
    mani.write(_manifest_path(args, args.out))
    return 0


def _cmd_train(args):
    mani = ManifestWriter(
        "train",
        args.seed,
        {"train_config": args.train_config, "model_config": args.model_config, "codec_config": args.codec_config},
    )
    for name in ("persons", "visits", "events"):
        mani.add_input(name, _require_file(getattr(args, name), f"--{name}"))
    mani.add_input("train_config", _require_file(args.train_config, "--train-config"))
    mani.add_input("model_config", _require_file(args.model_config, "--model-config"))
    codec_cfg = _load_codec_config(args.codec_config)
    tcfg = _load_dataclass_kv(args.train_config, TrainConfig, name="training")
    if args.seed is not None:
        tcfg = TrainConfig(**{**asdict(tcfg), "seed": args.seed})
    mkv = parse_kv_text(Path(args.model_config).read_text(encoding="utf-8"))
    allowed = {"embed_dim", "n_layers", "n_heads", "context_window", "dropout_rate", "max_td_year_class"}
    unknown = set(mkv) - allowed
    if unknown:
        raise ValidationFailure(f"{args.model_config}: unknown model field(s): {', '.join(sorted(unknown))}")
    missing = [k for k in ("embed_dim", "n_layers", "n_heads", "context_window") if k not in mkv]
    if missing:
        raise ValidationFailure(f"{args.model_config}: missing model field(s): {', '.join(missing)}")

    tables = _read_tables_args(args)
    records, _ = tables_to_records(tables)
    corpus = prepare_corpus(
        records,
        codec_cfg,
        context_window=int(mkv["context_window"]),
        min_seq_tokens=tcfg.min_seq_tokens,
        eval_fraction=tcfg.eval_fraction,
        seed=tcfg.seed,
        max_year_class=int(mkv.get("max_td_year_class", 10)),
    )
    try:
        mcfg = ModelConfig(vocab_size=len(corpus.vocab), **{k: v for k, v in mkv.items()})
    except (TypeError, ValueError) as e:
        raise ValidationFailure(f"{args.model_config}: {e}") from None
    if args.resume is None:
        model, resume_state = TimelineModel.initialize(mcfg, corpus.vocab, seed=tcfg.seed), None
    else:
        mani.add_input("resume", _require_file(args.resume, "--resume"))
        model, resume_state = _resume_point(args.resume, mcfg, corpus.vocab)
    out_dir = Path(args.out_dir)
    result = train(model, corpus.train, corpus.eval, tcfg, out_dir=out_dir, resume_state=resume_state,
                   log=_eval_progress())
    corpus.vocab.save(out_dir / "vocabulary.tsv")
    mani.add_output("vocabulary", out_dir / "vocabulary.tsv")
    mani.add_output("loss_curves", out_dir / "loss_curves.csv")
    mani.add_output("final_checkpoint", out_dir / "final.ckpt")
    mani.write(_manifest_path(args, out_dir / "run"))
    print(
        f"trained {result.steps} steps over {result.epochs} epochs; "
        f"best eval loss {result.best_eval_loss:.4f}"
        + (" (early stop)" if result.stopped_early else "")
    )
    return 0


def _resume_point(path, mcfg: ModelConfig, vocab: Vocabulary):
    """(model, resume_state) from a training checkpoint that matches this run's model and vocabulary."""
    model, opt_state, extra = load_checkpoint(path)
    if model.config != mcfg:
        raise ValidationFailure(f"--resume: {path} was trained with a different model config")
    if model.vocab.tokens != vocab.tokens:
        raise ValidationFailure(f"--resume: {path} has a different vocabulary than these tables")
    if opt_state is None or "epoch" not in extra or "batch_index" not in extra:
        raise ValidationFailure(f"--resume: {path} holds no optimizer state or position to resume from")
    return model, {"optimizer": opt_state, **extra}


def _eval_progress():
    """train() log hook: one stderr line per epoch-end eval with the step and the last train loss."""
    last_train = None

    def log(row):
        nonlocal last_train
        if row["train_loss"] != "":
            last_train = row["train_loss"]
            return
        train_loss = "-" if last_train is None else f"{last_train:.4f}"
        print(f"step {row['step']} epoch {row['epoch']}: train loss {train_loss}, eval loss {row['eval_loss']:.4f}",
              file=sys.stderr)

    return log


def _load_experts(path) -> tuple[list[SamplingConfig], list[int]]:
    blocks = parse_kv_blocks(Path(path).read_text(encoding="utf-8"))
    if not blocks:
        raise ValidationFailure(f"{path}: no expert blocks found")
    experts, counts = [], []
    allowed = {"temperature", "top_k", "top_p", "repetition_penalty", "max_tokens", "min_tokens",
               "checkpoint_id", "seed", "count"}
    for i, kv in enumerate(blocks):
        unknown = set(kv) - allowed
        if unknown:
            raise ValidationFailure(f"{path}: expert {i}: unknown field(s): {', '.join(sorted(unknown))}")
        count = int(kv.pop("count", 0))
        if count <= 0:
            raise ValidationFailure(f"{path}: expert {i}: count must be a positive integer")
        try:
            experts.append(SamplingConfig(**kv))
        except (TypeError, ValueError) as e:
            raise ValidationFailure(f"{path}: expert {i}: {e}") from None
        counts.append(count)
    return experts, counts


def _cmd_generate(args):
    mani = ManifestWriter("generate", args.seed, {"experts": args.experts, "threads": args.threads})
    mani.add_input("checkpoint", _require_file(args.checkpoint, "--checkpoint"))
    mani.add_input("experts", _require_file(args.experts, "--experts"))
    for name in ("persons", "visits", "events"):
        mani.add_input(name, _require_file(getattr(args, name), f"--{name}"))
    model, _, _ = load_checkpoint(args.checkpoint)
    experts, counts = _load_experts(args.experts)
    if args.seed is not None:
        experts = [SamplingConfig(**{**asdict(e), "seed": e.seed + args.seed}) for e in experts]
    tables = _read_tables_args(args)
    records, _ = tables_to_records(tables)
    pool = [
        (f"year:{y}", f"age:{a}", f"gender:{g}", f"race:{r}")
        for y, a, g, r in demographics_of(records)
    ]
    corpus = generate_pool(model, experts, counts, pool, n_threads=args.threads)
    write_sequences(corpus.sequences, args.out)
    mani.add_output("sequences", args.out)
    report_path = Path(str(args.out) + ".experts.csv")
    with open(report_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["expert", "requested", "generated", "kept", "dropped_short", "hit_max_tokens"])
        for r in corpus.per_expert:
            w.writerow([r.expert, r.requested, r.generated, r.kept, r.dropped_short, r.hit_max_tokens])
    mani.add_output("expert_report", report_path)
    mani.write(_manifest_path(args, args.out))
    print(f"generated {len(corpus)} sequences from {len(experts)} expert(s)")
    return 0


def _cmd_convert(args):
    mani = ManifestWriter("convert", args.seed, {"codec_config": args.codec_config})
    mani.add_input("sequences", _require_file(args.sequences, "--sequences"))
    cfg = _load_codec_config(args.codec_config)
    sequences = read_sequences(args.sequences)
    tables, report = convert_to_tables(sequences, cfg)
    out_dir = Path(args.out_dir)
    paths = write_tables(tables, out_dir)
    report_path = out_dir / "conversion_report.csv"
    report.write_csv(report_path)
    stats_path = out_dir / "summary_stats.csv"
    if tables.persons:
        write_stats_csv(stats_path, {"synthetic": summary_stats(tables, cfg)})
        mani.add_output("summary_stats", stats_path)
    for name, p in paths.items():
        mani.add_output(name, p)
    mani.add_output("conversion_report", report_path)
    mani.write(_manifest_path(args, out_dir / "run"))
    print(f"converted {report.succeeded}/{report.attempted} sequences ({out_dir})")
    return 0


def _cmd_zeroshot(args):
    mani = ManifestWriter("zeroshot", args.seed, {"task": args.task, "threads": args.threads,
                                                  "n_bootstrap": args.n_bootstrap})
    mani.add_input("task", _require_file(args.task, "--task"))
    mani.add_input("checkpoint", _require_file(args.checkpoint, "--checkpoint"))
    mani.add_input("cohort", _require_file(args.cohort, "--cohort"))
    for name in ("persons", "visits", "events"):
        mani.add_input(name, _require_file(getattr(args, name), f"--{name}"))
    task = load_task_config(args.task)
    model, _, _ = load_checkpoint(args.checkpoint)
    codec_cfg = _load_codec_config(args.codec_config)
    ancestry = None
    if args.ancestry:
        mani.add_input("ancestry", _require_file(args.ancestry, "--ancestry"))
        ancestry = ConceptAncestry.load(args.ancestry)
    elif task.include_descendants:
        raise ValidationFailure("--ancestry: task sets include_descendants but no ancestry file was given")
    tables = _read_tables_args(args)
    records, _ = tables_to_records(tables)
    cohort_rows = load_cohort_csv(args.cohort)
    prefixes, skipped = cohort_prefixes(records, cohort_rows, codec_cfg, model.config.context_window)
    if skipped:
        print(f"warning: skipped {skipped} cohort rows without usable history or room to simulate", file=sys.stderr)
    metrics = evaluate_task(
        model, prefixes, task, seed=args.seed or 0, n_bootstrap=args.n_bootstrap,
        ancestry=ancestry, n_threads=args.threads,
    )
    write_task_metrics(args.out, metrics)
    mani.add_output("metrics", args.out)
    est = metrics.estimates
    counts = dict(
        futures_attempted=sum(e.n_attempts for e in est),
        futures_completed=sum(e.n_completed for e in est),
        futures_censored=sum(e.n_censored for e in est),
        capped_estimates=metrics.n_capped,
        lanes_launched=sum(e.n_lanes for e in est),
        lanes_discarded=sum(e.n_lanes - e.n_attempts for e in est),
    )
    mani.add_counters(**counts)
    mani.write(_manifest_path(args, args.out))
    print(f"zeroshot: {counts['futures_censored']} of {counts['futures_attempted']} futures censored, "
          f"{counts['capped_estimates']} of {metrics.n_examples} estimates capped", file=sys.stderr)
    print(
        f"{task.task_name}: AUROC {metrics.auroc.point:.4f} sd {metrics.auroc.sd:.4f}, "
        f"AUPRC {metrics.auprc.point:.4f} sd {metrics.auprc.sd:.4f} "
        f"({metrics.n_examples} examples, {metrics.n_capped} capped)"
    )
    return 0


def _cmd_probe(args):
    mani = ManifestWriter("probe", args.seed, {"l2": args.l2, "n_bootstrap": args.n_bootstrap})
    mani.add_input("checkpoint", _require_file(args.checkpoint, "--checkpoint"))
    mani.add_input("cohort", _require_file(args.cohort, "--cohort"))
    for name in ("persons", "visits", "events"):
        mani.add_input(name, _require_file(getattr(args, name), f"--{name}"))
    model, _, _ = load_checkpoint(args.checkpoint)
    codec_cfg = _load_codec_config(args.codec_config)
    tables = _read_tables_args(args)
    records, _ = tables_to_records(tables)
    cohort_rows = load_cohort_csv(args.cohort)
    data, skipped = cohort_prefixes(records, cohort_rows, codec_cfg, model.config.context_window)
    if skipped:
        print(f"warning: skipped {skipped} cohort rows without usable history or room to simulate", file=sys.stderr)
    result = linear_probe(model, data, l2=args.l2, seed=args.seed or 0, n_bootstrap=args.n_bootstrap)
    if result.params_hash_before != result.params_hash_after:
        raise RuntimeError("model weights changed during probing")
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["metric", "value", "sd", "ci_low", "ci_high"])
        w.writerow(["auroc", result.auroc.point, result.auroc.sd, result.auroc.ci_low, result.auroc.ci_high])
        w.writerow(["auprc", result.auprc.point, result.auprc.sd, result.auprc.ci_low, result.auprc.ci_high])
        w.writerow(["train_accuracy", result.train_accuracy, "", "", ""])
        w.writerow(["converged", int(result.converged), "", "", ""])
        w.writerow(["n_iterations", result.n_iterations, "", "", ""])
    if not result.converged:
        print(f"warning: the probe's logistic fit did not converge in {result.n_iterations} iterations",
              file=sys.stderr)
    mani.add_output("metrics", args.out)
    mani.write(_manifest_path(args, args.out))
    print(f"probe AUROC {result.auroc.point:.4f}, AUPRC {result.auprc.point:.4f}")
    return 0


def _cmd_prevalence(args):
    mani = ManifestWriter("prevalence", args.seed, {})
    real = _read_tables_dir(args.real_dir, "--real-dir")
    synth = _read_tables_dir(args.synthetic_dir, "--synthetic-dir")
    for f in ("persons.csv", "visits.csv", "events.csv"):
        mani.add_input(f"real_{f}", Path(args.real_dir) / f)
        mani.add_input(f"synthetic_{f}", Path(args.synthetic_dir) / f)
    rows = prevalence_report(real, synth)
    write_prevalence_csv(args.out, rows)
    mani.add_output("report", args.out)
    mani.write(_manifest_path(args, args.out))
    print(f"prevalence report: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_pathway(args):
    mani = ManifestWriter("pathway", args.seed, {"cohort_spec": args.cohort_spec})
    for name in ("persons", "visits", "events"):
        mani.add_input(name, _require_file(getattr(args, name), f"--{name}"))
    mani.add_input("cohort_spec", _require_file(args.cohort_spec, "--cohort-spec"))
    kv = parse_kv_text(Path(args.cohort_spec).read_text(encoding="utf-8"))
    allowed = {"name", "index_concepts", "lookback_days", "interval_days", "n_intervals", "domain"}
    unknown = set(kv) - allowed
    if unknown:
        raise ValidationFailure(f"{args.cohort_spec}: unknown field(s): {', '.join(sorted(unknown))}")
    if "index_concepts" not in kv:
        raise ValidationFailure(f"{args.cohort_spec}: missing required field index_concepts")
    ic = kv["index_concepts"]
    spec = CohortSpec(
        name=str(kv.get("name", "pathway")),
        index_concepts=frozenset(int(c) for c in (ic if isinstance(ic, list) else [ic])),
        lookback_days=int(kv.get("lookback_days", 365)),
        interval_days=int(kv.get("interval_days", 120)),
        n_intervals=int(kv.get("n_intervals", 9)),
        domain=str(kv.get("domain", "drug")),
    )
    tables = _read_tables_args(args)
    result = pathway_cohort(tables, spec)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["person_id"])
        for pid in result.cohort:
            w.writerow([pid])
    mani.add_output("cohort", args.out)
    mani.write(_manifest_path(args, args.out))
    print(f"{spec.name}: {len(result.cohort)}/{result.n_persons} persons ({result.prevalence:.4%})")
    return 0


def _cmd_privacy(args):
    mani = ManifestWriter("privacy", args.seed, {"config": args.config})
    cfgkv = {}
    if args.config:
        mani.add_input("config", _require_file(args.config, "--config"))
        cfgkv = parse_kv_text(Path(args.config).read_text(encoding="utf-8"))
        allowed = {"top_k_concepts", "match_tolerance", "seed", "sample_size",
                   "key_attrs", "sensitive_attrs", "quasi_identifiers"}
        unknown = set(cfgkv) - allowed
        if unknown:
            raise ValidationFailure(f"{args.config}: unknown field(s): {', '.join(sorted(unknown))}")
    train_t = _read_tables_dir(args.train_dir, "--train-dir")
    eval_t = _read_tables_dir(args.eval_dir, "--eval-dir")
    synth_t = _read_tables_dir(args.synthetic_dir, "--synthetic-dir")
    for label, d in (("train", args.train_dir), ("eval", args.eval_dir), ("synthetic", args.synthetic_dir)):
        for f in ("persons.csv", "visits.csv", "events.csv"):
            mani.add_input(f"{label}_{f}", Path(d) / f)
    def _idx(key):
        v = cfgkv.get(key)
        if v is None:
            return None
        return [int(x) for x in (v if isinstance(v, list) else [v])]

    result = audit_tables(
        train_t,
        eval_t,
        synth_t,
        top_k_concepts=int(cfgkv.get("top_k_concepts", 64)),
        seed=int(cfgkv.get("seed", args.seed or 0)),
        match_tolerance=float(cfgkv.get("match_tolerance", 0.8)),
        sample_size=int(cfgkv["sample_size"]) if "sample_size" in cfgkv else None,
        key_attrs=_idx("key_attrs"),
        sensitive_attrs=_idx("sensitive_attrs"),
        quasi_identifiers=_idx("quasi_identifiers"),
    )
    write_privacy_csv(args.out, result)
    mani.add_output("scores", args.out)
    mani.write(_manifest_path(args, args.out))
    for name, score in result.rows():
        print(f"{name}: {score:.4f} ({'PASS' if score < result.threshold else 'FAIL'})")
    print(f"overall: {'PASS' if result.passed else 'FAIL'} (threshold {result.threshold})")
    return 0


def _cmd_simstudy(args):
    mani = ManifestWriter(
        "simstudy", args.seed, {"steps": args.steps, "samples": args.samples, "early_stop": args.early_stop}
    )
    cfg = EncoderConfig(steps=args.steps)
    result = run_comparison(cfg, n_samples=args.samples, seed=args.seed or 0,
                            stop_at_convergence=args.early_stop)
    write_curves_csv(args.out, result)
    mani.add_output("curves", args.out)
    mani.write(_manifest_path(args, args.out))
    if result.convergence_step is None:
        print(f"time-token model did not reach {result.target_accuracy} within {args.steps} steps")
    else:
        gap = result.timetoken.accuracy_at(result.convergence_step) - result.summation.accuracy_at(
            result.convergence_step
        )
        print(
            f"time-token reached {result.target_accuracy} at step {result.convergence_step}; "
            f"summation accuracy there is lower by {gap:.3f}"
        )
    return 0


def _cmd_gradcheck(args):
    config = {"embed_dim": 6, "n_layers": 2, "n_heads": 2, "epsilon": 1e-5, "tolerance": 1e-4}
    if args.config:
        kv = parse_kv_text(Path(_require_file(args.config, "--config")).read_text(encoding="utf-8"))
        unknown = set(kv) - set(config)
        if unknown:
            raise ValidationFailure(f"{args.config}: unknown field(s): {', '.join(sorted(unknown))}")
        config.update(kv)
    mani = ManifestWriter("gradcheck", args.seed, config)
    err = toy_grad_check(
        embed_dim=int(config["embed_dim"]),
        n_layers=int(config["n_layers"]),
        n_heads=int(config["n_heads"]),
        seed=args.seed or 0,
        epsilon=float(config["epsilon"]),
    )
    tol = float(config["tolerance"])
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["max_relative_error", "tolerance", "verdict"])
            w.writerow([err, tol, "PASS" if err < tol else "FAIL"])
        mani.add_output("report", args.out)
        mani.write(_manifest_path(args, args.out))
    print(f"max relative gradient error {err:.3e} (tolerance {tol:g})")
    if err >= tol:
        print("gradient check FAILED", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronoseq",
        description="Time-token generative modeling of longitudinal clinical event sequences.",
    )
    parser.add_argument("--version", action="version", version=f"chronoseq {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p, manifest_anchor=True):
        p.add_argument("--seed", type=int, default=None, help="random seed (honored by every subcommand)")
        p.add_argument("--manifest", default=None, help="where to write the run manifest JSON")

    def tables_args(p):
        p.add_argument("--persons", required=True)
        p.add_argument("--visits", required=True)
        p.add_argument("--events", required=True)

    p = sub.add_parser("encode", help="event tables -> token sequences")
    tables_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--codec-config", default=None)
    p.add_argument("--vocab-out", default=None)
    common(p)

    p = sub.add_parser("decode", help="token sequences -> event tables")
    p.add_argument("--sequences", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--codec-config", default=None)
    common(p)

    p = sub.add_parser("vocab", help="build or expand a vocabulary from sequences")
    p.add_argument("--sequences", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--expand", default=None, help="existing vocabulary to extend")
    common(p)

    p = sub.add_parser("train", help="train the model on event tables")
    tables_args(p)
    p.add_argument("--train-config", required=True)
    p.add_argument("--model-config", required=True)
    p.add_argument("--codec-config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="continue from a checkpoint this command wrote (e.g. out-dir/step200.ckpt)")
    common(p)

    p = sub.add_parser("generate", help="sample synthetic sequences from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--experts", required=True, help="key-value blocks, one expert per block")
    tables_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--codec-config", default=None)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    common(p)

    p = sub.add_parser("convert", help="synthetic sequences -> event tables + report")
    p.add_argument("--sequences", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--codec-config", default=None)
    common(p)

    p = sub.add_parser("zeroshot", help="Monte-Carlo outcome prediction over a cohort")
    p.add_argument("--task", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort", required=True, help="CSV person_id,cutoff_date,label")
    tables_args(p)
    p.add_argument("--ancestry", default=None)
    p.add_argument("--codec-config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--n-bootstrap", type=int, default=1000)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    common(p)

    p = sub.add_parser("probe", help="linear probing on frozen representations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort", required=True)
    tables_args(p)
    p.add_argument("--codec-config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--l2", type=float, default=1e-2)
    p.add_argument("--n-bootstrap", type=int, default=1000)
    common(p)

    p = sub.add_parser("prevalence", help="real-vs-synthetic concept prevalence report")
    p.add_argument("--real-dir", required=True)
    p.add_argument("--synthetic-dir", required=True)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("pathway", help="treatment-pathway cohort extraction")
    tables_args(p)
    p.add_argument("--cohort-spec", required=True)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("privacy", help="four-attack privacy audit")
    p.add_argument("--train-dir", required=True)
    p.add_argument("--eval-dir", required=True)
    p.add_argument("--synthetic-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("simstudy", help="time-token vs summation encoder comparison")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--early-stop", action="store_true",
                   help="stop once the time-token model converges")
    common(p)

    p = sub.add_parser("gradcheck", help="finite-difference check of the training objective")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    common(p)

    return parser


_HANDLERS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "vocab": _cmd_vocab,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "convert": _cmd_convert,
    "zeroshot": _cmd_zeroshot,
    "probe": _cmd_probe,
    "prevalence": _cmd_prevalence,
    "pathway": _cmd_pathway,
    "privacy": _cmd_privacy,
    "simstudy": _cmd_simstudy,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help/--version and 2 for usage problems;
        # bad arguments are validation errors here
        return 0 if e.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except (ValidationFailure, ConfigParseError, RecordValidationError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
