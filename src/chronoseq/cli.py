"""Single executable over the whole pipeline.

Subcommands: encode, decode, vocab, train, generate, convert, zeroshot,
probe, prevalence, pathway, privacy, simstudy, gradcheck. Exit codes: 0 on
success, 1 on validation errors (bad arguments, files, or config fields),
2 on runtime failures. Every run writes a JSON manifest describing the
resolved configuration, the seed, and the hashes of all inputs and outputs.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .codec import (
    DecodeError,
    RecordValidationError,
    build_vocabulary,
    decode_sequence,
    encode_patient,
    ingest_report,
    read_sequences,
    read_tables,
    records_to_tables,
    tables_to_records,
    write_csv,
    write_sequences,
    write_tables,
)
from .codec.vocab import Vocabulary, expand_vocabulary
from .configfile import ConfigParseError, load_config, parse_kv_blocks, read_config
from .evalharness import (
    CohortSpec,
    cohort_prefixes,
    linear_probe,
    load_cohort_csv,
    pathway_cohort,
    prevalence_report,
    write_metrics_csv,
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
from .zeroshot import ConceptAncestry, TaskConfig, evaluate_task


class ValidationFailure(ValueError):
    """User-facing input problem; maps to exit code 1."""


# ---------------------------------------------------------------------------
# inputs: each is checked, hashed into the manifest, then read


@dataclass(frozen=True)
class _ExpertBlock(SamplingConfig):
    """One block of an experts file: a sampling configuration and the number of sequences it generates."""

    count: int = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.count <= 0:
            raise ValueError("count must be a positive integer")


_GRADCHECK_DEFAULTS = {"embed_dim": 6, "n_layers": 2, "n_heads": 2, "epsilon": 1e-5, "tolerance": 1e-4}
_PRIVACY_FIELDS = {"top_k_concepts": int, "match_tolerance": float, "seed": int, "sample_size": int,
                   "key_attrs": tuple[int, ...], "sensitive_attrs": tuple[int, ...],
                   "quasi_identifiers": tuple[int, ...]}
_TABLES = ("persons", "visits", "events")


def _require_file(path, flag):
    if not Path(path).exists():
        raise ValidationFailure(f"{flag}: no such file: {path}")
    return path


def _config_input(mani, name, path, flag, schema, **kw):
    mani.add_input(name, _require_file(path, flag))
    return read_config(path, schema, **kw)


def _tables(mani, args, dir_flag=None):
    """Event tables from the --persons/--visits/--events triple, or from the directory behind dir_flag
    (e.g. "--real-dir", whose files enter the manifest as real_persons.csv, ...)."""
    if dir_flag is None:
        files = [(name, getattr(args, name), f"--{name}") for name in _TABLES]
    else:
        d = Path(getattr(args, dir_flag[2:].replace("-", "_")))
        label = dir_flag[2:].removesuffix("-dir")
        files = [(f"{label}_{name}.csv", d / f"{name}.csv", dir_flag) for name in _TABLES]
    for name, path, flag in files:
        mani.add_input(name, _require_file(path, flag))
    return read_tables(*(path for _, path, _ in files))


def _drop_counters(mani, tables, label=""):
    """Enter the rows the ingestion of tables dropped into the manifest's counters, prefixed "{label}_"
    when a label is given (e.g. synthetic_orphan_events_dropped). Read from the table set's one ingestion."""
    report = ingest_report(tables)
    prefix = f"{label}_" if label else ""
    mani.add_counters(**{f"{prefix}unknown_concept_events_dropped": report.n_unknown_concept_events_dropped,
                         f"{prefix}orphan_events_dropped": report.n_orphan_events_dropped,
                         f"{prefix}orphan_visits_dropped": report.n_orphan_visits_dropped})


def _records(mani, args):
    """(records, IngestReport) of the --persons/--visits/--events tables; the rows dropped on the way
    enter the manifest's counters."""
    tables = _tables(mani, args)
    records, report = tables_to_records(tables)
    _drop_counters(mani, tables)
    return records, report


def _cohort(mani, args, model):
    """Simulation prompts and labels of the --cohort rows, cut from the table records."""
    mani.add_input("cohort", _require_file(args.cohort, "--cohort"))
    records, _ = _records(mani, args)
    prefixes, skipped = cohort_prefixes(records, load_cohort_csv(args.cohort),
                                        context_window=model.config.context_window)
    if skipped:
        print(f"warning: skipped {skipped} cohort rows without usable history or room to simulate", file=sys.stderr)
    unseen = [p for p, _ in prefixes if any(t not in model.vocab for t in p)]
    if unseen:
        first = next(t for t in unseen[0] if t not in model.vocab)
        raise ValidationFailure(f"--cohort: {len(unseen)} of {len(prefixes)} prompts hold tokens missing from the "
                                f"checkpoint's vocabulary, first {first!r}")
    return prefixes


def _manifest_path(args, default_anchor) -> Path:
    if getattr(args, "manifest", None):
        return Path(args.manifest)
    return Path(str(default_anchor) + ".manifest.json")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_encode(args):
    mani = ManifestWriter("encode", args.seed, {})
    records, report = _records(mani, args)
    sequences = [encode_patient(r) for r in records]
    write_sequences(sequences, args.out)
    mani.add_output("sequences", args.out)
    if args.vocab_out:
        build_vocabulary(sequences).save(args.vocab_out)
        mani.add_output("vocabulary", args.vocab_out)
    mani.write(_manifest_path(args, args.out))
    print(
        f"encoded {len(sequences)} sequences "
        f"(dropped {report.n_unknown_concept_events_dropped} unknown-concept events, "
        f"{report.n_orphan_events_dropped} orphan events and {report.n_orphan_visits_dropped} orphan visits)"
    )
    return 0


def _cmd_decode(args):
    mani = ManifestWriter("decode", args.seed, {})
    mani.add_input("sequences", _require_file(args.sequences, "--sequences"))
    sequences = read_sequences(args.sequences)
    records = []
    failures: dict[str, int] = {}
    for i, seq in enumerate(sequences):
        try:
            records.append(decode_sequence(seq, person_id=seq.person_id or f"s{i + 1}",
                                           lenient_tail=seq.hit_max_tokens))
        except DecodeError as e:
            failures[e.reason] = failures.get(e.reason, 0) + 1
    out_dir = Path(args.out_dir)
    paths = write_tables(records_to_tables(records), out_dir)
    report_path = out_dir / "decode_report.csv"
    rows = [["attempted", len(sequences)], ["succeeded", len(records)]]
    rows += [[f"failed:{reason}", n] for reason, n in sorted(failures.items())]
    write_csv(report_path, ["outcome", "count"], rows)
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
    mani = ManifestWriter("train", args.seed, {"train_config": args.train_config, "model_config": args.model_config})
    tcfg = _config_input(mani, "train_config", args.train_config, "--train-config", TrainConfig)
    if args.seed is not None:
        tcfg = replace(tcfg, seed=args.seed)
    # vocab_size is known only once the corpus is encoded, which needs the context window first
    mcfg = _config_input(mani, "model_config", args.model_config, "--model-config", ModelConfig, vocab_size=1)
    records, _ = _records(mani, args)
    corpus = prepare_corpus(
        records,
        context_window=mcfg.context_window,
        min_seq_tokens=tcfg.min_seq_tokens,
        eval_fraction=tcfg.eval_fraction,
        seed=tcfg.seed,
        max_year_class=mcfg.max_td_year_class,
    )
    mcfg = replace(mcfg, vocab_size=len(corpus.vocab))
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


def _load_experts(path) -> list[_ExpertBlock]:
    try:
        blocks = parse_kv_blocks(Path(path).read_text(encoding="utf-8"))
    except ConfigParseError as e:
        raise ConfigParseError(f"{path}: {e}") from None
    if not blocks:
        raise ValidationFailure(f"{path}: no expert blocks found")
    return [load_config(kv, _ExpertBlock, f"{path}: expert {i}") for i, kv in enumerate(blocks)]


def _cmd_generate(args):
    mani = ManifestWriter("generate", args.seed, {"experts": args.experts})
    mani.add_input("experts", _require_file(args.experts, "--experts"))
    experts = _load_experts(args.experts)
    if args.seed is not None:
        experts = [replace(e, seed=e.seed + args.seed) for e in experts]
    mani.add_input("checkpoint", _require_file(args.checkpoint, "--checkpoint"))
    model, _, _ = load_checkpoint(args.checkpoint)
    records, _ = _records(mani, args)
    pool = [
        (f"year:{y}", f"age:{a}", f"gender:{g}", f"race:{r}")
        for y, a, g, r in demographics_of(records)
    ]
    corpus = generate_pool(model, experts, [e.count for e in experts], pool)
    write_sequences(corpus.sequences, args.out)
    mani.add_output("sequences", args.out)
    report_path = Path(str(args.out) + ".experts.csv")
    write_csv(report_path, ["expert", "requested", "generated", "kept", "dropped_short", "hit_max_tokens"],
              ([r.expert, r.requested, r.generated, r.kept, r.dropped_short, r.hit_max_tokens]
               for r in corpus.per_expert))
    mani.add_output("expert_report", report_path)
    counts = dict(dropped_short=sum(r.dropped_short for r in corpus.per_expert),
                  hit_max_tokens=sum(r.hit_max_tokens for r in corpus.per_expert),
                  generated_tokens=sum(r.generated_tokens for r in corpus.per_expert))
    mani.add_counters(**counts)
    mani.write(_manifest_path(args, args.out))
    print(f"generate: {counts['dropped_short']} of {sum(r.generated for r in corpus.per_expert)} sequences "
          f"dropped as shorter than min_tokens, {counts['hit_max_tokens']} hit max_tokens", file=sys.stderr)
    print(f"generated {len(corpus)} sequences from {len(experts)} expert(s)")
    return 0


def _cmd_convert(args):
    mani = ManifestWriter("convert", args.seed, {})
    mani.add_input("sequences", _require_file(args.sequences, "--sequences"))
    sequences = read_sequences(args.sequences)
    tables, report = convert_to_tables(sequences)
    out_dir = Path(args.out_dir)
    paths = write_tables(tables, out_dir)
    report_path = out_dir / "conversion_report.csv"
    report.write_csv(report_path)
    stats_path = out_dir / "summary_stats.csv"
    if tables.persons:
        write_stats_csv(stats_path, {"synthetic": summary_stats(tables)})
        mani.add_output("summary_stats", stats_path)
    for name, p in paths.items():
        mani.add_output(name, p)
    mani.add_output("conversion_report", report_path)
    mani.write(_manifest_path(args, out_dir / "run"))
    print(f"converted {report.succeeded}/{report.attempted} sequences ({out_dir})")
    return 0


def _cmd_zeroshot(args):
    mani = ManifestWriter("zeroshot", args.seed or 0, {"task": args.task, "n_bootstrap": args.n_bootstrap})
    task = _config_input(mani, "task", args.task, "--task", TaskConfig)
    ancestry = None
    if args.ancestry:
        mani.add_input("ancestry", _require_file(args.ancestry, "--ancestry"))
        ancestry = ConceptAncestry.load(args.ancestry)
    elif task.include_descendants:
        raise ValidationFailure("--ancestry: task sets include_descendants but no ancestry file was given")
    mani.add_input("checkpoint", _require_file(args.checkpoint, "--checkpoint"))
    model, _, _ = load_checkpoint(args.checkpoint)
    prefixes = _cohort(mani, args, model)
    metrics = evaluate_task(model, prefixes, task, seed=mani.seed, n_bootstrap=args.n_bootstrap, ancestry=ancestry)
    write_metrics_csv(args.out, metrics.auroc, metrics.auprc, n_examples=metrics.n_examples,
                      n_positive_labels=metrics.n_positive_labels, n_capped_estimates=metrics.n_capped)
    mani.add_output("metrics", args.out)
    est = metrics.estimates
    counts = dict(
        futures_attempted=sum(e.n_attempts for e in est),
        futures_completed=sum(e.n_completed for e in est),
        futures_censored=sum(e.n_censored for e in est),
        capped_estimates=metrics.n_capped,
        lanes_launched=sum(e.n_lanes for e in est),
        lanes_discarded=sum(e.n_lanes - e.n_attempts for e in est),
        decode_steps=metrics.decode_steps,
        lane_tokens=metrics.lane_tokens,
    )
    mani.add_counters(**counts)
    mani.write(_manifest_path(args, args.out))
    print(f"zeroshot: {counts['futures_censored']} of {counts['futures_attempted']} futures censored, "
          f"{counts['capped_estimates']} of {metrics.n_examples} estimates capped, "
          f"{metrics.lane_tokens / max(metrics.decode_steps, 1):.1f} live lanes per step "
          f"over {metrics.decode_steps} steps", file=sys.stderr)
    print(
        f"{task.task_name}: AUROC {metrics.auroc.point:.4f} sd {metrics.auroc.sd:.4f}, "
        f"AUPRC {metrics.auprc.point:.4f} sd {metrics.auprc.sd:.4f} "
        f"({metrics.n_examples} examples, {metrics.n_capped} capped)"
    )
    return 0


def _cmd_probe(args):
    mani = ManifestWriter("probe", args.seed or 0, {"l2": args.l2, "n_bootstrap": args.n_bootstrap})
    mani.add_input("checkpoint", _require_file(args.checkpoint, "--checkpoint"))
    model, _, _ = load_checkpoint(args.checkpoint)
    data = _cohort(mani, args, model)
    result = linear_probe(model, data, l2=args.l2, seed=mani.seed, n_bootstrap=args.n_bootstrap)
    if result.params_hash_before != result.params_hash_after:
        raise RuntimeError("model weights changed during probing")
    write_metrics_csv(args.out, result.auroc, result.auprc, train_accuracy=result.train_accuracy,
                      converged=int(result.converged), n_iterations=result.n_iterations)
    if not result.converged:
        print(f"warning: the probe's logistic fit did not converge in {result.n_iterations} iterations",
              file=sys.stderr)
    mani.add_output("metrics", args.out)
    mani.write(_manifest_path(args, args.out))
    print(f"probe AUROC {result.auroc.point:.4f}, AUPRC {result.auprc.point:.4f}")
    return 0


def _cmd_prevalence(args):
    mani = ManifestWriter("prevalence", args.seed, {})
    real, synthetic = _tables(mani, args, "--real-dir"), _tables(mani, args, "--synthetic-dir")
    rows = prevalence_report(real, synthetic)
    write_prevalence_csv(args.out, rows)
    _drop_counters(mani, real, "real")
    _drop_counters(mani, synthetic, "synthetic")
    mani.add_output("report", args.out)
    mani.write(_manifest_path(args, args.out))
    print(f"prevalence report: {len(rows)} rows -> {args.out}")
    return 0


def _cmd_pathway(args):
    mani = ManifestWriter("pathway", args.seed, {"cohort_spec": args.cohort_spec})
    spec = _config_input(mani, "cohort_spec", args.cohort_spec, "--cohort-spec", CohortSpec,
                         defaults={"name": "pathway"})
    tables = _tables(mani, args)
    result = pathway_cohort(tables, spec)
    write_csv(args.out, ["person_id"], ([pid] for pid in result.cohort))
    _drop_counters(mani, tables)
    mani.add_output("cohort", args.out)
    mani.write(_manifest_path(args, args.out))
    print(f"{spec.name}: {len(result.cohort)}/{result.n_persons} persons ({result.prevalence:.4%})")
    return 0


def _cmd_privacy(args):
    mani = ManifestWriter("privacy", args.seed, {"config": args.config})
    cfg = {}
    if args.config:
        cfg = _config_input(mani, "config", args.config, "--config", _PRIVACY_FIELDS)
    # --seed wins over the file's seed, as in train; the manifest records the seed used
    mani.seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    cfg["seed"] = mani.seed
    tables = [_tables(mani, args, flag) for flag in ("--train-dir", "--eval-dir", "--synthetic-dir")]
    result = audit_tables(*tables, **cfg)
    write_privacy_csv(args.out, result)
    mani.add_output("scores", args.out)
    mani.add_counters(**result.counters)
    for label, t in zip(("train", "eval", "synthetic"), tables):
        _drop_counters(mani, t, label)
    mani.write(_manifest_path(args, args.out))
    for name, score in result.rows():
        print(f"{name}: {score:.4f} ({'PASS' if score < result.threshold else 'FAIL'})")
    print(f"overall: {'PASS' if result.passed else 'FAIL'} (threshold {result.threshold})")
    return 0


def _cmd_simstudy(args):
    mani = ManifestWriter(
        "simstudy", args.seed or 0, {"steps": args.steps, "samples": args.samples, "early_stop": args.early_stop}
    )
    cfg = EncoderConfig(steps=args.steps)
    result = run_comparison(cfg, n_samples=args.samples, seed=mani.seed,
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
    config = dict(_GRADCHECK_DEFAULTS)
    if args.config:
        fields = {k: type(v) for k, v in _GRADCHECK_DEFAULTS.items()}
        config.update(read_config(_require_file(args.config, "--config"), fields))
    mani = ManifestWriter("gradcheck", args.seed or 0, config)
    tol = config["tolerance"]
    err = toy_grad_check(embed_dim=config["embed_dim"], n_layers=config["n_layers"], n_heads=config["n_heads"],
                         seed=mani.seed, epsilon=config["epsilon"])
    if args.out:
        write_csv(args.out, ["max_relative_error", "tolerance", "verdict"],
                  [[err, tol, "PASS" if err < tol else "FAIL"]])
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

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="random seed (honored by every subcommand)")
        p.add_argument("--manifest", default=None, help="where to write the run manifest JSON")

    def tables_args(p):
        p.add_argument("--persons", required=True)
        p.add_argument("--visits", required=True)
        p.add_argument("--events", required=True)

    p = sub.add_parser("encode", help="event tables -> token sequences")
    tables_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-out", default=None)
    common(p)

    p = sub.add_parser("decode", help="token sequences -> event tables")
    p.add_argument("--sequences", required=True)
    p.add_argument("--out-dir", required=True)
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
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="continue from a checkpoint this command wrote (e.g. out-dir/step200.ckpt)")
    common(p)

    p = sub.add_parser("generate", help="sample synthetic sequences from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--experts", required=True, help="key-value blocks, one expert per block")
    tables_args(p)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("convert", help="synthetic sequences -> event tables + report")
    p.add_argument("--sequences", required=True)
    p.add_argument("--out-dir", required=True)
    common(p)

    p = sub.add_parser("zeroshot", help="Monte-Carlo outcome prediction over a cohort")
    p.add_argument("--task", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort", required=True, help="CSV person_id,cutoff_date,label")
    tables_args(p)
    p.add_argument("--ancestry", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--n-bootstrap", type=int, default=1000)
    common(p)

    p = sub.add_parser("probe", help="linear probing on frozen representations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort", required=True)
    tables_args(p)
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
