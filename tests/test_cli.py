import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chronoseq.cli import main
from chronoseq.codec import PatientRecord, read_sequences, records_to_tables, tables_to_records, write_tables
from chronoseq.manifest import sha256_file
from chronoseq.synthworld import WorldConfig, sample_hospital_records


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tables")
    records = sample_hospital_records(30, seed=8, cfg=WorldConfig(visits_range=(2, 4)))
    write_tables(records_to_tables(records), d)
    return d


TABLE_HEADERS = {
    "persons.csv": "person_id,birth_year,gender_concept_id,race_concept_id",
    "visits.csv": "visit_id,person_id,visit_concept_id,start_date,end_date,discharge_concept_id",
    "events.csv": "person_id,visit_id,domain,concept_id,date",
}


def header(path):
    return path.read_text().splitlines()[0]


def tbl_args(d):
    return ["--persons", str(d / "persons.csv"), "--visits", str(d / "visits.csv"),
            "--events", str(d / "events.csv")]


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_unknown_subcommand_is_validation_error():
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0


def test_version_subprocess():
    for module in ("chronoseq.cli", "chronoseq"):
        out = subprocess.run([sys.executable, "-m", module, "--version"], capture_output=True, text=True)
        assert out.returncode == 0, (module, out.stderr)
        assert "chronoseq" in out.stdout


def test_encode_decode_roundtrip_with_manifests(table_dir, tmp_path):
    seq = tmp_path / "seq.txt"
    assert main(["encode", *tbl_args(table_dir), "--out", str(seq), "--seed", "1"]) == 0
    mani = json.loads((tmp_path / "seq.txt.manifest.json").read_text())
    assert mani["subcommand"] == "encode"
    assert mani["seed"] == 1
    assert set(mani["inputs"]) == {"persons", "visits", "events"}
    assert "sequences" in mani["outputs"]

    out_dir = tmp_path / "decoded"
    assert main(["decode", "--sequences", str(seq), "--out-dir", str(out_dir)]) == 0
    assert {name: header(out_dir / name) for name in TABLE_HEADERS} == TABLE_HEADERS
    report = (out_dir / "decode_report.csv").read_text().splitlines()
    assert report[0] == "outcome,count"
    assert "attempted,30" in report[1]
    assert "succeeded,30" in report[2]


def test_encode_reproducibility_byte_identical(table_dir, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["encode", *tbl_args(table_dir), "--out", str(a), "--seed", "7"]) == 0
    assert main(["encode", *tbl_args(table_dir), "--out", str(b), "--seed", "7"]) == 0
    assert sha256_file(a) == sha256_file(b)


def test_missing_file_is_validation_error(table_dir, tmp_path, capsys):
    rc = main(["encode", "--persons", str(table_dir / "nope.csv"),
               "--visits", str(table_dir / "visits.csv"),
               "--events", str(table_dir / "events.csv"),
               "--out", str(tmp_path / "x.txt")])
    assert rc == 1
    assert "nope.csv" in capsys.readouterr().err


def test_vocab_build_and_expand(table_dir, tmp_path):
    seq = tmp_path / "seq.txt"
    main(["encode", *tbl_args(table_dir), "--out", str(seq)])
    vocab = tmp_path / "vocab.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(vocab)]) == 0
    assert vocab.exists()
    vocab2 = tmp_path / "vocab2.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(vocab2), "--expand", str(vocab)]) == 0
    assert sha256_file(vocab) == sha256_file(vocab2)  # nothing new to add


def test_vocab_expand_malformed_base_exits_1_naming_file_and_line(table_dir, tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    main(["encode", *tbl_args(table_dir), "--out", str(seq)])
    base = tmp_path / "vocab.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(base)]) == 0
    _with_lines(base, base, lambda lines: lines[:4] + [lines[4].replace("\t", " ", 1)] + lines[5:])
    capsys.readouterr()
    out = tmp_path / "expanded.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(out), "--expand", str(base)]) == 1
    assert f"{base}:5: expected 3 tab-separated fields" in capsys.readouterr().err
    assert not out.exists()


def test_vocab_expand_base_with_a_duplicate_token_exits_1_naming_file_and_line(table_dir, tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    main(["encode", *tbl_args(table_dir), "--out", str(seq)])
    base = tmp_path / "vocab.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(base)]) == 0
    _with_lines(base, base, lambda lines: lines + [f"{len(lines)}\t" + lines[1].split("\t", 1)[1]])
    n_lines = len(base.read_text().splitlines())
    capsys.readouterr()
    out = tmp_path / "expanded.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(out), "--expand", str(base)]) == 1
    assert f"{base}:{n_lines}: duplicate token" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_records_the_default_seed(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path / "g.csv")]) == 0
    assert json.loads((tmp_path / "g.csv.manifest.json").read_text())["seed"] == 0


def test_gradcheck_pass_and_fail(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path / "g.csv"), "--seed", "0"]) == 0
    assert header(tmp_path / "g.csv") == "max_relative_error,tolerance,verdict"
    bad = tmp_path / "bad.cfg"
    bad.write_text("tolerance: 1e-12\n")
    assert main(["gradcheck", "--config", str(bad)]) == 2  # unattainable tolerance -> runtime failure
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("widget: 3\n")
    assert main(["gradcheck", "--config", str(unknown)]) == 1


def test_pathway_cli(table_dir, tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text("name: demo\nindex_concepts: [1125315]\nlookback_days: 365\n")
    out = tmp_path / "cohort.csv"
    assert main(["pathway", *tbl_args(table_dir), "--cohort-spec", str(spec), "--out", str(out)]) == 0
    assert header(out) == "person_id"
    bad = tmp_path / "bad.cfg"
    for text in ("what: 2", "outcome_concepts: [2]", "outcome_window: [1, 30]"):
        bad.write_text(f"index_concepts: [1]\n{text}\n")
        assert main(["pathway", *tbl_args(table_dir), "--cohort-spec", str(bad), "--out", str(out)]) == 1


def test_prevalence_cli(table_dir, tmp_path):
    out = tmp_path / "prev.csv"
    rc = main(["prevalence", "--real-dir", str(table_dir), "--synthetic-dir", str(table_dir),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "stratum,domain,concept_id,real_prevalence,synthetic_prevalence"
    assert len(lines) > 1


def test_privacy_cli(tmp_path):
    dirs = {}
    for name, seed in (("train", 1), ("eval", 2), ("synth", 3)):
        d = tmp_path / name
        write_tables(records_to_tables(sample_hospital_records(60, seed=seed)), d)
        dirs[name] = d
    out = tmp_path / "privacy.csv"
    rc = main(["privacy", "--train-dir", str(dirs["train"]), "--eval-dir", str(dirs["eval"]),
               "--synthetic-dir", str(dirs["synth"]), "--out", str(out), "--seed", "0"])
    assert rc == 0
    content = out.read_text()
    assert content.splitlines()[0] == "attack,score,threshold,verdict"
    assert "nnaa_risk" in content and "overall" in content


def test_prevalence_and_privacy_csvs_are_pinned(tmp_path):
    """Golden sha256 digests recorded before the audit path moved to array code: three
    seeded synthworld sets per case, audited against an independent set and against
    a copy of the training set."""
    pinned = {
        ("a", "synthetic", "prevalence"): "9b7ffb43953721c9ac40197ae94d637cfab74c230e9ff4882e4b0c1cf1eb9cf2",
        ("a", "synthetic", "privacy"): "8c4fedfbee1817a24412dae8706dcb93a00c23834d7e5aaa7147fca2ff820092",
        ("a", "train", "prevalence"): "7609fb87a19bafc4dac5dd1a3f9878aab8d1030493812779aac863c322a88815",
        ("a", "train", "privacy"): "7ef9cf95a845334db5ed78a5f418a2fef5193e1c03c966a722e58cdd04041d45",
        ("b", "synthetic", "prevalence"): "65d820b34f121c44685c5aaddfcf4fa401623c60cd6bcffde23579cf937b5fcb",
        ("b", "synthetic", "privacy"): "795186778dee24cf7700f1d5131e0216bd528919e3f04e9b03a48a21e56fbc26",
        ("b", "train", "prevalence"): "6df8d416dfed3a6514ff80e96b8f39a3bc5e2bba3ada1c11d9df2c567a2c000f",
        ("b", "train", "privacy"): "d9014fc9ac9082ec6603bbaa6c489172bd1d9368c072fa1f2a0afe4ed91f4074",
    }
    got = {}
    for case, (n, seeds) in {"a": (150, (11, 12, 13)), "b": (90, (21, 22, 23))}.items():
        dirs = {}
        for name, seed in zip(("train", "eval", "synthetic"), seeds):
            dirs[name] = tmp_path / case / name
            write_tables(records_to_tables(sample_hospital_records(n, seed=seed)), dirs[name])
        for synth in ("synthetic", "train"):
            out = tmp_path / f"{case}_{synth}_prevalence.csv"
            assert main(["prevalence", "--real-dir", str(dirs["train"]), "--synthetic-dir", str(dirs[synth]),
                         "--out", str(out)]) == 0
            got[(case, synth, "prevalence")] = sha256_file(out)
            out = tmp_path / f"{case}_{synth}_privacy.csv"
            assert main(["privacy", "--train-dir", str(dirs["train"]), "--eval-dir", str(dirs["eval"]),
                         "--synthetic-dir", str(dirs[synth]), "--out", str(out), "--seed", "3"]) == 0
            got[(case, synth, "privacy")] = sha256_file(out)
    assert got == pinned


def test_simstudy_cli(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(["simstudy", "--out", str(out), "--seed", "0", "--steps", "200", "--samples", "100"])
    assert rc == 0
    assert header(out) == "step,acc_timetoken,acc_sum"


@pytest.fixture(scope="module")
def trained_run(table_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("run")
    train_cfg = d / "train.cfg"
    train_cfg.write_text(
        "learning_rate: 1e-3\nwarmup_steps: 5\nmax_epochs: 2\ntokens_per_batch: 512\n"
        "checkpoint_every_steps: 0\nearly_stop_patience: 1000000\nmin_seq_tokens: 10\nseed: 0\n"
    )
    model_cfg = d / "model.cfg"
    model_cfg.write_text("embed_dim: 12\nn_layers: 1\nn_heads: 2\ncontext_window: 128\n")
    out_dir = d / "out"
    rc = main(["train", *tbl_args(table_dir), "--train-config", str(train_cfg),
               "--model-config", str(model_cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    return out_dir


def test_train_outputs(trained_run):
    assert (trained_run / "final.ckpt").exists()
    assert (trained_run / "best.ckpt").exists()
    assert header(trained_run / "loss_curves.csv") == "step,epoch,train_loss,eval_loss,ntp,td,tte"
    assert (trained_run / "vocabulary.tsv").exists()
    mani = json.loads((trained_run / "run.manifest.json").read_text())
    assert mani["subcommand"] == "train"


def test_train_unknown_field_is_validation_error(table_dir, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate: 1e-3\nbogus_field: 2\n")
    model_cfg = tmp_path / "model.cfg"
    model_cfg.write_text("embed_dim: 12\nn_layers: 1\nn_heads: 2\ncontext_window: 128\n")
    rc = main(["train", *tbl_args(table_dir), "--train-config", str(bad),
               "--model-config", str(model_cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def test_generate_and_convert_cli(trained_run, table_dir, tmp_path):
    experts = tmp_path / "experts.cfg"
    experts.write_text(
        "temperature: 0.9\ntop_p: 0.95\nmax_tokens: 80\nmin_tokens: 10\nseed: 1\ncount: 4\n"
        "\n"
        "temperature: 1.1\ntop_k: 50\nmax_tokens: 80\nmin_tokens: 10\nseed: 2\ncount: 3\n"
    )
    seq = tmp_path / "synthetic.txt"
    rc = main(["generate", "--checkpoint", str(trained_run / "final.ckpt"), "--experts", str(experts),
               *tbl_args(table_dir), "--out", str(seq), "--seed", "5"])
    assert rc == 0
    assert header(tmp_path / "synthetic.txt.experts.csv") == \
        "expert,requested,generated,kept,dropped_short,hit_max_tokens"
    out_dir = tmp_path / "synth_tables"
    rc = main(["convert", "--sequences", str(seq), "--out-dir", str(out_dir)])
    assert rc == 0
    assert header(out_dir / "conversion_report.csv") == "outcome,count,fraction"
    assert {name: header(out_dir / name) for name in TABLE_HEADERS} == TABLE_HEADERS


def test_zeroshot_and_probe_cli(trained_run, table_dir, tmp_path):
    import csv

    from chronoseq.codec import read_tables, tables_to_records

    records, _ = tables_to_records(read_tables(table_dir / "persons.csv", table_dir / "visits.csv",
                                               table_dir / "events.csv"))
    cohort = tmp_path / "cohort.csv"
    with open(cohort, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["person_id", "cutoff_date", "label"])
        for i, r in enumerate(records[:10]):
            w.writerow([r.person_id, r.visits[0].end_date.isoformat(), i % 2])

    task = tmp_path / "task.yml"
    task.write_text(
        'task_name: "toy_readmission"\noutcome_events: ["9201", "262"]\ninclude_descendants: false\n'
        "prediction_window_start: 0\nprediction_window_end: 30\nmax_new_tokens: 16\nn_simulations: 5\n"
    )
    out = tmp_path / "zs.csv"
    rc = main(["zeroshot", "--task", str(task), "--checkpoint", str(trained_run / "final.ckpt"),
               "--cohort", str(cohort), *tbl_args(table_dir), "--out", str(out),
               "--n-bootstrap", "20", "--seed", "3"])
    assert rc == 0
    assert header(out) == "metric,value,sd,ci_low,ci_high"
    assert "auroc" in out.read_text()

    probe_out = tmp_path / "probe.csv"
    rc = main(["probe", "--checkpoint", str(trained_run / "final.ckpt"), "--cohort", str(cohort),
               *tbl_args(table_dir), "--out", str(probe_out), "--n-bootstrap", "20", "--seed", "3"])
    assert rc == 0
    assert header(probe_out) == "metric,value,sd,ci_low,ci_high"
    assert "auroc" in probe_out.read_text()
    assert "converged,1" in probe_out.read_text()


def test_zeroshot_counters_leave_metrics_byte_identical(trained_run, table_dir, tmp_path, monkeypatch, capsys):
    import csv

    from chronoseq.codec import read_tables, tables_to_records
    from chronoseq.manifest import ManifestWriter

    records, _ = tables_to_records(read_tables(table_dir / "persons.csv", table_dir / "visits.csv",
                                               table_dir / "events.csv"))
    cohort = tmp_path / "cohort.csv"
    with open(cohort, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["person_id", "cutoff_date", "label"])
        for i, r in enumerate(records[:8]):
            w.writerow([r.person_id, r.visits[0].end_date.isoformat(), i % 2])
    task = tmp_path / "task.yml"
    task.write_text(
        'task_name: "toy"\noutcome_events: ["9201", "262"]\ninclude_descendants: false\n'
        "prediction_window_start: 0\nprediction_window_end: 30\nmax_new_tokens: 16\nn_simulations: 6\n"
    )

    def run(name):
        out = tmp_path / f"{name}.csv"
        rc = main(["zeroshot", "--task", str(task), "--checkpoint", str(trained_run / "final.ckpt"),
                   "--cohort", str(cohort), *tbl_args(table_dir), "--out", str(out),
                   "--n-bootstrap", "20", "--seed", "3"])
        assert rc == 0
        return out.read_bytes(), json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())

    with_block, mani = run("with")
    counters = mani["counters"]
    assert counters["futures_completed"] + counters["futures_censored"] == counters["futures_attempted"]
    assert counters["lanes_launched"] - counters["lanes_discarded"] == counters["futures_attempted"]
    assert 0 < counters["decode_steps"] <= counters["lane_tokens"]
    err = capsys.readouterr().err
    assert "futures censored" in err
    assert f"{counters['lane_tokens'] / counters['decode_steps']:.1f} live lanes per step" in err
    monkeypatch.setattr(ManifestWriter, "add_counters", lambda self, **counts: None)
    without_block, mani = run("without")
    assert mani["counters"] == {}
    assert with_block == without_block


def test_probe_cli_skips_cohort_prompt_longer_than_window(trained_run, table_dir, tmp_path, capsys):
    from chronoseq.codec import read_tables, tables_to_records

    records, _ = tables_to_records(read_tables(table_dir / "persons.csv", table_dir / "visits.csv",
                                               table_dir / "events.csv"))
    long_rec = sample_hospital_records(1, seed=9, cfg=WorldConfig(visits_range=(40, 45)))[0]
    long_rec = PatientRecord("long", long_rec.birth_year, long_rec.gender_concept, long_rec.race_concept,
                             long_rec.visits)
    tables = tmp_path / "tables"
    write_tables(records_to_tables([*records, long_rec]), tables)
    cohort = tmp_path / "cohort.csv"
    lines = ["person_id,cutoff_date,label"]
    lines += [f"{r.person_id},{r.visits[0].end_date.isoformat()},{i % 2}" for i, r in enumerate(records[:10])]
    lines.append(f"long,{long_rec.visits[-1].end_date.isoformat()},1")  # far more than 128 tokens
    cohort.write_text("\n".join(lines) + "\n")
    out = tmp_path / "probe.csv"
    capsys.readouterr()
    rc = main(["probe", "--checkpoint", str(trained_run / "final.ckpt"), "--cohort", str(cohort),
               *tbl_args(tables), "--out", str(out), "--n-bootstrap", "20", "--seed", "3"])
    assert rc == 0
    assert "skipped 1 cohort rows" in capsys.readouterr().err
    assert "auroc" in out.read_text()


def test_zeroshot_missing_ancestry_is_validation_error(trained_run, table_dir, tmp_path):
    task = tmp_path / "task.yml"
    task.write_text('task_name: "t"\noutcome_events: ["1"]\ninclude_descendants: true\n'
                    "prediction_window_start: 0\nprediction_window_end: 30\n")
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("person_id,cutoff_date,label\np1,2000-01-01,1\n")
    rc = main(["zeroshot", "--task", str(task), "--checkpoint", str(trained_run / "final.ckpt"),
               "--cohort", str(cohort), *tbl_args(table_dir), "--out", str(tmp_path / "o.csv")])
    assert rc == 1


@pytest.mark.parametrize("n_bootstrap", ["0", "-2"])
def test_bad_n_bootstrap_exits_1_before_any_simulation_or_prefill(trained_run, table_dir, tmp_path, monkeypatch,
                                                                  capsys, n_bootstrap):
    def never(*args, **kwargs):
        raise AssertionError("ran before n_bootstrap was checked")

    monkeypatch.setattr("chronoseq.zeroshot.evaluate.simulate_cohort", never)
    monkeypatch.setattr("chronoseq.evalharness.probe.extract_representation", never)
    task = tmp_path / "task.yml"
    task.write_text(TASK_CFG + "max_new_tokens: 8\nn_simulations: 3\n")
    ckpt = str(trained_run / "final.ckpt")
    cohort = str(_cohort_csv(table_dir, tmp_path / "cohort.csv", n=6))
    for argv in (["zeroshot", "--task", str(task)], ["probe"]):
        capsys.readouterr()
        assert main([*argv, "--checkpoint", ckpt, "--cohort", cohort, *tbl_args(table_dir),
                     "--n-bootstrap", n_bootstrap, "--out", str(tmp_path / "out.csv")]) == 1
        assert f"n_bootstrap must be at least 1, got {n_bootstrap}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


TRAIN_CFG = ("learning_rate: 1e-3\nwarmup_steps: 5\nmax_epochs: 3\ntokens_per_batch: 512\n"
             "checkpoint_every_steps: {every}\nearly_stop_patience: 1000000\nmin_seq_tokens: 10\nseed: 0\n{extra}")


def _train(table_dir, d, name, every=0, extra="", more=()):
    train_cfg = d / "train.cfg"
    train_cfg.write_text(TRAIN_CFG.format(every=every, extra=extra))
    model_cfg = d / "model.cfg"
    model_cfg.write_text("embed_dim: 12\nn_layers: 1\nn_heads: 2\ncontext_window: 128\n")
    out_dir = d / name
    rc = main(["train", *tbl_args(table_dir), "--train-config", str(train_cfg),
               "--model-config", str(model_cfg), "--out-dir", str(out_dir), *more])
    assert rc == 0
    return out_dir


def _curve_rows(out_dir):
    return (out_dir / "loss_curves.csv").read_text().splitlines()[1:]


def test_train_resume_from_cadence_checkpoint_replays_the_run(table_dir, tmp_path):
    a = _curve_rows(_train(table_dir, tmp_path, "a", every=3))
    steps = [int(r.split(",")[0]) for r in a]
    # stop B after step 3, as a killed run would, then resume it from its cadence checkpoint
    stopped = _train(table_dir, tmp_path, "b", every=3, extra="max_steps: 3\n")
    assert (stopped / "step3.ckpt").exists()
    assert steps.count(3) == 1  # step 3 falls inside an epoch, so the resume skips batches
    resumed = _train(table_dir, tmp_path, "b2", every=3, more=["--resume", str(stopped / "step3.ckpt")])
    assert _curve_rows(resumed) == a[steps.index(3) + 1:]


def test_train_resume_rejects_other_model_config(table_dir, tmp_path, trained_run, capsys):
    train_cfg = tmp_path / "t.cfg"
    train_cfg.write_text(TRAIN_CFG.format(every=0, extra=""))
    model_cfg = tmp_path / "wide.cfg"
    model_cfg.write_text("embed_dim: 24\nn_layers: 1\nn_heads: 2\ncontext_window: 128\n")
    rc = main(["train", *tbl_args(table_dir), "--train-config", str(train_cfg), "--model-config", str(model_cfg),
               "--out-dir", str(tmp_path / "o"), "--resume", str(trained_run / "final.ckpt")])
    assert rc == 1
    assert "different model config" in capsys.readouterr().err


def test_train_progress_lines_leave_outputs_byte_identical(table_dir, tmp_path, monkeypatch, capsys):
    import chronoseq.cli as cli

    def run(name):
        out_dir = _train(table_dir, tmp_path, name, every=4)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "run.manifest.json"}
        mani = json.loads((out_dir / "run.manifest.json").read_text())
        return captured, files, {k: v for k, v in mani.items() if k not in ("wall_clock_seconds", "created_utc")}

    with_log, files_with, mani_with = run("with")
    n_evals = sum(1 for r in _curve_rows(tmp_path / "with") if r.split(",")[2] == "")
    lines = with_log.err.splitlines()
    assert len(lines) == n_evals == 3
    assert all(" train loss " in ln and " eval loss " in ln for ln in lines)
    monkeypatch.setattr(cli, "_eval_progress", lambda: None)
    without_log, files_without, mani_without = run("without")
    assert without_log.err == ""
    assert with_log.out == without_log.out
    assert files_with == files_without
    for m in (mani_with, mani_without):
        m["outputs"] = {k: v["sha256"] for k, v in m["outputs"].items()}
    assert mani_with == mani_without


def test_train_manifest_records_numpy_and_thread_env_without_touching_outputs(table_dir, tmp_path, monkeypatch):
    import numpy as np

    from chronoseq.manifest import THREAD_ENV_VARS

    def run(name):
        out_dir = _train(table_dir, tmp_path, name)
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "run.manifest.json"}
        return files, json.loads((out_dir / "run.manifest.json").read_text())

    for var in THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    files_unset, mani_unset = run("unset")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    files_set, mani_set = run("set")
    assert mani_unset["numpy_version"] == mani_set["numpy_version"] == np.__version__
    assert mani_unset["thread_env"] == dict.fromkeys(THREAD_ENV_VARS)
    assert mani_set["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
    assert files_unset == files_set


def _cohort_csv(table_dir, path, n=10):
    from chronoseq.codec import read_tables, tables_to_records

    records, _ = tables_to_records(read_tables(table_dir / "persons.csv", table_dir / "visits.csv",
                                               table_dir / "events.csv"))
    lines = ["person_id,cutoff_date,label"]
    lines += [f"{r.person_id},{r.visits[0].end_date.isoformat()},{i % 2}" for i, r in enumerate(records[:n])]
    path.write_text("\n".join(lines) + "\n")
    return path


MODEL_CFG = "embed_dim: 12\nn_layers: 1\nn_heads: 2\ncontext_window: 128\n"
TASK_CFG = 'task_name: "t"\noutcome_events: ["9201"]\n'


def _config_argv(flag, cfg, table_dir, trained_run, tmp_path):
    """A command that reads cfg through flag, every other input valid."""
    good = tmp_path / "good"
    good.mkdir(exist_ok=True)
    (good / "train.cfg").write_text(TRAIN_CFG.format(every=0, extra=""))
    (good / "model.cfg").write_text(MODEL_CFG)
    ckpt = str(trained_run / "final.ckpt")
    out = str(tmp_path / "out.csv")
    dirs = ["--train-dir", str(table_dir), "--eval-dir", str(table_dir), "--synthetic-dir", str(table_dir)]
    return {
        "--train-config": ["train", *tbl_args(table_dir), "--train-config", cfg,
                           "--model-config", str(good / "model.cfg"), "--out-dir", str(tmp_path / "o")],
        "--model-config": ["train", *tbl_args(table_dir), "--train-config", str(good / "train.cfg"),
                           "--model-config", cfg, "--out-dir", str(tmp_path / "o")],
        "--experts": ["generate", "--checkpoint", ckpt, "--experts", cfg, *tbl_args(table_dir), "--out", out],
        "--task": ["zeroshot", "--task", cfg, "--checkpoint", ckpt,
                   "--cohort", str(_cohort_csv(table_dir, tmp_path / "cohort.csv")), *tbl_args(table_dir),
                   "--out", out],
        "--cohort-spec": ["pathway", *tbl_args(table_dir), "--cohort-spec", cfg, "--out", out],
        "privacy --config": ["privacy", *dirs, "--config", cfg, "--out", out],
        "gradcheck --config": ["gradcheck", "--config", cfg],
    }[flag]


CONFIG_FAULTS = [
    # (flag, file text, text stderr must name besides the file)
    ("--train-config", "learning_rate: 1e-3\nbogus_field: 2\n", "bogus_field"),
    ("--train-config", "tokens_per_batch: abc\n", "tokens_per_batch"),
    ("--model-config", MODEL_CFG + "width: 3\n", "width"),
    ("--model-config", "n_layers: 1\nn_heads: 2\ncontext_window: 128\n", "embed_dim"),
    ("--model-config", "embed_dim: 12.5\nn_layers: 1\nn_heads: 2\ncontext_window: 128\n", "embed_dim"),
    ("--experts", "temperature: 0.9\ncount: 2\n\ntemperature: 1.1\ncount: 2\nbogus: 1\n", "expert 1: unknown"),
    ("--experts", "temperature: 0.9\n", "count"),
    ("--experts", "temperature: 0.9\ncount: many\n", "count"),
    ("--task", TASK_CFG + "window: 3\n", "window"),
    ("--task", 'outcome_events: ["9201"]\n', "task_name"),
    ("--task", TASK_CFG + "n_simulations: 2.5\n", "n_simulations"),
    ("--task", TASK_CFG + "include_descendants: off\n", "include_descendants"),
    ("--cohort-spec", "index_concepts: [1]\nwhat: 2\n", "what"),
    ("--cohort-spec", "name: x\n", "index_concepts"),
    ("--cohort-spec", "index_concepts: [1]\nn_intervals: 1.5\n", "n_intervals"),
    ("privacy --config", "widget: 1\n", "widget"),
    ("privacy --config", "sample_size: lots\n", "sample_size"),
    ("gradcheck --config", "widget: 3\n", "widget"),
    ("gradcheck --config", "embed_dim: 6.5\n", "embed_dim"),
    ("--experts", "temperature: 0.9\ncount: 2\ncheckpoint_id: ckpt-1\n", "expert 0: unknown field(s): checkpoint_id"),
]


# ids start at 2 so that each case keeps its id after the list's first two rows were deleted
@pytest.mark.parametrize("flag,text,field", CONFIG_FAULTS,
                         ids=[f"{flag}:{field}:{i}" for i, (flag, _, field) in enumerate(CONFIG_FAULTS, start=2)])
def test_config_file_faults_exit_1_naming_file_and_field(flag, text, field, table_dir, trained_run, tmp_path,
                                                         capsys):
    cfg = tmp_path / "faulty.cfg"
    cfg.write_text(text)
    capsys.readouterr()
    assert main(_config_argv(flag, str(cfg), table_dir, trained_run, tmp_path)) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and field in err, err


def _readme_files():
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return dict(re.findall(r"cat > (\S+) <<EOF\n(.*?)\nEOF", readme, flags=re.S))


def _same(a, b):
    """Equal, and every field of the same type (1 == 1.0, but a float field must hold a float)."""
    from dataclasses import fields

    return a == b and all(type(getattr(a, f.name)) is type(getattr(b, f.name)) for f in fields(a))


def test_readme_config_files_load_to_expected_objects(tmp_path):
    from chronoseq.cli import _ExpertBlock, _load_experts
    from chronoseq.configfile import read_config
    from chronoseq.model import ModelConfig
    from chronoseq.training import TrainConfig
    from chronoseq.zeroshot import TaskConfig

    texts = _readme_files()
    assert set(texts) >= {"train.cfg", "model.cfg", "experts.cfg", "readmission.yml"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text + "\n")
    assert _same(read_config(tmp_path / "train.cfg", TrainConfig),
                 TrainConfig(learning_rate=2e-3, warmup_steps=150, max_epochs=80, tokens_per_batch=2048,
                             early_stop_patience=5, eval_fraction=0.1, seed=0))
    assert _same(read_config(tmp_path / "model.cfg", ModelConfig, vocab_size=100),
                 ModelConfig(vocab_size=100, embed_dim=48, n_layers=2, n_heads=4, context_window=256))
    experts = _load_experts(tmp_path / "experts.cfg")
    expected = [
        _ExpertBlock(temperature=0.6, top_p=0.95, max_tokens=200, min_tokens=20, seed=1, count=500),
        _ExpertBlock(temperature=0.75, top_k=60, max_tokens=200, min_tokens=20, seed=2, count=500),
    ]
    assert len(experts) == 2 and all(_same(a, b) for a, b in zip(experts, expected))
    assert _same(read_config(tmp_path / "readmission.yml", TaskConfig),
                 TaskConfig(task_name="30_day_readmission_prediction", outcome_events=(9201, 262),
                            include_descendants=False, prediction_window_start=0, prediction_window_end=30,
                            max_new_tokens=128))


def test_privacy_seed_flag_wins_over_config_seed(tmp_path):
    dirs = []
    for name, seed in (("train", 1), ("eval", 2), ("synth", 3)):
        write_tables(records_to_tables(sample_hospital_records(60, seed=seed)), tmp_path / name)
        dirs += [f"--{name.replace('synth', 'synthetic')}-dir", str(tmp_path / name)]

    def run(name, file_seed, *flags):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"seed: {file_seed}\nsample_size: 40\n")
        out = tmp_path / f"{name}.csv"
        assert main(["privacy", *dirs, "--config", str(cfg), "--out", str(out), *flags]) == 0
        return out.read_bytes(), json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())["seed"]

    flag_scores, flag_seed = run("flag", 5, "--seed", "7")
    file7_scores, file7_seed = run("file7", 7)
    file5_scores, file5_seed = run("file5", 5)
    assert (flag_seed, file7_seed, file5_seed) == (7, 7, 5)
    assert flag_scores == file7_scores
    assert flag_scores != file5_scores  # the seed reaches the subsampling


def test_privacy_counters_leave_scores_byte_identical(tmp_path, monkeypatch):
    from chronoseq.codec import read_tables
    from chronoseq.manifest import ManifestWriter
    from chronoseq.privacy import ProfileSpec

    dirs = []
    for name, n, seed in (("train", 60, 1), ("eval", 50, 2), ("synth", 40, 3)):
        write_tables(records_to_tables(sample_hospital_records(n, seed=seed)), tmp_path / name)
        dirs += [f"--{name.replace('synth', 'synthetic')}-dir", str(tmp_path / name)]
    cfg = tmp_path / "privacy.cfg"
    cfg.write_text("sample_size: 30\n")

    def run(name):
        out = tmp_path / f"{name}.csv"
        assert main(["privacy", *dirs, "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 0
        return out.read_bytes(), json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())

    with_block, mani = run("with")
    train = read_tables(*(tmp_path / "train" / f for f in ("persons.csv", "visits.csv", "events.csv")))
    assert mani["counters"] == dict(profile_bits=ProfileSpec.from_tables(train).dimension, train_persons=60,
                                    eval_persons=50, synthetic_persons=40, nnaa_sample=30, membership_targets=100,
                                    **{f"{label}_{k}": 0 for label in ("train", "eval", "synthetic")
                                       for k in NO_INGEST_DROPS})
    monkeypatch.setattr(ManifestWriter, "add_counters", lambda self, **counts: None)
    without_block, mani = run("without")
    assert mani["counters"] == {}
    assert with_block == without_block


def test_experts_file_opening_with_a_comment_paragraph(trained_run, table_dir, tmp_path):
    experts = tmp_path / "experts.cfg"
    experts.write_text("# two experts for the demo\n\ntemperature: 0.6\ncount: 5\n")
    seq = tmp_path / "seq.txt"
    rc = main(["generate", "--checkpoint", str(trained_run / "final.ckpt"), "--experts", str(experts),
               *tbl_args(table_dir), "--out", str(seq), "--seed", "1"])
    assert rc == 0
    rows = list(csv.DictReader(open(f"{seq}.experts.csv", newline="")))
    assert len(rows) == 1


def test_generate_counters_match_expert_report(trained_run, table_dir, tmp_path, monkeypatch, capsys):
    from chronoseq.manifest import ManifestWriter

    experts = tmp_path / "experts.cfg"
    experts.write_text("temperature: 0.9\ntop_p: 0.95\nmax_tokens: 40\nmin_tokens: 30\nseed: 1\ncount: 4\n\n"
                       "temperature: 1.1\ntop_k: 50\nmax_tokens: 80\nmin_tokens: 10\nseed: 2\ncount: 3\n")

    def run(name):
        seq = tmp_path / f"{name}.txt"
        rc = main(["generate", "--checkpoint", str(trained_run / "final.ckpt"), "--experts", str(experts),
                   *tbl_args(table_dir), "--out", str(seq), "--seed", "5"])
        assert rc == 0
        return seq, json.loads((tmp_path / f"{name}.txt.manifest.json").read_text())["counters"]

    seq, counters = run("with")
    rows = list(csv.DictReader(open(f"{seq}.experts.csv", newline="")))
    # every sampled token counts, the dropped sequences' too: at least the kept sequences' tokens after the prompt
    assert counters.pop("generated_tokens") >= sum(len(s.tokens) - 4 for s in read_sequences(seq)) > 0
    assert counters == {**{k: sum(int(r[k]) for r in rows) for k in ("dropped_short", "hit_max_tokens")},
                        **NO_INGEST_DROPS}
    assert counters["hit_max_tokens"] > 0
    assert f"{counters['dropped_short']} of 7 sequences dropped" in capsys.readouterr().err
    monkeypatch.setattr(ManifestWriter, "add_counters", lambda self, **counts: None)
    seq_without, counters_without = run("without")
    assert counters_without == {}
    assert seq.read_bytes() == seq_without.read_bytes()


def test_threads_flag_is_rejected(trained_run, table_dir, tmp_path, capsys):
    ckpt = str(trained_run / "final.ckpt")
    experts = tmp_path / "experts.cfg"
    experts.write_text("count: 1\n")
    task = tmp_path / "task.yml"
    task.write_text(TASK_CFG)
    argvs = [
        ["generate", "--checkpoint", ckpt, "--experts", str(experts), *tbl_args(table_dir),
         "--out", str(tmp_path / "syn.txt")],
        ["zeroshot", "--task", str(task), "--checkpoint", ckpt, "--cohort",
         str(_cohort_csv(table_dir, tmp_path / "cohort.csv")), *tbl_args(table_dir), "--out", str(tmp_path / "zs.csv")],
    ]
    for argv in argvs:
        capsys.readouterr()
        assert main([*argv, "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "syn.txt").exists() and not (tmp_path / "zs.csv").exists()


def test_generate_rejects_codec_config(trained_run, table_dir, tmp_path, capsys):
    """generate, and the six subcommands that used to take one, exit 1 on --codec-config: the grammar is fixed."""
    ckpt = str(trained_run / "final.ckpt")
    seq = tmp_path / "seq.txt"
    assert main(["encode", *tbl_args(table_dir), "--out", str(seq)]) == 0
    experts = tmp_path / "experts.cfg"
    experts.write_text("count: 1\n")
    task = tmp_path / "task.yml"
    task.write_text(TASK_CFG)
    (tmp_path / "model.cfg").write_text(MODEL_CFG)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG.format(every=0, extra=""))
    cohort = str(_cohort_csv(table_dir, tmp_path / "cohort.csv"))
    out, out_dir = tmp_path / "out.csv", tmp_path / "out"
    codec = tmp_path / "codec.cfg"
    codec.write_text("intra_visit_time: false\n")
    argvs = [
        ["generate", "--checkpoint", ckpt, "--experts", str(experts), *tbl_args(table_dir), "--out", str(out)],
        ["encode", *tbl_args(table_dir), "--out", str(out)],
        ["decode", "--sequences", str(seq), "--out-dir", str(out_dir)],
        ["train", *tbl_args(table_dir), "--train-config", str(tmp_path / "train.cfg"),
         "--model-config", str(tmp_path / "model.cfg"), "--out-dir", str(out_dir)],
        ["convert", "--sequences", str(seq), "--out-dir", str(out_dir)],
        ["zeroshot", "--task", str(task), "--checkpoint", ckpt, "--cohort", cohort, *tbl_args(table_dir),
         "--out", str(out)],
        ["probe", "--checkpoint", ckpt, "--cohort", cohort, *tbl_args(table_dir), "--out", str(out)],
    ]
    for argv in argvs:
        capsys.readouterr()
        assert main([*argv, "--codec-config", str(codec)]) == 1, argv[0]
        assert "unrecognized arguments: --codec-config" in capsys.readouterr().err, argv[0]
    assert not out.exists() and not out_dir.exists()


NO_INGEST_DROPS = dict(unknown_concept_events_dropped=0, orphan_events_dropped=0, orphan_visits_dropped=0)


def test_ingest_drop_counts_reach_the_manifest(trained_run, table_dir, tmp_path, capsys):
    """Every command that reads tables into records counts the rows it drops in its manifest."""
    d = tmp_path / "tables"
    d.mkdir()
    (d / "persons.csv").write_bytes((table_dir / "persons.csv").read_bytes())
    # a visit of a person missing from persons.csv
    _with_lines(table_dir / "visits.csv", d / "visits.csv", lambda ls: [*ls, "vg,ghost,9202,2001-01-01,2001-01-01,\n"])

    def file_under_another_person(lines):
        fields = lines[1].split(",")
        fields[0] = "ghost"  # person_id; the event's visit belongs to someone else
        return [lines[0], ",".join(fields), *lines[2:]]

    _with_lines(table_dir / "events.csv", d / "events.csv", file_under_another_person)
    expected = dict(NO_INGEST_DROPS, orphan_events_dropped=1, orphan_visits_dropped=1)
    capsys.readouterr()
    assert main(["encode", *tbl_args(d), "--out", str(tmp_path / "seq.txt")]) == 0
    assert "(dropped 0 unknown-concept events, 1 orphan events and 1 orphan visits)" in capsys.readouterr().out
    manifests = {"encode": tmp_path / "seq.txt.manifest.json"}

    ckpt = str(trained_run / "final.ckpt")
    experts = tmp_path / "experts.cfg"
    experts.write_text("max_tokens: 8\nmin_tokens: 1\ncount: 1\n")
    task = tmp_path / "task.yml"
    task.write_text(TASK_CFG + "max_new_tokens: 8\nn_simulations: 3\n")
    cohort = str(_cohort_csv(table_dir, tmp_path / "cohort.csv", n=6))
    for name, argv in (
        ("generate", ["--checkpoint", ckpt, "--experts", str(experts), "--out", str(tmp_path / "syn.txt")]),
        ("zeroshot", ["--task", str(task), "--checkpoint", ckpt, "--cohort", cohort, "--n-bootstrap", "5",
                      "--out", str(tmp_path / "zs.csv")]),
        ("probe", ["--checkpoint", ckpt, "--cohort", cohort, "--n-bootstrap", "5", "--out", str(tmp_path / "pr.csv")]),
    ):
        assert main([name, *argv, *tbl_args(d)]) == 0, name
        manifests[name] = tmp_path / f"{argv[-1]}.manifest.json"
    _train(d, tmp_path, "run", extra="max_steps: 1\n")
    manifests["train"] = tmp_path / "run" / "run.manifest.json"
    for name, path in manifests.items():
        counters = json.loads(path.read_text())["counters"]
        assert {k: counters[k] for k in expected} == expected, name


def test_audit_manifests_count_each_table_sets_drops(table_dir, tmp_path):
    """privacy, prevalence and pathway record each table set's drop counts, as tables_to_records reports them."""
    from chronoseq.codec import read_tables

    dirty = tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "persons.csv").write_bytes((table_dir / "persons.csv").read_bytes())
    _with_lines(table_dir / "visits.csv", dirty / "visits.csv",
                lambda ls: [*ls, "vg,ghost,9202,2001-01-01,2001-01-01,\n"])  # a visit of a missing person

    def one_unknown_and_one_orphan(lines):
        unknown = lines[1].split(",")
        unknown[3] = "0"
        orphan = lines[2].split(",")
        orphan[1] = "v-missing"
        return [*lines, ",".join(unknown), ",".join(orphan)]

    _with_lines(table_dir / "events.csv", dirty / "events.csv", one_unknown_and_one_orphan)
    _, report = tables_to_records(read_tables(*(dirty / f"{name}.csv" for name in ("persons", "visits", "events"))))
    drops = dict(unknown_concept_events_dropped=report.n_unknown_concept_events_dropped,
                 orphan_events_dropped=report.n_orphan_events_dropped,
                 orphan_visits_dropped=report.n_orphan_visits_dropped)
    assert drops == dict(unknown_concept_events_dropped=1, orphan_events_dropped=1, orphan_visits_dropped=1)

    def counters(argv, out):
        assert main([*argv, "--out", str(out)]) == 0, argv[0]
        return json.loads(Path(f"{out}.manifest.json").read_text())["counters"]

    got = counters(["prevalence", "--real-dir", str(table_dir), "--synthetic-dir", str(dirty)], tmp_path / "prev.csv")
    assert got == {**{f"real_{k}": 0 for k in drops}, **{f"synthetic_{k}": v for k, v in drops.items()}}
    got = counters(["privacy", "--train-dir", str(dirty), "--eval-dir", str(table_dir), "--synthetic-dir", str(dirty),
                    "--seed", "0"], tmp_path / "privacy.csv")
    assert {k: got[k] for k in got if k.endswith("_dropped")} == {
        **{f"train_{k}": v for k, v in drops.items()}, **{f"eval_{k}": 0 for k in drops},
        **{f"synthetic_{k}": v for k, v in drops.items()}}
    spec = tmp_path / "spec.cfg"
    spec.write_text("name: demo\nindex_concepts: [1125315]\n")
    got = counters(["pathway", *tbl_args(dirty), "--cohort-spec", str(spec)], tmp_path / "cohort.csv")
    assert got == drops


@pytest.mark.parametrize("command", ["encode", "privacy", "prevalence"])
def test_an_unknown_event_domain_exits_1_naming_the_file_and_line(command, table_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("persons.csv", "visits.csv"):
        (bad / name).write_bytes((table_dir / name).read_bytes())

    def measurement(lines):
        fields = lines[3].split(",")
        fields[2] = "measurement"
        return [*lines[:3], ",".join(fields), *lines[4:]]

    _with_lines(table_dir / "events.csv", bad / "events.csv", measurement)
    out = tmp_path / "out.csv"
    argv = {
        "encode": ["encode", *tbl_args(bad)],
        "privacy": ["privacy", "--train-dir", str(table_dir), "--eval-dir", str(table_dir), "--synthetic-dir", str(bad)],
        "prevalence": ["prevalence", "--real-dir", str(table_dir), "--synthetic-dir", str(bad)],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bad / 'events.csv'}, line 4: unknown domain 'measurement'" in err
    assert not out.exists()


def _with_lines(src, dst, edit):
    """Copy the text file src to dst with its list of lines (terminators kept) passed through edit."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    dst.write_text("".join(edit(lines)), encoding="utf-8")
    return dst


def test_table_rows_blank_skipped_short_rejected_naming_file_and_line(table_dir, tmp_path, capsys):
    d = tmp_path / "tables"
    d.mkdir()
    for name in ("persons.csv", "visits.csv"):
        (d / name).write_bytes((table_dir / name).read_bytes())
    # a blank line inside events.csv and a trailing one
    _with_lines(table_dir / "events.csv", d / "events.csv", lambda ls: [*ls[:3], "\r\n", *ls[3:], "\r\n"])
    assert main(["encode", *tbl_args(table_dir), "--out", str(tmp_path / "a.txt")]) == 0
    assert main(["encode", *tbl_args(d), "--out", str(tmp_path / "b.txt")]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    # the last visits row without its last field
    visits = _with_lines(table_dir / "visits.csv", d / "visits.csv",
                         lambda ls: [*ls[:-1], ls[-1].rstrip("\r\n").rsplit(",", 1)[0] + "\r\n"])
    n_lines = len(visits.read_text().splitlines())
    capsys.readouterr()
    assert main(["encode", *tbl_args(d), "--out", str(tmp_path / "c.txt")]) == 1
    err = capsys.readouterr().err
    assert f"{visits}, line {n_lines}: expected 6 fields, got 5" in err, err
    assert not (tmp_path / "c.txt").exists()


def test_cohort_rows_blank_skipped_short_rejected_naming_file_and_line(trained_run, table_dir, tmp_path, capsys):
    task = tmp_path / "task.yml"
    task.write_text(TASK_CFG + "max_new_tokens: 8\nn_simulations: 3\n")
    cohort = _cohort_csv(table_dir, tmp_path / "cohort.csv", n=6)

    def run(cohort_file, name):
        out = tmp_path / name
        argv = ["zeroshot", "--task", str(task), "--checkpoint", str(trained_run / "final.ckpt"),
                "--cohort", str(cohort_file), *tbl_args(table_dir), "--out", str(out), "--n-bootstrap", "5"]
        return main(argv), out

    rc, plain = run(cohort, "plain.csv")
    assert rc == 0
    blanks = _with_lines(cohort, tmp_path / "blanks.csv", lambda ls: [*ls[:2], "\n", "  \n", *ls[2:], "\n"])
    rc, spaced = run(blanks, "spaced.csv")
    assert rc == 0 and spaced.read_bytes() == plain.read_bytes()
    short = _with_lines(cohort, tmp_path / "short.csv", lambda ls: [*ls[:2], ls[2].rsplit(",", 1)[0] + "\n", *ls[3:]])
    capsys.readouterr()
    rc, _ = run(short, "short_out.csv")
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{short}, line 3: expected 3 fields, got 2" in err, err


def test_cohort_prompt_with_a_concept_the_checkpoint_lacks_exits_1(trained_run, table_dir, tmp_path, capsys):
    d = tmp_path / "tables"
    d.mkdir()
    for name in ("persons.csv", "visits.csv"):
        (d / name).write_bytes((table_dir / name).read_bytes())

    def rename_first_event(lines):
        fields = lines[1].split(",")
        fields[3] = "987654"  # concept_id
        return [lines[0], ",".join(fields), *lines[2:]]

    _with_lines(table_dir / "events.csv", d / "events.csv", rename_first_event)
    task = tmp_path / "task.yml"
    task.write_text(TASK_CFG + "max_new_tokens: 8\nn_simulations: 3\n")
    cohort = _cohort_csv(table_dir, tmp_path / "cohort.csv", n=6)
    common = ["--checkpoint", str(trained_run / "final.ckpt"), "--cohort", str(cohort), *tbl_args(d),
              "--n-bootstrap", "5"]
    for argv in (["zeroshot", "--task", str(task), *common, "--out", str(tmp_path / "zs.csv")],
                 ["probe", *common, "--out", str(tmp_path / "probe.csv")]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "1 of 6 prompts" in err and "'c:987654'" in err, err


def test_ancestry_rows_blank_skipped_short_rejected_naming_file_and_line(trained_run, table_dir, tmp_path, capsys):
    task = tmp_path / "task.yml"
    task.write_text(TASK_CFG + "include_descendants: true\nmax_new_tokens: 8\nn_simulations: 3\n")
    cohort = _cohort_csv(table_dir, tmp_path / "cohort.csv", n=6)
    ancestry = tmp_path / "ancestry.csv"

    def run(text):
        ancestry.write_text(text)
        capsys.readouterr()
        rc = main(["zeroshot", "--task", str(task), "--checkpoint", str(trained_run / "final.ckpt"),
                   "--cohort", str(cohort), *tbl_args(table_dir), "--ancestry", str(ancestry),
                   "--out", str(tmp_path / "zs.csv"), "--n-bootstrap", "5"])
        return rc, capsys.readouterr().err

    assert run("ancestor_id,descendant_id\n\n9201,262\n\n")[0] == 0
    rc, err = run("ancestor_id,descendant_id\n9201,262\n9201\n")
    assert rc == 1 and f"{ancestry}, line 3: expected 2 fields, got 1" in err, err
    rc, err = run("9201,262\nancestor_id,descendant_id\n")  # only the first row may be a header
    assert rc == 1 and f"{ancestry}, line 2: concept ids must be integers" in err, err
