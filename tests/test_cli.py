import json
import subprocess
import sys

import pytest

from chronoseq.cli import main
from chronoseq.codec import PatientRecord, records_to_tables, write_tables
from chronoseq.manifest import sha256_file
from chronoseq.synthworld import WorldConfig, sample_hospital_records


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tables")
    records = sample_hospital_records(30, seed=8, cfg=WorldConfig(visits_range=(2, 4)))
    write_tables(records_to_tables(records), d)
    return d


def tbl_args(d):
    return ["--persons", str(d / "persons.csv"), "--visits", str(d / "visits.csv"),
            "--events", str(d / "events.csv")]


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_unknown_subcommand_is_validation_error():
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0


def test_version_subprocess():
    out = subprocess.run([sys.executable, "-m", "chronoseq.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
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
    assert (out_dir / "persons.csv").exists()
    report = (out_dir / "decode_report.csv").read_text().splitlines()
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


def test_codec_config_file(table_dir, tmp_path):
    cfg = tmp_path / "codec.cfg"
    cfg.write_text("inpatient_concepts: [9201, 262]\nintra_visit_time: false\n")
    seq = tmp_path / "seq.txt"
    assert main(["encode", *tbl_args(table_dir), "--out", str(seq), "--codec-config", str(cfg)]) == 0
    assert "i-D" not in seq.read_text()  # intra-visit timing disabled
    bad = tmp_path / "bad.cfg"
    bad.write_text("inpatient: [1]\n")
    assert main(["encode", *tbl_args(table_dir), "--out", str(seq), "--codec-config", str(bad)]) == 1


def test_vocab_build_and_expand(table_dir, tmp_path):
    seq = tmp_path / "seq.txt"
    main(["encode", *tbl_args(table_dir), "--out", str(seq)])
    vocab = tmp_path / "vocab.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(vocab)]) == 0
    assert vocab.exists()
    vocab2 = tmp_path / "vocab2.tsv"
    assert main(["vocab", "--sequences", str(seq), "--out", str(vocab2), "--expand", str(vocab)]) == 0
    assert sha256_file(vocab) == sha256_file(vocab2)  # nothing new to add


def test_gradcheck_pass_and_fail(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path / "g.csv"), "--seed", "0"]) == 0
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
    assert out.read_text().splitlines()[0] == "person_id"
    bad = tmp_path / "bad.cfg"
    bad.write_text("index_concepts: [1]\nwhat: 2\n")
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
    assert "nnaa_risk" in content and "overall" in content


def test_simstudy_cli(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(["simstudy", "--out", str(out), "--seed", "0", "--steps", "200", "--samples", "100"])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "step,acc_timetoken,acc_sum"


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
    assert (trained_run / "loss_curves.csv").exists()
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
               *tbl_args(table_dir), "--out", str(seq), "--threads", "2", "--seed", "5"])
    assert rc == 0
    assert (tmp_path / "synthetic.txt.experts.csv").exists()
    out_dir = tmp_path / "synth_tables"
    rc = main(["convert", "--sequences", str(seq), "--out-dir", str(out_dir)])
    assert rc == 0
    report = (out_dir / "conversion_report.csv").read_text()
    assert report.splitlines()[0] == "outcome,count,fraction"


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
               "--n-bootstrap", "20", "--seed", "3", "--threads", "2"])
    assert rc == 0
    assert "auroc" in out.read_text()

    probe_out = tmp_path / "probe.csv"
    rc = main(["probe", "--checkpoint", str(trained_run / "final.ckpt"), "--cohort", str(cohort),
               *tbl_args(table_dir), "--out", str(probe_out), "--n-bootstrap", "20", "--seed", "3"])
    assert rc == 0
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
                   "--n-bootstrap", "20", "--seed", "3", "--threads", "1"])
        assert rc == 0
        return out.read_bytes(), json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())

    with_block, mani = run("with")
    counters = mani["counters"]
    assert counters["futures_completed"] + counters["futures_censored"] == counters["futures_attempted"]
    assert counters["lanes_launched"] - counters["lanes_discarded"] == counters["futures_attempted"]
    assert "futures censored" in capsys.readouterr().err
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
