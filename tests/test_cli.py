"""CLI stages: artifact chaining, idempotency, errors, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from gcontrast import contrastive, pipeline
from gcontrast.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TINY = str(CONFIGS / "tiny.ini")


def run(*argv):
    return main(list(argv))


@pytest.fixture
def pipeline_dir(tmp_path):
    run_dir = tmp_path / "run"
    assert run("pipeline", "--config", TINY, "--run-dir", str(run_dir), "--mode", "guided") == 0
    return run_dir


def test_pipeline_produces_expected_artifacts(pipeline_dir):
    for name in ("dataset_meta.json", "dae_checkpoint.json", "dae_checkpoint.bin",
                 "dae_history.csv", "latents.csv", "pseudo_labels.csv",
                 "plan_guided.jsonl", "contrastive_guided_encoder.json",
                 "contrastive_guided_loss.csv", "results.jsonl"):
        assert (pipeline_dir / name).exists(), name


def test_both_modes_plus_report_render_comparison(pipeline_dir, capsys):
    assert run("pipeline", "--config", TINY, "--run-dir", str(pipeline_dir),
               "--mode", "random") == 0
    assert run("report", "--config", TINY, "--run-dir", str(pipeline_dir)) == 0
    out = capsys.readouterr().out
    assert "guided" in out and "random-baseline" in out
    for col in ("P1", "P2", "P3", "finetune"):
        assert col in out
    assert (pipeline_dir / "report_table.csv").exists()
    assert (pipeline_dir / "report_losses.csv").exists()


def test_missing_upstream_names_producer(tmp_path, capsys):
    rc = run("cluster", "--config", TINY, "--run-dir", str(tmp_path / "empty"))
    assert rc == 1
    assert "train-dae" in capsys.readouterr().err


def test_probe_missing_contrastive_names_producer(tmp_path, capsys):
    rc = run("probe", "--config", TINY, "--run-dir", str(tmp_path / "empty"))
    assert rc == 1
    assert "train-contrastive" in capsys.readouterr().err


def test_invalid_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[cluster]\nk = 0\n")
    rc = run("train-dae", "--config", str(bad), "--run-dir", str(tmp_path / "r"))
    assert rc == 1
    assert "cluster.k" in capsys.readouterr().err


def test_rerun_is_noop_without_force(pipeline_dir, capsys):
    before = (pipeline_dir / "dae_checkpoint.bin").read_bytes()
    assert run("train-dae", "--config", TINY, "--run-dir", str(pipeline_dir)) == 0
    err = capsys.readouterr().err
    assert "skipping" in err
    assert (pipeline_dir / "dae_checkpoint.bin").read_bytes() == before


def test_force_recomputes(pipeline_dir, capsys):
    assert run("train-dae", "--config", TINY, "--run-dir", str(pipeline_dir),
               "--force") == 0
    err = capsys.readouterr().err
    assert "skipping" not in err
    assert "best epoch" in err


def test_changed_seed_invalidates_cache(pipeline_dir, capsys):
    assert run("train-dae", "--config", TINY, "--run-dir", str(pipeline_dir),
               "--seed", "123") == 0
    err = capsys.readouterr().err
    assert "skipping" not in err


def _tiny_with(tmp_path, old, new):
    text = Path(TINY).read_text()
    assert old in text
    path = tmp_path / "changed.ini"
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize("command,old,new,producer", [
    ("cluster", "k = 8", "k = 4", "train-dae"),
    ("plan", "k = 8", "k = 4", "cluster"),
    ("train-contrastive", "k = 8", "k = 4", "cluster"),
    ("probe", "probe_epochs = 10", "probe_epochs = 3", "train-contrastive --mode guided"),
    ("finetune", "probe_epochs = 10", "probe_epochs = 3", "train-contrastive --mode guided"),
])
def test_stale_upstream_artifact_is_refused(pipeline_dir, tmp_path, capsys,
                                            command, old, new, producer):
    # the upstream files were written under tiny.ini's hash, not this config's
    before = {p.name: p.read_bytes() for p in pipeline_dir.iterdir()}
    capsys.readouterr()
    rc = run(command, "--config", _tiny_with(tmp_path, old, new),
             "--run-dir", str(pipeline_dir), "--mode", "guided")
    assert rc == 1
    err = capsys.readouterr().err
    assert "stale artifact" in err and f"run `{producer}` first" in err
    assert {p.name: p.read_bytes() for p in pipeline_dir.iterdir()} == before


def test_artifact_without_stored_hash_counts_as_stale(pipeline_dir, capsys):
    history = pipeline_dir / "dae_history.csv"
    lines = history.read_text().splitlines(keepends=True)
    assert lines[0].startswith("# config_hash=")
    history.write_text("".join(lines[1:]))
    capsys.readouterr()
    assert run("train-dae", "--config", TINY, "--run-dir", str(pipeline_dir)) == 0
    err = capsys.readouterr().err
    assert "skipping" not in err and "best epoch" in err
    assert history.read_text() == "".join(lines)


def test_forced_probe_rewrites_results_once(pipeline_dir, monkeypatch):
    rewrites = []
    write_jsonl = pipeline.write_jsonl
    monkeypatch.setattr(pipeline, "write_jsonl",
                        lambda path, records: rewrites.append(path) or write_jsonl(path, records))
    assert run("probe", "--config", TINY, "--run-dir", str(pipeline_dir), "--force") == 0
    path = pipeline_dir / "results.jsonl"
    assert rewrites == [str(path)]
    evals = [json.loads(line)["eval_name"] for line in path.read_text().splitlines()]
    assert evals == ["finetune", "P1", "P2", "P3"]


def test_degenerate_guided_plan_warns(tmp_path, capsys):
    # k=2 clusters but batch size 8: stratification cannot fill a batch
    cfg = tmp_path / "degenerate.ini"
    cfg.write_text("""
[dataset]
classes = 2
per_class = 16
image_size = 8
[dae]
encoder_blocks = 8:3:2
epochs = 1
val_fraction = 0.2
batch_size = 8
[cluster]
k = 2
[scheduler]
p = 8
[contrastive]
epochs = 1
encoder_blocks = 8:3:2
head_widths = 8, 6, 4
[eval]
val_fraction = 0.25
probe_epochs = 2
""")
    run_dir = tmp_path / "run"
    assert run("train-dae", "--config", str(cfg), "--run-dir", str(run_dir)) == 0
    assert run("cluster", "--config", str(cfg), "--run-dir", str(run_dir)) == 0
    assert run("plan", "--config", str(cfg), "--run-dir", str(run_dir)) == 0
    assert "degenerates toward random" in capsys.readouterr().err


def test_plan_jsonl_layout(pipeline_dir):
    lines = (pipeline_dir / "plan_guided.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert "config_hash" in head
    record = json.loads(lines[1])
    assert set(record) == {"epoch", "batch_index", "indices"}
    assert record["epoch"] == 1 and record["batch_index"] == 0


def test_plan_file_holds_the_trained_batches(tmp_path, monkeypatch):
    # training calls contrastive's plan builders; stage_plan calls its own
    trained = []
    for name in ("build_guided_plan", "build_random_plan"):
        def recording(*args, _build=getattr(contrastive, name), **kwargs):
            trained.append(_build(*args, **kwargs))
            return trained[-1]
        monkeypatch.setattr(contrastive, name, recording)
    run_dir = str(tmp_path / "run")
    stages = {"guided": ("train-dae", "cluster", "plan", "train-contrastive"),
              "random": ("plan", "train-contrastive")}
    for mode, commands in stages.items():
        trained.clear()
        for command in commands:
            assert run(command, "--config", TINY, "--run-dir", run_dir, "--mode", mode) == 0
        lines = (tmp_path / "run" / f"plan_{mode}.jsonl").read_text().splitlines()[1:]
        on_disk = [(r["epoch"], r["batch_index"], r["indices"]) for r in map(json.loads, lines)]
        assert len(trained) == 2  # tiny.ini trains 2 epochs
        assert on_disk == [(epoch, bi, [int(i) for i in batch])
                           for epoch, plan in enumerate(trained, start=1)
                           for bi, batch in enumerate(plan.batches)], mode


def test_results_records_carry_hashes(pipeline_dir):
    records = [json.loads(line) for line in
               (pipeline_dir / "results.jsonl").read_text().splitlines()]
    assert records
    for r in records:
        assert set(r) == {"method", "eval_name", "accuracy", "seed",
                          "config_hash", "dataset_hash"}


def test_report_refuses_mixed_dataset_hashes(pipeline_dir, capsys):
    path = pipeline_dir / "results.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    tampered = dict(records[0], dataset_hash="deadbeefdeadbeef", eval_name="P9")
    with path.open("a") as fh:
        fh.write(json.dumps(tampered) + "\n")
    rc = run("report", "--config", TINY, "--run-dir", str(pipeline_dir))
    assert rc == 2
    assert "refusing" in capsys.readouterr().err


def test_two_pipeline_runs_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        for mode in ("guided", "random"):
            assert run("pipeline", "--config", TINY, "--run-dir", str(d),
                       "--mode", mode) == 0
    for name in ("results.jsonl", "dae_history.csv", "latents.csv",
                 "contrastive_guided_loss.csv", "contrastive_random_loss.csv",
                 "pseudo_labels.csv", "plan_guided.jsonl"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
