"""CLI stages: artifact chaining, idempotency, errors, determinism."""

import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gcontrast import artifacts, contrastive, pipeline
from gcontrast.artifacts import config_fingerprint
from gcontrast.cli import STAGE_COMMANDS, main
from gcontrast.config import load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
TINY = str(CONFIGS / "tiny.ini")


def run(*argv):
    return main(list(argv))


@pytest.fixture
def pipeline_dir(tmp_path):
    run_dir = tmp_path / "run"
    assert run("pipeline", "--config", TINY, "--run-dir", str(run_dir), "--mode", "guided") == 0
    return run_dir


def contents(run_dir):
    return {p.relative_to(run_dir): p.read_bytes()
            for p in sorted(Path(run_dir).rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def finished_dir(tmp_path_factory):
    """tiny.ini `pipeline` in both modes plus `report`, in a directory that
    already exists and is empty; tests copy it before they change it."""
    run_dir = tmp_path_factory.mktemp("finished")
    for argv in (("pipeline", "--mode", "guided"), ("pipeline", "--mode", "random"), ("report",)):
        assert run(*argv, "--config", TINY, "--run-dir", str(run_dir)) == 0
    return run_dir


def _readme_layout():
    """The file names README's run-directory table lists, braces expanded."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Run directory layout\n\n```\n", 1)[1].split("```", 1)[0]
    names = [name for line in block.splitlines() if line and not line[0].isspace()
             for name in re.split(r"\s{2,}", line)[0].split(", ")]

    def expand(name):
        brace = re.search(r"\{([^}]*)\}", name)
        if not brace:
            return {name}
        options = ("guided", "random") if brace[1] == "mode" else brace[1].split(",")
        return set().union(*(expand(name.replace(brace[0], option, 1)) for option in options))

    return set().union(*map(expand, names))


def test_readme_layout_names_every_file_of_a_finished_run(finished_dir):
    assert _readme_layout() == {p.name for p in finished_dir.iterdir()}


def test_pipeline_produces_expected_artifacts(pipeline_dir):
    for name in ("run.json", "dataset_meta.json", "dae_checkpoint.json", "dae_checkpoint.bin",
                 "dae_history.csv", "latents.json", "latents.bin", "pseudo_labels.csv",
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


def _tiny_with(tmp_path, old, new):
    text = Path(TINY).read_text()
    assert old in text
    path = tmp_path / "changed.ini"
    path.write_text(text.replace(old, new))
    return str(path)


def _hash(config):
    return config_fingerprint(config.to_dict())


@pytest.mark.parametrize("variant", ["changed", "changed --force", "seed"])
@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_another_config_is_refused_and_writes_nothing(finished_dir, tmp_path, capsys,
                                                      command, variant):
    before = contents(finished_dir)
    if variant == "seed":
        config, extra = TINY, ["--seed", "123"]
    else:
        config = _tiny_with(tmp_path, "probe_epochs = 10", "probe_epochs = 3")
        extra = variant.split()[1:]
    capsys.readouterr()
    assert run(command, "--config", config, "--run-dir", str(finished_dir), *extra) == 1
    err = capsys.readouterr().err
    other = load_config(config)
    if variant == "seed":
        other.seed = 123
    bound, other = _hash(load_config(TINY)), _hash(other)
    assert bound != other and bound in err and other in err and "--run-dir" in err
    assert contents(finished_dir) == before


@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_used_directory_without_run_json_is_refused(tmp_path, capsys, command):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "results.jsonl").write_text("{}\n")
    assert run(command, "--config", TINY, "--run-dir", str(run_dir), "--force") == 1
    assert "no run.json" in capsys.readouterr().err
    assert [p.name for p in run_dir.iterdir()] == ["results.jsonl"]


def test_dataset_meta_is_not_rewritten(pipeline_dir, monkeypatch):
    # it describes the dataset, which one run directory's config fixes
    before = (pipeline_dir / "dataset_meta.json").read_bytes()
    renamed, replace = [], os.replace
    monkeypatch.setattr(artifacts.os, "replace",
                        lambda src, dst: renamed.append(os.path.basename(dst)) or replace(src, dst))
    assert run("pipeline", "--config", TINY, "--run-dir", str(pipeline_dir),
               "--mode", "random") == 0
    assert run("train-contrastive", "--config", TINY, "--run-dir", str(pipeline_dir),
               "--mode", "random", "--force") == 0
    assert "plan_random.jsonl" in renamed and "dataset_meta.json" not in renamed
    assert (pipeline_dir / "dataset_meta.json").read_bytes() == before


def _comparison_script():
    spec = importlib.util.spec_from_file_location(
        "run_comparison", ROOT / "scripts" / "run_comparison.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_comparison_refuses_a_reused_root_under_another_config(tmp_path, capsys):
    script, root = _comparison_script(), tmp_path / "root"
    assert script.main(["--config", TINY, "--run-root", str(root), "--seeds", "0"]) == 0
    before = contents(root)
    changed = _tiny_with(tmp_path, "probe_epochs = 10", "probe_epochs = 3")
    capsys.readouterr()
    assert script.main(["--config", changed, "--run-root", str(root), "--seeds", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--run-dir" in captured.err
    assert captured.out == ""
    assert contents(root) == before


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
    records = [json.loads(line) for line in
               (pipeline_dir / "plan_guided.jsonl").read_text().splitlines()]
    assert all(set(record) == {"epoch", "batch_index", "indices"} for record in records)
    assert records[0]["epoch"] == 1 and records[0]["batch_index"] == 0


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
        lines = (tmp_path / "run" / f"plan_{mode}.jsonl").read_text().splitlines()
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
        assert set(r) == {"method", "eval_name", "accuracy", "seed", "dataset_hash"}


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
    for name in ("results.jsonl", "dae_history.csv", "latents.json", "latents.bin",
                 "contrastive_guided_loss.csv", "contrastive_random_loss.csv",
                 "pseudo_labels.csv", "plan_guided.jsonl"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
