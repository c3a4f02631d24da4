"""CLI stages: artifact chaining, idempotency, errors, determinism."""

import ast
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gcontrast import artifacts, cli, contrastive, data, pipeline
from gcontrast.artifacts import config_fingerprint
from gcontrast.cli import STAGE_COMMANDS, main
from gcontrast.config import load_config
from gcontrast.seeds import derive_seed
from gcontrast.tensor import ShapeError
from helpers import MALFORMED_CONFIGS

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
    for name in ("run.json", "dae_checkpoint.json", "dae_checkpoint.bin", "dae_history.csv",
                 "latents.json", "latents.bin", "pseudo_labels.csv",
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


@pytest.mark.parametrize("name", MALFORMED_CONFIGS)
def test_malformed_config_exits_1_before_any_work(tmp_path, capsys, name):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(MALFORMED_CONFIGS[name][0])
    assert run("pipeline", "--config", str(bad), "--run-dir", str(tmp_path / "r")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:\n") and str(bad) in err
    assert not (tmp_path / "r").exists()


def test_default_section_exits_1_before_any_work(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[DEFAULT]\nseed = 1\n")
    assert run("pipeline", "--config", str(bad), "--run-dir", str(tmp_path / "r")) == 1
    assert capsys.readouterr().err == "error: invalid config:\n  unknown section [DEFAULT]\n"
    assert not (tmp_path / "r").exists()


def test_cifar10_source_with_wrong_image_shape_exits_1_before_any_work(tmp_path, capsys):
    config = _tiny_with(tmp_path, "source = synthetic", "source = cifar10\npath = batches")
    rc = run("train-dae", "--config", config, "--run-dir", str(tmp_path / "r"))
    assert rc == 1
    assert "dataset.image_size: must be 32" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("old, new, key", [
    ("[dae]\nencoder_blocks = 8:3:2, 16:3:2", "[dae]\nencoder_blocks = 32:3:0",
     "dae.encoder_blocks: filters, kernel and stride must be >= 1, got 32:3:0"),
    ("[dae]\nencoder_blocks = 8:3:2, 16:3:2", "[dae]\nencoder_blocks = 8:3:3",
     "dae.encoder_blocks: encoder layer 0 (filters=8): spatial size 8 not divisible by stride 3"),
    ("epochs = 2\nencoder_blocks = 8:3:2", "epochs = 2\nencoder_blocks = 8:0:2",
     "contrastive.encoder_blocks: filters, kernel and stride must be >= 1, got 8:0:2"),
    ("k = 8", "k = 5000", "cluster.k: 5000 exceeds the 128 images it clusters"),
    ("per_class = 32\n", "per_class = 32\nsubset_size = 99999\n",
     "dataset.subset_size: 99999 exceeds the dataset's 128 images"),
    ("finetune_fraction = 0.10", "finetune_fraction = 0.01",
     "eval.finetune_fraction: 0.01 picks no fine-tune image from class 0's 24 training images"),
    ("image_size = 8\n", "image_size = 8\nchannels = 3\n", "dataset.channels: unknown key"),
    ("val_fraction = 0.2\n", "val_fraction = 0.999\n",
     "dae.val_fraction: 0.999 holds out all 128 images, leaving none to train on"),
], ids=["dae-zero-stride", "dae-stride-3", "contrastive-zero-kernel", "k", "subset_size",
        "finetune_fraction", "channels", "dae-val_fraction"])
def test_config_that_cannot_run_exits_1_before_any_work(tmp_path, capsys, old, new, key):
    config = _tiny_with(tmp_path, old, new)
    assert run("pipeline", "--config", config, "--run-dir", str(tmp_path / "r")) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {key}"]
    assert not (tmp_path / "r").exists()


def test_subset_that_empties_an_eval_class_exits_1_before_any_work(tmp_path, capsys):
    # 6 images over 4 classes leave classes of 2, 2, 1 and 1 images, and a
    # quarter of 2 rounds to no validation image
    text = Path(TINY).read_text()
    for old, new in (("per_class = 32\n", "per_class = 32\nsubset_size = 6\n"),
                     ("k = 8", "k = 2"), ("p = 8", "p = 2")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    (tmp_path / "subset.ini").write_text(text)
    assert run("pipeline", "--config", str(tmp_path / "subset.ini"),
               "--run-dir", str(tmp_path / "r")) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [
        "  eval.val_fraction: 0.25 splits class 0's 2 images into 0 validation and 2 "
        "training images; each needs at least 1"]
    assert not (tmp_path / "r").exists()


def _cifar_tiny(tmp_path, name, path, *changes):
    """tiny.ini reading 32x32 cifar10 batches at `path`, with more changes."""
    text = Path(TINY).read_text().replace(
        "source = synthetic\n", f"source = cifar10\npath = {path}\n").replace(
        "image_size = 8", "image_size = 32")
    for old, new in changes:
        assert old in text
        text = text.replace(old, new)
    (tmp_path / name).write_text(text)
    return str(tmp_path / name)


@pytest.fixture
def cifar_batches(tmp_path):
    """32 images, 8 per class, in the cifar10 binary layout."""
    path = tmp_path / "batches"
    data.save_cifar10_binary(data.make_synthetic(4, 8, 32, seed=0), path)
    return path


def test_failed_first_command_leaves_the_directory_to_the_corrected_config(
        tmp_path, capsys, cifar_batches):
    run_dir = tmp_path / "r"
    broken = _cifar_tiny(tmp_path, "broken.ini", tmp_path / "nowhere")
    assert run("train-dae", "--config", broken, "--run-dir", str(run_dir)) == 2
    assert "missing batch file data_batch_1.bin" in capsys.readouterr().err
    assert [p.name for p in run_dir.iterdir()] == ["run.json"]
    fixed = _cifar_tiny(tmp_path, "fixed.ini", cifar_batches)
    assert run("train-dae", "--config", fixed, "--run-dir", str(run_dir)) == 0
    bound = json.loads((run_dir / "run.json").read_text())["config_hash"]
    assert bound == _hash(load_config(fixed))


def test_a_diverged_first_command_leaves_the_directory_to_the_corrected_config(tmp_path, capsys):
    # the failed command read the dataset, so its run.json bound the dataset
    # hash too; still nothing but run.json is left, and that is rebound
    run_dir = tmp_path / "r"
    diverging = _tiny_with(tmp_path, "sigma = 0.01", "sigma = 1e30")
    assert run("train-dae", "--config", diverging, "--run-dir", str(run_dir)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    # noise of sigma 1e30 overflows float32 in the first batch
    assert line.startswith("runtime failure: training diverged at epoch 1, batch 0: mul:")
    assert [p.name for p in run_dir.iterdir()] == ["run.json"]
    assert run("train-dae", "--config", TINY, "--run-dir", str(run_dir)) == 0
    assert json.loads((run_dir / "run.json").read_text())["config_hash"] == _hash(
        load_config(TINY))


@pytest.mark.parametrize("left", [("run.json", "dae_checkpoint.bin.tmp"), ("run.json.tmp",)],
                         ids=["outputs-tmp", "run-json-tmp"])
def test_a_killed_first_write_leaves_the_directory_to_the_corrected_config(tmp_path, left):
    # a kill skips the removal of a write's .tmp file, which is not an output
    run_dir, clean = tmp_path / "r", tmp_path / "clean"
    assert run("train-dae", "--config", TINY, "--run-dir", str(run_dir)) == 0
    for path in run_dir.iterdir():
        if path.name + ".tmp" in left:  # killed before its rename
            path.rename(path.with_name(path.name + ".tmp"))
        elif path.name not in left:
            path.unlink()
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(left)
    fixed = _tiny_with(tmp_path, "seed = 0", "seed = 5")
    assert run("train-dae", "--config", fixed, "--run-dir", str(run_dir)) == 0
    assert run("train-dae", "--config", fixed, "--run-dir", str(clean)) == 0
    assert contents(run_dir) == contents(clean)


def test_opening_a_run_directory_removes_tmp_leftovers(finished_dir, tmp_path):
    # a killed latents.bin write at cifar10 scale leaves tens of MB behind;
    # a command refused under another config leaves the directory untouched
    run_dir = tmp_path / "r"
    shutil.copytree(finished_dir, run_dir)
    before = contents(run_dir)
    (run_dir / "latents.bin.tmp").write_bytes(bytes(1000))
    other = _tiny_with(tmp_path, "seed = 0", "seed = 5")
    assert run("pipeline", "--config", other, "--run-dir", str(run_dir)) == 1
    assert (run_dir / "latents.bin.tmp").stat().st_size == 1000
    assert run("pipeline", "--config", TINY, "--run-dir", str(run_dir), "--mode", "guided") == 0
    assert contents(run_dir) == before


@pytest.mark.parametrize("change, key", [
    (("k = 8", "k = 33"), "cluster.k: 33 exceeds the 32 images it clusters"),
    (("per_class = 32\n", "per_class = 32\nsubset_size = 33\n"),
     "dataset.subset_size: 33 exceeds the dataset's 32 images"),
    (("val_fraction = 0.25", "val_fraction = 0.05"),
     "eval.val_fraction: 0.05 splits class 0's 8 images into 0 validation and 8 training "
     "images; each needs at least 1"),
    (("finetune_fraction = 0.10", "finetune_fraction = 0.05"),
     "eval.finetune_fraction: 0.05 picks no fine-tune image from class 0's 6 training images"),
], ids=["k", "subset_size", "val_fraction", "finetune_fraction"])
def test_cifar10_size_mismatch_exits_1_and_leaves_the_directory_usable(
        tmp_path, capsys, cifar_batches, change, key):
    run_dir = tmp_path / "r"
    too_big = _cifar_tiny(tmp_path, "big.ini", cifar_batches, change)
    assert run("train-dae", "--config", too_big, "--run-dir", str(run_dir)) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {key}"]
    assert [p.name for p in run_dir.iterdir()] == ["run.json"]
    fits = _cifar_tiny(tmp_path, "fits.ini", cifar_batches)
    assert run("train-dae", "--config", fits, "--run-dir", str(run_dir)) == 0


def test_a_class_short_of_its_subset_share_exits_1_and_leaves_the_directory_usable(
        tmp_path, capsys, cifar_batches):
    # class 3 keeps 2 of its 8 images, and a 24-image subset takes 6 from each class
    full = data.make_synthetic(4, 8, 32, seed=0)
    kept = np.flatnonzero((full.labels != 3) | (np.cumsum(full.labels == 3) <= 2))
    data.save_cifar10_binary(data.subset(full, kept), tmp_path / "uneven")
    changes = (("per_class = 32\n", "per_class = 32\nsubset_size = 24\n"), ("k = 8", "k = 4"),
               ("p = 8", "p = 4"), ("finetune_fraction = 0.10", "finetune_fraction = 0.5"))
    run_dir = tmp_path / "r"
    uneven = _cifar_tiny(tmp_path, "uneven.ini", tmp_path / "uneven", *changes)
    assert run("train-dae", "--config", uneven, "--run-dir", str(run_dir)) == 1
    assert capsys.readouterr().err.splitlines()[1:] == [
        "  dataset.subset_size: 24 takes 6 images from class 3, which has only 2"]
    assert [p.name for p in run_dir.iterdir()] == ["run.json"]
    fits = _cifar_tiny(tmp_path, "fits.ini", cifar_batches, *changes)
    assert run("train-dae", "--config", fits, "--run-dir", str(run_dir)) == 0
    assert json.loads((run_dir / "run.json").read_text())["config_hash"] == _hash(load_config(fits))


@pytest.mark.parametrize("command", ["plan", "train-contrastive", "probe", "finetune",
                                     "pipeline"])
def test_mode_defaults_to_guided(tmp_path, monkeypatch, command):
    modes = []
    monkeypatch.setitem(cli.COMMANDS, command, (lambda ws, mode, **kwargs: modes.append(mode),
                                                cli.COMMANDS[command][1]))
    assert run(command, "--config", TINY, "--run-dir", str(tmp_path / "r")) == 0
    assert modes == ["guided"]


# each flag with a value, --seed included, which no command takes
FLAG_ARGV = {"--mode": ("--mode", "random"), "--force": ("--force",), "--seed": ("--seed", "1")}


@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_each_command_takes_exactly_the_flags_of_its_table_row(finished_dir, tmp_path, capsys,
                                                               command):
    stage, flags = cli.COMMANDS[command]
    names = [flag.removeprefix("--") for flag in flags]
    assert set(FLAG_ARGV) == {*cli.FLAGS, "--seed"}
    # each flag reaches the stage as the keyword argument of its name
    assert list(inspect.signature(stage).parameters)[1:] == names
    for flag in flags:
        args = cli.parse_args([command, "--config", TINY, "--run-dir", "r", *FLAG_ARGV[flag]])
        assert set(vars(args)) == {"command", "config", "run_dir", *names}
    before = contents(finished_dir)
    for flag in sorted(set(FLAG_ARGV) - set(flags)):
        for run_dir in (finished_dir, tmp_path / "new"):
            capsys.readouterr()
            with pytest.raises(SystemExit) as excinfo:
                run(command, "--config", TINY, "--run-dir", str(run_dir), *FLAG_ARGV[flag])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            # the usage line is the command's own, not the top-level one
            assert err.startswith(f"usage: gcontrast {command} [-h]"), (flag, err)
            assert f"unrecognized arguments: {' '.join(FLAG_ARGV[flag])}" in err, (flag, err)
    assert contents(finished_dir) == before
    assert not (tmp_path / "new").exists()


def test_commands_branch_nowhere_but_the_table():
    # cli.py names each command once, as its table key, and maps the exit
    # codes once; the comparison script maps them through cli
    tree = ast.parse(Path(cli.__file__).read_text())
    nodes = list(ast.walk(tree))
    named = [node.value for node in nodes if isinstance(node, ast.Constant)
             and node.value in STAGE_COMMANDS]
    assert sorted(named) == sorted(STAGE_COMMANDS)
    functions = [node for node in nodes if isinstance(node, ast.FunctionDef)]
    assert not [node for function in functions for node in ast.walk(function)
                if isinstance(node, (ast.If, ast.IfExp, ast.Match))]
    assert len([node for node in nodes if isinstance(node, ast.Try)]) == 1
    script = ast.parse((ROOT / "scripts" / "run_comparison.py").read_text())
    (script_main,) = [node for node in script.body
                      if isinstance(node, ast.FunctionDef) and node.name == "main"]
    assert not [node for node in ast.walk(script_main) if isinstance(node, ast.Try)]


def _supervised_tiny(tmp_path):
    return _tiny_with(tmp_path, "supervised_reference = false", "supervised_reference = true")


def test_probe_supervised_adds_one_record_then_skips(tmp_path, capsys):
    # the config alone asks for the supervised reference; --supervised is gone
    config, run_dir = _supervised_tiny(tmp_path), str(tmp_path / "run")
    for command in ("train-dae", "cluster", "plan", "train-contrastive"):
        assert run(command, "--config", config, "--run-dir", run_dir) == 0
    argv = ("probe", "--config", config, "--run-dir", run_dir, "--mode", "guided")
    assert run(*argv) == 0
    path = tmp_path / "run" / "results.jsonl"
    lines = path.read_text().splitlines()
    added = [json.loads(line) for line in lines if "supervised-reference" in line]
    assert [(r["method"], r["eval_name"]) for r in added] == [("supervised-reference",
                                                               "supervised")]
    assert run("report", "--config", config, "--run-dir", run_dir) == 0
    table = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    column = table[0].index("supervised")
    (row,) = [r for r in table if r[0] == "supervised-reference"]
    assert row[column] == f"{added[0]['accuracy']:.2f}"
    assert run(*argv) == 0
    assert "probe[guided]: up to date, skipping" in capsys.readouterr().err
    assert path.read_text().splitlines() == lines
    with pytest.raises(SystemExit) as excinfo:
        run(*argv, "--supervised")
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --supervised" in capsys.readouterr().err


def test_stages_one_by_one_record_what_pipeline_records(tmp_path):
    # under supervised_reference = true, `probe` run alone honours the key
    # as `pipeline` does
    config = _supervised_tiny(tmp_path)
    for mode in ("guided", "random"):
        assert run("pipeline", "--config", config, "--run-dir", str(tmp_path / "whole"),
                   "--mode", mode) == 0
        argvs = [(command,) for command in ("train-dae", "cluster") if mode == "guided"]
        argvs += [(command, "--mode", mode)
                  for command in ("plan", "train-contrastive", "probe", "finetune")]
        for argv in argvs:
            assert run(*argv, "--config", config, "--run-dir", str(tmp_path / "staged")) == 0
    records = (tmp_path / "whole" / "results.jsonl").read_text()
    assert "supervised-reference" in records
    assert (tmp_path / "staged" / "results.jsonl").read_text() == records
    assert contents(tmp_path / "staged") == contents(tmp_path / "whole")


def _supervised_rows(run_dir):
    lines = (run_dir / "results.jsonl").read_text().splitlines()
    return [line for line in lines if "supervised-reference" in line]


def test_force_retrains_the_supervised_reference_under_guided_only(tmp_path, capsys):
    # the reference does not depend on the mode, so a forced comparison
    # trains it once and a forced random-mode probe keeps the row it finds
    config_path, root = _supervised_tiny(tmp_path), tmp_path / "root"
    pipeline.run_mode_comparison(load_config(config_path), str(root), [0])
    capsys.readouterr()
    pipeline.run_mode_comparison(load_config(config_path), str(root), [0], force=True)
    assert capsys.readouterr().err.count("supervised reference: ") == 1
    run_dir = root / "seed0"
    (row,) = _supervised_rows(run_dir)
    argv = ("probe", "--config", config_path, "--run-dir", str(run_dir), "--force", "--mode")
    assert run(*argv, "random") == 0
    assert "supervised reference: " not in capsys.readouterr().err
    assert _supervised_rows(run_dir) == [row]
    assert run(*argv, "guided") == 0
    assert capsys.readouterr().err.count("supervised reference: ") == 1
    assert len(_supervised_rows(run_dir)) == 1


def _upstream_reads():
    """(file, a command that reads it, the command that writes it)."""
    reads = [(name, ("cluster", "--force"), "train-dae")
             for name in ("dae_checkpoint.json", "dae_checkpoint.bin", "dae_history.csv",
                          "latents.json", "latents.bin")]
    reads += [(name, ("plan", "--force", "--mode", "guided"), "cluster")
              for name in ("pseudo_labels.csv", "cluster_model.json", "cluster_model.bin")]
    reads += [(f"contrastive_{mode}_{part}", (reader, "--force", "--mode", mode),
               f"train-contrastive --mode {mode}")
              for mode in ("guided", "random")
              for part in ("encoder.json", "encoder.bin", "head.json", "head.bin", "loss.csv")
              for reader in ("probe", "finetune")]
    return reads + [("results.jsonl", ("report",), "probe / finetune")]


def test_a_missing_upstream_file_is_refused_naming_its_command(finished_dir, tmp_path, capsys):
    # a stage missing any of its files is not done, so every reader that
    # runs refuses it; a reader that is itself done reads nothing and skips
    for point, (name, argv, producer) in enumerate(_upstream_reads()):
        run_dir = tmp_path / f"without{point}"
        shutil.copytree(finished_dir, run_dir)
        (run_dir / name).unlink()
        before = contents(run_dir)
        capsys.readouterr()
        assert run(*argv, "--config", TINY, "--run-dir", str(run_dir)) == 1, (name, argv)
        assert capsys.readouterr().err == (
            f"error: missing artifact {run_dir / name}; run `{producer}` first\n"), (name, argv)
        assert contents(run_dir) == before, (name, argv)
        if "--force" in argv:
            unforced = [arg for arg in argv if arg != "--force"]
            assert run(*unforced, "--config", TINY, "--run-dir", str(run_dir)) == 0, (name, argv)
            assert "up to date, skipping" in capsys.readouterr().err, (name, argv)
            assert contents(run_dir) == before, (name, argv)


@pytest.mark.parametrize("cut", [4 * 64, 2], ids=["a-latent-row", "half-a-float"])
def test_a_truncated_checkpoint_is_a_runtime_failure_naming_the_file(finished_dir, tmp_path,
                                                                     capsys, cut):
    run_dir = tmp_path / "cut"
    shutil.copytree(finished_dir, run_dir)
    latents = run_dir / "latents.bin"
    latents.write_bytes(latents.read_bytes()[:-cut])
    before = contents(run_dir)
    capsys.readouterr()
    assert run("cluster", "--config", TINY, "--run-dir", str(run_dir), "--force") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"runtime failure: {latents} holds ")
    assert contents(run_dir) == before


def test_a_non_finite_tap_pass_is_a_runtime_failure(finished_dir, tmp_path, capsys):
    # weights of 3e30 overflow float32 in the first conv of the probe's tap pass
    run_dir = tmp_path / "huge"
    shutil.copytree(finished_dir, run_dir)
    encoder = run_dir / "contrastive_guided_encoder.bin"
    encoder.write_bytes(np.full(encoder.stat().st_size // 4, 3e30, dtype="<f4").tobytes())
    before = contents(run_dir)
    capsys.readouterr()
    assert run("probe", "--config", TINY, "--run-dir", str(run_dir), "--mode", "guided",
               "--force") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("runtime failure: conv2d: produced non-finite values")
    assert contents(run_dir) == before


def test_a_zero_norm_embedding_in_training_is_a_divergence(finished_dir, tmp_path, capsys,
                                                           monkeypatch):
    # a head that maps everything to 0 leaves nothing for NT-Xent to normalize
    build_head = contrastive.build_head

    def zero_head(*args):
        head = build_head(*args)
        for p in head.params():
            p.data = np.zeros_like(p.data)
        return head

    monkeypatch.setattr(contrastive, "build_head", zero_head)
    run_dir = tmp_path / "zero"
    shutil.copytree(finished_dir, run_dir)
    before = contents(run_dir)
    capsys.readouterr()
    assert run("train-contrastive", "--config", TINY, "--run-dir", str(run_dir),
               "--mode", "random", "--force") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("runtime failure: training diverged at epoch 1, batch 0: "
                           "l2_normalize: a zero-norm slice")
    assert contents(run_dir) == before


def _flatten_first_shape(manifest):
    manifest["param_shapes"][0] = [int(np.prod(manifest["param_shapes"][0]))]


def _merge_last_shapes(manifest):
    *kept, a, b = manifest["param_shapes"]
    manifest["param_shapes"] = kept + [[int(np.prod(a)) + int(np.prod(b))]]


@pytest.mark.parametrize("edit, message", [
    (_flatten_first_shape, "stored shape (216,) != model's (3, 3, 3, 8)"),
    (_merge_last_shapes, "3 parameter arrays, expected 4"),
], ids=["shape", "count"])
def test_a_checkpoint_that_does_not_fit_its_model_is_a_runtime_failure(
        finished_dir, tmp_path, capsys, edit, message):
    run_dir = tmp_path / "unfit"
    shutil.copytree(finished_dir, run_dir)
    manifest = run_dir / "contrastive_guided_encoder.json"
    record = json.loads(manifest.read_text())
    edit(record)
    artifacts.write_json(str(manifest), record)
    before = contents(run_dir)
    capsys.readouterr()
    assert run("probe", "--config", TINY, "--run-dir", str(run_dir), "--mode", "guided",
               "--force") == 2
    assert capsys.readouterr().err == (
        f"runtime failure: {run_dir / 'contrastive_guided_encoder.bin'}: {message}\n")
    assert contents(run_dir) == before


@pytest.mark.parametrize("name, argv", [
    ("run.json", ("report",)),
    ("results.jsonl", ("report",)),
    ("contrastive_guided_encoder.json", ("probe", "--mode", "guided", "--force")),
], ids=["run-json", "results-jsonl", "checkpoint-manifest"])
def test_a_malformed_json_artifact_is_a_runtime_failure_naming_the_file(
        finished_dir, tmp_path, capsys, name, argv):
    run_dir = tmp_path / "torn"
    shutil.copytree(finished_dir, run_dir)
    path = run_dir / name
    path.write_bytes(path.read_bytes()[:-10])
    before = contents(run_dir)
    capsys.readouterr()
    assert run(*argv, "--config", TINY, "--run-dir", str(run_dir)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"runtime failure: {path} is not valid JSON: ")
    assert contents(run_dir) == before


@pytest.mark.parametrize("error", [ShapeError("injected"),
                                   ValueError("operands could not be broadcast together")],
                         ids=["ShapeError", "ValueError"])
def test_an_internal_error_prints_its_traceback_and_exits_3(finished_dir, tmp_path, capsys,
                                                            monkeypatch, error):
    # a bug is not bad input: its traceback is kept and the exit code is neither 1 nor 2
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(pipeline, "kmeans_fit", broken)
    run_dir = tmp_path / "bug"
    shutil.copytree(finished_dir, run_dir)
    capsys.readouterr()
    assert run("cluster", "--config", TINY, "--run-dir", str(run_dir), "--force") == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(f"{type(error).__name__}: {error}\n")
    assert "runtime failure" not in err


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


def _taken(command, *flags):
    """The `flags` that `command` takes."""
    return [flag for flag in flags if flag in cli.COMMANDS[command][1]]


@pytest.mark.parametrize("variant", ["changed", "changed --force", "seed"])
@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_another_config_is_refused_and_writes_nothing(finished_dir, tmp_path, capsys,
                                                      command, variant):
    # another seed is another config: [run] seed is the only way to set it
    before = contents(finished_dir)
    if variant == "seed":
        config = _tiny_with(tmp_path, "seed = 0", "seed = 123")
    else:
        config = _tiny_with(tmp_path, "probe_epochs = 10", "probe_epochs = 3")
    extra = _taken(command, *variant.split()[1:])
    capsys.readouterr()
    assert run(command, "--config", config, "--run-dir", str(finished_dir), *extra) == 1
    err = capsys.readouterr().err
    bound, other = _hash(load_config(TINY)), _hash(load_config(config))
    assert bound != other and bound in err and other in err and "--run-dir" in err
    assert err.startswith("error: run directory ") and "invalid config:" not in err
    assert contents(finished_dir) == before


@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_used_directory_without_run_json_is_refused(tmp_path, capsys, command):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "results.jsonl").write_text("{}\n")
    assert run(command, "--config", TINY, "--run-dir", str(run_dir),
               *_taken(command, "--force")) == 1
    assert "no run.json" in capsys.readouterr().err
    assert [p.name for p in run_dir.iterdir()] == ["results.jsonl"]


def test_used_directory_without_a_dataset_hash_is_refused_at_the_dataset_read(
        finished_dir, tmp_path, capsys):
    # a run.json written before it held the dataset hash: commands that read
    # no images still run, and the first one that reads the dataset is refused
    run_dir = tmp_path / "old"
    shutil.copytree(finished_dir, run_dir)
    (run_dir / "run.json").write_text(json.dumps({"config_hash": _hash(load_config(TINY))}))
    before = contents(run_dir)
    assert run("report", "--config", TINY, "--run-dir", str(run_dir)) == 0
    capsys.readouterr()
    assert run("plan", "--config", TINY, "--run-dir", str(run_dir), "--force") == 1
    assert "holds files but no run.json with dataset_hash" in capsys.readouterr().err
    assert contents(run_dir) == before


def test_run_json_is_not_rewritten_once_it_holds_both_hashes(pipeline_dir, monkeypatch):
    # it binds the config and the dataset, which one run directory's config fixes
    before = (pipeline_dir / "run.json").read_bytes()
    assert set(json.loads(before)) == {"config_hash", "dataset_hash"}
    renamed, replace = [], os.replace
    monkeypatch.setattr(artifacts.os, "replace",
                        lambda src, dst: renamed.append(os.path.basename(dst)) or replace(src, dst))
    assert run("pipeline", "--config", TINY, "--run-dir", str(pipeline_dir),
               "--mode", "random") == 0
    assert run("train-contrastive", "--config", TINY, "--run-dir", str(pipeline_dir),
               "--mode", "random", "--force") == 0
    assert "plan_random.jsonl" in renamed and "run.json" not in renamed
    assert (pipeline_dir / "run.json").read_bytes() == before


def test_a_changed_dataset_is_refused_and_writes_nothing(tmp_path, capsys, cifar_batches):
    config, run_dir = _cifar_tiny(tmp_path, "cifar.ini", cifar_batches), tmp_path / "r"
    original = contents(cifar_batches)

    def batches(seed):
        data.save_cifar10_binary(data.make_synthetic(4, 8, 32, seed=seed), cifar_batches)
        assert (contents(cifar_batches) == original) == (seed == 0)
        return artifacts.dataset_fingerprint(pipeline.resolve_dataset(load_config(config)))

    def gcontrast(*argv):
        return run(*argv, "--config", config, "--run-dir", str(run_dir))

    def refused(*argv):
        before = contents(run_dir)
        capsys.readouterr()
        assert gcontrast(*argv) == 1, argv
        err = capsys.readouterr().err
        assert bound in err and changed in err and "--run-dir" in err, argv
        assert err.splitlines()[-1].startswith("error: run directory "), argv
        assert "invalid config:" not in err, argv
        assert contents(run_dir) == before, argv

    assert gcontrast("train-dae") == 0 and gcontrast("cluster") == 0
    bound = json.loads((run_dir / "run.json").read_text())["dataset_hash"]
    changed = batches(seed=1)
    assert changed != bound
    refused("train-dae", "--force")
    for mode in ("guided", "random"):
        for command in ("plan", "train-contrastive", "pipeline"):
            refused(command, "--mode", mode)
    assert batches(seed=0) == bound
    for mode in ("guided", "random"):
        assert gcontrast("pipeline", "--mode", mode) == 0
    assert gcontrast("report") == 0
    batches(seed=1)
    for mode in ("guided", "random"):
        for command in ("probe", "finetune"):
            refused(command, "--mode", mode, "--force")
    batches(seed=0)
    assert gcontrast("report") == 0


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_make_dataset_writes_the_synthetic_dataset_bit_for_bit(tmp_path, capsys):
    argv = ["--classes", "3", "--per-class", "5", "--seed", "4", "--noise-sigma", "0.2"]
    assert _script("make_dataset").main(["--out", str(tmp_path / "out"), *argv]) == 0
    assert "wrote 15 records" in capsys.readouterr().out
    got = data.load_cifar10(tmp_path / "out")
    want = data.make_synthetic(classes=3, per_class=5, image_size=32, seed=4, noise_sigma=0.2)
    assert got.images.tobytes() == want.images.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert (got.images.shape, got.labels.dtype) == (want.images.shape, want.labels.dtype)


def test_run_comparison_refuses_a_reused_root_under_another_config(tmp_path, capsys):
    script, root = _script("run_comparison"), tmp_path / "root"
    assert script.main(["--config", TINY, "--run-root", str(root), "--seeds", "0"]) == 0
    before = contents(root)
    changed = _tiny_with(tmp_path, "probe_epochs = 10", "probe_epochs = 3")
    capsys.readouterr()
    assert script.main(["--config", changed, "--run-root", str(root), "--seeds", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--run-dir" in captured.err
    assert captured.out == ""
    assert contents(root) == before


@pytest.mark.parametrize("seeds", ["", "0,a", "0,,1", "1,0,1"])
def test_run_comparison_refuses_a_bad_seed_list_with_usage(tmp_path, capsys, seeds):
    root = tmp_path / "root"
    with pytest.raises(SystemExit) as excinfo:
        _script("run_comparison").main(["--config", TINY, "--run-root", str(root), "--seeds", seeds])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "error: argument --seeds: " in err
    assert not root.exists()


def test_run_comparison_reports_a_runtime_failure_as_the_cli_does(tmp_path, capsys):
    config = _cifar_tiny(tmp_path, "nowhere.ini", tmp_path / "nowhere")
    assert run("train-dae", "--config", config, "--run-dir", str(tmp_path / "r")) == 2
    cli_err = capsys.readouterr().err
    script = _script("run_comparison")
    assert script.main(["--config", config, "--run-root", str(tmp_path / "root"),
                        "--seeds", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == cli_err
    assert cli_err.startswith("runtime failure: missing batch file") and cli_err.count("\n") == 1


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
    stages = {"guided": (("train-dae",), ("cluster",), ("plan", "--mode", "guided"),
                         ("train-contrastive", "--mode", "guided")),
              "random": (("plan", "--mode", "random"), ("train-contrastive", "--mode", "random"))}
    for mode, argvs in stages.items():
        trained.clear()
        for argv in argvs:
            assert run(*argv, "--config", TINY, "--run-dir", run_dir) == 0
        lines = (tmp_path / "run" / f"plan_{mode}.jsonl").read_text().splitlines()
        on_disk = [(r["epoch"], r["batch_index"], r["indices"]) for r in map(json.loads, lines)]
        assert len(trained) == 2  # tiny.ini trains 2 epochs
        assert on_disk == [(epoch, bi, [int(i) for i in batch])
                           for epoch, plan in enumerate(trained, start=1)
                           for bi, batch in enumerate(plan.batches)], mode


def test_results_records_hold_method_eval_accuracy_and_seed(pipeline_dir):
    records = [json.loads(line) for line in
               (pipeline_dir / "results.jsonl").read_text().splitlines()]
    assert records
    for r in records:
        assert set(r) == {"method", "eval_name", "accuracy", "seed"}


def test_each_record_holds_the_seed_and_accuracy_of_its_eval(tmp_path, monkeypatch):
    ran = []  # (seed, accuracy) of each eval, in the order the evals run
    for name in ("linear_probe", "fine_tune_10pct", "supervised_reference"):
        def spy(*args, _eval=getattr(pipeline, name), **kwargs):
            ran.append((kwargs["seed"], _eval(*args, **kwargs)))
            return ran[-1][1]
        monkeypatch.setattr(pipeline, name, spy)
    config = _supervised_tiny(tmp_path)
    for mode in ("guided", "random"):
        assert run("pipeline", "--config", config, "--run-dir", str(tmp_path / "run"),
                   "--mode", mode) == 0
    records = [json.loads(line) for line in
               (tmp_path / "run" / "results.jsonl").read_text().splitlines()]
    assert [(r["seed"], r["accuracy"]) for r in records] == ran
    seed = load_config(config).seed
    expected = {("supervised-reference", "supervised"): derive_seed(seed, "supervised")}
    for mode, method in (("guided", "guided"), ("random", "random-baseline")):
        expected[method, "finetune"] = derive_seed(seed, "finetune", mode)
        for point in ("P1", "P2", "P3"):
            expected[method, point] = derive_seed(seed, "probe", mode, point)
    assert {(r["method"], r["eval_name"]): r["seed"] for r in records} == expected
    assert len(records) == len(expected)


def test_probe_reruns_only_the_tap_point_whose_record_is_missing(finished_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_dir, run_dir)
    path = run_dir / "results.jsonl"
    lines = path.read_text().splitlines()
    (p2,) = [line for line in lines if json.loads(line)["method"] == "guided"
             and json.loads(line)["eval_name"] == "P2"]
    others = [line for line in lines if line != p2]
    path.write_text("".join(line + "\n" for line in others))
    capsys.readouterr()
    assert run("probe", "--config", TINY, "--run-dir", str(run_dir), "--mode", "guided") == 0
    logged = [line for line in capsys.readouterr().err.splitlines() if line.startswith("probe")]
    assert len(logged) == 1 and logged[0].startswith("probe[guided] P2: ")
    assert path.read_text().splitlines() == others + [p2]


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


def test_blas_thread_count_leaves_every_artifact_unchanged(tmp_path):
    # desk.ini's layer widths at 32x32 with p = k = 64, where the conv GEMMs
    # are large enough for OpenBLAS to split them over threads
    text = (CONFIGS / "desk.ini").read_text()
    for old, new in (("per_class = 200", "per_class = 16"), ("epochs = 30", "epochs = 1"),
                     ("epochs = 15", "epochs = 1"), ("probe_epochs = 50", "probe_epochs = 1")):
        assert old in text
        text = text.replace(old, new)
    config = tmp_path / "small-desk.ini"
    config.write_text(text)
    src = str(Path(pipeline.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        for mode in ("guided", "random"):
            subprocess.run([sys.executable, "-m", "gcontrast.cli", "pipeline", "--config",
                            str(config), "--run-dir", str(tmp_path / threads), "--mode", mode],
                           env=env, check=True, capture_output=True)
    assert contents(tmp_path / "1") == contents(tmp_path / "2")
