"""An interrupted run never leaves an artifact that later passes as fresh.

Every artifact reaches its final name through one `os.replace` in
`gcontrast.artifacts`. These tests stop a run right after a chosen
rename, or delete one of its outputs, re-run it, and require the run
directory an uninterrupted run writes, byte for byte.
"""

import os
import shutil
from pathlib import Path

import pytest

from gcontrast import artifacts
from gcontrast.cli import main

from test_cli import TINY

MODES = ("guided", "random")


class Interrupted(BaseException):
    """Stops a run the way a kill would: no `except Exception` catches it."""


def run(config, run_dir, *argv):
    assert main([*argv, "--config", config, "--run-dir", str(run_dir)]) == 0


def pipeline(config, run_dir, modes=MODES):
    for mode in modes:
        run(config, run_dir, "pipeline", "--mode", mode)


def contents(run_dir):
    return {p.name: p.read_bytes() for p in Path(run_dir).iterdir()}


def stop_after(monkeypatch, stop):
    """Patch `os.replace`, through which artifacts renames every file, to
    raise Interrupted right after a rename once `stop(renamed)` holds of
    the file names renamed so far; returns that list."""
    real_replace, renamed = os.replace, []

    def replace(src, dst):
        real_replace(src, dst)
        renamed.append(os.path.basename(dst))
        if stop(renamed):
            raise Interrupted(dst)

    monkeypatch.setattr(artifacts.os, "replace", replace)
    return renamed


def renames_through(monkeypatch, command):
    """The file names `command()` renames into place, run uninterrupted."""
    with monkeypatch.context() as patch:
        renamed = stop_after(patch, lambda renamed: False)
        command()
    return renamed


def stop_at(monkeypatch, command, point):
    """Run `command()`, stopping it right after its rename number `point`."""
    with monkeypatch.context() as patch:
        renamed = stop_after(patch, lambda renamed: len(renamed) == point + 1)
        with pytest.raises(Interrupted):
            command()
    return renamed[-1]


@pytest.mark.parametrize("stage,mode", [("train-contrastive", "random"),
                                        ("train-dae", "guided")])
def test_forced_run_stopped_anywhere_reruns_clean(tmp_path, monkeypatch, stage, mode):
    clean = tmp_path / "clean"
    pipeline(TINY, clean, [mode])
    want = contents(clean)

    def forced(run_dir):
        shutil.copytree(clean, run_dir)
        return lambda: run(TINY, run_dir, stage, "--mode", mode, "--force")

    names = renames_through(monkeypatch, forced(tmp_path / "through"))
    for point in range(len(names)):
        run_dir = tmp_path / f"stop{point}"
        name = stop_at(monkeypatch, forced(run_dir), point)
        pipeline(TINY, run_dir, [mode])
        assert contents(run_dir) == want, f"stopped after renaming {name}"


def test_pipeline_stopped_after_any_rename_reruns_clean(tmp_path, monkeypatch):
    clean = tmp_path / "clean"
    names = renames_through(monkeypatch, lambda: pipeline(TINY, clean))
    want = contents(clean)
    for point in range(len(names)):
        run_dir = tmp_path / f"stop{point}"
        name = stop_at(monkeypatch, lambda: pipeline(TINY, run_dir), point)
        assert name == names[point]
        pipeline(TINY, run_dir)
        assert contents(run_dir) == want, f"stopped after rename {point}, {name}"


# every file a finished run holds, by the stage that writes it; `report`
# rewrites its two files on every run
STAGE_OUTPUTS = {
    "train-dae": {"dae_checkpoint.json", "dae_checkpoint.bin", "dae_history.csv",
                  "latents.json", "latents.bin"},
    "cluster": {"pseudo_labels.csv", "cluster_model.json", "cluster_model.bin"},
    **{f"plan --mode {mode}": {f"plan_{mode}.jsonl"} for mode in MODES},
    **{f"train-contrastive --mode {mode}": {f"contrastive_{mode}_{part}.{ext}"
                                            for part in ("encoder", "head")
                                            for ext in ("json", "bin")}
       | {f"contrastive_{mode}_loss.csv"} for mode in MODES},
    "probe, finetune": {"results.jsonl"},
}
REPORT_OUTPUTS = {"report_table.csv", "report_losses.csv"}
# the directory's binding to its config and dataset, written by no stage
WORKSPACE_FILES = {"run.json"}


def test_deleting_any_output_reruns_its_stage_only(tmp_path, monkeypatch):
    def finish(run_dir):
        pipeline(TINY, run_dir)
        run(TINY, run_dir, "report")

    clean = tmp_path / "clean"
    finish(clean)
    want = contents(clean)
    assert set(want) == WORKSPACE_FILES | REPORT_OUTPUTS | set().union(*STAGE_OUTPUTS.values())
    for stage, outputs in STAGE_OUTPUTS.items():
        for name in sorted(outputs):
            run_dir = tmp_path / f"without-{name}"
            shutil.copytree(clean, run_dir)
            (run_dir / name).unlink()
            renamed = renames_through(monkeypatch, lambda: finish(run_dir))
            assert set(renamed) == outputs | REPORT_OUTPUTS, f"{name} deleted: reran {stage}?"
            assert contents(run_dir) == want, f"{name} deleted"
