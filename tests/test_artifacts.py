"""Artifact writers: an interrupted write leaves nothing under the final name."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from gcontrast import artifacts, pipeline
from gcontrast.config import load_config
from gcontrast.data import load_cifar10, make_synthetic, save_cifar10_binary

TINY = str(Path(__file__).resolve().parent.parent / "configs" / "tiny.ini")


class _DiskFullAfter:
    """A real file whose writes fail once `budget` bytes have gone through."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            raise OSError("no space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def read(self):
        return self.fh.read()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


WRITERS = {
    "save_checkpoint": lambda d: artifacts.save_checkpoint(
        str(d / "ckpt"), {"kind": "test"}, [np.arange(64, dtype=np.float32)]),
    "write_csv": lambda d: artifacts.write_csv(
        str(d / "t.csv"), ["a", "b"], [(i, i * i) for i in range(64)]),
    "write_latents_csv": lambda d: artifacts.write_latents_csv(
        str(d / "latents.bin"), np.ones((16, 8), dtype=np.float32)),
    "write_jsonl": lambda d: artifacts.write_jsonl(
        str(d / "t.jsonl"), [{"i": i} for i in range(64)]),
    "write_json": lambda d: artifacts.write_json(
        str(d / "t.json"), {f"key{i}": i for i in range(64)}),
}


def _disk_full_after(monkeypatch, budget):
    monkeypatch.setattr(artifacts, "open",
                        lambda path, mode="r": _DiskFullAfter(open(path, mode), budget),
                        raising=False)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_interrupted_write_leaves_no_file(writer, tmp_path, monkeypatch):
    _disk_full_after(monkeypatch, 100)
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_append_keeps_earlier_records(tmp_path, monkeypatch):
    path = str(tmp_path / "results.jsonl")
    artifacts.append_jsonl(path, [{"i": i} for i in range(3)])
    artifacts.append_jsonl(path, [{"i": 3}])
    before = (tmp_path / "results.jsonl").read_bytes()
    _disk_full_after(monkeypatch, 100)
    with pytest.raises(OSError, match="no space"):
        artifacts.append_jsonl(path, [{"i": i} for i in range(4, 64)])
    assert (tmp_path / "results.jsonl").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_completed_write_leaves_only_the_artifact(writer, tmp_path):
    WRITERS[writer](tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names and not any(name.endswith(".tmp") for name in names)


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    artifacts.write_csv(path, ["epoch", "loss"], [(1, 0.5), (2, 0.25)])
    assert artifacts.read_csv(path) == ({}, ["epoch", "loss"], [["1", "0.5"], ["2", "0.25"]])


def test_latents_round_trip_bit_exact(tmp_path):
    f32 = np.finfo(np.float32)
    latents = np.array([
        [0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal],
        [f32.tiny, f32.max, -f32.max, f32.eps],
        [np.float32(1) / 3, -2.5e-7, 123456789.0, 1e-45],
    ], dtype=np.float32)
    artifacts.write_latents_csv(str(tmp_path / "latents.bin"), latents)
    back = artifacts.read_latents_csv(str(tmp_path / "latents.bin"))
    assert back.dtype == np.float32
    assert np.array_equal(back, latents)
    assert np.array_equal(np.signbit(back), np.signbit(latents))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latents.bin", "latents.json"]


@pytest.mark.parametrize("missing", ["latents.json", "latents.bin"])
def test_missing_latents_name_their_producer(tmp_path, missing):
    # every other train-dae output is present; `cluster` refuses the
    # half-written latents checkpoint, naming train-dae, and writes nothing
    ws = pipeline.Workspace(load_config(TINY), tmp_path / "run")
    for name in pipeline.OUTPUTS["train-dae"]:
        (tmp_path / "run" / name).write_bytes(b"")
    artifacts.write_latents_csv(ws.path("latents.bin"), np.ones((2, 3)))
    (tmp_path / "run" / missing).unlink()
    before = sorted(p.name for p in (tmp_path / "run").iterdir())
    with pytest.raises(pipeline.MissingArtifactError, match="run `train-dae` first"):
        pipeline.stage_cluster(ws)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == before


def test_dataset_fingerprint_matches_whole_array_bytes_on_both_layouts(tmp_path):
    # 300 images span two row chunks; the CIFAR reader returns a
    # channel-planar view, the synthetic maker a C-contiguous array
    synthetic = make_synthetic(classes=3, per_class=100, image_size=32, seed=2)
    save_cifar10_binary(synthetic, tmp_path / "cifar")
    loaded = load_cifar10(tmp_path / "cifar")
    assert synthetic.images.flags.c_contiguous and not loaded.images.flags.c_contiguous
    for ds in (synthetic, loaded):
        digest = hashlib.sha256(ds.images.tobytes())
        digest.update(ds.labels.tobytes())
        digest.update(f"{ds.source}|{ds.num_classes}".encode())
        assert artifacts.dataset_fingerprint(ds) == digest.hexdigest()[:16]
