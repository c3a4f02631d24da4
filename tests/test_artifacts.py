"""Artifact writers: an interrupted write leaves nothing under the final name.

Also the reader of the config hash every artifact carries.
"""

import hashlib

import numpy as np
import pytest

from gcontrast import artifacts
from gcontrast.data import load_cifar10, make_synthetic, save_cifar10_binary


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
        str(d / "t.csv"), ["a", "b"], [(i, i * i) for i in range(64)], "abc"),
    "write_latents_csv": lambda d: artifacts.write_latents_csv(
        str(d / "latents.csv"), np.ones((16, 8), dtype=np.float32), "abc"),
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


def test_stored_hash_reads_every_artifact_format(tmp_path):
    artifacts.write_csv(str(tmp_path / "t.csv"), ["a"], [(1,)], "c5v")
    artifacts.write_latents_csv(str(tmp_path / "latents.csv"), np.ones((2, 3)), "1at")
    artifacts.write_jsonl(str(tmp_path / "t.jsonl"), [{"config_hash": "j51"}, {"x": 1}])
    artifacts.save_checkpoint(str(tmp_path / "ckpt"), {"config_hash": "j50"}, [np.ones(2)])
    got = {name: artifacts.stored_hash(str(tmp_path / name))
           for name in ("t.csv", "latents.csv", "t.jsonl", "ckpt.json")}
    assert got == {"t.csv": "c5v", "latents.csv": "1at", "t.jsonl": "j51", "ckpt.json": "j50"}


def test_stored_hash_reads_only_the_first_line(tmp_path):
    # whatever follows the first newline is never decoded
    (tmp_path / "t.csv").write_bytes(b"# config_hash=abc\n\xff\xfe not text")
    (tmp_path / "t.jsonl").write_bytes(b'{"config_hash": "abc"}\n{torn')
    assert artifacts.stored_hash(str(tmp_path / "t.csv")) == "abc"
    assert artifacts.stored_hash(str(tmp_path / "t.jsonl")) == "abc"


@pytest.mark.parametrize("name,content", [
    ("missing.csv", None),
    ("t.csv", b"a,b\n1,2\n"),                  # no hash comment
    ("t.csv", b"\xff\xfe\n"),                  # not text
    ("t.jsonl", b'{"torn'),
    ("t.jsonl", b'{"epoch": 1}\n'),             # first record without the field
    ("t.json", b'["config_hash"]\n'),
])
def test_stored_hash_is_none_when_missing_or_unreadable(tmp_path, name, content):
    if content is not None:
        (tmp_path / name).write_bytes(content)
    assert artifacts.stored_hash(str(tmp_path / name)) is None


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_completed_write_leaves_only_the_artifact(writer, tmp_path):
    WRITERS[writer](tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names and not any(name.endswith(".tmp") for name in names)


def test_latents_csv_matches_elementwise_formatting(tmp_path):
    # the reference formats every cell with np.char.mod, as the writer
    # once did; the file must not change by a byte
    f32 = np.finfo(np.float32)
    latents = np.array([
        [0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal],
        [f32.tiny, f32.max, -f32.max, f32.eps],
        [np.float32(1) / 3, -2.5e-7, 123456789.0, 1e-45],
    ], dtype=np.float32)
    path = tmp_path / "latents.csv"
    artifacts.write_latents_csv(str(path), latents, "abc")
    cells = np.char.mod("%.9g", latents)
    want = "# config_hash=abc\nindex,dim0,dim1,dim2,dim3\n" + "".join(
        f"{i}," + ",".join(row) + "\n" for i, row in enumerate(cells.tolist()))
    assert path.read_text() == want
    _, back = artifacts.read_latents_csv(str(path))
    assert np.array_equal(back, latents)


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
