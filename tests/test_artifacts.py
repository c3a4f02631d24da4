"""Artifact writers: an interrupted write leaves nothing under the final name."""

import numpy as np
import pytest

from gcontrast import artifacts


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
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_interrupted_write_leaves_no_file(writer, tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts, "open",
                        lambda path, mode="r": _DiskFullAfter(open(path, mode), 100),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_completed_write_leaves_only_the_artifact(writer, tmp_path):
    WRITERS[writer](tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names and not any(name.endswith(".tmp") for name in names)
