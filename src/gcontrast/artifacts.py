"""Run-directory artifacts: checkpoints, CSV tables, JSONL streams.

Every artifact embeds the config fingerprint so downstream stages can
refuse stale inputs. CSV files carry it as a leading comment line;
JSON-based files carry it as a field. Nothing here writes timestamps:
identical runs must produce byte-identical files. Files are written to a
temporary sibling and renamed into place, so none is ever left truncated.
"""

import contextlib
import hashlib
import json
import os

import numpy as np

from .data import ImageDataset


class MissingArtifactError(FileNotFoundError):
    """A required upstream artifact is absent; names the producing command."""


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def config_fingerprint(config_dict) -> str:
    """Stable hash of a resolved config, ignoring the runtime mode switch."""
    scrubbed = json.loads(json.dumps(config_dict))
    scrubbed.get("scheduler", {}).pop("mode", None)
    return sha256_hex(json.dumps(scrubbed, sort_keys=True).encode())[:16]


def dataset_fingerprint(dataset: ImageDataset) -> str:
    digest = hashlib.sha256()
    digest.update(dataset.images.tobytes())
    digest.update(dataset.labels.tobytes())
    digest.update(f"{dataset.source}|{dataset.num_classes}".encode())
    return digest.hexdigest()[:16]


def require(path, producer):
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"missing artifact {path}; run `{producer}` first")
    return path


@contextlib.contextmanager
def _atomic_open(path, mode="w"):
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---- checkpoints: JSON manifest + flat little-endian float32 buffer ----

def save_checkpoint(stem, manifest: dict, params):
    manifest = dict(manifest)
    manifest["param_shapes"] = [list(p.shape) for p in params]
    buffers = [np.ascontiguousarray(p, dtype="<f4") for p in params]
    with _atomic_open(stem + ".bin", "wb") as fh:
        for buf in buffers:
            fh.write(buf.tobytes())
    with _atomic_open(stem + ".json") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(stem):
    with open(require(stem + ".json", producer="(the stage that writes it)")) as fh:
        manifest = json.load(fh)
    raw = np.fromfile(stem + ".bin", dtype="<f4")
    arrays, offset = [], 0
    for shape in manifest["param_shapes"]:
        count = int(np.prod(shape)) if shape else 1
        arrays.append(raw[offset:offset + count].reshape(shape).copy())
        offset += count
    if offset != raw.size:
        raise ValueError(f"{stem}.bin holds {raw.size} floats, manifest expects {offset}")
    return manifest, arrays


# ---- CSV with a leading config-hash comment ----

def write_csv(path, header, rows, config_hash):
    with _atomic_open(path) as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def read_csv(path, producer="(unknown)"):
    require(path, producer)
    meta = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            body.append(line.split(","))
    header, rows = body[0], body[1:]
    return meta, header, rows


def write_latents_csv(path, latents, config_hash):
    # %.9g keeps the full float32 value; one format string per row, so no
    # array of millions of cell strings is ever built
    n, d = latents.shape
    header = "index," + ",".join(f"dim{i}" for i in range(d))
    row_format = ",".join(["%.9g"] * d) + "\n"
    with _atomic_open(path) as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(header + "\n")
        for i, row in enumerate(latents):
            fh.write(f"{i}," + row_format % tuple(row.tolist()))


def read_latents_csv(path, producer="train-dae"):
    require(path, producer)
    meta = {}
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("#"):
            key, _, value = first[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
    data = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.float32, ndmin=2)
    return meta, data[:, 1:]


# ---- JSONL ----

def append_jsonl(path, records):
    with open(path, "a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_jsonl(path, records):
    with _atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path, producer="(unknown)"):
    require(path, producer)
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
