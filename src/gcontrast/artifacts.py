"""Run-directory artifacts: checkpoints, CSV tables, JSONL streams.

Every artifact embeds the config fingerprint so downstream stages can
refuse stale inputs. CSV files carry it as a leading comment line,
JSONL files in their first record and JSON files as a field;
`stored_hash` reads it back from any of them. Nothing here writes
timestamps: identical runs must produce byte-identical files. Files are written to a
temporary sibling and renamed into place, so none is ever left truncated.
"""

import contextlib
import hashlib
import json
import os

import numpy as np

from .data import ImageDataset


class MissingArtifactError(FileNotFoundError):
    """A required upstream artifact is absent or stale; names the producing command."""


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def config_fingerprint(config_dict) -> str:
    """Stable hash of a resolved config, ignoring the runtime mode switch."""
    scrubbed = json.loads(json.dumps(config_dict))
    scrubbed.get("scheduler", {}).pop("mode", None)
    return sha256_hex(json.dumps(scrubbed, sort_keys=True).encode())[:16]


def dataset_fingerprint(dataset: ImageDataset) -> str:
    """Hash of the images' C-order bytes, labels and source.

    The images go in chunks of rows: a view of a C-contiguous array, a
    small copy of a strided one, never a dataset-sized copy.
    """
    digest = hashlib.sha256()
    images = dataset.images
    for start in range(0, len(images), 256):
        digest.update(np.ascontiguousarray(images[start:start + 256]))
    digest.update(dataset.labels.tobytes())
    digest.update(f"{dataset.source}|{dataset.num_classes}".encode())
    return digest.hexdigest()[:16]


def require(path, producer):
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"missing artifact {path}; run `{producer}` first")
    return path


def require_current(path, stored, config_hash, producer):
    """Refuse an upstream artifact written under another config."""
    if stored != config_hash:
        raise MissingArtifactError(
            f"stale artifact {path} (config hash {stored}, expected {config_hash}); "
            f"run `{producer}` first")


_HASH_COMMENT = "# config_hash="


def stored_hash(path):
    """The config hash `path` was written under, None if absent or unreadable.

    A CSV or JSONL file is read only up to its first newline.
    """
    try:
        with open(path, "rb") as fh:
            first = (fh.read() if path.endswith(".json") else fh.readline()).decode()
        if path.endswith(".csv"):
            return first[len(_HASH_COMMENT):].strip() if first.startswith(_HASH_COMMENT) else None
        record = json.loads(first)
    except (OSError, ValueError):   # missing, undecodable or not JSON
        return None
    return record.get("config_hash") if isinstance(record, dict) else None


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
    write_json(stem + ".json", manifest)


def write_json(path, record):
    with _atomic_open(path) as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=1) + "\n")


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
        fh.write(f"{_HASH_COMMENT}{config_hash}\n")
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
        fh.write(f"{_HASH_COMMENT}{config_hash}\n")
        fh.write(header + "\n")
        for i, row in enumerate(latents):
            fh.write(f"{i}," + row_format % tuple(row.tolist()))


def read_latents_csv(path, producer="train-dae"):
    """(stored config hash, latents) of a latents CSV."""
    require(path, producer)
    data = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.float32, ndmin=2)
    return stored_hash(path), data[:, 1:]


# ---- JSONL ----

def _jsonl_lines(records):
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def append_jsonl(path, records):
    # the old bytes plus the new lines replace the file whole, so an
    # interrupted append never leaves a torn last line
    old = b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            old = fh.read()
    with _atomic_open(path, "wb") as fh:
        fh.write(old + _jsonl_lines(records).encode())


def write_jsonl(path, records):
    with _atomic_open(path) as fh:
        fh.write(_jsonl_lines(records))


def read_jsonl(path, producer="(unknown)"):
    require(path, producer)
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
