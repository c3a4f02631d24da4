"""Run-directory artifacts: checkpoints, CSV tables, JSONL streams.

Nothing here writes timestamps: identical runs must produce
byte-identical files. Files are written to a temporary sibling and
renamed into place, so none is ever left truncated.
"""

import contextlib
import hashlib
import json
import os

import numpy as np

from .data import DataFormatError, ImageDataset


def config_fingerprint(config_dict) -> str:
    """Stable hash of a resolved config."""
    return hashlib.sha256(json.dumps(config_dict, sort_keys=True).encode()).hexdigest()[:16]


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


def read_json(path):
    with open(path, "rb") as fh:
        return _parse_json(path, fh.read())


def _parse_json(path, raw):
    try:
        return json.loads(raw)
    except ValueError as err:  # a JSONDecodeError, or bytes that are not UTF-8
        raise DataFormatError(f"{path} is not valid JSON: {err}") from None


def load_checkpoint(stem):
    manifest = read_json(stem + ".json")
    raw = np.fromfile(stem + ".bin", dtype="<f4")
    ends = np.cumsum([0] + [int(np.prod(shape)) for shape in manifest["param_shapes"]])
    if ends[-1] != raw.size:
        raise DataFormatError(f"{stem}.bin holds {raw.size} floats, manifest expects {ends[-1]}")
    return manifest, [raw[start:end].reshape(shape).copy() for start, end, shape
                      in zip(ends, ends[1:], manifest["param_shapes"])]


# ---- CSV ----

def write_csv(path, header, rows):
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def read_csv(path):
    """({}, header, rows); the empty dict keeps the three-value form
    that callers unpack."""
    with open(path) as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines() if line]
    return {}, header, rows


def write_latents_csv(path, latents):
    """Save latents as the checkpoint whose `.bin` is `path`. The CSV-era
    name and first argument stay: the benchmark tracer wraps this function
    by name and sizes the written file at `args[0]`."""
    save_checkpoint(path.removesuffix(".bin"), {"kind": "latents"}, [latents])


def read_latents_csv(path):
    """The float32 latents `write_latents_csv` saved."""
    _, (latents,) = load_checkpoint(path.removesuffix(".bin"))
    return latents


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


def read_jsonl(path):
    with open(path, "rb") as fh:
        return [_parse_json(path, line) for line in fh if line.strip()]
