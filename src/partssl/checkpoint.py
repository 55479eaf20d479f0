"""Self-describing binary checkpoint container.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header,
raw float64 payload. The header records a format version, arbitrary config
and extra-state dicts, per-tensor name/shape/offset and the SHA-256 of the
payload. Round trips are bit-exact because payloads are raw ``float64``
bytes; the checksum makes a flipped payload byte a refusal, not a wrong
number.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"PSSLCKPT"
VERSION = 2


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    config: dict
    extra: dict
    tensors: dict  # name -> np.ndarray (float64)


def save_checkpoint(path, tensors, config=None, extra=None):
    """Write named float64 arrays plus config/extra metadata, atomically."""
    arrays = {k: np.ascontiguousarray(v, dtype=np.float64) for k, v in tensors.items()}
    entries = []
    offset = 0
    digest = hashlib.sha256()
    for name, arr in arrays.items():
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
        digest.update(arr)
    header = json.dumps({
        "version": VERSION,
        "config": config or {},
        "extra": extra or {},
        "tensors": entries,
        "sha256": digest.hexdigest(),
    }).encode("utf-8")
    # a crash or a full disk mid-write leaves the previous file whole: write a
    # sibling, then rename it over the target (atomic within one directory)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for arr in arrays.values():
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return path


def _is_count(x):
    return type(x) is int and x >= 0  # JSON true/false are not counts


def _is_entry(ent):
    return (isinstance(ent, dict) and isinstance(ent.get("name"), str)
            and isinstance(ent.get("shape"), list) and all(map(_is_count, ent["shape"]))
            and _is_count(ent.get("offset")))


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError("%s: not a checkpoint file (bad magic)" % path)
    try:
        (hlen,) = struct.unpack_from("<Q", blob, len(MAGIC))
        start = len(MAGIC) + 8 + hlen  # of the payload
        if start > len(blob):
            raise ValueError("the %d-byte header runs past the end of the file" % hlen)
        header = json.loads(blob[start - hlen:start].decode("utf-8"))
    except (struct.error, ValueError) as exc:  # also JSON and UTF-8 errors
        raise CheckpointError("%s: truncated or corrupt header: %s" % (path, exc)) from None
    if not isinstance(header, dict):
        raise CheckpointError("%s: the header is not a JSON object" % path)
    if header.get("version") != VERSION:
        raise CheckpointError(
            "%s: checkpoint version %s, this build reads version %d"
            % (path, header.get("version"), VERSION))
    entries = header.get("tensors")
    if not isinstance(entries, list) or not all(map(_is_entry, entries)):
        raise CheckpointError("%s: the header's tensors are not a list of entries with a "
                              "name, a shape of ints >= 0 and an offset >= 0" % path)
    if not all(isinstance(header.get(k, {}), dict) for k in ("config", "extra")):
        raise CheckpointError("%s: the header's config and extra are not JSON objects" % path)
    if not isinstance(header.get("sha256"), str):
        raise CheckpointError("%s: the header has no sha256 of the payload" % path)
    tensors = {}
    for ent in entries:
        shape = tuple(ent["shape"])
        count = math.prod(shape)
        offset = start + ent["offset"]
        if offset + 8 * count > len(blob):
            raise CheckpointError("%s: tensor %r runs past the end of the file (truncated?)"
                                  % (path, ent["name"]))
        arr = np.frombuffer(blob, dtype=np.float64, count=count, offset=offset)
        # a copy: frombuffer is read-only, and parameters are updated in place
        tensors[ent["name"]] = arr.reshape(shape).copy()
    if hashlib.sha256(memoryview(blob)[start:]).hexdigest() != header["sha256"]:
        raise CheckpointError("%s: payload checksum mismatch (a changed or damaged file)" % path)
    return Checkpoint(
        config=header.get("config", {}),
        extra=header.get("extra", {}),
        tensors=tensors,
    )
