"""Self-describing binary checkpoint for a network.

Layout: 8-byte magic b"SPCKPT1\\n", u32 little-endian header length, UTF-8
JSON header, then for each layer its weights as row-major little-endian
float64 followed by its mask as one byte per entry. The header is a
canonical JSON object with exactly the keys format_version ("2"),
layer_dims, lif (the one LIF parameter set of every layer), seed and meta
(free-form metadata). Which layers spike and which are prunable follows from
layer_dims: all but the readout. Files of format "1", which stored those
facts per layer, are rejected. Weights and masks round-trip bit-exactly;
writing the same network twice produces identical bytes, and a write that
fails leaves no partial file.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ._files import atomic_write
from .network import LifParams, Network, NetworkConfig, WeightLayer

__all__ = ["CheckpointError", "CheckpointVersionError", "save_checkpoint",
           "load_checkpoint", "FORMAT_VERSION"]

MAGIC = b"SPCKPT1\n"
FORMAT_VERSION = "2"


class CheckpointError(ValueError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


_HEADER_KEYS = {"format_version", "layer_dims", "lif", "seed", "meta"}
_LIF_KEYS = {"tau", "threshold", "reset_value", "dt"}


def _header_blob(header: dict) -> bytes:
    # a non-finite float (a tau that overflowed) would be written as a bare
    # Infinity or NaN, which load_checkpoint rejects: refuse before writing
    return json.dumps(header, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def _check_layer(i: int, w: np.ndarray, m: np.ndarray, error: type, where: str) -> None:
    """Raise error unless load_checkpoint accepts layer i's float64 weights w
    under its uint8 mask m; where ends the message."""
    if not np.isfinite(w).all():
        raise error(f"layer {i} has non-finite weights{where}")
    if (m > 1).any():
        raise error(f"layer {i} has mask bytes other than 0 and 1{where}")
    if (w[m == 0] != 0.0).any():
        raise error(f"layer {i} has nonzero weights under a zero mask{where}")


def save_checkpoint(path, net: Network, meta: dict | None = None) -> None:
    """Write net and meta to path, atomically; raises ValueError, before
    opening the file, for a network that load_checkpoint would reject."""
    p = net.config.lif
    header = {
        "format_version": FORMAT_VERSION,
        "layer_dims": list(net.config.layer_dims),
        "lif": {"tau": p.tau, "threshold": p.threshold,
                "reset_value": p.reset_value, "dt": p.dt},
        "seed": net.config.seed,
        "meta": meta or {},
    }
    blob = _header_blob(header)
    payload = []
    for i, layer in enumerate(net.layers):
        w, m = layer.weights.astype("<f8"), layer.mask.astype(np.uint8)
        _check_layer(i, w, m, ValueError, ", which load_checkpoint rejects")
        payload += [w.tobytes(order="C"), m.tobytes(order="C")]
    with atomic_write(path) as f:
        for part in (MAGIC, struct.pack("<I", len(blob)), blob, *payload):
            f.write(part)


def _reject_constant(name):
    raise ValueError(f"{name} is not a finite number")


def _all(values, kind) -> bool:
    # bool is an int subclass: a flag must not pass as a number or vice versa
    return isinstance(values, list) and all(
        isinstance(v, kind) and isinstance(v, bool) == (kind is bool) for v in values)


def _parse_header(raw: bytes, path) -> tuple[dict, NetworkConfig]:
    try:
        header = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, ValueError) as e:
        raise CheckpointError(f"checkpoint header is not UTF-8 JSON in {path}: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header is not a JSON object in {path}")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version!r} in {path}, expected {FORMAT_VERSION!r}"
        )
    if set(header) != _HEADER_KEYS:
        raise CheckpointError(
            f"checkpoint header needs exactly the keys {sorted(_HEADER_KEYS)} in {path}")
    if _header_blob(header) != raw:
        raise CheckpointError(f"checkpoint header is not in canonical form in {path}")
    lif = header["lif"]
    if not (_all(header["layer_dims"], int) and _all([header["seed"]], int)
            and isinstance(header["meta"], dict) and isinstance(lif, dict)
            and set(lif) == _LIF_KEYS and _all(list(lif.values()), (int, float))):
        raise CheckpointError(f"checkpoint header has a field of the wrong type in {path}")
    try:
        config = NetworkConfig(layer_dims=tuple(header["layer_dims"]),
                               lif=LifParams(**lif), seed=header["seed"])
    except ValueError as e:
        raise CheckpointError(f"checkpoint header describes no valid network in {path}: {e}") from e
    return header, config


def load_checkpoint(path):
    """Returns (Network, meta dict).

    Raises CheckpointError (CheckpointVersionError on a version mismatch)
    unless the file is exactly what save_checkpoint writes for some network:
    magic, header length, canonical UTF-8 JSON header with exactly the
    expected keys and types, and a payload of the exact length with finite
    weights, masks of 0 and 1, and zero weights wherever the mask is 0.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"not a checkpoint file: bad magic in {path}")
    off = len(MAGIC) + 4
    if len(blob) < off:
        raise CheckpointError(f"truncated checkpoint header in {path}")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    if len(blob) < off + header_len:
        raise CheckpointError(f"truncated checkpoint header in {path}")
    header, config = _parse_header(blob[off:off + header_len], path)
    off += header_len
    dims = config.layer_dims
    need = off + sum(9 * dims[i] * dims[i + 1] for i in range(config.n_layers))
    if len(blob) != need:
        raise CheckpointError(
            f"checkpoint payload is {len(blob) - off} bytes, expected {need - off} in {path}")
    layers = []
    for i in range(config.n_layers):
        rows, cols = dims[i + 1], dims[i]
        n = rows * cols
        w = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(rows, cols)
        off += n * 8
        m = np.frombuffer(blob, dtype=np.uint8, count=n, offset=off).reshape(rows, cols)
        off += n
        _check_layer(i, w, m, CheckpointError, f" in {path}")
        layers.append(WeightLayer(weights=w.copy(), mask=m.copy()))
    return Network(config, layers), header["meta"]
