"""Self-describing binary checkpoint for a network.

Layout: 8-byte magic b"SPCKPT1\\n", u32 little-endian header length, UTF-8
JSON header, then for each layer its weights as row-major little-endian
float64 followed by its mask as one byte per entry. The header is a
canonical JSON object with exactly the keys format_version ("2"),
layer_dims, lif (the one LIF parameter set of every layer), seed and meta
(free-form metadata), under the JSON rules of README's CLI section. Which
layers spike and which are prunable follows from layer_dims: all but the
readout. Files of format "1", which stored those facts per layer, are
rejected. Weights and masks round-trip bit-exactly; writing the same network
twice produces identical bytes, and a write that fails leaves no partial
file.
"""

from __future__ import annotations

import struct

import numpy as np

from ._files import atomic_write, check_schema, dump_json, parse_json
from .network import LifParams, Network, NetworkConfig, WeightLayer

__all__ = ["CheckpointError", "CheckpointVersionError", "save_checkpoint",
           "load_checkpoint", "FORMAT_VERSION"]

MAGIC = b"SPCKPT1\n"
FORMAT_VERSION = "2"


class CheckpointError(ValueError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


_LIF_KEYS = {"tau", "threshold", "reset_value", "dt"}
# the header's typed keys; meta need only be an object
_HEADER_SCHEMA = {"layer_dims": [0], "lif": dict.fromkeys(_LIF_KEYS, 0.0), "seed": 0}
_HEADER_KEYS = {*_HEADER_SCHEMA, "format_version", "meta"}


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
    """Write net and meta to path, atomically; raises ValueError (a
    CheckpointError for the header), before opening the file, for a network
    or meta that load_checkpoint would reject."""
    p = net.config.lif
    header = {
        "format_version": FORMAT_VERSION,
        "layer_dims": list(net.config.layer_dims),
        "lif": {"tau": p.tau, "threshold": p.threshold,
                "reset_value": p.reset_value, "dt": p.dt},
        "seed": net.config.seed,
        "meta": meta or {},
    }
    blob = dump_json(header, CheckpointError, f"checkpoint {path} header").encode("utf-8")
    _parse_header(blob, path)
    payload = []
    for i, layer in enumerate(net.layers):
        w, m = layer.weights.astype("<f8"), layer.mask.astype(np.uint8)
        _check_layer(i, w, m, ValueError, ", which load_checkpoint rejects")
        payload += [w.tobytes(order="C"), m.tobytes(order="C")]
    with atomic_write(path) as f:
        for part in (MAGIC, struct.pack("<I", len(blob)), blob, *payload):
            f.write(part)


def _parse_header(raw: bytes, path) -> tuple[dict, NetworkConfig]:
    what = f"checkpoint {path} header"
    header = parse_json(raw, CheckpointError, what)
    if not isinstance(header, dict):
        raise CheckpointError(f"{what} is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(f"{what} has format version {version!r}, "
                                     f"expected {FORMAT_VERSION!r}")
    if set(header) != _HEADER_KEYS:
        raise CheckpointError(f"{what} needs exactly the keys {sorted(_HEADER_KEYS)}")
    # the finite-only re-encode also refuses a NaN or a 1e999 (parsed as inf)
    if dump_json(header, CheckpointError, what).encode("utf-8") != raw:
        raise CheckpointError(f"{what} is not in canonical form")
    check_schema({k: header[k] for k in _HEADER_SCHEMA}, _HEADER_SCHEMA, what, CheckpointError)
    lif = header["lif"]
    if set(lif) != _LIF_KEYS or not isinstance(header["meta"], dict):
        raise CheckpointError(f"{what} needs the lif keys {sorted(_LIF_KEYS)} and an object as meta")
    try:
        config = NetworkConfig(layer_dims=tuple(header["layer_dims"]),
                               lif=LifParams(**lif), seed=header["seed"])
    except ValueError as e:
        raise CheckpointError(f"{what} describes no valid network: {e}") from e
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
