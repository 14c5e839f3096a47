"""Spike session container, portable file format, splitting, synthetic tasks.

Session file layout (little-endian, bit-exact round trip):

    magic   8 bytes   b"SPKSES1\\n"
    header  u32 version, u32 channels, u64 T, f64 dt_ms, u32 id_length
    id      id_length bytes of UTF-8 session id
    spikes  T * channels bytes, one per entry (0/1), time-major
    velocity T * 2 float64, time-major

A session is split into 4 equal contiguous sub-sessions; within each, the
first 50% of timesteps go to training, the next 25% to validation, and the
remainder (including floor-rounding leftovers) to test. Segments are
contiguous so membrane state can be reset at each segment start, and their
arrays are views of the session's rows.

Nothing here makes an array the size of a session beside the session
itself: `generate_synthetic` draws and mixes `_SYNTH_ROWS` rows at a time,
`save_session` writes the arrays' own buffers, and `load_session` checks the
file size against the header before it reads the payload straight into the
session's arrays.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from ._files import atomic_write

__all__ = [
    "SessionFormatError",
    "BadMagicError",
    "TruncatedSessionError",
    "NonBinarySpikeError",
    "SessionDimensionError",
    "SpikeSession",
    "save_session",
    "load_session",
    "split_session",
    "generate_synthetic",
]

MAGIC = b"SPKSES1\n"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIQdI")

# train, val, test share of each sub-session; test also takes the leftovers
SPLIT_FRACTIONS = (0.5, 0.25, 0.25)

# rows generate_synthetic draws and mixes at a time (3 MB of draws at 96 ch)
_SYNTH_ROWS = 4096


class SessionFormatError(ValueError):
    """Base class for session file problems."""


class BadMagicError(SessionFormatError):
    pass


class TruncatedSessionError(SessionFormatError):
    pass


class NonBinarySpikeError(SessionFormatError):
    pass


class SessionDimensionError(SessionFormatError):
    pass


def _check_binary(spikes: np.ndarray) -> None:
    """Raise NonBinarySpikeError unless every spike is exactly 0 or 1."""
    if spikes.dtype == np.uint8:
        # a uint8 outside {0,1} is > 1; max() makes no temporary
        if not (spikes.size and spikes.max() > 1):
            return
        bad = spikes > 1
    else:
        bad = (spikes != 0) & (spikes != 1)
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        raise NonBinarySpikeError(f"spike values outside {{0,1}} at {n_bad} entries")


@dataclass
class SpikeSession:
    """One contiguous recording: binary input spikes plus velocity labels."""

    spikes: np.ndarray
    velocity: np.ndarray
    dt_ms: float
    session_id: str = ""

    def __post_init__(self):
        spikes = np.asarray(self.spikes)
        if spikes.dtype != np.uint8:
            # the uint8 cast would turn 0.5 and 256 into 0: check before it
            _check_binary(spikes)
        self.spikes = np.ascontiguousarray(spikes, dtype=np.uint8)
        self.velocity = np.ascontiguousarray(self.velocity, dtype=np.float64)
        self.validate()

    @property
    def channels(self) -> int:
        return self.spikes.shape[1]

    @property
    def timesteps(self) -> int:
        return self.spikes.shape[0]

    def validate(self) -> None:
        if self.spikes.ndim != 2:
            raise SessionDimensionError(f"spikes must be [T x channels], got {self.spikes.shape}")
        if self.velocity.ndim != 2 or self.velocity.shape[1] != 2:
            raise SessionDimensionError(f"velocity must be [T x 2], got {self.velocity.shape}")
        if self.velocity.shape[0] != self.spikes.shape[0]:
            raise SessionDimensionError(
                f"spikes T={self.spikes.shape[0]} != velocity T={self.velocity.shape[0]}"
            )
        _check_binary(self.spikes)
        if self.velocity.size and not np.all(np.isfinite(self.velocity)):
            raise SessionDimensionError("velocity contains non-finite values")
        if not (np.isfinite(self.dt_ms) and self.dt_ms > 0):
            raise SessionFormatError(f"dt_ms must be finite and > 0, got {self.dt_ms}")

    def slice(self, start: int, stop: int, suffix: str) -> "SpikeSession":
        """Rows start:stop as a session whose arrays are views of this one's."""
        return replace(
            self,
            spikes=self.spikes[start:stop],
            velocity=self.velocity[start:stop],
            session_id=f"{self.session_id}{suffix}",
        )


def save_session(path, session: SpikeSession) -> None:
    """Write the portable session format; byte-identical for identical input.

    The payload is written from the arrays' own buffers, without a copy. A
    write that fails leaves no partial file (atomic_write)."""
    session.validate()
    sid = session.session_id.encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(FORMAT_VERSION, session.channels, session.timesteps,
                             session.dt_ms, len(sid)))
        f.write(sid)
        # no copy unless an array is not C-contiguous or not little-endian
        f.write(np.ascontiguousarray(session.spikes, dtype=np.uint8))
        f.write(np.ascontiguousarray(session.velocity, dtype="<f8"))


def load_session(path) -> SpikeSession:
    """Parse and validate a session file, with a distinct error per failure mode.

    Raises a SessionFormatError unless the file is exactly what save_session
    writes for some session: a short file is a TruncatedSessionError, and
    trailing bytes or a session id that is not UTF-8 are rejected too. The
    header's sizes are checked against the file's size before anything is
    allocated from them; the payload is then read straight into the
    session's arrays.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(MAGIC)) != MAGIC:
            raise BadMagicError(f"not a spike session file: bad magic in {path}")
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedSessionError(f"truncated header in {path}")
        version, channels, T, dt_ms, id_len = _HEADER.unpack(header)
        if version != FORMAT_VERSION:
            raise SessionFormatError(f"unsupported session format version {version}")
        expected = len(MAGIC) + _HEADER.size + id_len + T * channels + T * 2 * 8
        if size < expected:
            raise TruncatedSessionError(
                f"truncated payload in {path}: have {size} bytes, need {expected}"
            )
        if size > expected:
            raise SessionFormatError(f"{size - expected} trailing bytes in {path} after {expected}")
        try:
            session_id = _read_exact(f, bytearray(id_len), path).decode("utf-8")
        except UnicodeDecodeError as e:
            raise SessionFormatError(f"session id is not UTF-8 in {path}: {e}") from e
        spikes = _read_exact(f, np.empty((T, channels), dtype=np.uint8), path)
        velocity = _read_exact(f, np.empty((T, 2), dtype="<f8"), path)
    return SpikeSession(spikes=spikes, velocity=velocity, dt_ms=dt_ms, session_id=session_id)


def _read_exact(f, buf, path):
    """Fill buf from f; a file that shrank since its size was taken is truncated."""
    if f.readinto(buf) != memoryview(buf).nbytes:
        raise TruncatedSessionError(f"truncated payload in {path}: file shrank while read")
    return buf


def split_session(session: SpikeSession, n_subsessions: int = 4) -> dict:
    """Contiguous train/val/test segments per sub-session.

    Boundaries use floor rounding; leftover timesteps land in each
    sub-session's trailing test segment. Zero-length segments are omitted.
    The segments' arrays are views of the session's rows, not copies.
    Returns {"train": [...], "val": [...], "test": [...]}.
    """
    T = session.timesteps
    n = n_subsessions
    if n < 1:
        raise ValueError("n_subsessions must be >= 1")
    if T < n:
        raise ValueError(f"session too small to split: T={T} < {n} sub-sessions")
    bounds = [T * i // n for i in range(n + 1)]
    out = {"train": [], "val": [], "test": []}
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        length = hi - lo
        n_train = int(SPLIT_FRACTIONS[0] * length)
        n_val = int(SPLIT_FRACTIONS[1] * length)
        cuts = [
            ("train", lo, lo + n_train),
            ("val", lo + n_train, lo + n_train + n_val),
            ("test", lo + n_train + n_val, hi),
        ]
        for name, a, b in cuts:
            if b > a:
                out[name].append(session.slice(a, b, f"/s{i}.{name}"))
    return out


def generate_synthetic(seed: int, channels: int, T: int, rate: float,
                       mixing: np.ndarray | None = None,
                       mixing_density: float = 0.25,
                       label_tau_steps: float = 5.0,
                       dt_ms: float = 4.0,
                       session_id: str = "synthetic") -> SpikeSession:
    """Seeded decodable task: Bernoulli spikes, low-pass linear readout labels.

    Velocity is a first-order low-pass (pole exp(-1/label_tau_steps)) of a
    sparse signed linear mix of the spike trains, normalized per component to
    unit variance. The label filter pole matches the default readout-neuron
    decay so the target is exactly representable by the decoder. Everything
    is a pure function of the arguments.

    The session is made `_SYNTH_ROWS` rows at a time, so its uint8 spikes
    are the only array of its size. The uniform draws of a block go into one
    reused buffer; consecutive draws continue one stream, so the spikes equal
    a single [T x channels] draw. The mix (the drive) adds, per block and in
    channel order, each channel's `mixing[:, k] * spikes[:, k]` to a
    component-major [2 x T] sum, skipping channels both components weight
    by ±0. A spike is 0 or 1, so every product is exact and the drive is a
    sum in channel order, whatever the BLAS build. It has the bits of the
    `spikes @ mixing.T` GEMM that OpenBLAS 0.3.31 (Haswell) runs on more
    than 600 rows at up to 192 channels. That GEMM sums in another order on
    600 rows or fewer (from 32 channels) and at 500 channels, so there a
    velocity can differ from it in the last bit.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0 < rate < 1:
        raise ValueError(f"rate must be in (0,1), got {rate}")
    if not label_tau_steps > 0:
        raise ValueError(f"label_tau_steps must be > 0, got {label_tau_steps}")
    if not 0 <= mixing_density <= 1:
        raise ValueError(f"mixing_density must be in [0,1], got {mixing_density}")
    if not (math.isfinite(dt_ms) and dt_ms > 0):
        raise ValueError(f"dt_ms must be finite and > 0, got {dt_ms}")
    rng = np.random.default_rng(seed)
    blocks = [(lo, min(T, lo + _SYNTH_ROWS)) for lo in range(0, T, _SYNTH_ROWS)]
    spikes = np.empty((T, channels), dtype=np.uint8)
    fired = spikes.view(np.bool_)
    draws = np.empty((blocks[0][1], channels))
    for lo, hi in blocks:
        rng.random(out=draws[:hi - lo])
        np.less(draws[:hi - lo], rate, out=fired[lo:hi])
    del draws
    if mixing is None:
        active = rng.random((2, channels)) < mixing_density
        # guarantee each component reads at least one channel
        for k in range(2):
            if not active[k].any():
                active[k, int(rng.integers(channels))] = True
        signs = rng.choice([-1.0, 1.0], size=(2, channels))
        gains = rng.uniform(0.5, 1.5, size=(2, channels))
        mixing = active * signs * gains
    else:
        mixing = np.asarray(mixing, dtype=np.float64)
        if mixing.shape != (2, channels):
            raise ValueError(f"mixing must be [2 x {channels}], got {mixing.shape}")

    drive = np.zeros((2, T))
    read = np.flatnonzero((mixing != 0).any(axis=0))
    for lo, hi in blocks:
        for k in read:
            drive[:, lo:hi] += mixing[:, k, None] * spikes[lo:hi, k]

    alpha = float(np.exp(-1.0 / label_tau_steps))
    b = 1.0 - alpha
    # the filter x = alpha·x + b·dx, in Python floats: the same IEEE
    # operations as in numpy, without a numpy call per step. array("d")
    # holds 8 bytes a value, where a list of floats holds 32.
    velocity = np.empty((T, 2))
    for k in range(2):
        filtered = array("d", accumulate(memoryview(drive[k]),
                                         lambda x, dx: alpha * x + b * dx, initial=0.0))
        velocity[:, k] = np.frombuffer(filtered)[1:]
    std = velocity.std(axis=0)
    for k in range(2):
        if std[k] > 0:
            velocity[:, k] /= std[k]
    return SpikeSession(spikes=spikes, velocity=velocity, dt_ms=dt_ms,
                        session_id=session_id)
