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
contiguous so membrane state can be reset at each segment start.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from ._files import atomic_write

__all__ = [
    "SessionFormatError",
    "BadMagicError",
    "TruncatedSessionError",
    "NonBinarySpikeError",
    "SessionDimensionError",
    "SpikeSession",
    "SplitSpec",
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


@dataclass
class SpikeSession:
    """One contiguous recording: binary input spikes plus velocity labels."""

    spikes: np.ndarray
    velocity: np.ndarray
    dt_ms: float
    session_id: str = ""

    def __post_init__(self):
        self.spikes = np.ascontiguousarray(self.spikes, dtype=np.uint8)
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
        bad = (self.spikes != 0) & (self.spikes != 1)
        if np.any(bad):
            raise NonBinarySpikeError(
                f"spike values outside {{0,1}} at {int(np.count_nonzero(bad))} entries"
            )
        if self.velocity.size and not np.all(np.isfinite(self.velocity)):
            raise SessionDimensionError("velocity contains non-finite values")
        if not (np.isfinite(self.dt_ms) and self.dt_ms > 0):
            raise SessionFormatError(f"dt_ms must be finite and > 0, got {self.dt_ms}")

    def slice(self, start: int, stop: int, suffix: str) -> "SpikeSession":
        return replace(
            self,
            spikes=self.spikes[start:stop].copy(),
            velocity=self.velocity[start:stop].copy(),
            session_id=f"{self.session_id}{suffix}",
        )


@dataclass(frozen=True)
class SplitSpec:
    n_subsessions: int = 4

    def __post_init__(self):
        if self.n_subsessions < 1:
            raise ValueError("n_subsessions must be >= 1")


def save_session(path, session: SpikeSession) -> None:
    """Write the portable session format; byte-identical for identical input.

    A write that fails leaves no partial file (atomic_write)."""
    session.validate()
    sid = session.session_id.encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(FORMAT_VERSION, session.channels, session.timesteps,
                             session.dt_ms, len(sid)))
        f.write(sid)
        f.write(session.spikes.tobytes(order="C"))
        f.write(session.velocity.astype("<f8").tobytes(order="C"))


def load_session(path) -> SpikeSession:
    """Parse and validate a session file, with a distinct error per failure mode.

    Raises a SessionFormatError unless the file is exactly what save_session
    writes for some session: a short file is a TruncatedSessionError, and
    trailing bytes or a session id that is not UTF-8 are rejected too.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"not a spike session file: bad magic in {path}")
    off = len(MAGIC)
    if len(blob) < off + _HEADER.size:
        raise TruncatedSessionError(f"truncated header in {path}")
    version, channels, T, dt_ms, id_len = _HEADER.unpack_from(blob, off)
    if version != FORMAT_VERSION:
        raise SessionFormatError(f"unsupported session format version {version}")
    off += _HEADER.size
    expected = off + id_len + T * channels + T * 2 * 8
    if len(blob) < expected:
        raise TruncatedSessionError(
            f"truncated payload in {path}: have {len(blob)} bytes, need {expected}"
        )
    if len(blob) > expected:
        raise SessionFormatError(
            f"{len(blob) - expected} trailing bytes in {path} after {expected}"
        )
    try:
        session_id = blob[off:off + id_len].decode("utf-8")
    except UnicodeDecodeError as e:
        raise SessionFormatError(f"session id is not UTF-8 in {path}: {e}") from e
    off += id_len
    spikes = np.frombuffer(blob, dtype=np.uint8, count=T * channels, offset=off)
    spikes = spikes.reshape(T, channels)
    off += T * channels
    velocity = np.frombuffer(blob, dtype="<f8", count=T * 2, offset=off).reshape(T, 2)
    return SpikeSession(spikes=spikes.copy(), velocity=velocity.copy(),
                        dt_ms=dt_ms, session_id=session_id)


def split_session(session: SpikeSession, spec: SplitSpec = SplitSpec()) -> dict:
    """Contiguous train/val/test segments per sub-session.

    Boundaries use floor rounding; leftover timesteps land in each
    sub-session's trailing test segment. Zero-length segments are omitted.
    Returns {"train": [...], "val": [...], "test": [...]}.
    """
    T = session.timesteps
    n = spec.n_subsessions
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
    """
    if not 0 < rate < 1:
        raise ValueError(f"rate must be in (0,1), got {rate}")
    if not label_tau_steps > 0:
        raise ValueError(f"label_tau_steps must be > 0, got {label_tau_steps}")
    rng = np.random.default_rng(seed)
    spikes = (rng.random((T, channels)) < rate).astype(np.uint8)
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

    alpha = float(np.exp(-1.0 / label_tau_steps))
    drive = spikes.astype(np.float64) @ mixing.T
    velocity = np.zeros((T, 2))
    v = np.zeros(2)
    for t in range(T):
        v = alpha * v + (1.0 - alpha) * drive[t]
        velocity[t] = v
    std = velocity.std(axis=0)
    for k in range(2):
        if std[k] > 0:
            velocity[:, k] /= std[k]
    return SpikeSession(spikes=spikes, velocity=velocity, dt_ms=dt_ms,
                        session_id=session_id)
