import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from helpers import synthetic_oracle

from spikeprune.data import (
    _SYNTH_ROWS,
    MAGIC,
    BadMagicError,
    NonBinarySpikeError,
    SessionDimensionError,
    SessionFormatError,
    SpikeSession,
    TruncatedSessionError,
    generate_synthetic,
    load_session,
    save_session,
    split_session,
)
from spikeprune.metrics import evaluate_segments
from spikeprune.network import Network, NetworkConfig
from spikeprune.training import AdamOptimizer, TrainConfig, train_epoch, validate


def sample_session(T=40, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    return SpikeSession(
        spikes=(rng.random((T, channels)) < 0.4).astype(np.uint8),
        velocity=rng.normal(size=(T, 2)),
        dt_ms=4.0,
        session_id="sample",
    )


class TestFileFormat:
    def test_roundtrip_is_bitwise(self, tmp_path):
        session = sample_session()
        p1 = tmp_path / "a.spk"
        p2 = tmp_path / "b.spk"
        save_session(p1, session)
        loaded = load_session(p1)
        assert np.array_equal(loaded.spikes, session.spikes)
        assert np.array_equal(loaded.velocity, session.velocity)
        assert loaded.dt_ms == session.dt_ms
        assert loaded.session_id == session.session_id
        save_session(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.spk"
        p.write_bytes(b"NOTASESS" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_session(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.spk"
        save_session(p, sample_session())
        blob = p.read_bytes()
        p.write_bytes(blob[:-10])
        with pytest.raises(TruncatedSessionError):
            load_session(p)
        p.write_bytes(blob[: len(MAGIC) + 3])
        with pytest.raises(TruncatedSessionError):
            load_session(p)

    def test_non_binary_spike(self, tmp_path):
        p = tmp_path / "nb.spk"
        session = sample_session(T=4, channels=2)
        save_session(p, session)
        blob = bytearray(p.read_bytes())
        # first spike byte sits right after magic + header + id
        off = len(blob) - 4 * 2 - 4 * 2 * 8
        blob[off] = 7
        p.write_bytes(bytes(blob))
        with pytest.raises(NonBinarySpikeError):
            load_session(p)

    def test_dimension_error_is_distinct(self):
        with pytest.raises(SessionDimensionError):
            SpikeSession(spikes=np.zeros((3, 2), dtype=np.uint8),
                         velocity=np.zeros((4, 2)), dt_ms=1.0)
        with pytest.raises(SessionDimensionError):
            SpikeSession(spikes=np.zeros((3, 2), dtype=np.uint8),
                         velocity=np.zeros((3, 3)), dt_ms=1.0)

    def test_zero_channels_are_a_dimension_error(self, tmp_path):
        # a session no decoder can read; T = 0 stays valid (the empty round trip)
        with pytest.raises(SessionDimensionError, match="channels > 0"):
            SpikeSession(spikes=np.zeros((400, 0), dtype=np.uint8),
                         velocity=np.zeros((400, 2)), dt_ms=4.0)
        p = tmp_path / "z.spk"
        p.write_bytes(MAGIC + struct.pack("<IIQdI", 1, 0, 400, 4.0, 0)
                      + np.zeros((400, 2), dtype="<f8").tobytes())
        with pytest.raises(SessionDimensionError, match="channels > 0"):
            load_session(p)

    @pytest.mark.parametrize("values", [[[0.5, 1.0]], [[1.7, 0.0]], [[256, 0]],
                                        [[np.nan, 1.0]], [[-1, 1]]])
    def test_non_binary_input_is_rejected_before_the_cast(self, values):
        # a uint8 cast would read 0.5 and 256 as 0, 1.7 as 1, and warn on NaN
        with pytest.raises(NonBinarySpikeError, match="at 1 entries"):
            SpikeSession(spikes=np.array(values), velocity=np.zeros((1, 2)), dt_ms=1.0)

    def test_binary_input_of_any_dtype_is_accepted(self):
        for spikes in ([[0, 1]], [[0.0, 1.0]], [[False, True]], np.array([[0, 1]], np.int8)):
            session = SpikeSession(spikes=spikes, velocity=np.zeros((1, 2)), dt_ms=1.0)
            assert session.spikes.dtype == np.uint8
            assert session.spikes.tolist() == [[0, 1]]

    def test_save_rejects_spikes_replaced_after_construction(self, tmp_path):
        session = sample_session(T=4, channels=2)
        save_session(tmp_path / "a.spk", session)
        session.spikes = session.spikes.astype(np.float64)
        save_session(tmp_path / "b.spk", session)
        assert (tmp_path / "a.spk").read_bytes() == (tmp_path / "b.spk").read_bytes()
        session.spikes[0, 0] = 0.5
        with pytest.raises(NonBinarySpikeError):
            save_session(tmp_path / "c.spk", session)
        assert not (tmp_path / "c.spk").exists()

    def test_error_taxonomy(self):
        for err in (BadMagicError, TruncatedSessionError, NonBinarySpikeError,
                    SessionDimensionError):
            assert issubclass(err, SessionFormatError)

    def test_empty_session_roundtrip(self, tmp_path):
        session = SpikeSession(spikes=np.zeros((0, 5), dtype=np.uint8),
                               velocity=np.zeros((0, 2)), dt_ms=4.0,
                               session_id="empty")
        p = tmp_path / "e.spk"
        save_session(p, session)
        loaded = load_session(p)
        assert loaded.timesteps == 0 and loaded.channels == 5


class TestStrictBoundary:
    """Everything load_session accepts is exactly what save_session writes
    for the session it returns; anything else is a SessionFormatError."""

    def saved(self, tmp_path):
        p = tmp_path / "s.spk"
        save_session(p, sample_session(T=12, channels=3, seed=4))
        return p.read_bytes()

    def loads_unchanged(self, tmp_path, data):
        """False on SessionFormatError; True if the bytes load and re-save as is."""
        p, again = tmp_path / "m.spk", tmp_path / "again.spk"
        p.write_bytes(data)
        try:
            session = load_session(p)
        except SessionFormatError:
            return False
        save_session(again, session)
        assert again.read_bytes() == data
        return True

    def test_truncation_at_every_offset_is_rejected(self, tmp_path):
        blob = self.saved(tmp_path)
        for n in range(len(blob)):
            assert not self.loads_unchanged(tmp_path, blob[:n]), n

    def test_trailing_bytes_are_rejected(self, tmp_path):
        blob = self.saved(tmp_path)
        assert self.loads_unchanged(tmp_path, blob)
        for tail in (b"\x00", b"junk", blob):
            assert not self.loads_unchanged(tmp_path, blob + tail)

    def test_seeded_byte_flips_load_unchanged_or_are_rejected(self, tmp_path):
        blob = self.saved(tmp_path)
        rng = np.random.default_rng(2025)
        outcomes = []
        for _ in range(1500):
            data = bytearray(blob)
            pos = int(rng.integers(len(data)))
            if rng.random() < 0.5:
                data[pos] ^= 1 << int(rng.integers(8))
            else:
                data[pos] = int(rng.integers(256))
            outcomes.append(self.loads_unchanged(tmp_path, bytes(data)))
        assert any(outcomes) and not all(outcomes)

    def test_bad_id_and_dt_are_rejected(self, tmp_path):
        blob = self.saved(tmp_path)
        head = len(MAGIC) + struct.calcsize("<IIQdI")
        dt_at = head - 12
        assert blob[head:head + 6] == b"sample"
        for bad in (
            blob[:head] + b"\xff\xfe" + blob[head + 2:],  # id not UTF-8
            blob[:dt_at] + struct.pack("<d", float("nan")) + blob[dt_at + 8:],
            blob[:dt_at] + struct.pack("<d", 0.0) + blob[dt_at + 8:],
            blob[:dt_at] + struct.pack("<d", -4.0) + blob[dt_at + 8:],
        ):
            assert not self.loads_unchanged(tmp_path, bad)


class TestSplit:
    def test_160_timesteps(self):
        session = sample_session(T=160)
        split = split_session(session)
        assert [s.timesteps for s in split["train"]] == [20, 20, 20, 20]
        assert [s.timesteps for s in split["val"]] == [10, 10, 10, 10]
        assert [s.timesteps for s in split["test"]] == [10, 10, 10, 10]

    def test_val_length_is_floored(self):
        # sub-sessions of 7 steps: 3.5 train, 1.75 val; round would give 4 and 2
        split = split_session(sample_session(T=28))
        assert [s.timesteps for s in split["train"]] == [3] * 4
        assert [s.timesteps for s in split["val"]] == [1] * 4
        assert [s.timesteps for s in split["test"]] == [3] * 4

    def test_degenerate_t4(self):
        session = sample_session(T=4)
        split = split_session(session)
        # sub-sessions of one timestep: floor(0.5)=floor(0.25)=0, all to test
        assert split["train"] == [] and split["val"] == []
        assert [s.timesteps for s in split["test"]] == [1, 1, 1, 1]

    def test_partition_property(self):
        for T in (37, 100, 163):
            session = sample_session(T=T, seed=T)
            split = split_session(session)
            segs = split["train"] + split["val"] + split["test"]
            total = sum(s.timesteps for s in segs)
            assert total == T
            # reassemble in original order and compare content
            rebuilt = np.zeros_like(session.spikes)
            offsets = {}
            for name in ("train", "val", "test"):
                for i, seg in enumerate(split[name]):
                    offsets[(name, i)] = seg
            # order segments by locating them in the session
            pos = 0
            chunks = sorted(segs, key=lambda s: _find_offset(session, s))
            for seg in chunks:
                rebuilt[pos:pos + seg.timesteps] = seg.spikes
                pos += seg.timesteps
            assert np.array_equal(rebuilt, session.spikes)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_session(sample_session(T=3))

    def test_subsession_count_validation(self):
        with pytest.raises(ValueError):
            split_session(sample_session(T=160), 0)

    def test_segments_are_views_of_the_session(self):
        session = sample_session(T=160)
        split = split_session(session, 2)
        for seg in split["train"] + split["val"] + split["test"]:
            assert np.shares_memory(seg.spikes, session.spikes)
            assert np.shares_memory(seg.velocity, session.velocity)

    def test_training_and_eval_leave_the_session_unchanged(self):
        session = generate_synthetic(seed=3, channels=4, T=400, rate=0.3)
        before = session.spikes.tobytes(), session.velocity.tobytes()
        split = split_session(session)
        net = Network.from_config(NetworkConfig.snn3(4, hidden=(5, 5, 5), seed=3))
        tc = TrainConfig(learning_rate=5e-3, batch_length=25)
        train_epoch(net, split["train"], tc, AdamOptimizer(tc.learning_rate))
        validate(net, split["val"])
        evaluate_segments(net, split["train"] + split["val"] + split["test"])
        assert (session.spikes.tobytes(), session.velocity.tobytes()) == before


def _find_offset(session, seg):
    T, k = session.timesteps, seg.timesteps
    for off in range(T - k + 1):
        if np.array_equal(session.spikes[off:off + k], seg.spikes) and \
                np.array_equal(session.velocity[off:off + k], seg.velocity):
            return off
    raise AssertionError("segment not found in session")


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(seed=5, channels=8, T=300, rate=0.2)
        b = generate_synthetic(seed=5, channels=8, T=300, rate=0.2)
        assert np.array_equal(a.spikes, b.spikes)
        assert np.array_equal(a.velocity, b.velocity)

    def test_rate_within_3_sigma(self):
        rate = 0.2
        s = generate_synthetic(seed=9, channels=50, T=400, rate=rate)
        n = s.spikes.size
        assert n >= 10_000
        sigma = np.sqrt(rate * (1 - rate) / n)
        assert abs(s.spikes.mean() - rate) <= 3 * sigma

    def test_vanishing_rate_gives_zero_labels(self):
        s = generate_synthetic(seed=1, channels=10, T=1000, rate=1e-9)
        assert not s.spikes.any()
        assert not s.velocity.any()

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, channels=4, T=10, rate=0.0)
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, channels=4, T=10, rate=1.0)

    def test_label_tau_validation(self):
        for tau in (0.0, -5.0):
            with pytest.raises(ValueError):
                generate_synthetic(seed=0, channels=4, T=10, rate=0.5, label_tau_steps=tau)

    def test_explicit_mixing(self):
        mix = np.zeros((2, 4))
        mix[0, 0] = 1.0
        mix[1, 3] = -1.0
        s = generate_synthetic(seed=2, channels=4, T=200, rate=0.5, mixing=mix)
        assert s.velocity.shape == (200, 2)
        with pytest.raises(ValueError):
            generate_synthetic(seed=2, channels=4, T=10, rate=0.5,
                               mixing=np.zeros((2, 5)))


class TestSyntheticBlocks:
    """generate_synthetic runs _SYNTH_ROWS rows at a time; its sessions equal
    a BLAS-free re-derivation from one draw at every block boundary."""

    @pytest.mark.parametrize("channels", [1, 3, 32, 96, 192])
    def test_matches_the_oracle_at_block_boundaries(self, channels):
        for T in (1, 2, _SYNTH_ROWS - 1, _SYNTH_ROWS, _SYNTH_ROWS + 1, _SYNTH_ROWS + 2,
                  2 * _SYNTH_ROWS - 1):
            s = generate_synthetic(seed=T + channels, channels=channels, T=T, rate=0.3)
            spikes, velocity = synthetic_oracle(T + channels, channels, T, 0.3)
            assert np.array_equal(s.spikes, spikes)
            assert s.velocity.tobytes() == velocity.tobytes(), T

    def test_explicit_mixing_with_signed_zero_columns(self):
        channels, T = 6, _SYNTH_ROWS + 2
        mix = np.array([[0.0, -0.0, 0.75, 0.0, -1.25, -0.0],
                        [-0.0, 0.0, -0.5, 2.0, 0.0, -0.0]])
        for rate in (0.3, 0.9):
            s = generate_synthetic(seed=3, channels=channels, T=T, rate=rate, mixing=mix,
                                   label_tau_steps=2.0)
            spikes, velocity = synthetic_oracle(3, channels, T, rate, mixing=mix,
                                                label_tau_steps=2.0)
            assert np.array_equal(s.spikes, spikes)
            assert s.velocity.tobytes() == velocity.tobytes()
        silent = generate_synthetic(seed=3, channels=channels, T=T, rate=0.3,
                                    mixing=np.where(mix > 0, -0.0, 0.0))
        assert not silent.velocity.any() and not np.signbit(silent.velocity).any()

    def test_acceptance_session_bytes_are_pinned(self, tmp_path):
        session = generate_synthetic(seed=11, channels=32, T=20_000, rate=0.3,
                                     mixing_density=0.25)
        save_session(tmp_path / "s.spk", session)
        digest = hashlib.sha256((tmp_path / "s.spk").read_bytes()).hexdigest()
        assert digest == "ec84a0dafdbc1a30f8715e9d0e52ecb9ca2aec440f2cb4b6ee1ae8133e9fcb6c"


def traced_peak(fn, *args):
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSessionMemory:
    """No step makes an array the size of a 96-ch, 60,000-step session
    (5.8 MB of spikes) beside the session itself."""

    C, T = 96, 60_000
    MB = 1 << 20

    @pytest.fixture(scope="class")
    def session(self):
        return generate_synthetic(seed=1, channels=self.C, T=self.T, rate=0.3)

    @pytest.fixture(scope="class")
    def saved(self, session, tmp_path_factory):
        path = tmp_path_factory.mktemp("memory") / "s.spk"
        save_session(path, session)
        return path

    def test_generate_synthetic(self):
        _, peak = traced_peak(generate_synthetic, 1, self.C, self.T, 0.3)
        assert peak <= 16 * self.MB

    def test_validate(self, session):
        _, peak = traced_peak(session.validate)
        assert peak <= self.MB

    def test_save_session(self, session, tmp_path):
        _, peak = traced_peak(save_session, tmp_path / "s.spk", session)
        assert peak <= self.MB

    def test_load_session(self, session, saved):
        loaded, peak = traced_peak(load_session, saved)
        assert peak <= session.spikes.nbytes + session.velocity.nbytes + self.MB
        assert np.array_equal(loaded.spikes, session.spikes)
        assert loaded.velocity.tobytes() == session.velocity.tobytes()
