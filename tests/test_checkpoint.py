import json
import struct

import numpy as np
import pytest

from helpers import set_masks

from spikeprune.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from spikeprune.cli import EXIT_DATA, main
from spikeprune.network import LifParams, Network, NetworkConfig


def make_net(seed=0):
    cfg = NetworkConfig.snn3(5, hidden=(4, 3, 4),
                             lif=LifParams(tau=7.5, dt=2.0), seed=seed)
    net = Network.from_config(cfg)
    rng = np.random.default_rng(seed + 1)
    return set_masks(net, [(rng.random(layer.mask.shape) > 0.3).astype(np.uint8)
                           for layer in net.layers])


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        net = make_net(seed=3)
        p = tmp_path / "n.ckpt"
        save_checkpoint(p, net, meta={"target_loss": 0.123456789012345})
        loaded, meta = load_checkpoint(p)
        assert loaded.config.layer_dims == net.config.layer_dims
        assert loaded.config.lif == net.config.lif == LifParams(tau=7.5, dt=2.0)
        assert loaded.config.seed == net.config.seed
        for la, lb in zip(loaded.layers, net.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert la.weights.dtype == np.float64
            assert np.array_equal(la.mask, lb.mask)
        assert meta["target_loss"] == 0.123456789012345

    def test_same_bytes_on_rewrite(self, tmp_path):
        net = make_net(seed=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net, meta={"k": 1})
        save_checkpoint(p2, net, meta={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_identical(self, tmp_path):
        net = make_net(seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net, meta={})
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded, meta={})
        assert p1.read_bytes() == p2.read_bytes()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"junkjunk" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        net = make_net()
        p = tmp_path / "v.ckpt"
        save_checkpoint(p, net)
        blob = p.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
        header = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen])
        header["format_version"] = "99"
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        p.write_bytes(MAGIC + struct.pack("<I", len(new_header)) + new_header +
                      blob[len(MAGIC) + 4 + hlen:])
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(p)

    def test_format_1_file_is_rejected(self, tmp_path):
        p = tmp_path / "v1.ckpt"
        write_format_1(p, make_net(seed=2))
        with pytest.raises(CheckpointVersionError, match="'1'.*'2'"):
            load_checkpoint(p)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 1}))
        assert main(["eval", "--config", str(config), "--checkpoint", str(p)]) == EXIT_DATA

    def test_non_finite_tau_is_not_written(self, tmp_path):
        # LifParams takes tau = inf (no leak), but the header would hold a
        # bare Infinity that load_checkpoint rejects
        net = Network.from_config(NetworkConfig.snn3(5, hidden=(4, 3, 4),
                                                     lif=LifParams(tau=np.inf)))
        p = tmp_path / "inf.ckpt"
        with pytest.raises(ValueError):
            save_checkpoint(p, net)
        assert list(tmp_path.iterdir()) == []

    def test_truncated(self, tmp_path):
        net = make_net()
        p = tmp_path / "t.ckpt"
        save_checkpoint(p, net)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


def header_of(blob):
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    return json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen]), blob[len(MAGIC) + 4 + hlen:]


def write_format_1(path, net):
    """Write `net` with a format-1 header: per-layer spiking flags, LIF
    parameters and prunable flags, and the same payload as format 2."""
    save_checkpoint(path, net, meta={"stage": "pretrain"})
    header, payload = header_of(path.read_bytes())
    n = net.config.n_layers
    old = {"format_version": "1", "layer_dims": header["layer_dims"],
           "spiking_flags": [True] * (n - 1) + [False], "lif_params": [header["lif"]] * n,
           "seed": header["seed"], "prunable": [True] * (n - 1) + [False],
           "meta": header["meta"]}
    raw = json.dumps(old, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + payload)


class TestFormat2:
    def test_header_keys(self, tmp_path):
        p = tmp_path / "h.ckpt"
        save_checkpoint(p, make_net(seed=1), meta={"k": 1})
        header, _ = header_of(p.read_bytes())
        assert set(header) == {"format_version", "layer_dims", "lif", "seed", "meta"}
        assert header["format_version"] == FORMAT_VERSION == "2"
        assert header["lif"] == {"tau": 7.5, "threshold": 1.0, "reset_value": 0.0, "dt": 2.0}


def flip_payload(blob, header_len, offset, value):
    """blob with the payload byte at `offset` (past the header) set to value."""
    out = bytearray(blob)
    out[len(MAGIC) + 4 + header_len + offset] = value
    return bytes(out)


class TestStrictBoundary:
    """Everything load_checkpoint accepts is exactly what save_checkpoint
    writes for the network it returns; anything else is a CheckpointError."""

    def saved(self, tmp_path):
        p = tmp_path / "s.ckpt"
        save_checkpoint(p, make_net(seed=6), meta={"stage": "fuzz", "target_loss": 0.25})
        blob = p.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
        return blob, hlen

    def loads_unchanged(self, tmp_path, data):
        """False on CheckpointError; True if the bytes load and re-save as is."""
        p, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
        p.write_bytes(data)
        try:
            net, meta = load_checkpoint(p)
        except CheckpointError:
            return False
        save_checkpoint(again, net, meta=meta)
        assert again.read_bytes() == data
        return True

    def test_truncation_at_every_offset_is_rejected(self, tmp_path):
        blob, _ = self.saved(tmp_path)
        for n in range(len(blob)):
            assert not self.loads_unchanged(tmp_path, blob[:n]), n

    def test_trailing_bytes_are_rejected(self, tmp_path):
        blob, _ = self.saved(tmp_path)
        assert self.loads_unchanged(tmp_path, blob)
        for tail in (b"\x00", b"garbage", blob):
            assert not self.loads_unchanged(tmp_path, blob + tail)

    def test_seeded_byte_flips_load_unchanged_or_are_rejected(self, tmp_path):
        blob, _ = self.saved(tmp_path)
        rng = np.random.default_rng(2024)
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

    def test_bad_payload_values_are_rejected(self, tmp_path):
        blob, hlen = self.saved(tmp_path)
        net = make_net(seed=6)
        n0 = net.layers[0].weights.size
        zero = int(np.flatnonzero(net.layers[0].mask.ravel() == 0)[0])
        live = int(np.flatnonzero(net.layers[0].mask.ravel() == 1)[0])
        nan = struct.pack("<d", float("nan"))
        inf = struct.pack("<d", float("inf"))
        for bad in (
            blob[:len(MAGIC) + 4 + hlen] + nan + blob[len(MAGIC) + 12 + hlen:],
            blob[:len(MAGIC) + 4 + hlen] + inf + blob[len(MAGIC) + 12 + hlen:],
            flip_payload(blob, hlen, 8 * n0 + live, 2),  # mask byte outside {0,1}
            flip_payload(blob, hlen, 8 * zero + 7, 0x3F),  # weight under a zero mask
        ):
            p = tmp_path / "bad.ckpt"
            p.write_bytes(bad)
            with pytest.raises(CheckpointError):
                load_checkpoint(p)

    @pytest.mark.parametrize("fault", ["masked-in-place", "nan", "inf", "mask-two"])
    def test_save_rejects_what_load_would_reject(self, tmp_path, fault):
        # an in-place edit can leave a layer that load_checkpoint rejects:
        # save must refuse it before it opens the file
        net = make_net(seed=7)
        layer = net.layers[0]
        live = tuple(np.argwhere(layer.weights != 0.0)[0])
        if fault == "masked-in-place":
            layer.mask[live] = 0
        elif fault == "mask-two":
            layer.mask[live] = 2
        else:
            layer.weights[live] = float(fault)
        p = tmp_path / "n.ckpt"
        with pytest.raises(ValueError, match="layer 0"):
            save_checkpoint(p, net)
        assert list(tmp_path.iterdir()) == []

    def test_bad_headers_are_rejected(self, tmp_path):
        blob, hlen = self.saved(tmp_path)
        header = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen])
        payload = blob[len(MAGIC) + 4 + hlen:]

        def with_header(raw):
            return MAGIC + struct.pack("<I", len(raw)) + raw + payload

        def edited(**changes):
            h = dict(header, **changes)
            return with_header(json.dumps(h, sort_keys=True, separators=(",", ":")).encode())

        canonical = blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen]
        extra = dict(header, extra=1)
        missing = {k: v for k, v in header.items() if k != "seed"}
        lif_missing = {k: v for k, v in header["lif"].items() if k != "dt"}
        for bad in (
            with_header(b"\xff\xfe" + blob[len(MAGIC) + 6:len(MAGIC) + 4 + hlen]),  # not UTF-8
            with_header(b"[1, 2]"),
            with_header(b"{\"format_version\""),
            with_header(json.dumps(header).encode()),  # not canonical
            # a repeated key, in order: json keeps one, so the re-dump differs
            with_header(canonical[:-1] + b',"seed":%d}' % header["seed"]),
            # a float past float64 parses as inf, which the re-dump refuses
            with_header(canonical.replace(b'"target_loss":0.25', b'"target_loss":1e999')),
            with_header(json.dumps(extra, sort_keys=True, separators=(",", ":")).encode()),
            with_header(json.dumps(missing, sort_keys=True, separators=(",", ":")).encode()),
            edited(seed=True),
            edited(layer_dims=[5, 4, 3, 4, 3]),
            edited(layer_dims=[5, 4, 3, 4.0, 2]),
            edited(lif=[header["lif"]] * 4),
            edited(lif=lif_missing),
            edited(meta=[]),
            # ints too large for a float64
            *(edited(lif=dict(header["lif"], **{k: 10 ** 400})) for k in header["lif"]),
            MAGIC + struct.pack("<I", 1 << 20) + blob[len(MAGIC) + 4:],
        ):
            p = tmp_path / "bad.ckpt"
            p.write_bytes(bad)
            with pytest.raises(CheckpointError):
                load_checkpoint(p)
