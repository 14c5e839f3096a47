import math

import numpy as np
import pytest

from spikeprune.energy import (
    PAPER_CONSISTENT,
    PER_NEURON,
    EnergyParams,
    average_power,
    energy_per_timestep,
    energy_report,
)


class TestPublishedTable:
    def test_dense_row(self):
        e = energy_per_timestep(535.2)
        assert abs(e - 6811.6) <= 0.05
        assert abs(average_power(e, 4.0) - 1.70) <= 0.005

    def test_pruned_row(self):
        e = energy_per_timestep(54.63)
        assert abs(e - 708.4) <= 0.05
        p = average_power(e, 4.0)
        assert abs(p - 0.177) <= 0.005
        assert round(p, 2) == 0.18


class TestModes:
    def test_per_neuron_zero(self):
        params = EnergyParams(update_count_mode=PER_NEURON)
        assert energy_per_timestep(0.0, n_neurons=0, params=params) == 0.0

    def test_per_neuron_counts_every_neuron(self):
        params = EnergyParams(update_count_mode=PER_NEURON)
        e = energy_per_timestep(10.0, n_neurons=152, params=params)
        assert e == pytest.approx(10.0 * 12.7 + 152 * 14.6)
        assert energy_per_timestep(10.0, n_neurons=np.int64(152), params=params) == e

    def test_paper_consistent_single_update(self):
        e0 = energy_per_timestep(0.0, n_neurons=999)
        assert e0 == pytest.approx(14.6)

    @pytest.mark.parametrize("mode", [PAPER_CONSISTENT, PER_NEURON])
    @pytest.mark.parametrize("n_neurons", [2.5, 3.0, True, False, -1],
                             ids=["fraction", "integral-float", "true", "false", "negative"])
    def test_neuron_count_must_be_an_integer(self, mode, n_neurons):
        params = EnergyParams(update_count_mode=mode)
        for call in (energy_per_timestep, energy_report):
            with pytest.raises(ValueError, match="n_neurons"):
                call(1.0, n_neurons, params)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            EnergyParams(update_count_mode="bogus")


class TestProperties:
    def test_affine_in_acs(self):
        assert energy_per_timestep(2.0) - energy_per_timestep(1.0) == \
            pytest.approx(12.7, rel=1e-15)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = sorted(rng.uniform(0, 1000, size=2))
            diff = energy_per_timestep(b) - energy_per_timestep(a)
            assert diff == pytest.approx((b - a) * 12.7, rel=1e-12, abs=1e-9)

    def test_sub_microwatt_boundary(self):
        params = EnergyParams()
        boundary = (params.dt_ms * 1000.0 - params.e_update_pj) / params.e_ac_pj
        below = boundary * 0.999
        above = boundary * 1.001
        assert average_power(energy_per_timestep(below), params.dt_ms) < 1.0
        assert average_power(energy_per_timestep(above), params.dt_ms) > 1.0

    def test_power_conversion(self):
        assert average_power(0.0, 4.0) == 0.0
        assert average_power(4000.0, 4.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            average_power(1.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            energy_per_timestep(-1.0)
        # a NaN would pass a `< 0` check and give NaN energy and power
        nan = float("nan")
        for call in (lambda: energy_per_timestep(nan), lambda: energy_report(nan, 3),
                     lambda: energy_per_timestep(1.0, n_neurons=nan),
                     lambda: energy_report(1.0, nan, EnergyParams(update_count_mode=PER_NEURON)),
                     lambda: average_power(nan, 4.0), lambda: average_power(-1.0, 4.0)):
            with pytest.raises(ValueError):
                call()
        with pytest.raises(ValueError):
            EnergyParams(e_ac_pj=-0.1)
        for key in ("e_ac_pj", "e_update_pj"):
            with pytest.raises(ValueError):
                EnergyParams(**{key: float("nan")})

    # +inf passes a `>= 0` check and gives infinite (or, as a dt, zero)
    # energy and power
    @pytest.mark.parametrize("call", [
        lambda: energy_report(math.inf, 3),
        lambda: energy_per_timestep(math.inf),
        lambda: energy_per_timestep(1.0, n_neurons=math.inf),
        lambda: average_power(math.inf, 4.0),
        lambda: average_power(1.0, math.inf),
        lambda: EnergyParams(e_ac_pj=math.inf),
        lambda: EnergyParams(e_update_pj=math.inf),
        lambda: EnergyParams(dt_ms=math.inf),
    ], ids=["report-acs", "acs", "n-neurons", "power-energy", "power-dt", "params-e-ac",
            "params-e-update", "params-dt"])
    def test_infinite_inputs_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestReport:
    def test_report_fields(self):
        rep = energy_report(54.63, n_neurons=152)
        assert rep.mode == PAPER_CONSISTENT
        assert rep.energy_pj_per_timestep == pytest.approx(708.401)
        assert rep.power_uw == pytest.approx(0.17710025)
        d = rep.as_dict()
        assert set(d) == {"energy_pj_per_timestep", "power_uw", "mode",
                          "e_ac_pj", "e_update_pj", "dt_ms"}
