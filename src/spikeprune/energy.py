"""Energy and average-power estimate for one inference timestep.

Parameterized by per-operation costs measured on a digital neuromorphic
processor: 12.7 pJ to integrate one spike (1 AC) into a LIF neuron and
14.6 pJ per neuron update, with a 4 ms decoding timestep.

Two update-count conventions are provided because the published per-timestep
energies are reproduced exactly by a *single* 14.6 pJ update term, while a
per-neuron reading of the measurement would charge one update per neuron.
The default reproduces the published table; reports carry the mode so the
discrepancy stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .training import _require_int

__all__ = ["EnergyParams", "EnergyReport", "energy_per_timestep", "average_power",
           "energy_report"]

PAPER_CONSISTENT = "paper-consistent"
PER_NEURON = "per-neuron"


@dataclass(frozen=True)
class EnergyParams:
    e_ac_pj: float = 12.7
    e_update_pj: float = 14.6
    dt_ms: float = 4.0
    update_count_mode: str = PAPER_CONSISTENT

    def __post_init__(self):
        if not all(math.isfinite(e) and e >= 0 for e in (self.e_ac_pj, self.e_update_pj)):
            raise ValueError("energies must be finite and >= 0")
        if not (math.isfinite(self.dt_ms) and self.dt_ms > 0):
            raise ValueError("dt_ms must be finite and > 0")
        if self.update_count_mode not in (PAPER_CONSISTENT, PER_NEURON):
            raise ValueError(f"unknown update_count_mode {self.update_count_mode!r}")


@dataclass
class EnergyReport:
    energy_pj_per_timestep: float
    power_uw: float
    mode: str
    e_ac_pj: float
    e_update_pj: float
    dt_ms: float

    def as_dict(self) -> dict:
        return asdict(self)


def energy_per_timestep(avg_acs: float, n_neurons: int = 0,
                        params: EnergyParams = EnergyParams()) -> float:
    """Energy in pJ for one timestep given the average AC count.

    paper-consistent mode charges a single update term; per-neuron mode
    charges one update per neuron. n_neurons is an integer >= 0, not a bool.
    """
    if not (math.isfinite(avg_acs) and avg_acs >= 0):
        raise ValueError(f"avg_acs must be finite and >= 0, got {avg_acs}")
    _require_int("n_neurons", n_neurons, 0)
    if params.update_count_mode == PAPER_CONSISTENT:
        updates = 1
    else:
        updates = n_neurons
    return avg_acs * params.e_ac_pj + updates * params.e_update_pj


def average_power(energy_pj: float, dt_ms: float) -> float:
    """Average power in microwatts: pJ per ms is nW, /1000 gives uW."""
    if not (math.isfinite(energy_pj) and energy_pj >= 0):
        raise ValueError(f"energy_pj must be finite and >= 0, got {energy_pj}")
    if not (math.isfinite(dt_ms) and dt_ms > 0):
        raise ValueError(f"dt_ms must be finite and > 0, got {dt_ms}")
    return energy_pj / dt_ms / 1000.0


def energy_report(avg_acs: float, n_neurons: int = 0,
                  params: EnergyParams = EnergyParams()) -> EnergyReport:
    e = energy_per_timestep(avg_acs, n_neurons, params)
    return EnergyReport(
        energy_pj_per_timestep=e,
        power_uw=average_power(e, params.dt_ms),
        mode=params.update_count_mode,
        e_ac_pj=params.e_ac_pj,
        e_update_pj=params.e_update_pj,
        dt_ms=params.dt_ms,
    )
