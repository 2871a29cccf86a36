"""Physical resource estimates for baseline and active-volume architectures.

Baseline: surface-code device with nearest-neighbor logical operations;
spacetime volume 2 n_Q n_T with n_T = 4 Toffoli, one T gate per logical
cycle.  Active volume: photonic fusion-based device measured in interleaving
modules; spacetime volume 2 b_AV in logical blocks of d^3 resource states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BaselineParams:
    code_cycle_time: float = 1e-6     # seconds; 1e-3 for the slow devices
    failure_budget: float = 0.05
    t_per_toffoli: int = 4

    def __post_init__(self):
        if not 0 < self.failure_budget < 1:
            raise ValueError("failure budget must be in (0, 1)")
        if not (math.isfinite(self.code_cycle_time)
                and self.code_cycle_time > 0):
            raise ValueError(f"cycle time must be finite and positive, got "
                             f"{self.code_cycle_time}")


@dataclass(frozen=True)
class AVParams:
    r_im: float = 1e9                 # resource states per second per module
    delay: float = 1e-6               # seconds of fiber delay per module
    failure_budget: float = 0.05

    def __post_init__(self):
        for name, v in (("r_im", self.r_im), ("delay", self.delay)):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"AV parameter {name} must be finite and "
                                 f"positive, got {v}")


def _finite_positive(what: str, v: float) -> float:
    """``v``, if it is finite and positive; an estimate's parameters can be
    finite and still overflow or underflow it."""
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{what} is {v}: the physical parameters are out "
                         f"of range")
    return v


@dataclass(frozen=True)
class PhysicalEstimate:
    distance: int
    device_size: float                # physical qubits or interleaving modules
    runtime_avg: float                # seconds, includes the 10/9 retry factor

    def __post_init__(self):
        _finite_positive("device size", self.device_size)
        _finite_positive("runtime", self.runtime_avg)

    @property
    def runtime_display(self) -> str:
        return format_runtime(self.runtime_avg)


def solve_distance(volume: float, budget: float = 0.05) -> int:
    """Smallest integer d >= 3 with 10^(-d/2) * volume <= budget."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    return max(3, math.ceil(2 * math.log10(volume / budget)))


def baseline_estimate(n_q: int, toffoli: float,
                      params: BaselineParams = BaselineParams()) -> PhysicalEstimate:
    n_t = params.t_per_toffoli * toffoli
    volume = 2 * n_q * n_t
    d = solve_distance(volume, params.failure_budget)
    qubits = 2 * n_q * d * d
    runtime = d * n_t * params.code_cycle_time
    return PhysicalEstimate(d, qubits, runtime * 10 / 9)


def av_estimate(b_av: float, n_q: int,
                params: AVParams = AVParams()) -> PhysicalEstimate:
    n = 2 * n_q                        # memory plus equal workspace
    v_a = 2 * b_av
    d = solve_distance(v_a, params.failure_budget)
    states_per_module = params.r_im * params.delay
    n_im = math.ceil(_finite_positive("module count",
                                      n * d * d / states_per_module))
    runtime = v_a * d ** 3 / (n_im * params.r_im)
    return PhysicalEstimate(d, n_im, runtime * 10 / 9)


def format_runtime(seconds: float) -> str:
    """One-decimal display in sec / min / days, matching the report style."""
    if seconds < 60:
        return f"{seconds:.1f} sec"
    minutes = seconds / 60
    if minutes < 1440:
        return f"{minutes:.1f} min"
    return f"{seconds / 86400:.1f} days"
