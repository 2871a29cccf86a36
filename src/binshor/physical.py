"""Physical resource estimates for baseline and active-volume architectures.

Baseline: surface-code device with nearest-neighbor logical operations;
spacetime volume 2 n_Q n_T with n_T = 4 Toffoli, one T gate per logical
cycle.  Active volume: photonic fusion-based device measured in interleaving
modules; spacetime volume 2 b_AV in logical blocks of d^3 resource states.
"""

from __future__ import annotations

import math


class BaselineParams:
    __slots__ = ("code_cycle_time", "failure_budget", "t_per_toffoli")

    def __init__(self, code_cycle_time: float = 1e-6,
                 failure_budget: float = 0.05, t_per_toffoli: int = 4):
        if not 0 < failure_budget < 1:
            raise ValueError("failure budget must be in (0, 1)")
        if not (math.isfinite(code_cycle_time) and code_cycle_time > 0):
            raise ValueError(f"cycle time must be finite and positive, got "
                             f"{code_cycle_time}")
        self.code_cycle_time = code_cycle_time  # s; 1e-3 for slow devices
        self.failure_budget = failure_budget
        self.t_per_toffoli = t_per_toffoli


class AVParams:
    __slots__ = ("r_im", "delay", "failure_budget")

    def __init__(self, r_im: float = 1e9, delay: float = 1e-6,
                 failure_budget: float = 0.05):
        for name, v in (("r_im", r_im), ("delay", delay)):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"AV parameter {name} must be finite and "
                                 f"positive, got {v}")
        self.r_im = r_im        # resource states per second per module
        self.delay = delay      # seconds of fiber delay per module
        self.failure_budget = failure_budget


def _finite_positive(what: str, v: float) -> float:
    """``v``, if it is finite and positive; an estimate's parameters can be
    finite and still overflow or underflow it."""
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{what} is {v}: the physical parameters are out "
                         f"of range")
    return v


class PhysicalEstimate:
    __slots__ = ("distance", "device_size", "runtime_avg")

    def __init__(self, distance: int, device_size: float,
                 runtime_avg: float):
        _finite_positive("device size", device_size)
        _finite_positive("runtime", runtime_avg)
        self.distance = distance
        self.device_size = device_size  # qubits or interleaving modules
        self.runtime_avg = runtime_avg  # seconds, with the 10/9 retry factor

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
