"""Per-global-round latency from physical parameters, synchronous timing.

One round costs: every device computes prod(tau) mini-batch steps, paced by
the slowest device; the device->edge hop is traversed prod(tau_2..tau_N)
times; each inter-edge hop (n-1, n) is traversed prod(tau_{n+1}..tau_N)
times; and the final hop to the cloud once. Reduced-depth deployments stretch
the device hop by a distance factor kappa, scaling the channel gain by
kappa^(-path_loss_exp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class NonPositiveRate(ValueError):
    """Link parameters give a non-positive transmission rate."""


class LengthMismatch(ValueError):
    """Inter-edge time vector does not match the schedule depth."""


@dataclass
class LatencyParams:
    """Physical timing inputs.

    cycles_per_sample: CPU cycles to process one training sample (c).
    frequencies: per-device CPU frequencies in Hz; the slowest one paces
        the synchronous round.
    batch_size: mini-batch size b.
    model_bits: payload size d_b in bits.
    bandwidth: channel bandwidth W in Hz.
    tx_power: transmit power p in W.
    channel_gain: reference device->edge channel gain h (dimensionless).
    noise_power: N0 in W.
    t_edge: inter-layer times (t_E[1,2], ..., t_E[N-1,N]) in seconds;
        length N-1 for an N-layer deployment (empty for N = 1).
    kappa: device-server distance growth factor (1 = reference deployment).
    path_loss_exp: path-loss exponent applied to kappa.
    deadline: total completion deadline T_d in seconds.
    rounds: global round budget T the deadline is split over.
    """

    cycles_per_sample: float
    frequencies: list[float]
    batch_size: int
    model_bits: float
    bandwidth: float
    tx_power: float
    channel_gain: float
    noise_power: float
    t_edge: list[float] = field(default_factory=list)
    kappa: float = 1.0
    path_loss_exp: float = 3.4
    deadline: float = math.inf
    rounds: int = 1

    def __post_init__(self) -> None:
        if not self.frequencies:
            raise ValueError("need at least one device frequency")
        positive = {
            "cycles_per_sample": self.cycles_per_sample,
            "model_bits": self.model_bits,
            "bandwidth": self.bandwidth,
            "tx_power": self.tx_power,
            "channel_gain": self.channel_gain,
            "noise_power": self.noise_power,
            "kappa": self.kappa,
        }
        for name, val in positive.items():
            if not 0 < val < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        if not all(0 < f < math.inf for f in self.frequencies):
            raise ValueError(f"device frequencies must be positive and finite, got {self.frequencies}")
        if not all(0 <= t < math.inf for t in self.t_edge):
            raise ValueError(f"t_edge entries must be finite and >= 0, got {self.t_edge}")
        if not math.isfinite(self.path_loss_exp):
            raise ValueError(f"path_loss_exp must be finite, got {self.path_loss_exp}")
        if not self.deadline > 0:  # infinite means no deadline
            raise ValueError(f"deadline must be positive, got {self.deadline}")


def compute_tcp(params: LatencyParams) -> float:
    """Slowest device's per-iteration computation time: c * b / min(f)."""
    return params.cycles_per_sample * params.batch_size / min(params.frequencies)


def compute_tde(params: LatencyParams) -> float:
    """Device->edge transmission time d_b / (W log2(1 + p h_eff / N0)).

    The effective gain is kappa^(-path_loss_exp) * h.
    """
    h_eff = params.kappa ** (-params.path_loss_exp) * params.channel_gain
    snr = params.tx_power * h_eff / params.noise_power  # >= 0: the inputs are positive
    rate = params.bandwidth * math.log2(1.0 + snr)
    if rate <= 0:  # snr below the roundoff of 1.0, or 0 by underflow
        raise NonPositiveRate("link rate must be positive")
    return params.model_bits / rate


def round_coefficients(params: LatencyParams, n_layers: int) -> list[float]:
    """(t_CP, t_DE, t_E[1,2], ..., t_E[N-1,N]): term j of a round's latency
    is coefficient j times prod(taus[j:]), so the last hop is crossed once."""
    if len(params.t_edge) != n_layers - 1:
        raise LengthMismatch(f"{len(params.t_edge)} inter-edge times for {n_layers} aggregation layers")
    return [compute_tcp(params), compute_tde(params), *params.t_edge]


def round_latency(params: LatencyParams, taus) -> float:
    """Latency of one global round for the iteration counts taus, one
    positive number per layer, integer or continuous. Entries that are
    equal-shape arrays give the latency of many schedules elementwise."""
    total = 0.0  # summed left to right, not with sum(), which compensates from Python 3.12 on
    for j, c in enumerate(round_coefficients(params, len(taus))):
        total += math.prod(taus[j:]) * c
    return total


def deadline_ok(params: LatencyParams, taus) -> tuple[bool, float]:
    """Whether one round at the iteration counts taus fits in the per-round
    deadline T_d / T, plus the slack."""
    budget = params.deadline / params.rounds
    slack = budget - round_latency(params, taus)
    return slack >= 0.0, slack
