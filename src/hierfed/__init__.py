"""Desk-scale simulator and analysis toolkit for quantization-aware
multi-layer hierarchical federated learning."""

from .engine import RunMetrics, Schedule, run, run_fedavg_reference
from .latency import LatencyParams, compute_tcp, compute_tde, deadline_ok, round_latency
from .quantizer import QuantizerSpec, measure_q, quantize
from .theory import TheoryParams, condition_lhs, max_feasible_mu, rate_bound, recursion_A
from .topology import Topology, build_topology, reduce_depth

__version__ = "0.1.0"

__all__ = [
    "RunMetrics",
    "Schedule",
    "run",
    "run_fedavg_reference",
    "LatencyParams",
    "compute_tcp",
    "compute_tde",
    "deadline_ok",
    "round_latency",
    "QuantizerSpec",
    "measure_q",
    "quantize",
    "TheoryParams",
    "condition_lhs",
    "max_feasible_mu",
    "rate_bound",
    "recursion_A",
    "Topology",
    "build_topology",
    "reduce_depth",
    "__version__",
]
