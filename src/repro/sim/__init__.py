"""Synchronous CONGEST simulator: nodes, ports, messages, metrics.

The numpy vectorized engine's names load on first use, so running the
reference simulator never imports numpy.
"""

from .._lazy import lazy_exports
from .errors import (
    CongestViolationError,
    ProtocolError,
    RoundLimitExceeded,
    SimulationError,
)
from .harness import FAULT_SEED_STREAM, build_network
from .message import Message, counter_bits, id_bits, id_set_bits, word_bits_for
from .metrics import MetricsCollector, RunMetrics
from .network import MessageObserver, Network, SimulationResult
from .node import Inbox, NodeContext, Protocol, ProtocolFactory
from .rng import derive_seed, fresh_master_seed, node_rng

__all__ = [
    "SimulationError",
    "CongestViolationError",
    "RoundLimitExceeded",
    "ProtocolError",
    "Message",
    "id_bits",
    "counter_bits",
    "id_set_bits",
    "word_bits_for",
    "MetricsCollector",
    "RunMetrics",
    "Network",
    "SimulationResult",
    "MessageObserver",
    "NodeContext",
    "Protocol",
    "Inbox",
    "ProtocolFactory",
    "derive_seed",
    "node_rng",
    "fresh_master_seed",
    "build_network",
    "FAULT_SEED_STREAM",
    "VECTORIZED_WALK_STREAM",
    "VECTORIZED_MESSAGE_STREAM",
    "VectorizedUnsupported",
    "graph_csr",
    "vectorized_unsupported_reason",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".vectorized": (
            "VECTORIZED_MESSAGE_STREAM",
            "VECTORIZED_WALK_STREAM",
            "VectorizedUnsupported",
            "graph_csr",
            "vectorized_unsupported_reason",
        ),
    },
)
