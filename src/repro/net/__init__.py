"""Simulated message-passing network substrate (layer 0 of Fig. 1).

The real UniStore runs on TCP/IP; this package replaces it with a
deterministic, seedable simulation.  The central object is
:class:`~repro.net.network.Network`: peers register under a node id, and every
overlay message goes through :meth:`Network.send`, which

* refuses delivery to offline nodes (:class:`~repro.errors.NodeUnreachableError`),
* samples a per-link latency from the configured latency model, and
* accounts messages/bytes into global and per-query statistics frames.

Routed data operations run their messages as discrete events on a
simulated clock (:class:`~repro.net.scheduler.EventScheduler` over
:class:`~repro.net.simulator.EventSimulator`), so concurrent fan-outs
genuinely interleave and completion times are measured, not composed; each
operation reports its cost as a :class:`~repro.net.trace.Trace`.
"""

from repro.net.churn import ChurnModel, ChurnEvent, generate_session_trace
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    PlanetLabLatency,
    UniformLatency,
    ZeroLatency,
)
from repro.net.network import Network
from repro.net.node import Node
from repro.net.scheduler import Delivery, EventScheduler
from repro.net.simulator import EventSimulator
from repro.net.stats import NetworkStats, QueueLedger, StatsFrame
from repro.net.trace import Trace

__all__ = [
    "Network",
    "Node",
    "Trace",
    "NetworkStats",
    "StatsFrame",
    "QueueLedger",
    "EventSimulator",
    "EventScheduler",
    "Delivery",
    "LatencyModel",
    "ZeroLatency",
    "ConstantLatency",
    "UniformLatency",
    "PlanetLabLatency",
    "ChurnModel",
    "ChurnEvent",
    "generate_session_trace",
]
