"""Peer load subsystem: service times, queueing, and load-aware execution.

Layers a per-peer workload model over the event kernel of
:mod:`repro.net.scheduler`:

* :mod:`repro.load.model` — service-time profiles, heterogeneous speed
  factors, FIFO node queues (:class:`LoadModel` is what you attach to the
  scheduler: ``pnet.event_driven(load=model)``);
* :mod:`repro.load.drivers` — open-loop (Poisson) and closed-loop workload
  drivers that keep many operations in flight on one shared clock;
* :mod:`repro.load.diffusion` — replica-based query-load diffusion, the
  first load-aware behaviour (benchmark E12 measures its knee shift);
* :mod:`repro.load.shedding` — admission control (reject/defer past a
  queue budget) and piggybacked queue-depth hints, the load-control loop
  benchmark E12d measures under overload.
"""

from repro.load.diffusion import POLICIES, choose_replica, diffuse_route, pick_member
from repro.load.drivers import (
    MAX_REJECT_RETRIES,
    MAX_REROUTES,
    ClosedLoopDriver,
    OpenLoopDriver,
    OpRecord,
    completed_latencies,
    goodput,
    summarize,
)
from repro.load.shedding import (
    AdmissionPolicy,
    DeadlineAdmission,
    HintRegistry,
    HintTable,
    ProbabilisticAdmission,
    ThresholdAdmission,
    pick_least_hinted,
)
from repro.load.model import (
    ZERO_PROFILE,
    LoadModel,
    NodeQueue,
    ServiceProfile,
    ServiceSample,
    draw_speed_factors,
)

__all__ = [
    "LoadModel",
    "NodeQueue",
    "ServiceProfile",
    "ServiceSample",
    "ZERO_PROFILE",
    "draw_speed_factors",
    "OpenLoopDriver",
    "ClosedLoopDriver",
    "OpRecord",
    "completed_latencies",
    "summarize",
    "MAX_REROUTES",
    "MAX_REJECT_RETRIES",
    "goodput",
    "POLICIES",
    "choose_replica",
    "diffuse_route",
    "pick_member",
    "AdmissionPolicy",
    "ThresholdAdmission",
    "ProbabilisticAdmission",
    "DeadlineAdmission",
    "HintTable",
    "HintRegistry",
    "pick_least_hinted",
]
