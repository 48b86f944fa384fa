"""Scale-out substrate: multi-GPU parallelism and load balancing.

Section 3: "This backend architecture is also prepared for future
scale-out through different parallelism strategies."  Table 1's cloud
nodes carry two GPUs each (the paper uses one).  This package models the
scale-out the paper anticipates:

* :mod:`repro.scale.parallel` — data-parallel replica groups (the second
  node GPU, multi-node batches) with a communication-overhead efficiency
  law;
* :mod:`repro.scale.balancer` — request load balancing across an
  elastic pool of replica servers on the discrete-event simulator
  (round-robin, join-shortest-queue; live add/drain/release);
* :mod:`repro.scale.admission` — front-door admission control (token
  -bucket rate limiting + queue-length shedding);
* :mod:`repro.scale.autoscaler` — the closed control loop: watch the
  observability signals, resize the replica pool against a p95 SLO,
  drain gracefully on scale-in.
"""

from repro.scale.parallel import (
    DataParallelGroup,
    ScalingPoint,
)
from repro.scale.balancer import (
    LoadBalancer,
    RoundRobinPolicy,
    JoinShortestQueuePolicy,
)
from repro.scale.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.scale.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    ScaleEvent,
    replica_ceiling,
)

__all__ = [
    "DataParallelGroup",
    "ScalingPoint",
    "LoadBalancer",
    "RoundRobinPolicy",
    "JoinShortestQueuePolicy",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "Autoscaler",
    "AutoscalerConfig",
    "ScaleEvent",
    "replica_ceiling",
]
