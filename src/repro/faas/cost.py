"""The GB-second meter: what serverless inference actually costs.

Serverless billing has three terms: a per-invocation charge, compute
priced in GB-seconds (memory allocation x billed duration, rounded up
to a billing quantum), and — when provisioned concurrency pins warm
instances — a cheaper always-on GB-second rate for the pinned pool.
:class:`CostModel` holds the prices and the arithmetic;
:class:`CostLedger` is the running meter a
:class:`~repro.faas.backend.FaaSBackend` feeds as invocations finish.

Prices default to hyperscaler-shaped magnitudes (dollars):
``$1.67e-5``/GB-s on demand, ``$4.2e-6``/GB-s provisioned, ``$2e-7``
per invocation.  The *ratios* are what the crossover analysis in
:func:`~repro.predict.whatif.compare_serverless` depends on; absolute
dollars only scale the axis.
"""

from __future__ import annotations

import dataclasses
import math

from repro.bounds import within


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Prices and billing granularity for one FaaS offering."""

    gb_second_price: float = 1.6667e-5
    invocation_price: float = 2.0e-7
    provisioned_gb_second_price: float = 4.2e-6
    #: Durations are rounded up to this quantum before billing (1 ms,
    #: the industry norm since per-ms billing replaced 100 ms rounding).
    billing_quantum_seconds: float = 0.001

    def __post_init__(self) -> None:
        within("gb_second_price", self.gb_second_price, "[0, inf)")
        within("invocation_price", self.invocation_price, "[0, inf)")
        within("provisioned_gb_second_price",
               self.provisioned_gb_second_price, "[0, inf)")
        within("billing_quantum_seconds", self.billing_quantum_seconds,
               "(0, inf)")

    # ------------------------------------------------------------------
    def billed_seconds(self, duration_seconds: float) -> float:
        """Duration rounded up to the billing quantum."""
        if duration_seconds < 0:
            raise ValueError("duration must be >= 0")
        quanta = math.ceil(duration_seconds /
                           self.billing_quantum_seconds)
        return max(1, quanta) * self.billing_quantum_seconds

    def gb_seconds(self, duration_seconds: float,
                   memory_gb: float) -> float:
        """Billable GB-seconds for one execution."""
        return self.billed_seconds(duration_seconds) * memory_gb

    def invocation_cost(self, duration_seconds: float,
                        memory_gb: float) -> float:
        """Full cost of one invocation: request charge + compute."""
        return (self.invocation_price +
                self.gb_seconds(duration_seconds, memory_gb) *
                self.gb_second_price)

    def serverless_cost_per_second(self, qps: float,
                                   duration_seconds: float,
                                   memory_gb: float) -> float:
        """Planner regime: expected $/s at a steady request rate."""
        if qps < 0:
            raise ValueError("qps must be >= 0")
        return qps * self.invocation_cost(duration_seconds, memory_gb)

    def provisioned_pool_cost_per_second(self, instances: int,
                                         memory_gb: float) -> float:
        """$/s to keep ``instances`` pinned warm (idle or not)."""
        if instances < 0:
            raise ValueError("instance count must be >= 0")
        return (instances * memory_gb *
                self.provisioned_gb_second_price)


class CostLedger:
    """Running meter over one backend's lifetime.

    The backend posts three kinds of entries: on-demand execution
    (billed GB-seconds per finished invocation, cold-start
    initialization included — the sandbox is running your code), the
    per-invocation request charge, and provisioned-concurrency
    GB-seconds accrued while instances sit pinned.
    """

    def __init__(self, model: CostModel):
        self.model = model
        self.invocations = 0
        self.gb_seconds = 0.0
        self.provisioned_gb_seconds = 0.0

    # ------------------------------------------------------------------
    def charge_invocation(self, duration_seconds: float,
                          memory_gb: float) -> float:
        """Bill one finished execution; returns its GB-seconds."""
        billed = self.model.gb_seconds(duration_seconds, memory_gb)
        self.invocations += 1
        self.gb_seconds += billed
        return billed

    def charge_init(self, duration_seconds: float,
                    memory_gb: float) -> float:
        """Bill a cold start's initialization leg; returns GB-seconds."""
        billed = self.model.gb_seconds(duration_seconds, memory_gb)
        self.gb_seconds += billed
        return billed

    def charge_provisioned(self, duration_seconds: float,
                           memory_gb: float) -> float:
        """Accrue pinned-warm time at the provisioned rate."""
        if duration_seconds < 0:
            raise ValueError("duration must be >= 0")
        billed = duration_seconds * memory_gb
        self.provisioned_gb_seconds += billed
        return billed

    # ------------------------------------------------------------------
    @property
    def compute_cost(self) -> float:
        """On-demand GB-second charges so far."""
        return self.gb_seconds * self.model.gb_second_price

    @property
    def invocation_cost(self) -> float:
        """Per-request charges so far."""
        return self.invocations * self.model.invocation_price

    @property
    def provisioned_cost(self) -> float:
        """Provisioned-concurrency charges so far."""
        return (self.provisioned_gb_seconds *
                self.model.provisioned_gb_second_price)

    @property
    def total_cost(self) -> float:
        """Everything on the meter, in dollars."""
        return (self.compute_cost + self.invocation_cost +
                self.provisioned_cost)

    def summary(self) -> dict:
        """JSON-friendly snapshot of the meter."""
        return {
            "invocations": self.invocations,
            "gb_seconds": self.gb_seconds,
            "provisioned_gb_seconds": self.provisioned_gb_seconds,
            "compute_usd": self.compute_cost,
            "invocation_usd": self.invocation_cost,
            "provisioned_usd": self.provisioned_cost,
            "total_usd": self.total_cost,
        }
