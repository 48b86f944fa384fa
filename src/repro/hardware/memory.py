"""Device memory pools and OOM accounting.

The Fig. 5/8 experiments are bounded by out-of-memory conditions: "MFU
improves gradually before eventually plateauing or triggering out-of-memory
(OOM) conditions, particularly on resource-constrained devices such as the
Jetson platform", and on the Jetson "combined memory consumption from
preprocessing and inference constrains the model engine's available batch
size".

:class:`MemoryPool` models a discrete GPU memory (V100/A100);
:class:`UnifiedMemoryPool` models the Jetson's shared CPU/GPU pool where
preprocessing buffers and engine allocations compete.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.bounds import within


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds the pool's remaining capacity."""

    def __init__(self, requested: float, available: float, pool: str):
        self.requested = requested
        self.available = available
        self.pool = pool
        super().__init__(
            f"OOM in {pool}: requested {requested / 1e6:.1f} MB, "
            f"available {available / 1e6:.1f} MB"
        )


@dataclasses.dataclass(frozen=True)
class Allocation:
    """A live reservation in a pool."""

    handle: int
    bytes: float
    tag: str


class MemoryPool:
    """Simple first-fit accounting pool for a discrete GPU memory.

    The pool tracks reservations by byte count only — fragmentation is not
    modeled because TensorRT-style engines allocate their workspace once at
    build time.
    """

    def __init__(self, capacity_bytes: float, name: str = "gpu"):
        self.capacity_bytes = float(
            within("capacity_bytes", capacity_bytes, "(0, inf)"))
        self.name = name
        self._allocations: dict[int, Allocation] = {}
        self._handles = itertools.count(1)

    @property
    def used_bytes(self) -> float:
        """Bytes currently reserved."""
        return sum(a.bytes for a in self._allocations.values())

    @property
    def available_bytes(self) -> float:
        """Bytes still allocatable."""
        return self.capacity_bytes - self.used_bytes

    def allocate(self, nbytes: float, tag: str = "") -> Allocation:
        """Reserve ``nbytes``; raises :class:`OutOfMemoryError` on overflow."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if nbytes > self.available_bytes:
            raise OutOfMemoryError(nbytes, self.available_bytes, self.name)
        alloc = Allocation(next(self._handles), float(nbytes), tag)
        self._allocations[alloc.handle] = alloc
        return alloc

    def free(self, allocation: Allocation) -> None:
        """Release a prior reservation; freeing twice is an error."""
        if allocation.handle not in self._allocations:
            raise KeyError(f"allocation {allocation.handle} is not live")
        del self._allocations[allocation.handle]

    def can_fit(self, nbytes: float) -> bool:
        """Whether nbytes would fit right now."""
        return 0 <= nbytes <= self.available_bytes

    def live_allocations(self) -> list[Allocation]:
        """Snapshot of current reservations."""
        return list(self._allocations.values())

    def breakdown(self) -> dict[str, float]:
        """Bytes in use grouped by allocation tag (for reports)."""
        out: dict[str, float] = {}
        for alloc in self._allocations.values():
            out[alloc.tag] = out.get(alloc.tag, 0.0) + alloc.bytes
        return out


class UnifiedMemoryPool(MemoryPool):
    """A CPU/GPU shared pool (Jetson Orin Nano).

    Behaves like :class:`MemoryPool` but additionally exposes a
    ``host_reserved_bytes`` floor modelling the OS/camera-stack footprint
    that the inference stack can never claim, and a convenience check used
    by the end-to-end pipeline: whether an engine allocation still fits
    *after* preprocessing buffers are resident.
    """

    def __init__(self, capacity_bytes: float,
                 host_reserved_bytes: float = 0.0,
                 name: str = "unified"):
        if host_reserved_bytes < 0 or host_reserved_bytes >= capacity_bytes:
            raise ValueError("host reservation must be in [0, capacity)")
        super().__init__(capacity_bytes - host_reserved_bytes, name)
        self.host_reserved_bytes = float(host_reserved_bytes)

    @property
    def total_device_bytes(self) -> float:
        """Physical pool size including the host reservation."""
        return self.capacity_bytes + self.host_reserved_bytes


def pool_for_platform(platform) -> MemoryPool:
    """Build the appropriate pool type for a :class:`PlatformSpec`."""
    usable = platform.usable_gpu_memory_bytes
    if platform.unified_memory:
        reserved = platform.gpu_memory_gb * 1e9 - usable
        return UnifiedMemoryPool(platform.gpu_memory_gb * 1e9,
                                 host_reserved_bytes=reserved,
                                 name=f"{platform.name}-unified")
    return MemoryPool(usable, name=f"{platform.name}-gpu")
