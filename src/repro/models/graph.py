"""Model graphs: ordered layer lists with whole-model cost accounting.

A :class:`ModelGraph` is the analytic twin of a deployed network: it
aggregates the per-layer accounting of :mod:`repro.models.layers` into the
quantities the characterization needs — total parameters (Table 3 row 1),
reported GFLOPs/image (row 3), FLOP breakdown by layer category
(Section 4.0.2), and activation footprints (the OOM model).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator

from repro.models.layers import LayerCategory, LayerSpec


@dataclasses.dataclass(frozen=True)
class GraphSummary:
    """Headline numbers of a model (one Table 3 column)."""

    name: str
    architecture: str
    params: int
    reported_gflops: float
    total_gmacs: float
    input_shape: tuple[int, ...]

    @property
    def params_millions(self) -> float:
        """Parameter count in millions."""
        return self.params / 1e6


class ModelGraph:
    """An ordered sequence of layers forming one inference network.

    Parameters
    ----------
    name:
        Zoo name, e.g. ``"vit_tiny"``.
    architecture:
        ``"transformer"`` or ``"cnn"`` (Table 3 "Architecture" row).
    input_shape:
        Per-image input, channel-first ``(C, H, W)``.
    layers:
        Layers in execution order.
    """

    def __init__(self, name: str, architecture: str,
                 input_shape: tuple[int, int, int],
                 layers: Iterable[LayerSpec]):
        if architecture not in ("transformer", "cnn"):
            raise ValueError(f"unknown architecture {architecture!r}")
        self.name = name
        self.architecture = architecture
        self.input_shape = tuple(input_shape)
        self.layers: tuple[LayerSpec, ...] = tuple(layers)
        if not self.layers:
            raise ValueError("a model graph needs at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate layer names: {dupes}")
        # ``layers`` is a tuple of frozen specs, so every whole-model total
        # is a constant: compute each once, walking the layers in order so
        # the sums are bit-identical to a fresh walk.
        self._params = sum(layer.params() for layer in self.layers)
        self._macs = sum(layer.macs() for layer in self.layers)
        self._reported_macs = sum(
            layer.macs() for layer in self.layers
            if layer.category is not LayerCategory.ATTENTION)
        self._peak_activation = max(
            layer.activation_elements() for layer in self.layers)
        self._sum_activation = sum(
            layer.activation_elements() for layer in self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------
    # Parameter / FLOP accounting
    # ------------------------------------------------------------------
    def total_params(self) -> int:
        """Trainable parameters (Table 3 "Parameter")."""
        return self._params

    def total_macs(self) -> float:
        """All multiply-accumulates per image, attention matmuls included."""
        return self._macs

    def reported_gflops(self) -> float:
        """GFLOPs/image in the Table 3 convention.

        One MAC counted as one FLOP; attention score/context matmuls
        excluded (the fvcore/ptflops profiler behaviour the paper's
        numbers follow — see DESIGN.md).
        """
        return self._reported_macs / 1e9

    def flops_per_image(self) -> float:
        """FLOPs/image used by the *performance* model.

        The engine's throughput law divides platform FLOPS by this number,
        so it uses the same convention as the paper's upper-bound math
        (Table 3), i.e. :meth:`reported_gflops` in absolute FLOPs.
        """
        return self.reported_gflops() * 1e9

    def compute_breakdown(self) -> dict[LayerCategory, float]:
        """Fraction of total compute per layer category.

        Compute = MACs plus elementwise FLOPs, which is the denominator
        under which the paper's splits hold: ViT-Tiny ≈ 81.73% MLP /
        18.23% attention; ResNet50 ≈ 99.5% convolution.
        """
        totals: dict[LayerCategory, float] = {}
        for layer in self.layers:
            work = layer.macs() + layer.elementwise_flops()
            if work:
                totals[layer.category] = totals.get(layer.category, 0.0) + work
        grand = sum(totals.values())
        return {cat: v / grand for cat, v in totals.items()}

    def mlp_attention_split(self) -> tuple[float, float]:
        """(MLP fraction, attention fraction) over matmul compute only.

        The paper's Section 4.0.2 split for transformer models: "the
        majority of computation is consumed by MLP layers, accounting for
        81.73% in ViT Tiny, while attention layers account for 18.23%".
        MLP = every dense matmul (QKV, projections, FFN, head); attention
        = the score/context matmuls.
        """
        mlp = sum(layer.macs() for layer in self.layers
                  if layer.category is LayerCategory.LINEAR)
        attn = sum(layer.macs() for layer in self.layers
                   if layer.category is LayerCategory.ATTENTION)
        total = mlp + attn
        if total == 0:
            raise ValueError(f"{self.name} has no matmul layers")
        return mlp / total, attn / total

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def weight_bytes(self, bytes_per_param: int) -> float:
        """Total weight storage at the given element width."""
        return float(self.total_params()) * bytes_per_param

    def peak_activation_elements(self) -> int:
        """Largest single intermediate tensor (elements, per image).

        With ping-pong buffer reuse (the TensorRT execution model) live
        activation memory is bounded by the two largest adjacent tensors;
        the engine memory model uses this as its base unit.
        """
        return self._peak_activation

    def sum_activation_elements(self) -> int:
        """Total elements across all layer outputs (no-reuse upper bound)."""
        return self._sum_activation

    def activation_bytes_per_image(self, bytes_per_elem: int,
                                   reuse: bool = True) -> float:
        """Per-image activation footprint.

        ``reuse=True`` models ping-pong buffers (2× the peak tensor,
        appropriate for discrete-GPU TensorRT engines); ``reuse=False``
        is the keep-everything upper bound.
        """
        if reuse:
            elems = 2 * self.peak_activation_elements()
        else:
            elems = self.sum_activation_elements()
        return float(elems) * bytes_per_elem

    # ------------------------------------------------------------------
    def summary(self) -> GraphSummary:
        """Headline numbers (one Table 3 column)."""
        return GraphSummary(
            name=self.name,
            architecture=self.architecture,
            params=self.total_params(),
            reported_gflops=self.reported_gflops(),
            total_gmacs=self.total_macs() / 1e9,
            input_shape=self.input_shape,
        )

    def layer_table(self) -> list[dict]:
        """Per-layer accounting rows (for reports and debugging)."""
        return [
            {
                "name": layer.name,
                "category": layer.category.value,
                "params": layer.params(),
                "macs": layer.macs(),
                "elementwise_flops": layer.elementwise_flops(),
                "output_shape": layer.output_shape,
            }
            for layer in self.layers
        ]

    def __repr__(self) -> str:
        s = self.summary()
        return (f"ModelGraph({self.name!r}, {self.architecture}, "
                f"{s.params_millions:.2f}M params, "
                f"{s.reported_gflops:.2f} GFLOPs/img)")
