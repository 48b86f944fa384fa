"""Layer specifications with analytic parameter/MAC/activation accounting.

Every layer type the four evaluated models need is described by a
:class:`LayerSpec` subclass that knows, per single image:

* ``params()`` — trainable parameter count,
* ``macs()`` — multiply-accumulate operations (the unit behind the paper's
  "GFLOPs/Image" column),
* ``elementwise_flops()`` — non-MAC arithmetic (normalization, activation
  functions, pooling, residual adds); needed for the ResNet "convolution
  operations account for 99.5% of computational intensity" claim, which
  only holds when elementwise work is in the denominator,
* ``output_shape`` / ``activation_elements()`` — for the memory model.

Shapes are per-image, channel-first: ``(C, H, W)`` for spatial tensors and
``(T, D)`` for token tensors.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import math

from repro.bounds import within


class LayerCategory(str, enum.Enum):
    """Buckets used for the paper's FLOP-breakdown claims (Section 4.0.2).

    The paper attributes QKV/output projections and the feed-forward
    network to "MLP layers" (all dense matmuls) and only the attention
    score/context matmuls to "attention layers" — that taxonomy is the one
    under which ViT-Tiny is 81.73% MLP / 18.23% attention.
    """

    CONV = "conv"
    LINEAR = "linear"          # dense matmuls: QKV, projections, MLP, head
    ATTENTION = "attention"    # QK^T and AV matmuls only
    NORM = "norm"
    ACTIVATION = "activation"
    POOL = "pool"
    EMBED = "embed"
    ELEMENTWISE = "elementwise"


Shape = tuple[int, ...]


def _elements(shape: Shape) -> int:
    return math.prod(shape)


@dataclasses.dataclass(frozen=True)
class LayerSpec(abc.ABC):
    """Base class for all layer specifications."""

    name: str

    @property
    @abc.abstractmethod
    def category(self) -> LayerCategory:
        """Breakdown bucket this layer's work is attributed to."""

    @property
    @abc.abstractmethod
    def input_shape(self) -> Shape:
        """Per-image input tensor shape."""

    @property
    @abc.abstractmethod
    def output_shape(self) -> Shape:
        """Per-image output tensor shape."""

    @abc.abstractmethod
    def params(self) -> int:
        """Trainable parameters."""

    @abc.abstractmethod
    def macs(self) -> float:
        """Multiply-accumulate ops per image."""

    def elementwise_flops(self) -> float:
        """Non-MAC arithmetic ops per image (default: none)."""
        return 0.0

    def activation_elements(self) -> int:
        """Output tensor elements per image."""
        return _elements(self.output_shape)

    def weight_bytes(self, bytes_per_param: int) -> float:
        """Weight storage at the given element width."""
        return self.params() * bytes_per_param


# ----------------------------------------------------------------------
# Convolutional layers
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Conv2d(LayerSpec):
    """2D convolution over a ``(C, H, W)`` input."""

    in_channels: int
    out_channels: int
    in_hw: tuple[int, int]
    kernel_size: int
    stride: int = 1
    padding: int = 0
    bias: bool = False

    def __post_init__(self) -> None:
        for field in ("in_channels", "out_channels", "kernel_size",
                      "stride"):
            within(f"{self.name}.{field}", getattr(self, field), "[1, inf)")
        if self.out_hw[0] < 1 or self.out_hw[1] < 1:
            raise ValueError(f"{self.name}: output spatial size collapsed")

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.CONV

    @property
    def out_hw(self) -> tuple[int, int]:
        """Output (height, width) after stride/padding."""
        h, w = self.in_hw
        k, s, p = self.kernel_size, self.stride, self.padding
        return ((h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)

    @property
    def input_shape(self) -> Shape:
        return (self.in_channels, *self.in_hw)

    @property
    def output_shape(self) -> Shape:
        return (self.out_channels, *self.out_hw)

    def params(self) -> int:
        weights = self.out_channels * self.in_channels * self.kernel_size ** 2
        return weights + (self.out_channels if self.bias else 0)

    def macs(self) -> float:
        oh, ow = self.out_hw
        return (self.out_channels * oh * ow
                * self.in_channels * self.kernel_size ** 2)


@dataclasses.dataclass(frozen=True)
class BatchNorm2d(LayerSpec):
    """Batch normalization (inference mode: scale + shift per channel)."""

    channels: int
    in_hw: tuple[int, int]

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.NORM

    @property
    def input_shape(self) -> Shape:
        return (self.channels, *self.in_hw)

    output_shape = input_shape

    def params(self) -> int:
        return 2 * self.channels  # gamma, beta (running stats are buffers)

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        return 2.0 * _elements(self.input_shape)  # one mul + one add / elem


# ----------------------------------------------------------------------
# Token / transformer layers
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Linear(LayerSpec):
    """Dense layer applied to the last axis of ``(T, D_in)`` or ``(D_in,)``."""

    in_features: int
    out_features: int
    tokens: int = 1
    bias: bool = True

    def __post_init__(self) -> None:
        for field in ("in_features", "out_features", "tokens"):
            within(f"{self.name}.{field}", getattr(self, field), "[1, inf)")

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.LINEAR

    @property
    def input_shape(self) -> Shape:
        return (self.tokens, self.in_features)

    @property
    def output_shape(self) -> Shape:
        return (self.tokens, self.out_features)

    def params(self) -> int:
        return self.in_features * self.out_features + (
            self.out_features if self.bias else 0)

    def macs(self) -> float:
        return float(self.tokens) * self.in_features * self.out_features


@dataclasses.dataclass(frozen=True)
class AttentionMatmul(LayerSpec):
    """The two batched matmuls of scaled dot-product attention.

    Covers Q @ K^T (scores, ``T×T`` per head) and softmax(scores) @ V
    (context).  Each is ``T² · head_dim`` MACs per head, so together
    ``2 · T² · D`` MACs with ``D = heads · head_dim``.

    These are the ops that "scale quadratically with respect to input
    sequence length" (Section 3.1) and the ops the profiler convention
    behind Table 3 leaves out.
    """

    tokens: int
    dim: int
    heads: int

    def __post_init__(self) -> None:
        if self.dim % self.heads != 0:
            raise ValueError(
                f"{self.name}: dim {self.dim} not divisible by heads "
                f"{self.heads}")

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.ATTENTION

    @property
    def input_shape(self) -> Shape:
        return (self.tokens, self.dim)

    output_shape = input_shape

    def params(self) -> int:
        return 0

    def macs(self) -> float:
        return 2.0 * self.tokens ** 2 * self.dim

    def activation_elements(self) -> int:
        # Score matrix per head plus the context tensor.
        return self.heads * self.tokens ** 2 + self.tokens * self.dim


@dataclasses.dataclass(frozen=True)
class Softmax(LayerSpec):
    """Softmax over attention scores (elementwise exp/sum/div)."""

    tokens: int
    heads: int

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.ACTIVATION

    @property
    def input_shape(self) -> Shape:
        return (self.heads, self.tokens, self.tokens)

    output_shape = input_shape

    def params(self) -> int:
        return 0

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        return 3.0 * _elements(self.input_shape)  # exp, sum, divide


@dataclasses.dataclass(frozen=True)
class LayerNorm(LayerSpec):
    """Layer normalization over the feature axis of ``(T, D)``."""

    tokens: int
    dim: int

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.NORM

    @property
    def input_shape(self) -> Shape:
        return (self.tokens, self.dim)

    output_shape = input_shape

    def params(self) -> int:
        return 2 * self.dim

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        return 5.0 * _elements(self.input_shape)  # mean/var/norm/scale/shift


@dataclasses.dataclass(frozen=True)
class Activation(LayerSpec):
    """Pointwise nonlinearity (ReLU, GELU)."""

    kind: str  # "relu" | "gelu"
    shape: Shape

    def __post_init__(self) -> None:
        if self.kind not in ("relu", "gelu"):
            raise ValueError(f"{self.name}: unknown activation {self.kind!r}")

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.ACTIVATION

    @property
    def input_shape(self) -> Shape:
        return self.shape

    output_shape = input_shape

    def params(self) -> int:
        return 0

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        per_elem = 1.0 if self.kind == "relu" else 8.0  # tanh-approx GELU
        return per_elem * _elements(self.shape)


# ----------------------------------------------------------------------
# Pooling / structural layers
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Pool2d(LayerSpec):
    """Max or average pooling over ``(C, H, W)``."""

    kind: str  # "max" | "avg"
    channels: int
    in_hw: tuple[int, int]
    kernel_size: int
    stride: int
    padding: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("max", "avg"):
            raise ValueError(f"{self.name}: unknown pool kind {self.kind!r}")

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.POOL

    @property
    def out_hw(self) -> tuple[int, int]:
        """Output (height, width) after stride/padding."""
        h, w = self.in_hw
        k, s, p = self.kernel_size, self.stride, self.padding
        return ((h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)

    @property
    def input_shape(self) -> Shape:
        return (self.channels, *self.in_hw)

    @property
    def output_shape(self) -> Shape:
        return (self.channels, *self.out_hw)

    def params(self) -> int:
        return 0

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        oh, ow = self.out_hw
        return float(self.channels * oh * ow * self.kernel_size ** 2)


@dataclasses.dataclass(frozen=True)
class GlobalAvgPool(LayerSpec):
    """Global average pooling ``(C, H, W) -> (C,)``."""

    channels: int
    in_hw: tuple[int, int]

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.POOL

    @property
    def input_shape(self) -> Shape:
        return (self.channels, *self.in_hw)

    @property
    def output_shape(self) -> Shape:
        return (self.channels,)

    def params(self) -> int:
        return 0

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        return float(_elements(self.input_shape))


@dataclasses.dataclass(frozen=True)
class Add(LayerSpec):
    """Residual addition of two tensors of identical shape."""

    shape: Shape

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.ELEMENTWISE

    @property
    def input_shape(self) -> Shape:
        return self.shape

    output_shape = input_shape

    def params(self) -> int:
        return 0

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        return float(_elements(self.shape))


# ----------------------------------------------------------------------
# Embedding layers (ViT front end)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PatchEmbed(LayerSpec):
    """Non-overlapping patch projection ``(C, H, W) -> (T_patches, D)``.

    Implemented (and counted) as a conv with kernel = stride = patch size.
    """

    in_channels: int
    dim: int
    img_hw: tuple[int, int]
    patch_size: int

    def __post_init__(self) -> None:
        h, w = self.img_hw
        if h % self.patch_size or w % self.patch_size:
            raise ValueError(
                f"{self.name}: image {self.img_hw} not divisible by patch "
                f"size {self.patch_size}")

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.CONV

    @property
    def num_patches(self) -> int:
        """Token count before the class token."""
        h, w = self.img_hw
        return (h // self.patch_size) * (w // self.patch_size)

    @property
    def input_shape(self) -> Shape:
        return (self.in_channels, *self.img_hw)

    @property
    def output_shape(self) -> Shape:
        return (self.num_patches, self.dim)

    def params(self) -> int:
        return (self.dim * self.in_channels * self.patch_size ** 2
                + self.dim)  # projection + bias

    def macs(self) -> float:
        return (float(self.num_patches) * self.dim
                * self.in_channels * self.patch_size ** 2)


@dataclasses.dataclass(frozen=True)
class TokenConcat(LayerSpec):
    """Prepend the learnable class token: ``(T, D) -> (T+1, D)``."""

    tokens: int
    dim: int

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.EMBED

    @property
    def input_shape(self) -> Shape:
        return (self.tokens, self.dim)

    @property
    def output_shape(self) -> Shape:
        return (self.tokens + 1, self.dim)

    def params(self) -> int:
        return self.dim

    def macs(self) -> float:
        return 0.0


@dataclasses.dataclass(frozen=True)
class PositionEmbedding(LayerSpec):
    """Learnable additive position embedding over ``(T, D)``."""

    tokens: int
    dim: int

    @property
    def category(self) -> LayerCategory:
        return LayerCategory.EMBED

    @property
    def input_shape(self) -> Shape:
        return (self.tokens, self.dim)

    output_shape = input_shape

    def params(self) -> int:
        return self.tokens * self.dim

    def macs(self) -> float:
        return 0.0

    def elementwise_flops(self) -> float:
        return float(self.tokens * self.dim)
