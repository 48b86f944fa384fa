"""Vision Transformer builders (ViT Tiny / Small / Base).

Architecture follows Dosovitskiy et al. [11]: patch embedding, class token,
learnable position embedding, ``depth`` pre-norm transformer blocks
(LayerNorm → multi-head self-attention → residual → LayerNorm → MLP →
residual), final LayerNorm, and a linear classification head on the class
token.

Configurations reproduce Table 3: ViT Tiny and Small take 32×32 inputs
(the paper trains them on the small-image agricultural datasets) with a
patch size of 2, giving 257 tokens; ViT Base is the standard 224×224 /
patch-16 variant with 197 tokens.  With those token counts the analytic
parameter and GFLOP totals land on the paper's numbers (5.39M/1.37,
21.40M/5.47, 85.80M/16.86).

The classification head defaults to 39 classes (Plant Village, the largest
evaluated dataset) — the paper's ViT parameter counts are consistent with a
~39-class head rather than an ImageNet-1k head.
"""

from __future__ import annotations

import dataclasses

from repro.bounds import within
from repro.models.graph import ModelGraph
from repro.models.layers import (
    Activation,
    Add,
    AttentionMatmul,
    LayerNorm,
    LayerSpec,
    Linear,
    PatchEmbed,
    PositionEmbedding,
    Softmax,
    TokenConcat,
)


@dataclasses.dataclass(frozen=True)
class ViTConfig:
    """Hyperparameters of one ViT variant."""

    name: str
    img_size: int
    patch_size: int
    dim: int
    depth: int
    heads: int
    mlp_ratio: float = 4.0
    in_channels: int = 3
    num_classes: int = 39

    def __post_init__(self) -> None:
        within("mlp_ratio", self.mlp_ratio, "(0, inf)")
        if self.img_size % self.patch_size:
            raise ValueError(
                f"{self.name}: img_size {self.img_size} not divisible by "
                f"patch_size {self.patch_size}")
        if self.dim % self.heads:
            raise ValueError(
                f"{self.name}: dim {self.dim} not divisible by heads "
                f"{self.heads}")

    @property
    def tokens(self) -> int:
        """Sequence length including the class token."""
        return (self.img_size // self.patch_size) ** 2 + 1

    @property
    def mlp_hidden(self) -> int:
        """Feed-forward hidden width (mlp_ratio x dim)."""
        return int(self.dim * self.mlp_ratio)


VIT_CONFIGS: dict[str, ViTConfig] = {
    "vit_tiny": ViTConfig("vit_tiny", img_size=32, patch_size=2,
                          dim=192, depth=12, heads=3),
    "vit_small": ViTConfig("vit_small", img_size=32, patch_size=2,
                           dim=384, depth=12, heads=6),
    "vit_base": ViTConfig("vit_base", img_size=224, patch_size=16,
                          dim=768, depth=12, heads=12),
}


def _block_layers(cfg: ViTConfig, idx: int) -> list[LayerSpec]:
    """One pre-norm transformer encoder block."""
    t, d = cfg.tokens, cfg.dim
    p = f"block{idx}"
    return [
        LayerNorm(f"{p}.norm1", tokens=t, dim=d),
        Linear(f"{p}.attn.qkv", in_features=d, out_features=3 * d, tokens=t),
        AttentionMatmul(f"{p}.attn.matmul", tokens=t, dim=d, heads=cfg.heads),
        Softmax(f"{p}.attn.softmax", tokens=t, heads=cfg.heads),
        Linear(f"{p}.attn.proj", in_features=d, out_features=d, tokens=t),
        Add(f"{p}.residual1", shape=(t, d)),
        LayerNorm(f"{p}.norm2", tokens=t, dim=d),
        Linear(f"{p}.mlp.fc1", in_features=d, out_features=cfg.mlp_hidden,
               tokens=t),
        Activation(f"{p}.mlp.gelu", kind="gelu", shape=(t, cfg.mlp_hidden)),
        Linear(f"{p}.mlp.fc2", in_features=cfg.mlp_hidden, out_features=d,
               tokens=t),
        Add(f"{p}.residual2", shape=(t, d)),
    ]


def build_vit(variant: str | ViTConfig, num_classes: int | None = None) -> ModelGraph:
    """Build the layer graph for a ViT variant.

    Parameters
    ----------
    variant:
        One of ``"vit_tiny"``, ``"vit_small"``, ``"vit_base"``, or a custom
        :class:`ViTConfig`.
    num_classes:
        Override the head width (e.g. 2 for the Sugar Cane-Spittle Bug
        dataset).  The default keeps the config's value.
    """
    if isinstance(variant, str):
        try:
            cfg = VIT_CONFIGS[variant]
        except KeyError:
            raise KeyError(
                f"unknown ViT variant {variant!r}; available: "
                f"{sorted(VIT_CONFIGS)}") from None
    else:
        cfg = variant
    if num_classes is not None:
        cfg = dataclasses.replace(cfg, num_classes=num_classes)

    layers: list[LayerSpec] = [
        PatchEmbed("patch_embed", in_channels=cfg.in_channels, dim=cfg.dim,
                   img_hw=(cfg.img_size, cfg.img_size),
                   patch_size=cfg.patch_size),
        TokenConcat("cls_token", tokens=cfg.tokens - 1, dim=cfg.dim),
        PositionEmbedding("pos_embed", tokens=cfg.tokens, dim=cfg.dim),
    ]
    for i in range(cfg.depth):
        layers.extend(_block_layers(cfg, i))
    layers.extend([
        LayerNorm("norm", tokens=cfg.tokens, dim=cfg.dim),
        Linear("head", in_features=cfg.dim, out_features=cfg.num_classes,
               tokens=1),
    ])
    return ModelGraph(cfg.name, "transformer",
                      (cfg.in_channels, cfg.img_size, cfg.img_size), layers)
