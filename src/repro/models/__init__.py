"""Model substrate: layer graphs, analytic cost accounting, real forward.

The paper evaluates four vision models (Table 3): ViT Tiny, ViT Small,
ViT Base, and ResNet50.  This package builds each model **from scratch** as
an explicit layer graph (:mod:`repro.models.graph`) whose per-layer
parameter counts, multiply-accumulate counts, and activation footprints are
computed analytically (:mod:`repro.models.layers`) — these reproduce the
Table 3 columns and the Section 4 FLOP-breakdown claims.

A real NumPy forward pass for every layer lives in
:mod:`repro.models.functional`, and a TensorRT-like engine *builder*
(precision conversion + operator fusion) in :mod:`repro.models.trt`.

FLOP conventions
----------------
The paper's "GFLOPs/Image" column follows the common profiler convention
(one MAC counted as one FLOP, attention score/context matmuls excluded —
the fvcore/ptflops behaviour).  :meth:`ModelGraph.reported_gflops` uses
that convention so the Table 3 numbers match; :meth:`ModelGraph.total_macs`
counts everything.
"""

from repro.models.layers import (
    LayerCategory,
    LayerSpec,
    Conv2d,
    Linear,
    AttentionMatmul,
    BatchNorm2d,
    LayerNorm,
    Activation,
    Pool2d,
    GlobalAvgPool,
    Add,
    PatchEmbed,
    TokenConcat,
    PositionEmbedding,
    Softmax,
)
from repro.models.graph import ModelGraph, GraphSummary
from repro.models.vit import build_vit, ViTConfig, VIT_CONFIGS
from repro.models.resnet import build_resnet50, BottleneckConfig
from repro.models.zoo import (
    ModelEntry,
    MODEL_ZOO,
    get_model,
    list_models,
    table3_rows,
)
from repro.models.trt import TRTEngineBuilder, BuiltEngineSpec
from repro.models.functional import (
    FunctionalModel,
    MacTally,
    build_functional,
)

__all__ = [
    "LayerCategory",
    "LayerSpec",
    "Conv2d",
    "Linear",
    "AttentionMatmul",
    "BatchNorm2d",
    "LayerNorm",
    "Activation",
    "Pool2d",
    "GlobalAvgPool",
    "Add",
    "PatchEmbed",
    "TokenConcat",
    "PositionEmbedding",
    "Softmax",
    "ModelGraph",
    "GraphSummary",
    "build_vit",
    "ViTConfig",
    "VIT_CONFIGS",
    "build_resnet50",
    "BottleneckConfig",
    "ModelEntry",
    "MODEL_ZOO",
    "get_model",
    "list_models",
    "table3_rows",
    "TRTEngineBuilder",
    "BuiltEngineSpec",
    "FunctionalModel",
    "MacTally",
    "build_functional",
]
