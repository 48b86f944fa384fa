"""Real NumPy forward passes for the evaluated models.

The analytic :class:`~repro.models.graph.ModelGraph` predicts cost; this
module is its executable twin — actual arithmetic for every op, vectorized
with NumPy per the HPC guides (im2col convolution so the inner loop is one
BLAS GEMM, batched attention via einsum-free matmuls, no Python-level
pixel loops).  ResNet50 runs channels-last (NHWC): each conv kernel is
stored channels-last, so its GEMM operand is the weight's own memory, and
batch norm is a per-channel scale and shift on the GEMM output.  A
stride-1 1×1 conv is a single GEMM on the activation as it lies and every
GEMM output is the next layer's input.

Weights are procedurally initialized (seeded) since the paper's trained
checkpoints are farm-specific and private; the characterization never
depends on weight values, only on shapes and arithmetic.  An optional
:class:`MacTally` records the multiply-accumulates actually executed so
tests can cross-check the analytic accounting against the real compute.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.models.resnet import STAGES, BottleneckConfig
from repro.models.vit import ViTConfig, VIT_CONFIGS
from repro.models.workspace import WeightPack, WorkspaceArena, scratch


class MacTally:
    """Accumulates the MACs actually performed by the low-level ops."""

    def __init__(self) -> None:
        self.macs = 0.0

    def add(self, macs: float) -> None:
        """Accumulate multiply-accumulate operations."""
        self.macs += macs


# ----------------------------------------------------------------------
# Low-level ops (all batched: leading axis is the batch)
# ----------------------------------------------------------------------

def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           tally: MacTally | None = None,
           pack: WeightPack | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """``y = x @ W^T + b`` over the last axis.

    ``weight`` is ``(out, in)`` (PyTorch convention).  With a
    :class:`~repro.models.workspace.WeightPack` the GEMM consumes the
    pre-transposed contiguous operand instead of transposing per call;
    the values are identical either way.  ``out`` (an arena slot, say)
    receives the result in place of a new array.
    """
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"linear: input features {x.shape[-1]} != weight in "
            f"{weight.shape[1]}")
    operand = (pack.linear_operand(weight) if pack is not None else None)
    y = np.matmul(x, operand if operand is not None else weight.T, out=out)
    if bias is not None:
        y += bias
    if tally is not None:
        tally.add(x.size / x.shape[-1] * weight.size)
    return y


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int,
           arena: WorkspaceArena | None = None,
           ) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into GEMM-ready patches.

    Returns ``(patches, out_h, out_w)`` where ``patches`` has shape
    ``(N, out_h * out_w, C * kernel²)``.  Uses a strided view (no copy)
    before the final reshape, per the guides' views-not-copies advice.
    With an :class:`~repro.models.workspace.WorkspaceArena` both the
    padded input and the patch matrix land in pooled buffers, so
    repeated same-shape calls (every serving replay) allocate nothing.
    The returned patches alias the arena's ``"patches"`` slot: consume
    them before the next call that takes it.
    """
    n, c, h, w = x.shape
    if padding:
        if arena is not None:
            padded = arena.take(
                (n, c, h + 2 * padding, w + 2 * padding), x.dtype, "padded")
            padded.fill(0)
            padded[:, :, padding:-padding, padding:-padding] = x
            x = padded
        else:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                           (padding, padding)))
        h, w = h + 2 * padding, w + 2 * padding
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("im2col: output spatial size collapsed")
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    gathered = view.transpose(0, 2, 3, 1, 4, 5)
    if arena is None:
        patches = gathered.reshape(n, out_h * out_w, c * kernel * kernel)
    else:
        patches = arena.take(
            (n, out_h * out_w, c * kernel * kernel), x.dtype, "patches")
        np.copyto(
            patches.reshape(n, out_h, out_w, c, kernel, kernel),
            gathered)
    return patches, out_h, out_w


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           stride: int = 1, padding: int = 0,
           tally: MacTally | None = None) -> np.ndarray:
    """2D convolution; ``weight`` is ``(out_c, in_c, k, k)``: the NCHW
    im2col GEMM."""
    out_c, in_c, k, _ = weight.shape
    if x.shape[1] != in_c:
        raise ValueError(
            f"conv2d: input channels {x.shape[1]} != weight in_c {in_c}")
    patches, out_h, out_w = im2col(x, k, stride, padding)
    y = patches @ weight.reshape(out_c, -1).T  # (N, OH*OW, out_c)
    if bias is not None:
        y = y + bias
    if tally is not None:
        tally.add(x.shape[0] * out_h * out_w * float(weight.size))
    return y.transpose(0, 2, 1).reshape(x.shape[0], out_c, out_h, out_w)


def batchnorm2d(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                mean: np.ndarray, var: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
    """Inference-mode batch norm with running statistics."""
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    return x * scale[:, None, None] + shift[:, None, None]


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              eps: float = 1e-6,
              arena: WorkspaceArena | None = None) -> np.ndarray:
    """Layer normalization over the last axis.

    The result is built in one buffer, the arena's ``"norm"`` slot when
    there is one: the squared deviations are summed there and then
    overwritten by the deviations again, so the arithmetic is
    ``np.var``'s, bit for bit, with no other full-size temporary.
    """
    mean = x.mean(axis=-1, keepdims=True)
    out = scratch(arena, x.shape, np.result_type(x, gamma, beta), "norm")
    np.subtract(x, mean, out=out)
    np.multiply(out, out, out=out)
    var = out.mean(axis=-1, keepdims=True)
    np.subtract(x, mean, out=out)
    out /= np.sqrt(var + eps)
    out *= gamma
    out += beta
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def gelu(x: np.ndarray, arena: WorkspaceArena | None = None) -> np.ndarray:
    """Tanh-approximated GELU (the ViT default).

    The cube is spelled ``x * x * x``: NumPy routes ``x ** 3`` through
    the generic scalar ``pow`` loop, which costs ~50x more than two
    multiplies and dominated the whole ViT forward.  The result is
    built in one buffer, the arena's ``"gelu"`` slot when there is one.
    """
    c = math.sqrt(2.0 / math.pi)
    inner = np.multiply(x, x, out=scratch(arena, x.shape, x.dtype, "gelu"))
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= c
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= x
    inner *= 0.5
    return inner


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along an axis."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def maxpool2d(x: np.ndarray, kernel: int, stride: int,
              padding: int = 0) -> np.ndarray:
    """Max pooling over (N, C, H, W)."""
    n, c, _, _ = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)),
                   constant_values=-np.inf)
    merged = x.reshape(n * c, 1, *x.shape[2:])
    patches, out_h, out_w = im2col(merged, kernel, stride, 0)
    return patches.max(axis=-1).reshape(n, c, out_h, out_w)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    """Global average pooling to (N, C)."""
    return x.mean(axis=(2, 3))


def attention(qkv: np.ndarray, heads: int,
              tally: MacTally | None = None,
              arena: WorkspaceArena | None = None) -> np.ndarray:
    """Multi-head scaled dot-product attention from packed QKV.

    ``qkv`` has shape ``(N, T, 3*D)``; returns ``(N, T, D)``.

    The qkv→heads rearrangement is one ``copyto`` through a 5-axis
    view, the softmax runs in place on the score tile, and the context
    GEMM writes each head's columns of the ``(N, T, D)`` result
    directly.  With an arena the three buffers are its ``"split"``,
    ``"scores"`` and ``"ctx"`` slots, so steady-state repeated
    inference allocates none of them.
    """
    n, t, three_d = qkv.shape
    if three_d % 3:
        raise ValueError("qkv last axis must be 3*D")
    d = three_d // 3
    if d % heads:
        raise ValueError(f"dim {d} not divisible by heads {heads}")
    head_dim = d // heads
    if tally is not None:
        tally.add(2.0 * n * t * t * d)  # QK^T and AV
    split = scratch(arena, (3, n, heads, t, head_dim), qkv.dtype, "split")
    np.copyto(split, qkv.reshape(n, t, 3, heads, head_dim)
              .transpose(2, 0, 3, 1, 4))
    q, k, v = split[0], split[1], split[2]
    scores = scratch(arena, (n, heads, t, t), qkv.dtype, "scores")
    np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
    scores /= math.sqrt(head_dim)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    ctx = scratch(arena, (n, t, d), qkv.dtype, "ctx")
    np.matmul(scores, v,
              out=ctx.reshape(n, t, heads, head_dim).transpose(0, 2, 1, 3))
    return ctx


# ----------------------------------------------------------------------
# Weight initialization
# ----------------------------------------------------------------------

def _init(rng: np.random.Generator, *shape: int) -> np.ndarray:
    fan_in = math.prod(shape[1:]) if len(shape) > 1 else shape[0]
    std = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def _init_linear(rng: np.random.Generator, out_f: int,
                 in_f: int) -> np.ndarray:
    """An ``(out, in)`` linear weight laid out as the ``.T`` view of a
    contiguous ``(in, out)`` array: the same draws and values as
    ``_init(rng, out, in)``, but :class:`WeightPack`'s ``W.T`` operand
    is this array's own memory rather than a second copy."""
    return np.ascontiguousarray(_init(rng, out_f, in_f).T).T


def _init_conv(rng: np.random.Generator, out_c: int, in_c: int,
               k: int) -> np.ndarray:
    """An ``(out, C, k, k)`` conv kernel laid out as the transpose view
    of a contiguous channels-last ``(k, k, C, out)`` array: the same
    draws and values as ``_init(rng, out, C, k, k)``, but
    :class:`WeightPack`'s ``(k·k·C, out)`` NHWC operand is this array's
    own memory rather than a second copy."""
    return np.ascontiguousarray(
        _init(rng, out_c, in_c, k, k).transpose(2, 3, 1, 0)
    ).transpose(3, 2, 0, 1)


def init_vit_weights(cfg: ViTConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Procedural ViT weights keyed by parameter name."""
    rng = np.random.default_rng(seed)
    d, hidden = cfg.dim, cfg.mlp_hidden
    w: dict[str, np.ndarray] = {
        "patch_embed.weight": _init(rng, d, cfg.in_channels,
                                    cfg.patch_size, cfg.patch_size),
        "patch_embed.bias": np.zeros(d, np.float32),
        "cls_token": _init(rng, 1, d),
        "pos_embed": _init(rng, cfg.tokens, d),
        "norm.gamma": np.ones(d, np.float32),
        "norm.beta": np.zeros(d, np.float32),
        "head.weight": _init_linear(rng, cfg.num_classes, d),
        "head.bias": np.zeros(cfg.num_classes, np.float32),
    }
    for i in range(cfg.depth):
        p = f"block{i}"
        w[f"{p}.norm1.gamma"] = np.ones(d, np.float32)
        w[f"{p}.norm1.beta"] = np.zeros(d, np.float32)
        w[f"{p}.qkv.weight"] = _init_linear(rng, 3 * d, d)
        w[f"{p}.qkv.bias"] = np.zeros(3 * d, np.float32)
        w[f"{p}.proj.weight"] = _init_linear(rng, d, d)
        w[f"{p}.proj.bias"] = np.zeros(d, np.float32)
        w[f"{p}.norm2.gamma"] = np.ones(d, np.float32)
        w[f"{p}.norm2.beta"] = np.zeros(d, np.float32)
        w[f"{p}.fc1.weight"] = _init_linear(rng, hidden, d)
        w[f"{p}.fc1.bias"] = np.zeros(hidden, np.float32)
        w[f"{p}.fc2.weight"] = _init_linear(rng, d, hidden)
        w[f"{p}.fc2.bias"] = np.zeros(d, np.float32)
    return w


def _vit_features(cfg: ViTConfig, weights: dict[str, np.ndarray],
                  x: np.ndarray, tally: MacTally | None,
                  pack: WeightPack | None) -> np.ndarray:
    """The normalized class-token embeddings ``(N, D)`` of ``x``.

    Every intermediate is one named buffer, written in place: the
    residual stream (``"seq"``), each GEMM output and each epilogue's
    result.  With a pack they are its arena's slots, so they are
    reused from call to call; without one they are new arrays.  The
    returned rows are a view of the ``"norm"`` buffer.
    """
    arena = pack.arena if pack is not None else None
    n = x.shape[0]
    patch = weights["patch_embed.weight"]
    dtype = np.result_type(x, patch)

    def dense(y: np.ndarray, name: str, slot: str) -> np.ndarray:
        weight = weights[f"{name}.weight"]
        out = scratch(arena, (*y.shape[:-1], weight.shape[0]),
                      np.result_type(y, weight), slot)
        return linear(y, weight, weights[f"{name}.bias"], tally=tally,
                      pack=pack, out=out)

    # Patch embedding is a stride=kernel conv whose GEMM writes the
    # token rows of the residual stream.
    patches, out_h, out_w = im2col(x, cfg.patch_size, cfg.patch_size, 0,
                                   arena=arena)
    operand = pack.conv_operand(patch) if pack is not None else None
    if operand is None:
        operand = patch.reshape(cfg.dim, -1).T
    seq = scratch(arena, (n, cfg.tokens, cfg.dim), dtype, "seq")
    np.matmul(patches, operand, out=seq[:, 1:])
    seq[:, 1:] += weights["patch_embed.bias"]
    if tally is not None:
        tally.add(n * out_h * out_w * float(patch.size))
    seq[:, 0] = weights["cls_token"]
    seq += weights["pos_embed"]

    for i in range(cfg.depth):
        p = f"block{i}"
        y = layernorm(seq, weights[f"{p}.norm1.gamma"],
                      weights[f"{p}.norm1.beta"], arena=arena)
        ctx = attention(dense(y, f"{p}.qkv", "qkv"), cfg.heads,
                        tally=tally, arena=arena)
        seq += dense(ctx, f"{p}.proj", "proj")
        y = layernorm(seq, weights[f"{p}.norm2.gamma"],
                      weights[f"{p}.norm2.beta"], arena=arena)
        y = gelu(dense(y, f"{p}.fc1", "hidden"), arena=arena)
        seq += dense(y, f"{p}.fc2", "proj")

    seq = layernorm(seq, weights["norm.gamma"], weights["norm.beta"],
                    arena=arena)
    return seq[:, 0]


def vit_forward(cfg: ViTConfig, weights: dict[str, np.ndarray],
                x: np.ndarray, tally: MacTally | None = None,
                return_features: bool = False,
                pack: WeightPack | None = None) -> np.ndarray:
    """ViT inference: ``(N, C, H, W) -> (N, num_classes)`` logits.

    ``return_features=True`` returns the penultimate class-token
    embedding ``(N, D)`` instead — the representation the fine-tuning
    substrate trains localized heads on.  ``pack=None`` runs the whole
    batch at once on new arrays, the reference path; a
    :class:`~repro.models.workspace.WeightPack` (what
    :func:`build_functional` attaches) runs one image at a time on its
    pre-packed operands and arena slots, so the scratch memory is one
    image's whatever the batch, with matching results and identical
    ``tally`` accounting.
    """
    n, c, h, wd = x.shape
    if (c, h, wd) != (cfg.in_channels, cfg.img_size, cfg.img_size):
        raise ValueError(
            f"expected input (N, {cfg.in_channels}, {cfg.img_size}, "
            f"{cfg.img_size}), got {x.shape}")
    if pack is None:
        features = _vit_features(cfg, weights, x, tally, None)
    else:
        features = np.empty(
            (n, cfg.dim), np.result_type(x, weights["patch_embed.weight"]))
        for i in range(n):
            features[i] = _vit_features(cfg, weights, x[i:i + 1], tally,
                                        pack)[0]
    if return_features:
        return features
    return linear(features, weights["head.weight"], weights["head.bias"],
                  tally=tally, pack=pack)


# ----------------------------------------------------------------------
# ResNet50
# ----------------------------------------------------------------------

def _resnet_block_configs(img_size: int) -> list[tuple[str, BottleneckConfig]]:
    configs = []
    hw = (img_size // 4, img_size // 4)  # after stem conv + maxpool
    in_ch = 64
    for stage_idx, (blocks, width) in enumerate(STAGES, start=1):
        for block_idx in range(blocks):
            stride = 2 if (block_idx == 0 and stage_idx > 1) else 1
            cfg = BottleneckConfig(in_channels=in_ch, width=width,
                                   stride=stride, in_hw=hw)
            configs.append((f"layer{stage_idx}.{block_idx}", cfg))
            in_ch = cfg.out_channels
            hw = cfg.out_hw
    return configs


def init_resnet50_weights(img_size: int = 224, num_classes: int = 1000,
                          seed: int = 0) -> dict[str, np.ndarray]:
    """Procedural ResNet50 weights keyed by parameter name."""
    rng = np.random.default_rng(seed)

    def bn(prefix: str, ch: int) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.gamma": np.ones(ch, np.float32),
            f"{prefix}.beta": np.zeros(ch, np.float32),
            f"{prefix}.mean": np.zeros(ch, np.float32),
            f"{prefix}.var": np.ones(ch, np.float32),
        }

    w: dict[str, np.ndarray] = {"stem.conv": _init_conv(rng, 64, 3, 7)}
    w.update(bn("stem.bn", 64))
    for name, cfg in _resnet_block_configs(img_size):
        w[f"{name}.1.conv"] = _init_conv(rng, cfg.width, cfg.in_channels, 1)
        w.update(bn(f"{name}.1.bn", cfg.width))
        w[f"{name}.2.conv"] = _init_conv(rng, cfg.width, cfg.width, 3)
        w.update(bn(f"{name}.2.bn", cfg.width))
        w[f"{name}.3.conv"] = _init_conv(rng, cfg.out_channels, cfg.width, 1)
        w.update(bn(f"{name}.3.bn", cfg.out_channels))
        if cfg.has_downsample:
            w[f"{name}.downsample.conv"] = _init_conv(
                rng, cfg.out_channels, cfg.in_channels, 1)
            w.update(bn(f"{name}.downsample.bn", cfg.out_channels))
    w["fc.weight"] = _init_linear(rng, num_classes, 2048)
    w["fc.bias"] = np.zeros(num_classes, np.float32)
    return w


def _conv_bn_nhwc(x: np.ndarray, pack: WeightPack, prefix: str,
                  slot: str, stride: int = 1, padding: int = 0,
                  relu: bool = True,
                  tally: MacTally | None = None) -> np.ndarray:
    """Conv ``prefix.conv`` + its batch norm (+ ReLU) on one ``(H, W, C)``
    image, into the arena slot ``slot``.

    The GEMM reads the conv kernel's channels-last operand, and the
    inference-mode BN is the epilogue: an in-place per-channel scale
    and shift, then an in-place clamp.  A stride-1 1×1 conv multiplies
    the activation as it lies.  Otherwise the image's pixels are
    gathered into the arena's ``"patches"`` slot first: a strided 1×1
    conv takes every ``stride``-th pixel, and a larger kernel pads the
    image into the ``"padded"`` slot and takes its ``(OH, OW, k, k, C)``
    patches.
    """
    operand, scale, shift = pack.conv_bn_operand(prefix)
    k = pack.weights[f"{prefix}.conv"].shape[-1]
    arena = pack.arena
    h, w, c = x.shape
    if k == 1 and stride == 1:
        out_h, out_w = h, w
        cols = x.reshape(-1, c)
    elif k == 1:
        picked = x[::stride, ::stride]
        out_h, out_w = picked.shape[:2]
        cols = arena.take((out_h * out_w, c), x.dtype, "patches")
        np.copyto(cols.reshape(out_h, out_w, c), picked)
    else:
        padded = arena.take((h + 2 * padding, w + 2 * padding, c), x.dtype,
                            "padded")
        padded.fill(0)
        padded[padding:padding + h, padding:padding + w] = x
        out_h = (padded.shape[0] - k) // stride + 1
        out_w = (padded.shape[1] - k) // stride + 1
        sh, sw, sc = padded.strides
        view = np.lib.stride_tricks.as_strided(
            padded, shape=(out_h, out_w, k, k, c),
            strides=(sh * stride, sw * stride, sh, sw, sc), writeable=False)
        cols = arena.take((out_h * out_w, k * k * c), x.dtype, "patches")
        np.copyto(cols.reshape(out_h, out_w, k, k, c), view)
    y = arena.take((out_h * out_w, operand.shape[1]),
                   np.result_type(x.dtype, operand.dtype), slot)
    np.matmul(cols, operand, out=y)
    y *= scale
    y += shift
    if relu:
        np.maximum(y, 0, out=y)
    if tally is not None:
        tally.add(out_h * out_w * float(operand.size))
    return y.reshape(out_h, out_w, -1)


def _maxpool_nhwc(x: np.ndarray, kernel: int, stride: int, padding: int,
                  arena: WorkspaceArena, slot: str) -> np.ndarray:
    """Max pooling of one ``(H, W, C)`` image into the arena slot
    ``slot``: the image is padded with ``-inf`` into the ``"padded"``
    slot, then one strided maximum per tap."""
    h, w, c = x.shape
    padded = arena.take((h + 2 * padding, w + 2 * padding, c), x.dtype,
                        "padded")
    padded.fill(-np.inf)
    padded[padding:padding + h, padding:padding + w] = x
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    out = arena.take((out_h, out_w, c), x.dtype, slot)
    np.copyto(out, padded[:span_h:stride, :span_w:stride])
    for i in range(kernel):
        for j in range(kernel):
            if i or j:
                np.maximum(out, padded[i:i + span_h:stride,
                                       j:j + span_w:stride], out=out)
    return out


def _resnet50_pooled(image: np.ndarray, pack: WeightPack, img_size: int,
                     tally: MacTally | None) -> np.ndarray:
    """One ``(H, W, 3)`` image's pooled 2048-d embedding.

    The activations live in three arena slots: a block reads its input
    from one of ``"act0"`` and ``"act1"`` and leaves its output in the
    other, and ``"act2"`` holds the middle conv's output and then the
    downsampled shortcut.
    """
    y = _conv_bn_nhwc(image, pack, "stem", "act0", stride=2, padding=3,
                      tally=tally)
    y = _maxpool_nhwc(y, kernel=3, stride=2, padding=1, arena=pack.arena,
                      slot="act1")
    here, spare = "act1", "act0"
    for name, cfg in _resnet_block_configs(img_size):
        out = _conv_bn_nhwc(y, pack, f"{name}.1", spare, tally=tally)
        out = _conv_bn_nhwc(out, pack, f"{name}.2", "act2",
                            stride=cfg.stride, padding=1, tally=tally)
        out = _conv_bn_nhwc(out, pack, f"{name}.3", spare, relu=False,
                            tally=tally)
        if cfg.has_downsample:
            y = _conv_bn_nhwc(y, pack, f"{name}.downsample", "act2",
                              stride=cfg.stride, relu=False, tally=tally)
        out += y
        np.maximum(out, 0, out=out)
        y, here, spare = out, spare, here
    return y.mean(axis=(0, 1))


def resnet50_forward(weights: dict[str, np.ndarray], x: np.ndarray,
                     img_size: int = 224,
                     tally: MacTally | None = None,
                     return_features: bool = False,
                     pack: WeightPack | None = None) -> np.ndarray:
    """ResNet50 inference: ``(N, 3, H, W) -> (N, num_classes)`` logits.

    ``return_features=True`` returns the pooled 2048-d embedding.  The
    images run one at a time, each read channels-last once, at the
    stem; every layer after runs NHWC on the conv operands, BN scales
    and arena of ``pack``, a
    :class:`~repro.models.workspace.WeightPack` of ``weights`` (one is
    built for the call when none is given), so the scratch memory is
    one image's whatever the batch.
    """
    if x.shape[1:] != (3, img_size, img_size):
        raise ValueError(
            f"expected input (N, 3, {img_size}, {img_size}), got {x.shape}")
    if pack is None:
        pack = WeightPack(weights)
    pooled = np.empty((x.shape[0], weights["fc.weight"].shape[1]),
                      np.result_type(x, weights["stem.conv"]))
    for features, image in zip(pooled, x):
        features[:] = _resnet50_pooled(image.transpose(1, 2, 0), pack,
                                       img_size, tally)
    if return_features:
        return pooled
    return linear(pooled, weights["fc.weight"], weights["fc.bias"],
                  tally=tally, pack=pack)


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------

@dataclasses.dataclass
class FunctionalModel:
    """A runnable model: config-resolved forward plus its weights.

    ``pack`` (attached by :func:`build_functional`) holds the model's
    pre-packed operands and arena; a directly-constructed model
    without one runs ViT's unpacked reference path and packs ResNet50
    per call.
    """

    name: str
    weights: dict[str, np.ndarray]
    _forward: object
    input_shape: tuple[int, int, int]
    num_classes: int
    pack: WeightPack | None = None

    def __call__(self, x: np.ndarray,
                 tally: MacTally | None = None) -> np.ndarray:
        return self._forward(self.weights, x, tally, False, self.pack)

    def features(self, x: np.ndarray) -> np.ndarray:
        """Penultimate embeddings ``(N, D)`` for fine-tuning."""
        return self._forward(self.weights, x, None, True, self.pack)

    def weight_elements(self) -> int:
        """Total stored weight elements (BN running stats excluded)."""
        return sum(
            a.size for k, a in self.weights.items()
            if not (k.endswith(".mean") or k.endswith(".var")))


def build_functional(name: str, seed: int = 0,
                     num_classes: int | None = None) -> FunctionalModel:
    """Instantiate a runnable model by zoo name.

    The model's :class:`~repro.models.workspace.WeightPack` is built
    once up front, so every forward runs on pre-packed operands.

    >>> m = build_functional("vit_tiny")
    >>> m(np.zeros((1, 3, 32, 32), np.float32)).shape
    (1, 39)
    """
    if name in VIT_CONFIGS:
        cfg = VIT_CONFIGS[name]
        if num_classes is not None:
            cfg = dataclasses.replace(cfg, num_classes=num_classes)
        weights = init_vit_weights(cfg, seed)

        def fwd(w, x, tally=None, return_features=False, pack=None,
                _cfg=cfg):
            return vit_forward(_cfg, w, x, tally, return_features, pack)

        return FunctionalModel(name, weights, fwd,
                               (cfg.in_channels, cfg.img_size, cfg.img_size),
                               cfg.num_classes, pack=WeightPack(weights))
    if name == "resnet50":
        classes = 1000 if num_classes is None else num_classes
        weights = init_resnet50_weights(num_classes=classes, seed=seed)

        def fwd(w, x, tally=None, return_features=False, pack=None):
            return resnet50_forward(w, x, tally=tally,
                                    return_features=return_features,
                                    pack=pack)

        return FunctionalModel(name, weights, fwd, (3, 224, 224), classes,
                               pack=WeightPack(weights))
    raise KeyError(f"unknown model {name!r}")
