"""Reusable scratch buffers and pre-packed GEMM operands.

The functional models in :mod:`repro.models.functional` are bound by
data movement, not FLOPs, at characterization batch sizes: layout
shuffles, im2col copies and elementwise passes around each GEMM cost
more than the GEMM.  This module factors that work out of the forward:

* :class:`WorkspaceArena` — a ``(shape, dtype)``-keyed pool of scratch
  arrays.  A forward pass asks for its padding/patch/attention
  workspaces by shape; steady-state repeated inference (the serving
  replay pattern) reuses the same buffers with zero new allocations.
* :class:`WeightPack` — per-model GEMM-ready operands built once at
  model build time: linear weights stored pre-transposed and
  contiguous (``W.T``); every conv ``X.conv`` with a batch norm
  ``X.bn.*`` beside it (all of ResNet-50's) stored as the channels-last
  ``(k·k·C, out_c)`` matrix with the inference-mode BN scale folded
  into its columns, plus the BN shift; any other conv kernel (ViT's
  patch embedding) as the flattened NCHW ``(C·k², out_c)`` im2col
  operand.  Linear and im2col operands are looked up by the identity
  of the original weight array, so the op-level API (``linear(x,
  weight, ...)``) is unchanged — ops that receive a pack swap in the
  packed operand, ops that don't fall back to the unpacked math.

The packed operands hold the same values as the on-the-fly transposes
they replace, and arena buffers are fully overwritten before use.
Folding BN into the conv weights is exact algebra, ``(x·W)·s + t ==
x·(W·s) + t``; only the float32 rounding of the products moves.
"""

from __future__ import annotations

import numpy as np


class WorkspaceArena:
    """A ``(shape, dtype)``-keyed pool of reusable scratch arrays.

    ``take`` hands out a buffer that the caller must fully overwrite;
    the buffer stays parked under its key, so the next ``take`` with
    the same shape returns the same memory.  Callers must therefore
    finish consuming a buffer before requesting the same shape again —
    the functional ops satisfy this by construction (each workspace is
    reduced into a fresh array before the next layer runs).
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        """Distinct buffers currently pooled."""
        return len(self._buffers)

    def take(self, shape: tuple[int, ...],
             dtype=np.float32) -> np.ndarray:
        """An uninitialized scratch array of the given shape/dtype."""
        key = (shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(shape, dtype)
        return buf


#: Batch-norm epsilon of the folded convs (the ``batchnorm2d`` default).
BN_EPS = 1e-5


def fold_conv_bn(conv: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 mean: np.ndarray, var: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Fold inference-mode batch norm into a conv's channels-last operand.

    ``conv`` is ``(out_c, C, k, k)``.  Returns ``(operand, shift)``:
    ``operand`` is the contiguous ``(k·k·C, out_c)`` matrix whose rows
    follow an NHWC patch's ``(kh, kw, C)`` order, pre-scaled per output
    channel by ``γ/√(var+ε)``; ``shift`` is ``β − mean·γ/√(var+ε)``.
    """
    scale = gamma / np.sqrt(var + BN_EPS)
    shift = beta - mean * scale
    operand = np.multiply(conv.transpose(2, 3, 1, 0), scale, order="C")
    return operand.reshape(-1, conv.shape[0]), shift


class WeightPack:
    """GEMM-ready operands for one model's weight dict, built once.

    Packs every 2D ``*.weight`` as a contiguous transpose (the ``x @
    W.T`` right operand), every conv ``X.conv`` that has a batch norm
    ``X.bn.*`` as its BN-folded channels-last operand and shift
    (:func:`fold_conv_bn`), and every other 4D kernel as the
    contiguous ``(in_c·k², out_c)`` matrix the NCHW im2col GEMM
    multiplies by.  Linear and im2col operands resolve by the original
    array's identity (:func:`id`), which stays valid because the pack
    keeps the source dict alive.  Folded operands resolve by the conv's
    name prefix and remember their five source arrays: if an entry of
    the dict has since been replaced (e.g. by quantized weights), the
    conv is folded again from the current arrays.
    """

    __slots__ = ("weights", "arena", "_linear_t", "_conv_mat", "_conv_bn")

    def __init__(self, weights: dict[str, np.ndarray],
                 arena: WorkspaceArena | None = None):
        self.weights = weights
        self.arena = arena if arena is not None else WorkspaceArena()
        self._linear_t: dict[int, np.ndarray] = {}
        self._conv_mat: dict[int, np.ndarray] = {}
        self._conv_bn: dict[str, tuple] = {}
        for name, w in weights.items():
            if not name.endswith((".weight", ".conv")):
                continue
            if w.ndim == 2:
                self._linear_t[id(w)] = np.ascontiguousarray(w.T)
            elif name.endswith(".conv") and f"{name[:-5]}.bn.gamma" in weights:
                self.conv_bn_operand(name[:-5])
            elif w.ndim == 4:
                out_c = w.shape[0]
                self._conv_mat[id(w)] = np.ascontiguousarray(
                    w.reshape(out_c, -1).T)

    def linear_operand(self, weight: np.ndarray) -> np.ndarray | None:
        """The pre-transposed operand for ``weight``, if packed."""
        return self._linear_t.get(id(weight))

    def conv_operand(self, weight: np.ndarray) -> np.ndarray | None:
        """The flattened NCHW im2col operand for ``weight``, if packed."""
        return self._conv_mat.get(id(weight))

    def conv_bn_operand(self, prefix: str,
                        ) -> tuple[np.ndarray, np.ndarray]:
        """The BN-folded ``(operand, shift)`` of conv ``prefix.conv``."""
        w = self.weights
        sources = (w[f"{prefix}.conv"], w[f"{prefix}.bn.gamma"],
                   w[f"{prefix}.bn.beta"], w[f"{prefix}.bn.mean"],
                   w[f"{prefix}.bn.var"])
        entry = self._conv_bn.get(prefix)
        if entry is None or any(
                a is not b for a, b in zip(entry[0], sources)):
            entry = self._conv_bn[prefix] = (sources,
                                             *fold_conv_bn(*sources))
        return entry[1], entry[2]
