"""Reusable scratch buffers and pre-packed GEMM operands.

The functional models in :mod:`repro.models.functional` are bound by
data movement, not FLOPs, at characterization batch sizes: layout
shuffles, im2col copies and elementwise passes around each GEMM cost
more than the GEMM.  This module factors that work out of the forward:

* :class:`WorkspaceArena` — one growable scratch buffer per role
  (``"padded"``, ``"patches"``, ``"split"``, ``"scores"``).  A forward
  pass asks for a workspace by role and shape and gets a view of the
  role's buffer, so the arena holds the largest request of each role,
  not one buffer per layer shape; steady-state repeated inference (the
  serving replay pattern) reuses the same buffers with zero new
  allocations.
* :class:`WeightPack` — per-model GEMM-ready operands built once at
  model build time: linear weights as the contiguous ``W.T`` (no copy
  when the weight is already the transpose of a contiguous array, as
  :func:`~repro.models.functional.build_functional`'s weights are);
  every conv ``X.conv`` with a batch norm ``X.bn.*`` beside it (all of
  ResNet-50's) as the channels-last ``(k·k·C, out_c)`` matrix plus the
  inference-mode BN scale and shift its GEMM output takes (no copy
  when the kernel is already the transpose view of a contiguous
  channels-last array, as ResNet-50's are); any other conv kernel
  (ViT's patch embedding) as the flattened NCHW ``(C·k², out_c)``
  im2col operand.  Linear and im2col operands are looked up by the
  original weight array, so the op-level API (``linear(x, weight,
  ...)``) is unchanged — ops that receive a pack swap in the packed
  operand, ops that don't (or whose weight is not the packed one) fall
  back to the unpacked math.

The packed operands hold the same values as the on-the-fly transposes
they replace, and arena buffers are fully overwritten before use.
"""

from __future__ import annotations

import math

import numpy as np


class WorkspaceArena:
    """Reusable scratch memory: one flat buffer per ``(slot, dtype)``.

    ``take`` hands out a view of the slot's buffer that the caller must
    fully overwrite.  The buffer grows to the largest request the slot
    has seen and is never shrunk, so the arena's size follows the
    largest single workspace of each role rather than the sum over
    layer shapes.  Every ``take`` on a slot returns the same memory, so
    a caller must finish consuming a buffer before taking the same slot
    again; distinct slots never alias.  The functional ops satisfy this
    by construction: each workspace is reduced into a fresh array
    before the next layer runs.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def __len__(self) -> int:
        """Slots currently pooled."""
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Bytes held across all slots."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def take(self, shape: tuple[int, ...], dtype, slot: str) -> np.ndarray:
        """An uninitialized ``shape``/``dtype`` view of ``slot``'s buffer."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        key = (slot, dtype)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


#: Batch-norm epsilon of the packed convs (the ``batchnorm2d`` default).
BN_EPS = 1e-5


def pack_conv_bn(conv: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 mean: np.ndarray, var: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A conv's channels-last operand and its inference-mode batch norm.

    ``conv`` is ``(out_c, C, k, k)``.  Returns ``(operand, scale,
    shift)``: ``operand`` is the contiguous ``(k·k·C, out_c)`` matrix
    whose rows follow an NHWC patch's ``(kh, kw, C)`` order, and the
    GEMM output's channels take ``y·scale + shift`` with ``scale =
    γ/√(var+ε)`` and ``shift = β − mean·scale``.  ``operand`` is
    ``conv``'s own memory when ``conv`` is the transpose view of a
    contiguous channels-last ``(k, k, C, out_c)`` array, and one
    contiguous copy otherwise.
    """
    scale = gamma / np.sqrt(var + BN_EPS)
    shift = beta - mean * scale
    operand = np.ascontiguousarray(conv.transpose(2, 3, 1, 0))
    return operand.reshape(-1, conv.shape[0]), scale, shift


class WeightPack:
    """GEMM-ready operands for one model's weight dict, built once.

    Packs every 2D ``*.weight`` as a contiguous transpose (the ``x @
    W.T`` right operand), every conv ``X.conv`` that has a batch norm
    ``X.bn.*`` as its channels-last operand with the BN's scale and
    shift (:func:`pack_conv_bn`), and every other 4D kernel as the
    contiguous ``(in_c·k², out_c)`` matrix the NCHW im2col GEMM
    multiplies by.  A linear weight stored as the ``.T`` view of a
    contiguous ``(in, out)`` array, or a conv kernel stored as the
    transpose view of a contiguous ``(k, k, C, out)`` array (the layouts
    the functional models' initializers use), is packed without a copy:
    its operand is that array.  Linear and im2col operands are keyed by
    the weight's :func:`id` and stored beside the weight itself, which
    keeps the id from being reused; a lookup returns the operand only
    for that same array object, so an entry of the dict replaced since
    packing (e.g. by quantized weights) runs the unpacked math instead.
    Conv-BN operands resolve by the conv's name prefix and remember
    their five source arrays: if one has since been replaced, the conv
    is packed again from the current arrays.
    """

    __slots__ = ("weights", "arena", "_linear_t", "_conv_mat", "_conv_bn")

    def __init__(self, weights: dict[str, np.ndarray],
                 arena: WorkspaceArena | None = None):
        self.weights = weights
        self.arena = arena if arena is not None else WorkspaceArena()
        self._linear_t: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._conv_mat: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._conv_bn: dict[str, tuple] = {}
        for name, w in weights.items():
            if not name.endswith((".weight", ".conv")):
                continue
            if w.ndim == 2:
                self._linear_t[id(w)] = (w, np.ascontiguousarray(w.T))
            elif name.endswith(".conv") and f"{name[:-5]}.bn.gamma" in weights:
                self.conv_bn_operand(name[:-5])
            elif w.ndim == 4:
                out_c = w.shape[0]
                self._conv_mat[id(w)] = (w, np.ascontiguousarray(
                    w.reshape(out_c, -1).T))

    @staticmethod
    def _lookup(table: dict[int, tuple[np.ndarray, np.ndarray]],
                weight: np.ndarray) -> np.ndarray | None:
        entry = table.get(id(weight))
        return entry[1] if entry is not None and entry[0] is weight else None

    def linear_operand(self, weight: np.ndarray) -> np.ndarray | None:
        """The pre-transposed operand for ``weight``, if packed."""
        return self._lookup(self._linear_t, weight)

    def conv_operand(self, weight: np.ndarray) -> np.ndarray | None:
        """The flattened NCHW im2col operand for ``weight``, if packed."""
        return self._lookup(self._conv_mat, weight)

    def conv_bn_operand(self, prefix: str,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(operand, scale, shift)`` of conv ``prefix.conv``."""
        w = self.weights
        sources = (w[f"{prefix}.conv"], w[f"{prefix}.bn.gamma"],
                   w[f"{prefix}.bn.beta"], w[f"{prefix}.bn.mean"],
                   w[f"{prefix}.bn.var"])
        entry = self._conv_bn.get(prefix)
        if entry is None or any(
                a is not b for a, b in zip(entry[0], sources)):
            entry = self._conv_bn[prefix] = (sources,
                                             *pack_conv_bn(*sources))
        return entry[1:]
