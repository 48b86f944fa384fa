"""Post-training quantization for the functional execution path.

Section 3.1: "Lower-precision formats like INT8 or FP16 offer faster
inference but may reduce accuracy."  The performance side of that
trade-off lives in the engine/roofline models; this module supplies the
*accuracy* side: symmetric per-tensor fake quantization of weights (and
optionally activations), so the INT8 ablation can measure how far the
quantized logits drift from FP32 on real forward passes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.models.functional import FunctionalModel, build_functional
from repro.models.workspace import WeightPack


@dataclasses.dataclass(frozen=True)
class QuantizationReport:
    """Agreement between a quantized model and its FP32 reference."""

    model: str
    bits: int
    top1_agreement: float       # fraction of images with the same argmax
    mean_abs_logit_error: float
    weight_sqnr_db: float       # signal-to-quantization-noise, weights


def quantize_tensor(x: np.ndarray, bits: int = 8,
                    ) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor quantization: returns (int values, scale).

    ``x ≈ q * scale`` with ``q`` in ``[-(2^(b-1)-1), 2^(b-1)-1]``.
    """
    if not 2 <= bits <= 16:
        raise ValueError("bits must be in [2, 16]")
    qmax = 2 ** (bits - 1) - 1
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return np.zeros_like(x, dtype=np.int32), 1.0
    scale = peak / qmax
    q = np.clip(np.rint(x / scale), -qmax, qmax).astype(np.int32)
    return q, scale


def fake_quantize(x: np.ndarray, bits: int = 8) -> np.ndarray:
    """Quantize-dequantize round trip (float output, quantized grid)."""
    q, scale = quantize_tensor(x, bits)
    return (q * scale).astype(np.float32)


def quantize_weights(weights: dict[str, np.ndarray],
                     bits: int = 8) -> dict[str, np.ndarray]:
    """Fake-quantize every weight tensor; BN statistics and biases stay
    in float (the TensorRT INT8 convention)."""
    out = {}
    for name, tensor in weights.items():
        keep_float = (name.endswith(".bias") or name.endswith(".mean")
                      or name.endswith(".var") or name.endswith(".beta")
                      or name.endswith(".gamma"))
        out[name] = tensor if keep_float else fake_quantize(tensor, bits)
    return out


def sqnr_db(reference: np.ndarray, quantized: np.ndarray) -> float:
    """Signal-to-quantization-noise ratio in dB."""
    noise = float(np.mean((reference - quantized) ** 2))
    signal = float(np.mean(reference ** 2))
    if noise == 0.0:
        return float("inf")
    return 10.0 * np.log10(signal / noise)


def quantized_model(name: str, bits: int = 8,
                    seed: int = 0) -> FunctionalModel:
    """A functional model whose weights sit on the INT-``bits`` grid."""
    model = build_functional(name, seed=seed)
    model.weights.update(quantize_weights(model.weights, bits))
    # Repack (same arena): the old pack would keep every replaced
    # float weight alive, and the quantized ones would run unpacked.
    model.pack = WeightPack(model.weights, model.pack.arena)
    return model


def evaluate_quantization(name: str, bits: int = 8, batch: int = 8,
                          seed: int = 0) -> QuantizationReport:
    """Compare quantized vs FP32 logits on a synthetic batch.

    Synthetic inputs are drawn from the normalized-image distribution
    (zero-mean, unit-ish variance) so activation magnitudes are realistic.
    """
    reference = build_functional(name, seed=seed)
    quantized = quantized_model(name, bits=bits, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((batch, *reference.input_shape)
                            ).astype(np.float32)
    ref_logits = reference(x)
    q_logits = quantized(x)
    agreement = float(np.mean(
        ref_logits.argmax(axis=1) == q_logits.argmax(axis=1)))
    error = float(np.mean(np.abs(ref_logits - q_logits)))

    # Weight SQNR aggregated over the quantized tensors.
    sqnrs = []
    for key, tensor in reference.weights.items():
        q_tensor = quantized.weights[key]
        if q_tensor is not tensor and tensor.size > 1:
            value = sqnr_db(tensor, q_tensor)
            if np.isfinite(value):
                sqnrs.append(value)
    return QuantizationReport(
        model=name,
        bits=bits,
        top1_agreement=agreement,
        mean_abs_logit_error=error,
        weight_sqnr_db=float(np.mean(sqnrs)) if sqnrs else float("inf"),
    )
