"""Property-based tests (hypothesis) on core data structures & invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.gemm import gemm_flops
from repro.hardware.memory import MemoryPool, OutOfMemoryError
from repro.models.layers import AttentionMatmul, Conv2d, Linear
from repro.preprocessing.ops import (
    center_crop,
    normalize,
    resize_bilinear,
    solve_homography,
    warp_perspective,
)
from repro.serving.batcher import BatcherConfig, DynamicBatcher
from repro.serving.events import Simulator
from repro.serving.request import Request


# ----------------------------------------------------------------------
# Layer accounting: non-negative, monotone in structural parameters.
# ----------------------------------------------------------------------
@given(
    in_ch=st.integers(1, 16), out_ch=st.integers(1, 16),
    hw=st.integers(4, 32), k=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_conv_accounting_invariants(in_ch, out_ch, hw, k, stride):
    conv = Conv2d("c", in_channels=in_ch, out_channels=out_ch,
                  in_hw=(hw, hw), kernel_size=k, stride=stride,
                  padding=k // 2)
    assert conv.params() > 0
    assert conv.macs() > 0
    # MACs = params(w/o bias) x output positions.
    oh, ow = conv.out_hw
    assert conv.macs() == conv.params() * oh * ow
    assert conv.activation_elements() == out_ch * oh * ow


@given(tokens=st.integers(1, 128), din=st.integers(1, 64),
       dout=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_linear_macs_bilinear_in_dims(tokens, din, dout):
    layer = Linear("l", in_features=din, out_features=dout, tokens=tokens)
    assert layer.macs() == tokens * din * dout
    doubled = Linear("l", in_features=din, out_features=dout,
                     tokens=2 * tokens)
    assert doubled.macs() == 2 * layer.macs()


@given(tokens=st.integers(1, 64), heads=st.sampled_from([1, 2, 4]),
       head_dim=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_attention_quadratic_scaling(tokens, heads, head_dim):
    dim = heads * head_dim
    single = AttentionMatmul("a", tokens=tokens, dim=dim, heads=heads)
    double = AttentionMatmul("a", tokens=2 * tokens, dim=dim, heads=heads)
    assert double.macs() == 4 * single.macs()


# ----------------------------------------------------------------------
# Preprocessing ops.
# ----------------------------------------------------------------------
@given(
    h=st.integers(2, 40), w=st.integers(2, 40),
    oh=st.integers(1, 40), ow=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
@settings(max_examples=50, deadline=None)
def test_resize_preserves_value_range(h, w, oh, ow, seed):
    rng = np.random.default_rng(seed)
    img = rng.random((h, w, 3)).astype(np.float32)
    out = resize_bilinear(img, oh, ow)
    assert out.shape == (oh, ow, 3)
    # Bilinear interpolation is a convex combination: range preserved.
    assert out.min() >= img.min() - 1e-5
    assert out.max() <= img.max() + 1e-5


@given(h=st.integers(1, 30), w=st.integers(1, 30),
       ch=st.integers(1, 30), cw=st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_center_crop_shape_contract(h, w, ch, cw):
    img = np.zeros((h, w, 3), np.float32)
    if ch > h or cw > w:
        with pytest.raises(ValueError):
            center_crop(img, ch, cw)
    else:
        assert center_crop(img, ch, cw).shape == (ch, cw, 3)


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_normalize_is_invertible(seed):
    rng = np.random.default_rng(seed)
    img = (rng.random((6, 6, 3)) * 255).astype(np.uint8)
    mean = rng.random(3).astype(np.float32)
    std = (rng.random(3) + 0.5).astype(np.float32)
    out = normalize(img, mean, std)
    recovered = (out * std + mean) * 255.0
    np.testing.assert_allclose(recovered, img.astype(np.float32),
                               atol=1e-3)


@given(
    shift_x=st.floats(-20, 20), shift_y=st.floats(-20, 20),
    scale=st.floats(0.5, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_homography_solver_consistent_with_affine(shift_x, shift_y, scale):
    src = np.array([[0, 0], [50, 0], [50, 50], [0, 50]], float)
    dst = src * scale + [shift_x, shift_y]
    h = solve_homography(src, dst)
    probe = np.array([13.0, 29.0])
    mapped = h @ np.array([*probe, 1.0])
    np.testing.assert_allclose(mapped[:2] / mapped[2],
                               probe * scale + [shift_x, shift_y],
                               atol=1e-6)


@given(seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_warp_identity_property(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((10, 12, 3)).astype(np.float32)
    out = warp_perspective(img, np.eye(3), 10, 12)
    np.testing.assert_allclose(out, img, atol=1e-4)


# ----------------------------------------------------------------------
# Memory pool: usage accounting is conserved under any alloc/free trace.
# ----------------------------------------------------------------------
@given(ops=st.lists(st.integers(-5, 100), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_memory_pool_conservation(ops):
    pool = MemoryPool(500)
    live = []
    expected_used = 0.0
    for op in ops:
        if op < 0 and live:  # free the oldest live allocation
            alloc = live.pop(0)
            pool.free(alloc)
            expected_used -= alloc.bytes
        elif op >= 0:
            try:
                alloc = pool.allocate(op)
            except OutOfMemoryError:
                assert expected_used + op > 500
                continue
            live.append(alloc)
            expected_used += op
        assert pool.used_bytes == pytest.approx(expected_used)
        assert 0 <= pool.used_bytes <= pool.capacity_bytes


# ----------------------------------------------------------------------
# Dynamic batcher: no request lost, no request duplicated, FIFO order.
# ----------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=40),
    max_batch=st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_batcher_conserves_requests(sizes, max_batch):
    batcher = DynamicBatcher(BatcherConfig(max_batch_size=max_batch,
                                           max_queue_delay=0.0))
    requests = [Request("m", num_images=n) for n in sizes]
    for r in requests:
        batcher.enqueue(r, now=0.0)
    drained = []
    while len(batcher):
        batch = batcher.form_batch()
        assert batch, "form_batch returned an empty batch"
        images = sum(r.num_images for r in batch)
        assert images <= max(max_batch, max(sizes))
        drained.extend(batch)
    assert [r.request_id for r in drained] == \
        [r.request_id for r in requests]


# ----------------------------------------------------------------------
# Simulator: events always fire in nondecreasing time order.
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_simulator_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# GEMM flops positivity and symmetry.
# ----------------------------------------------------------------------
@given(m=st.integers(1, 512), n=st.integers(1, 512), k=st.integers(1, 512))
@settings(max_examples=60, deadline=None)
def test_gemm_flops_symmetry(m, n, k):
    assert gemm_flops(m, n, k) == gemm_flops(n, m, k) == gemm_flops(k, n, m)
    assert gemm_flops(m, n, k) > 0


# ----------------------------------------------------------------------
# Engine laws: throughput monotone, latency superlinear floor.
# ----------------------------------------------------------------------
@given(b1=st.integers(1, 512), b2=st.integers(1, 512))
@settings(max_examples=60, deadline=None)
def test_engine_monotonicity(b1, b2, vit_small):
    from repro.engine.latency import LatencyModel
    from repro.hardware.platform import A100

    model = LatencyModel(vit_small, A100)
    lo, hi = sorted((b1, b2))
    assert model.throughput(lo) <= model.throughput(hi) + 1e-9
    assert model.latency(lo) <= model.latency(hi) + 1e-12
    assert model.latency(hi) >= model.theoretical_latency(hi)
