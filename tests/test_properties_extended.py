"""Extended property-based tests over the newer subsystems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum.network import NetworkLink
from repro.continuum.offload import OffloadPolicy, Placement
from repro.continuum.stitching import TilePlacement, stitch_mosaic
from repro.hardware.platform import A100, JETSON
from repro.preprocessing.ops import solve_homography, warp_perspective
from repro.serving.batcher import BatcherConfig, DynamicBatcher
from repro.serving.request import Request
from repro.serving.traces import ArrivalTrace


# ----------------------------------------------------------------------
# Homography: composition of translations equals summed translation.
# ----------------------------------------------------------------------
@given(dx1=st.floats(-5, 5), dy1=st.floats(-5, 5),
       dx2=st.floats(-5, 5), dy2=st.floats(-5, 5))
@settings(max_examples=40, deadline=None)
def test_homography_translation_composition(dx1, dy1, dx2, dy2):
    base = np.array([[0, 0], [20, 0], [20, 20], [0, 20]], float)
    h1 = solve_homography(base, base + [dx1, dy1])
    h2 = solve_homography(base, base + [dx2, dy2])
    combined = solve_homography(base, base + [dx1 + dx2, dy1 + dy2])
    np.testing.assert_allclose(h2 @ h1, combined, atol=1e-8)


@given(seed=st.integers(0, 200), dx=st.integers(-3, 3),
       dy=st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_warp_translation_matches_roll(seed, dx, dy):
    rng = np.random.default_rng(seed)
    img = rng.random((12, 12, 1)).astype(np.float32)
    h = np.eye(3)
    h[0, 2], h[1, 2] = dx, dy
    out = warp_perspective(img, h, 12, 12)
    # Interior pixels match the integer shift exactly.
    ys = slice(max(0, dy) + 1, 12 + min(0, dy) - 1)
    xs = slice(max(0, dx) + 1, 12 + min(0, dx) - 1)
    shifted = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
    np.testing.assert_allclose(out[ys, xs], shifted[ys, xs], atol=1e-5)


# ----------------------------------------------------------------------
# Batcher priorities: drain order is always (priority desc, FIFO).
# ----------------------------------------------------------------------
@given(priorities=st.lists(st.integers(0, 3), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_priority_drain_order(priorities):
    batcher = DynamicBatcher(BatcherConfig(max_batch_size=1,
                                           max_queue_delay=0.0))
    requests = [Request("m", priority=p) for p in priorities]
    for request in requests:
        batcher.enqueue(request, now=0.0)
    drained = []
    while len(batcher):
        drained.extend(batcher.form_batch())
    expected = sorted(range(len(requests)),
                      key=lambda i: (-priorities[i], i))
    assert [r.request_id for r in drained] == \
        [requests[i].request_id for i in expected]


# ----------------------------------------------------------------------
# Stitching: covered pixels are reconstructed, uncovered stay zero.
# ----------------------------------------------------------------------
@given(
    placements=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=1, max_size=6),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_stitch_coverage_invariant(placements, seed):
    rng = np.random.default_rng(seed)
    tile = (rng.random((10, 10, 3)) * 255).astype(np.uint8)
    placed = [TilePlacement(tile, x, y) for x, y in placements]
    mosaic = stitch_mosaic(placed, 40, 40)
    covered = np.zeros((40, 40), bool)
    for x, y in placements:
        covered[y:y + 10, x:x + 10] = True
    # Uncovered pixels are exactly zero.
    assert mosaic[~covered].sum() == 0


# ----------------------------------------------------------------------
# Offload: the decision always picks the cheaper side, and flips
# monotonically with payload size.
# ----------------------------------------------------------------------
@given(payload_kb=st.floats(0.1, 50000))
@settings(max_examples=50, deadline=None)
def test_offload_decision_is_argmin(payload_kb, vit_small):
    link = NetworkLink("l", bandwidth_bps=80e6, round_trip_seconds=0.01)
    policy = OffloadPolicy(vit_small, JETSON, A100, link)
    decision = policy.decide(payload_kb * 1e3)
    if decision.placement is Placement.EDGE:
        assert decision.edge_latency_seconds <= \
            decision.cloud_latency_seconds
    else:
        assert decision.cloud_latency_seconds < \
            decision.edge_latency_seconds


@given(a_kb=st.floats(1, 1000), b_kb=st.floats(1, 1000))
@settings(max_examples=40, deadline=None)
def test_offload_monotone_in_payload(a_kb, b_kb, vit_base):
    link = NetworkLink("l", bandwidth_bps=80e6, round_trip_seconds=0.01)
    policy = OffloadPolicy(vit_base, JETSON, A100, link)
    small, large = sorted((a_kb, b_kb))
    # If the small payload already stays on the edge, so does the large.
    if policy.decide(small * 1e3).placement is Placement.EDGE:
        assert policy.decide(large * 1e3).placement is Placement.EDGE


# ----------------------------------------------------------------------
# Traces: histograms conserve mass for arbitrary traces.
# ----------------------------------------------------------------------
@given(times=st.lists(st.floats(0, 99.9), min_size=1, max_size=60),
       bins=st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_trace_histogram_conserves_mass(times, bins):
    trace = ArrivalTrace("t", tuple(sorted(times)), duration=100.0)
    hist = trace.rate_histogram(bins=bins)
    width = 100.0 / bins
    assert sum(r * width for r in hist) == pytest.approx(len(times))

