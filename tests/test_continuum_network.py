"""Tests for repro.continuum.network."""

import dataclasses
import math

import numpy as np
import pytest

from repro.continuum.network import (
    LINKS,
    NetworkLink,
    get_link,
    register_link,
)
from repro.serving.events import Simulator
from repro.serving.tracectx import TraceContext


class TestNetworkLink:
    def test_transfer_time_components(self):
        link = NetworkLink("t", bandwidth_bps=8e6, round_trip_seconds=0.1,
                           overhead_factor=1.0)
        # 1 MB at 8 Mbps = 1 s serialization + 50 ms half-RTT.
        assert link.transfer_seconds(1e6) == pytest.approx(1.05)

    def test_overhead_factor_inflates_payload(self):
        base = NetworkLink("a", 8e6, 0.0, overhead_factor=1.0)
        lossy = NetworkLink("b", 8e6, 0.0, overhead_factor=1.5)
        assert lossy.transfer_seconds(1e6) == pytest.approx(
            1.5 * base.transfer_seconds(1e6))

    def test_request_response_includes_both_directions(self):
        link = get_link("farm_wifi")
        rr = link.request_response_seconds(1e6)
        assert rr > link.transfer_seconds(1e6)

    def test_sustainable_rate(self):
        link = NetworkLink("t", bandwidth_bps=80e6, round_trip_seconds=0.0,
                           overhead_factor=1.0)
        # 100 KB images at 80 Mbps -> 100 images/s.
        assert link.sustainable_images_per_second(1e5) == pytest.approx(
            100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkLink("x", bandwidth_bps=0, round_trip_seconds=0.0)
        with pytest.raises(ValueError):
            NetworkLink("x", bandwidth_bps=1, round_trip_seconds=-1)
        with pytest.raises(ValueError):
            NetworkLink("x", bandwidth_bps=1, round_trip_seconds=0,
                        overhead_factor=0.9)
        with pytest.raises(ValueError):
            get_link("farm_wifi").transfer_seconds(-1)
        with pytest.raises(ValueError):
            get_link("farm_wifi").sustainable_images_per_second(0)

    @pytest.mark.parametrize("field, value, match", [
        ("bandwidth_bps", math.nan, "bandwidth"),
        ("round_trip_seconds", math.nan, "RTT"),
        ("overhead_factor", math.nan, "overhead"),
        ("jitter_seconds", math.nan, "jitter"),
        ("jitter_seconds", math.inf, "jitter"),
        ("jitter_seconds", -0.001, "jitter"),
        ("loss_probability", math.nan, "loss"),
        ("mtu_bytes", math.nan, "MTU"),
    ])
    def test_validation_rejects_nan(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(get_link("farm_wifi"), **{field: value})


class TestPresets:
    def test_six_presets(self):
        assert set(LINKS) == {"field_lte", "field_lte_lossy",
                              "farm_wifi", "farm_wifi_lossy",
                              "station_ethernet", "local"}

    def test_lossy_variants_share_the_clean_parameters(self):
        for clean, lossy in (("field_lte", "field_lte_lossy"),
                             ("farm_wifi", "farm_wifi_lossy")):
            a, b = get_link(clean), get_link(lossy)
            assert a.bandwidth_bps == b.bandwidth_bps
            assert a.round_trip_seconds == b.round_trip_seconds
            assert b.loss_probability > 0 and b.jitter_seconds > 0
            # Loss makes the same payload strictly more expensive.
            assert b.transfer_seconds(1e6) > a.transfer_seconds(1e6)

    def test_bandwidth_ordering(self):
        assert (get_link("field_lte").bandwidth_bps
                < get_link("farm_wifi").bandwidth_bps
                < get_link("station_ethernet").bandwidth_bps
                < get_link("local").bandwidth_bps)

    def test_lte_cannot_sustain_60fps_4k_raw(self):
        # The online-scenario transmission challenge: raw 4K frames
        # (24.9 MB) cannot stream at camera rate over field LTE.
        lte = get_link("field_lte")
        frame_bytes = 3840 * 2160 * 3
        assert lte.sustainable_images_per_second(frame_bytes) < 1.0

    def test_unknown_link_raises(self):
        with pytest.raises(KeyError, match="available"):
            get_link("5g")


class TestRegisterLink:
    def test_mixed_case_name_stays_reachable(self):
        # Regression: LINKS used to store link.name verbatim while
        # get_link lowercased lookups, so any non-lowercase registration
        # became unreachable.
        link = NetworkLink("Field_5G", bandwidth_bps=100e6,
                           round_trip_seconds=0.020)
        register_link(link)
        try:
            assert get_link("field_5g") is link
            assert get_link("Field_5G") is link
            assert "Field_5G" not in LINKS
        finally:
            del LINKS["field_5g"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_link(NetworkLink("FARM_WIFI", bandwidth_bps=1e6,
                                      round_trip_seconds=0.1))

    def test_replace_opt_in(self):
        original = get_link("local")
        try:
            faster = NetworkLink("local", bandwidth_bps=80e9,
                                 round_trip_seconds=0.0,
                                 overhead_factor=1.0)
            assert register_link(faster, replace=True) is faster
            assert get_link("local") is faster
        finally:
            register_link(original, replace=True)


class TestLossAndJitter:
    def test_retransmit_expansion(self):
        link = NetworkLink("t", 8e6, 0.0, loss_probability=0.2)
        assert link.retransmit_expansion == pytest.approx(1.25)
        assert get_link("field_lte").retransmit_expansion == 1.0

    def test_loss_expands_expected_serialization(self):
        clean = NetworkLink("a", 8e6, 0.0, overhead_factor=1.0)
        lossy = NetworkLink("b", 8e6, 0.0, overhead_factor=1.0,
                            loss_probability=0.5)
        assert lossy.serialization_seconds(1e6) == pytest.approx(
            2.0 * clean.serialization_seconds(1e6))

    def test_loss_lowers_sustainable_rate(self):
        clean = NetworkLink("a", 80e6, 0.0, overhead_factor=1.0)
        lossy = NetworkLink("b", 80e6, 0.0, overhead_factor=1.0,
                            loss_probability=0.5)
        assert lossy.sustainable_images_per_second(1e5) == \
            pytest.approx(0.5 * clean.sustainable_images_per_second(1e5))

    def test_packet_count(self):
        link = NetworkLink("t", 8e6, 0.0, overhead_factor=1.0,
                           mtu_bytes=1500.0)
        assert link.packet_count(0.0) == 1
        assert link.packet_count(1500.0) == 1
        assert link.packet_count(1501.0) == 2

    def test_lossless_links_consume_no_randomness(self):
        link = NetworkLink("t", 8e6, 0.0)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state["state"].copy()
        assert link.sample_retransmits(1e6, rng) == 0
        assert link.sample_jitter(rng) == 0.0
        assert rng.bit_generator.state["state"] == before

    def test_same_seed_same_sample_stream(self):
        link = get_link("field_lte_lossy")
        streams = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            streams.append([link.sample_transfer(256e3, rng)
                            for _ in range(50)])
        assert streams[0] == streams[1]

    def test_sampled_loss_matches_configured_rate(self):
        # Across seeds the empirical per-packet retransmit rate should
        # track loss/(1-loss) (expected extra transmissions per packet).
        link = NetworkLink("t", 8e6, 0.0, overhead_factor=1.0,
                           loss_probability=0.02)
        packets = link.packet_count(1e6)
        rates = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            total = sum(link.sample_retransmits(1e6, rng)
                        for _ in range(40))
            rates.append(total / (40 * packets))
        expected = 0.02 / 0.98
        assert np.mean(rates) == pytest.approx(expected, rel=0.15)

    def test_sampled_duration_centers_on_expected(self):
        link = get_link("field_lte_lossy")
        rng = np.random.default_rng(0)
        durations = [link.sample_transfer(256e3, rng)[0]
                     for _ in range(200)]
        assert np.mean(durations) == pytest.approx(
            link.transfer_seconds(256e3), rel=0.05)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            NetworkLink("x", 1e6, 0.0, loss_probability=1.0)
        with pytest.raises(ValueError):
            NetworkLink("x", 1e6, 0.0, loss_probability=-0.1)
        with pytest.raises(ValueError):
            NetworkLink("x", 1e6, 0.0, jitter_seconds=-0.1)
        with pytest.raises(ValueError):
            NetworkLink("x", 1e6, 0.0, mtu_bytes=0)


class TestTransferHandle:
    def _schedule(self, rng=None):
        sim = Simulator()
        link = get_link("field_lte")
        trace = TraceContext(1)
        arrived = []
        handle = link.schedule_transfer(sim, 1e6, lambda: arrived.append(
            sim.now), trace=trace, direction="uplink", rng=rng)
        return sim, trace, arrived, handle

    def test_transfer_arrives_and_closes_span(self):
        sim, trace, arrived, handle = self._schedule()
        sim.run()
        assert arrived == [pytest.approx(
            get_link("field_lte").transfer_seconds(1e6))]
        assert handle.fired and not handle.cancelled
        span = trace.find("uplink")[0]
        assert span.end is not None
        assert "cancelled" not in span.args

    def test_cancelled_transfer_never_leaks_an_open_span(self):
        # Regression: cancelling the arrival event directly left the
        # uplink span open forever, so the trace export silently dropped
        # the leg.  The Transfer handle must close it on cancel.
        sim, trace, arrived, handle = self._schedule()
        sim.schedule(0.1, handle.cancel)
        sim.run()
        assert arrived == []
        assert handle.cancelled
        open_spans = [s for s in trace.children() if s.end is None]
        assert open_spans == []
        span = trace.find("uplink")[0]
        assert span.args["cancelled"] is True
        assert span.duration == pytest.approx(0.1)

    def test_cancel_after_arrival_is_a_noop(self):
        sim, trace, arrived, handle = self._schedule()
        sim.run()
        handle.cancel()
        assert handle.fired and not handle.cancelled
        assert "cancelled" not in trace.find("uplink")[0].args

    def test_sampled_schedule_records_retransmits(self):
        lossy = NetworkLink("t", 8e6, 0.0, overhead_factor=1.0,
                            loss_probability=0.3)
        sim = Simulator()
        trace = TraceContext(1)
        rng = np.random.default_rng(3)
        lossy.schedule_transfer(sim, 1e6, lambda: None, trace=trace,
                                rng=rng)
        sim.run()
        span = trace.find("uplink")[0]
        assert span.args["retransmits"] > 0
        # The sampled wire time stretches with the retransmit count.
        assert span.duration > lossy.serialization_seconds(1e6) / \
            lossy.retransmit_expansion
