"""Tests for repro.continuum.uplink — fair sharing and buffering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum.network import LinkTelemetry, NetworkLink, Transfer
from repro.continuum.uplink import SharedUplink, StoreAndForward
from repro.serving.events import Simulator
from repro.serving.faults import LinkOutageModel
from repro.serving.observability import MetricsRegistry
from repro.serving.tracectx import TraceContext


def clean_link(bandwidth_bps=8e6, rtt=0.0):
    """A deterministic link: no overhead, jitter, or loss."""
    return NetworkLink("bottleneck", bandwidth_bps=bandwidth_bps,
                       round_trip_seconds=rtt, overhead_factor=1.0)


MB = 1e6  # 1 MB = 8 Mb = 1 s solo at 8 Mbps on clean_link()


class TestFairSharing:
    def test_solo_transfer_matches_the_bare_link(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        done = []
        uplink.schedule_transfer(sim, MB, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0)]

    def test_two_concurrent_transfers_halve_the_rate(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        done = []
        for _ in range(2):
            uplink.schedule_transfer(sim, MB,
                                     lambda: done.append(sim.now))
        sim.run()
        # Each flow gets 4 Mbps, so both 1 s transfers take 2 s.
        assert done == [pytest.approx(2.0)] * 2
        assert uplink.peak_concurrency == 2
        assert uplink.completed == 2

    def test_staggered_arrival_integrates_event_by_event(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        done = {}
        sim.schedule_at(0.0, lambda: uplink.schedule_transfer(
            sim, MB, lambda: done.setdefault("a", sim.now)))
        sim.schedule_at(0.5, lambda: uplink.schedule_transfer(
            sim, MB, lambda: done.setdefault("b", sim.now)))
        sim.run()
        # a: 0.5 s solo (4 Mb done) + 1 s shared (4 Mb) -> t=1.5;
        # b: 1 s shared (4 Mb) + 0.5 s solo (4 Mb) -> t=2.0.
        assert done["a"] == pytest.approx(1.5)
        assert done["b"] == pytest.approx(2.0)

    def test_contention_widens_the_traced_spans(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        traces = [TraceContext(i) for i in (1, 2)]
        for trace in traces:
            uplink.schedule_transfer(sim, MB, lambda: None, trace=trace)
        sim.run()
        solo = clean_link().transfer_seconds(MB)
        for trace in traces:
            span = trace.find("uplink")[0]
            assert span.end is not None
            assert span.duration == pytest.approx(2.0 * solo)
        # The second submission saw one flow already on the wire.
        depths = [t.find("uplink")[0].args["queue_depth"]
                  for t in traces]
        assert depths == [0, 1]

    def test_pricing_reflects_current_contention(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        idle = uplink.transfer_seconds(MB)
        assert idle == pytest.approx(clean_link().transfer_seconds(MB))
        uplink.schedule_transfer(sim, MB, lambda: None)
        assert uplink.transfer_seconds(MB) == pytest.approx(2.0 * idle)
        sim.run()
        assert uplink.transfer_seconds(MB) == pytest.approx(idle)

    def test_downlink_bypasses_the_bottleneck(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        done = []
        uplink.schedule_transfer(sim, MB, lambda: done.append(
            ("up", sim.now)))
        uplink.schedule_transfer(sim, MB, lambda: done.append(
            ("down", sim.now)), direction="downlink")
        sim.run()
        # The downlink leg rides the bare link (1 s) while the uplink
        # still had the wire to itself after it -> no mutual slowdown.
        assert dict(done) == {"up": pytest.approx(1.0),
                              "down": pytest.approx(1.0)}

    def test_same_seed_is_byte_identical(self):
        link = NetworkLink("lossy", bandwidth_bps=8e6,
                           round_trip_seconds=0.04, overhead_factor=1.0,
                           jitter_seconds=0.01, loss_probability=0.05)

        def run(seed):
            sim = Simulator()
            uplink = SharedUplink(link, sim, seed=seed)
            done = []
            for index in range(10):
                sim.schedule_at(index * 0.2,
                                lambda: uplink.schedule_transfer(
                                    sim, 200e3,
                                    lambda: done.append(sim.now)))
            sim.run()
            return done, uplink.total_retransmits

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_validation(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        with pytest.raises(ValueError):
            uplink.schedule_transfer(Simulator(), MB, lambda: None)
        with pytest.raises(ValueError):
            uplink.schedule_transfer(sim, -1.0, lambda: None)


class TestCancellation:
    def test_cancel_mid_serialization_speeds_up_the_rest(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        done = []
        trace = TraceContext(1)
        victim = uplink.schedule_transfer(sim, MB, lambda: done.append(
            "victim"), trace=trace)
        uplink.schedule_transfer(sim, MB,
                                 lambda: done.append(sim.now))
        sim.schedule_at(1.0, victim.cancel)
        sim.run()
        # Survivor: 1 s at half rate (4 Mb) + 0.5 s solo -> t=1.5.
        assert done == [pytest.approx(1.5)]
        assert victim.cancelled and not victim.fired
        span = trace.find("uplink")[0]
        assert span.end is not None
        assert span.args["cancelled"] is True
        assert [s for s in trace.children() if s.end is None] == []

    def test_cancel_during_propagation(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(rtt=1.0), sim)
        done = []
        handle = uplink.schedule_transfer(sim, MB,
                                          lambda: done.append(sim.now))
        # Serialization ends at t=1.0; delivery at 1.5.  Cancel between.
        sim.schedule_at(1.2, handle.cancel)
        sim.run()
        assert done == []
        assert handle.cancelled

    def test_cancel_after_delivery_is_a_noop(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        done = []
        handle = uplink.schedule_transfer(sim, MB,
                                          lambda: done.append(sim.now))
        sim.run()
        handle.cancel()
        assert handle.fired and not handle.cancelled
        assert len(done) == 1


class TestStoreAndForward:
    def test_outage_delays_instead_of_dropping(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        buffer = StoreAndForward(
            uplink, sim, outage=LinkOutageModel(windows=((1.0, 3.0),)))
        buffer.start(horizon=10.0)
        done = {}
        for name, at in (("before", 0.0), ("during", 1.5),
                         ("during2", 2.0)):
            sim.schedule_at(at, lambda n=name: buffer.schedule_transfer(
                sim, 100e3, lambda n=n: done.setdefault(n, sim.now)))
        sim.run()
        assert done["before"] == pytest.approx(0.1)
        # Parked until t=3.0, then both drain (fair-shared: 0.2 s).
        assert done["during"] == pytest.approx(3.2)
        assert done["during2"] == pytest.approx(3.2)
        assert buffer.outages == 1
        assert buffer.buffered_total == 2
        assert buffer.max_buffer_depth == 2
        assert buffer.dropped == 0

    def test_buffered_wait_is_traced(self):
        sim = Simulator()
        buffer = StoreAndForward(
            clean_link(), sim,
            outage=LinkOutageModel(windows=((0.0, 2.0),)))
        buffer.start(horizon=5.0)
        trace = TraceContext(1)
        done = []
        sim.schedule_at(0.5, lambda: buffer.schedule_transfer(
            sim, MB, lambda: done.append(sim.now), trace=trace))
        sim.run()
        wait = trace.find("store_and_forward")[0]
        assert wait.duration == pytest.approx(1.5)  # parked 0.5 -> 2
        leg = trace.find("uplink")[0]
        assert leg.start == pytest.approx(2.0)
        assert done == [pytest.approx(3.0)]

    def test_full_buffer_tail_drops(self):
        sim = Simulator()
        buffer = StoreAndForward(clean_link(), sim,
                                 capacity_bytes=150e3)
        buffer.fail()
        trace = TraceContext(1)
        kept = buffer.schedule_transfer(sim, 100e3, lambda: None)
        lost = buffer.schedule_transfer(sim, 100e3, lambda: None,
                                        trace=trace)
        assert kept is not None
        assert lost is None
        assert buffer.dropped == 1
        assert trace.find("store_and_forward_drop")
        assert [s for s in trace.children() if s.end is None] == []

    def test_drain_into_a_full_inner_buffer_ends_as_dropped(self):
        sim = Simulator()
        inner = StoreAndForward(clean_link(), sim, capacity_bytes=150e3)
        outer = StoreAndForward(inner, sim)
        inner.fail()
        outer.fail()
        traces = [TraceContext(i) for i in range(2)]
        done = []
        handles = [outer.schedule_transfer(sim, 100e3,
                                           lambda i=i: done.append(i),
                                           trace=traces[i])
                   for i in range(2)]
        outer.restore()
        kept, lost = handles
        assert lost.cancelled and not lost.fired
        assert (outer.dropped, inner.dropped) == (1, 1)
        lost.cancel()  # no-op on a dropped handle
        inner.restore()
        sim.run()
        assert kept.fired and done == [0]
        for trace in traces:
            assert [s for s in trace.children() if s.end is None] == []
        # The dropped leg: one closed outer wait, then the inner drop.
        assert len(traces[1].find("store_and_forward")) == 1
        assert traces[1].find("store_and_forward_drop")

    def test_cancel_parked_entry_frees_capacity(self):
        sim = Simulator()
        buffer = StoreAndForward(clean_link(), sim,
                                 capacity_bytes=150e3)
        buffer.fail()
        done = []
        parked = buffer.schedule_transfer(sim, 100e3,
                                          lambda: done.append("a"))
        parked.cancel()
        assert parked.cancelled
        assert buffer.buffer_depth == 0
        # The freed capacity admits the next transfer.
        assert buffer.schedule_transfer(sim, 100e3,
                                        lambda: done.append("b")) \
            is not None
        buffer.restore()
        sim.run()
        assert done == ["b"]

    def test_explicit_fail_restore_cycle(self):
        sim = Simulator()
        buffer = StoreAndForward(clean_link(), sim)
        buffer.fail()
        buffer.fail()  # idempotent
        assert buffer.outages == 1
        done = []
        buffer.schedule_transfer(sim, 100e3, lambda: done.append(1))
        buffer.restore()
        buffer.restore()  # idempotent
        sim.run()
        assert done == [1]

    def test_pricing_delegates_to_the_transport(self):
        sim = Simulator()
        uplink = SharedUplink(clean_link(), sim)
        buffer = StoreAndForward(uplink, sim)
        assert buffer.transfer_seconds(MB) == \
            uplink.transfer_seconds(MB)
        assert buffer.sustainable_images_per_second(MB) == \
            uplink.sustainable_images_per_second(MB)
        assert buffer.link.name == "bottleneck"
        with pytest.raises(ValueError):
            StoreAndForward(uplink, sim, capacity_bytes=0)


def _lossy_link():
    return NetworkLink("lossy", bandwidth_bps=8e6,
                       round_trip_seconds=0.04, overhead_factor=1.05,
                       jitter_seconds=0.01, loss_probability=0.05)


# Each stack builder returns the transport's ``schedule_transfer`` and
# a count of the transfers the stack tail-dropped.

def _bare_stack(sim, registry):
    link = _lossy_link()
    rng = np.random.default_rng(0)
    telemetry = LinkTelemetry(registry, link.name)

    def send(sim, payload, on_complete, trace):
        return link.schedule_transfer(sim, payload, on_complete,
                                      trace=trace, rng=rng,
                                      telemetry=telemetry)
    return send, lambda: 0


def _uplink_stack(sim, registry):
    uplink = SharedUplink(_lossy_link(), sim, registry=registry)
    return uplink.schedule_transfer, lambda: 0


def _buffered_stack(sim, registry):
    buffer = StoreAndForward(
        SharedUplink(_lossy_link(), sim, registry=registry), sim,
        outage=LinkOutageModel(windows=((0.3, 0.9),)), registry=registry)
    buffer.start(horizon=10.0)
    return buffer.schedule_transfer, lambda: buffer.dropped


def _nested_buffer_stack(sim, registry):
    # The outer buffer drains at 0.9 s into an inner one that is still
    # down and holds 150 kB, so the inner one tail-drops both direct and
    # forwarded transfers.
    inner = StoreAndForward(
        SharedUplink(_lossy_link(), sim, registry=registry), sim,
        outage=LinkOutageModel(windows=((0.2, 1.2),)),
        capacity_bytes=150_000, registry=registry)
    outer = StoreAndForward(
        inner, sim, outage=LinkOutageModel(windows=((0.3, 0.9),)),
        registry=registry)
    inner.start(horizon=10.0)
    outer.start(horizon=10.0)
    return outer.schedule_transfer, lambda: inner.dropped


_transfers = st.lists(
    st.tuples(st.floats(0.0, 1.5),                    # submit time
              st.integers(0, 150_000),                # payload bytes
              st.none() | st.floats(0.0, 0.6)),       # cancel delay
    min_size=1, max_size=12)


@pytest.mark.parametrize("build", [_bare_stack, _uplink_stack,
                                   _buffered_stack, _nested_buffer_stack])
@settings(max_examples=25, deadline=None)
@given(transfers=_transfers)
def test_transport_conserves_transfers_spans_and_bytes(build, transfers):
    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    send, dropped = build(sim, registry)
    handles, traces, completed, aborted = {}, [], [], set()

    def cancel(index):
        if handles[index] is None:
            return
        if handles[index].state == "pending":
            aborted.add(index)
        handles[index].cancel()

    def submit(index, payload, cancel_delay):
        trace = TraceContext(index)
        traces.append(trace)
        handles[index] = send(sim, payload,
                              lambda: completed.append(index), trace=trace)
        if cancel_delay is not None:
            sim.schedule(cancel_delay, lambda: cancel(index))

    for index, (at, payload, cancel_delay) in enumerate(transfers):
        sim.schedule_at(at, lambda i=index, p=payload, c=cancel_delay:
                        submit(i, p, c))
    sim.run()

    # Every span closed (a second close would have raised mid-run).
    assert [s for t in traces for s in t.children() if s.end is None] \
        == []
    # Every transfer ended: delivered, cancelled, or tail-dropped (a
    # ``None`` handle, or a parked one that ends cancelled on the drain).
    assert all(h is None or isinstance(h, Transfer) and
               h.fired != h.cancelled for h in handles.values())
    lost = {i for i, h in handles.items()
            if h is None or h.cancelled and i not in aborted}
    assert len(lost) == dropped()
    # A cancel that found the transfer pending sticks: it never fires.
    assert aborted <= {i for i, h in handles.items()
                       if h is not None and h.cancelled}
    fired = sorted(i for i, h in handles.items()
                   if h is not None and h.fired)
    assert sorted(completed) == fired
    delivered = sum(transfers[i][1] for i in fired)
    assert registry.counter("link_bytes_total").value(
        link="lossy", direction="uplink") == pytest.approx(delivered)


class TestTelemetry:
    def test_link_metrics_flow_through_the_stack(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        link = NetworkLink("lossy", bandwidth_bps=8e6,
                           round_trip_seconds=0.0, overhead_factor=1.0,
                           loss_probability=0.2)
        uplink = SharedUplink(link, sim, seed=0, registry=registry)
        for _ in range(5):
            uplink.schedule_transfer(sim, MB, lambda: None)
        sim.run()
        bytes_total = registry.counter("link_bytes_total")
        assert bytes_total.value(link="lossy", direction="uplink") == \
            pytest.approx(5 * MB)
        retx = registry.counter("link_retransmits_total")
        assert retx.value(link="lossy") == uplink.total_retransmits
        assert uplink.total_retransmits > 0
        depth = registry.gauge("link_queue_depth")
        assert depth.value(link="lossy", component="uplink") == 0.0


class TestWhatifFairShare:
    def test_fair_share_divides_the_link_ceiling(self):
        from repro.continuum.network import get_link
        from repro.predict.whatif import uplink_fair_share_rate

        link = get_link("field_lte")
        solo = link.sustainable_images_per_second(256e3)
        assert uplink_fair_share_rate(link, 1, 256e3) == \
            pytest.approx(solo)
        assert uplink_fair_share_rate(link, 4, 256e3) == \
            pytest.approx(solo / 4)
        with pytest.raises(ValueError):
            uplink_fair_share_rate(link, 0, 256e3)

    def test_loss_discounts_the_ceiling(self):
        from repro.continuum.network import get_link
        from repro.predict.whatif import uplink_fair_share_rate

        clean = uplink_fair_share_rate(get_link("field_lte"), 4, 256e3)
        lossy = uplink_fair_share_rate(get_link("field_lte_lossy"), 4,
                                       256e3)
        assert lossy < clean


class TestLinkOutageModel:
    def test_explicit_windows_clip_to_horizon(self):
        model = LinkOutageModel(windows=((1.0, 3.0), (8.0, 20.0)))
        assert model.windows_until(10.0) == [(1.0, 3.0), (8.0, 10.0)]
        assert model.windows_until(0.5) == []

    def test_sampled_windows_are_seed_deterministic(self):
        a = LinkOutageModel(mean_up_seconds=10.0, mean_down_seconds=2.0,
                            seed=3)
        b = LinkOutageModel(mean_up_seconds=10.0, mean_down_seconds=2.0,
                            seed=3)
        assert a.windows_until(100.0) == b.windows_until(100.0)
        windows = a.windows_until(100.0)
        assert windows
        for start, end in windows:
            assert 0.0 <= start < end <= 100.0
