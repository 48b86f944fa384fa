"""Tests for repro.continuum.broker — QoS 0/1 pub/sub delivery."""

import pytest

from repro.continuum.broker import Broker
from repro.continuum.network import NetworkLink, get_link
from repro.continuum.uplink import SharedUplink, StoreAndForward
from repro.serving.events import Simulator
from repro.serving.faults import LinkOutageModel
from repro.serving.observability import MetricsRegistry
from repro.serving.tracectx import TraceContext


def lossy_link(loss=0.05):
    return NetworkLink("lossy", bandwidth_bps=8e6,
                       round_trip_seconds=0.02, overhead_factor=1.0,
                       loss_probability=loss)


def run_broker(link, count, qos, seed=0, payload=2048.0, **kwargs):
    sim = Simulator()
    broker = Broker(sim, link, seed=seed, **kwargs)
    deliveries = []
    broker.subscribe("t", lambda topic, size, dup: deliveries.append(
        (sim.now, dup)))
    for index in range(count):
        sim.schedule_at(index * 0.05,
                        lambda: broker.publish("t", payload, qos=qos))
    sim.run()
    return broker, deliveries


class TestDelivery:
    def test_lossless_link_delivers_everything(self):
        broker, deliveries = run_broker(get_link("farm_wifi"), 20,
                                        qos=0)
        assert broker.delivered == 20
        assert broker.dropped == broker.duplicates == 0
        assert len(deliveries) == 20

    def test_qos0_drops_on_loss(self):
        broker, deliveries = run_broker(lossy_link(), 200, qos=0)
        assert broker.published == 200
        assert broker.dropped > 0
        assert broker.duplicates == 0 and broker.retries == 0
        assert broker.delivered + broker.dropped == 200
        assert len(deliveries) == broker.delivered

    def test_qos1_retries_into_delivery(self):
        broker, deliveries = run_broker(lossy_link(), 200, qos=1,
                                        max_retries=8)
        assert broker.delivered == 200
        assert broker.dropped == 0
        assert broker.retries > 0
        # At-least-once: the subscriber may see duplicates, never gaps.
        assert len(deliveries) == 200 + broker.duplicates
        assert broker.duplicates == sum(dup for _, dup in deliveries)

    def test_qos1_exhausted_retries_count_as_failed(self):
        broker, _ = run_broker(lossy_link(loss=0.6), 50, qos=1,
                               max_retries=0)
        assert broker.failed > 0
        assert broker.retries == 0
        assert broker.delivered + broker.failed + broker.duplicates \
            >= broker.delivered + broker.failed

    def test_message_loss_probability(self):
        link = lossy_link(loss=0.01)
        sim = Simulator()
        broker = Broker(sim, link)
        # 3000 B = 2 packets: survive chance 0.99^2.
        assert broker.message_loss_probability(3000.0) == \
            pytest.approx(1.0 - 0.99 ** 2)
        assert Broker(sim, get_link("farm_wifi"),
                      ).message_loss_probability(3000.0) == 0.0

    def test_qos2_not_modeled(self):
        sim = Simulator()
        broker = Broker(sim, lossy_link())
        with pytest.raises(ValueError, match="QoS"):
            broker.publish("t", 100.0, qos=2)
        with pytest.raises(ValueError):
            broker.publish("t", -1.0)
        with pytest.raises(ValueError):
            Broker(sim, lossy_link(), retry_seconds=0.0)


class TestDeterminism:
    def stats(self, seed):
        broker, deliveries = run_broker(lossy_link(), 100, qos=1,
                                        seed=seed)
        return (broker.delivered, broker.dropped, broker.duplicates,
                broker.retries, broker.failed, deliveries)

    def test_same_seed_same_outcomes(self):
        assert self.stats(5) == self.stats(5)

    def test_different_seed_different_sample_path(self):
        assert self.stats(5)[-1] != self.stats(6)[-1]


class TestFanOut:
    def test_every_subscriber_gets_every_message(self):
        sim = Simulator()
        broker = Broker(sim, get_link("farm_wifi"))
        seen = {name: [] for name in ("a", "b", "c")}
        for name in seen:
            broker.subscribe(
                "t", lambda topic, size, dup, n=name:
                seen[n].append(size), name=name)
        for index in range(20):
            sim.schedule_at(index * 0.05,
                            lambda: broker.publish("t", 2048.0))
        sim.run()
        # One message-level delivery, three subscriber copies.
        assert broker.delivered == 20
        for subscription in broker.subscriptions("t"):
            assert subscription.received == 20
            assert subscription.delivered == 20
            assert subscription.dropped == 0
        assert all(len(v) == 20 for v in seen.values())

    def test_default_names_index_the_topic(self):
        sim = Simulator()
        broker = Broker(sim, get_link("farm_wifi"))
        broker.subscribe("t", lambda *a: None)
        broker.subscribe("t", lambda *a: None)
        names = [s.name for s in broker.subscriptions("t")]
        assert names == ["t#0", "t#1"]

    def test_qos1_duplicates_visible_to_every_subscriber(self):
        sim = Simulator()
        broker = Broker(sim, lossy_link(), seed=0, max_retries=8)
        flags = {"a": [], "b": []}
        for name in flags:
            broker.subscribe(
                "t", lambda topic, size, dup, n=name:
                flags[n].append(dup), name=name)
        for index in range(200):
            sim.schedule_at(index * 0.05,
                            lambda: broker.publish("t", 2048.0, qos=1))
        sim.run()
        assert broker.duplicates > 0
        for subscription in broker.subscriptions("t"):
            # At-least-once: all 200 messages plus every redelivery,
            # with the duplicate flag raised on each extra copy —
            # dedup is the application's job, for every subscriber.
            assert subscription.received == 200 + broker.duplicates
            assert subscription.duplicates == broker.duplicates
        assert sum(flags["a"]) == broker.duplicates
        assert flags["a"] == flags["b"]

    def test_slow_subscriber_queues_without_delaying_the_fast_one(self):
        sim = Simulator()
        broker = Broker(sim, get_link("farm_wifi"))
        fast_times, slow_times = [], []
        broker.subscribe("t", lambda *a: fast_times.append(sim.now),
                         name="fast")
        slow = broker.subscribe(
            "t", lambda *a: slow_times.append(sim.now),
            name="slow", service_seconds=1.0)
        for index in range(5):
            sim.schedule_at(index * 0.05,
                            lambda: broker.publish("t", 2048.0))
        sim.run()
        assert len(fast_times) == len(slow_times) == 5
        # The fast subscriber finished with the last transfer; the
        # slow one serialized 5 x 1 s of processing behind it.
        assert max(fast_times) < 1.0
        assert max(slow_times) == pytest.approx(
            slow_times[0] + 4.0)
        assert slow.max_queue_depth > 0
        assert slow.queue_depth == 0

    def test_bounded_queue_drops_only_on_the_slow_subscriber(self):
        sim = Simulator()
        broker = Broker(sim, get_link("farm_wifi"))
        broker.subscribe("t", lambda *a: None, name="fast")
        slow = broker.subscribe("t", lambda *a: None, name="slow",
                                service_seconds=5.0, max_queue=1)
        for index in range(10):
            sim.schedule_at(index * 0.05,
                            lambda: broker.publish("t", 2048.0))
        sim.run()
        fast = broker.subscriptions("t")[0]
        assert fast.delivered == 10 and fast.dropped == 0
        assert slow.dropped > 0
        assert slow.delivered + slow.dropped == 10
        # Message-level accounting is untouched by subscriber drops.
        assert broker.delivered == 10 and broker.dropped == 0

    def test_in_service_message_does_not_count_against_max_queue(self):
        sim = Simulator()
        broker = Broker(sim, get_link("farm_wifi"))
        slow = broker.subscribe("t", lambda *a: None, name="slow",
                                service_seconds=5.0, max_queue=1)
        for index in range(3):
            sim.schedule_at(index * 0.05,
                            lambda: broker.publish("t", 2048.0))
        sim.run()
        # max_queue bounds the *waiting* backlog: the first message is
        # in service, the second waits, only the third overflows.
        assert slow.delivered == 2
        assert slow.dropped == 1
        assert slow.max_queue_depth == 1
        assert slow.queue_depth == 0

    def test_subscription_validation(self):
        sim = Simulator()
        broker = Broker(sim, get_link("farm_wifi"))
        with pytest.raises(ValueError, match="service_seconds"):
            broker.subscribe("t", lambda *a: None,
                             service_seconds=-1.0)
        with pytest.raises(ValueError, match="max_queue"):
            broker.subscribe("t", lambda *a: None, max_queue=-1)


class TestComposition:
    def test_broker_traffic_contends_on_a_shared_uplink(self):
        sim = Simulator()
        link = NetworkLink("b", bandwidth_bps=8e6,
                           round_trip_seconds=0.0, overhead_factor=1.0)
        uplink = SharedUplink(link, sim)
        broker = Broker(sim, uplink)
        assert broker.link is link
        deliveries = []
        broker.subscribe("t", lambda *a: deliveries.append(sim.now))
        # A 1 MB image upload (1 s solo) shares the wire with a 1 MB
        # publish: both serialize at half rate and land at t=2.
        done = []
        uplink.schedule_transfer(sim, 1e6, lambda: done.append(sim.now))
        broker.publish("t", 1e6)
        sim.run()
        assert done == [pytest.approx(2.0)]
        assert deliveries == [pytest.approx(2.0)]

    def test_broker_over_store_and_forward_arrives_late_not_never(self):
        sim = Simulator()
        buffer = StoreAndForward(
            get_link("farm_wifi"), sim,
            outage=LinkOutageModel(windows=((0.0, 2.0),)))
        buffer.start(horizon=10.0)
        broker = Broker(sim, buffer)
        deliveries = []
        broker.subscribe("t", lambda *a: deliveries.append(sim.now))
        sim.schedule_at(0.5, lambda: broker.publish("t", 2048.0))
        sim.run()
        assert len(deliveries) == 1
        assert deliveries[0] > 2.0  # held until the link came back
        assert broker.delivered == 1 and broker.dropped == 0

    def test_publish_span_records_outcome(self):
        sim = Simulator()
        broker = Broker(sim, get_link("farm_wifi"))
        trace = TraceContext(1)
        broker.publish("t", 2048.0, qos=1, trace=trace)
        sim.run()
        span = trace.find("publish")[0]
        assert span.end is not None
        assert span.args["outcome"] == "delivered"
        assert span.args["qos"] == 1

    def test_metrics_count_outcomes(self):
        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        broker = Broker(sim, lossy_link(), registry=registry)
        for index in range(100):
            sim.schedule_at(index * 0.05,
                            lambda: broker.publish("t", 2048.0, qos=0))
        sim.run()
        counter = registry.counter("broker_messages_total")
        assert counter.value(qos="0", outcome="delivered") == \
            broker.delivered
        assert counter.value(qos="0", outcome="dropped") == \
            broker.dropped
        assert broker.dropped > 0

    def test_bare_object_rejected(self):
        with pytest.raises(TypeError, match="NetworkLink"):
            Broker(Simulator(), object())
