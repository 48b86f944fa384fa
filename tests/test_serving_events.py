"""Tests for repro.serving.events — the DES core."""

import pytest

from repro.serving.events import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.3, lambda: fired.append("c"))
        sim.schedule(0.1, lambda: fired.append("a"))
        sim.schedule(0.2, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(0.5, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(0.5, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_at(
            3.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="past"):
            Simulator().schedule(-0.1, lambda: None)

    def test_infinite_delay_rejected(self):
        # A foreground event at t = inf never fires, yet it would keep
        # run() stepping daemon ticks towards it.
        sim = Simulator()
        with pytest.raises(ValueError, match="inf"):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(ValueError, match="inf"):
            sim.schedule_at(float("inf"), lambda: None)
        sim.run()
        assert sim.events_processed == 0

    def test_nan_delay_rejected(self):
        # A NaN entry would sit on the heap forever: the same-time
        # batch loop compares it with ``==``, which NaN never satisfies.
        sim = Simulator()
        with pytest.raises(ValueError, match="nan"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_at(float("nan"), lambda: None)
        sim.run()
        assert sim.events_processed == 0


class TestRunControl:
    def test_run_until_pauses_and_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1] and sim.now == 1.5
        sim.run()
        assert fired == [1, 2]

    def test_run_until_with_empty_heap_advances_clock(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_runaway_loop_guard(self):
        sim = Simulator()

        def respawn():
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="self-scheduling"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(0.1, lambda: None)
        sim.run()
        sim.cancel(event)  # must not raise

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(first)
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Simulator().peek_time() is None


class TestDaemonEvents:
    def test_daemon_events_still_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, lambda: fired.append("d"), daemon=True)
        sim.run()
        assert fired == ["d"]

    def test_peek_foreground_skips_daemons(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None, daemon=True)
        assert sim.peek_time() == 0.1
        assert sim.peek_foreground_time() is None
        sim.schedule(0.7, lambda: None)
        assert sim.peek_foreground_time() == 0.7

    def test_peek_foreground_skips_cancelled(self):
        sim = Simulator()
        work = sim.schedule(0.3, lambda: None)
        sim.cancel(work)
        assert sim.peek_foreground_time() is None

    def test_two_control_loops_cannot_keep_each_other_alive(self):
        # Regression: two periodic loops re-arming "while events are
        # pending" each saw the other's tick and never drained the
        # heap.  Daemon ticks + peek_foreground_time break the cycle.
        sim = Simulator()

        def loop():
            if sim.peek_foreground_time() is not None:
                sim.schedule(0.25, loop, daemon=True)

        sim.schedule(0.25, loop, daemon=True)
        sim.schedule(0.25, loop, daemon=True)
        sim.schedule(1.0, lambda: None)  # the actual workload
        sim.run(max_events=100)  # raises if the loops self-sustain
        assert sim.now < 2.0


class TestDispatchEdgeCases:
    def test_cancel_mid_batch_keeps_foreground_accounting(self):
        # Two same-timestamp events: the first cancels the second after
        # both were popped into the dispatch batch.  The victim must not
        # fire and must be decremented from the foreground counter
        # exactly once (by the cancel, not again by the skip).
        sim = Simulator()
        fired = []
        holder = {}
        sim.schedule(1.0, lambda: sim.cancel(holder["victim"]))
        holder["victim"] = sim.schedule(
            1.0, lambda: fired.append("victim"))
        sim.schedule(2.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["after"]
        assert sim.peek_foreground_time() is None

    def test_max_events_requeues_unfired_tail(self):
        # Tripping the budget mid-batch must push the unfired tail back
        # on the heap (main and shadow state stay consistent) so the
        # simulation can resume after the post-mortem.
        sim = Simulator()
        fired = []
        for tag in "abcd":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run(max_events=2)
        assert fired == ["a", "b"]
        assert sim.peek_foreground_time() == 1.0
        sim.run()
        assert fired == ["a", "b", "c", "d"]
        assert sim.peek_foreground_time() is None

    def test_peek_foreground_sees_same_time_siblings(self):
        # A callback asking "is there work" mid-batch must see its
        # same-timestamp sibling still waiting in the dispatch list.
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.peek_foreground_time()))
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert seen == [1.0]

    def test_peek_foreground_ignores_daemon_siblings(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.peek_foreground_time()))
        sim.schedule(1.0, lambda: None, daemon=True)
        sim.run()
        assert seen == [None]


class TestEventStream:
    def test_stream_interleaves_with_heap_events(self):
        sim = Simulator()
        order = []
        sim.add_stream([1.0, 3.0],
                       lambda i: order.append(("s", i, sim.now)))
        sim.schedule(2.0, lambda: order.append(("e", sim.now)))
        sim.run()
        assert order == [("s", 0, 1.0), ("e", 2.0), ("s", 1, 3.0)]

    def test_heap_wins_ties(self):
        sim = Simulator()
        order = []
        sim.add_stream([1.0], lambda i: order.append("stream"))
        sim.schedule(1.0, lambda: order.append("event"))
        sim.run()
        assert order == ["event", "stream"]

    def test_schedule_at_ties_a_stream_entry_exactly(self):
        # 0.3 + (0.9 - 0.3) rounds to 0.9000000000000001: an absolute
        # target reached through a delay would fire after the entry.
        sim = Simulator()
        order = []
        sim.add_stream([0.9], lambda i: order.append(("stream", sim.now)))
        sim.schedule(0.3, lambda: sim.schedule_at(
            0.9, lambda: order.append(("event", sim.now))))
        sim.run()
        assert order == [("event", 0.9), ("stream", 0.9)]

    def test_streams_tie_by_registration_order(self):
        sim = Simulator()
        order = []
        sim.add_stream([1.0], lambda i: order.append("first"))
        sim.add_stream([1.0], lambda i: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_until_pauses_and_resumes_inside_stream(self):
        sim = Simulator()
        fired = []
        sim.add_stream([1.0, 2.0, 3.0], lambda i: fired.append(i))
        sim.run(until=2.5)
        assert fired == [0, 1]
        assert sim.now == 2.5
        sim.run()
        assert fired == [0, 1, 2]

    def test_nondecreasing_enforced(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            Simulator().add_stream([2.0, 1.0], lambda i: None)

    @pytest.mark.parametrize("times", [
        [0.0, float("nan"), 2.0],
        [float("nan"), 1.0],
        [float("nan")],
    ])
    def test_nan_times_rejected(self, times):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.add_stream(times, lambda i: None)
        assert sim.peek_time() is None

    def test_cannot_stream_into_the_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.add_stream([1.0], lambda i: None)

    def test_jump_skips_entries_and_keeps_accounting(self):
        sim = Simulator()
        fired = []
        stream = sim.add_stream([1.0, 2.0, 3.0, 4.0],
                                lambda i: fired.append(i))
        sim.schedule(1.5, lambda: stream.jump(3))
        sim.run()
        assert fired == [0, 3]
        assert sim.peek_foreground_time() is None

    def test_jump_past_the_end_clamps_and_stays_drained(self):
        sim = Simulator()
        fired = []
        stream = sim.add_stream([1.0, 2.0, 3.0],
                                lambda i: fired.append(i))
        sim.schedule(1.5, lambda: stream.jump(99))
        sim.run()
        assert fired == [0]
        assert stream.remaining == 0
        assert stream.peek_time() is None
        assert sim.peek_foreground_time() is None

    def test_jump_onto_a_heap_tie_lets_the_heap_event_win(self):
        sim = Simulator()
        order = []
        stream = sim.add_stream([1.0, 2.0, 3.0],
                                lambda i: order.append(("stream", i)))
        sim.schedule(3.0, lambda: order.append(("heap", None)))
        sim.schedule(1.5, lambda: stream.jump(2))
        sim.run()
        # The jump lands the cursor exactly on the 3.0 heap entry;
        # ties break toward the heap, then the stream fires at the
        # same timestamp.
        assert order == [("stream", 0), ("heap", None), ("stream", 2)]
        assert sim.now == 3.0

    def test_jump_backward_rejected(self):
        sim = Simulator()
        stream = sim.add_stream([1.0, 2.0], lambda i: None)
        sim.run()
        with pytest.raises(ValueError, match="backward"):
            stream.jump(0)

    def test_cancel_stops_remaining_firings(self):
        sim = Simulator()
        fired = []
        stream = sim.add_stream([1.0, 2.0], lambda i: fired.append(i))
        sim.schedule(1.5, stream.cancel)
        sim.run()
        assert fired == [0]
        assert stream.remaining == 0
        assert sim.peek_foreground_time() is None

    def test_daemon_stream_invisible_to_foreground_peek(self):
        sim = Simulator()
        stream = sim.add_stream([1.0, 2.0], lambda i: None, daemon=True)
        assert sim.peek_foreground_time() is None
        assert sim.peek_time() == 1.0
        sim.run()
        assert stream.remaining == 0

    def test_callback_scheduled_events_interleave(self):
        sim = Simulator()
        order = []

        def fire(i):
            if i == 0:
                sim.schedule(0.5, lambda: order.append("mid"))
            order.append(i)

        sim.add_stream([1.0, 2.0], fire)
        sim.run()
        assert order == [0, "mid", 1]
