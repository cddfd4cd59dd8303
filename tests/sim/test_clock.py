"""Tests for the discrete-event clock."""

import pytest

from repro.sim.clock import SimClock


class TestScheduling:
    def test_events_run_in_time_order(self):
        clock = SimClock()
        order = []
        clock.schedule(5.0, lambda t: order.append(("b", t)))
        clock.schedule(1.0, lambda t: order.append(("a", t)))
        clock.run_until(10.0)
        assert order == [("a", 1.0), ("b", 5.0)]

    def test_ties_break_by_insertion(self):
        clock = SimClock()
        order = []
        clock.schedule(1.0, lambda t: order.append("first"))
        clock.schedule(1.0, lambda t: order.append("second"))
        clock.run_until(1.0)
        assert order == ["first", "second"]

    def test_schedule_in_past_rejected(self):
        clock = SimClock()
        clock.schedule(5.0, lambda t: None)
        clock.run_until(5.0)
        with pytest.raises(ValueError):
            clock.schedule(4.0, lambda t: None)

    def test_schedule_in_relative(self):
        clock = SimClock()
        hits = []
        clock.schedule(2.0, lambda t: clock.schedule_in(3.0, hits.append))
        clock.run_until(10.0)
        assert hits == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimClock().schedule_in(-1.0, lambda t: None)

    def test_nan_time_rejected(self):
        clock = SimClock()
        hits = []
        with pytest.raises(ValueError):
            clock.schedule(float("nan"), hits.append)
        with pytest.raises(ValueError):
            clock.schedule_in(float("nan"), hits.append)
        clock.schedule(1.0, hits.append)
        with pytest.raises(ValueError):
            clock.run_until(float("nan"))
        clock.run_until(2.0)
        assert hits == [1.0]
        assert clock.now == 2.0

    def test_cancel(self):
        clock = SimClock()
        hits = []
        event = clock.schedule(1.0, hits.append)
        clock.cancel(event)
        clock.run_until(2.0)
        assert hits == []
        assert clock.pending == 0


class TestPeriodic:
    def test_fires_on_period(self):
        clock = SimClock()
        hits = []
        clock.schedule_periodic(2.0, hits.append, until=10.0)
        clock.run_until(10.0)
        assert hits == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_custom_start(self):
        clock = SimClock()
        hits = []
        clock.schedule_periodic(5.0, hits.append, start=1.0, until=12.0)
        clock.run_until(12.0)
        assert hits == [1.0, 6.0, 11.0]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            SimClock().schedule_periodic(0.0, lambda t: None)


class TestCancellation:
    def test_cancel_pending_periodic_before_first_fire(self):
        clock = SimClock()
        hits = []
        handle = clock.schedule_periodic(2.0, hits.append)
        clock.cancel(handle)
        clock.run_until(10.0)
        assert hits == []
        assert clock.pending == 0

    def test_cancel_periodic_mid_chain(self):
        clock = SimClock()
        hits = []
        handle = clock.schedule_periodic(2.0, hits.append)
        clock.schedule(5.0, lambda t: clock.cancel(handle))
        clock.run_until(20.0)
        assert hits == [2.0, 4.0]
        assert clock.pending == 0

    def test_cancel_from_inside_own_callback(self):
        clock = SimClock()
        hits = []
        handle_box = []

        def fire(now):
            hits.append(now)
            if len(hits) == 3:
                clock.cancel(handle_box[0])

        handle_box.append(clock.schedule_periodic(1.0, fire))
        clock.run_until(10.0)
        assert hits == [1.0, 2.0, 3.0]
        assert clock.pending == 0

    def test_cancelled_event_not_counted_as_run(self):
        clock = SimClock()
        event = clock.schedule(1.0, lambda t: None)
        clock.schedule(2.0, lambda t: None)
        clock.cancel(event)
        clock.run_until(5.0)
        assert clock.events_run == 1


class TestPeriodicComposition:
    def test_periodic_callback_scheduling_one_shots(self):
        # A periodic round that schedules its own follow-up events (the
        # driver pattern: round fires, timeouts/deadlines ride along).
        clock = SimClock()
        order = []

        def round_fire(now):
            order.append(("round", now))
            clock.schedule_in(0.5, lambda t: order.append(("deadline", t)))

        clock.schedule_periodic(2.0, round_fire, until=6.0)
        clock.run_until(7.0)
        assert order == [
            ("round", 2.0), ("deadline", 2.5),
            ("round", 4.0), ("deadline", 4.5),
            ("round", 6.0), ("deadline", 6.5),
        ]

    def test_interleaved_schedules_tie_break_deterministically(self):
        # Two identical runs with interleaved schedule/schedule_in calls
        # landing on the same instants must replay identically.
        def run():
            clock = SimClock()
            order = []
            clock.schedule_periodic(1.0, lambda t: order.append(("p1", t)))
            clock.schedule_periodic(1.0, lambda t: order.append(("p2", t)))
            clock.schedule(3.0, lambda t: order.append(("one", t)))
            clock.schedule(
                2.0, lambda t: clock.schedule_in(1.0, lambda u: order.append(("nested", u)))
            )
            clock.run_until(4.0)
            return order

        first, second = run(), run()
        assert first == second
        # Same-instant ordering follows insertion order: p1 before p2,
        # and the t=3 events in the order they entered the queue.
        assert first.index(("p1", 3.0)) < first.index(("p2", 3.0))
        assert first.index(("one", 3.0)) < first.index(("nested", 3.0))


class TestRunUntil:
    def test_clock_lands_on_end_time(self):
        clock = SimClock()
        clock.schedule(1.0, lambda t: None)
        clock.run_until(7.5)
        assert clock.now == 7.5

    def test_future_events_stay_queued(self):
        clock = SimClock()
        clock.schedule(10.0, lambda t: None)
        executed = clock.run_until(5.0)
        assert executed == 0
        assert clock.pending == 1

    def test_cannot_run_backwards(self):
        clock = SimClock()
        clock.run_until(5.0)
        with pytest.raises(ValueError):
            clock.run_until(4.0)

    def test_cancelled_head_does_not_release_later_events(self):
        # A cancelled event at the head of the queue must not let the
        # next live event run early, whatever its time.
        clock = SimClock()
        hits = []
        clock.cancel(clock.schedule(5.0, hits.append))
        clock.schedule(20.0, hits.append)
        assert clock.run_until(10.0) == 0
        assert hits == []
        assert clock.now == 10.0
        assert clock.pending == 1
        assert clock.run_until(20.0) == 1
        assert hits == [20.0]

    def test_step_skips_cancelled_events(self):
        clock = SimClock()
        hits = []
        clock.cancel(clock.schedule(1.0, hits.append))
        clock.schedule(3.0, hits.append)
        assert clock.step() is True
        assert hits == [3.0]
        assert clock.now == 3.0
        assert clock.step() is False

    def test_step_returns_false_when_empty(self):
        assert SimClock().step() is False

    def test_events_run_counter(self):
        clock = SimClock()
        for t in (1.0, 2.0, 3.0):
            clock.schedule(t, lambda _: None)
        clock.run_until(10.0)
        assert clock.events_run == 3
