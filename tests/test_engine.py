"""Tests for the discrete-event loop."""

from repro.sim.engine import EventLoop


def test_events_run_in_time_order():
    e = EventLoop()
    order = []
    e.schedule(5.0, lambda: order.append("b"))
    e.schedule(1.0, lambda: order.append("a"))
    e.run()
    assert order == ["a", "b"]


def test_ties_run_fifo():
    e = EventLoop()
    order = []
    e.schedule(1.0, lambda: order.append(1))
    e.schedule(1.0, lambda: order.append(2))
    e.run()
    assert order == [1, 2]


def test_past_events_clamped_to_now():
    e = EventLoop()
    seen = []
    def first():
        e.schedule(0.0, lambda: seen.append(e.now))
    e.schedule(10.0, first)
    e.run()
    assert seen == [10.0]


def test_schedule_in_relative():
    e = EventLoop()
    seen = []
    e.schedule(5.0, lambda: e.schedule_in(3.0, lambda: seen.append(e.now)))
    e.run()
    assert seen == [8.0]


def test_until_bound():
    e = EventLoop()
    seen = []
    e.schedule(1.0, lambda: seen.append(1))
    e.schedule(100.0, lambda: seen.append(2))
    e.run(until_ns=10.0)
    assert seen == [1]
    assert e.pending == 1


def test_max_events_bound():
    e = EventLoop()
    seen = []
    for i in range(5):
        e.schedule(float(i), lambda i=i: seen.append(i))
    e.run(max_events=2)
    assert seen == [0, 1]


def test_stop_mid_run():
    e = EventLoop()
    seen = []
    e.schedule(1.0, lambda: (seen.append(1), e.stop()))
    e.schedule(2.0, lambda: seen.append(2))
    e.run()
    assert seen == [1]
    e.run()
    assert seen == [1, 2]


def test_events_processed_counter():
    e = EventLoop()
    e.schedule(1.0, lambda: None)
    e.run()
    assert e.events_processed == 1


# -- schedule_clamped stat ---------------------------------------------------

def test_schedule_clamped_counter():
    e = EventLoop()
    e.schedule(5.0, lambda: None)
    e.run()
    assert e.schedule_clamped == 0
    e.schedule(1.0, lambda: None)   # past-due: clamped to now=5.0
    assert e.schedule_clamped == 1
    e.run()
    assert e.now == 5.0
