"""Event-driven gateway tests: the engine is pumped per event, not per tick.

The gateway serves the worker result pipes from its asyncio loop, so a
pump follows a frame, a readable pipe or the heartbeat deadline —
never a polling clock.  These tests count pumps and deaths instead of
timing anything, so CPU contention can slow them down but not flip
them.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.pipeline import (
    GatewayClient,
    GatewayServer,
    PipelineOptions,
    detect_corpus,
)

EP = ("EP", "NAS")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker is inherited through fork",
)


def _wait_until(predicate, timeout: float = 30.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _count_pumps(monkeypatch, engine) -> list:
    """Wrap ``engine.pump``; returns the list each call appends to."""
    calls = []
    real = engine.pump

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "pump", counting)
    return calls


def _serve_one(server, key):
    with GatewayClient(port=server.port, timeout=180.0) as client:
        return client.result(client.submit(keys=[key],
                                           priority="interactive"))


def test_idle_gateway_replaces_a_dead_worker_before_the_next_request():
    """A worker killed while no request is active is replaced at once
    — its pipe's EOF wakes the loop — so the next request is
    dispatched to a live worker and needs no resubmission."""
    options = PipelineOptions(jobs=1)
    with GatewayServer(options, port=0) as server:
        engine = server.engine
        victim = next(iter(engine._workers.values())).process
        os.kill(victim.pid, signal.SIGKILL)
        assert _wait_until(lambda: engine.worker_deaths == 1)
        report = _serve_one(server, EP)
        assert engine.worker_deaths == 1
        assert engine.resubmissions == 0
    assert report.programs == detect_corpus(jobs=1, keys=[EP]).programs


@needs_fork
def test_one_interactive_request_pumps_per_event(monkeypatch):
    """One request whose unit runs ~0.5 s in the worker costs a
    handful of pumps (the submit frame, the result on the pipe), not
    one per polling tick while the worker computes."""
    import repro.pipeline.serving as serving_module

    real = serving_module.detect_unit
    parent = os.getpid()

    def slow(unit, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(0.5)
        return real(unit, *args, **kwargs)

    monkeypatch.setattr(serving_module, "detect_unit", slow)
    options = PipelineOptions(jobs=1, start_method="fork",
                              heartbeat_interval=60,
                              heartbeat_timeout=120)
    with GatewayServer(options, port=0) as server:
        calls = _count_pumps(monkeypatch, server.engine)
        report = _serve_one(server, EP)
    assert len(report.programs) == 1
    assert 1 <= len(calls) <= 8


@needs_fork
def test_a_replaced_workers_pipe_stops_waking_the_loop(monkeypatch):
    """After one of two forked workers dies, the idle gateway is quiet
    again.  The surviving sibling inherited a copy of the dead pipe,
    so that pipe stays at EOF; it must be unwatched before the engine
    closes it, or the loop's selector returns at once, forever."""
    options = PipelineOptions(jobs=2, start_method="fork",
                              heartbeat_interval=60,
                              heartbeat_timeout=120)
    with GatewayServer(options, port=0) as server:
        engine = server.engine
        victim = next(iter(engine._workers.values())).process
        os.kill(victim.pid, signal.SIGKILL)
        assert _wait_until(lambda: engine.worker_deaths == 1
                           and len(engine.channels()) == 2)
        selector = server._loop._selector
        wakeups = []
        real_select = selector.select

        def counting_select(*args, **kwargs):
            ready = real_select(*args, **kwargs)
            wakeups.append(len(ready))
            return ready

        monkeypatch.setattr(selector, "select", counting_select)
        time.sleep(0.3)  # an idle window: only a stale pipe wakes it
        assert len(wakeups) <= 2
        assert len(_serve_one(server, EP).programs) == 1
        assert engine.worker_deaths == 1
