"""``gateway-mixed``: closed-loop interactive and batch traffic over TCP.

``python -m repro gateway --extended`` runs as a subprocess.  One load
generator process drives it over two connections on two threads:

* an interactive client sends back-to-back single-program
  ``interactive`` requests, keys drawn from a seeded sequence;
* a batch client keeps one whole-corpus ``batch`` request in flight.

Modules stay cached in the workers, so the scheduler, the IPC, the
gateway's event loop and engine thread and the JSON codec do the work.  Both classes share
one scheduler in opposite ways, so a gain for one that costs the other
shows.  Every report is compared with the serial ``detect_corpus(jobs=1)``
reference.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    Result,
    child_env,
    median,
    percentile,
    remove,
    rss_mb,
    workdir,
)

#: Gateway worker processes.  One worker repeats within a few percent;
#: two made interactive latency depend on which worker a request hit.
WORKERS = 1
#: Gateway launches per run, each one ``setup_s`` sample; the first
#: also carries the measured load.
SETUP_LAUNCHES = 5
CLIENT_TIMEOUT = 60.0


class Gateway:
    """One ``python -m repro gateway`` subprocess."""

    def __init__(self, tmp, index: int):
        self.port_file = tmp / f"port{index}"
        self.log_path = tmp / f"gateway{index}.log"
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--extended",
             "--jobs", str(WORKERS), "--port", "0",
             "--port-file", str(self.port_file)],
            stdout=self._log, stderr=subprocess.STDOUT, env=child_env(),
            cwd=str(ROOT),
        )

    def port(self, timeout: float = 60.0) -> int:
        """Poll the port file the gateway writes once it listens."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"gateway exited with {self.proc.returncode}: "
                    f"{self.log_path.read_text()[-500:]}")
            try:
                text = self.port_file.read_text().strip()
                if text:
                    return int(text)
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        raise RuntimeError("gateway did not publish a port")

    def close(self) -> tuple[int, float | None, int | None]:
        """Stop the gateway: (exit code, peak RSS MiB, rejections).

        SIGTERM takes the gateway's clean shutdown path, which joins its
        workers, so the peak RSS covers the whole process tree.  A
        gateway that already died has no usage to report.
        """
        peak = None
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            killer = threading.Timer(30.0, self.proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                killer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            peak = rss_mb(usage)
        self._log.close()
        found = re.search(r"(\d+) rejection\(s\)", self.log_path.read_text())
        return (self.proc.returncode, peak,
                int(found.group(1)) if found else None)


def reference_report():
    """The serial reference every served report must match."""
    from repro.pipeline import detect_corpus

    return detect_corpus(jobs=1, extended=True)


def first_request(gateway: Gateway, key, reference, result: Result):
    """Seconds from launch until one single-program request is answered."""
    from repro.pipeline import GatewayClient

    with GatewayClient(port=gateway.port(), timeout=CLIENT_TIMEOUT) as client:
        report = client.result(client.submit(keys=[key],
                                             priority="interactive"))
    elapsed = time.perf_counter() - gateway.started
    result.check(report.programs == (reference.program(*key),),
                 f"first request {key}: report differs from reference")
    return elapsed


def warm_up(port: int, reference, result: Result) -> None:
    """One whole-corpus batch request, so every module is cached."""
    from repro.pipeline import GatewayClient

    with GatewayClient(port=port, timeout=CLIENT_TIMEOUT) as client:
        report = client.result(client.submit(priority="batch"))
    result.check(report.fingerprint() == reference.fingerprint(),
                 "warm-up batch fingerprint differs from reference")


class Load:
    """Shared record of one closed-loop load phase."""

    def __init__(self, reference, result: Result, keys):
        self.reference = reference
        self.keys = keys
        self.by_key = {p.key: p for p in reference.programs}
        self.result = result
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.latencies: list[float] = []
        #: Programs per second of each completed batch request.
        self.batch_rates: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        with self.lock:
            self.result.check(ok, what)


def interactive_client(port: int, load: Load) -> None:
    from repro.pipeline import GatewayClient

    try:
        with GatewayClient(port=port, timeout=CLIENT_TIMEOUT) as client:
            while not load.stop.is_set():
                key = next(load.keys)
                started = time.perf_counter()
                try:
                    request = client.submit(keys=[key],
                                            priority="interactive")
                    report = client.result(request)
                except Exception as exc:  # counted, then keep loading
                    load.check(False, f"interactive {key}: {exc!r}")
                    continue
                latency = time.perf_counter() - started
                with load.lock:
                    load.latencies.append(latency)
                load.check(report.programs == (load.by_key[key],),
                           f"interactive {key}: report differs")
    except Exception as exc:  # the connection itself failed
        load.check(False, f"interactive client: {exc!r}")


def batch_client(port: int, load: Load) -> None:
    from repro.pipeline import GatewayClient

    reference_fp = load.reference.fingerprint()
    try:
        with GatewayClient(port=port, timeout=CLIENT_TIMEOUT) as client:
            while not load.stop.is_set():
                started = time.perf_counter()
                request = client.submit(priority="batch")
                for digest in client.stream(request):
                    load.check(digest == load.by_key.get(digest.key),
                               f"batch digest {digest.key} differs")
                    if load.stop.is_set():
                        break
                if load.stop.is_set():
                    client.cancel(request)
                    break
                report = client.result(request)
                rate = len(report.programs) / (time.perf_counter() - started)
                with load.lock:
                    load.batch_rates.append(rate)
                load.check(report.fingerprint() == reference_fp,
                           "batch fingerprint differs from reference")
    except Exception as exc:  # the connection itself failed
        load.check(False, f"batch client: {exc!r}")


def key_sequence(keys, seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.choice(keys)


def launch_once(tmp, index: int, keys, reference, result: Result,
                load_seconds: float = 0.0):
    """Launch a gateway, time its first answer, optionally load it.

    Returns ``(setup seconds, peak RSS MiB, load record or None)``.
    """
    gateway = Gateway(tmp, index)
    load = None
    try:
        setup = first_request(gateway, next(keys), reference, result)
        if load_seconds:
            port = gateway.port()
            warm_up(port, reference, result)
            load = Load(reference, result, keys)
            # Daemon threads: a client stuck on a dead gateway must not
            # keep the benchmark from exiting.
            threads = [
                threading.Thread(target=interactive_client,
                                 args=(port, load), daemon=True),
                threading.Thread(target=batch_client, args=(port, load),
                                 daemon=True),
            ]
            for thread in threads:
                thread.start()
            time.sleep(load_seconds)
            # Keep the mix going until one batch request has completed,
            # so a slow machine still yields a batch rate under load.
            deadline = time.perf_counter() + CLIENT_TIMEOUT
            while not load.batch_rates and time.perf_counter() < deadline \
                    and threads[1].is_alive():
                time.sleep(0.05)
            load.stop.set()
            for thread in threads:
                thread.join(timeout=CLIENT_TIMEOUT)
                result.check(not thread.is_alive(), "client hung")
    finally:
        code, peak, rejections = gateway.close()
    result.check(code == 0, f"gateway {index} exited with {code}")
    result.check(rejections == 0,
                 f"gateway {index}: {rejections} rejection(s)")
    return setup, peak, load


def run(seed: int, seconds: float) -> Result:
    result = Result()
    reference = reference_report()
    keys = key_sequence([p.key for p in reference.programs], seed)
    tmp = workdir("gateway")
    try:
        setup, peak, load = launch_once(tmp, 0, keys, reference,
                                        result, load_seconds=seconds)
        setups = [setup]
        for index in range(1, SETUP_LAUNCHES):
            setups.append(launch_once(tmp, index, keys, reference,
                                      result)[0])
    finally:
        remove(tmp)
    latencies, rates = load.latencies, load.batch_rates
    if not latencies or not rates or peak is None:
        result.fail("the load phase measured nothing")
        return result
    result.notes += [
        f"{WORKERS} gateway worker(s); closed loop, 1 interactive + 1 batch "
        f"client for {seconds:g} s",
        f"interactive_p50_ms = {1000 * median(latencies):.3f} ms, "
        f"interactive_p90_ms = {1000 * percentile(latencies, 0.9):.3f} ms "
        f"over {len(latencies)} requests",
        f"batch_programs_per_s = {median(rates):.3f} 1/s (median of "
        f"{len(rates)} completed whole-corpus requests)",
        f"setup_s (launch to first answer) = {median(setups):.4f} s "
        f"(median of {len(setups)} launches)",
    ]
    result.put("setup_s", median(setups), "s")
    result.put("latency_ms", 1000 * median(latencies), "ms")
    result.put("programs_per_s", median(rates), "1/s")
    result.put("peak_rss_mb", peak, "MiB")
    return result
