"""Experiment E-SERVE: the serving layer at query scale.

Workload: the universe store and the HTTP query API as a client sees
them — cold point lookups (one indexed row of the store file), warm
lookups out of the hot-node LRU, in-process service routing, and
real-socket QPS with keep-alive and ETag revalidation.  The store is the
full ``--max-n 20 --max-m 6`` rectangle from the paper's decision
pipeline, built once per module.

The tail-latency benches record p50/p99 per-request latency — under
plain concurrency, and under a mid-storm worker SIGKILL against the
pre-fork supervisor — via ``benchmark.extra_info`` keys ending in
``_seconds``; ``compare_baselines.py`` lifts those into pseudo-
benchmarks (``bench:key``) so the tail is baselined in CI next to the
means.
"""

import threading
import time

import pytest

from repro.serve import BackgroundServer, SupervisedServer, UniverseService
from repro.universe import UniverseStore, canonical_task_key
from repro.universe.persist import HOT_CELLS

#: The acceptance-criterion rectangle: ``--max-n 20 --max-m 6``.
MAX_N, MAX_M = 20, 6

#: Point-lookup target, canonicalized into the hardest built cell.
TASK = (MAX_N, MAX_M, 1, MAX_N)

#: Requests per timed burst in the HTTP QPS benches.
BURST = 50


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-serve") / "store"
    store = UniverseStore(root)
    store.build(MAX_N, MAX_M)
    return root


def bench_serve_cold_point_lookup(benchmark, root):
    """Cold lookup: one indexed row of the store file."""
    store = UniverseStore.open_readonly(root)
    key = canonical_task_key(*TASK)
    hot_key = (str(store.root), store.fingerprint()) + key

    def cold():
        HOT_CELLS.pop(hot_key)
        return store.node_at(*TASK)

    node = benchmark(cold)
    assert node is not None and node.key == key


def bench_serve_warm_point_lookup(benchmark, root):
    """Warm lookup: served from the hot-node LRU, no file I/O at all."""
    store = UniverseStore.open_readonly(root)
    store.node_at(*TASK)  # prime

    node = benchmark(store.node_at, *TASK)
    assert node is not None


def bench_serve_service_decide(benchmark, root):
    """In-process service routing: decide without HTTP framing."""
    service = UniverseService.open(root)
    n, m, low, high = TASK
    query = {"n": str(n), "m": str(m), "low": str(low), "high": str(high)}

    response = benchmark(service.handle, "GET", "/decide", query, None, None)
    assert response.status == 200
    assert response.payload["source"] == "universe"


def bench_serve_http_qps(benchmark, root):
    """Real-socket QPS: a keep-alive burst of decide requests."""
    import http.client

    with BackgroundServer(root) as server:
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        n, m, low, high = TASK
        path = f"/decide?n={n}&m={m}&low={low}&high={high}"

        def burst():
            statuses = []
            for _ in range(BURST):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                statuses.append(response.status)
            return statuses

        statuses = benchmark(burst)
        connection.close()
    assert statuses == [200] * BURST


def bench_serve_http_etag_revalidation(benchmark, root):
    """A 304 burst: revalidation skips the body entirely."""
    import http.client

    with BackgroundServer(root) as server:
        n, m, low, high = TASK
        path = f"/decide?n={n}&m={m}&low={low}&high={high}"
        status, headers, _ = server.get(path)
        assert status == 200
        etag = headers["ETag"]

        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )

        def burst():
            statuses = []
            for _ in range(BURST):
                connection.request(
                    "GET", path, headers={"If-None-Match": etag}
                )
                response = connection.getresponse()
                body = response.read()
                statuses.append((response.status, body))
            return statuses

        statuses = benchmark(burst)
        connection.close()
    assert statuses == [(304, b"")] * BURST


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    assert sorted_samples
    rank = round(q / 100.0 * (len(sorted_samples) - 1))
    return sorted_samples[rank]


def bench_serve_http_tail_latency_concurrent(benchmark, root):
    """p50/p99 per-request latency under a concurrent client storm.

    The mean QPS bench hides the tail; this one records per-request
    wall times across 4 keep-alive clients hammering one server and
    attaches the percentiles as ``extra_info`` for the baseline file.
    """
    import http.client

    clients, per_client = 4, 25
    n, m, low, high = TASK
    path = f"/decide?n={n}&m={m}&low={low}&high={high}"
    latencies: list[float] = []
    failures: list[int] = []

    with BackgroundServer(root) as server:

        def client() -> None:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                samples = []
                for _ in range(per_client):
                    started = time.perf_counter()
                    connection.request("GET", path)
                    response = connection.getresponse()
                    response.read()
                    samples.append(time.perf_counter() - started)
                    if response.status != 200:
                        failures.append(response.status)
                latencies.extend(samples)
            finally:
                connection.close()

        def storm() -> None:
            threads = [
                threading.Thread(target=client) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

        benchmark(storm)

    assert not failures, failures[:5]
    samples = sorted(latencies)
    benchmark.extra_info["p50_seconds"] = _percentile(samples, 50)
    benchmark.extra_info["p99_seconds"] = _percentile(samples, 99)


def bench_serve_tail_latency_under_worker_kill(benchmark, root):
    """p50/p99 latency while a supervisor worker is SIGKILL'd mid-storm.

    The chaos-resilience number: 2 pre-fork workers, fresh-connection
    clients, one worker killed a beat into the storm.  Requests that
    land on the dying worker's accepted connections surface as
    connection errors and are counted (not timed); every answered
    request must be a 200, and the recorded tail shows what the crash
    plus backoff restart cost the survivors.
    """
    n, m, low, high = TASK
    path = f"/decide?n={n}&m={m}&low={low}&high={high}"
    latencies: list[float] = []
    failures: list[int] = []
    connection_errors = [0]

    with SupervisedServer(root, workers=2) as server:

        def client() -> None:
            for _ in range(30):
                started = time.perf_counter()
                try:
                    status, _, _ = server.get(path)
                except OSError:
                    connection_errors[0] += 1
                    continue
                latencies.append(time.perf_counter() - started)
                if status != 200:
                    failures.append(status)

        def storm() -> None:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            victims = server.worker_pids()
            if victims:
                server.kill_worker(victims[0])
            for thread in threads:
                thread.join(timeout=120)

        # One round: the kill-and-restart cycle is the workload, and a
        # second round against an already-restarted pair would measure
        # a different (healthier) system.
        benchmark.pedantic(storm, rounds=1, iterations=1)

        # The parent reaps and restarts on a 50 ms poll: give the board
        # a moment to show the restart instead of racing it.
        server.wait_healthy(15.0)
        deadline = time.monotonic() + 10.0
        while server.restarts_total() < 1 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert server.restarts_total() >= 1

    assert not failures, failures[:5]
    assert latencies, "every storm request failed"
    samples = sorted(latencies)
    benchmark.extra_info["p50_seconds"] = _percentile(samples, 50)
    benchmark.extra_info["p99_seconds"] = _percentile(samples, 99)
