"""``serve``: HTTP clients of the finished map.

Set-up builds and packs the ``n <= 20, m <= 6`` store, starts
``python -m repro serve`` (one worker process) and sends every endpoint
one request, so the first timed query does not pay the graph load.

The seed generates the request stream: about 60% ``decide`` inside the
rectangle with Zipf-skewed keys, 15% ``decide`` outside it (answered by
the structural-tier pipeline), 12% ``cones``, 8% ``reduction-path``, 4%
``batch`` and 1% ``frontier``; a share of the requests repeat an earlier
one with its ``If-None-Match`` ETag.  The Zipf exponent and the repeat
share are assumptions, see ``ZIPF_S`` and ``REVALIDATE_SHARE``; each
result row records them.  Every request's expected status and
body come from an in-process ``UniverseService.handle`` over the same
store, and the load generator (``loadgen.py``, its own process) compares
each answer with them.

The load is an open loop over at most two keep-alive connections, at a
ladder of fixed rates from light load to past saturation, interleaved
with closed-loop phases of one client that waits for each answer.  An
untimed phase at the middle rate warms the server's caches first.
``latency_ms`` (gated) is the median of the closed-loop phases' p50
latencies.  ``serve_p50_ms`` is the median of the p50 latencies, timed
from each request's due time, of the middle-rate phases whose generator
kept its schedule, and ``serve_p99_ms`` the p99 of all their requests;
fewer than half of them valid fails the run.  ``serve_max_rps`` is the
highest rate whose p99 meets ``P99_LIMIT_MS`` with no growing backlog,
no failure and a generator that kept its schedule in every phase.  The
traced run also replays the start of the stream in-process through
``UniverseService.handle`` and ``Response.body_bytes`` with spans around
the calls into the universe and decision layers.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlencode

import repro.serve.service as service_module
from repro.decision.pipeline import DecisionPipeline
from repro.serve import UniverseService
from repro.universe import UniverseStore

from contract import ENDPOINTS
from spans import Tracer, layer_breakdown

MAX_N, MAX_M = 20, 6
#: (rate in requests/s, share of the measured seconds); a rate of
#: ``None`` is a closed-loop phase.  The gated latency is read from the
#: six closed-loop phases: a client that waits for each answer sees a
#: stall of the host only in the requests it stalls, where an open loop
#: queues every later request behind it.  The open-loop middle rate,
#: well below the knee, gives ``serve_p50_ms`` and ``serve_p99_ms``.
#: Both kinds run as short phases spread over the run, so a slow spell
#: of the host moves a few of the p50s whose median is taken rather than
#: the median itself.
MIDDLE_RATE = 600
STEP = ((None, 0.04), (MIDDLE_RATE, 0.035))
LADDER = (
    *STEP, (100, 0.065),
    *STEP, (300, 0.065),
    *STEP, (900, 0.065),
    *STEP, (1200, 0.065),
    *STEP, (1600, 0.065),
    *STEP, (2000, 0.065),
    (2400, 0.065),
)
#: Untimed first phase at the middle rate: it fills the server's hot-node
#: cache with the stream's keys, as a long-running server's would be.
WARMUP = (MIDDLE_RATE, 0.05)
P99_LIMIT_MS = 50.0
#: Tail lag (send time minus due time over a phase's last tenth) above
#: which the backlog is growing.
BACKLOG_LIMIT_MS = 10.0
MIX = (
    ("decide", 60),
    ("decide-outside", 15),
    ("cones", 12),
    ("reduction-path", 8),
    ("batch", 4),
    ("frontier", 1),
)
#: Share of requests that revalidate an earlier answer with its ETag.
#: An assumption: no sample of this service's traffic exists to check it.
REVALIDATE_SHARE = 0.10
#: Zipf exponent of key popularity.  Request popularity measured on web
#: proxy traces follows a Zipf-like law with an exponent below 1 (0.64 to
#: 0.83 over the traces in Breslau, Cao, Fan, Phillips and Shenker, "Web
#: Caching and Zipf-like Distributions: Evidence and Implications",
#: IEEE INFOCOM 1999); that this service's keys follow it is assumed.
ZIPF_S = 0.8
REPLAY_REQUESTS = 6000
PLAN_KEYS = ("method", "target", "headers", "body", "status", "digest")
SERVER_START_S = 30.0
WARM = (6, 3, 1, 3)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def _feasible(n_values, m_values):
    for n in n_values:
        for m in m_values:
            for low in range(n + 1):
                for high in range(low, n + 1):
                    if m * low <= n <= m * high:
                        yield n, m, low, high


def _task_query(key) -> dict:
    return dict(zip(("n", "m", "low", "high"), map(str, key)))


class RequestStream:
    """The seeded request mix; Zipf ranks follow a seeded shuffle of the
    keys inside the rectangle."""

    def __init__(self, seed: int, store: UniverseStore) -> None:
        self.rng = random.Random(seed)
        self.inside = [
            key
            for key in _feasible(range(1, MAX_N + 1), range(1, MAX_M + 1))
            if store.node_at(*key) is not None
        ]
        self.rng.shuffle(self.inside)
        self.weights = [
            1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.inside))
        ]
        self.outside = list(_feasible(range(MAX_N + 1, 31), range(2, 9)))

    def _zipf(self):
        return self.rng.choices(self.inside, self.weights)[0]

    def _fresh(self) -> tuple:
        kind = self.rng.choices([k for k, _ in MIX], [w for _, w in MIX])[0]
        if kind == "decide":
            return ("GET", "/decide", _task_query(self._zipf()), None)
        if kind == "decide-outside":
            key = self.rng.choice(self.outside)
            return ("GET", "/decide", _task_query(key), None)
        if kind == "cones":
            query = _task_query(self._zipf())
            query["direction"] = self.rng.choice(("both", "harder", "weaker"))
            return ("GET", "/cones", query, None)
        if kind == "reduction-path":
            source, target = self._zipf(), self.rng.choice(self.inside)
            query = {
                "source": ",".join(map(str, source)),
                "target": ",".join(map(str, target)),
            }
            return ("GET", "/reduction-path", query, None)
        if kind == "batch":
            requests = [
                {"endpoint": "decide", "params": _task_query(self._zipf())}
                for _ in range(self.rng.randint(3, 8))
            ]
            return ("POST", "/batch", {}, json.dumps({"requests": requests}))
        return ("GET", "/frontier", {}, None)

    def generate(self, count: int, service: UniverseService) -> list[dict]:
        """``count`` requests with their expected status and body digest."""
        answers: dict[tuple, tuple] = {}
        recent: list[tuple] = []
        out = []
        for _ in range(count):
            if recent and self.rng.random() < REVALIDATE_SHARE:
                method, path, query, body = self.rng.choice(recent)
                plain = (method, path, tuple(sorted(query.items())), body, None)
                etag = answers[plain][2]
            else:
                method, path, query, body = self._fresh()
                etag = None
            key = (method, path, tuple(sorted(query.items())), body, etag)
            if key not in answers:
                response = service.handle(
                    method,
                    path,
                    query,
                    body.encode() if body else None,
                    if_none_match=etag,
                )
                answers[key] = (
                    response.status,
                    hashlib.sha256(response.body_bytes()).hexdigest(),
                    response.etag,
                    (response.payload or {}).get("source"),
                )
            status, digest, own_etag, source = answers[key]
            if etag is None and own_etag is not None:
                recent.append((method, path, query, body))
                del recent[:-200]
            out.append(
                {
                    "method": method,
                    "path": path,
                    "query": query,
                    "body": body,
                    "target": path + ("?" + urlencode(query) if query else ""),
                    "headers": {"If-None-Match": etag} if etag else {},
                    "status": status,
                    "digest": digest,
                    "source": source,
                }
            )
        return out


def _build(root: Path) -> None:
    store = UniverseStore(root)
    store.build(MAX_N, MAX_M)
    store.pack()


class Server:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(self, root: Path, log: Path) -> None:
        with open(log, "w") as handle:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--dir", str(root),
                    "--host", "127.0.0.1", "--port", "0",
                ],
                stdout=handle,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + SERVER_START_S
        while True:
            text = log.read_text()
            if "serving universe store" in text:
                address = text.split(" on http://", 1)[1].split()[0]
                self.host, port = address.rsplit(":", 1)
                self.port = int(port)
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {text[-500:]}")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def _phase_server(phase: dict) -> dict:
    """Service time per endpoint and the other ``/stats`` diffs of a phase.

    ``batch`` sub-requests are recorded as ``decide`` rows inside the
    batch's own time, so busy time counts top-level requests only.  The
    ``/stats`` reads that bracket the phase are left out.
    """
    before, after = phase["stats_before"], phase["stats_after"]
    rows = {}
    for endpoint, row in after["endpoints"].items():
        if endpoint == "stats":
            continue
        old = before["endpoints"].get(endpoint, {})
        requests = row["requests"] - old.get("requests", 0)
        seconds = row["seconds_total"] - old.get("seconds_total", 0.0)
        rows[endpoint] = {
            "requests": requests,
            "seconds": seconds,
            "not_modified": row["not_modified"] - old.get("not_modified", 0),
        }
    transport = {
        name: count - before["transport"][name]
        for name, count in after["transport"].items()
    }
    hot_after = after["caches"]["universe.hot_cells"]
    hot_before = before["caches"]["universe.hot_cells"]
    hits = hot_after["hits"] - hot_before["hits"]
    misses = hot_after["misses"] - hot_before["misses"]
    return {"rows": rows, "transport": transport, "hot": (hits, misses)}


class ServeWorkload:
    def __init__(self, seed: int, seconds: float, workdir) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = Path(workdir)
        self.root = self.workdir / "store"
        self.server: Server | None = None

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        _build(self.root)
        self.server = Server(self.root, self.workdir / "server.log")
        conn = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=30
        )
        batch = {"requests": [{"endpoint": "decide", "params": _task_query(WARM)}]}
        try:
            for method, target, body in (
                ("GET", "/decide?" + urlencode(_task_query(WARM)), None),
                ("GET", "/decide?n=25&m=4&low=0&high=7", None),
                ("GET", "/cones?" + urlencode(_task_query(WARM)), None),
                ("GET", "/reduction-path?source=6,3,1,3&target=6,6,1,1", None),
                ("POST", "/batch", json.dumps(batch)),
                ("GET", "/frontier", None),
                ("GET", "/stats", None),
            ):
                conn.request(method, target, body=body)
                response = conn.getresponse()
                response.read()
                if response.status != 200:
                    raise RuntimeError(
                        f"warm-up {target}: status {response.status}"
                    )
        finally:
            conn.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the ladder ------------------------------------------------------

    def _ladder(self) -> list[tuple[float | None, float]]:
        return [(rate, share * self.seconds) for rate, share in (WARMUP, *LADDER)]

    def _run_ladder(self, requests: list[dict]) -> list[dict]:
        plan_path = self.workdir / "plan.json"
        result_path = self.workdir / "loadgen.json"
        with open(plan_path, "w") as handle:
            json.dump(
                {
                    "host": self.server.host,
                    "port": self.server.port,
                    "ladder": self._ladder(),
                    "requests": [
                        {key: row[key] for key in PLAN_KEYS} for row in requests
                    ],
                },
                handle,
            )
        loadgen = Path(__file__).with_name("loadgen.py")
        subprocess.run(
            [sys.executable, str(loadgen), str(plan_path), str(result_path)],
            check=True,
            timeout=self.seconds * 3 + 60,
        )
        with open(result_path) as handle:
            return json.load(handle)["phases"]

    @staticmethod
    def _phase_parts(phase: dict, requests: list[dict], offset: int) -> dict:
        """The additive parts of one phase: client latencies, ``/stats``
        diffs and the share of decides the pipeline answered."""
        server = _phase_server(phase)
        sent = [
            requests[(offset + index) % len(requests)]
            for index in range(phase["sent"])
        ]
        decides = [row for row in sent if row["path"] == "/decide"]
        rows = server["rows"]
        decide = rows.get("decide", {"requests": 0, "seconds": 0.0})
        busy = sum(
            row["seconds"] for endpoint, row in rows.items() if endpoint != "decide"
        )
        if decide["requests"]:
            busy += decide["seconds"] * len(decides) / decide["requests"]
        return {
            "latency_ms": phase["latency_ms"],
            "p50_ms": percentile(phase["latency_ms"], 0.50),
            "sent": phase["sent"],
            "failed": phase["failed"],
            "failures": phase["failures"],
            "valid": phase["valid"],
            "abandoned": phase["abandoned"],
            "gen_late_p99_ms": phase["gen_late_p99_ms"],
            "gen_cpu_s": phase["gen_cpu_s"],
            "tail_lag_ms": phase["tail_lag_ms"],
            "wall_s": phase["wall_s"],
            "busy_s": busy,
            "service": {
                endpoint: (row["requests"], row["seconds"])
                for endpoint, row in rows.items()
            },
            "transport": server["transport"],
            "not_modified": sum(row["not_modified"] for row in rows.values()),
            "hot": server["hot"],
            "decides": len(decides),
            "pipeline": sum(row["source"] == "pipeline" for row in decides),
        }

    @staticmethod
    def _rate_metrics(rate: int | None, parts: list[dict]) -> dict:
        """One ladder rate over all its phases: summed server figures,
        latencies of the phases whose generator kept its schedule, and
        whether the rate meets the latency limit."""
        timed = [part for part in parts if part["valid"]] or parts
        latency = [value for part in timed for value in part["latency_ms"]]
        sent = sum(part["sent"] for part in parts)
        wall = sum(part["wall_s"] for part in parts)
        busy = sum(part["busy_s"] for part in parts)
        service: dict[str, list] = {}
        for part in parts:
            for endpoint, (requests, seconds) in part["service"].items():
                row = service.setdefault(endpoint, [0, 0.0])
                row[0] += requests
                row[1] += seconds
        transport: dict[str, int] = {}
        for part in parts:
            for name, count in part["transport"].items():
                transport[name] = transport.get(name, 0) + count
        hits = sum(part["hot"][0] for part in parts)
        misses = sum(part["hot"][1] for part in parts)
        decides = sum(part["decides"] for part in parts)
        p99 = percentile(latency, 0.99)
        valid = all(part["valid"] for part in parts)
        return {
            "rate": rate,
            "loop": "open" if rate else "closed",
            "phases": len(parts),
            "valid_phases": sum(part["valid"] for part in parts),
            "sent": sent,
            "phase_p50_ms": [part["p50_ms"] for part in parts],
            "p50_ms": statistics.median(part["p50_ms"] for part in timed),
            "p99_ms": p99,
            "mean_ms": sum(latency) / len(latency),
            "valid": valid,
            "meets_limit": (
                valid
                and p99 <= P99_LIMIT_MS
                and not any(part["abandoned"] for part in parts)
                and all(part["failed"] == 0 for part in parts)
                and max(part["tail_lag_ms"] for part in parts) <= BACKLOG_LIMIT_MS
            ),
            "gen_late_p99_ms": max(part["gen_late_p99_ms"] for part in parts),
            "gen_cpu_s": sum(part["gen_cpu_s"] for part in parts),
            "busy_s": busy,
            "wall_s": wall,
            "service_ms": {
                endpoint: 1000.0 * seconds / requests
                for endpoint, (requests, seconds) in service.items()
                if requests
            },
            "transport": transport,
            "not_modified": sum(part["not_modified"] for part in parts),
            "hot_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "fallback_frac": (
                sum(part["pipeline"] for part in parts) / decides if decides else 0.0
            ),
            "failed": sum(part["failed"] for part in parts),
            "failures": [f for part in parts for f in part["failures"]],
        }

    # -- the traced in-process replay -----------------------------------

    @staticmethod
    def _replay(service: UniverseService, requests, tracer: Tracer) -> float:
        """Seconds to answer ``requests`` in-process, one trace each."""
        started = time.perf_counter()
        with tracer.span("replay", "bench"):
            for row in requests:
                tracer.new_trace()
                endpoint = row["path"].strip("/")
                with tracer.span(f"serve.handle.{endpoint}", "serve"):
                    response = service.handle(
                        row["method"],
                        row["path"],
                        row["query"],
                        row["body"].encode() if row["body"] else None,
                        if_none_match=row["headers"].get("If-None-Match"),
                    )
                with tracer.span("serve.serialize", "serve"):
                    response.body_bytes()
        return time.perf_counter() - started

    @staticmethod
    def _instrument(tracer: Tracer, store: UniverseStore):
        """Wrap the universe and decision entry points the service calls
        with spans; returns the callable that removes the wrappers."""

        def wrap(function, name, layer):
            def traced(*args, **kwargs):
                with tracer.span(name, layer):
                    return function(*args, **kwargs)
            return traced

        undo = []
        for attribute in ("node_at", "load_cached"):
            method = getattr(store, attribute)
            setattr(store, attribute, wrap(method, f"universe.{attribute}", "universe"))
            undo.append(lambda a=attribute: delattr(store, a))
        for attribute, name in (
            ("harder_cone", "universe.cone"),
            ("weaker_cone", "universe.cone"),
            ("reduction_path", "universe.path"),
            ("solvability_frontier", "universe.frontier"),
            ("resolve_key", "universe.resolve_key"),
        ):
            original = getattr(service_module, attribute)
            setattr(service_module, attribute, wrap(original, name, "universe"))
            undo.append(
                lambda a=attribute, o=original: setattr(service_module, a, o)
            )
        original = DecisionPipeline.decide
        DecisionPipeline.decide = wrap(original, "decision.decide", "decision")
        undo.append(lambda: setattr(DecisionPipeline, "decide", original))

        def restore():
            for step in reversed(undo):
                step()
        return restore

    @staticmethod
    def _mean_ms(tracer: Tracer, name: str) -> float:
        count = tracer.count(name)
        return 1000.0 * tracer.total(name) / count if count else 0.0

    def _replay_metrics(self, service, requests) -> tuple[dict, Tracer]:
        sample = requests[:REPLAY_REQUESTS]
        self._replay(service, sample, Tracer(False))  # so both timed runs are warm
        untraced = self._replay(service, sample, Tracer(False))
        tracer = Tracer(True)
        restore = self._instrument(tracer, service.store)
        try:
            traced = self._replay(service, sample, tracer)
        finally:
            restore()
        # Both replays run here, on the same warm service, so their
        # difference is the cost of the spans and their wrappers.
        metrics = layer_breakdown(tracer, traced - untraced)
        metrics["trace.spans"] = len(tracer.spans)
        for endpoint in ENDPOINTS:
            metrics[f"serve.handle_ms.{endpoint}"] = self._mean_ms(
                tracer, f"serve.handle.{endpoint}"
            )
        metrics["serve.serialize_ms"] = self._mean_ms(tracer, "serve.serialize")
        metrics["universe.node_at_us"] = 1000.0 * self._mean_ms(
            tracer, "universe.node_at"
        )
        metrics["universe.cone_ms"] = self._mean_ms(tracer, "universe.cone")
        metrics["universe.path_ms"] = self._mean_ms(tracer, "universe.path")
        metrics["universe.frontier_ms"] = self._mean_ms(tracer, "universe.frontier")
        return metrics, tracer

    # -- measure ---------------------------------------------------------

    def measure(self, traced: bool) -> dict:
        started = time.perf_counter()
        service = UniverseService.open(self.root)
        service.store.load_cached()
        load_s = time.perf_counter() - started
        count = sum(int(rate * seconds) for rate, seconds in self._ladder() if rate)
        requests = RequestStream(self.seed, service.store).generate(count, service)

        warmup, *timed = self._run_ladder(requests)
        by_rate: dict[int, list[dict]] = {}
        offset = warmup["due"]
        for raw in timed:
            by_rate.setdefault(raw["rate"], []).append(
                self._phase_parts(raw, requests, offset)
            )
            offset += raw["due"]
        closed = self._rate_metrics(None, by_rate.pop(None))
        rates = [self._rate_metrics(rate, parts) for rate, parts in by_rate.items()]
        middle = next(r for r in rates if r["rate"] == MIDDLE_RATE)
        passing = [r["rate"] for r in rates if r["meets_limit"]]
        # Warm-up answers are checked like every other.
        attempted = warmup["sent"] + sum(r["sent"] for r in [closed, *rates])
        errors = warmup["failures"] + [
            f for r in [closed, *rates] for f in r["failures"]
        ]
        failed = warmup["failed"] + sum(r["failed"] for r in [closed, *rates])
        if 2 * middle["valid_phases"] < middle["phases"]:
            # The gated latency is read at the middle rate from the phases
            # whose generator kept its schedule; with fewer than half of
            # them left the generator measured itself, not the server.
            errors.append(
                f"middle rate {MIDDLE_RATE}/s: only {middle['valid_phases']} of "
                f"{middle['phases']} phases valid (generator woke "
                f"{middle['gen_late_p99_ms']:.2f} ms late at p99)"
            )
            failed += 1
            attempted += 1

        metrics = {
            "latency_ms": closed["p50_ms"],
            "serve_p50_ms": middle["p50_ms"],
            "serve_p99_ms": middle["p99_ms"],
            "serve_max_rps": float(max(passing)) if passing else 0.0,
        }
        layer = {
            **{
                f"serve.service_ms.{endpoint}": middle["service_ms"].get(endpoint, 0.0)
                for endpoint in ENDPOINTS
            },
            "serve.transport_ms": (
                middle["mean_ms"] - 1000.0 * middle["busy_s"] / middle["sent"]
            ),
            "serve.busy_frac": middle["busy_s"] / middle["wall_s"],
            "serve.shed": sum(r["transport"].get("shed", 0) for r in rates),
            "serve.timeouts": sum(r["transport"].get("timeouts", 0) for r in rates),
            "serve.malformed": sum(r["transport"].get("malformed", 0) for r in rates),
            "serve.not_modified_frac": middle["not_modified"] / middle["sent"],
            "serve.gen_late_ms": max(r["gen_late_p99_ms"] for r in rates),
            "serve.gen_cpu_s": sum(r["gen_cpu_s"] for r in rates),
            "universe.hot_hit_frac": middle["hot_hit_frac"],
            "decision.fallback_frac": middle["fallback_frac"],
            "universe.load_s": load_s,
            "serve.server_rss_mb": self.server.peak_rss_mb(),
        }
        detail = {
            "serve.rates": [
                {key: value for key, value in r.items() if key != "failures"}
                for r in [closed, *rates]
            ],
            "serve.invalid_rates": [r["rate"] for r in rates if not r["valid"]],
            "serve.mix": {
                "shares": dict(MIX),
                "zipf_s": ZIPF_S,
                "revalidate_share": REVALIDATE_SHARE,
            },
        }
        result = {
            "wall": sum(r["wall_s"] for r in [closed, *rates]),
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "detail": detail,
        }
        if not traced:
            detail.update(layer)
            result["metrics"] = metrics
            return result
        replay, tracer = self._replay_metrics(service, requests)
        layer.update(replay)
        detail.update(metrics)
        result["metrics"] = layer
        result["tracer"] = tracer
        return result

