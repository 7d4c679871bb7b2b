"""The transport-free request router behind ``python -m repro serve``.

:class:`UniverseService` answers every endpoint as a pure function of
``(method, path, query, body, if_none_match)`` returning a
:class:`Response`; the HTTP layer (:mod:`repro.serve.http`) only parses
bytes off the socket and serializes the result.  That split is what the
contract tests pin: the whole endpoint surface is exercised in-process,
and only a thin smoke drives real sockets.

Endpoints (all JSON)::

    GET  /decide?n=&m=&low=&high=      point verdict (one store row; tasks
                                       outside the rectangle fall back to
                                       the structural decision tiers)
    GET  /cones?n=&m=&low=&high=       harder/weaker reachability cones
         [&direction=both|harder|weaker][&kinds=a,b]
    GET  /reduction-path?source=n,m,l,u&target=n,m,l,u[&kinds=a,b]
    GET  /frontier                     per-verdict counts + boundary edges
    POST /batch                        {"requests": [{endpoint, params}]}
    GET  /stats                        service + store + cache counters
    GET  /healthz                      liveness probe

Caching contract: every 200 response carries a strong ETag derived from
the certificate content hashes already in the store — a decide answer
backed by a certificate revalidates on that certificate's id, and
everything else keys on the store fingerprint (which pins the cell set
and overrides, hence every derived answer).  ``If-None-Match`` hits
return ``304`` with no body; any store mutation changes the fingerprint
and therefore every fingerprint-keyed ETag at once.

A store read that fails (an unreadable or corrupt store file) answers
that one request ``500`` with a JSON error naming the file, counted
under the endpoint's errors in ``/stats``; nothing is cached from it, so
the next request reads the store afresh.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.cache_config import cache_stats
from ..sweep.report import campaign_status
from ..universe.persist import UniverseStore
from ..universe.query import (
    harder_cone,
    reduction_path,
    resolve_key,
    solvability_frontier,
    weaker_cone,
)
from ..universe.storefile import StoreError
from .metrics import ServiceMetrics

#: Endpoints the batch endpoint may dispatch to (no nesting, no stats —
#: a batch of batches is a loop the client can write themselves).
BATCHABLE = ("decide", "cones", "reduction-path", "frontier")


@dataclass(frozen=True)
class Response:
    """One endpoint answer, still transport-free."""

    status: int
    payload: Any = None  # JSON-serializable; None for 304
    etag: str | None = None
    #: Advisory back-off seconds; serialized as a ``Retry-After`` header
    #: on the 503s the overload/deadline paths emit.
    retry_after: int | None = None

    def body_bytes(self) -> bytes:
        if self.status == 304 or self.payload is None:
            return b""
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode(
            "utf-8"
        )


def _etag(*parts: str) -> str:
    """A strong ETag: quoted sha256 prefix of the identifying content."""
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return f'"{digest[:32]}"'


def _int_param(query: Mapping[str, str], name: str) -> int:
    if name not in query:
        raise _BadRequest(f"missing required parameter {name!r}")
    try:
        return int(query[name])
    except ValueError:
        raise _BadRequest(
            f"parameter {name!r} must be an integer, got {query[name]!r}"
        ) from None


def _task_param(query: Mapping[str, str], name: str) -> tuple[int, int, int, int]:
    if name not in query:
        raise _BadRequest(f"missing required parameter {name!r}")
    parts = query[name].split(",")
    if len(parts) != 4:
        raise _BadRequest(f"parameter {name!r} must be 'n,m,low,high'")
    try:
        return tuple(int(part) for part in parts)  # type: ignore[return-value]
    except ValueError:
        raise _BadRequest(
            f"parameter {name!r} must be 'n,m,low,high' integers"
        ) from None


def _kinds_param(query: Mapping[str, str]) -> tuple[str, ...] | None:
    raw = query.get("kinds")
    if raw is None or raw == "":
        return None
    return tuple(part for part in raw.split(",") if part)


class _BadRequest(ValueError):
    """Parameter parse/validation failure → 400 with the message."""


class _NotFound(LookupError):
    """Key outside the built rectangle / unknown path → 404."""


class UniverseService:
    """Read-only query service over one universe store.

    ``store`` is normally :meth:`UniverseStore.open_readonly` output so
    the store connection, hot-node LRU and fingerprint-memoized graph are
    shared with every other call site in the process.  The decision
    pipeline fallback (for tasks outside the built rectangle) runs the
    *structural* tiers only — no empirical search on the serving path,
    so a decide request is always bounded work.
    """

    def __init__(
        self,
        store: UniverseStore,
        metrics: ServiceMetrics | None = None,
        extra_stats: Any = None,
    ) -> None:
        self.store = store
        self.metrics = metrics or ServiceMetrics()
        self.started = time.time()
        self._pipeline = None
        #: Optional zero-argument callable returning a JSON-serializable
        #: dict merged into ``/stats`` under ``"workers"`` — supervisor
        #: workers plug the shared worker board in here.
        self.extra_stats = extra_stats

    @classmethod
    def open(
        cls,
        root,
        metrics: ServiceMetrics | None = None,
        extra_stats: Any = None,
    ) -> "UniverseService":
        return cls(
            UniverseStore.open_readonly(root),
            metrics=metrics,
            extra_stats=extra_stats,
        )

    # -- the single entry point -----------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: Mapping[str, str] | None = None,
        body: bytes | None = None,
        if_none_match: str | None = None,
    ) -> Response:
        """Route one request; never raises for client-attributable input."""
        started = time.perf_counter()
        query = query or {}
        endpoint = path.strip("/") or "<root>"
        try:
            response = self._route(method, endpoint, query, body)
        except _BadRequest as error:
            response = Response(400, {"error": str(error)})
        except _NotFound as error:
            response = Response(404, {"error": str(error)})
        except json.JSONDecodeError as error:
            response = Response(400, {"error": f"invalid JSON body: {error}"})
        except StoreError as error:
            response = Response(500, {"error": str(error)})
        if (
            response.status == 200
            and response.etag is not None
            and if_none_match is not None
            and response.etag in [
                tag.strip() for tag in if_none_match.split(",")
            ]
        ):
            response = Response(304, None, etag=response.etag)
        self.metrics.record(
            endpoint, response.status, time.perf_counter() - started
        )
        return response

    def _route(
        self,
        method: str,
        endpoint: str,
        query: Mapping[str, str],
        body: bytes | None,
    ) -> Response:
        if endpoint == "batch":
            if method != "POST":
                return Response(
                    405, {"error": "batch requires POST"}
                )
            return self._batch(body)
        if method != "GET":
            return Response(405, {"error": f"{endpoint} requires GET"})
        if endpoint == "decide":
            return self._decide(query)
        if endpoint == "cones":
            return self._cones(query)
        if endpoint == "reduction-path":
            return self._reduction_path(query)
        if endpoint == "frontier":
            return self._frontier(query)
        if endpoint == "stats":
            return self._stats()
        if endpoint == "healthz":
            return Response(200, {"status": "ok"})
        raise _NotFound(f"unknown endpoint /{endpoint}")

    # -- endpoints ------------------------------------------------------

    def _decide(self, query: Mapping[str, str]) -> Response:
        n = _int_param(query, "n")
        m = _int_param(query, "m")
        low = _int_param(query, "low")
        high = _int_param(query, "high")
        try:
            node = self.store.node_at(n, m, low, high)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        if node is not None:
            payload = {
                "task": [n, m, low, high],
                "canonical": list(node.key),
                "solvability": node.solvability,
                "reason": node.reason,
                "certificate_id": node.certificate_id or None,
                "source": "universe",
            }
            # A certificate pins the answer by content; an uncertified
            # verdict is pinned by the store fingerprint instead (any
            # rebuild/sweep that could change it changes the fingerprint).
            basis = node.certificate_id or self.store.fingerprint()
            etag = _etag("decide", basis, str(node.key), node.solvability)
            return Response(200, payload, etag=etag)
        verdict = self._fallback_pipeline().decide(n, m, low, high)
        payload = {
            "task": [n, m, low, high],
            "canonical": list(verdict.canonical),
            "solvability": verdict.solvability.value,
            "reason": verdict.reason,
            "certificate_id": verdict.certificate_id or None,
            "source": "pipeline",
            "tier": verdict.tier,
            "procedure": verdict.procedure,
        }
        basis = verdict.certificate_id or self.store.fingerprint()
        etag = _etag(
            "decide", basis, str(verdict.canonical), verdict.solvability.value
        )
        return Response(200, payload, etag=etag)

    def _fallback_pipeline(self):
        """Structural-tiers-only pipeline for out-of-rectangle decides."""
        if self._pipeline is None:
            from ..decision.pipeline import DecisionPipeline
            from ..decision.procedures import DecisionBudget

            self._pipeline = DecisionPipeline(
                budget=DecisionBudget(max_empirical_n=0), cache=None
            )
        return self._pipeline

    def _resolve(self, query: Mapping[str, str]):
        graph = self.store.load_cached()
        n = _int_param(query, "n")
        m = _int_param(query, "m")
        low = _int_param(query, "low")
        high = _int_param(query, "high")
        try:
            return graph, resolve_key(graph, n, m, low, high)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        except KeyError as error:
            raise _NotFound(str(error).strip('"')) from None

    def _cones(self, query: Mapping[str, str]) -> Response:
        graph, key = self._resolve(query)
        kinds = _kinds_param(query)
        direction = query.get("direction", "both")
        if direction not in ("both", "harder", "weaker"):
            raise _BadRequest(
                "direction must be one of both|harder|weaker, got "
                f"{direction!r}"
            )
        payload: dict[str, Any] = {"key": list(key)}
        if direction in ("both", "harder"):
            payload["harder"] = [
                list(other) for other in harder_cone(graph, key, kinds=kinds)
            ]
        if direction in ("both", "weaker"):
            payload["weaker"] = [
                list(other) for other in weaker_cone(graph, key, kinds=kinds)
            ]
        etag = _etag(
            "cones",
            self.store.fingerprint(),
            str(key),
            direction,
            str(kinds),
        )
        return Response(200, payload, etag=etag)

    def _reduction_path(self, query: Mapping[str, str]) -> Response:
        graph = self.store.load_cached()
        source = _task_param(query, "source")
        target = _task_param(query, "target")
        kinds = _kinds_param(query)
        try:
            source_key = resolve_key(graph, *source)
            target_key = resolve_key(graph, *target)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        except KeyError as error:
            raise _NotFound(str(error).strip('"')) from None
        path = reduction_path(graph, source_key, target_key, kinds=kinds)
        payload = {
            "source": list(source_key),
            "target": list(target_key),
            "path": (
                None
                if path is None
                else [
                    {
                        "source": list(edge.source),
                        "target": list(edge.target),
                        "kind": edge.kind,
                    }
                    for edge in path
                ]
            ),
        }
        etag = _etag(
            "reduction-path",
            self.store.fingerprint(),
            str(source_key),
            str(target_key),
            str(kinds),
        )
        return Response(200, payload, etag=etag)

    def _frontier(self, query: Mapping[str, str]) -> Response:
        graph = self.store.load_cached()
        report = solvability_frontier(graph)
        payload = {
            "counts": report.counts,
            "solvable_nodes": report.solvable_nodes,
            "boundary": [
                {
                    "source": list(edge.source),
                    "target": list(edge.target),
                    "kind": edge.kind,
                }
                for edge in report.boundary
            ],
        }
        etag = _etag("frontier", self.store.fingerprint())
        return Response(200, payload, etag=etag)

    def _batch(self, body: bytes | None) -> Response:
        document = json.loads((body or b"").decode("utf-8") or "null")
        if (
            not isinstance(document, dict)
            or not isinstance(document.get("requests"), list)
        ):
            raise _BadRequest('batch body must be {"requests": [...]}')
        responses = []
        for index, request in enumerate(document["requests"]):
            if not isinstance(request, dict):
                responses.append(
                    {"status": 400, "body": {"error": "request must be an object"}}
                )
                continue
            endpoint = request.get("endpoint")
            if endpoint not in BATCHABLE:
                responses.append(
                    {
                        "status": 400,
                        "body": {
                            "error": (
                                f"endpoint {endpoint!r} is not batchable; "
                                f"expected one of {list(BATCHABLE)}"
                            )
                        },
                    }
                )
                continue
            params = request.get("params", {})
            if not isinstance(params, dict):
                responses.append(
                    {"status": 400, "body": {"error": "params must be an object"}}
                )
                continue
            sub = self.handle(
                "GET",
                f"/{endpoint}",
                {key: str(value) for key, value in params.items()},
            )
            responses.append({"status": sub.status, "body": sub.payload})
        return Response(200, {"responses": responses})

    def _stats(self) -> Response:
        store_stats = self.store.stats()
        store_stats["fingerprint"] = self.store.fingerprint()
        payload = {
            "uptime_seconds": time.time() - self.started,
            "endpoints": self.metrics.snapshot(),
            "transport": self.metrics.transport_snapshot(),
            "store": store_stats,
            "caches": cache_stats(),
        }
        sweep = campaign_status(self.store, count_open=False)
        if sweep is not None:
            payload["sweep"] = sweep
        if self.extra_stats is not None:
            payload["workers"] = self.extra_stats()
        return Response(200, payload)
