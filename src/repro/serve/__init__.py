"""Universe-as-a-service: the HTTP read path over a universe store.

The ROADMAP north star is serving ``decide``/``query`` traffic, not
re-running the CLI per question.  This subpackage is that read path:

* :mod:`repro.serve.service` — :class:`UniverseService`, a transport-free
  request router over a read-only :class:`repro.universe.UniverseStore`
  (point lookups are one store row behind a hot-node LRU; cone/frontier
  queries ride the fingerprint-memoized assembled graph).  Responses
  carry ETags keyed on certificate content hashes, so unchanged answers
  revalidate with a ``304`` and no body.
* :mod:`repro.serve.metrics` — :class:`ServiceMetrics`, per-endpoint
  request/error/304/latency counters exposed at ``/stats`` next to the
  process-wide cache counters of :mod:`repro.core.cache_config`.
* :mod:`repro.serve.http` — the stdlib :mod:`asyncio` HTTP/1.1 front end
  (keep-alive, no third-party deps): :func:`serve_forever` behind
  ``python -m repro serve`` and :class:`BackgroundServer`, the threaded
  harness the tests/benchmarks/CI smoke drive real sockets with.  The
  request path is hardened: per-request deadlines, idle/read timeouts
  and a bounded in-flight gate that sheds load with ``503`` +
  ``Retry-After`` (knobs on :class:`ServeConfig`).
* :mod:`repro.serve.supervisor` — the pre-fork multi-worker supervisor
  behind ``serve --workers N``: N forked event loops sharing one port
  (``SO_REUSEPORT`` or an inherited fd), crash detection with
  exponential-backoff restart, SIGTERM graceful drain, SIGHUP rolling
  restart, and a shared :class:`~repro.serve.supervisor.WorkerBoard`
  aggregated at ``/stats``.

The service is deliberately a pure function of ``(method, path, query,
body, if_none_match)`` so the whole contract surface is testable without
opening a socket; the HTTP layer only parses bytes and serializes
:class:`Response`.
"""

from .http import BackgroundServer, ServeConfig, serve_forever
from .metrics import ServiceMetrics
from .service import Response, UniverseService
from .supervisor import SupervisedServer, Supervisor, SupervisorConfig

__all__ = [
    "BackgroundServer",
    "Response",
    "ServeConfig",
    "ServiceMetrics",
    "SupervisedServer",
    "Supervisor",
    "SupervisorConfig",
    "UniverseService",
    "serve_forever",
]
