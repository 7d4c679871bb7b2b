"""Reusable fault injection: named fault points, armed only on demand.

The serving and storage layers compile in *fault points* — named hooks
at the places where real deployments break: the response write path,
the request handler, the store file's reads and commits, a worker's
request loop.
In normal operation every hook costs one attribute read
(``FAULTS.active`` is False and the call site skips the dispatch
entirely); the chaos suite arms a point with an *action* and the next
pass through the hook misbehaves on purpose.

Arming works two ways:

* **in-process** — tests call :meth:`FaultRegistry.install` or the
  :meth:`FaultRegistry.injected` context manager with any callable
  action.  This is how :class:`~repro.serve.http.BackgroundServer`
  chaos tests drive deadline/shed/torn-write behavior: the server
  thread shares the process, so the arm is visible immediately.
* **cross-process** — forked supervisor workers call
  :func:`install_from_env` at startup, parsing the ``REPRO_FAULTS``
  environment variable into built-in actions.  The chaos smoke arms
  ``serve.worker.kill=exit:after=25`` and a worker commits suicide
  mid-load, which is exactly the crash the supervisor must survive.

Spec grammar (``;``-separated arms)::

    REPRO_FAULTS="point=action[:k=v[,k=v]...][;point2=...]"

    serve.worker.kill=exit:after=25        die (os._exit 1) at pass 26
    serve.request.hold=delay:seconds=5     hold every request 5s
    serve.response.write=truncate:keep=10,times=1
    store.read=raise:times=3               3 injected store read errors
    store.write.commit=exit:after=5        die before the 6th store commit

Built-in actions: ``exit`` (``code``), ``raise`` (``message``),
``delay`` (``seconds``), ``truncate`` (``keep`` — truncates the
``payload`` context value).  ``after=N`` skips the first N passes,
``times=M`` disarms after M fires; both compose with any action.

The catalogue of compiled-in points (see ``docs/architecture.md``):

=========================  =========================================
point                      site / effect when armed
=========================  =========================================
``serve.request.hold``     handler thread, before routing — delaying
                           past the deadline forces the 503 path
``serve.response.write``   serialized response bytes — truncate or
                           drop to tear the write mid-flight
``serve.worker.kill``      per request in the connection loop — exit
                           to simulate a worker crash under load
``store.read``             every store-file SQL read — raise to
                           exercise the loud read failure (a ``500``
                           on the serving path, never a fallback)
``store.write.commit``     inside every store write transaction,
                           just before COMMIT — raise to roll the
                           transaction back, exit to crash with it
                           uncommitted
``sweep.lease.commit``     sweep queue, just after a job lease
                           commits — exit to kill a worker that owns
                           undone work (stale-lease requeue window)
``sweep.result.write``     sweep queue, inside the result transaction
                           before commit — exit to kill a worker
                           whose finished work is not yet durable
=========================  =========================================
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "FAULTS",
    "FaultError",
    "FaultRegistry",
    "install_from_env",
]

#: Environment variable forked workers parse at startup.
ENV_VAR = "REPRO_FAULTS"


class FaultError(RuntimeError):
    """The error injected by the built-in ``raise`` action."""


@dataclass
class _Arm:
    """One armed fault point: an action plus fire-window bookkeeping."""

    action: Callable[[dict[str, Any]], Any]
    after: int = 0  #: skip this many passes before firing
    times: int | None = None  #: disarm after this many fires (None = ever)
    seen: int = 0
    fired: int = 0

    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times


class FaultRegistry:
    """Process-wide registry of armed fault points.

    ``active`` is a plain attribute call sites read before dispatching,
    so a disarmed registry costs nothing on the hot path.  Arm/clear
    take a lock (tests arm from the foreground thread while the server
    thread fires), but ``fire`` reads are lock-free: arms are replaced
    wholesale, never mutated structurally.
    """

    def __init__(self) -> None:
        self.active = False
        self._arms: dict[str, _Arm] = {}
        self._lock = threading.Lock()

    # -- arming ----------------------------------------------------------

    def install(
        self,
        point: str,
        action: Callable[[dict[str, Any]], Any],
        *,
        after: int = 0,
        times: int | None = None,
    ) -> None:
        """Arm ``point`` with ``action`` (replacing any previous arm)."""
        with self._lock:
            self._arms[point] = _Arm(action=action, after=after, times=times)
            self.active = True

    def clear(self, point: str | None = None) -> None:
        """Disarm one point, or every point when none is named."""
        with self._lock:
            if point is None:
                self._arms.clear()
            else:
                self._arms.pop(point, None)
            self.active = bool(self._arms)

    @contextmanager
    def injected(
        self,
        point: str,
        action: Callable[[dict[str, Any]], Any],
        *,
        after: int = 0,
        times: int | None = None,
    ) -> Iterator["FaultRegistry"]:
        """Arm for the duration of a ``with`` block, then disarm."""
        self.install(point, action, after=after, times=times)
        try:
            yield self
        finally:
            self.clear(point)

    # -- firing ----------------------------------------------------------

    def fire(self, point: str, **context: Any) -> Any:
        """Dispatch one pass through ``point``.

        Returns the action's result (``None`` when disarmed, skipped by
        ``after``, or exhausted by ``times``); whatever the action
        raises propagates to the call site, which is the point.
        """
        arm = self._arms.get(point)
        if arm is None:
            return None
        arm.seen += 1
        if arm.seen <= arm.after or arm.exhausted():
            return None
        arm.fired += 1
        return arm.action(context)

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-point seen/fired counts (chaos tests assert on these)."""
        with self._lock:
            return {
                point: {"seen": arm.seen, "fired": arm.fired}
                for point, arm in sorted(self._arms.items())
            }


#: The process-wide registry every compiled-in fault point fires on.
FAULTS = FaultRegistry()


# -- built-in actions (the REPRO_FAULTS vocabulary) ----------------------

def _action_exit(params: dict[str, str]) -> Callable:
    code = int(params.get("code", "1"))

    def action(context: dict[str, Any]) -> None:
        # A crash, not an exception: skip atexit/finally exactly like a
        # SIGKILL'd worker would.
        os._exit(code)

    return action


def _action_raise(params: dict[str, str]) -> Callable:
    message = params.get("message", "injected fault")

    def action(context: dict[str, Any]) -> None:
        raise FaultError(message)

    return action


def _action_delay(params: dict[str, str]) -> Callable:
    seconds = float(params.get("seconds", "1"))

    def action(context: dict[str, Any]) -> None:
        time.sleep(seconds)

    return action


def _action_truncate(params: dict[str, str]) -> Callable:
    keep = int(params.get("keep", "0"))

    def action(context: dict[str, Any]) -> Any:
        payload = context.get("payload")
        return None if payload is None else payload[:keep]

    return action


_ACTIONS: dict[str, Callable[[dict[str, str]], Callable]] = {
    "exit": _action_exit,
    "raise": _action_raise,
    "delay": _action_delay,
    "truncate": _action_truncate,
}


def parse_spec(text: str) -> list[tuple[str, Callable, int, int | None]]:
    """Parse a ``REPRO_FAULTS`` spec into installable arms.

    Raises ``ValueError`` on malformed specs — a chaos run with a typo'd
    fault must fail loudly, not silently measure the healthy path.
    """
    arms = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        point, equals, spec = clause.partition("=")
        if not equals or not point.strip():
            raise ValueError(f"malformed fault clause {clause!r}")
        name, _, raw_params = spec.partition(":")
        name = name.strip()
        if name not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {name!r} in {clause!r}; expected one "
                f"of {sorted(_ACTIONS)}"
            )
        params: dict[str, str] = {}
        for pair in raw_params.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, equals, value = pair.partition("=")
            if not equals:
                raise ValueError(f"malformed fault parameter {pair!r}")
            params[key.strip()] = value.strip()
        after = int(params.pop("after", "0"))
        times_raw = params.pop("times", None)
        times = int(times_raw) if times_raw is not None else None
        arms.append((point.strip(), _ACTIONS[name](params), after, times))
    return arms


def install_from_env(
    registry: FaultRegistry | None = None, text: str | None = None
) -> int:
    """Arm ``registry`` from ``REPRO_FAULTS`` (or ``text``); returns arms.

    Called by supervisor workers right after fork, so a chaos harness
    can inject faults into processes it never gets a handle on.
    """
    registry = registry if registry is not None else FAULTS
    text = text if text is not None else os.environ.get(ENV_VAR, "")
    installed = 0
    for point, action, after, times in parse_spec(text):
        registry.install(point, action, after=after, times=times)
        installed += 1
    return installed
