"""The serving tier's one timeout configuration surface.

Every timeout a serving component applies is declared here, once, with
its composition rule — previously these were scattered class attributes
(``WorkloadServer.CLOSE_DRAIN_TIMEOUT``, ``ServerThread.JOIN_TIMEOUT``),
which made it impossible to reason about how a deadline composes with a
drain.  The class attributes still exist (callers and tests override
them per instance), but they are *assigned from* these constants, so
this module is the single place the numbers live.

The composition rules the constants encode:

* ``CONNECT <= REQUEST``: dialing a peer is part of serving a request,
  so a connect may never outlive the request budget it serves.
* ``CLOSE_DRAIN < JOIN``: a bounded close first cancels and drains
  connection handlers (``CLOSE_DRAIN``), then joins the loop thread
  (``JOIN``) — the join bound must leave room for the drain bound plus
  loop teardown, or a close would report a wedged thread that was
  merely draining.
* Per-request :class:`~repro.serving.resilience.Deadline` budgets cap
  every socket operation they cover at ``min(remaining, REQUEST)`` —
  a deadline tightens the static timeouts, never loosens them.
"""

from __future__ import annotations

#: Bound on dialing one peer (the chaos proxy dialing its upstream).
CONNECT_TIMEOUT = 10.0

#: Default per-socket-operation budget of a blocking client request
#: (each frame read/write, not the whole request).
REQUEST_TIMEOUT = 30.0

#: Bound on a server's ``aclose()`` drain of cancelled in-flight
#: connection handlers.
CLOSE_DRAIN_TIMEOUT = 5.0

#: Bound on joining a server's event-loop thread at ``close()``.
JOIN_TIMEOUT = 10.0


def validate() -> None:
    """Assert the documented composition rules (imported by the tests)."""
    if not CONNECT_TIMEOUT <= REQUEST_TIMEOUT:
        raise ValueError("CONNECT_TIMEOUT must not exceed REQUEST_TIMEOUT")
    if not CLOSE_DRAIN_TIMEOUT < JOIN_TIMEOUT:
        raise ValueError(
            "CLOSE_DRAIN_TIMEOUT must leave JOIN_TIMEOUT headroom")
