"""Deadlines, bounded retries, and circuit breaking for the client edge.

This module makes the client edge self-healing: a server that dies or
stalls mid-request costs a retry, not an error.  Three small,
composable pieces:

:class:`Deadline`
    A per-request time budget on the monotonic clock.  It flows into
    every blocking socket operation a request performs
    (``min(remaining, static timeout)`` — a deadline tightens timeouts,
    never loosens them), travels to the server as the optional
    ``deadline_ms`` field on workload frames, and lets admission
    control shed queued work nobody is waiting for anymore.

:class:`RetryPolicy`
    Bounded attempts with exponential backoff and **seeded** jitter —
    the same policy object always produces the same delay sequence, so
    chaos tests and CI replay identically.  Classification is explicit:
    transport failures (``OSError``, a byte stream dying mid-frame)
    are retryable because evaluation is pure and instances are
    content-addressed — replaying a workload re-sends refs, and the
    ``need_instances`` negotiation re-ships the corpus if the server
    restarted empty.  Peer-reported request failures, protocol bugs,
    and expired deadlines are not retryable: they would fail again.

:class:`CircuitBreaker`
    After K consecutive failures the backend stops dialing a peer that
    is down and fails fast with
    :class:`~repro.errors.ServiceUnavailable`; after a cooldown one
    half-open probe is allowed through, and its outcome closes or
    re-opens the circuit.

Everything here is synchronous by design — it runs on the blocking
client edge (:class:`~repro.serving.net.WorkloadClient`,
:class:`~repro.learning.backend.RemoteBackend`), never inside the
server's event loop (the async tier sheds by deadline instead of
sleeping; see :class:`~repro.serving.net.ShardGate`).
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable, Iterator
from typing import Any

from repro.errors import DeadlineExceeded, ServiceUnavailable

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "RetryPolicy",
    "ServiceUnavailable",
    "default_retryable",
]


class Deadline:
    """A point on the monotonic clock a request must not outlive."""

    __slots__ = ("_at",)

    def __init__(self, at: float) -> None:
        self._at = at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline ``seconds`` from now."""
        if seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds!r}")
        return cls(time.monotonic() + seconds)

    # ------------------------------------------------------------------
    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self._at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._at

    def check(self, doing: str = "request") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` if expired."""
        if self.expired:
            raise DeadlineExceeded(f"deadline exceeded while {doing}")

    def io_timeout(self, cap: float | None = None,
                   doing: str = "waiting for the peer") -> float:
        """The socket timeout this deadline imposes: ``min(remaining, cap)``.

        Raises :class:`~repro.errors.DeadlineExceeded` instead of
        returning a zero (or negative) timeout — a blocking call with no
        budget left must not be issued at all.
        """
        remaining = self.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(f"deadline exceeded before {doing}")
        return remaining if cap is None else min(remaining, cap)

    def ms(self) -> int:
        """Whole milliseconds left, rounded up (the wire ``deadline_ms``)."""
        return int(math.ceil(self.remaining() * 1000))

    def __repr__(self) -> str:
        return f"<Deadline remaining={self.remaining():.3f}s>"


def default_retryable(exc: BaseException) -> bool:
    """The default transient-vs-permanent classification.

    Retryable: every :class:`OSError` (connection refused/reset, socket
    timeouts, broken pipes) and
    :class:`~repro.serving.wire.TransportError` (the byte stream died
    mid-frame — truncation, unexpected EOF).  Not retryable: peer-
    reported failures (:class:`~repro.serving.wire.RemoteError` — the
    request itself is bad and would fail again), other protocol errors
    (a peer not speaking the protocol), expired deadlines, and every
    other :class:`~repro.errors.ReproError`.
    """
    # Imported here, not at module top: wire imports nothing from this
    # module, but keeping the one-way dependency explicit costs nothing
    # and the classification is called at failure time, never hot.
    from repro.serving.wire import RemoteError, TransportError

    if isinstance(exc, (DeadlineExceeded, ServiceUnavailable, RemoteError)):
        return False
    if isinstance(exc, TransportError):
        return True
    if isinstance(exc, OSError):
        return True
    return False


class RetryPolicy:
    """Bounded attempts, exponential backoff, seeded jitter.

    ``max_attempts`` counts *attempts*, not retries: the default 3 means
    one try plus at most two recoveries.  Delays between attempts are
    ``base_delay * multiplier**k`` capped at ``max_delay``, each scaled
    by a jitter factor drawn from ``random.Random(seed)`` — two calls
    under equal policies sleep identically, which is what makes chaos
    runs reproducible.  ``retryable`` may be overridden per policy
    (defaults to :func:`default_retryable`).
    """

    __slots__ = ("max_attempts", "base_delay", "multiplier", "max_delay",
                 "jitter", "seed", "retryable")

    def __init__(self, *, max_attempts: int = 3, base_delay: float = 0.05,
                 multiplier: float = 2.0, max_delay: float = 2.0,
                 jitter: float = 0.1, seed: int = 0,
                 retryable: Callable[[BaseException], bool] | None = None,
                 ) -> None:
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts!r}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed
        self.retryable = retryable if retryable is not None \
            else default_retryable

    def delays(self) -> Iterator[float]:
        """The (deterministic) sleep before each recovery attempt."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            scale = 1.0 + (self.jitter * (2.0 * rng.random() - 1.0))
            yield min(delay, self.max_delay) * scale
            delay *= self.multiplier

    def call(self, fn: Callable[[], Any], *,
             deadline: Deadline | None = None,
             on_retry: Callable[[BaseException], None] | None = None) -> Any:
        """Run ``fn`` under this policy; the retry loop in one place.

        A failure that is not retryable, or that leaves no attempt in
        the budget, is re-raised.  One that the deadline leaves no room
        to back off from raises
        :class:`~repro.errors.DeadlineExceeded`, chained to it.
        ``on_retry`` fires once per recovery (after the backoff sleep),
        with the exception being recovered from — the hook counters and
        reconnects hang off.
        """
        delays = self.delays()
        attempts = 1
        while True:
            try:
                return fn()
            except Exception as exc:  # noqa: BLE001 - reclassified below
                delay = next(delays, None)
                if not self.retryable(exc) or delay is None:
                    raise
                if deadline is not None:
                    if deadline.remaining() <= delay:
                        raise DeadlineExceeded(
                            f"deadline exceeded after {attempts} "
                            f"attempt(s): {exc}") from exc
                    # A sleep never eats the whole remaining budget.
                    delay = min(delay, deadline.remaining() / 2.0)
                if delay > 0:
                    time.sleep(delay)
                attempts += 1
                if on_retry is not None:
                    on_retry(exc)

    def __repr__(self) -> str:
        return (f"<RetryPolicy attempts={self.max_attempts} "
                f"base={self.base_delay}s x{self.multiplier} "
                f"cap={self.max_delay}s seed={self.seed}>")


class CircuitBreaker:
    """Fail fast after K consecutive failures; probe after a cooldown.

    States: ``closed`` (normal), ``open`` (every :meth:`guard` raises
    :class:`~repro.errors.ServiceUnavailable` without touching the
    network), ``half_open`` (cooldown elapsed — exactly one caller is
    let through as the probe; its success closes the circuit, its
    failure re-opens it and restarts the cooldown).  Single-threaded by
    design, like the client edge it protects.
    """

    __slots__ = ("failure_threshold", "reset_after", "_clock",
                 "_consecutive", "_opened_at", "_probing", "opens")

    def __init__(self, *, failure_threshold: int = 5,
                 reset_after: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, "
                             f"got {failure_threshold!r}")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._consecutive = 0
        self._opened_at: float | None = None
        self._probing = False
        #: Times the circuit has opened (observability).
        self.opens = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (cooldown elapsed)."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_after:
            return "half_open"
        return "open"

    def guard(self, peer: str = "peer") -> None:
        """Gate one request.  Raises when the circuit refuses it.

        In ``half_open`` the first guarded caller becomes the probe
        (allowed through); callers arriving while the probe is still
        outstanding are refused like the circuit were open.
        """
        state = self.state
        if state == "closed":
            return
        if state == "half_open" and not self._probing:
            self._probing = True
            return
        raise ServiceUnavailable(
            f"circuit breaker is {state} for {peer} after "
            f"{self._consecutive} consecutive failure(s); "
            f"retry after {self.reset_after}s")

    def record_success(self) -> None:
        self._consecutive = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._consecutive += 1
        self._probing = False
        if self._consecutive >= self.failure_threshold:
            if self._opened_at is None:
                self.opens += 1
            self._opened_at = self._clock()

    def stats(self) -> dict[str, object]:
        """JSON-encodable snapshot for ``stats()`` surfaces."""
        return {"state": self.state, "consecutive_failures":
                self._consecutive, "opens": self.opens,
                "failure_threshold": self.failure_threshold,
                "reset_after": self.reset_after}

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.state} "
                f"failures={self._consecutive}/{self.failure_threshold}>")
