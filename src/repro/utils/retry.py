"""Resilience primitive: bounded retries.

:class:`RetryPolicy` re-runs an operation that raised a *transient* error —
bounded attempts, exponential backoff, deterministic jitter — with the
clock and sleep injectable so tests and benches never actually wait.

It is deliberately synchronous and allocation-free on the happy path: the
artifact store wraps it around its reads and writes, which are
per-artifact operations, not per-row ones.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError, TransientError

#: Exception types retried by default: injected/declared transients plus
#: the OS-level errors a flaky disk or network filesystem produces.
DEFAULT_RETRY_ON: tuple[type[BaseException], ...] = (TransientError, OSError)


class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (1 = no retry).
    base_delay_s / multiplier / max_delay_s:
        Backoff before attempt ``i`` (2-based) is
        ``min(base_delay_s * multiplier**(i-2), max_delay_s)``, scaled by
        the jitter factor.
    jitter:
        Fractional jitter amplitude: each delay is multiplied by a value
        in ``[1-jitter, 1+jitter]`` drawn from a generator seeded with
        ``seed`` — the same schedule every run, but de-synchronized
        between policy instances with different seeds.
    retry_on:
        Exception types worth retrying; anything else propagates
        immediately (corruption is never transient).
    sleep / clock:
        Injectable so tests pass a no-op sleep; ``clock`` feeds the
        ``last_elapsed_s`` diagnostic.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_s: float = 0.01,
        multiplier: float = 2.0,
        max_delay_s: float = 1.0,
        jitter: float = 0.1,
        seed: int = 0,
        retry_on: tuple[type[BaseException], ...] = DEFAULT_RETRY_ON,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {max_attempts}"
            )
        if base_delay_s < 0 or max_delay_s < 0:
            raise ConfigurationError("delays must be >= 0")
        if multiplier < 1.0:
            raise ConfigurationError(f"multiplier must be >= 1: {multiplier}")
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1): {jitter}")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.retry_on = retry_on
        self._sleep = sleep
        self._clock = clock
        self._rng = np.random.default_rng(seed)
        #: Cumulative number of *re*-tries performed (attempt 1 is free).
        self.retries = 0
        #: Operations that still failed after the final attempt.
        self.exhausted = 0
        self.last_elapsed_s = 0.0

    def delay_s(self, attempt: int) -> float:
        """Backoff before ``attempt`` (2-based); advances the jitter stream."""
        raw = min(
            self.base_delay_s * self.multiplier ** (attempt - 2),
            self.max_delay_s,
        )
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return raw

    def call(self, fn: Callable[[], object], label: str = "operation"):
        """Run ``fn`` under this policy; returns its value.

        Retries only ``retry_on`` exceptions; the final failure re-raises
        the last exception unchanged so callers still see the real type.
        """
        t0 = self._clock()
        try:
            for attempt in range(1, self.max_attempts + 1):
                try:
                    return fn()
                except self.retry_on:
                    if attempt == self.max_attempts:
                        self.exhausted += 1
                        raise
                    self.retries += 1
                    self._sleep(self.delay_s(attempt + 1))
        finally:
            self.last_elapsed_s = self._clock() - t0

    def stats(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "retries": self.retries,
            "exhausted": self.exhausted,
        }

