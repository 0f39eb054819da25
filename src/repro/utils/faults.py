"""Deterministic fault injection for the resilience layer.

Production failure paths are untestable unless failures can be produced on
demand, identically on every run.  :class:`FaultInjector` is that switch: a
registry of named **injection points** (``"store.read"``, ``"store.write"``
and ``"encode.forward"``) that fault-aware components consult via
:meth:`FaultInjector.check` at the top of the operation the point names.  A disarmed injector — the default everywhere — is a no-op, so
production paths pay one attribute test per operation and nothing else.

Armed, the injector evaluates its **rules**.  Each rule targets one point,
optionally filtered by call context (e.g. ``key=...`` to fail reads of a
single artifact), and fires on a deterministic schedule:

- ``nth=N`` — fail the Nth matching call (1-based), once;
- ``rate=p`` — fail each matching call with probability ``p``, drawn from a
  per-rule generator seeded off the injector seed and the rule's point,
  match and rate (the same schedule on every run, whatever other rules
  the injector holds);
- ``times=K`` — cap the total number of injected failures (``None`` =
  unlimited; the default for ``rate``/bare rules).

A bare rule (no ``nth``/``rate``) fires on every matching call until its
``times`` budget runs out — that is how a permanently failing dependency
is modeled.  Fired rules raise :class:`~repro.errors.TransientError` unless
the rule carries another exception factory.

The injector counts every consulted call and every injected failure per
point (armed only), so tests and the fault-scale bench can assert exactly
how many faults the schedule delivered.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError, TransientError


class FaultRule:
    """One scheduled failure at one injection point.  Built by
    :meth:`FaultInjector.rule`; mutate nothing directly."""

    __slots__ = ("point", "exc", "match", "nth", "rate", "times",
                 "calls", "fired", "_rng")

    def __init__(
        self,
        point: str,
        exc: Callable[[str], BaseException],
        match: dict | None,
        nth: int | None,
        rate: float | None,
        times: int | None,
        rng: np.random.Generator | None,
    ) -> None:
        self.point = point
        self.exc = exc
        self.match = dict(match or {})
        self.nth = nth
        self.rate = rate
        self.times = times
        self.calls = 0
        self.fired = 0
        self._rng = rng

    def matches(self, context: dict) -> bool:
        return all(context.get(k) == v for k, v in self.match.items())

    def should_fire(self) -> bool:
        """Advance this rule's schedule by one matching call."""
        self.calls += 1
        if self.times is not None and self.fired >= self.times:
            return False
        if self.nth is not None:
            fire = self.calls == self.nth
        elif self.rate is not None:
            assert self._rng is not None
            fire = bool(self._rng.random() < self.rate)
        else:
            fire = True
        if fire:
            self.fired += 1
        return fire


class FaultInjector:
    """Named, seeded, armable fault schedule shared across components.

    One injector instance is threaded through every fault-aware component
    of a service (store, batcher), so a single schedule can model a
    correlated outage.  ``arm()`` activates the rules; ``disarm()`` returns
    every injection point to a no-op, leaving counters intact so recovery
    can be asserted afterwards.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.armed = False
        self._rules: list[FaultRule] = []
        #: Calls consulted / failures injected per point, counted while armed.
        self.calls: Counter[str] = Counter()
        self.injected: Counter[str] = Counter()

    def rule(
        self,
        point: str,
        *,
        exc: Callable[[str], BaseException] = TransientError,
        match: dict | None = None,
        nth: int | None = None,
        rate: float | None = None,
        times: int | None = None,
    ) -> FaultRule:
        """Register one failure schedule at ``point``; returns the rule."""
        if not point:
            raise ConfigurationError("injection point name must be non-empty")
        if nth is not None and rate is not None:
            raise ConfigurationError("a rule takes nth= or rate=, not both")
        if nth is not None and nth < 1:
            raise ConfigurationError(f"nth is 1-based, got {nth}")
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
        if times is not None and times < 0:
            raise ConfigurationError(f"times must be >= 0, got {times}")
        rng = None
        if rate is not None:
            # Each rule draws from its own stream, keyed by what the rule is
            # rather than where it sits, so adding, removing or reordering
            # an unrelated rule never re-seeds it.  Identical rules are told
            # apart by their ordinal among themselves.
            identity = (point, sorted((match or {}).items()), rate)
            ordinal = sum((r.point, sorted(r.match.items()), r.rate)
                          == identity for r in self._rules)
            key = hashlib.sha256(repr(identity).encode()).hexdigest()
            rng = np.random.default_rng((self.seed, int(key, 16), ordinal))
        rule = FaultRule(point, exc, match, nth, rate,
                         times if nth is None else (times or 1), rng)
        self._rules.append(rule)
        return rule

    def arm(self) -> "FaultInjector":
        self.armed = True
        return self

    def disarm(self) -> "FaultInjector":
        self.armed = False
        return self

    def clear(self) -> None:
        """Drop every rule and counter (stays armed/disarmed as it was)."""
        self._rules.clear()
        self.calls.clear()
        self.injected.clear()

    def check(self, point: str, **context) -> None:
        """Consult the schedule at ``point``; raises when a rule fires.

        Components call this at the top of the guarded operation, passing
        whatever context their rules might filter on (``key=...``).
        Disarmed, this is a no-op.
        """
        if not self.armed:
            return
        self.calls[point] += 1
        for rule in self._rules:
            if rule.point != point or not rule.matches(context):
                continue
            if rule.should_fire():
                self.injected[point] += 1
                raise rule.exc(
                    f"injected fault at {point}"
                    + (f" {context}" if context else "")
                )

    def stats(self) -> dict:
        """Per-point consult/injection counters plus per-rule fire counts."""
        return {
            "armed": self.armed,
            "calls": dict(self.calls),
            "injected": dict(self.injected),
            "rules": [
                {
                    "point": rule.point,
                    "match": dict(rule.match),
                    "calls": rule.calls,
                    "fired": rule.fired,
                }
                for rule in self._rules
            ],
        }


#: Shared always-disarmed injector: the default ``faults=`` everywhere.
#: Arming this instance is a bug (it would couple unrelated components);
#: build a dedicated injector instead.
NULL_INJECTOR = FaultInjector()
