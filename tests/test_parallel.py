"""Tests for the shared worker-pool layer (``repro.utils.parallel``).

The pool's contract is what every parallel kernel's bit-identity rests
on: deterministic index-ordered collection, a serial fallback that is a
plain inline call, exception transparency in both modes (inline and
thread), and one knob resolved argument → env → default (``workers`` via
``$REPRO_WORKERS``).  The kernels themselves are covered where they live
(``test_utils_mathops``, ``test_backend``, ``test_resilience``, the
parallel-scale bench); this file pins the substrate.
"""

import os
import threading

import pytest

from repro.config import UHSCMConfig
from repro.errors import ConfigurationError
from repro.utils.parallel import (
    WORKERS_ENV,
    WorkerPool,
    as_pool,
    resolve_workers,
)


@pytest.fixture(autouse=True)
def _isolated_pool_env(monkeypatch):
    """Eight fake cores + clean pool env for every test.

    The CI tier-1 runner may be a 1- or 2-core box; without the
    ``cpu_count`` patch the new oversubscription clamp would silently
    turn every ``WorkerPool(4)`` below into the serial fallback and the
    pooled assertions would test nothing.  Tests that probe the clamp
    itself re-patch ``cpu_count`` to a smaller value.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv(WORKERS_ENV, raising=False)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert resolve_workers(None) == 6

    def test_default_is_serial(self):
        assert resolve_workers(None) == 1

    def test_blank_env_is_serial(self, monkeypatch):
        # CI sets REPRO_WORKERS='' on non-parallel matrix entries.
        monkeypatch.setenv(WORKERS_ENV, "  ")
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("value", [0, -2, 1])
    def test_subunit_counts_clamp_to_serial(self, value):
        assert resolve_workers(value) == 1

    def test_invalid_env_raises_configuration_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError, match=WORKERS_ENV):
            resolve_workers(None)

    def test_clamps_to_cpu_count_with_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with caplog.at_level("WARNING", logger="repro.parallel"):
            assert resolve_workers(16) == 2
        assert any("clamping" in record.message for record in caplog.records)

    @pytest.mark.parametrize("from_env", [False, True])
    def test_requested_count_survives_clamp_in_stats(
        self, from_env, monkeypatch, caplog
    ):
        # The request is read once and clamped once, whether it came as
        # an argument or from $REPRO_WORKERS.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if from_env:
            monkeypatch.setenv(WORKERS_ENV, "16")
        with caplog.at_level("WARNING", logger="repro.parallel"):
            with WorkerPool(None if from_env else 16) as pool:
                stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["requested"] == 16
        clamps = [r for r in caplog.records if "clamping" in r.message]
        assert len(clamps) == 1


class TestSerialPool:
    def test_submit_runs_inline_on_calling_thread(self):
        pool = WorkerPool(1)
        assert pool.serial
        seen = []
        pool.submit(lambda: seen.append(threading.current_thread()))
        assert seen == [threading.main_thread()]

    def test_result_available_before_close(self):
        pool = WorkerPool(1)
        future = pool.submit(lambda: 41 + 1)
        assert future.result() == 42

    def test_exception_captured_and_reraised_at_result(self):
        pool = WorkerPool(1)

        def boom():
            raise ValueError("inline failure")

        future = pool.submit(boom)  # must NOT raise here
        with pytest.raises(ValueError, match="inline failure"):
            future.result()
        assert pool.stats()["completed"] == 1  # failures still count

    def test_counters(self):
        pool = WorkerPool(0)  # clamps to serial
        pool.map(str, range(5))
        assert pool.stats() == {
            "workers": 1, "requested": 1, "serial": True,
            "submitted": 5, "completed": 5, "rejected": 0,
        }


class TestThreadedPool:
    def test_map_preserves_item_order(self):
        # Delay inversely with index so later items finish first; the
        # collected results must still come back in submission order.
        import time

        def slow_identity(i):
            time.sleep((4 - i) * 0.01)
            return i

        with WorkerPool(4) as pool:
            assert not pool.serial
            assert pool.map(slow_identity, range(5)) == list(range(5))

    def test_exception_propagates_in_item_order(self):
        def maybe_boom(i):
            if i == 2:
                raise RuntimeError("task 2 failed")
            return i

        with WorkerPool(4) as pool:
            with pytest.raises(RuntimeError, match="task 2 failed"):
                pool.map(maybe_boom, range(6))
            stats = pool.stats()
        assert stats["submitted"] == 6  # all dispatched before the raise
        assert stats["completed"] == 6

    def test_work_runs_off_the_calling_thread(self):
        with WorkerPool(2, name="probe") as pool:
            names = pool.map(
                lambda _: threading.current_thread().name, range(4)
            )
        assert all(name.startswith("probe-worker") for name in names)


class TestLifecycle:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_closed_pool_rejects_submissions(self, workers):
        pool = WorkerPool(workers)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            pool.submit(lambda: None)
        assert pool.stats()["rejected"] == 1

    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            pool.submit(lambda: None).result()
        with pytest.raises(ConfigurationError):
            pool.submit(lambda: None)


class TestAsPool:
    def test_instance_passes_through_unowned(self):
        shared = WorkerPool(1)
        pool, owned = as_pool(shared)
        assert pool is shared and not owned
        shared.close()

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_counts_build_owned_pools(self, workers):
        pool, owned = as_pool(workers, name="kernel")
        assert owned
        assert pool.workers == resolve_workers(workers)
        pool.close()


class TestConfigIntegration:
    def test_workers_field_validated(self):
        assert UHSCMConfig(workers=4).workers == 4
        assert UHSCMConfig().workers is None
        with pytest.raises(ConfigurationError, match="workers"):
            UHSCMConfig(workers=0)

    def test_execution_policy_excluded_from_fingerprint(self):
        # Execution policy, not semantics: artifacts built at any worker
        # count are bit-identical, so they must share cache keys.
        serial = UHSCMConfig().fingerprint_payload()
        pooled = UHSCMConfig(workers=8).fingerprint_payload()
        assert serial == pooled
        assert "workers" not in pooled
