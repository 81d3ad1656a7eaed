"""Tests for the simulation service (:mod:`repro.service`).

Inline (``workers=0``) jobs cover the lifecycle, the warm-start cache
(exact replay and family seeding) and streaming; the worker-pool tests
shard a 32-member ensemble into 4 scenario blocks across spawn processes
and check the merged trajectory against the in-process lock-step engine.

The pool tests live at module level (picklable requests reference this
module by name), so they also guard against accidental closure capture
in the request vocabulary.
"""

import queue as stdlib_queue

import numpy as np
import pytest

from repro import api
from repro.circuits.devices import Capacitor, CurrentSource, Resistor
from repro.circuits.netlist import Circuit
from repro.dae import VanDerPolDae
from repro.dae.ensemble import EnsembleDAE
from repro.service import (
    Job,
    JobQueue,
    JobState,
    SimulationService,
    WarmStartCache,
)
from repro.transient import TransientOptions


def _envelope_request(t2_stop=20.0, num_steps=40):
    """A cheap van der Pol envelope whose §4.1 init dominates the cost."""
    return api.EnvelopeRequest(
        dae=VanDerPolDae(mu=0.2), t2_start=0.0, t2_stop=t2_stop,
        num_steps=num_steps, unforced_dae=VanDerPolDae(mu=0.2),
        num_t1=25, period_guess=6.28,
    )


def _rc_member(resistance):
    circuit = Circuit(f"rc-{resistance:g}")
    circuit.add(Resistor("R1", "n1", "0", resistance=resistance))
    circuit.add(Capacitor("C1", "n1", "0", capacitance=1e-9))
    circuit.add(CurrentSource("I1", "0", "n1", waveform=1e-3))
    return circuit.to_dae()


def _ensemble_request(batch=8, kernel="auto"):
    members = [_rc_member(r) for r in np.linspace(0.5e3, 2e3, batch)]
    ensemble = EnsembleDAE.from_members(members)
    return api.EnsembleRequest(
        dae=ensemble, x0=np.zeros(ensemble.n), t_start=0.0, t_stop=1e-6,
        options=TransientOptions(dt=1e-8, kernel=kernel),
    )


def _transient_request(t_stop=2.0):
    return api.TransientRequest(
        dae=VanDerPolDae(mu=0.2), x0=np.array([2.0, 0.0]),
        t_start=0.0, t_stop=t_stop,
        options=TransientOptions(integrator="trap", dt=0.02,
                                 checkpoint_every=0),
    )


class TestJobLifecycle:
    def test_inline_job_reaches_done(self):
        with SimulationService(workers=0) as service:
            job = service.submit(_transient_request())
            assert job.state == JobState.DONE
            status = service.status(job.job_id)
            assert status["state"] == "done"
            assert status["kind"] == "transient"
            assert service.result(job.job_id) is job.result

    def test_failed_job_raises_on_result(self):
        request = api.TransientRequest(
            dae=VanDerPolDae(mu=0.2), x0=None, t_start=0.0, t_stop=1.0,
            options=TransientOptions(dt=0.02),
        )
        with SimulationService(workers=0) as service:
            job = service.submit(request)
            assert job.state == JobState.FAILED
            with pytest.raises(Exception):
                service.result(job.job_id)

    def test_cancel_before_run_wins(self):
        job = Job("job-x", _transient_request())
        assert job.cancel() is True
        assert job.state == JobState.CANCELLED
        with pytest.raises(RuntimeError, match="cancelled"):
            job.outcome()

    def test_queue_rejects_duplicates_and_unknown_ids(self):
        registry = JobQueue()
        registry.add(Job("job-0", None))
        with pytest.raises(ValueError, match="duplicate"):
            registry.add(Job("job-0", None))
        with pytest.raises(KeyError):
            registry.get("job-99")
        assert "job-0" in registry and len(registry) == 1

    def test_result_timeout(self):
        registry = JobQueue()
        registry.add(Job("job-0", None))  # never finishes
        with pytest.raises(TimeoutError):
            registry.result("job-0", timeout=0.05)

    def test_closed_service_rejects_submissions(self):
        service = SimulationService(workers=0)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(_transient_request())


class TestWarmStartCache:
    def test_exact_resubmission_replays_bit_identical(self, monkeypatch):
        import repro.service.service as service_module

        executed = []
        execute = service_module.execute_payload

        def counting_execute(*args, **kwargs):
            executed.append(args[0])
            return execute(*args, **kwargs)

        monkeypatch.setattr(service_module, "execute_payload",
                            counting_execute)
        with SimulationService(workers=0) as service:
            first = service.submit(_envelope_request())
            assert not first.cache_hit
            assert len(executed) == 1

            second = service.submit(_envelope_request())
            assert second.cache_hit
            assert second.state == JobState.DONE
            # The replay does no solver work.  Its >= 5x speed-up is
            # timed (mean of 5 replays) by
            # benchmarks/bench_speedup_table.py::_bench_service_warm_envelope.
            assert len(executed) == 1

            a, b = first.result, second.result
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.omega, b.omega)
            assert np.array_equal(a.t2, b.t2)

    def test_family_seed_warm_starts_new_window(self):
        with SimulationService(workers=0) as service:
            cold_job = service.submit(_envelope_request(t2_stop=20.0))
            warm_job = service.submit(
                _envelope_request(t2_stop=30.0, num_steps=60)
            )
            assert not warm_job.cache_hit  # different window, new work
            assert warm_job.warm_hit  # ...but seeded from the family
            cold, warm = cold_job.result, warm_job.result
            # Seeded from the settled orbit: same limit cycle, and the
            # warm run skipped the DC -> settle -> HB prefix entirely.
            np.testing.assert_allclose(
                warm.omega[0], cold.omega[0], rtol=1e-9
            )
            stats = service.cache_stats()
            assert stats["seed_hits"] >= 1

    def test_cache_eviction_is_lru(self):
        cache = WarmStartCache(max_results=2)
        result = api.run(_transient_request(t_stop=0.1))
        assert cache.store_result("k1", result)
        assert cache.store_result("k2", result)
        assert cache.load_result("k1") is not None  # refresh k1
        assert cache.store_result("k3", result)  # evicts k2
        assert cache.load_result("k2") is None
        assert cache.load_result("k1") is not None

    def test_uncacheable_request_still_runs(self):
        request = api.SweepRequest(
            dae_factory=lambda v: VanDerPolDae(mu=float(v)),
            values=np.array([0.2]), period_guess=6.28, method="continuation",
        )
        assert request.cache_key() is None
        with SimulationService(workers=0) as service:
            job = service.submit(request)
            assert job.state == JobState.DONE
            assert job.cache_key is None
            resubmit = service.submit(request)
            assert not resubmit.cache_hit  # no key, no replay


class TestStreaming:
    def test_inline_stream_prefixes_match_final(self):
        with SimulationService(workers=0, stream_every=10) as service:
            job = service.submit(_transient_request(), stream=True)
            final = service.result(job.job_id)
            partials = list(service.stream(job.job_id, poll=0.01))
        assert partials
        for step, _t, partial in partials:
            k = partial.t.size
            assert np.array_equal(partial.t, final.t[:k])
            assert np.array_equal(partial.x, final.x[:k])

    def test_stream_requires_opt_in(self):
        with SimulationService(workers=0) as service:
            job = service.submit(_transient_request())
            with pytest.raises(ValueError, match="stream=True"):
                list(service.stream(job.job_id))

    def test_stream_sink_rides_checkpoint_cadence(self):
        from repro.service.streaming import StreamSink, decode_stream_item

        sink_queue = stdlib_queue.Queue()
        request = _transient_request()
        from repro.service.workers import _with_streaming

        streamed = _with_streaming(
            request, StreamSink(sink_queue), 25
        )
        assert streamed.options.checkpoint_every == 25
        api.run(streamed)
        steps = [decode_stream_item(sink_queue.get_nowait())[0]
                 for _ in range(sink_queue.qsize())]
        assert steps == sorted(steps) and len(steps) >= 3


class TestWorkerPool:
    def test_sharded_ensemble_matches_in_process(self):
        # kernel="python" shards at 8 scenarios per block; batch=32 so
        # the service spreads 4 lock-step blocks across its pool.
        request = _ensemble_request(batch=32, kernel="python")
        shards = request.shards()
        assert shards is not None and len(shards) == 4
        assert all(s.dae.batch_size == 8 for s in shards)
        reference = api.run(request)
        with SimulationService(workers=4) as service:
            job = service.submit(request)
            merged = service.result(job.job_id, timeout=300)
            assert job.shard_count == 4
        assert merged.x.shape == reference.x.shape
        # Scenario blocks march the same fixed-step grid; trajectories
        # agree within solver tolerance.
        np.testing.assert_allclose(
            merged.x, reference.x, rtol=1e-8, atol=1e-12
        )
        assert len(merged.stats["solver_per_scenario"]) == 32

    def test_small_batches_are_not_fragmented(self):
        # The shard size is derived from the resolved kernel; a batch
        # at or below one block runs as a single job instead of being
        # split into per-member slivers.
        assert _ensemble_request(batch=8).shards() is None
        assert _ensemble_request(batch=8, kernel="python").shards() is None

    def test_pooled_single_job_round_trips(self):
        with SimulationService(workers=2) as service:
            job = service.submit(_transient_request(t_stop=1.0))
            pooled = service.result(job.job_id, timeout=300)
        direct = api.run(_transient_request(t_stop=1.0))
        assert np.array_equal(pooled.t, direct.t)
        assert np.array_equal(pooled.x, direct.x)

    def test_unpicklable_request_falls_back_inline(self):
        request = api.SweepRequest(
            dae_factory=lambda v: VanDerPolDae(mu=float(v)),
            values=np.array([0.2]), period_guess=6.28, method="continuation",
        )
        with SimulationService(workers=2) as service:
            assert not service._picklable(request)
            job = service.submit(request)
            assert job.state == JobState.DONE  # ran inline, synchronously
            assert service._pool is None  # pool never spun up
