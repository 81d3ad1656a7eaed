"""Tests for the unified request/result API (:mod:`repro.api`).

Covers the serialization protocol (``to_dict``/``from_dict`` round-trips
bit-identically), the content-key scheme (construction-order
independence for circuits), the ``run()`` dispatcher, warm-start
adoption, CLI-vs-API parity (the ``vco`` subcommand and a
programmatic :class:`EnvelopeRequest` must produce bit-identical
trajectories), and ensemble sharding: shard sizes and the merge.
"""

import numpy as np
import pytest

from repro import api
from repro.api.serialize import SerializationError, to_jsonable
from repro.circuits.devices import Capacitor, CurrentSource, Resistor
from repro.circuits.netlist import Circuit
from repro.dae import VanDerPolDae
from repro.errors import ConfigurationError, SimulationError
from repro.kernels.backends import probe_cc
from repro.service.keys import content_key
from repro.transient import TransientOptions, simulate_transient


def _rc_circuit(order):
    """An RC one-pole built with its devices added in ``order``."""
    devices = {
        "R1": Resistor("R1", "n1", "0", resistance=1e3),
        "C1": Capacitor("C1", "n1", "0", capacitance=1e-9),
        "I1": CurrentSource("I1", "0", "n1", waveform=1e-3),
    }
    circuit = Circuit("rc")
    for name in order:
        circuit.add(devices[name])
    return circuit


def _vdp_transient_request(t_stop=4.0):
    return api.TransientRequest(
        dae=VanDerPolDae(mu=0.2), x0=np.array([2.0, 0.0]),
        t_start=0.0, t_stop=t_stop,
        options=TransientOptions(integrator="trap", dt=0.02),
    )


class TestResultRoundTrip:
    def test_transient_result_bit_identical(self):
        result = api.run(_vdp_transient_request())
        clone = type(result).from_dict(result.to_dict())
        assert np.array_equal(clone.t, result.t)
        assert np.array_equal(clone.x, result.x)
        assert clone.variable_names == result.variable_names
        # stats carries arrays (the warm-start snapshot); compare the
        # canonical serial forms instead of dict equality.
        from repro.api.serialize import canonical_json

        assert (canonical_json(to_jsonable(clone.stats))
                == canonical_json(to_jsonable(result.stats)))

    def test_result_has_stats_dict(self):
        result = api.run(_vdp_transient_request())
        assert isinstance(result.stats, dict)
        assert "solver" in result.stats

    def test_request_round_trip(self):
        request = api.EnvelopeRequest(
            dae=VanDerPolDae(mu=0.2), t2_stop=10.0, num_steps=20,
            initial_samples=np.ones((25, 2)), omega0=0.16,
        )
        clone = api.request_from_dict(request.to_dict())
        assert isinstance(clone, api.EnvelopeRequest)
        assert np.array_equal(clone.initial_samples,
                              request.initial_samples)
        assert clone.omega0 == request.omega0
        assert clone.num_steps == request.num_steps

    def test_request_from_dict_rejects_non_request(self):
        with pytest.raises(SerializationError, match="AnalysisRequest"):
            api.request_from_dict(to_jsonable({"a": 1}))

    def test_lambda_factory_not_serializable(self):
        request = api.SweepRequest(
            dae_factory=lambda v: VanDerPolDae(mu=v),
            values=np.array([0.1, 0.2]), period_guess=6.28,
        )
        assert request.cache_key() is None
        with pytest.raises(SerializationError):
            request.to_dict()


class TestContentKeys:
    def test_circuit_key_order_independent(self):
        key_a = content_key(_rc_circuit(["R1", "C1", "I1"]))
        key_b = content_key(_rc_circuit(["I1", "R1", "C1"]))
        assert key_a is not None  # guard: None == None is not a pass
        assert key_a == key_b

    def test_circuit_key_sees_parameter_change(self):
        base = content_key(_rc_circuit(["R1", "C1", "I1"]))
        other = Circuit("rc")
        other.add(Resistor("R1", "n1", "0", resistance=2e3))
        other.add(Capacitor("C1", "n1", "0", capacitance=1e-9))
        other.add(CurrentSource("I1", "0", "n1", waveform=1e-3))
        assert base is not None
        assert content_key(other) != base

    def test_scope_namespaces_keys(self):
        circuit = _rc_circuit(["R1", "C1", "I1"])
        assert (content_key(circuit, scope="request/x")
                != content_key(circuit, scope="seed/x"))

    def test_request_keys_stable_across_instances(self):
        assert (_vdp_transient_request().cache_key()
                == _vdp_transient_request().cache_key())
        assert _vdp_transient_request().cache_key() is not None

    def test_different_windows_different_cache_same_seed(self):
        a = api.EnvelopeRequest(
            dae=VanDerPolDae(mu=0.2), t2_stop=10.0, num_steps=20,
            unforced_dae=VanDerPolDae(mu=0.2), period_guess=6.28,
        )
        b = api.EnvelopeRequest(
            dae=VanDerPolDae(mu=0.2), t2_stop=15.0, num_steps=30,
            unforced_dae=VanDerPolDae(mu=0.2), period_guess=6.28,
        )
        assert a.cache_key() != b.cache_key()
        assert a.seed_key() is not None
        assert a.seed_key() == b.seed_key()


class TestRunDispatcher:
    def test_rejects_non_request(self):
        with pytest.raises(TypeError, match="AnalysisRequest"):
            api.run({"kind": "transient"})

    def test_transient_request_matches_engine_call(self):
        request = _vdp_transient_request()
        via_api = api.run(request)
        direct = simulate_transient(
            VanDerPolDae(mu=0.2), np.array([2.0, 0.0]), 0.0, 4.0,
            TransientOptions(integrator="trap", dt=0.02),
        )
        assert np.array_equal(via_api.t, direct.t)
        assert np.array_equal(via_api.x, direct.x)

    def test_hb_request_rejects_unknown_mode(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="mode"):
            api.run(api.HBRequest(dae=VanDerPolDae(mu=0.2), mode="wrong"))


class TestWarmStart:
    def test_transient_warm_run_skips_factorization(self):
        request = _vdp_transient_request()
        cold = api.run(request)
        assert cold.stats["solver"]["factorizations"] >= 1
        seed = request.extract_warm_start(cold)
        assert seed is not None
        warm = api.run(
            api.TransientRequest(
                dae=VanDerPolDae(mu=0.2), x0=None, t_start=4.0, t_stop=8.0,
                options=TransientOptions(integrator="trap", dt=0.02),
            ),
            warm_start=seed,
        )
        # The warm run continues from the cold run's final state and
        # adopts its frozen factorisation: zero new factorizations.
        assert warm.stats["solver"]["factorizations"] == 0
        assert np.array_equal(warm.x[0], cold.x[-1])

    def test_envelope_seed_skips_initial_condition(self):
        request = api.EnvelopeRequest(
            dae=VanDerPolDae(mu=0.2), t2_stop=10.0, num_steps=20,
            unforced_dae=VanDerPolDae(mu=0.2), period_guess=6.28,
        )
        cold = api.run(request)
        seed = request.extract_warm_start(cold)
        assert seed.samples is not None and seed.omega0 is not None
        warm = api.run(request, warm_start=seed)
        # Same oscillator, same grid: the seeded solve lands on the same
        # envelope within solver tolerance.
        np.testing.assert_allclose(warm.omega, cold.omega, rtol=1e-6)


class TestCliApiParity:
    def test_vco_csv_bit_identical_with_api(self, capsys, tmp_path):
        """The CLI and a hand-built EnvelopeRequest agree to the bit."""
        from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
        from repro.cli import main
        from repro.wampde import WampdeEnvelopeOptions

        cli_dir = tmp_path / "cli"
        cli_dir.mkdir()
        assert main([
            "vco", "--variant", "vacuum",
            "--horizon", "5e-6", "--steps", "50", "--csv", str(cli_dir),
        ]) == 0
        capsys.readouterr()

        params = VcoParams.vacuum()
        env = api.run(api.EnvelopeRequest(
            dae=MemsVcoDae(params), t2_start=0.0, t2_stop=5e-6,
            num_steps=50,
            unforced_dae=MemsVcoDae(params, constant_control=True),
            num_t1=25, period_guess=T_NOMINAL,
            options=WampdeEnvelopeOptions(),
        ))
        from repro.utils import write_csv

        api_dir = tmp_path / "api"
        api_dir.mkdir()
        write_csv(api_dir / "vco_vacuum_frequency.csv",
                  ["t2_s", "frequency_hz"], [env.t2, env.omega])
        assert ((cli_dir / "vco_vacuum_frequency.csv").read_bytes()
                == (api_dir / "vco_vacuum_frequency.csv").read_bytes())

    def test_workers_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["vco", "--workers", "4"])
        assert args.workers == 4


def _vdp_ensemble_request(batch, t_stop=0.1, **options):
    from repro.dae import ensemble_from_factory

    mus = np.linspace(0.1, 0.7, batch)
    ensemble = ensemble_from_factory(
        lambda mu: VanDerPolDae(mu=mu), mus,
        lambda stack: VanDerPolDae(mu=np.asarray(stack)),
    )
    return api.EnsembleRequest(
        dae=ensemble, x0=np.tile([2.0, 0.0], (batch, 1)), t_start=0.0,
        t_stop=t_stop, options=TransientOptions(**{"dt": 0.02, **options}),
    )


class TestEnsembleShards:
    """Shard sizes follow the kernel mode the run resolves to: 8 scenarios
    for the NumPy lock-step march, 64 for the compiled one."""

    def test_python_kernel_shards_in_blocks_of_8(self):
        shards = _vdp_ensemble_request(20, kernel="python").shards()
        assert [s.dae.batch_size for s in shards] == [8, 8, 4]
        # Shards carry their scenario slice of x0.
        assert shards[-1].x0.shape == (4, 2)

    @pytest.mark.skipif(not probe_cc(), reason="no C compiler on PATH")
    def test_compiled_kernel_takes_larger_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert _vdp_ensemble_request(60, kernel="auto").shards() is None
        shards = _vdp_ensemble_request(130, kernel="auto").shards()
        assert [s.dae.batch_size for s in shards] == [64, 64, 2]

    def test_shard_size_follows_resolved_kernel(self, monkeypatch):
        # "auto" that resolves to the NumPy march shards like "python".
        monkeypatch.setenv("REPRO_KERNEL", "python")
        shards = _vdp_ensemble_request(20, kernel="auto").shards()
        assert shards is not None
        assert [s.dae.batch_size for s in shards] == [8, 8, 4]

    def test_invalid_kernel_leaves_the_error_to_run(self):
        request = _vdp_ensemble_request(20, kernel="gpu")
        assert request.shards() is None
        with pytest.raises(ConfigurationError, match="kernel"):
            api.run(request)

    def test_merge_round_trips(self):
        request = _vdp_ensemble_request(20, kernel="python")
        reference = api.run(request)
        shard_results = [api.run(s) for s in request.shards()]
        merged = request.merge(shard_results)
        np.testing.assert_allclose(
            merged.x, reference.x, rtol=1e-9, atol=1e-12
        )
        assert merged.stats["scenarios"] == 20
        assert len(merged.stats["solver_per_scenario"]) == 20
        assert merged.stats["newton_iterations"] == sum(
            r.stats["newton_iterations"] for r in shard_results
        )

    def test_merge_rejects_shards_off_the_shared_grid(self):
        from repro.transient.ensemble import merge_ensemble_results

        coarse = api.run(_vdp_ensemble_request(2, kernel="python"))
        fine = api.run(_vdp_ensemble_request(2, kernel="python", dt=0.01))
        with pytest.raises(SimulationError, match="shared lock-step grid"):
            merge_ensemble_results([coarse, fine])
