"""Tests for the array-backend abstraction (:mod:`repro.backend`).

Three layers: the batched dense factorisation (vectorised LU vs NumPy
references), backend resolution/dispatch semantics, and end-to-end
ensemble parity — the default NumPy backend must stay bit-identical to
the pre-backend engine, and the strict fake-device backend (NumPy
numerics behind loud-transfer wrappers) must agree within solver
tolerance while catching any implicit host round-trip in the hot path.
"""

import numpy as np
import pytest
from dataclasses import replace

from repro.backend import (
    NUMPY,
    BatchedLinalg,
    StrictHostArray,
    StrictHostBackend,
    array_namespace,
    probe_cupy,
    resolve_backend,
)
from repro.circuits.library import MemsVcoDae, VcoParams
from repro.dae import VanDerPolDae, ensemble_from_factory
from repro.errors import ConfigurationError
from repro.linalg.lu_cache import BlockFactorization
from repro.transient import TransientOptions, simulate_transient_ensemble


VCS = np.array([0.9, 1.3, 1.7, 2.1])


def vco_ensemble():
    def factory(vc):
        return MemsVcoDae(
            replace(VcoParams.vacuum(), control_offset=vc),
            constant_control=True,
        )

    def stacked(values):
        return MemsVcoDae(
            replace(VcoParams.vacuum(), control_offset=np.asarray(values)),
            constant_control=True,
        )

    return ensemble_from_factory(factory, VCS, stacked)


def vdp_ensemble(batch):
    mus = np.linspace(0.1, 0.7, batch)
    return ensemble_from_factory(
        lambda mu: VanDerPolDae(mu=mu), mus,
        lambda stack: VanDerPolDae(mu=np.asarray(stack)),
    )


class TestBatchedLinalg:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 33, 64])
    def test_factor_solve_matches_numpy(self, n, rng):
        batch = 7
        a = rng.standard_normal((batch, n, n)) + n * np.eye(n)
        b = rng.standard_normal((batch, n))
        linalg = BatchedLinalg(np)
        lu, perm = linalg.lu_factor(a.copy())
        x = linalg.lu_solve(lu, perm, b)
        want = np.stack([np.linalg.solve(a[i], b[i]) for i in range(batch)])
        np.testing.assert_allclose(x, want, rtol=1e-9, atol=1e-12)

    def test_pivoting_handles_zero_leading_diagonal(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        b = np.array([[2.0, 3.0]])
        linalg = BatchedLinalg(np)
        x = linalg.lu_solve(*linalg.lu_factor(a.copy()), b)
        np.testing.assert_allclose(x[0], [3.0, 2.0], rtol=1e-14)

    def test_singular_member_raises_for_whole_batch(self, rng):
        # Mirrors the dense np.linalg path (and the compiled kernel):
        # one singular scenario fails the whole factorisation, and the
        # step controller reacts by halving dt for everyone.
        a = rng.standard_normal((3, 4, 4)) + 4 * np.eye(4)
        a[1, :, 2] = a[1, :, 0]  # exactly dependent columns
        linalg = BatchedLinalg(np)
        with pytest.raises(np.linalg.LinAlgError):
            linalg.lu_factor(a.copy())

    def test_nonfinite_factor_raises(self):
        a = np.ones((1, 3, 3))
        a[0, 1, 1] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            BatchedLinalg(np).lu_factor(a.copy())


class TestBlockFactorization:
    def test_dense_block_uses_batched_mode_up_to_64(self, rng):
        n = 64
        blocks = rng.standard_normal((3, n, n)) + n * np.eye(n)
        rhs = rng.standard_normal((3, n))
        factor = BlockFactorization()
        factor.factor(blocks)
        assert factor._mode == "batched"
        # No materialised inverses anywhere: the factorisation keeps LU
        # factors + permutations only.
        assert not any("inv" in key for key in vars(factor))
        x = factor.solve(rhs)
        want = np.stack(
            [np.linalg.solve(blocks[i], rhs[i]) for i in range(3)]
        )
        np.testing.assert_allclose(x, want, rtol=1e-9, atol=1e-12)

    def test_dense_cap_is_64(self):
        assert BlockFactorization.DENSE_LIMIT == 64

    def test_above_cap_falls_back_to_per_block_lu(self, rng):
        n = BlockFactorization.DENSE_LIMIT + 1
        blocks = rng.standard_normal((2, n, n)) + n * np.eye(n)
        factor = BlockFactorization()
        factor.factor(blocks)
        assert factor._mode == "lu"
        rhs = rng.standard_normal((2, n))
        want = np.stack(
            [np.linalg.solve(blocks[i], rhs[i]) for i in range(2)]
        )
        np.testing.assert_allclose(
            factor.solve(rhs), want, rtol=1e-9, atol=1e-12
        )


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_XP", raising=False)
        backend, meta = resolve_backend(None)
        assert backend is NUMPY
        assert meta == {"requested": "numpy", "source": "default"}

    def test_env_overrides_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_XP", "strict")
        backend, meta = resolve_backend("auto")
        assert isinstance(backend, StrictHostBackend)
        assert meta == {"requested": "strict", "source": "env"}

    def test_explicit_option_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_XP", "strict")
        backend, meta = resolve_backend("numpy")
        assert backend is NUMPY
        assert meta["source"] == "option"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="backend"):
            resolve_backend("tpu")

    def test_instance_passthrough(self):
        fake = StrictHostBackend()
        backend, meta = resolve_backend(fake)
        assert backend is fake
        assert meta["source"] == "instance"

    @pytest.mark.skipif(probe_cupy(), reason="cupy present: explicit "
                        "requests resolve instead of raising")
    def test_cupy_unavailable_raises(self):
        with pytest.raises(ConfigurationError, match="cupy"):
            resolve_backend("cupy")


class TestStrictHostArray:
    def test_implicit_transfer_is_loud(self):
        dev = StrictHostBackend().from_host(np.arange(3.0))
        with pytest.raises(TypeError, match="implicit host transfer"):
            np.asarray(dev)
        # Ufunc entry is cut off too (__array_ufunc__ = None).
        with pytest.raises(TypeError, match="does not support ufuncs"):
            np.add(dev, 1.0)

    def test_mixed_arithmetic_stays_wrapped(self):
        dev = StrictHostBackend().from_host(np.arange(3.0))
        out = (2.0 * dev + np.ones(3)) / 4.0
        assert isinstance(out, StrictHostArray)
        np.testing.assert_allclose(
            StrictHostBackend().to_host(out), [0.25, 0.75, 1.25]
        )

    def test_array_namespace_dispatch(self):
        dev = StrictHostBackend().from_host(np.zeros(2))
        assert array_namespace(np.zeros(2)) is np
        xp = array_namespace(dev)
        assert isinstance(xp.zeros(2), StrictHostArray)


class TestEnsembleParity:
    OPTS = dict(dt=2e-8, kernel="python")

    def run_vco(self, **overrides):
        opts = TransientOptions(**{**self.OPTS, **overrides})
        return simulate_transient_ensemble(
            vco_ensemble(), np.zeros((VCS.size, 4)), 0.0, 2e-6, opts
        )

    def test_explicit_numpy_is_bit_identical_to_default(self):
        default = self.run_vco()
        explicit = self.run_vco(backend="numpy")
        assert np.array_equal(default.x, explicit.x)
        assert default.stats["backend"]["name"] == "numpy"
        assert explicit.stats["backend"]["source"] == "option"

    def test_strict_backend_matches_numpy(self):
        # The strict backend runs NumPy numerics behind loud-transfer
        # wrappers, so agreement is exact; any implicit host round-trip
        # in the hot path would raise instead.
        host = self.run_vco()
        strict = self.run_vco(backend="strict")
        np.testing.assert_allclose(
            strict.x, host.x, rtol=1e-9, atol=1e-12
        )
        info = strict.stats["backend"]
        assert info["name"] == "strict"
        assert info["routing"] == "device-march"

    def test_stats_backend_reported_on_every_run(self):
        for overrides in ({}, {"backend": "numpy"}, {"backend": "strict"},
                          {"kernel": "auto"}):
            result = self.run_vco(**overrides)
            info = result.stats["backend"]
            assert set(info) >= {"requested", "source", "name",
                                 "routing", "reason"}
            assert info["routing"] in (
                "device-march", "compiled-kernel", "python-lockstep"
            )
            assert isinstance(info["reason"], str) and info["reason"]

    @pytest.mark.skipif(not probe_cupy(), reason="cupy not installed")
    def test_cupy_backend_matches_numpy(self):
        host = self.run_vco()
        gpu = self.run_vco(backend="cupy")
        np.testing.assert_allclose(gpu.x, host.x, rtol=1e-7, atol=1e-10)
        assert gpu.stats["backend"]["name"] == "cupy"


class TestLargeBatch:
    def test_large_b_lockstep_smoke(self):
        batch = 256
        ensemble = vdp_ensemble(batch)
        x0 = np.tile([2.0, 0.0], (batch, 1))
        result = simulate_transient_ensemble(
            ensemble, x0, 0.0, 1.0,
            TransientOptions(dt=0.02, kernel="python"),
        )
        assert result.x.shape[1:] == (batch, 2)
        stats = result.stats
        assert stats["scenarios"] == batch
        # Per-scenario convergence masks: every scenario carries its own
        # solver counters, and on this smooth problem all converge.
        per = stats["solver_per_scenario"]
        assert len(per) == batch
        assert all(entry["iterations"] > 0 for entry in per)
        assert stats["newton_failures"] == 0
        assert np.all(np.isfinite(result.x))

    def test_chunked_device_march_matches_host(self, monkeypatch):
        batch = 64
        monkeypatch.setenv("REPRO_XP_BLOCK", "16")
        ensemble = vdp_ensemble(batch)
        x0 = np.tile([2.0, 0.0], (batch, 1))
        opts = dict(dt=0.02, kernel="python")
        host = simulate_transient_ensemble(
            ensemble, x0, 0.0, 1.0, TransientOptions(**opts)
        )
        chunked = simulate_transient_ensemble(
            ensemble, x0, 0.0, 1.0,
            TransientOptions(backend="strict", **opts),
        )
        info = chunked.stats["backend"]
        assert info["chunks"] == 4
        np.testing.assert_allclose(
            chunked.x, host.x, rtol=1e-9, atol=1e-12
        )
        assert (
            len(chunked.stats["solver_per_scenario"])
            == len(host.stats["solver_per_scenario"])
        )


class TestShardsFromBackend:
    def _request(self, batch, **options):
        from repro import api

        ensemble = vdp_ensemble(batch)
        x0 = np.tile([2.0, 0.0], (batch, 1))
        return api.EnsembleRequest(
            dae=ensemble, x0=x0, t_start=0.0, t_stop=0.1,
            options=TransientOptions(dt=0.02, **options),
        )

    def test_python_kernel_shards_in_blocks_of_8(self):
        shards = self._request(20, kernel="python").shards()
        assert [s.dae.batch_size for s in shards] == [8, 8, 4]
        # Chunks carry their scenario slice of x0.
        assert shards[-1].x0.shape == (4, 2)

    def test_compiled_kernel_takes_larger_shards(self):
        assert self._request(60, kernel="auto").shards() is None
        shards = self._request(130, kernel="auto").shards()
        assert [s.dae.batch_size for s in shards] == [64, 64, 2]

    def test_device_backend_never_shards(self):
        request = self._request(300, kernel="python", backend="strict")
        assert request.shards() is None

    def test_merge_round_trips(self):
        from repro import api

        request = self._request(20, kernel="python")
        reference = api.run(request)
        merged = request.merge([api.run(s) for s in request.shards()])
        np.testing.assert_allclose(
            merged.x, reference.x, rtol=1e-9, atol=1e-12
        )
        assert merged.stats["backend"]["chunks"] == 3
        assert isinstance(request, api.EnsembleRequest)
