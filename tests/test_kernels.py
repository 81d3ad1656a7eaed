"""Tests for the compiled per-DAE kernels (repro.kernels).

Covers the four contracts of the kernel layer:

* **Parity** — the generated per-device/whole-circuit ``q/f/dq/df``
  kernels must match the NumPy reference path on randomized states.
* **Trajectory equivalence** — a fixed-step chord transient run through
  the compiled sweep must match the python march within solver
  tolerance, with identical Newton iteration/factorization counts.
* **Graceful degradation** — ``kernel="auto"`` silently falls back to
  the NumPy engine when no C compiler is found or a build cannot be
  loaded, while an explicit ``kernel="c"`` without a compiler raises a
  clear :class:`~repro.errors.ConfigurationError`.
* **Slow-path interop** — divergence inside a compiled sweep hands the
  step back to the python recovery ladder; failure context
  (checkpoint + partial result) is unchanged.
"""

import subprocess
from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.library import (
    MemsVcoDae,
    T_NOMINAL,
    VcoParams,
    forced_lc_oscillator_circuit,
    lc_oscillator_circuit,
    rc_diode_mixer_circuit,
    ring_oscillator_circuit,
)
from repro.dae import VanDerPolDae
from repro.dae.ensemble import EnsembleDAE, ensemble_from_factory
from repro.errors import ConfigurationError, SimulationError, ValidationError
from repro.kernels import (
    KernelBuildError,
    backends,
    build_kernel,
    codegen,
    maybe_kernelize_batch,
    probe_cc,
    resolve_mode,
    spec_for_dae,
)
from repro.testing.faults import FaultyDAE
from repro.transient import (
    TransientOptions,
    simulate_transient,
    simulate_transient_ensemble,
)

needs_backend = pytest.mark.skipif(
    not probe_cc(), reason="no C toolchain on this host"
)


def _fixture_daes():
    return {
        "vdp": VanDerPolDae(mu=0.7),
        "vco": MemsVcoDae(VcoParams.air()),
        "lc": lc_oscillator_circuit().to_dae(),
        "forced_lc": forced_lc_oscillator_circuit().to_dae(),
        "ring": ring_oscillator_circuit().to_dae(),
        "mixer": rc_diode_mixer_circuit().to_dae(),
    }


def _check_parity(dae, impl, rng, rtol=1e-9):
    n = dae.n
    qv = np.empty(n)
    fv = np.empty(n)
    dq = np.empty(n * n)
    df = np.empty(n * n)
    p = np.ascontiguousarray(spec_for_dae(dae)[0].params_rows[0])
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, n)
        impl.eval_qf(x, p, qv, fv)
        np.testing.assert_allclose(qv, dae.q(x), rtol=rtol, atol=1e-300)
        np.testing.assert_allclose(fv, dae.f(x), rtol=rtol, atol=1e-300)
        impl.eval_jac(x, p, dq, df)
        np.testing.assert_allclose(
            dq.reshape(n, n), dae.dq_dx(x), rtol=rtol, atol=1e-300
        )
        np.testing.assert_allclose(
            df.reshape(n, n), dae.df_dx(x), rtol=rtol, atol=1e-300
        )


class TestKernelParity:
    @needs_backend
    @pytest.mark.parametrize("name", list(_fixture_daes()))
    def test_compiled_backends_match_numpy(self, name, rng):
        dae = _fixture_daes()[name]
        spec, why = spec_for_dae(dae)
        assert spec is not None, why
        _check_parity(dae, build_kernel(spec).impl, rng)

    @needs_backend
    def test_whole_circuit_residual_matches_dae(self, rng):
        """Fused step residual r = alpha*q + rhs + beta*(f - b) parity.

        Composes the residual exactly the way the compiled sweep does
        (per-component, from the circuit kernels stitched out of the MNA
        incidence data) and checks it against the CircuitDAE evaluation.
        """
        dae = rc_diode_mixer_circuit().to_dae()
        spec, _ = spec_for_dae(dae)
        built = build_kernel(spec)
        n = dae.n
        p = np.ascontiguousarray(spec.params_rows[0])
        qv, fv = np.empty(n), np.empty(n)
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8, n)
            t = rng.uniform(0.0, 1e-3)
            alpha = rng.uniform(1e3, 1e6)
            beta = rng.uniform(0.5, 1.0)
            rhs = rng.standard_normal(n)
            b = dae.b(t)
            built.impl.eval_qf(x, p, qv, fv)
            kernel_resid = alpha * qv + rhs + beta * (fv - b)
            ref_resid = alpha * dae.q(x) + rhs + beta * (dae.f(x) - b)
            np.testing.assert_allclose(
                kernel_resid, ref_resid, rtol=1e-9, atol=1e-12
            )

    def test_unsupported_dae_reports_reason(self):
        class OpaqueDAE:
            n = 1

        spec, why = spec_for_dae(OpaqueDAE())
        assert spec is None
        assert "OpaqueDAE" in why


class TestGeneratedSource:
    @needs_backend
    @pytest.mark.parametrize("name", ["vco", "mixer"])
    def test_compiles_without_warnings(self, name, tmp_path):
        """A helper parameter or local the runtime no longer reads (say,
        an ``rtol`` a sweep stopped using), or a static helper a unit
        carries without calling, fails ``-Wall -Wextra``; every unit is
        compiled."""
        spec, why = spec_for_dae(_fixture_daes()[name])
        assert spec is not None, why
        for render in (codegen.generate_c_source,
                       codegen.generate_ensemble_source,
                       codegen.generate_envelope_source):
            source = tmp_path / f"{render.__name__}.c"
            source.write_text(render(spec))
            proc = subprocess.run(
                [backends._find_cc(), "-O2", "-Wall", "-Wextra", "-Werror",
                 "-fPIC", "-c", "-o", str(tmp_path / "kernel.o"),
                 str(source)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, (render.__name__, proc.stderr)


class TestTrajectoryEquivalence:
    @needs_backend
    @pytest.mark.parametrize("integrator", ["be", "trap", "bdf2"])
    def test_vco_matches_python_march(self, integrator):
        dae = MemsVcoDae(VcoParams.air())
        x0 = [1.0, 0.0, 0.0, 0.0]
        horizon = 8 * T_NOMINAL

        def run(kernel):
            return simulate_transient(
                dae, x0, 0.0, horizon,
                TransientOptions(
                    integrator=integrator, dt=T_NOMINAL / 300, kernel=kernel
                ),
            )

        ref = run("python")
        com = run("auto")
        assert ref.stats["kernel"]["mode"] == "python"
        assert com.stats["kernel"]["mode"] != "python"
        assert com.stats["kernel"]["compiled_steps"] == com.stats["steps"]
        assert com.stats["kernel"]["python_steps"] == 0
        scale = np.abs(ref.x).max()
        assert np.abs(com.x - ref.x).max() / scale < 1e-9
        # Same algorithm, same policy: the chord bookkeeping must agree
        # exactly, not just the trajectory.
        assert com.stats["newton_iterations"] == ref.stats["newton_iterations"]
        assert (com.stats["jacobian_factorizations"]
                == ref.stats["jacobian_factorizations"])

    @needs_backend
    def test_ring_oscillator_matches_python_march(self):
        dae = ring_oscillator_circuit().to_dae()
        x0 = np.zeros(dae.n)
        x0[0] = 0.5

        def run(kernel):
            return simulate_transient(
                dae, x0, 0.0, 2e-5,
                TransientOptions(integrator="trap", dt=2e-8, kernel=kernel),
            )

        ref = run("python")
        com = run("auto")
        assert com.stats["kernel"]["compiled_steps"] == com.stats["steps"]
        scale = np.abs(ref.x).max()
        assert np.abs(com.x - ref.x).max() / scale < 1e-9

    @needs_backend
    def test_checkpointed_run_is_bit_identical(self):
        dae = MemsVcoDae(VcoParams.air())
        x0 = [1.0, 0.0, 0.0, 0.0]
        horizon = 6 * T_NOMINAL

        def opts(**kw):
            return TransientOptions(
                integrator="trap", dt=T_NOMINAL / 250, kernel="auto", **kw
            )

        plain = simulate_transient(dae, x0, 0.0, horizon, opts())
        chunked = simulate_transient(
            dae, x0, 0.0, horizon, opts(checkpoint_every=123)
        )
        # Checkpoint cadence chunks the compiled sweep mid-march; the
        # trajectory must not feel it.
        np.testing.assert_array_equal(plain.x, chunked.x)

    @needs_backend
    def test_resume_continues_compiled_and_bit_identical(self):
        dae = MemsVcoDae(VcoParams.air())
        x0 = [1.0, 0.0, 0.0, 0.0]
        horizon = 6 * T_NOMINAL

        def opts(**kw):
            return TransientOptions(
                integrator="trap", dt=T_NOMINAL / 250, kernel="auto",
                checkpoint_every=200, **kw
            )

        full = simulate_transient(dae, x0, 0.0, horizon, opts())
        with pytest.raises(SimulationError) as info:
            simulate_transient(dae, x0, 0.0, horizon, opts(max_steps=600))
        resumed = simulate_transient(
            dae, None, 0.0, horizon, opts(), resume_from=info.value.checkpoint
        )
        assert resumed.stats["kernel"]["compiled_steps"] > 0
        tail = np.asarray(full.x)[-np.asarray(resumed.x).shape[0]:]
        np.testing.assert_array_equal(tail, np.asarray(resumed.x))


class TestGracefulFallback:
    def test_no_compiler_fails_explicit_c_request(self, monkeypatch):
        monkeypatch.setattr(backends, "_find_cc", lambda: None)
        assert not probe_cc()
        with pytest.raises(ConfigurationError, match="C compiler"):
            resolve_mode("c")
        dae = VanDerPolDae(mu=0.5)
        with pytest.raises(ConfigurationError, match="C compiler"):
            simulate_transient(
                dae, [0.5, 0.0], 0.0, 1.0,
                TransientOptions(dt=0.01, kernel="c"),
            )

    def test_no_compiler_keeps_auto_running(self, monkeypatch):
        monkeypatch.setattr(backends, "_find_cc", lambda: None)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        dae = VanDerPolDae(mu=0.5)
        result = simulate_transient(
            dae, [0.5, 0.0], 0.0, 1.0,
            TransientOptions(dt=0.01, kernel="auto"),
        )
        info = result.stats["kernel"]
        assert info["mode"] == "python"  # silently degraded
        assert "C compiler" in info["reason"]
        assert np.isfinite(np.asarray(result.x)).all()

    def test_compiler_probe_is_memoised_per_environment(self, monkeypatch):
        """Route decisions probe ``$CC``/``$PATH`` once, not per call."""
        looked = []
        which = backends.shutil.which

        def spy(cmd, *args, **kwargs):
            looked.append(cmd)
            return which(cmd, *args, **kwargs)

        monkeypatch.setattr(backends.shutil, "which", spy)
        monkeypatch.setenv("CC", "no-such-compiler-here")
        first = [resolve_mode("auto") for _ in range(3)]
        assert looked[0] == "no-such-compiler-here"
        assert len(set(looked)) == len(looked)  # one probe of each name
        assert first == [first[0]] * 3
        monkeypatch.setenv("PATH", "")
        looked.clear()
        assert backends._find_cc() is None
        assert looked == ["no-such-compiler-here", "cc", "gcc", "clang"]

    def test_invalid_kernel_value_raises(self):
        dae = VanDerPolDae(mu=0.5)
        for value in ("fortran", "numba"):
            with pytest.raises(ConfigurationError, match="not a valid mode"):
                simulate_transient(
                    dae, [0.5, 0.0], 0.0, 1.0,
                    TransientOptions(dt=0.01, kernel=value),
                )

    def test_explicit_python_never_compiles(self):
        result = simulate_transient(
            VanDerPolDae(mu=0.5), [0.5, 0.0], 0.0, 1.0,
            TransientOptions(dt=0.01, kernel="python"),
        )
        info = result.stats["kernel"]
        assert info["mode"] == "python"
        assert info["compiled_steps"] == 0

    @needs_backend
    def test_adaptive_constant_forcing_compiles(self):
        result = simulate_transient(
            VanDerPolDae(mu=0.5), [0.5, 0.0], 0.0, 1.0,
            TransientOptions(dt=0.01, adaptive=True, kernel="auto"),
        )
        info = result.stats["kernel"]
        assert info["mode"] != "python"
        assert info["compiled_steps"] == result.stats["steps"]

    def test_adaptive_varying_forcing_reports_blocked_reason(self):
        dae = forced_lc_oscillator_circuit().to_dae()
        result = simulate_transient(
            dae, np.zeros(dae.n), 0.0, 2e-6,
            TransientOptions(dt=2e-8, adaptive=True, kernel="auto"),
        )
        info = result.stats["kernel"]
        if probe_cc():
            assert info["mode"] == "python"
            assert "time-invariant" in info["reason"]


@pytest.fixture
def cold_build(monkeypatch, tmp_path):
    """``(dae, spec, source sha)`` with an empty kernel cache and memo."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    monkeypatch.setattr(backends, "_KERNEL_MEMO", {})
    dae = VanDerPolDae(mu=0.5)
    spec, _ = spec_for_dae(dae)
    return dae, spec, backends._source_sha(codegen.generate_c_source(spec))


class TestColdBuild:
    @needs_backend
    def test_build_ignores_concurrent_source_rewrite(
        self, cold_build, monkeypatch, tmp_path, rng
    ):
        """A second process cold-building the same kernel rewrites the
        shared ``kernel_<sha>.c`` while this build compiles; the build
        must not read it."""
        dae, spec, sha = cold_build
        shared = tmp_path / f"kernel_{sha}.c"
        run = backends.subprocess.run

        def racing_run(*args, **kwargs):
            shared.write_text("")
            return run(*args, **kwargs)

        monkeypatch.setattr(backends.subprocess, "run", racing_run)
        built = build_kernel(spec)
        _check_parity(dae, built.impl, rng)

    @needs_backend
    def test_unloadable_library_degrades_auto(self, cold_build, tmp_path):
        """A cached library without the kernel symbols (an empty
        compile) is a build error: ``auto`` stays on the NumPy engine."""
        dae, spec, sha = cold_build
        empty = tmp_path / "empty.c"
        empty.write_text("")
        backends.subprocess.run(
            [backends._find_cc(), "-shared", "-fPIC", "-o",
             str(tmp_path / f"kernel_{sha}.so"), str(empty)],
            check=True, capture_output=True,
        )
        with pytest.raises(KernelBuildError, match="loading"):
            build_kernel(spec)
        result = simulate_transient(
            dae, [0.5, 0.0], 0.0, 1.0,
            TransientOptions(dt=0.01, kernel="auto"),
        )
        info = result.stats["kernel"]
        assert info["mode"] == "python"
        assert "kernel build failed" in info["reason"]


class TestSlowPathInterop:
    def test_ladder_engages_on_compiled_divergence(self):
        """A NaN forcing window poisons the compiled sweep mid-march;
        the kernel must hand the step back, the python ladder must run
        (dt halving to the floor), and the failure must carry the same
        structured context as a pure-python run."""
        dae = FaultyDAE(
            VanDerPolDae(mu=1.0), nan_b_window=(0.5, np.inf)
        )
        options = TransientOptions(
            integrator="trap", dt=0.01, dt_min=1e-10, kernel="auto"
        )
        with pytest.raises(SimulationError, match="underflow") as info:
            simulate_transient(dae, [2.0, 0.0], 0.0, 1.0, options)
        exc = info.value
        assert exc.checkpoint is not None
        assert exc.partial_result is not None
        assert exc.partial_result.t[-1] < 0.5
        stats = exc.partial_result.stats
        assert stats["newton_failures"] >= 1
        if probe_cc():
            # The clean prefix ran compiled; the poisoned region fell
            # back to python and its failure accounting.
            assert stats["kernel"]["compiled_steps"] > 0
            assert "status" in stats["kernel"]["reason"]

    def test_qf_faults_keep_the_python_path(self):
        """Injected q/f faults must not be masked by kernelization: the
        wrapper's counters only tick on the python path, so the spec
        registry refuses to lower a FaultyDAE with q/f/df faults."""
        dae = FaultyDAE(VanDerPolDae(mu=1.0), nan_q_calls=[5])
        spec, why = spec_for_dae(dae)
        assert spec is None
        assert "fault injection" in why


class TestBatchedKernels:
    @needs_backend
    def test_envelope_kernelizes_under_auto(self):
        dae = MemsVcoDae(VcoParams.air())
        wrapped, info = maybe_kernelize_batch(dae, "auto")
        assert wrapped is not dae
        assert info["mode"] != "python"
        states = np.random.default_rng(7).uniform(-1, 1, (5, dae.n))
        np.testing.assert_allclose(
            wrapped.q_batch(states), dae.q_batch(states), rtol=1e-12
        )
        np.testing.assert_allclose(
            wrapped.df_dx_batch(states), dae.df_dx_batch(states), rtol=1e-12
        )

    @needs_backend
    def test_batch_kernelize_defaults_on_under_auto(self):
        dae = MemsVcoDae(VcoParams.air())
        wrapped, info = maybe_kernelize_batch(dae, "auto", expected_batch=4)
        assert wrapped is not dae
        assert info["mode"] != "python"

    def test_batch_kernelize_python_escape_hatch(self):
        dae = MemsVcoDae(VcoParams.air())
        wrapped, info = maybe_kernelize_batch(
            dae, "python", expected_batch=4
        )
        assert wrapped is dae
        assert info["mode"] == "python"

    @staticmethod
    def _check_batch_parity(proxy, dae, states, rtol=1e-9):
        q, f = proxy.qf_batch(states)
        pairs = (
            (q, dae.q_batch(states)),
            (f, dae.f_batch(states)),
            (proxy.q_batch(states), dae.q_batch(states)),
            (proxy.f_batch(states), dae.f_batch(states)),
            (proxy.dq_dx_batch(states), dae.dq_dx_batch(states)),
            (proxy.df_dx_batch(states), dae.df_dx_batch(states)),
        )
        for got, want in pairs:
            assert got.shape == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-300)

    @needs_backend
    @pytest.mark.parametrize("name", list(_fixture_daes()))
    def test_bound_batch_calls_match_numpy(self, name, rng):
        """One proxy serves two batch sizes, each from its own bound
        workspace, alternating between them."""
        dae = _fixture_daes()[name]
        proxy, info = maybe_kernelize_batch(dae, "auto")
        assert info["mode"] == "c", info.get("reason")
        for batch in (3, 7, 3, 7):
            states = rng.uniform(-1.5, 1.5, (batch, dae.n))
            self._check_batch_parity(proxy, dae, states)

    @needs_backend
    @pytest.mark.parametrize("rows", [1, 6], ids=["control", "damping"])
    def test_bound_batch_calls_stacked_parameters(self, rows, rng):
        """Stacked scenarios: a control-offset stack changes only the
        forcing (one shared parameter row), a damping stack gives the
        kernel one parameter row per scenario."""
        batch = 6
        if rows == 1:
            stacked = _vco_control_ensemble(batch)._stacked
        else:
            stacked = MemsVcoDae(replace(
                VcoParams.air(), damping=np.linspace(5e-5, 2e-4, batch)
            ))
        proxy, info = maybe_kernelize_batch(
            stacked, "auto", expected_batch=batch
        )
        assert info["mode"] == "c", info.get("reason")
        assert proxy._params.shape[0] == rows
        for _ in range(2):
            states = rng.uniform(-1.5, 1.5, (batch, stacked.n))
            self._check_batch_parity(proxy, stacked, states)
        if rows > 1:
            with pytest.raises(ValidationError, match="batches of 6"):
                proxy.qf_batch(states[:4])

    @needs_backend
    def test_returned_arrays_survive_later_calls(self, rng):
        dae = MemsVcoDae(VcoParams.air())
        proxy, _info = maybe_kernelize_batch(dae, "auto")
        first = rng.uniform(-1.0, 1.0, (5, dae.n))
        kept = (*proxy.qf_batch(first), proxy.q_batch(first),
                proxy.dq_dx_batch(first), proxy.df_dx_batch(first))
        saved = [a.copy() for a in kept]
        proxy.qf_batch(first + 0.5)
        proxy.f_batch(first - 0.5)
        proxy.dq_dx_batch(first + 0.25)
        proxy.df_dx_batch(first - 0.25)
        for array, copy in zip(kept, saved):
            np.testing.assert_array_equal(array, copy)

    @needs_backend
    @pytest.mark.parametrize("method", ["qf_batch", "q_batch", "dq_dx_batch"])
    @pytest.mark.parametrize("states", [
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.ones((3, 2)),
    ], ids=["one-state-1d", "too-few-columns"])
    def test_rejects_misshapen_batches(self, method, states):
        """Only ``(batch, n)`` states reach the compiled loop: a 1-D state
        is not read as n rows of one value, and narrow rows are not read
        past the end of the buffer."""
        proxy, _info = maybe_kernelize_batch(MemsVcoDae(VcoParams.air()),
                                             "auto")
        with pytest.raises(ValidationError, match=r"\(batch, 4\)"):
            getattr(proxy, method)(states)


def _vco_control_ensemble(batch):
    base = VcoParams.air()
    values = np.linspace(0.8, 2.4, batch)
    return ensemble_from_factory(
        lambda v: MemsVcoDae(replace(base, control_offset=v)),
        values,
        stacked_factory=lambda arr: MemsVcoDae(
            replace(base, control_offset=arr)
        ),
    )


class TestUnits:
    """Each unit is built when a run first needs it, once per process."""

    @needs_backend
    def test_units_build_on_first_use(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(backends, "_KERNEL_MEMO", {})
        compiles = []
        run = backends.subprocess.run

        def counting_run(cmd, *args, **kwargs):
            compiles.append(cmd)
            return run(cmd, *args, **kwargs)

        monkeypatch.setattr(backends.subprocess, "run", counting_run)

        def units():
            return sorted(unit for unit, _head in backends._KERNEL_MEMO)

        dae = MemsVcoDae(VcoParams.air())
        result = simulate_transient(
            dae, [1.0, 0.0, 0.0, 0.0], 0.0, 2 * T_NOMINAL,
            TransientOptions(integrator="trap", dt=T_NOMINAL / 50),
        )
        assert result.stats["kernel"]["compiled_steps"] > 0
        assert units() == ["sweep"]
        batch = 3
        x0 = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (batch, 1))
        for _ in range(2):
            result = simulate_transient_ensemble(
                _vco_control_ensemble(batch), x0, 0.0, 2 * T_NOMINAL,
                TransientOptions(integrator="trap", dt=T_NOMINAL / 50),
            )
            assert result.stats["kernel"]["compiled_steps"] > 0
        assert units() == ["ensemble", "sweep"]
        assert len(compiles) == 2


class TestEnsembleCompiled:
    @needs_backend
    def test_batched_march_matches_python_lockstep(self):
        batch = 8
        ens = _vco_control_ensemble(batch)
        x0 = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (batch, 1))

        def run(kernel):
            return simulate_transient_ensemble(
                ens, x0, 0.0, 20 * T_NOMINAL,
                TransientOptions(
                    integrator="trap", dt=T_NOMINAL / 100, kernel=kernel
                ),
            )

        ref = run("python")
        com = run("auto")
        assert ref.stats["kernel"]["mode"] == "python"
        assert com.stats["kernel"]["mode"] != "python"
        assert com.stats["kernel"]["compiled_steps"] == com.stats["steps"]
        assert com.stats["kernel"]["python_steps"] == 0
        np.testing.assert_array_equal(ref.t, com.t)
        scale = np.abs(ref.x).max()
        assert np.abs(com.x - ref.x).max() / scale < 1e-9
        # Same lock-step chord policy: the bookkeeping must agree
        # exactly, down to each scenario's iteration count.
        assert (com.stats["newton_iterations"]
                == ref.stats["newton_iterations"])
        for b in range(batch):
            assert (com.stats["solver_per_scenario"][b]["iterations"]
                    == ref.stats["solver_per_scenario"][b]["iterations"])
        assert (com.stats["jacobian_factorizations"]
                == ref.stats["jacobian_factorizations"])
        assert (com.stats["solver"]["residual_evaluations"]
                == ref.stats["solver"]["residual_evaluations"])

    @needs_backend
    def test_diverging_scenarios_hand_back_to_rescue(self):
        """A NaN forcing window poisons the batched march mid-grid; the
        kernel hands the step back, the per-scenario rescue + dt-halving
        ladder runs, and the failure context matches the python path."""
        def faulty():
            return FaultyDAE(
                VanDerPolDae(mu=1.0), nan_b_window=(0.5, np.inf)
            )

        ens = EnsembleDAE.from_stacked(
            faulty(), 4, members=[faulty() for _ in range(4)]
        )
        x0 = np.array(
            [[2.0, 0.0], [1.9, 0.05], [1.8, 0.1], [1.7, 0.15]]
        )
        options = TransientOptions(
            integrator="trap", dt=0.01, dt_min=1e-10, kernel="auto"
        )
        with pytest.raises(SimulationError, match="underflow") as info:
            simulate_transient_ensemble(ens, x0, 0.0, 1.0, options)
        exc = info.value
        assert exc.partial_result is not None
        assert exc.partial_result.t[-1] < 0.5
        stats = exc.partial_result.stats
        assert stats["newton_failures"] >= 1
        assert stats["kernel"]["compiled_steps"] > 0
        assert "status" in stats["kernel"]["reason"]


class TestAdaptiveCompiled:
    @needs_backend
    def test_adaptive_dt_sequence_matches_python(self):
        # rtol loose enough that the error controller actually rejects
        # steps; horizon short enough that ulp-level differences between
        # the python and kernel linear solves never reach the dt
        # decisions, so the sequences must agree to the bit.
        dae = MemsVcoDae(VcoParams.air(), constant_control=True)
        x0 = [1.0, 0.0, 0.0, 0.0]
        horizon = T_NOMINAL / 2

        def run(kernel):
            return simulate_transient(
                dae, x0, 0.0, horizon,
                TransientOptions(
                    integrator="trap", dt=T_NOMINAL / 500, adaptive=True,
                    rtol=1e-4, kernel=kernel, max_steps=500000,
                ),
            )

        ref = run("python")
        com = run("auto")
        assert com.stats["kernel"]["mode"] != "python"
        assert com.stats["kernel"]["compiled_steps"] == com.stats["steps"]
        # The in-kernel local-error controller replays the python dt
        # decisions exactly: same accepted times, same rejections.
        np.testing.assert_array_equal(np.asarray(ref.t), np.asarray(com.t))
        assert ref.stats["rejected_steps"] > 0
        assert com.stats["rejected_steps"] == ref.stats["rejected_steps"]
        assert (com.stats["newton_iterations"]
                == ref.stats["newton_iterations"])
        assert (com.stats["jacobian_factorizations"]
                == ref.stats["jacobian_factorizations"])
        scale = np.abs(np.asarray(ref.x)).max()
        assert np.abs(np.asarray(com.x) - np.asarray(ref.x)).max() / scale < 1e-9

    @needs_backend
    def test_adaptive_checkpoint_cadence_is_bit_identical(self):
        dae = MemsVcoDae(VcoParams.air(), constant_control=True)
        x0 = [1.0, 0.0, 0.0, 0.0]
        horizon = 3 * T_NOMINAL

        def opts(**kw):
            return TransientOptions(
                integrator="trap", dt=T_NOMINAL / 400, adaptive=True,
                kernel="auto", max_steps=500000, **kw
            )

        plain = simulate_transient(dae, x0, 0.0, horizon, opts())
        chunked = simulate_transient(
            dae, x0, 0.0, horizon, opts(checkpoint_every=37)
        )
        # Cadence chunks the compiled adaptive march mid-run; the live
        # dt crosses each boundary in reg[2], so the dt sequence (and
        # with it the trajectory) must not feel the cuts.
        np.testing.assert_array_equal(
            np.asarray(plain.t), np.asarray(chunked.t)
        )
        np.testing.assert_array_equal(
            np.asarray(plain.x), np.asarray(chunked.x)
        )

    @needs_backend
    def test_adaptive_resume_is_bit_identical(self):
        dae = MemsVcoDae(VcoParams.air(), constant_control=True)
        x0 = [1.0, 0.0, 0.0, 0.0]
        horizon = 3 * T_NOMINAL

        def opts(max_steps=500000):
            return TransientOptions(
                integrator="trap", dt=T_NOMINAL / 400, adaptive=True,
                kernel="auto", checkpoint_every=50, max_steps=max_steps,
            )

        full = simulate_transient(dae, x0, 0.0, horizon, opts())
        with pytest.raises(SimulationError) as info:
            simulate_transient(
                dae, x0, 0.0, horizon, opts(max_steps=120)
            )
        resumed = simulate_transient(
            dae, None, 0.0, horizon, opts(),
            resume_from=info.value.checkpoint,
        )
        assert resumed.stats["kernel"]["compiled_steps"] > 0
        n_tail = np.asarray(resumed.x).shape[0]
        np.testing.assert_array_equal(
            np.asarray(full.t)[-n_tail:], np.asarray(resumed.t)
        )
        np.testing.assert_array_equal(
            np.asarray(full.x)[-n_tail:], np.asarray(resumed.x)
        )


class TestWarmStartCompiled:
    @needs_backend
    def test_warm_compiled_run_zero_refactorizations(self):
        from repro import api

        def request(x0, t0, t1):
            return api.TransientRequest(
                dae=VanDerPolDae(mu=0.2), x0=x0, t_start=t0, t_stop=t1,
                options=TransientOptions(
                    integrator="trap", dt=0.02, kernel="auto"
                ),
            )

        cold_request = request(np.array([2.0, 0.0]), 0.0, 4.0)
        cold = api.run(cold_request)
        assert cold.stats["kernel"]["mode"] != "python"
        seed = cold_request.extract_warm_start(cold)
        warm = api.run(request(None, 4.0, 8.0), warm_start=seed)
        info = warm.stats["kernel"]
        assert info["mode"] != "python"
        assert info["compiled_steps"] == warm.stats["steps"]
        # The adopted frozen factorisation carries the whole march:
        # the warm contract (zero refactorisations) stays observable
        # through the compiled path.
        assert warm.stats["solver"]["factorizations"] == 0
        assert warm.stats["jacobian_factorizations"] == 0
        assert np.array_equal(warm.x[0], cold.x[-1])
