"""Fault-injection tests for the solver resilience layer.

Every recovery-ladder rung is exercised deterministically through
:mod:`repro.testing.faults`: injection sites are keyed by 0-based call
indices (or forcing-time windows), so the same evaluation goes bad on
every run, platform and thread count.  The assertions pin down the
*escalation order* — which rungs ran, in which order, and what the
structured :class:`~repro.resilience.recovery.RecoveryLog` recorded.
"""

import math

import numpy as np
import pytest

from repro.dae import EnsembleDAE, VanDerPolDae
from repro.errors import ConvergenceError, NonFiniteError, SimulationError
from repro.linalg.newton import NewtonOptions, newton_solve
from repro.linalg.solver_core import (
    FunctionSystem,
    SolverCore,
    SolverCoreOptions,
)
from repro.resilience import (
    GminShiftedSystem,
    PseudoTransientSystem,
    SourceScaledSystem,
    guard_dae,
    pseudo_transient_march,
)
from repro.resilience.recovery import (
    DEFAULT_CHORD_LADDER,
    DEFAULT_FULL_LADDER,
    EXTENDED_CHORD_LADDER,
    EXTENDED_FULL_LADDER,
    default_ladder,
    extended_ladder,
)
from repro.steadystate.dc import DcOptions, dc_operating_point
from repro.testing.faults import FaultyDAE, FaultyLinearSolver, FaultySystem
from repro.transient import (
    TransientOptions,
    simulate_transient,
    simulate_transient_ensemble,
)

# Fixed point of cos: the root of F(z) = z - cos(z).
COS_ROOT = 0.7390851332151607


def cos_system():
    """A contractive 3-unknown system: F(z) = z - cos(z).

    Fine for full-Newton rungs; too slow for a *fresh-factor* chord
    iteration at tight tolerances (use :func:`mild_system` there)."""

    def residual(z):
        return z - np.cos(z)

    def jacobian(z):
        return np.diag(1.0 + np.sin(z))

    return FunctionSystem(residual, jacobian)


def mild_system():
    """F(z) = z - 0.1 cos(z): the chord iteration contracts at ~0.01 per
    step, so a healthy solve converges on its first rung well inside the
    iteration budget."""

    def residual(z):
        return z - 0.1 * np.cos(z)

    def jacobian(z):
        return np.diag(1.0 + 0.1 * np.sin(z))

    return FunctionSystem(residual, jacobian)


def assert_solves_mild(result):
    assert result.converged
    gap = np.abs(result.x - 0.1 * np.cos(result.x)).max()
    assert gap < 1e-9


def make_core(mode="chord", ladder="extended", **kwargs):
    return SolverCore(SolverCoreOptions(
        mode=mode,
        ladder=ladder,
        newton=NewtonOptions(atol=1e-12, max_iterations=50),
        **kwargs,
    ))


class TestLadderVocabulary:
    def test_default_ladders_match_historical_policies(self):
        assert default_ladder("chord") == DEFAULT_CHORD_LADDER
        assert default_ladder("full") == DEFAULT_FULL_LADDER
        assert DEFAULT_CHORD_LADDER == ("chord", "full_newton")
        assert DEFAULT_FULL_LADDER == ("newton", "full_newton")

    def test_extended_ladders(self):
        assert extended_ladder("chord") == EXTENDED_CHORD_LADDER
        assert extended_ladder("full") == EXTENDED_FULL_LADDER
        assert EXTENDED_CHORD_LADDER[-1] == "continuation"
        assert EXTENDED_FULL_LADDER[-1] == "continuation"

    def test_unknown_ladder_string_rejected(self):
        with pytest.raises(ValueError, match="ladder"):
            SolverCore(SolverCoreOptions(ladder="bogus"))

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="unknown ladder rung"):
            SolverCore(SolverCoreOptions(ladder=("chord", "nonsense")))

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one rung"):
            SolverCore(SolverCoreOptions(ladder=()))


class TestRecoveryLadder:
    def test_healthy_solve_records_nothing(self):
        """First-rung convergence must keep the hot path allocation-free."""
        core = make_core()
        result = core.solve(FaultySystem(mild_system()), np.zeros(3))
        assert_solves_mild(result)
        assert not core.recovery
        assert core.recovery.total_attempts == 0
        assert core.recovery.escalated_solves == 0

    def test_singular_jacobian_escalates_to_refresh(self):
        core = make_core()
        system = FaultySystem(mild_system(), singular_jacobian_calls={0})
        result = core.solve(system, np.zeros(3))
        assert_solves_mild(result)
        assert core.recovery.rungs() == ["chord", "refresh"]
        assert core.recovery.escalated_solves == 1
        attempts = list(core.recovery.attempts)
        assert not attempts[0].converged
        assert attempts[-1].converged

    def test_nan_residual_falls_back_to_full_newton(self):
        """A NaN evaluation fails fast and the default ladder recovers."""
        core = make_core(ladder="default")
        system = FaultySystem(mild_system(), nan_residual_calls={0})
        result = core.solve(system, np.zeros(3))
        assert_solves_mild(result)
        assert core.recovery.rungs() == ["chord", "full_newton"]
        assert core.stats.fallbacks == 1
        first = list(core.recovery.attempts)[0]
        assert first.iterations == 0  # failed before any iteration
        assert not first.converged

    def test_chord_divergence_escalates_to_refresh(self):
        """A wildly mis-scaled (but nonsingular) first factorisation makes
        the chord iteration crawl; the ladder refreshes the factors."""
        core = make_core()
        system = FaultySystem(mild_system(), scale_jacobian_calls={0: 50.0})
        result = core.solve(system, np.zeros(3))
        assert_solves_mild(result)
        assert core.recovery.rungs() == ["chord", "refresh"]
        attempts = list(core.recovery.attempts)
        assert not attempts[0].converged
        assert attempts[0].iterations > 0
        assert system.jacobian_calls >= 2

    def test_walks_entire_extended_chord_ladder(self):
        """Four consecutive singular Jacobians exhaust every strategy but
        pseudo-transient continuation, which must still find the root."""
        core = make_core()
        system = FaultySystem(
            mild_system(), singular_jacobian_calls={0, 1, 2, 3}
        )
        result = core.solve(system, np.zeros(3))
        assert_solves_mild(result)
        assert core.recovery.rungs() == list(EXTENDED_CHORD_LADDER)
        assert core.recovery.escalated_solves == 1
        last = list(core.recovery.attempts)[-1]
        assert last.converged
        assert "pseudo-transient" in last.detail
        assert core.stats.fallbacks == 1
        # The escalated solve counts the iterations of every rung it
        # tried, failed ones included.
        logged = [a.iterations for a in core.recovery.attempts]
        assert logged == [0, 0, 1, 1, 2]
        assert core.stats.iterations == sum(logged) == 4

    def test_extended_full_ladder_reaches_gmres(self):
        core = make_core(mode="full")
        system = FaultySystem(cos_system(), singular_jacobian_calls={0, 1})
        result = core.solve(system, np.zeros(3), fallback_z0=np.zeros(3))
        assert result.converged
        np.testing.assert_allclose(result.x, COS_ROOT, atol=1e-9)
        assert core.recovery.rungs() == ["newton", "full_newton", "gmres"]
        logged = [a.iterations for a in core.recovery.attempts]
        assert logged == [1, 1, 5]
        assert core.stats.iterations == sum(logged) == 7
        # One LU each for the newton and full_newton rungs, then the gmres
        # rung's per-iteration LU preconditioners.
        assert core.stats.factorizations == 7
        assert core.stats.krylov_iterations >= 5

    def test_full_mode_failure_carries_structured_context(self):
        """Satellite: ConvergenceError must carry iterations and
        residual_norm on the no-root failure path, plus the log."""
        core = make_core(mode="full", ladder="default")

        def residual(z):
            return z * z + 1.0  # no real root

        def jacobian(z):
            return np.diag(2.0 * z)

        with pytest.raises(ConvergenceError) as info:
            core.solve(FunctionSystem(residual, jacobian), np.array([0.5]))
        exc = info.value
        assert exc.iterations is not None and exc.iterations > 0
        assert exc.residual_norm is not None
        assert exc.recovery is core.recovery
        assert core.recovery.rungs()[0] == "newton"

    def test_faulty_linear_solver_raise_mode_triggers_fallback(self):
        solver = FaultyLinearSolver(fail_calls={0})
        core = make_core(mode="full", ladder="default", linear_solver=solver)
        result = core.solve(
            FaultySystem(cos_system()), np.zeros(3), fallback_z0=np.zeros(3)
        )
        assert result.converged
        np.testing.assert_allclose(result.x, COS_ROOT, atol=1e-9)
        assert core.recovery.rungs() == ["newton", "full_newton"]
        assert core.stats.fallbacks == 1
        assert solver.calls == 1

    def test_faulty_linear_solver_nan_mode_triggers_fallback(self):
        solver = FaultyLinearSolver(fail_calls={0}, mode="nan")
        core = make_core(mode="full", ladder="default", linear_solver=solver)
        result = core.solve(
            FaultySystem(cos_system()), np.zeros(3), fallback_z0=np.zeros(3)
        )
        assert result.converged
        assert core.recovery.rungs() == ["newton", "full_newton"]

    def test_faulty_linear_solver_validates_mode(self):
        with pytest.raises(ValueError, match="mode"):
            FaultyLinearSolver(mode="explode")

    def test_no_applicable_rung_raises_structured_error(self):
        """A ladder with only chord rungs on a full-mode core has nothing
        to run; the error still carries non-None context."""
        core = make_core(mode="full", ladder=("chord", "refresh"))
        with pytest.raises(ConvergenceError, match="no applicable") as info:
            core.solve(FaultySystem(cos_system()), np.zeros(3))
        assert info.value.iterations == 0
        assert math.isnan(info.value.residual_norm)
        assert info.value.recovery is core.recovery

    def test_recovery_log_summary_and_dict(self):
        core = make_core()
        system = FaultySystem(mild_system(), singular_jacobian_calls={0})
        core.solve(system, np.zeros(3))
        payload = core.recovery.as_dict()
        assert payload["escalated_solves"] == 1
        assert payload["total_attempts"] == 2
        assert payload["rung_counts"] == {"chord": 1, "refresh": 1}
        assert "escalated" in core.recovery.summary()


class TestContinuationWrappers:
    def base(self):
        def residual(z):
            return z * z - 2.0

        def jacobian(z):
            return np.diag(2.0 * z)

        return FunctionSystem(residual, jacobian, structure={"size": 2})

    def test_gmin_shift(self):
        base = self.base()
        wrapped = GminShiftedSystem(base, 0.5)
        z = np.array([1.0, 2.0])
        np.testing.assert_allclose(
            wrapped.residual(z), base.residual(z) + 0.5 * z
        )
        np.testing.assert_allclose(
            wrapped.jacobian(z), np.diag(2.0 * z) + 0.5 * np.eye(2)
        )
        assert wrapped.structure()["continuation"] == "GminShiftedSystem"

    def test_source_scaling(self):
        base = self.base()
        source = np.array([3.0, -1.0])
        wrapped = SourceScaledSystem(base, source, 0.25)
        z = np.array([1.0, 2.0])
        np.testing.assert_allclose(
            wrapped.residual(z), base.residual(z) + 0.75 * source
        )
        # Source scaling leaves the Jacobian untouched.
        np.testing.assert_allclose(wrapped.jacobian(z), np.diag(2.0 * z))

    def test_pseudo_transient_shift(self):
        base = self.base()
        z_ref = np.array([0.5, 0.5])
        wrapped = PseudoTransientSystem(base, z_ref, 0.1)
        z = np.array([1.0, 2.0])
        np.testing.assert_allclose(
            wrapped.residual(z), base.residual(z) + (z - z_ref) / 0.1
        )
        np.testing.assert_allclose(
            wrapped.jacobian(z), np.diag(2.0 * z) + 10.0 * np.eye(2)
        )

    def test_pseudo_transient_rejects_bad_dtau(self):
        with pytest.raises(ValueError, match="dtau"):
            PseudoTransientSystem(self.base(), np.zeros(2), 0.0)

    def test_pseudo_transient_march_converges(self):
        system = cos_system()
        options = NewtonOptions(
            atol=1e-12, max_iterations=50, raise_on_failure=False
        )

        def stage_solve(stage, start):
            return newton_solve(
                stage.residual, stage.jacobian, start, options=options
            )

        result, trail = pseudo_transient_march(
            stage_solve, system, np.zeros(3), stages=4, dtau=1e-2
        )
        assert result.converged
        np.testing.assert_allclose(result.x, COS_ROOT, atol=1e-9)
        assert len(trail) == 4
        dtaus = [dtau for dtau, _ in trail]
        np.testing.assert_allclose(dtaus, [1e-2, 1e-1, 1.0, 10.0])
        assert all(stage.converged for _, stage in trail)


class _SlowDae:
    """1-unknown DAE with f(x) = exp(x), b = 5: the root x = ln 5 exists
    but plain Newton needs far more iterations than the tiny budget the
    test grants, so the direct solve *and* every continuation stage fail
    cleanly (non-converged, never singular, no overflow)."""

    n = 1
    variable_names = ("x",)

    def f(self, x):
        return np.exp(np.asarray(x, dtype=float).ravel())

    def df_dx(self, x):
        return np.diag(np.exp(np.asarray(x, dtype=float).ravel()))

    def b(self, t):
        return np.full(1, 5.0)


class TestDcContinuation:
    def test_solves_with_generous_budget(self):
        x = dc_operating_point(_SlowDae())
        np.testing.assert_allclose(x, np.log(5.0), atol=1e-7)

    def test_total_failure_carries_recovery_log(self):
        options = DcOptions(
            newton=NewtonOptions(
                atol=1e-14, max_iterations=3, raise_on_failure=False
            ),
            gmin_steps=2,
            source_steps=1,
        )
        with pytest.raises(ConvergenceError) as info:
            dc_operating_point(_SlowDae(), options=options)
        exc = info.value
        assert exc.iterations is not None
        assert exc.residual_norm is not None
        assert exc.recovery is not None and exc.recovery.total_attempts > 0
        rungs = exc.recovery.rungs()
        assert rungs[0] == "newton"
        assert "continuation" in rungs
        assert any(not a.converged for a in exc.recovery.attempts)


class TestGuards:
    def test_nan_device_evaluation_is_attributed(self):
        dae = FaultyDAE(VanDerPolDae(mu=1.0), nan_f_calls={0})
        guarded = guard_dae(dae)
        with pytest.raises(NonFiniteError) as info:
            guarded.f(np.array([0.1, 0.2]))
        exc = info.value
        assert exc.method == "f"
        assert exc.variable == dae.variable_names[0]
        assert isinstance(exc, SimulationError)
        assert not isinstance(exc, ConvergenceError)
        # Only call 0 was poisoned; the guard passes clean values through.
        assert np.isfinite(guarded.f(np.array([0.1, 0.2]))).all()

    def test_nan_forcing_window_is_attributed(self):
        guarded = guard_dae(
            FaultyDAE(VanDerPolDae(mu=1.0), nan_b_window=(0.5, 1.0))
        )
        assert np.isfinite(guarded.b(0.25)).all()
        with pytest.raises(NonFiniteError) as info:
            guarded.b(0.75)
        assert info.value.method == "b"

    def test_guard_is_idempotent(self):
        guarded = guard_dae(VanDerPolDae(mu=1.0))
        assert guard_dae(guarded) is guarded

    def test_input_guard(self):
        guarded = guard_dae(VanDerPolDae(mu=1.0), check_inputs=True)
        with pytest.raises(NonFiniteError) as info:
            guarded.f(np.array([np.nan, 0.0]))
        assert info.value.method == "f"
        assert "state" in str(info.value)
        assert info.value.variable == guarded.variable_names[0]


class TestEngineFaultPaths:
    def test_transient_dt_underflow_carries_full_context(self):
        """A NaN forcing window ahead of the march makes every step into
        it fail; dt halves to the floor and the raised SimulationError
        must carry step/time/dt, a salvageable prefix and a resumable
        checkpoint of the pre-fault state."""
        dae = FaultyDAE(
            VanDerPolDae(mu=1.0), nan_b_window=(0.5, np.inf)
        )
        options = TransientOptions(
            integrator="trap", dt=0.01, dt_min=1e-10
        )
        with pytest.raises(SimulationError, match="underflow") as info:
            simulate_transient(dae, [2.0, 0.0], 0.0, 1.0, options)
        exc = info.value
        assert exc.step is not None and exc.step > 0
        assert exc.time is not None and exc.time < 0.5
        assert exc.dt is not None and exc.dt < 1e-9
        assert exc.checkpoint is not None
        assert exc.checkpoint.kind == "transient"
        assert exc.partial_result is not None
        assert exc.partial_result.t[-1] < 0.5
        assert np.isfinite(exc.partial_result.x).all()

    def test_ensemble_dt_underflow_carries_partial_result(self):
        members = [
            FaultyDAE(VanDerPolDae(mu=0.5), nan_b_window=(0.25, np.inf))
            for _ in range(2)
        ]
        ensemble = EnsembleDAE.from_members(members)
        x0 = np.tile([2.0, 0.0], (2, 1))
        options = TransientOptions(
            integrator="trap", dt=0.01, dt_min=1e-8
        )
        with pytest.raises(SimulationError, match="underflow") as info:
            simulate_transient_ensemble(ensemble, x0, 0.0, 1.0, options)
        exc = info.value
        assert exc.step is not None
        assert exc.dt is not None
        assert exc.partial_result is not None
        assert exc.partial_result.x.shape[1:] == (2, 2)
        assert exc.partial_result.t[-1] < 0.25

    def test_recovered_transient_reports_recovery_stats(self):
        """One poisoned f() evaluation mid-run fails a chord solve; the
        ladder's full-Newton rung re-evaluates cleanly and saves the
        step, and the run reports the escalation in its stats."""
        dae = FaultyDAE(VanDerPolDae(mu=1.0), nan_f_calls={40})
        options = TransientOptions(integrator="trap", dt=0.01)
        result = simulate_transient(dae, [2.0, 0.0], 0.0, 0.5, options)
        assert np.isfinite(result.x).all()
        recovery = result.stats.get("recovery")
        assert recovery is not None
        assert recovery["escalated_solves"] >= 1

    def test_clean_transient_has_no_recovery_stats(self):
        options = TransientOptions(integrator="trap", dt=0.01)
        result = simulate_transient(
            VanDerPolDae(mu=1.0), [2.0, 0.0], 0.0, 0.5, options
        )
        assert "recovery" not in result.stats
