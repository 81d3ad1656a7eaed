"""Tests for the unified collocation solver core.

Covers the :class:`repro.linalg.solver_core.SolverCore` policy machinery
itself (stats accounting against a hand-instrumented run, parameter-jump
invalidation, the threaded assembler refresh) and the chord-vs-full
equivalence of every ported call site: both envelope engines, forced and
autonomous harmonic balance, both quasiperiodic solvers and the DC
operating point.
"""

import numpy as np
import pytest

from repro.constants import TWO_PI
from repro.dae import LinearRCDae
from repro.linalg.lu_cache import ReusableLUSolver
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import (
    CollocationSystem,
    FunctionSystem,
    SolverCore,
    SolverCoreOptions,
    SolverStats,
)
from repro.mpde import additive_two_tone_forcing
from repro.steadystate import (
    dc_operating_point,
    harmonic_balance_autonomous,
    harmonic_balance_forced,
)
from repro.steadystate.dc import DcOptions


def quadratic_system(n=3):
    """Small well-conditioned nonlinear system with a known root."""
    a = np.diag(np.arange(2.0, 2.0 + n))

    def residual(x):
        return a @ x + 0.1 * x**3 - np.ones(n)

    def jacobian(x):
        return a + np.diag(0.3 * x**2)

    return residual, jacobian


class CubicRCDae(LinearRCDae):
    """RC low-pass with a cubic conductance — minimally nonlinear, so the
    collocation Jacobian actually changes between Newton iterates."""

    def f(self, x):
        return np.array([x[0] / self.resistance + 0.5 * x[0] ** 3])

    def df_dx(self, x):
        return np.array([[1.0 / self.resistance + 1.5 * x[0] ** 2]])


def forced_vdp(base_frequency, amp=0.5):
    """Van der Pol with slow additive forcing (drives real Newton work)."""
    from repro.dae import VanDerPolDae

    slow_freq = base_frequency / 40.0

    class RampedVdp(VanDerPolDae):
        def b(self, t):
            return np.array([0.0, amp * np.sin(TWO_PI * slow_freq * t)])

        def b_batch(self, times):
            times = np.asarray(times, dtype=float).ravel()
            out = np.zeros((times.size, 2))
            out[:, 1] = amp * np.sin(TWO_PI * slow_freq * times)
            return out

    return RampedVdp(mu=0.2)


def rc_two_tone(f1=50.0, f2=1.0, nonlinear=False):
    cls = CubicRCDae if nonlinear else LinearRCDae
    dae = cls(resistance=1.0, capacitance=0.02)

    def fast(t1):
        return np.array([np.cos(TWO_PI * f1 * t1)])

    def slow(t2):
        return np.array([0.5 * np.cos(TWO_PI * f2 * t2)])

    forcing = additive_two_tone_forcing(fast, slow, 1.0 / f1, 1.0 / f2, 1)
    return dae, forcing


class TestSolverCorePolicy:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SolverCore(SolverCoreOptions(mode="quasi"))

    def test_rejects_unknown_linear_solver(self):
        with pytest.raises(ValueError, match="linear_solver"):
            SolverCore(SolverCoreOptions(linear_solver="cholesky"))

    def test_custom_linear_solver_implies_full_mode(self):
        core = SolverCore(SolverCoreOptions(
            mode="chord", linear_solver=ReusableLUSolver()
        ))
        assert core.mode == "full"

    def test_chord_mode_reported(self):
        assert SolverCore(SolverCoreOptions(mode="chord")).mode == "chord"

    def test_full_solve_matches_root(self):
        residual, jacobian = quadratic_system()
        core = SolverCore()
        result = core.solve(FunctionSystem(residual, jacobian), np.zeros(3))
        assert result.converged
        np.testing.assert_allclose(residual(result.x), 0.0, atol=1e-9)

    def test_chord_solve_matches_full(self):
        residual, jacobian = quadratic_system()
        full = SolverCore().solve(
            FunctionSystem(residual, jacobian), np.zeros(3)
        )
        chord = SolverCore(SolverCoreOptions(mode="chord")).solve(
            FunctionSystem(residual, jacobian), np.zeros(3)
        )
        assert chord.converged
        np.testing.assert_allclose(chord.x, full.x, atol=1e-8)

    def test_chord_carries_factorization_across_solves(self):
        residual, jacobian = quadratic_system()
        core = SolverCore(SolverCoreOptions(mode="chord"))
        system = FunctionSystem(residual, jacobian)
        core.solve(system, np.zeros(3))
        first = core.stats.factorizations
        # Re-solving from a nearby point reuses the stored factors.
        core.solve(system, core.solve(system, np.zeros(3)).x + 1e-3)
        assert core.stats.factorizations == first

    def test_note_parameters_invalidates_on_jump(self):
        residual, jacobian = quadratic_system()
        core = SolverCore(SolverCoreOptions(mode="chord"))
        system = FunctionSystem(residual, jacobian)
        core.note_parameters(h=1.0)
        core.solve(system, np.zeros(3))
        baseline = core.stats.factorizations
        core.note_parameters(h=1.01)  # smooth drift: factors kept
        core.solve(system, np.full(3, 0.01))
        assert core.stats.factorizations == baseline
        core.note_parameters(h=10.0)  # jump: factors dropped
        core.solve(system, np.full(3, 0.01))
        assert core.stats.factorizations == baseline + 1

    def test_function_system_structure_report(self):
        system = FunctionSystem(
            lambda z: z, lambda z: np.eye(z.size), structure={"size": 4}
        )
        assert system.structure() == {"size": 4}
        assert CollocationSystem().structure() == {}


class TestStatsAccounting:
    def test_counters_match_hand_instrumented_run(self):
        """SolverCore's uniform counters must agree with direct counting."""
        residual, jacobian = quadratic_system()
        calls = {"residual": 0, "jacobian": 0}

        class Counting(CollocationSystem):
            def residual(self, z):
                calls["residual"] += 1
                return residual(z)

            def jacobian(self, z):
                calls["jacobian"] += 1
                return jacobian(z)

        core = SolverCore()
        result = core.solve(Counting(), np.zeros(3))
        stats = core.stats
        assert stats.solves == 1
        assert stats.iterations == result.iterations
        assert stats.residual_evaluations == calls["residual"]
        assert stats.jacobian_refreshes == calls["jacobian"]
        # Full Newton through ReusableLUSolver: every iteration's dense
        # solve factors once (small-matrix direct path).
        assert stats.factorizations == core._linear_solver.stats[
            "factorizations"
        ]
        assert stats.factorizations >= result.iterations
        assert stats.fallbacks == 0
        assert stats.wall_time_s > 0.0

    def test_chord_counters_accumulate_across_solves(self):
        residual, jacobian = quadratic_system()
        core = SolverCore(SolverCoreOptions(mode="chord"))
        system = FunctionSystem(residual, jacobian)
        r1 = core.solve(system, np.zeros(3))
        r2 = core.solve(system, r1.x + 1e-3)
        assert core.stats.solves == 2
        assert core.stats.iterations == r1.iterations + r2.iterations

    def test_as_dict_and_summary_round_trip(self):
        stats = SolverStats(solves=2, iterations=7, factorizations=1)
        rebuilt = SolverStats(**stats.as_dict())
        assert rebuilt == stats
        text = rebuilt.summary()
        assert "7 Newton iterations" in text and "1 factorizations" in text


class TestReusableLUStats:
    def test_sparse_factorization_counted_once_per_value_set(self):
        import scipy.sparse as sp

        solver = ReusableLUSolver()
        matrix = sp.csc_matrix(np.diag([2.0, 3.0, 4.0]))
        rhs = np.ones(3)
        first = solver(matrix, rhs)
        second = solver(matrix, rhs)  # identical values: factorised again
        assert np.array_equal(first, second)
        assert solver.stats["factorizations"] == 2
        assert solver.stats["solves"] == 2


def _solver_distance(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class TestChordVsFullPerSolver:
    """Chord and full Newton must agree within solver tolerance on every
    ported call site, with chord factorising measurably less on the
    stepped engines."""

    def test_wampde_envelope(self, vdp_limit_cycle):
        from repro.wampde import WampdeEnvelopeOptions, solve_wampde_envelope

        _dae, hb = vdp_limit_cycle
        dae = forced_vdp(hb.frequency)
        runs = {}
        for mode in ("full", "chord"):
            env = solve_wampde_envelope(
                dae, hb.samples, hb.frequency, 0.0, 20.0, 40,
                WampdeEnvelopeOptions(newton_mode=mode),
            )
            runs[mode] = env
        assert _solver_distance(
            runs["full"].omega, runs["chord"].omega
        ) < 1e-6 * hb.frequency
        assert _solver_distance(
            runs["full"].samples, runs["chord"].samples
        ) < 1e-6
        full_facts = runs["full"].stats["solver"]["factorizations"]
        chord_facts = runs["chord"].stats["solver"]["factorizations"]
        # The headline of the port: the chord envelope factorises an order
        # of magnitude less across the march (ISSUE acceptance criterion).
        assert chord_facts < full_facts
        assert chord_facts <= max(full_facts // 5, 2)

    def test_mpde_envelope(self):
        from repro.mpde import solve_mpde_envelope
        from repro.mpde.envelope import MpdeEnvelopeOptions

        dae, forcing = rc_two_tone(nonlinear=True)
        runs = {}
        for mode in ("full", "chord"):
            runs[mode] = solve_mpde_envelope(
                dae, forcing, np.zeros((9, 1)), 0.0, 1.0, 100,
                MpdeEnvelopeOptions(newton_mode=mode),
            )
        assert _solver_distance(
            runs["full"].samples, runs["chord"].samples
        ) < 1e-7
        assert (
            runs["chord"].stats["solver"]["factorizations"]
            < runs["full"].stats["solver"]["factorizations"]
        )

    def test_harmonic_balance_forced(self):
        dae = LinearRCDae(resistance=2.0, capacitance=0.3, amplitude=1.0,
                          omega=TWO_PI)
        results = {
            mode: harmonic_balance_forced(
                dae, period=1.0, num_samples=15,
                solver_options=SolverCoreOptions(mode=mode),
            )
            for mode in ("full", "chord")
        }
        assert _solver_distance(
            results["full"].samples, results["chord"].samples
        ) < 1e-9
        assert results["chord"].stats["factorizations"] >= 1

    def test_hb_honours_solver_options_newton(self):
        """Newton budgets set on solver_options must not be discarded."""
        from repro.errors import ConvergenceError

        dae = CubicRCDae(resistance=2.0, capacitance=0.3, amplitude=1.0,
                         omega=TWO_PI)
        # Loose reference run needs several iterations...
        reference = harmonic_balance_forced(dae, period=1.0, num_samples=15)
        assert reference.newton_iterations > 1
        # ... so a 1-iteration budget carried via solver_options must fail.
        with pytest.raises(ConvergenceError):
            harmonic_balance_forced(
                dae, period=1.0, num_samples=15,
                solver_options=SolverCoreOptions(
                    newton=NewtonOptions(max_iterations=1)
                ),
            )

    def test_harmonic_balance_autonomous(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        results = {
            mode: harmonic_balance_autonomous(
                dae, hb.frequency, hb.samples, num_samples=25,
                solver_options=SolverCoreOptions(mode=mode),
            )
            for mode in ("full", "chord")
        }
        assert abs(
            results["full"].frequency - results["chord"].frequency
        ) < 1e-7 * hb.frequency
        assert _solver_distance(
            results["full"].samples, results["chord"].samples
        ) < 1e-6

    def test_mpde_quasiperiodic(self):
        from repro.mpde import solve_mpde_quasiperiodic
        from repro.mpde.quasiperiodic import MpdeQuasiperiodicOptions

        dae, forcing = rc_two_tone()
        results = {
            mode: solve_mpde_quasiperiodic(
                dae, forcing, num_t1=9, num_t2=9,
                options=MpdeQuasiperiodicOptions(newton_mode=mode),
            )
            for mode in ("full", "chord")
        }
        assert _solver_distance(
            results["full"].samples, results["chord"].samples
        ) < 1e-8
        assert results["chord"].stats["solves"] == 1

    def test_wampde_quasiperiodic(self, vdp_limit_cycle):
        from repro.wampde import solve_wampde_quasiperiodic
        from repro.wampde.quasiperiodic import WampdeQuasiperiodicOptions

        dae, hb = vdp_limit_cycle
        results = {
            mode: solve_wampde_quasiperiodic(
                dae, 10.0, hb.samples, hb.frequency, num_t2=5,
                options=WampdeQuasiperiodicOptions(newton_mode=mode),
            )
            for mode in ("full", "chord")
        }
        assert _solver_distance(
            results["full"].omega, results["chord"].omega
        ) < 1e-6 * hb.frequency
        assert _solver_distance(
            results["full"].samples, results["chord"].samples
        ) < 1e-6

    def test_dc_operating_point(self):
        from repro.circuits.library import rc_diode_mixer_circuit

        dae = rc_diode_mixer_circuit().to_dae()
        x_full = dc_operating_point(
            dae, options=DcOptions(newton_mode="full")
        )
        x_chord = dc_operating_point(
            dae, options=DcOptions(newton_mode="chord")
        )
        assert _solver_distance(x_full, x_chord) < 1e-8


class TestEnvelopeGmresOption:
    def test_wampde_envelope_with_gmres_linear_solver(self, vdp_limit_cycle):
        """The named 'gmres' linear solver (frozen-LU preconditioner) must
        reproduce the direct-LU envelope within solver tolerance."""
        from repro.wampde import WampdeEnvelopeOptions, solve_wampde_envelope

        dae, hb = vdp_limit_cycle
        lu = solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 5.0, 10,
            WampdeEnvelopeOptions(),
        )
        gmres = solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 5.0, 10,
            WampdeEnvelopeOptions(linear_solver="gmres"),
        )
        assert _solver_distance(lu.omega, gmres.omega) < 1e-6 * hb.frequency
        assert _solver_distance(lu.samples, gmres.samples) < 1e-6


class TestChordFallback:
    def test_failed_chord_falls_back_to_full_newton(self):
        """A pathologically stale chord start must still converge (via the
        damped full-Newton fallback) and count the fallback."""
        calls = {"n": 0}

        def residual(x):
            return np.array([np.arctan(x[0]) - 0.2])

        def jacobian(x):
            calls["n"] += 1
            # First Jacobian is garbage (nearly singular): the chord policy
            # iterates uphill with it, refreshes, and ultimately the core
            # falls back to damped full Newton.
            if calls["n"] == 1:
                return np.array([[1e-14]])
            return np.array([[1.0 / (1.0 + x[0] ** 2)]])

        core = SolverCore(SolverCoreOptions(
            mode="chord",
            newton=NewtonOptions(atol=1e-12, max_iterations=8),
        ))
        result = core.solve(
            FunctionSystem(residual, jacobian), np.array([5.0])
        )
        assert result.converged
        np.testing.assert_allclose(result.x[0], np.tan(0.2), atol=1e-9)
        # The chord iterations burned before the fallback must be counted
        # on top of the fallback's own (result.iterations).
        assert core.stats.fallbacks == 1
        chord_burn = core._chord.stats["iterations"]
        assert chord_burn > 0
        assert core.stats.iterations == chord_burn + result.iterations


class TestFallbackFactorAdoption:
    """The chord policy must *adopt* the damped full-Newton fallback's
    freshly factorised Jacobian instead of discarding it (ROADMAP item)."""

    @staticmethod
    def _linear_sparse_problem(matrix, rhs):
        import scipy.sparse as sp

        csc = sp.csc_matrix(matrix)

        def residual(z):
            return csc @ z - rhs

        def jacobian(z):
            return csc.copy()

        return residual, jacobian

    @staticmethod
    def _core_after_fallback(rng):
        """Drive a chord core through refactor-then-fail into the fallback.

        max_iterations=1 lets full Newton solve the linear system exactly
        while the chord attempt (one stale step, internal refresh, budget
        exhausted) is forced onto the fallback path.
        """
        n = 40
        a1 = np.diag(np.arange(2.0, 2.0 + n)) \
            + 0.1 * rng.standard_normal((n, n))
        core = SolverCore(SolverCoreOptions(
            mode="chord",
            newton=NewtonOptions(atol=1e-9, max_iterations=1,
                                 raise_on_failure=False),
        ))
        res1, jac1 = TestFallbackFactorAdoption._linear_sparse_problem(
            a1, np.ones(n)
        )
        assert core.solve(FunctionSystem(res1, jac1), np.zeros(n)).converged
        assert core.stats.fallbacks == 0

        # A very different matrix: the stale factors cannot contract, the
        # single-iteration budget expires, the fallback solves it fresh.
        a2 = 3.0 * a1 + np.diag(np.arange(n))
        res2, jac2 = TestFallbackFactorAdoption._linear_sparse_problem(
            a2, rng.standard_normal(n)
        )
        result = core.solve(FunctionSystem(res2, jac2), np.zeros(n))
        assert result.converged
        assert core.stats.fallbacks == 1
        return core, res2, jac2, a2

    def test_chord_reuses_adopted_factors_after_fallback(self, rng):
        core, res2, jac2, a2 = self._core_after_fallback(rng)
        before = core.stats.factorizations

        # Same matrix, new right-hand side: the adopted fallback factors
        # are exact, so the next chord solve must not refactorise at all —
        # one fewer refactorisation on the fallback path than the old
        # discard-and-refresh behaviour.
        rhs3 = rng.standard_normal(a2.shape[0])
        res3, jac3 = self._linear_sparse_problem(a2, rhs3)
        result = core.solve(FunctionSystem(res3, jac3), np.zeros(a2.shape[0]))
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(a2, rhs3),
                                   atol=1e-7)
        assert core.stats.factorizations == before
        assert core.stats.fallbacks == 1  # no new fallback either

    def test_export_frozen_snapshots(self, rng):
        import scipy.sparse as sp

        from repro.linalg.lu_cache import ReusableLUSolver as Solver

        solver = Solver()
        assert solver.export_frozen() is None  # nothing factored yet

        n = 40
        a = sp.csc_matrix(np.diag(np.arange(1.0, 1.0 + n)))
        b = rng.standard_normal(n)
        solver(a, b)
        frozen = solver.export_frozen()
        assert frozen is not None
        np.testing.assert_allclose(frozen.solve(b), b / np.arange(1.0, 1.0 + n),
                                   atol=1e-12)

        dense = Solver()
        a_dense = np.diag(np.arange(1.0, 1.0 + n))
        dense(a_dense, b)
        frozen_dense = dense.export_frozen()
        np.testing.assert_allclose(frozen_dense.solve(b),
                                   np.linalg.solve(a_dense, b), atol=1e-12)

        small = Solver()
        small(np.eye(4), np.ones(4))  # small-dense direct path: no factors
        assert small.export_frozen() is None


class TestFallbackStartPoint:
    def test_full_mode_fallback_requires_fallback_z0(self):
        calls = {"n": 0}

        def residual(z):
            calls["n"] += 1
            # Non-contracting plateau from the bad start, trivial from the
            # good one.
            if abs(z[0]) > 50.0:
                return np.array([1e6])
            return z - 1.0

        def jacobian(z):
            return np.eye(1)

        opts = SolverCoreOptions(
            mode="full",
            newton=NewtonOptions(max_iterations=3, max_step_halvings=2,
                                 raise_on_failure=False),
        )
        bad = np.array([100.0])
        good = np.array([0.0])
        # Without a fallback point the failure is returned as-is.
        result = SolverCore(opts).solve(
            FunctionSystem(residual, jacobian), bad
        )
        assert not result.converged
        # With one, the fallback rescues the solve (and is counted).
        core = SolverCore(opts)
        result = core.solve(
            FunctionSystem(residual, jacobian), bad, fallback_z0=good
        )
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0], atol=1e-8)
        assert core.stats.fallbacks == 1



class TestDeferredRefactor:
    """``refactor_at`` holds factors by their metadata; NumPy factorises
    them only when a solve needs them (a compiled march rebuilds its own
    from the metadata)."""

    def test_factorises_on_the_next_solve_only(self):
        matrix = 2.0 * np.eye(3)
        built = []

        def matrix_at(meta):
            built.append(meta)
            return matrix

        def jacobian(z):
            raise AssertionError("the held factors should serve the solve")

        core = SolverCore(SolverCoreOptions(mode="chord"))
        meta = ("z", 0.5)
        core.refactor_at(meta, matrix_at)
        assert built == []
        assert core.factor_metadata() is meta
        core.invalidate()
        assert core.factor_metadata() is None
        core.note_parameters(h=1.0)
        core.refactor_at(meta, matrix_at)
        core.note_parameters(h=2.0)  # a jump drops the held factors
        assert core.factor_metadata() is None
        core.refactor_at(meta, matrix_at)
        result = core.solve(
            FunctionSystem(lambda z: matrix @ z - 2.0, jacobian), np.zeros(3)
        )
        assert built == [meta]
        np.testing.assert_array_equal(result.x, np.ones(3))
        assert core.stats.factorizations == 0

    def test_full_mode_ignores_metadata(self):
        core = SolverCore(SolverCoreOptions(mode="full"))
        core.refactor_at(("z", 0.5), lambda meta: 1 / 0)
        assert core.factor_metadata() is None
