"""Unified Newton driver for collocation nonlinear systems.

Every multi-time workload in this library — the WaMPDE/MPDE envelopes,
harmonic balance (forced and autonomous), both quasiperiodic boundary-value
solvers and the DC operating point — reduces to the same shape: a nonlinear
system ``F(z) = 0`` whose Jacobian has a fixed sparsity pattern that a
:class:`repro.linalg.collocation.CollocationJacobianAssembler` refreshes in
place per iteration.  Historically each engine hand-rolled its own closure
plumbing, linear-solver selection and stats around ``newton_solve``; this
module centralises that machinery so a new solver is a small
:class:`CollocationSystem` implementation, not a new module of duplicated
plumbing.

The pieces
----------

:class:`CollocationSystem`
    The problem contract: ``residual(z)``, ``jacobian(z)`` (expected to
    refresh assembler data in place and return the matrix), and an optional
    ``structure()`` report.  The collocation engines solve two
    implementations of it,
    :class:`~repro.linalg.collocation.WarpedCollocationSystem` and
    :class:`~repro.linalg.spectral.PeriodicCollocationSystem`;
    closure-based call sites use :class:`FunctionSystem`.

:class:`SolverCore`
    The driver.  Owns the Newton policy (``mode="full"`` via
    :func:`repro.linalg.newton.newton_solve`, ``mode="chord"`` via
    :class:`repro.linalg.newton.StaleJacobianNewton` with
    refresh-on-slow-contraction and a damped full-Newton fallback), the
    linear-solver selection (:class:`repro.linalg.lu_cache.ReusableLUSolver`
    by default, frozen-LU GMRES via ``linear_solver="gmres"`` for large
    systems, or any ``(matrix, rhs) -> x`` callable), and the uniform
    :class:`SolverStats`.  One instance lives for a whole step sequence:
    in chord mode the factorisation is carried **across** solves (envelope
    steps) exactly the way the transient engine carries it across time
    steps, and :meth:`SolverCore.note_parameters` drops it when a step
    parameter (``h``, ``omega``) moves beyond a relative threshold.

:class:`SolverStats`
    Uniform counters — solves, iterations, residual evaluations, Jacobian
    (assembler) refreshes, factorisations, fallbacks, wall time — reported
    identically by every engine and printed by the CLI.

Adding a new solver in ~50 lines
--------------------------------

Implement the contract and hand it to a core::

    from repro.linalg.collocation import collocation_assembler
    from repro.linalg.solver_core import (
        CollocationSystem, SolverCore, SolverCoreOptions,
    )

    class MySystem(CollocationSystem):
        '''Collocation discretisation of my new analysis.'''

        def __init__(self, dae, num_points, coupling):
            self.dae = dae
            self.coupling = coupling          # (M, M) point coupling
            self.assembler = collocation_assembler(
                num_points, dae.n,
                dq_mask=dae.dq_structure(), df_mask=dae.df_structure(),
            )

        def residual(self, z):
            states = z.reshape(-1, self.dae.n)
            q, f = self.dae.qf_batch(states)      # one fused evaluation
            return (self.coupling @ q + f).ravel() - self.rhs

        def jacobian(self, z):
            states = z.reshape(-1, self.dae.n)
            return self.assembler.refresh(        # data-only, fixed pattern
                self.coupling,
                self.dae.dq_dx_batch(states),
                diag_inner=self.dae.df_dx_batch(states),
            )

    core = SolverCore(SolverCoreOptions(mode="chord"))
    result = core.solve(MySystem(dae, m, coupling), z0)
    print(core.stats.summary())

That is the *entire* integration surface: damping, chord refresh policy,
factorisation reuse, GMRES fallback and stats all come from the core.  For
a stepped analysis, keep one core for the whole run, call
``core.note_parameters(h=h, omega=omega)`` before each step's solve, and
the chord factorisation survives smooth steps and is dropped on jumps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

from repro.errors import ConvergenceError
from repro.linalg.lu_cache import FrozenFactorization, ReusableLUSolver
from repro.linalg.newton import (
    NewtonOptions,
    StaleJacobianNewton,
    newton_solve,
)
from repro.resilience.recovery import (
    LADDER_RUNGS,
    RecoveryAttempt,
    RecoveryLog,
    default_ladder,
    extended_ladder,
)

#: Accepted Newton policies.
SOLVER_MODES = ("full", "chord")

#: Accepted named linear solvers (besides an explicit callable).
LINEAR_SOLVERS = ("lu", "gmres")

#: Relative change in a step parameter (the envelope step ``h``, the local
#: frequency ``omega``, the transient integrator weight ``alpha ~ 1/dt``)
#: that drops the frozen chord factorisation.  Read alike by
#: :meth:`SolverCore.note_parameters`, the lock-step ensemble chord and
#: the compiled sweeps of :mod:`repro.kernels.sweep`.
INVALIDATE_RTOL = 0.25

#: Pseudo-transient stages marched by the ``"continuation"`` recovery rung.
CONTINUATION_STAGES = 5

#: Initial pseudo-time step of the ``"continuation"`` rung, grown
#: geometrically per stage.
CONTINUATION_DTAU = 1e-2


@dataclass
class SolverStats:
    """Uniform counters every :class:`SolverCore`-based engine reports.

    Attributes
    ----------
    solves:
        Nonlinear solves attempted, successful or not (1 for a
        boundary-value problem, one per attempted step for an envelope
        march).
    iterations:
        Newton/chord iterations across all solves.
    residual_evaluations:
        Calls into ``system.residual`` (includes line-search trials).
    jacobian_refreshes:
        Calls into ``system.jacobian`` — i.e. assembler data refreshes.
    factorizations:
        LU factorisations of assembled matrices performed by the
        linear-solver backend (SuperLU/LAPACK; the dominant envelope
        cost), GMRES LU preconditioners included.
    krylov_iterations:
        GMRES inner iterations (the ``"gmres"`` linear solver, the
        ``"gmres"`` recovery rung, and the matrix-free route of forced
        harmonic balance and the bi-periodic MPDE).
    fallbacks:
        Chord solves that fell back to damped full Newton.
    wall_time_s:
        Wall-clock seconds spent inside :meth:`SolverCore.solve`.

    A solve that escalates past its first recovery rung counts the work of
    every rung it tried: its ``iterations`` are the sum of the iterations
    its :class:`~repro.resilience.recovery.RecoveryAttempt` records carry,
    failed rungs included, and its ``factorizations`` and
    ``krylov_iterations`` include those of the ``"gmres"`` rung.
    """

    solves: int = 0
    iterations: int = 0
    residual_evaluations: int = 0
    jacobian_refreshes: int = 0
    factorizations: int = 0
    krylov_iterations: int = 0
    fallbacks: int = 0
    wall_time_s: float = 0.0

    def as_dict(self):
        """Plain-dict view (stable keys, for result ``stats`` payloads)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self):
        """One-line human-readable summary (printed by the CLI)."""
        return (
            f"{self.solves} solve(s): {self.iterations} Newton iterations, "
            f"{self.residual_evaluations} residual evals, "
            f"{self.jacobian_refreshes} Jacobian refreshes, "
            f"{self.factorizations} factorizations, "
            f"{self.krylov_iterations} Krylov iterations, "
            f"{self.fallbacks} fallbacks, {self.wall_time_s:.3f} s"
        )


@dataclass
class SolverOptionsMixin:
    """Solver knobs shared by every engine options class.

    The six engine options classes (transient, both envelopes, both
    quasiperiodic solvers, DC) historically each declared their own copy
    of these fields and drifted apart (the MPDE classes lagged the WaMPDE
    ones).  They now inherit this mixin, so the shared surface is defined
    once; engines that need a different *default* (e.g. the transient
    engine's non-raising Newton) redeclare the field, which overrides the
    default while keeping the inherited position.

    Attributes
    ----------
    newton:
        Per-solve Newton tolerances/budgets; ``None`` means the engine's
        own default (engines redeclare the field with a
        ``default_factory`` when the stock default is wrong for them).
    linear_solver:
        ``None``/"lu" — direct LU of each assembled matrix (dense LAPACK
        up to :data:`~repro.linalg.collocation.DENSE_MAX_UNKNOWNS`
        unknowns, sparse SuperLU above); ``"gmres"`` —
        frozen-LU-preconditioned GMRES for large systems; or any
        ``(matrix, rhs) -> x`` callable.  Non-default values imply
        full-Newton iterations.
    ladder:
        Recovery-ladder spec forwarded to the shared
        :class:`SolverCore` (``None``/``"default"``, ``"extended"``, or
        an explicit rung tuple — see :mod:`repro.resilience.recovery`).
    kernel:
        Compiled-kernel policy for engines with a generated fast path
        (see :mod:`repro.kernels`): ``"auto"`` — the host C toolchain
        if one is on PATH, else the NumPy engine; ``"c"`` — require the
        compiled kernel (:class:`~repro.errors.ConfigurationError`
        without a C compiler); ``"python"`` — force the NumPy engine.
        The transient marches and the fixed-step WaMPDE envelope run
        their loops compiled; the other collocation engines compile only
        their DAE evaluations; engines with neither accept and ignore
        the option.
    """

    newton: NewtonOptions = None
    linear_solver: object = None
    ladder: object = None
    kernel: object = "auto"


@dataclass
class SolverCoreOptions:
    """Configuration for :class:`SolverCore`.

    Attributes
    ----------
    mode:
        ``"full"`` — a fresh Jacobian per Newton iteration (via
        :func:`repro.linalg.newton.newton_solve`); ``"chord"`` — one
        factorised Jacobian reused across iterations *and* across solves
        (via :class:`repro.linalg.newton.StaleJacobianNewton`),
        refactorising on slow contraction, divergence or
        :meth:`SolverCore.note_parameters` jumps.  A chord failure falls
        back to damped full Newton before surfacing an error.
    newton:
        Shared Newton tolerances/budgets; ``None`` (the default) means
        the stock :class:`~repro.linalg.newton.NewtonOptions` — keeping
        the default distinguishable from an explicitly passed stock
        instance lets engines substitute their own defaults only when
        the field was genuinely left unset.
    linear_solver:
        ``None``/"lu" — direct sparse/dense LU
        (:class:`repro.linalg.lu_cache.ReusableLUSolver`); ``"gmres"`` —
        frozen-complete-LU-preconditioned GMRES
        (:class:`repro.linalg.gmres.GmresLinearSolver`) for large systems;
        or any ``(matrix, rhs) -> x`` callable.  A non-default linear
        solver implies full-Newton iterations (the chord policy owns its
        own factorisation).
    contraction:
        Chord policy knob: refactorise when the residual contracts slower
        than this factor per iteration.
    ladder:
        Recovery-ladder escalation policy walked when a solve fails:
        ``None``/``"default"`` — the mode's historical policy (chord with
        a damped full-Newton fallback, or full Newton with an optional
        restart); ``"extended"`` — every strategy in
        :data:`repro.resilience.recovery.LADDER_RUNGS` order (Jacobian
        refresh, GMRES retry and pseudo-transient continuation appended);
        or an explicit tuple of rung names.  Rungs that do not apply
        (chord rungs on a full-mode core, a fallback restart with no
        restart point) are skipped at run time.  Each rung runs once per
        solve (the ``"refresh"`` rung is the chord retry).  Every
        escalation is recorded in :attr:`SolverCore.recovery`.

    The parameter-jump threshold and the continuation rung's schedule are
    the module constants :data:`INVALIDATE_RTOL`,
    :data:`CONTINUATION_STAGES` and :data:`CONTINUATION_DTAU`.
    """

    mode: str = "full"
    newton: NewtonOptions = None
    linear_solver: object = None
    contraction: float = 0.1
    ladder: object = None


class CollocationSystem:
    """Contract between a collocation nonlinear problem and the core.

    Implementations provide the residual and a Jacobian whose sparsity
    pattern is fixed across iterations (refreshed in place, typically via
    :class:`~repro.linalg.collocation.CollocationJacobianAssembler`).  The
    matrix returned by :meth:`jacobian` may be owned and mutated by the
    assembler — the core consumes (factorises) it before the next refresh.
    """

    def residual(self, z):
        """``F(z)`` as a 1-D float array."""
        raise NotImplementedError

    def jacobian(self, z):
        """``dF/dz`` at ``z`` (dense array or scipy sparse matrix)."""
        raise NotImplementedError

    def structure(self):
        """Optional structure report (sizes, borders) for diagnostics."""
        return {}


class FunctionSystem(CollocationSystem):
    """Adapter wrapping plain ``residual``/``jacobian`` callables."""

    def __init__(self, residual, jacobian, structure=None):
        # The callables are exposed directly: SolverCore reads
        # ``system.residual`` / ``system.jacobian`` as attributes, so the
        # adapter adds no per-call frame (the transient engine builds one
        # of these per time step).
        self.residual = residual
        self.jacobian = jacobian
        self._structure = structure

    def structure(self):
        return dict(self._structure or {})


def core_from_options(options):
    """Build a :class:`SolverCore` from an engine options dataclass.

    Every engine options class that builds its core here (both envelopes,
    both quasiperiodic solvers, DC) declares ``newton_mode`` and inherits
    ``newton``, ``linear_solver`` and ``ladder`` from
    :class:`SolverOptionsMixin`; this is the one place those knobs map
    onto core knobs.
    """
    return SolverCore(SolverCoreOptions(
        mode=options.newton_mode,
        newton=options.newton,
        linear_solver=options.linear_solver,
        ladder=options.ladder,
    ))


def _resolve_linear_solver(spec):
    """Materialise an options ``linear_solver`` spec into a callable."""
    if spec is None or spec == "lu":
        return ReusableLUSolver()
    if spec == "gmres":
        from repro.linalg.gmres import GmresLinearSolver

        return GmresLinearSolver(preconditioner="lu", freeze=True)
    if callable(spec):
        return spec
    raise ValueError(
        f"linear_solver must be None, 'lu', 'gmres' or a callable, "
        f"got {spec!r}"
    )


class SolverCore:
    """Newton driver shared by every collocation engine.

    One instance lives for a whole analysis (a single boundary-value solve,
    or a whole envelope march).  See the module docstring for the policy
    description and :class:`SolverCoreOptions` for the knobs.

    Attributes
    ----------
    stats:
        Accumulated :class:`SolverStats` across all :meth:`solve` calls.
    """

    def __init__(self, options=None):
        opts = options or SolverCoreOptions()
        if opts.mode not in SOLVER_MODES:
            raise ValueError(
                f"mode must be one of {SOLVER_MODES}, got {opts.mode!r}"
            )
        self.options = opts
        self.stats = SolverStats()
        self._params = {}
        # Where the system last assembled its Jacobian (e.g. ``(z, h)`` for
        # an envelope step), set by the system's ``jacobian``: the
        # picklable stand-in for the held chord factors in checkpoints and
        # warm exports (see :meth:`factor_metadata`).
        self.jacobian_meta = None
        self._counters = {"residual": 0, "jacobian": 0}
        # A custom/iterative linear solver implies full Newton: the chord
        # policy owns its own (direct) factorisation.
        custom_linear = opts.linear_solver not in (None, "lu")
        self._chord = (
            StaleJacobianNewton(
                options=opts.newton, contraction=opts.contraction
            )
            if opts.mode == "chord" and not custom_linear
            else None
        )
        self._linear_solver = _resolve_linear_solver(opts.linear_solver)
        # The damped full-Newton fallback always wants robust direct
        # factors: reuse the primary solver when it is already a direct
        # ReusableLUSolver, otherwise keep a dedicated one (e.g. when the
        # primary is GMRES or a custom callable).
        self._fallback_solver = (
            self._linear_solver
            if isinstance(self._linear_solver, ReusableLUSolver)
            else ReusableLUSolver()
        )
        # Recovery ladder: the escalation policy solve() walks on failure,
        # plus the structured log of every escalation.  The log rides on
        # the stats object as a plain attribute (not a dataclass field),
        # so SolverStats.as_dict() payloads keep their historical keys.
        self._ladder = self._resolve_ladder(opts.ladder)
        # The "gmres" rung's solver builds its LU preconditioner per call
        # and keeps nothing between calls, so one instance serves every
        # escalation and its counters are resolved with the others below.
        self._rung_gmres_solver = None
        if "gmres" in self._ladder:
            from repro.linalg.gmres import GmresLinearSolver

            self._rung_gmres_solver = GmresLinearSolver(
                preconditioner="lu", freeze=False
            )
        # Stats dicts that carry factorisation and Krylov counts, resolved
        # once — the per-solve accounting reads them on the hot path.
        dicts = []
        if self._chord is not None:
            dicts.append(self._chord.stats)
        solver_stats = getattr(self._linear_solver, "stats", None)
        if isinstance(solver_stats, dict):
            dicts.append(solver_stats)
        if self._fallback_solver is not self._linear_solver:
            dicts.append(self._fallback_solver.stats)
        if self._rung_gmres_solver is not None:
            dicts.append(self._rung_gmres_solver.stats)
        self._fact_sources = tuple(d for d in dicts if "factorizations" in d)
        self._krylov_sources = tuple(
            d for d in dicts if "krylov_iterations" in d
        )
        self.recovery = RecoveryLog()
        self.stats.recovery = self.recovery

    def _resolve_ladder(self, spec):
        """Materialise the options ``ladder`` spec into a rung tuple."""
        if spec is None or spec == "default":
            return default_ladder(self.mode)
        if spec == "extended":
            return extended_ladder(self.mode)
        if isinstance(spec, str):
            raise ValueError(
                f"ladder must be None, 'default', 'extended' or a tuple of "
                f"rung names, got {spec!r}"
            )
        rungs = tuple(spec)
        for rung in rungs:
            if rung not in LADDER_RUNGS:
                raise ValueError(
                    f"unknown ladder rung {rung!r}; valid rungs are "
                    f"{LADDER_RUNGS}"
                )
        if not rungs:
            raise ValueError("ladder must contain at least one rung")
        return rungs

    @property
    def mode(self):
        """Effective Newton policy (``"chord"`` or ``"full"``)."""
        return "chord" if self._chord is not None else "full"

    @property
    def ladder(self):
        """The resolved recovery-ladder rung tuple."""
        return self._ladder

    def invalidate(self):
        """Drop any frozen factors; the next solve starts fresh."""
        if self._chord is not None:
            self._chord.invalidate()
        invalidate = getattr(self._linear_solver, "invalidate", None)
        if invalidate is not None:
            invalidate()

    def note_parameters(self, **params):
        """Register step parameters; invalidate frozen factors on jumps.

        Call before each step's :meth:`solve` with whatever scalars shape
        the Newton matrix discontinuously (the envelope step ``h``, the
        local frequency ``omega``).  A relative change beyond
        :data:`INVALIDATE_RTOL` in any of them drops the chord
        factorisation, mirroring the transient engine's dt policy.
        """
        for key, value in params.items():
            value = float(value)
            old = self._params.get(key)
            if old is not None and (
                abs(value - old) > INVALIDATE_RTOL * abs(old)
            ):
                self.invalidate()
            self._params[key] = value

    def adopt_factorization(self, factorization):
        """Adopt an externally factorised Jacobian as the chord factor.

        Used by the sensitivity sweep, which factorises the exact step
        Jacobian at every accepted point anyway — the next step's chord
        Newton gets a perfectly fresh matrix for free.  A no-op in full
        mode (full Newton never reuses factors).
        """
        if self._chord is not None:
            self._chord.adopt(factorization)

    def factor_metadata(self):
        """:attr:`jacobian_meta` of the held chord factors, or ``None``.

        ``None`` when no factors are held (full mode, or right after an
        invalidation): a march resumed from it starts unfactored, exactly
        as the live run would have continued.
        """
        chord = self._chord
        if chord is not None and chord._have:
            return self.jacobian_meta
        return None

    def refactor_at(self, meta, matrix_at):
        """Hold fresh chord factors of ``matrix_at(meta)``.

        ``meta`` is a :meth:`factor_metadata` export and ``matrix_at``
        re-assembles the system's matrix there.  Factorising an identical
        matrix is deterministic, so the chord policy then makes
        bit-for-bit the decisions of the run that exported ``meta``.  A
        no-op without metadata or outside chord mode.
        """
        if meta is not None and self._chord is not None:
            self._chord.adopt(FrozenFactorization().factor(matrix_at(meta)))

    def snapshot(self):
        """Checkpointable state: stats, parameters, frozen-factor metadata."""
        return {
            "stats": self.stats.as_dict(),
            "params": dict(self._params),
            "factor_meta": self.factor_metadata(),
        }

    def restore(self, snapshot, matrix_at):
        """Rebuild the state a :meth:`snapshot` captured (see
        :meth:`refactor_at` for ``matrix_at``)."""
        for key, value in snapshot["stats"].items():
            setattr(self.stats, key, value)
        self._params.update(snapshot["params"])
        self.refactor_at(snapshot["factor_meta"], matrix_at)

    def export_warm_state(self):
        """Picklable warm-start state for a future core on the same problem.

        Returns the registered step parameters (``h``, ``omega``, ...) —
        the context a fresh core needs so that, after adopting a cached
        factorisation (see the engines' ``warm_start`` seams), its first
        :meth:`note_parameters` call compares against the *prior run's*
        values and keeps the adopted factors only when the new step really
        is nearby.  Plain floats only; safe to cache and ship across
        processes.
        """
        return {"params": dict(self._params)}

    def adopt_warm_state(self, state):
        """Seed registered parameters from a prior run's export.

        The inverse of :meth:`export_warm_state`: parameters land exactly
        as if this core had already stepped at them, so the jump-detection
        logic of :meth:`note_parameters` — not the caller — decides
        whether any adopted factorisation survives the first step.
        """
        self._params.update(state.get("params", {}))

    def solve(self, system, z0, fallback_z0=None):
        """Solve ``system.residual(z) = 0`` from ``z0``.

        Returns the :class:`repro.linalg.newton.NewtonResult`; failure
        semantics follow ``options.newton.raise_on_failure``.  All
        activity is accumulated into :attr:`stats`.

        Parameters
        ----------
        fallback_z0:
            Optional start point for the damped full-Newton fallback —
            e.g. the last accepted state of a step sequence, which is
            more robust than a failed predictor.  In chord mode the
            fallback defaults to ``z0``; in full mode a fallback runs
            *only* when ``fallback_z0`` is given (single boundary-value
            solves have no more robust point to restart from).
        """
        stats = self.stats
        chord = self._chord
        counters = self._counters
        counters["residual"] = 0
        counters["jacobian"] = 0
        if chord is not None:
            # The chord policy counts its own residual evaluations, and it
            # calls ``jacobian`` exactly once per refactorisation — so the
            # raw callables go in uninstrumented and the counts come from
            # stats deltas below.  This keeps Python-frame overhead out of
            # the per-step hot path (the transient engine solves here a
            # few hundred thousand times per run); only the rare fallback
            # pays for counting wrappers (see :meth:`_fallback`).
            residual = system.residual
            jacobian = system.jacobian
            chord_stats = chord.stats
            chord_resid_before = chord_stats["residual_evaluations"]
            chord_fact_before = chord_stats["factorizations"]
            chord_before = chord_stats["iterations"]
        else:

            def residual(z):
                counters["residual"] += 1
                return system.residual(z)

            def jacobian(z):
                counters["jacobian"] += 1
                return system.jacobian(z)

        fact_before = 0
        for source in self._fact_sources:
            fact_before += source["factorizations"]
        krylov_sources = self._krylov_sources
        if krylov_sources:
            krylov_before = 0
            for source in krylov_sources:
                krylov_before += source["krylov_iterations"]
        fallbacks_before = stats.fallbacks
        escalated_before = self.recovery.escalated_solves
        result = None
        raised_iterations = 0
        start = time.perf_counter()
        try:
            result = self._run_ladder(residual, jacobian, z0, fallback_z0)
        except ConvergenceError as exc:
            raised_iterations = exc.iterations or 0
            raise
        finally:
            # Account even for a raising solve, so the counters stay
            # mutually consistent (every residual eval / factorisation is
            # attributed to an attempted solve and its iterations).
            stats.wall_time_s += time.perf_counter() - start
            stats.residual_evaluations += counters["residual"]
            stats.jacobian_refreshes += counters["jacobian"]
            fact_after = 0
            for source in self._fact_sources:
                fact_after += source["factorizations"]
            stats.factorizations += fact_after - fact_before
            if krylov_sources:
                krylov_after = 0
                for source in krylov_sources:
                    krylov_after += source["krylov_iterations"]
                stats.krylov_iterations += krylov_after - krylov_before
            stats.solves += 1
            newton_iterations = (
                result.iterations if result is not None else raised_iterations
            )
            if chord is not None:
                stats.residual_evaluations += (
                    chord_stats["residual_evaluations"] - chord_resid_before
                )
                stats.jacobian_refreshes += (
                    chord_stats["factorizations"] - chord_fact_before
                )
            if self.recovery.escalated_solves > escalated_before:
                # An escalated solve burned the iterations of every rung
                # it tried, failed ones included.
                stats.iterations += sum(
                    attempt.iterations
                    for attempt in self.recovery.last_solve_attempts()
                )
            elif chord is not None:
                # One rung ran: the chord policy counts its own iterations;
                # a ladder that starts at "full_newton" adds that rung's
                # (without a fallback result.iterations IS the chord
                # count, so don't double-add).
                stats.iterations += (
                    chord_stats["iterations"] - chord_before
                )
                if stats.fallbacks > fallbacks_before:
                    stats.iterations += newton_iterations
            else:
                stats.iterations += newton_iterations
        return result

    def _run_ladder(self, residual, jacobian, z0, fallback_z0):
        """Walk the recovery ladder until a rung converges.

        The default ladders reproduce the historical escalation exactly
        (chord → damped full-Newton fallback; full Newton → optional
        restart from ``fallback_z0``), including the failure semantics: a
        rung that raises :class:`~repro.errors.ConvergenceError` with no
        rung left to try re-raises it (with the :class:`RecoveryLog`
        attached as ``exc.recovery``), and a final non-converged result
        under ``raise_on_failure=False`` is returned as-is.  Solves that
        converge on their first rung record nothing — the log only fills
        on escalation, keeping the hot path allocation-free.
        """
        chord = self._chord
        attempts = []
        solve_index = self.stats.solves
        result = None
        last_exc = None
        counted = None

        def counting():
            # Chord rungs hand the raw callables around (the chord policy
            # self-counts); every full-Newton-style rung needs counting
            # wrappers in chord mode.  Full-mode callables arrive from
            # solve() pre-wrapped.
            nonlocal counted
            if counted is None:
                if chord is None:
                    counted = (residual, jacobian)
                else:
                    counters = self._counters

                    def counting_residual(z):
                        counters["residual"] += 1
                        return residual(z)

                    def counting_jacobian(z):
                        counters["jacobian"] += 1
                        return jacobian(z)

                    counted = (counting_residual, counting_jacobian)
            return counted

        # The restart point for the expensive rungs: the caller-provided
        # last-good state when there is one; in chord mode z0 doubles as
        # the restart (the historical fallback default); in full mode the
        # "full_newton" rung is skipped without an explicit restart point
        # (a single boundary-value solve has nowhere better to start).
        restart = fallback_z0
        if restart is None and chord is not None:
            restart = z0

        converged = False
        for rung in self._ladder:
            if rung in ("chord", "refresh") and chord is None:
                continue
            if rung == "full_newton" and restart is None:
                continue
            result, last_exc, detail = self._attempt_rung(
                rung, residual, jacobian, counting, z0,
                restart if restart is not None else z0,
            )
            converged = result is not None and result.converged
            if attempts or not converged:
                # A solve that succeeds on its very first attempt is not
                # an escalation: record nothing (hot path).
                if last_exc is not None:
                    iterations = last_exc.iterations or 0
                    residual_norm = (
                        float("nan") if last_exc.residual_norm is None
                        else last_exc.residual_norm
                    )
                else:
                    iterations = result.iterations
                    residual_norm = result.residual_norm
                attempts.append(RecoveryAttempt(
                    solve=solve_index,
                    rung=rung,
                    converged=converged,
                    iterations=iterations,
                    residual_norm=residual_norm,
                    detail=detail,
                ))
            if converged:
                break

        if attempts:
            self.recovery.extend(attempts)
        if converged or (result is not None and last_exc is None):
            return result
        if last_exc is not None:
            last_exc.recovery = self.recovery
            raise last_exc
        raise ConvergenceError(
            f"no applicable recovery rung for this solve "
            f"(ladder {self._ladder}, mode {self.mode!r})",
            iterations=0,
            residual_norm=float("nan"),
            recovery=self.recovery,
        )

    def _attempt_rung(self, rung, residual, jacobian, counting, z0, restart):
        """Run one rung attempt; returns ``(result, exception, detail)``."""
        try:
            if rung == "chord":
                return self._chord.solve(residual, jacobian, z0), None, ""
            if rung == "refresh":
                self.invalidate()
                return (
                    self._chord.solve(residual, jacobian, z0),
                    None,
                    "chord retry with fresh factorisation",
                )
            if rung == "newton":
                result = newton_solve(
                    residual,
                    jacobian,
                    z0,
                    options=self.options.newton,
                    linear_solver=self._linear_solver,
                )
                return result, None, ""
            if rung == "full_newton":
                return self._rung_full_newton(counting, restart)
            if rung == "gmres":
                return self._rung_gmres(counting, restart)
            if rung == "continuation":
                return self._rung_continuation(counting, restart)
        except ConvergenceError as exc:
            return None, exc, str(exc)
        raise ValueError(f"unknown ladder rung {rung!r}")

    def _rung_full_newton(self, counting, z0):
        """Damped full Newton with fresh direct factorisations.

        A converged fallback's last factorisation is *adopted* as the
        chord factor instead of being discarded: the fallback paid for a
        Jacobian at (nearly) the converged state, which is exactly what
        the chord policy would refactorise next solve.  (Adoption needs
        the backend to hold reusable factors — see
        :meth:`repro.linalg.lu_cache.ReusableLUSolver.export_frozen`;
        small dense systems solve directly and skip it.)
        """
        self.stats.fallbacks += 1
        self.invalidate()
        residual, jacobian = counting()
        result = newton_solve(
            residual,
            jacobian,
            z0,
            options=self.options.newton,
            linear_solver=self._fallback_solver,
        )
        self._maybe_adopt(self._fallback_solver, result)
        return result, None, "damped full Newton from restart point"

    def _rung_gmres(self, counting, z0):
        """Full Newton through an LU-preconditioned GMRES solver.

        A different linear-algebra route around a badly conditioned
        direct factorisation: the complete-LU preconditioner is rebuilt
        per call (``freeze=False``), and GMRES solves the current matrix
        to its own tolerance rather than trusting one factorisation.
        """
        self.invalidate()
        residual, jacobian = counting()
        result = newton_solve(
            residual,
            jacobian,
            z0,
            options=self.options.newton,
            linear_solver=self._rung_gmres_solver,
        )
        return result, None, "GMRES retry with per-iteration LU preconditioner"

    def _rung_continuation(self, counting, z0):
        """Pseudo-transient continuation: the ladder's last resort.

        Embeds ``F(z) = 0`` in the artificial flow ``dz/dtau = -F(z)``
        and marches implicit-Euler steps of growing ``dtau`` from the
        restart point (see
        :func:`repro.resilience.continuation.pseudo_transient_march`);
        the stages run through plain ``newton_solve`` with the direct
        fallback solver, so the rung never recurses into the ladder.
        """
        from repro.resilience.continuation import pseudo_transient_march

        self.invalidate()
        residual, jacobian = counting()
        stage_options = replace(
            self.options.newton or NewtonOptions(), raise_on_failure=False
        )
        solver = self._fallback_solver

        def stage_solve(system, start):
            return newton_solve(
                system.residual,
                system.jacobian,
                start,
                options=stage_options,
                linear_solver=solver,
            )

        result, trail = pseudo_transient_march(
            stage_solve,
            FunctionSystem(residual, jacobian),
            z0,
            stages=CONTINUATION_STAGES,
            dtau=CONTINUATION_DTAU,
        )
        self._maybe_adopt(solver, result)
        stage_iterations = sum(r.iterations for _, r in trail)
        return result, None, (
            f"pseudo-transient continuation: {len(trail)} stage(s), "
            f"{stage_iterations} stage iteration(s), "
            f"dtau0={CONTINUATION_DTAU:g}"
        )

    def _maybe_adopt(self, solver, result):
        """Adopt a converged rung's last factorisation as the chord factor."""
        if result.converged and self._chord is not None:
            export = getattr(solver, "export_frozen", None)
            frozen = export() if export is not None else None
            if frozen is not None:
                self._chord.adopt(frozen)
