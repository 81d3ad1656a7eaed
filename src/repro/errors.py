"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, sign, range, ...)."""


class ConfigurationError(ReproError, ValueError):
    """Options request a capability the environment cannot provide.

    Raised eagerly at configuration time -- e.g. ``kernel="c"`` without
    a C compiler, or an unknown ``kernel`` mode -- instead of failing
    deep inside a march.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative method failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual_norm:
        Norm of the residual at the last iterate, if known.
    recovery:
        The :class:`repro.resilience.RecoveryLog` of ladder attempts made
        before giving up, when the solve ran under a recovery ladder
        (``None`` otherwise).
    """

    def __init__(self, message, iterations=None, residual_norm=None,
                 recovery=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.recovery = recovery


class SingularJacobianError(ConvergenceError):
    """The Jacobian was singular (or numerically unusable) during a solve."""


class NetlistError(ReproError):
    """The netlist is malformed (unknown node, duplicate device, ...)."""


class DeviceError(ReproError):
    """A device was constructed or evaluated with invalid parameters."""


class SimulationError(ReproError, RuntimeError):
    """A simulation engine failed (step-size underflow, blow-up, ...).

    Beyond the message, raise sites attach whatever structured context
    they have so callers can react programmatically instead of parsing
    text: salvage the computed prefix (``partial_result``), resume a long
    run (``checkpoint`` + ``simulate_transient(resume_from=...)``), or
    report exactly where and how the engine died.

    Attributes
    ----------
    step:
        Index of the step being attempted when the engine gave up.
    time:
        Simulation time (``t`` or ``t2``) at the last accepted point.
    dt:
        Step size of the failed attempt, if stepping was involved.
    residual_norm:
        Newton residual norm of the last failed solve, if known.
    iterations:
        Newton iterations of the last failed solve, if known.
    checkpoint:
        A :class:`repro.resilience.Checkpoint` of the last accepted state,
        from which the run can be resumed (``None`` when the failure
        precedes any accepted state).
    partial_result:
        The trajectory prefix accepted before the failure (a
        ``TransientResult``/engine-specific result), or ``None``.
    """

    def __init__(self, message, step=None, time=None, dt=None,
                 residual_norm=None, iterations=None, checkpoint=None,
                 partial_result=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.dt = dt
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.checkpoint = checkpoint
        self.partial_result = partial_result


class NonFiniteError(SimulationError):
    """A NaN/Inf appeared at the device/DAE evaluation boundary.

    Raised by :class:`repro.resilience.GuardedDAE` (and the post-mortem
    :func:`repro.resilience.diagnose_nonfinite`), which attribute the
    *first* non-finite entry to a specific device and unknown instead of
    letting the NaN propagate into an opaque Newton failure.

    Attributes
    ----------
    method:
        The DAE method whose output (or input) was non-finite
        (``"q"``, ``"f"``, ``"b"``, ``"dq_dx"``, ``"df_dx"``, ``"state"``).
    variable:
        Name of the first affected unknown, when attributable.
    device:
        Name of the first device producing a non-finite local
        contribution, when the DAE is a circuit (``None`` otherwise).
    """

    def __init__(self, message, method=None, variable=None, device=None,
                 **kwargs):
        super().__init__(message, **kwargs)
        self.method = method
        self.variable = variable
        self.device = device


class PhaseConditionError(ReproError):
    """A WaMPDE phase condition is inconsistent with the current solution."""
