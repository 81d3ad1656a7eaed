"""Compiled per-DAE inner loops (ROADMAP item 1: the 10x transient lever).

Supported DAEs are lowered to a tiny statement IR
(:mod:`~repro.kernels.registry`), rendered to one C translation unit
(:mod:`~repro.kernels.codegen`), compiled and cached by
:mod:`~repro.kernels.backends`, and driven by the engines through
:mod:`~repro.kernels.sweep` — fused fixed-step, adaptive-step and
batched lock-step ensemble chord marches, plus batched ``q/f/dq/df``
evaluations for the envelope/ensemble python paths.

Select with ``kernel="auto" | "c" | "python"`` on any engine options
class (:class:`~repro.linalg.solver_core.SolverOptionsMixin`).
``"auto"`` uses the C toolchain when one is on PATH (``HAVE_CC``) and
otherwise degrades silently to the NumPy engine, which ``"python"``
selects explicitly and which every compiled path is tested against.
"""

from .backends import (
    HAVE_CC,
    KERNEL_MODES,
    KernelBuildError,
    build_kernel,
    probe_cc,
    resolve_mode,
)
from .registry import KernelSpec, constant_forcing_row, spec_for_dae
from .sweep import (
    CompiledSweepRunner,
    EnsembleSweepRunner,
    KernelizedDAE,
    maybe_kernelize_batch,
    prepare_ensemble_runner,
    prepare_transient_runner,
)

__all__ = [
    "HAVE_CC",
    "KERNEL_MODES",
    "KernelBuildError",
    "KernelSpec",
    "CompiledSweepRunner",
    "EnsembleSweepRunner",
    "KernelizedDAE",
    "build_kernel",
    "constant_forcing_row",
    "maybe_kernelize_batch",
    "prepare_ensemble_runner",
    "prepare_transient_runner",
    "probe_cc",
    "resolve_mode",
    "spec_for_dae",
]
