"""Numerical linear algebra and nonlinear solvers.

This package hosts the Newton–Raphson kernel shared by every engine in the
library (DC, transient, shooting, harmonic balance, MPDE, WaMPDE), the
collocation systems and Jacobian assemblers those engines solve (one
:class:`~repro.linalg.collocation.WarpedCollocationSystem` serves
autonomous harmonic balance, the bi-periodic WaMPDE and both envelopes), a
reference solver for bordered sparse systems (:class:`BorderedSystem`, a
square core plus extra rows/columns; no engine uses it), and Jacobian
verification utilities used throughout the test suite.
"""

from repro.linalg.newton import (
    NewtonOptions,
    NewtonResult,
    StaleJacobianNewton,
    newton_solve,
)
from repro.linalg.solver_core import (
    CollocationSystem,
    FunctionSystem,
    SolverCore,
    SolverCoreOptions,
    SolverStats,
    core_from_options,
)
from repro.linalg.bordered import BorderedSystem
from repro.linalg.sparse_tools import block_diagonal_expand, kron_diffmat
from repro.linalg.collocation import CollocationJacobianAssembler
from repro.linalg.transient_assembler import TransientStepAssembler
from repro.linalg.lu_cache import FrozenFactorization, ReusableLUSolver
from repro.linalg.gmres import GmresLinearSolver
from repro.linalg.jacobian_check import finite_difference_jacobian, jacobian_error

__all__ = [
    "NewtonOptions",
    "NewtonResult",
    "StaleJacobianNewton",
    "newton_solve",
    "CollocationSystem",
    "FunctionSystem",
    "SolverCore",
    "SolverCoreOptions",
    "SolverStats",
    "core_from_options",
    "BorderedSystem",
    "block_diagonal_expand",
    "kron_diffmat",
    "CollocationJacobianAssembler",
    "TransientStepAssembler",
    "FrozenFactorization",
    "ReusableLUSolver",
    "GmresLinearSolver",
    "finite_difference_jacobian",
    "jacobian_error",
]
