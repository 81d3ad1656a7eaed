"""Sparse assembly helpers for multi-time collocation Jacobians."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def block_diagonal_expand(blocks):
    """Stack a sequence of equally-sized dense blocks into a block-diagonal CSR.

    Used for pointwise device Jacobians ``dq/dx`` and ``df/dx`` evaluated at
    each collocation point: ``blocks[i]`` is the ``(n, n)`` Jacobian at grid
    point ``i`` and the result acts on the stacked vector
    ``[x(t_0); x(t_1); ...]``.
    """
    blocks = [np.asarray(block, dtype=float) for block in blocks]
    if not blocks:
        raise ValueError("block_diagonal_expand needs at least one block")
    shape = blocks[0].shape
    for block in blocks:
        if block.shape != shape:
            raise ValueError(
                f"all blocks must share shape {shape}, got {block.shape}"
            )
    return sp.block_diag(blocks, format="csr")


def kron_diffmat(diffmat, n_vars, ordering="point"):
    """Expand a collocation differentiation matrix to act on stacked vectors.

    Parameters
    ----------
    diffmat:
        ``(N, N)`` differentiation matrix along the periodic axis.
    n_vars:
        Number of system variables at each collocation point.
    ordering:
        ``"point"``  — unknowns stacked point-major ``[x(t_0); x(t_1); ...]``
        (each block of length ``n_vars``); expansion is ``D ⊗ I``.
        ``"variable"`` — unknowns stacked variable-major
        ``[x_0(t_*); x_1(t_*); ...]``; expansion is ``I ⊗ D``.
    """
    diffmat = np.asarray(diffmat, dtype=float)
    if diffmat.ndim != 2 or diffmat.shape[0] != diffmat.shape[1]:
        raise ValueError(f"diffmat must be square, got shape {diffmat.shape}")
    eye = sp.identity(n_vars, format="csr")
    if ordering == "point":
        return sp.kron(sp.csr_matrix(diffmat), eye, format="csr")
    if ordering == "variable":
        return sp.kron(eye, sp.csr_matrix(diffmat), format="csr")
    raise ValueError(f"unknown ordering {ordering!r}")
