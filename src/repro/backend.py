"""Array-backend abstraction (``xp``) for the batched ensemble hot path.

The lock-step ensemble march (PR 4/9) is expressed entirely as whole-grid
``(B, n)`` / ``(B, n, n)`` array operations.  This module makes the array
library behind those operations swappable — the Melvin-python idiom of
running the same NumPy-style code on GPU by exchanging one ``xp`` module
handle:

* :class:`NumpyBackend` — the default; every helper is an identity or a
  plain NumPy call, so default-backend runs are bit-identical to code
  that used ``np.*`` directly.
* :class:`CupyBackend` — opt-in (``backend="cupy"`` or ``REPRO_XP=cupy``)
  and gated on CuPy being importable; the batched factorisation runs as
  stacked device kernels (each whole-batch array op is one fused
  ``getrf/getrs``-style launch over the ``B`` axis).
* :class:`StrictHostBackend` — a *fake device* for tests and CI: arrays
  are wrapped so any implicit round-trip through host ``np.*`` (a bare
  ``np.asarray`` / ufunc call on a "device" array) raises instead of
  silently transferring.  Numerically it is NumPy, so trajectories agree
  with the default backend to solver tolerance while proving the hot
  path stays on the backend's ``xp``.

Selection mirrors :func:`repro.kernels.backends.resolve_mode`: ``None`` /
``"auto"`` is rewritten by the ``REPRO_XP`` environment variable (default
``numpy``); an explicitly requested backend that is unavailable raises
:class:`~repro.errors.ConfigurationError` instead of silently degrading.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrayBackend",
    "BatchedLinalg",
    "CupyBackend",
    "NumpyBackend",
    "StrictHostBackend",
    "NUMPY",
    "XP_NAMES",
    "array_namespace",
    "probe_cupy",
    "resolve_backend",
]

#: Recognised backend names (``"auto"`` defers to ``$REPRO_XP``).
XP_NAMES = ("auto", "numpy", "strict", "cupy")


# ---------------------------------------------------------------------------
# Batched dense factorisation
# ---------------------------------------------------------------------------


class BatchedLinalg:
    """Batched dense LU factor/solve over a stacked ``(B, n, n)`` axis.

    A vectorised Doolittle factorisation with partial pivoting: the
    ``k``-loop runs over the ``n`` columns only, every operation inside it
    is a whole-batch array op, so on a device backend each iteration is a
    handful of fused kernels over all ``B`` blocks (the ``getrf``-style
    batched pattern) and on NumPy it is ``O(n)`` python dispatches instead
    of ``O(B)`` per-block ``scipy`` calls.  No inverses are ever
    materialised — :meth:`lu_solve` is a permutation gather plus
    forward/back substitution.
    """

    def __init__(self, xp):
        self.xp = xp

    def lu_factor(self, stack):
        """Factor a ``(B, n, n)`` stack in place of per-block LU calls.

        Returns ``(lu, perm)`` where ``lu`` holds the combined L (unit
        diagonal, below) and U (on/above) factors and ``perm`` is the
        ``(B, n)`` row permutation applied to each block (and to be
        applied to each right-hand side).

        Raises
        ------
        numpy.linalg.LinAlgError
            If any block in the stack is singular or produces non-finite
            factors — matching the whole-batch failure semantics of the
            dense compiled kernel, which the ensemble chord converts to a
            :class:`~repro.errors.SingularJacobianError` (dt halving).
        """
        xp = self.xp
        a = xp.array(stack)
        batch, n = a.shape[0], a.shape[1]
        bidx = xp.arange(batch)
        perm = xp.arange(n) * xp.ones((batch, 1), dtype=int)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(n):
                # Partial pivoting: per-block argmax over |column k|.
                p = xp.argmax(xp.abs(a[:, k:, k]), axis=1) + k
                rows_k = a[bidx, k]
                rows_p = a[bidx, p]
                a[bidx, k] = rows_p
                a[bidx, p] = rows_k
                perm_k = perm[bidx, k]
                perm[bidx, k] = perm[bidx, p]
                perm[bidx, p] = perm_k
                if k + 1 < n:
                    pivot = a[:, k, k]
                    a[:, k + 1:, k] = a[:, k + 1:, k] / pivot[:, None]
                    a[:, k + 1:, k + 1:] = (
                        a[:, k + 1:, k + 1:]
                        - a[:, k + 1:, k:k + 1] * a[:, k:k + 1, k + 1:]
                    )
        diag = a[bidx[:, None], xp.arange(n)[None, :], xp.arange(n)[None, :]]
        ok = bool(xp.all(xp.isfinite(a))) and bool(xp.all(diag != 0.0))
        if not ok:
            raise np.linalg.LinAlgError(
                "singular (or non-finite) block in batched factorisation"
            )
        return a, perm

    def lu_solve(self, lu, perm, rhs):
        """Solve every block for a ``(B, n)`` right-hand-side stack."""
        xp = self.xp
        n = rhs.shape[1]
        bidx = xp.arange(rhs.shape[0])
        x = rhs[bidx[:, None], perm]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(1, n):
                x[:, k] = x[:, k] - xp.sum(lu[:, k, :k] * x[:, :k], axis=1)
            for k in range(n - 1, -1, -1):
                if k + 1 < n:
                    x[:, k] = x[:, k] - xp.sum(
                        lu[:, k, k + 1:] * x[:, k + 1:], axis=1
                    )
                x[:, k] = x[:, k] / lu[:, k, k]
        return x


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ArrayBackend:
    """An array module (``xp``) plus the transfer/factorisation policy.

    Subclasses set :attr:`name`, :attr:`xp` and :attr:`is_device`; the
    batched linear algebra defaults to the generic vectorised
    :class:`BatchedLinalg` over ``xp``.
    """

    name = "abstract"
    is_device = False
    #: Scenario-chunk size for device-resident marches (``None`` = run the
    #: whole batch in one march).  Overridable via ``REPRO_XP_BLOCK``.
    block_size = None

    def __init__(self, xp):
        self.xp = xp
        self.linalg = BatchedLinalg(xp)
        env_block = os.environ.get("REPRO_XP_BLOCK")
        if env_block:
            self.block_size = max(int(env_block), 1)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"

    # -- transfers ---------------------------------------------------------

    def asarray(self, values, dtype=float):
        """Coerce ``values`` (host or backend) to a backend array."""
        return self.xp.asarray(values, dtype=dtype)

    def from_host(self, values):
        """Move a host (NumPy) array onto the backend."""
        return self.xp.asarray(values)

    def to_host(self, values):
        """View/move a backend array back to host NumPy (may alias)."""
        return np.asarray(values)

    def to_host_copy(self, values):
        """Host NumPy copy of a backend array (never aliases)."""
        return np.array(self.to_host(values))

    # -- policy ------------------------------------------------------------

    def ensemble_shard_size(self, kernel_mode):
        """Scenarios per service shard for this backend.

        ``None`` disables sharding (the whole batch runs as one
        device-resident march — fragmenting it into slivers would waste
        the device).  Host backends shard so the process pool can spread
        scenarios across cores: compiled kernels amortise per-step
        dispatch, so they take bigger shards than the python lock-step.
        """
        if self.is_device:
            return None
        return 8 if kernel_mode == "python" else 64


class NumpyBackend(ArrayBackend):
    """The default host backend — plain NumPy, bit-identical semantics."""

    name = "numpy"
    is_device = False

    def __init__(self):
        super().__init__(np)

    def to_host(self, values):
        return values if isinstance(values, np.ndarray) else np.asarray(values)


#: Process-wide default backend.
NUMPY = NumpyBackend()


def probe_cupy():
    """Return the imported ``cupy`` module, or ``None`` if unavailable.

    Re-evaluated on every call (no caching) so tests masking
    ``sys.modules`` are seen immediately.
    """
    try:
        import cupy  # noqa: PLC0415 - optional dependency probe
    except Exception:
        return None
    return cupy


class CupyBackend(ArrayBackend):
    """CuPy device backend (opt-in, gated on CuPy being importable).

    The generic :class:`BatchedLinalg` already runs as stacked device
    kernels under CuPy — every whole-batch op inside the ``k``-loop is one
    fused launch over the ``B`` axis, the batched ``getrf/getrs`` access
    pattern without a host round-trip.
    """

    name = "cupy"
    is_device = True

    def __init__(self):
        cupy = probe_cupy()
        if cupy is None:
            raise ConfigurationError(
                "backend='cupy' requested but cupy is not importable; "
                "install cupy or use backend='numpy'"
            )
        super().__init__(cupy)

    def to_host(self, values):
        if isinstance(values, np.ndarray):
            return values
        return self.xp.asnumpy(values)


# ---------------------------------------------------------------------------
# Strict host backend (fake device for tests / CI)
# ---------------------------------------------------------------------------


def _unwrap(value):
    if isinstance(value, StrictHostArray):
        return value._a
    if isinstance(value, tuple):
        return tuple(_unwrap(v) for v in value)
    if isinstance(value, list):
        return [_unwrap(v) for v in value]
    return value


def _wrap(value):
    if isinstance(value, np.ndarray):
        return StrictHostArray(value)
    if isinstance(value, tuple):
        return tuple(_wrap(v) for v in value)
    if isinstance(value, list):
        return [_wrap(v) for v in value]
    return value


class StrictHostArray:
    """A NumPy array posing as a device array.

    Arithmetic, indexing and the strict ``xp`` module all work (they
    delegate to NumPy on the wrapped buffer), but any *implicit* host
    conversion — ``np.asarray(a)``, a bare ``np.*`` ufunc on the wrapper,
    ``float(np.sum(a))``-style silent round-trips — fails loudly:

    * ``__array__`` raises, so ``np.asarray`` / ``np.array`` on a strict
      array is a :class:`TypeError` instead of a hidden transfer;
    * ``__array_ufunc__ = None`` makes NumPy ufuncs return
      ``NotImplemented``, which routes binary ops with host operands
      through the wrapper's reflected methods (mixing a host parameter
      stack into device math stays legal and on-backend).

    Explicit synchronisation (``backend.to_host``, ``float(scalar)``)
    remains available — that is the point: transfers must be spelled out.
    """

    __slots__ = ("_a",)
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, array):
        self._a = np.asarray(array)

    def __array__(self, *args, **kwargs):
        raise TypeError(
            "implicit host transfer of a strict backend array; use "
            "backend.to_host(...) for an explicit synchronisation"
        )

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self):
        return self._a.shape

    @property
    def ndim(self):
        return self._a.ndim

    @property
    def size(self):
        return self._a.size

    @property
    def dtype(self):
        return self._a.dtype

    @property
    def T(self):
        return StrictHostArray(self._a.T)

    def __len__(self):
        return len(self._a)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"strict({self._a!r})"

    # -- explicit conversions / methods -----------------------------------

    def copy(self):
        return StrictHostArray(self._a.copy())

    def astype(self, dtype):
        return StrictHostArray(self._a.astype(dtype))

    def reshape(self, *shape):
        return StrictHostArray(self._a.reshape(*shape))

    def ravel(self):
        return StrictHostArray(self._a.ravel())

    def fill(self, value):
        self._a.fill(_unwrap(value))

    def item(self):
        return self._a.item()

    def sum(self, *args, **kwargs):
        return _wrap(self._a.sum(*_unwrap(args), **kwargs))

    def max(self, *args, **kwargs):
        return _wrap(self._a.max(*_unwrap(args), **kwargs))

    def min(self, *args, **kwargs):
        return _wrap(self._a.min(*_unwrap(args), **kwargs))

    def mean(self, *args, **kwargs):
        return _wrap(self._a.mean(*_unwrap(args), **kwargs))

    def all(self, *args, **kwargs):
        return _wrap(self._a.all(*_unwrap(args), **kwargs))

    def any(self, *args, **kwargs):
        return _wrap(self._a.any(*_unwrap(args), **kwargs))

    def __float__(self):
        return float(self._a)

    def __int__(self):
        return int(self._a)

    def __bool__(self):
        return bool(self._a)

    # -- indexing ----------------------------------------------------------

    def __getitem__(self, key):
        return _wrap(self._a[_unwrap(key)])

    def __setitem__(self, key, value):
        self._a[_unwrap(key)] = _unwrap(value)

    # -- arithmetic --------------------------------------------------------

    def _binary(self, other, op):
        return _wrap(op(self._a, _unwrap(other)))

    def _rbinary(self, other, op):
        return _wrap(op(_unwrap(other), self._a))

    def _ibinary(self, other, op):
        op(self._a, _unwrap(other), out=self._a)
        return self

    def __add__(self, o):
        return self._binary(o, np.add)

    def __radd__(self, o):
        return self._rbinary(o, np.add)

    def __iadd__(self, o):
        return self._ibinary(o, np.add)

    def __sub__(self, o):
        return self._binary(o, np.subtract)

    def __rsub__(self, o):
        return self._rbinary(o, np.subtract)

    def __isub__(self, o):
        return self._ibinary(o, np.subtract)

    def __mul__(self, o):
        return self._binary(o, np.multiply)

    def __rmul__(self, o):
        return self._rbinary(o, np.multiply)

    def __imul__(self, o):
        return self._ibinary(o, np.multiply)

    def __truediv__(self, o):
        return self._binary(o, np.divide)

    def __rtruediv__(self, o):
        return self._rbinary(o, np.divide)

    def __itruediv__(self, o):
        return self._ibinary(o, np.divide)

    def __pow__(self, o):
        return self._binary(o, np.power)

    def __rpow__(self, o):
        return self._rbinary(o, np.power)

    def __matmul__(self, o):
        return self._binary(o, np.matmul)

    def __rmatmul__(self, o):
        return self._rbinary(o, np.matmul)

    def __mod__(self, o):
        return self._binary(o, np.mod)

    def __rmod__(self, o):
        return self._rbinary(o, np.mod)

    def __neg__(self):
        return StrictHostArray(-self._a)

    def __pos__(self):
        return StrictHostArray(+self._a)

    def __abs__(self):
        return StrictHostArray(np.abs(self._a))

    def __invert__(self):
        return StrictHostArray(~self._a)

    def __and__(self, o):
        return self._binary(o, np.logical_and)

    def __or__(self, o):
        return self._binary(o, np.logical_or)

    def __eq__(self, o):
        return self._binary(o, np.equal)

    def __ne__(self, o):
        return self._binary(o, np.not_equal)

    def __lt__(self, o):
        return self._binary(o, np.less)

    def __le__(self, o):
        return self._binary(o, np.less_equal)

    def __gt__(self, o):
        return self._binary(o, np.greater)

    def __ge__(self, o):
        return self._binary(o, np.greater_equal)

    __hash__ = None


class _StrictModule:
    """``xp`` namespace for the strict backend.

    A generic delegating module: every callable NumPy attribute is
    wrapped to unwrap strict-array arguments, run the NumPy function, and
    wrap ndarray results back into :class:`StrictHostArray`; scalars and
    non-array results pass through (explicit host scalars are fine — it
    is the *array* round-trips that must be spelled out).
    """

    def __init__(self):
        self._cache = {}

    def __getattr__(self, name):
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        attr = getattr(np, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = kwargs.pop("out", None)
            if out is not None:
                kwargs["out"] = _unwrap(out)
            result = attr(*_unwrap(args), **{
                k: _unwrap(v) for k, v in kwargs.items()
            })
            if out is not None:
                return out
            return _wrap(result)

        call.__name__ = name
        self._cache[name] = call
        return call


class StrictHostBackend(ArrayBackend):
    """Fake device backend: NumPy numerics, loud implicit transfers.

    Used by the backend-parity tests and the CI backend-smoke job
    (``REPRO_XP=strict``): an ensemble hot path that funnels a "device"
    array through bare ``np.*`` raises immediately instead of silently
    round-tripping through the host.
    """

    name = "strict"
    is_device = True

    def __init__(self):
        super().__init__(_STRICT_XP)

    def from_host(self, values):
        if isinstance(values, StrictHostArray):
            return values
        return StrictHostArray(np.asarray(values))

    def to_host(self, values):
        if isinstance(values, StrictHostArray):
            return values._a
        return np.asarray(values)


# ---------------------------------------------------------------------------
# Resolution and dispatch
# ---------------------------------------------------------------------------


def resolve_backend(requested):
    """Resolve a backend request to ``(backend, meta)``.

    Mirrors :func:`repro.kernels.backends.resolve_mode`: ``None`` and
    ``"auto"`` defer to ``$REPRO_XP`` (default ``numpy``); an explicitly
    named backend that is unavailable raises
    :class:`~repro.errors.ConfigurationError`.  ``meta`` records the
    request provenance for ``stats["backend"]``:
    ``{"requested": <name>, "source": "default"|"env"|"option"|"instance"}``.

    An :class:`ArrayBackend` (or duck-typed object with ``xp`` and
    ``linalg`` attributes) passes through untouched, so tests can inject
    fake device backends.
    """
    if isinstance(requested, ArrayBackend) or (
        requested is not None
        and not isinstance(requested, str)
        and hasattr(requested, "xp")
        and hasattr(requested, "linalg")
    ):
        name = getattr(requested, "name", type(requested).__name__)
        return requested, {"requested": str(name), "source": "instance"}
    if requested is not None and not isinstance(requested, str):
        raise ConfigurationError(
            f"backend must be a name from {XP_NAMES} or an ArrayBackend, "
            f"got {requested!r}"
        )

    name = "auto" if requested is None else str(requested)
    source = "option" if requested not in (None, "auto") else "default"
    if name == "auto":
        env = os.environ.get("REPRO_XP", "").strip()
        if env:
            name, source = env, "env"
        else:
            name = "numpy"
    if name not in XP_NAMES or name == "auto":
        raise ConfigurationError(
            f"unknown array backend {name!r}; expected one of {XP_NAMES}"
        )

    meta = {"requested": name, "source": source}
    if name == "numpy":
        return NUMPY, meta
    if name == "strict":
        return StrictHostBackend(), meta
    return CupyBackend(), meta


def array_namespace(*arrays):
    """The ``xp`` module the given arrays live on (NumPy when in doubt).

    The dispatch hook for batch evaluators: a stacked DAE's ``*_batch``
    method calls ``xp = array_namespace(states)`` and computes with
    ``xp.*``, so the same code serves host and device arrays.
    """
    for a in arrays:
        if isinstance(a, StrictHostArray):
            return _STRICT_XP
        xp = getattr(a, "__backend_xp__", None)
        if xp is not None:
            return xp
        module = type(a).__module__
        if module.startswith("cupy"):
            cupy = probe_cupy()
            if cupy is not None:
                return cupy
    return np


#: One shared strict module so ``array_namespace`` returns a stable handle.
_STRICT_XP = _StrictModule()
