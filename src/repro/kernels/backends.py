"""Backend resolution, compilation and caching for generated kernels.

Two execution modes:

``"c"``
    The generated C file (:mod:`repro.kernels.codegen`) compiled by the
    host toolchain (``$CC`` / ``cc`` / ``gcc`` / ``clang``) into a shared
    object and loaded through :mod:`ctypes`.  No extra dependencies.
``"python"``
    No generated code at all: the engines run their NumPy loops.  This
    is the reference every compiled path is tested against.

``kernel="auto"`` resolves to C when a compiler is on PATH and to the
NumPy engine otherwise.  Builds are cached on disk under
``$REPRO_KERNEL_CACHE`` (default: a ``repro-kernels`` directory in the
system temp dir), keyed by a content hash of the generated source, and
memoised in-process, so a long test run compiles each distinct circuit
topology once.

A spec renders to two translation units, built separately and only when
used: ``"sweep"`` (the batched evaluations and the transient sweeps,
:class:`_CKernel`) and ``"envelope"`` (the WaMPDE envelope march,
:class:`_CEnvelopeKernel`).  The envelope unit factorises with LAPACK's
``dgetrf``/``dgetrs`` at the addresses :func:`lapack_pointers` reads from
SciPy's ``cython_lapack`` capsules, so no unit links against anything
beyond ``libm``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from functools import cache, partial

import numpy as np

from repro.errors import ConfigurationError, ReproError

from . import codegen

#: Option values accepted by ``kernel=...``.
KERNEL_MODES = ("auto", "c", "python")


class KernelBuildError(ReproError):
    """Generating/compiling/loading a kernel backend failed."""


def _find_cc():
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def probe_cc():
    """True when a host C compiler is on PATH."""
    return _find_cc() is not None


#: Import-time snapshot of the compiler probe.
HAVE_CC = probe_cc()


def resolve_mode(requested):
    """Map a ``kernel=`` option value to a concrete backend mode.

    ``"auto"`` prefers the C toolchain, then the NumPy engine.
    Explicitly requesting an unavailable backend raises
    :class:`~repro.errors.ConfigurationError` eagerly, before any march
    starts.  Returns ``(mode, reason)`` where ``reason`` explains a
    python resolution (``None`` otherwise).

    ``$REPRO_KERNEL`` rewrites ``"auto"`` requests (explicit option
    values always win) — how CI pins a whole suite run to one backend
    without touching any call site.
    """
    requested = "auto" if requested is None else str(requested)
    if requested == "auto":
        requested = os.environ.get("REPRO_KERNEL") or "auto"
    if requested not in KERNEL_MODES:
        raise ConfigurationError(
            f"kernel={requested!r} is not a valid mode; choose one of "
            f"{', '.join(repr(m) for m in KERNEL_MODES)}"
        )
    if requested == "python":
        return "python", "kernel='python' requested"
    if probe_cc():
        return "c", None
    if requested == "c":
        raise ConfigurationError(
            "kernel='c' requires a host C compiler (cc/gcc/clang or "
            "$CC) on PATH; use kernel='auto' to fall back"
        )
    return "python", "no C compiler on PATH"


def _cache_dir():
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        root = os.path.join(tempfile.gettempdir(), "repro-kernels")
    os.makedirs(root, exist_ok=True)
    return root


def _source_sha(source):
    return hashlib.sha256(source.encode()).hexdigest()[:24]


@cache
def lapack_pointers():
    """Addresses of LAPACK ``dgetrf`` and ``dgetrs`` as ``c_void_p``.

    Read from the capsules :mod:`scipy.linalg.cython_lapack` exports, so
    compiled code factorises and solves with the LAPACK behind
    :func:`scipy.linalg.lu_factor` without linking to it.
    """
    from scipy.linalg import cython_lapack

    # Private prototypes: ctypes.pythonapi's own function objects are
    # shared process-wide.
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", ctypes.pythonapi))
    capsules = [cython_lapack.__pyx_capi__[f] for f in ("dgetrf", "dgetrs")]
    return tuple(ctypes.c_void_p(pointer(capsule, name(capsule)))
                 for capsule in capsules)


class _CUnit:
    """ctypes adapter over one compiled unit: the point evaluations."""

    def __init__(self, lib):
        self._lib = lib
        lib.eval_qf.restype = None
        lib.eval_jac.restype = None

    @staticmethod
    def _ptr(arr):
        return ctypes.c_void_p(arr.ctypes.data)

    def eval_qf(self, x, p, q, f):
        self._lib.eval_qf(self._ptr(x), self._ptr(p), self._ptr(q),
                          self._ptr(f))

    def eval_jac(self, x, p, dq, df):
        self._lib.eval_jac(self._ptr(x), self._ptr(p), self._ptr(dq),
                           self._ptr(df))


class _CEnvelopeKernel(_CUnit):
    """The envelope unit: ``envelope_sweep`` over LAPACK pointers."""

    def __init__(self, lib):
        super().__init__(lib)
        lib.envelope_sweep.restype = ctypes.c_longlong
        lib.envelope_sweep.argtypes = [ctypes.c_void_p] * 2 \
            + [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 18
        self._lapack = lapack_pointers()

    def envelope_sweep(self, t2_grid, b_grid, g_start, g_end, *arrays):
        args = [self._ptr(t2_grid), self._ptr(b_grid),
                ctypes.c_longlong(g_start), ctypes.c_longlong(g_end)]
        args.extend(self._ptr(a) for a in arrays)
        return int(self._lib.envelope_sweep(*args, *self._lapack))


class _CKernel(_CUnit):
    """The sweep unit: batched evaluations and the transient sweeps."""

    def __init__(self, lib):
        super().__init__(lib)
        lib.sweep.restype = ctypes.c_longlong
        lib.sweep.argtypes = [ctypes.c_void_p] * 2 \
            + [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 25
        lib.sweep_adaptive.restype = ctypes.c_longlong
        lib.sweep_adaptive.argtypes = [ctypes.c_void_p, ctypes.c_longlong] \
            + [ctypes.c_void_p] * 26
        lib.sweep_ens.restype = ctypes.c_longlong
        lib.sweep_ens.argtypes = [ctypes.c_void_p] * 2 \
            + [ctypes.c_longlong] * 4 + [ctypes.c_void_p] * 28
        for entry in (lib.eval_qf_batch, lib.eval_jac_batch):
            entry.restype = None
            entry.argtypes = [ctypes.c_void_p] * 2 \
                + [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 2

    def bind_batch(self, X, P, Q, F, DQ, DF):
        """The batched entry points with their arguments converted once.

        Returns ``(qf, jac)``: ``qf()`` evaluates ``q`` and ``f`` at the
        rows of ``X`` into ``Q`` and ``F``, ``jac()`` the Jacobians into
        ``DQ`` and ``DF`` (``P`` holds one parameter row, or one per
        row of ``X``).  The calls hold raw pointers: the caller keeps
        the arrays alive, C-contiguous and in place.
        """
        pstride = P.shape[1] if P.shape[0] > 1 else 0
        head = (self._ptr(X), self._ptr(P), ctypes.c_longlong(X.shape[0]),
                ctypes.c_longlong(pstride))
        return (
            partial(self._lib.eval_qf_batch, *head, self._ptr(Q),
                    self._ptr(F)),
            partial(self._lib.eval_jac_batch, *head, self._ptr(DQ),
                    self._ptr(DF)),
        )

    def sweep(self, t_grid, b_grid, gi_start, gi_end, *arrays):
        args = [self._ptr(t_grid), self._ptr(b_grid),
                ctypes.c_longlong(gi_start), ctypes.c_longlong(gi_end)]
        args.extend(self._ptr(a) for a in arrays)
        return int(self._lib.sweep(*args))

    def sweep_adaptive(self, b_row, max_accept, *arrays):
        args = [self._ptr(b_row), ctypes.c_longlong(max_accept)]
        args.extend(self._ptr(a) for a in arrays)
        return int(self._lib.sweep_adaptive(*args))

    def sweep_ens(self, t_grid, b_grid, gi_start, gi_end, batch, pstride,
                  *arrays):
        args = [self._ptr(t_grid), self._ptr(b_grid),
                ctypes.c_longlong(gi_start), ctypes.c_longlong(gi_end),
                ctypes.c_longlong(batch), ctypes.c_longlong(pstride)]
        args.extend(self._ptr(a) for a in arrays)
        return int(self._lib.sweep_ens(*args))


#: The translation units of a spec: source renderer and ctypes adapter.
_UNITS = {
    "sweep": (codegen.generate_c_source, _CKernel),
    "envelope": (codegen.generate_envelope_source, _CEnvelopeKernel),
}


def _build_c_library(source, sha, adapter):
    """Compile ``source`` into the cache (once) and load it.

    The compiler reads a source file private to this build and the
    library is published by an atomic rename, so processes building the
    same kernel concurrently never see each other's partial files.
    """
    cc = _find_cc()
    if cc is None:
        raise KernelBuildError("no C compiler on PATH")
    cache = _cache_dir()
    so_path = os.path.join(cache, f"kernel_{sha}.so")
    if not os.path.exists(so_path):
        fd, c_path = tempfile.mkstemp(
            prefix=f"kernel_{sha}.", suffix=".c", dir=cache
        )
        tmp_so = f"{c_path[:-2]}.so.tmp"
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(source)
            cmd = [cc, "-O2", "-fPIC", "-shared", "-o", tmp_so, c_path,
                   "-lm"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise KernelBuildError(
                    f"C kernel compilation failed ({' '.join(cmd)}):\n"
                    f"{proc.stderr}"
                )
            os.replace(tmp_so, so_path)
        finally:
            for path in (c_path, tmp_so):
                if os.path.exists(path):
                    os.remove(path)
    try:
        return adapter(ctypes.CDLL(so_path))
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(f"loading {so_path} failed: {exc}") from exc


#: In-process memo: source sha -> loaded kernel adapter.
_KERNEL_MEMO = {}


class BuiltKernel:
    """A spec bound to its compiled kernel (callables + parameter rows)."""

    mode = "c"

    def __init__(self, spec, impl, compile_time_s):
        self.spec = spec
        self.impl = impl
        self.compile_time_s = float(compile_time_s)


def build_kernel(spec, unit="sweep"):
    """Build (or fetch from cache) one compiled C unit for ``spec``.

    ``unit`` is ``"sweep"`` or ``"envelope"`` (see the module docstring).
    Raises :class:`KernelBuildError` when compiling, loading or the
    trial call fails; callers running under ``kernel="auto"`` then stay
    on the NumPy engine.
    """
    start = time.perf_counter()
    render, adapter = _UNITS[unit]
    source = render(spec)
    sha = _source_sha(source)
    impl = _KERNEL_MEMO.get(sha)
    if impl is None:
        impl = _build_c_library(source, sha, adapter)
        _trial_run(spec, impl)
        _KERNEL_MEMO[sha] = impl
    return BuiltKernel(spec, impl, time.perf_counter() - start)


def _trial_run(spec, impl):
    """Catch broken builds with a tiny call."""
    n = spec.n
    x = np.zeros(n)
    p = np.ascontiguousarray(spec.params_rows[0])
    q = np.empty(n)
    f = np.empty(n)
    dq = np.empty(n * n)
    df = np.empty(n * n)
    try:
        impl.eval_qf(x, p, q, f)
        impl.eval_jac(x, p, dq, df)
    except Exception as exc:
        raise KernelBuildError(f"kernel trial evaluation failed: {exc}") \
            from exc
